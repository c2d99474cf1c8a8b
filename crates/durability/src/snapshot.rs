//! Shard snapshots: durable checkpoints of an authenticated shard.
//!
//! A snapshot freezes one server's [`AuthenticatedShard`] at a log
//! height: the full [`ShardCheckpoint`] (items, version chains and
//! timestamps in leaf order), the shard's Merkle root, the height and
//! tip hash of the log prefix it reflects, and the server's
//! `last_committed` watermark. Recovery restores the newest snapshot
//! and replays only the log suffix **above** the snapshot height into
//! the shard, instead of re-executing the whole history
//! ([`crate::recovery`]).
//!
//! On disk a snapshot is one file, written atomically (temp file →
//! `fsync` → rename → directory `fsync`) so a crash mid-checkpoint
//! leaves the previous snapshot intact:
//!
//! ```text
//! snap-<height>.fsnap := magic(8) version(u32) crc32(u32) payload
//! payload            := canonical encoding of ShardSnapshot
//! ```
//!
//! The CRC-32 catches media corruption; binding the snapshot to the
//! *verified* log (height + tip hash + root re-computation) is what
//! makes a forged snapshot detectable — see
//! [`crate::recovery::recover_ledger`].

use core::fmt;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use fides_crypto::encoding::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use fides_crypto::Digest;
use fides_store::authenticated::AuthenticatedShard;
use fides_store::checkpoint::{CheckpointDelta, DeltaError, ShardCheckpoint};
use fides_store::types::Timestamp;

use crate::blocklog::DurableLog;
use crate::crc32::crc32;
use crate::wal::WalError;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"FIDESNAP";
/// On-disk snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// A checkpoint of one server's shard at a specific log height.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Number of log blocks whose effects the checkpoint includes.
    pub height: u64,
    /// Hash of the last included block ([`Digest::ZERO`] at height 0) —
    /// binds the snapshot to one position of one verified chain.
    pub tip_hash: Digest,
    /// The server's highest committed transaction timestamp.
    pub last_committed: Timestamp,
    /// The shard's Merkle root at the checkpoint.
    pub root: Digest,
    /// The full shard image.
    pub checkpoint: ShardCheckpoint,
}

impl ShardSnapshot {
    /// Takes a snapshot of `shard` as of log height `height`.
    pub fn capture(
        shard: &AuthenticatedShard,
        height: u64,
        tip_hash: Digest,
        last_committed: Timestamp,
    ) -> ShardSnapshot {
        ShardSnapshot {
            height,
            tip_hash,
            last_committed,
            root: shard.root(),
            checkpoint: shard.checkpoint(),
        }
    }

    /// Restores the checkpointed shard and verifies it reproduces the
    /// recorded Merkle root.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::RootMismatch`] when the restored shard's root
    /// differs from [`ShardSnapshot::root`] — the snapshot payload and
    /// its metadata disagree.
    pub fn restore_verified(&self) -> Result<AuthenticatedShard, SnapshotError> {
        let shard = self.checkpoint.restore();
        if shard.root() != self.root {
            return Err(SnapshotError::RootMismatch {
                height: self.height,
            });
        }
        Ok(shard)
    }

    /// The delta that turns this snapshot into `later`, a newer
    /// snapshot of the same shard; `None` when `later` is not newer or
    /// its image is not an in-place extension of this one
    /// ([`ShardCheckpoint::diff`]).
    pub fn diff(&self, later: &ShardSnapshot) -> Option<SnapshotDelta> {
        if later.height <= self.height {
            return None;
        }
        Some(SnapshotDelta {
            base_height: self.height,
            height: later.height,
            tip_hash: later.tip_hash,
            last_committed: later.last_committed,
            root: later.root,
            checkpoint: self.checkpoint.diff(&later.checkpoint)?,
        })
    }

    /// Turns this snapshot into the one `delta` was cut towards. The
    /// delta must have been cut against exactly this height, and its
    /// image change is checked whole first; on error nothing changes.
    /// The recorded root is taken from the delta, not recomputed — pair
    /// this with [`AuthenticatedShard::apply_delta`], which checks it.
    ///
    /// # Errors
    ///
    /// [`DeltaError::BaseMismatch`] for a delta cut against another
    /// height, or the image check's [`DeltaError`].
    pub fn apply_delta(&mut self, delta: &SnapshotDelta) -> Result<(), DeltaError> {
        if delta.base_height != self.height || delta.height <= self.height {
            return Err(DeltaError::BaseMismatch);
        }
        self.checkpoint.apply_delta(&delta.checkpoint)?;
        self.height = delta.height;
        self.tip_hash = delta.tip_hash;
        self.last_committed = delta.last_committed;
        self.root = delta.root;
        Ok(())
    }
}

/// The difference between two snapshots of one shard
/// ([`ShardSnapshot::diff`]): the newer snapshot's metadata plus the
/// image delta from the `base_height` snapshot. Checkpoint mirroring
/// ships these once a peer holds the origin's previous mirror.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotDelta {
    /// Height of the snapshot the delta applies to.
    pub base_height: u64,
    /// Height of the snapshot the delta produces.
    pub height: u64,
    /// The new snapshot's tip hash.
    pub tip_hash: Digest,
    /// The new snapshot's `last_committed` watermark.
    pub last_committed: Timestamp,
    /// The new snapshot's shard root.
    pub root: Digest,
    /// Changed and appended items.
    pub checkpoint: CheckpointDelta,
}

impl Encodable for SnapshotDelta {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.base_height);
        enc.put_u64(self.height);
        enc.put_digest(&self.tip_hash);
        self.last_committed.encode_into(enc);
        enc.put_digest(&self.root);
        self.checkpoint.encode_into(enc);
    }
}

impl Decodable for SnapshotDelta {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(SnapshotDelta {
            base_height: dec.take_u64()?,
            height: dec.take_u64()?,
            tip_hash: dec.take_digest()?,
            last_committed: Timestamp::decode_from(dec)?,
            root: dec.take_digest()?,
            checkpoint: CheckpointDelta::decode_from(dec)?,
        })
    }
}

/// The height below which a server may prune its WAL: its newest own
/// snapshot, but no higher than the oldest checkpoint mirror it holds
/// for a peer. A peer that lost its disk fetches its mirror back and
/// then replays the blocks above it, so those blocks must stay
/// servable. Both durability engines prune through this.
#[derive(Clone, Debug, Default)]
pub struct PruneFloor {
    own: u64,
    mirrors: BTreeMap<u32, u64>,
    pruned: u64,
}

impl PruneFloor {
    /// A floor holding `mirrors` (`(origin, height)`, e.g. reloaded at
    /// restart) and no own snapshot yet.
    pub fn new(mirrors: impl IntoIterator<Item = (u32, u64)>) -> Self {
        PruneFloor {
            mirrors: mirrors.into_iter().collect(),
            ..PruneFloor::default()
        }
    }

    /// Records a saved own snapshot at `height`.
    pub fn own_snapshot(&mut self, height: u64) {
        self.own = self.own.max(height);
    }

    /// Records a held mirror of `origin` at `height`.
    pub fn mirror(&mut self, origin: u32, height: u64) {
        let held = self.mirrors.entry(origin).or_default();
        *held = (*held).max(height);
    }

    /// The current floor: `min(own snapshot, every held mirror)`.
    pub fn height(&self) -> u64 {
        self.mirrors.values().copied().fold(self.own, u64::min)
    }

    /// Prunes `log` below the floor when it rose since the last prune.
    ///
    /// # Errors
    ///
    /// The log's prune failure.
    pub fn prune(&mut self, log: &mut dyn DurableLog) -> Result<(), WalError> {
        let floor = self.height();
        if floor > self.pruned {
            log.prune_below(floor)?;
            self.pruned = floor;
        }
        Ok(())
    }
}

impl Encodable for ShardSnapshot {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.height);
        enc.put_digest(&self.tip_hash);
        self.last_committed.encode_into(enc);
        enc.put_digest(&self.root);
        self.checkpoint.encode_into(enc);
    }
}

impl Decodable for ShardSnapshot {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ShardSnapshot {
            height: dec.take_u64()?,
            tip_hash: dec.take_digest()?,
            last_committed: Timestamp::decode_from(dec)?,
            root: dec.take_digest()?,
            checkpoint: ShardCheckpoint::decode_from(dec)?,
        })
    }
}

/// Why a snapshot could not be saved or loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// An I/O failure (with the path it happened on).
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The snapshot file is not a valid snapshot (bad magic/version).
    BadHeader {
        /// The offending file.
        file: PathBuf,
        /// What was wrong.
        reason: &'static str,
    },
    /// The payload fails its CRC-32 — media corruption.
    ChecksumMismatch {
        /// The offending file.
        file: PathBuf,
    },
    /// The payload does not decode as a snapshot.
    Decode {
        /// The offending file.
        file: PathBuf,
        /// The decoder's error.
        source: DecodeError,
    },
    /// The restored shard's Merkle root differs from the recorded one.
    RootMismatch {
        /// The snapshot's claimed height.
        height: u64,
    },
}

impl SnapshotError {
    fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        SnapshotError::Io {
            path: path.into(),
            source,
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, source } => {
                write!(f, "snapshot i/o on {}: {source}", path.display())
            }
            SnapshotError::BadHeader { file, reason } => {
                write!(f, "bad snapshot header in {}: {reason}", file.display())
            }
            SnapshotError::ChecksumMismatch { file } => {
                write!(f, "snapshot crc-32 mismatch in {}", file.display())
            }
            SnapshotError::Decode { file, source } => {
                write!(f, "snapshot {} does not decode: {source}", file.display())
            }
            SnapshotError::RootMismatch { height } => write!(
                f,
                "snapshot at height {height}: restored shard root differs from recorded root"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            SnapshotError::Decode { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Durable storage for [`ShardSnapshot`]s.
///
/// Implementations keep (at least) the newest snapshot; older ones may
/// be garbage-collected.
///
/// Beyond its own checkpoints, a store can hold **mirrors**: peers'
/// checkpoints replicated here so that a peer which later loses its
/// disk below the cluster's pruned-WAL floor can fetch its own shard
/// image back during anti-entropy repair (checkpoint state transfer).
/// Only the newest mirror per origin server is kept.
pub trait SnapshotStore: Send + fmt::Debug {
    /// Persists a snapshot atomically.
    fn save(&mut self, snapshot: &ShardSnapshot) -> Result<(), SnapshotError>;

    /// Loads the newest stored snapshot, or `None` when none exists.
    fn load_latest(&self) -> Result<Option<ShardSnapshot>, SnapshotError>;

    /// Persists a mirror of `origin`'s checkpoint, replacing any older
    /// mirror for that origin. Backends without mirror support drop it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on I/O failure.
    fn save_mirror(&mut self, origin: u32, snapshot: &ShardSnapshot) -> Result<(), SnapshotError> {
        let _ = (origin, snapshot);
        Ok(())
    }

    /// Every stored mirror, as `(origin, snapshot)` pairs.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on I/O failure or a corrupt mirror file.
    fn load_mirrors(&self) -> Result<Vec<(u32, ShardSnapshot)>, SnapshotError> {
        Ok(Vec::new())
    }
}

/// File-backed [`SnapshotStore`]: one `snap-<height>.fsnap` per
/// checkpoint in a directory, atomically replaced.
#[derive(Debug)]
pub struct FileSnapshotStore {
    dir: PathBuf,
}

fn snapshot_path(dir: &Path, height: u64) -> PathBuf {
    dir.join(format!("snap-{height:020}.fsnap"))
}

fn mirror_path(dir: &Path, origin: u32) -> PathBuf {
    dir.join(format!("mirror-{origin:010}.fsnap"))
}

/// Writes one framed snapshot file atomically (tmp → fsync → rename →
/// directory fsync) — shared by own checkpoints and mirrors.
fn write_snapshot_file(
    dir: &Path,
    final_path: &Path,
    snapshot: &ShardSnapshot,
) -> Result<(), SnapshotError> {
    let payload = snapshot.encode();
    let tmp_path = final_path.with_extension("fsnap.tmp");
    {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)
            .map_err(|e| SnapshotError::io(&tmp_path, e))?;
        file.write_all(SNAPSHOT_MAGIC)
            .and_then(|()| file.write_all(&SNAPSHOT_VERSION.to_be_bytes()))
            .and_then(|()| file.write_all(&crc32(&payload).to_be_bytes()))
            .and_then(|()| file.write_all(&payload))
            .and_then(|()| file.sync_all())
            .map_err(|e| SnapshotError::io(&tmp_path, e))?;
    }
    fs::rename(&tmp_path, final_path).map_err(|e| SnapshotError::io(final_path, e))?;
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| SnapshotError::io(dir, e))
}

/// Reads and integrity-checks one framed snapshot file.
fn read_snapshot_file(path: &Path) -> Result<ShardSnapshot, SnapshotError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| SnapshotError::io(path, e))?;
    if bytes.len() < 16 || &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadHeader {
            file: path.to_path_buf(),
            reason: "magic bytes missing",
        });
    }
    let version = u32::from_be_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadHeader {
            file: path.to_path_buf(),
            reason: "unsupported format version",
        });
    }
    let expected_crc = u32::from_be_bytes(bytes[12..16].try_into().expect("4 bytes"));
    let payload = &bytes[16..];
    if crc32(payload) != expected_crc {
        return Err(SnapshotError::ChecksumMismatch {
            file: path.to_path_buf(),
        });
    }
    ShardSnapshot::decode(payload).map_err(|source| SnapshotError::Decode {
        file: path.to_path_buf(),
        source,
    })
}

impl FileSnapshotStore {
    /// Opens (creating if needed) the snapshot directory.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<FileSnapshotStore, SnapshotError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| SnapshotError::io(&dir, e))?;
        Ok(FileSnapshotStore { dir })
    }

    /// Lists snapshot files in ascending height order.
    fn list(&self) -> Result<Vec<(u64, PathBuf)>, SnapshotError> {
        let mut snaps = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| SnapshotError::io(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| SnapshotError::io(&self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(h) = name
                .strip_prefix("snap-")
                .and_then(|n| n.strip_suffix(".fsnap"))
                .and_then(|n| n.parse::<u64>().ok())
            {
                snaps.push((h, entry.path()));
            }
        }
        snaps.sort_unstable_by_key(|(h, _)| *h);
        Ok(snaps)
    }
}

impl SnapshotStore for FileSnapshotStore {
    fn save(&mut self, snapshot: &ShardSnapshot) -> Result<(), SnapshotError> {
        let final_path = snapshot_path(&self.dir, snapshot.height);
        write_snapshot_file(&self.dir, &final_path, snapshot)?;

        // Garbage-collect older snapshots (best effort — the newest one
        // is already durable).
        for (h, path) in self.list()? {
            if h < snapshot.height {
                let _ = fs::remove_file(path);
            }
        }
        Ok(())
    }

    fn load_latest(&self) -> Result<Option<ShardSnapshot>, SnapshotError> {
        let Some((_, path)) = self.list()?.pop() else {
            return Ok(None);
        };
        read_snapshot_file(&path).map(Some)
    }

    fn save_mirror(&mut self, origin: u32, snapshot: &ShardSnapshot) -> Result<(), SnapshotError> {
        // One file per origin, atomically replaced: the newest mirror
        // supersedes older ones.
        let final_path = mirror_path(&self.dir, origin);
        write_snapshot_file(&self.dir, &final_path, snapshot)
    }

    fn load_mirrors(&self) -> Result<Vec<(u32, ShardSnapshot)>, SnapshotError> {
        let mut mirrors = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| SnapshotError::io(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| SnapshotError::io(&self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(origin) = name
                .strip_prefix("mirror-")
                .and_then(|n| n.strip_suffix(".fsnap"))
                .and_then(|n| n.parse::<u32>().ok())
            {
                mirrors.push((origin, read_snapshot_file(&entry.path())?));
            }
        }
        mirrors.sort_unstable_by_key(|(origin, _)| *origin);
        Ok(mirrors)
    }
}

/// In-memory [`SnapshotStore`] — the pre-durability behavior, also used
/// to run the persistence-aware server paths without touching disk.
#[derive(Debug, Default)]
pub struct MemorySnapshotStore {
    state: std::sync::Arc<std::sync::Mutex<MemorySnapshotState>>,
}

#[derive(Debug, Default)]
struct MemorySnapshotState {
    latest: Option<ShardSnapshot>,
    mirrors: std::collections::BTreeMap<u32, ShardSnapshot>,
}

impl MemorySnapshotStore {
    /// A fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle sharing this store's contents — state survives dropping
    /// the original (simulating a disk across a simulated crash).
    pub fn handle(&self) -> MemorySnapshotStore {
        MemorySnapshotStore {
            state: std::sync::Arc::clone(&self.state),
        }
    }
}

impl SnapshotStore for MemorySnapshotStore {
    fn save(&mut self, snapshot: &ShardSnapshot) -> Result<(), SnapshotError> {
        self.state.lock().expect("snapshot store lock").latest = Some(snapshot.clone());
        Ok(())
    }

    fn load_latest(&self) -> Result<Option<ShardSnapshot>, SnapshotError> {
        Ok(self
            .state
            .lock()
            .expect("snapshot store lock")
            .latest
            .clone())
    }

    fn save_mirror(&mut self, origin: u32, snapshot: &ShardSnapshot) -> Result<(), SnapshotError> {
        self.state
            .lock()
            .expect("snapshot store lock")
            .mirrors
            .insert(origin, snapshot.clone());
        Ok(())
    }

    fn load_mirrors(&self) -> Result<Vec<(u32, ShardSnapshot)>, SnapshotError> {
        Ok(self
            .state
            .lock()
            .expect("snapshot store lock")
            .mirrors
            .iter()
            .map(|(origin, snap)| (*origin, snap.clone()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use fides_store::types::{Key, Value};

    fn shard(n: usize) -> AuthenticatedShard {
        AuthenticatedShard::new(
            (0..n)
                .map(|i| (Key::new(format!("k{i:03}")), Value::from_i64(i as i64)))
                .collect(),
        )
    }

    fn sample(height: u64) -> ShardSnapshot {
        let mut s = shard(12);
        s.apply_commit(
            Timestamp::new(9, 0),
            &[Key::new("k001")],
            &[(Key::new("k002"), Value::from_i64(77))],
        );
        ShardSnapshot::capture(&s, height, Digest::new([7; 32]), Timestamp::new(9, 0))
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = TempDir::new("snap-roundtrip");
        let snap = sample(5);
        let mut store = FileSnapshotStore::open(dir.path()).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        store.save(&snap).unwrap();
        let loaded = store.load_latest().unwrap().expect("snapshot present");
        assert_eq!(loaded, snap);
        let restored = loaded.restore_verified().unwrap();
        assert_eq!(restored.root(), snap.root);
    }

    #[test]
    fn newer_snapshot_replaces_older() {
        let dir = TempDir::new("snap-gc");
        let mut store = FileSnapshotStore::open(dir.path()).unwrap();
        store.save(&sample(3)).unwrap();
        store.save(&sample(9)).unwrap();
        assert_eq!(store.load_latest().unwrap().unwrap().height, 9);
        // The old file was garbage-collected.
        assert_eq!(store.list().unwrap().len(), 1);
    }

    #[test]
    fn flipped_byte_fails_checksum() {
        let dir = TempDir::new("snap-flip");
        let mut store = FileSnapshotStore::open(dir.path()).unwrap();
        store.save(&sample(4)).unwrap();
        let path = store.list().unwrap()[0].1.clone();
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load_latest(),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn forged_metadata_fails_restore() {
        let mut snap = sample(4);
        snap.root = Digest::new([0xEE; 32]);
        assert!(matches!(
            snap.restore_verified(),
            Err(SnapshotError::RootMismatch { height: 4 })
        ));
    }

    #[test]
    fn tmp_file_leftover_is_ignored() {
        let dir = TempDir::new("snap-tmp");
        let mut store = FileSnapshotStore::open(dir.path()).unwrap();
        // A crash mid-save leaves a .tmp file behind; it must not be
        // picked up as a snapshot.
        fs::write(dir.join("snap-00000000000000000009.fsnap.tmp"), b"junk").unwrap();
        assert!(store.load_latest().unwrap().is_none());
        store.save(&sample(2)).unwrap();
        assert_eq!(store.load_latest().unwrap().unwrap().height, 2);
    }

    #[test]
    fn mirrors_roundtrip_and_replace_per_origin() {
        let dir = TempDir::new("snap-mirrors");
        let mut store = FileSnapshotStore::open(dir.path()).unwrap();
        assert!(store.load_mirrors().unwrap().is_empty());
        store.save_mirror(2, &sample(4)).unwrap();
        store.save_mirror(0, &sample(8)).unwrap();
        store.save_mirror(2, &sample(12)).unwrap(); // replaces origin 2
        store.save(&sample(16)).unwrap(); // own snapshot is separate
        let mirrors = store.load_mirrors().unwrap();
        assert_eq!(mirrors.len(), 2);
        assert_eq!(mirrors[0].0, 0);
        assert_eq!(mirrors[0].1.height, 8);
        assert_eq!(mirrors[1].0, 2);
        assert_eq!(mirrors[1].1.height, 12);
        assert_eq!(store.load_latest().unwrap().unwrap().height, 16);

        let mut memory = MemorySnapshotStore::new();
        memory.save_mirror(1, &sample(4)).unwrap();
        memory.save_mirror(1, &sample(6)).unwrap();
        let mirrors = memory.load_mirrors().unwrap();
        assert_eq!(mirrors.len(), 1);
        assert_eq!(mirrors[0].1.height, 6);
    }

    #[test]
    fn memory_store_survives_drop_via_handle() {
        let store = MemorySnapshotStore::new();
        let mut writer = store.handle();
        writer.save(&sample(6)).unwrap();
        drop(writer); // the "server" crashes
        assert_eq!(store.load_latest().unwrap().unwrap().height, 6);
    }

    #[test]
    fn snapshot_delta_roundtrip_and_apply() {
        let base = sample(4);
        let mut s = base.checkpoint.restore();
        s.apply_commit(
            Timestamp::new(12, 0),
            &[Key::new("k003")],
            &[
                (Key::new("k002"), Value::from_i64(78)),
                (Key::new("new"), Value::from_i64(1)),
            ],
        );
        let later = ShardSnapshot::capture(&s, 8, Digest::new([8; 32]), Timestamp::new(12, 0));
        let delta = base.diff(&later).expect("later extends base");
        assert_eq!(SnapshotDelta::decode(&delta.encode()).unwrap(), delta);
        let mut applied = base.clone();
        applied.apply_delta(&delta).unwrap();
        assert_eq!(applied, later);
        assert_eq!(applied.encode(), later.encode(), "byte-identical image");
        // Only the exact base takes the delta; stale targets are refused.
        assert_eq!(applied.apply_delta(&delta), Err(DeltaError::BaseMismatch));
        assert!(later.diff(&base).is_none());
    }

    #[test]
    fn prune_floor_waits_for_the_oldest_mirror() {
        let mut floor = PruneFloor::new([(3, 8)]);
        floor.own_snapshot(12);
        assert_eq!(floor.height(), 8);
        floor.mirror(1, 10);
        assert_eq!(floor.height(), 8);
        floor.mirror(3, 16);
        assert_eq!(floor.height(), 10);
        floor.mirror(1, 20);
        assert_eq!(floor.height(), 12);
    }

    #[test]
    fn snapshot_encoding_roundtrip() {
        let snap = sample(11);
        assert_eq!(ShardSnapshot::decode(&snap.encode()).unwrap(), snap);
    }
}
