//! Server-level crash recovery: persistence configuration, backend
//! selection, and the verified restart path (paper §4.2.1's
//! recoverability, hardened for untrusted disks).
//!
//! `fides-durability` recovers and re-verifies the *ledger* (WAL →
//! [`TamperProofLog`] with hash links and collective signatures
//! re-checked, snapshot bound to the verified chain). This module adds
//! the *server* half: rebuilding the [`AuthenticatedShard`] by
//! restoring the newest snapshot and replaying only the log suffix
//! above it, re-deriving `last_committed`, and cross-checking the
//! replayed shard against the per-shard Merkle roots co-signed inside
//! the blocks — a root mismatch means the disk state disagrees with
//! the collectively signed history, and startup is refused.
//!
//! A server that passes recovery hands its reopened log and snapshot
//! store to a [`CommitPipeline`], every persisted server's one
//! durability engine: from then on all of its WAL and snapshot I/O
//! runs on the pipeline's writer thread.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use core::fmt;

use fides_crypto::schnorr::PublicKey;
use fides_durability::{
    recover_ledger, CommitPipeline, DurableLog, FileSnapshotStore, MemoryBlockLog,
    MemorySnapshotStore, PipelineConfig, PruneFloor, RecoveryError, ShardSnapshot, SnapshotStore,
    WalBlockLog, WalConfig,
};
use fides_ledger::block::{Block, Decision};
use fides_ledger::log::TamperProofLog;
use fides_store::authenticated::AuthenticatedShard;
use fides_store::types::{Key, Timestamp, Value};

use crate::messages::CommitProtocol;
use crate::partition::Partitioner;

/// How many blocks between automatic shard snapshots by default.
pub const DEFAULT_SNAPSHOT_INTERVAL: u64 = 32;

/// Where a cluster persists its per-server state.
#[derive(Clone, Debug)]
pub enum PersistenceBackend {
    /// Segmented WAL + snapshot files under `<dir>/server-<idx>/`.
    Files(PathBuf),
    /// Shared in-memory stores (the pre-durability behavior, with
    /// crash/recovery still exercisable: state outlives the servers).
    Memory(MemoryCluster),
}

/// The shared in-memory "disks" of a [`PersistenceBackend::Memory`]
/// cluster, one per server index. Clones share storage, so a restarted
/// cluster built from a clone recovers the previous cluster's state.
#[derive(Clone, Debug, Default)]
pub struct MemoryCluster {
    stores: Arc<Mutex<HashMap<u32, (MemoryBlockLog, MemorySnapshotStore)>>>,
}

impl MemoryCluster {
    /// A fresh set of empty in-memory disks.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handles on server `idx`'s log and snapshot stores.
    fn open(&self, idx: u32) -> (MemoryBlockLog, MemorySnapshotStore) {
        let mut stores = self.stores.lock().expect("memory cluster lock");
        let (log, snaps) = stores.entry(idx).or_default();
        (log.handle(), snaps.handle())
    }
}

/// Persistence settings for a cluster.
#[derive(Clone, Debug)]
pub struct PersistenceConfig {
    /// Which backend stores the WAL and snapshots.
    pub backend: PersistenceBackend,
    /// WAL tuning (segment size, sync policy). Every server's WAL runs
    /// behind a dedicated writer thread with asynchronous group commit
    /// (see [`CommitPipeline`]).
    pub wal: WalConfig,
    /// Blocks between automatic shard snapshots (0 = never snapshot —
    /// recovery then replays the full log).
    pub snapshot_interval: u64,
    /// Prune WAL segments below each saved snapshot, bounding the WAL
    /// directory's disk footprint — but never above the oldest peer
    /// mirror held here ([`PruneFloor`]), whose origin may need the
    /// blocks above it back.
    pub prune_wal: bool,
    /// With `prune_wal`, park pruned segments in `<server-dir>/archive`
    /// (file backend) instead of deleting them — the auditor can still
    /// request the full history, restarts rebuild the complete
    /// in-memory log, and repair peers can serve archived blocks.
    /// Without it, restarts recover a *suffix* log bound to the
    /// snapshot; the audit then seeds its replay from each server's
    /// surrendered checkpoint.
    pub archive_pruned: bool,
    /// Acknowledge client outcomes only once a **quorum** of servers
    /// (majority, coordinator included) reports the block durable —
    /// closing the gap where an ack covered only the coordinator's
    /// copy. Cohorts report with `Message::Durable` from their WAL
    /// writer thread once their own fsync covers the block.
    pub quorum_acks: bool,
}

impl PersistenceConfig {
    /// File-backed persistence under `dir` with default tuning.
    pub fn files(dir: impl Into<PathBuf>) -> Self {
        PersistenceConfig {
            backend: PersistenceBackend::Files(dir.into()),
            wal: WalConfig::default(),
            snapshot_interval: DEFAULT_SNAPSHOT_INTERVAL,
            prune_wal: false,
            archive_pruned: true,
            quorum_acks: false,
        }
    }

    /// In-memory persistence over `disks`.
    pub fn memory(disks: MemoryCluster) -> Self {
        PersistenceConfig {
            backend: PersistenceBackend::Memory(disks),
            wal: WalConfig::default(),
            snapshot_interval: DEFAULT_SNAPSHOT_INTERVAL,
            prune_wal: false,
            archive_pruned: true,
            quorum_acks: false,
        }
    }

    /// Overrides the WAL configuration.
    pub fn wal(mut self, wal: WalConfig) -> Self {
        self.wal = wal;
        self
    }

    /// Overrides the snapshot interval.
    pub fn snapshot_interval(mut self, blocks: u64) -> Self {
        self.snapshot_interval = blocks;
        self
    }

    /// Enables WAL pruning below snapshots (see
    /// [`PersistenceConfig::prune_wal`]).
    pub fn prune_wal(mut self, prune: bool) -> Self {
        self.prune_wal = prune;
        self
    }

    /// Controls whether pruned segments are archived for the auditor or
    /// deleted outright.
    pub fn archive_pruned(mut self, archive: bool) -> Self {
        self.archive_pruned = archive;
        self
    }

    /// Enables quorum-durable client acknowledgements (see
    /// [`PersistenceConfig::quorum_acks`]).
    pub fn quorum_acks(mut self, quorum: bool) -> Self {
        self.quorum_acks = quorum;
        self
    }

    /// The on-disk directory of server `idx` (file backend only).
    pub fn server_dir(root: &std::path::Path, idx: u32) -> PathBuf {
        root.join(format!("server-{idx:03}"))
    }
}

/// Why a persisted server refused to start.
#[derive(Debug)]
pub enum ServerStartError {
    /// The ledger-level recovery failed (corrupt WAL, tampered chain,
    /// unlinked snapshot, ...).
    Recovery {
        /// The refusing server.
        server: u32,
        /// What failed.
        source: RecoveryError,
    },
    /// Replaying the verified log left the shard with a Merkle root
    /// different from the one this server co-signed in a block — the
    /// persisted datastore disagrees with the signed history.
    ShardRootMismatch {
        /// The refusing server.
        server: u32,
        /// The block whose root check failed.
        height: u64,
    },
}

impl fmt::Display for ServerStartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerStartError::Recovery { server, source } => {
                write!(f, "server {server}: {source}")
            }
            ServerStartError::ShardRootMismatch { server, height } => write!(
                f,
                "server {server}: refusing startup: replayed shard root at block {height} \
                 does not match the co-signed root"
            ),
        }
    }
}

impl std::error::Error for ServerStartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerStartError::Recovery { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A recovered server: verified state plus the commit pipeline, over
/// the re-opened persistence handles, to keep appending through.
#[derive(Debug)]
pub struct RecoveredServer {
    /// The re-validated log.
    pub log: TamperProofLog,
    /// The shard with the snapshot restored and the log suffix
    /// replayed.
    pub shard: AuthenticatedShard,
    /// Highest committed transaction timestamp in the recovered state.
    pub last_committed: Timestamp,
    /// The durability engine, owning the log and snapshot store.
    pub pipeline: CommitPipeline,
    /// Peers' checkpoint mirrors persisted on this disk — reloaded so
    /// the server keeps serving them after its own restart (repair
    /// plane).
    pub mirrors: Vec<(u32, ShardSnapshot)>,
    /// `true` when recovery adopted a snapshot found **ahead** of the
    /// durable log (the WAL lost its tail past the checkpoint): the
    /// adopted tip hash is trusted provisionally and the server starts
    /// in `Repairing` until a peer's co-signed chain confirms or
    /// replaces it.
    pub provisional: bool,
}

/// Opens server `idx`'s backend, runs the verified recovery path, and
/// replays the log (suffix) into the shard.
///
/// `initial_shard` is the deterministic preloaded population — the
/// state a fresh server starts from and the replay base when no
/// snapshot exists. `protocol` selects the verification and replay
/// semantics: the 2PC baseline has unsigned blocks (no cosign pass)
/// and maintains no Merkle tree (store-only replay, and servers never
/// snapshot under it).
///
/// A server whose durable log ends below its peers' (torn by a crash,
/// or the disk lost entirely) starts at whatever verified height its
/// disk supports and then **repairs**: the repair plane
/// ([`crate::repair`]) fetches the missing decision blocks — or a
/// mirrored checkpoint plus log suffix when peers have pruned below the
/// restart height — from its peers, re-verifies everything, and rejoins
/// live rounds. Until the repair completes the auditor treats the
/// server as lagging, not faulty.
///
/// # Errors
///
/// [`ServerStartError`] when the persisted state fails any integrity
/// check; the server must not serve traffic.
pub fn recover_server(
    idx: u32,
    initial_shard: AuthenticatedShard,
    partitioner: &Partitioner,
    server_pks: &[PublicKey],
    protocol: CommitProtocol,
    persistence: &PersistenceConfig,
) -> Result<RecoveredServer, ServerStartError> {
    let verify_cosign = protocol == CommitProtocol::TfCommit;
    let recovery_err = |source| ServerStartError::Recovery {
        server: idx,
        source,
    };

    // Open the backend: durable handles + everything it already holds.
    type OpenedBackend = (
        Box<dyn DurableLog>,
        Vec<Block>,
        Box<dyn SnapshotStore>,
        Option<ShardSnapshot>,
    );
    let (log_handle, blocks, snap_handle, snapshot): OpenedBackend = match &persistence.backend {
        PersistenceBackend::Files(root) => {
            let dir = PersistenceConfig::server_dir(root, idx);
            // With archival pruning, pruned segments park in `archive/`
            // and the full chain is reassembled from both directories;
            // without it the WAL may legitimately start above height 0
            // and recovery binds the suffix to the snapshot.
            let (wal, blocks) = if persistence.prune_wal && persistence.archive_pruned {
                WalBlockLog::open_with_archive(
                    dir.join("wal"),
                    dir.join("archive"),
                    persistence.wal,
                )
            } else {
                WalBlockLog::open(dir.join("wal"), persistence.wal)
            }
            .map_err(|e| recovery_err(RecoveryError::Wal(e)))?;
            let snaps = FileSnapshotStore::open(dir.join("snapshots"))
                .map_err(|e| recovery_err(RecoveryError::Snapshot(e)))?;
            let snapshot = snaps
                .load_latest()
                .map_err(|e| recovery_err(RecoveryError::Snapshot(e)))?;
            (Box::new(wal), blocks, Box::new(snaps), snapshot)
        }
        PersistenceBackend::Memory(disks) => {
            let (log, snaps) = disks.open(idx);
            let blocks = log.blocks();
            let snapshot = snaps
                .load_latest()
                .map_err(|e| recovery_err(RecoveryError::Snapshot(e)))?;
            (Box::new(log), blocks, Box::new(snaps), snapshot)
        }
    };

    // Peers' checkpoint mirrors survive this server's own restart.
    let mirrors = snap_handle
        .load_mirrors()
        .map_err(|e| recovery_err(RecoveryError::Snapshot(e)))?;

    // A snapshot AHEAD of the durable log: the WAL lost blocks the
    // checkpoint had already absorbed (a torn adoption, or segments
    // destroyed past the checkpoint). The pre-repair system refused
    // such disks outright; with the repair plane the checkpoint is
    // adopted *provisionally* — the server starts as a suffix at the
    // checkpoint height, in `Repairing`, and only rejoins once a peer's
    // co-signed chain confirms (or extends past) the adopted tip hash.
    // A forged snapshot therefore quarantines the server instead of
    // letting it serve fabricated state.
    let log_end = blocks.last().map_or(0, |b| b.height + 1);
    if let Some(snap) = &snapshot {
        if snap.height > log_end {
            let shard = snap
                .restore_verified()
                .map_err(|e| recovery_err(RecoveryError::Snapshot(e)))?;
            let mut log_handle = log_handle;
            log_handle
                .reset_to(snap.height)
                .map_err(|e| recovery_err(RecoveryError::Wal(e)))?;
            let log = TamperProofLog::from_suffix(snap.height, snap.tip_hash, Vec::new())
                .expect("empty suffix always chains");
            let pipeline = build_pipeline(
                persistence,
                log_handle,
                snap_handle,
                log.next_height(),
                &mirrors,
            );
            return Ok(RecoveredServer {
                log,
                shard,
                last_committed: snap.last_committed,
                pipeline,
                mirrors,
                provisional: true,
            });
        }
    }

    // Ledger-level verification: chain, signatures, snapshot binding.
    let recovered =
        recover_ledger(blocks, snapshot, server_pks, verify_cosign).map_err(recovery_err)?;

    // Shard base: restored snapshot, or the preloaded population.
    let (mut shard, mut last_committed) = match &recovered.snapshot {
        Some(snap) => {
            let shard = snap
                .restore_verified()
                .expect("snapshot verified by recover_ledger");
            (shard, snap.last_committed)
        }
        None => (initial_shard, Timestamp::ZERO),
    };

    // Replay the suffix, cross-checking the roots this server co-signed.
    for block in recovered.replay_blocks() {
        if block.decision != Decision::Commit {
            continue;
        }
        replay_block(&mut shard, block, partitioner, idx, protocol);
        if let Some(ts) = block.max_txn_ts() {
            if ts > last_committed {
                last_committed = ts;
            }
        }
        if let Some(signed_root) = block.root_of(idx) {
            if shard.root() != signed_root {
                return Err(ServerStartError::ShardRootMismatch {
                    server: idx,
                    height: block.height,
                });
            }
        }
    }

    let pipeline = build_pipeline(
        persistence,
        log_handle,
        snap_handle,
        recovered.log.next_height(),
        &mirrors,
    );

    Ok(RecoveredServer {
        log: recovered.log,
        shard,
        last_committed,
        pipeline,
        mirrors,
        provisional: false,
    })
}

/// Hands the opened backend handles to a commit pipeline; the reloaded
/// `mirrors` hold its prune floor from the start.
fn build_pipeline(
    persistence: &PersistenceConfig,
    log_handle: Box<dyn DurableLog>,
    snap_handle: Box<dyn SnapshotStore>,
    durable_height: u64,
    mirrors: &[(u32, ShardSnapshot)],
) -> CommitPipeline {
    CommitPipeline::with_floor(
        log_handle,
        snap_handle,
        durable_height,
        PipelineConfig {
            prune_wal: persistence.prune_wal,
        },
        PruneFloor::new(mirrors.iter().map(|(origin, snap)| (*origin, snap.height))),
    )
}

/// Applies one committed block's effects on `server`'s shard — the
/// replay twin of the live commit path in `Server::apply_block`,
/// including its protocol split (2PC keeps no Merkle tree). Also used
/// by the repair plane to replay verified transfers
/// ([`crate::repair::verify_transfer`]).
pub(crate) fn replay_block(
    shard: &mut AuthenticatedShard,
    block: &Block,
    partitioner: &Partitioner,
    server: u32,
    protocol: CommitProtocol,
) {
    for txn in &block.txns {
        let reads: Vec<Key> = txn
            .read_set
            .iter()
            .filter(|r| partitioner.owner(&r.key) == server)
            .map(|r| r.key.clone())
            .collect();
        let writes: Vec<(Key, Value)> = txn
            .write_set
            .iter()
            .filter(|w| partitioner.owner(&w.key) == server)
            .map(|w| (w.key.clone(), w.new_value.clone()))
            .collect();
        match protocol {
            CommitProtocol::TfCommit => {
                shard.apply_commit(txn.id, &reads, &writes);
            }
            CommitProtocol::TwoPhaseCommit => {
                shard.apply_commit_store_only(txn.id, &reads, &writes);
            }
        }
    }
}
