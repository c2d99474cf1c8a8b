//! The segmented append-only write-ahead log.
//!
//! A WAL directory holds a sequence of **segment** files named
//! `wal-<first-record>.seg`. Each segment starts with a fixed header
//! (magic, format version, index of its first record) followed by
//! length-prefixed, CRC-32-checksummed records:
//!
//! ```text
//! segment  := magic(8) version(u32) first_record(u64) record*
//! record   := len(u32) crc32(u32) payload(len bytes)
//! ```
//!
//! Appends are buffered and flushed with one `fsync` per [`sync`] call
//! (group commit): callers append a batch of records and pay the disk
//! round-trip once. A server never calls it on its commit path: each
//! server's WAL is owned by a [`CommitPipeline`] writer thread, whose
//! one covering `fsync` spans every block queued since the previous
//! one. When a segment grows past the configured size, the
//! writer seals it with a final `fsync` and rotates to a fresh segment,
//! so old segments are immutable and recovery reads them strictly
//! sequentially.
//!
//! On [`open`], every record of every segment is read back and
//! CRC-verified:
//!
//! * an **incomplete record at the end of the newest segment** — the
//!   signature of a crash mid-write (torn write) — is repaired by
//!   truncating the segment back to the last complete record;
//! * any other anomaly (a checksum mismatch anywhere, a short record in
//!   a sealed segment, a bad header) is **corruption**: open fails with
//!   a descriptive [`WalError`] naming the segment and offset, and the
//!   caller is expected to refuse startup.
//!
//! [`open`]: SegmentedWal::open
//! [`sync`]: SegmentedWal::sync
//! [`CommitPipeline`]: crate::pipeline::CommitPipeline

use core::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::crc32::crc32;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"FIDESWAL";
/// On-disk format version.
pub const WAL_VERSION: u32 = 1;
/// Bytes of segment header: magic + version + first-record index.
pub const SEGMENT_HEADER_BYTES: u64 = 8 + 4 + 8;
/// Bytes of record framing: length + CRC-32.
pub const RECORD_HEADER_BYTES: u64 = 4 + 4;

/// Whether [`SegmentedWal::sync`] forces records to stable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Records accumulate until an explicit [`SegmentedWal::sync`],
    /// which `fsync`s them (group commit). The name is the
    /// [`CommitPipeline`](crate::pipeline::CommitPipeline)'s: its writer
    /// thread batches appends **across rounds** under one covering
    /// fsync, and commits are acknowledged only after it.
    #[default]
    Pipelined,
    /// Flush to the OS but never `fsync` (tests and benchmarks only;
    /// a power failure may lose acknowledged records).
    NoFsync,
}

/// WAL tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Rotate to a new segment once the current one exceeds this size.
    pub segment_bytes: u64,
    /// Durability of appends.
    pub sync: SyncPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 8 * 1024 * 1024,
            sync: SyncPolicy::default(),
        }
    }
}

/// Why the WAL could not be opened or written.
#[derive(Debug)]
pub enum WalError {
    /// An I/O failure (with the path it happened on).
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A segment file exists but its header is not a valid WAL header.
    BadHeader {
        /// The offending segment.
        segment: PathBuf,
        /// What was wrong.
        reason: &'static str,
    },
    /// A record failed its integrity check somewhere tail-truncation is
    /// not allowed to repair — the log was corrupted or tampered with.
    Corrupt {
        /// The offending segment.
        segment: PathBuf,
        /// Byte offset of the offending record within the segment.
        offset: u64,
        /// Zero-based index of the offending record within the WAL.
        record: u64,
        /// What failed.
        reason: &'static str,
    },
}

impl WalError {
    fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        WalError::Io {
            path: path.into(),
            source,
        }
    }
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { path, source } => write!(f, "wal i/o on {}: {source}", path.display()),
            WalError::BadHeader { segment, reason } => {
                write!(
                    f,
                    "bad wal segment header in {}: {reason}",
                    segment.display()
                )
            }
            WalError::Corrupt {
                segment,
                offset,
                record,
                reason,
            } => write!(
                f,
                "corrupt wal record #{record} at {}+{offset}: {reason}",
                segment.display()
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What [`SegmentedWal::open`] found on disk.
#[derive(Debug)]
pub struct WalOpenReport {
    /// Every surviving record payload, in append order, starting at
    /// WAL-wide index [`WalOpenReport::first_record`].
    pub records: Vec<Vec<u8>>,
    /// WAL-wide index of `records[0]` — 0 for a never-pruned log,
    /// higher when segments below a snapshot were pruned away.
    pub first_record: u64,
    /// Number of segment files.
    pub segments: usize,
    /// `(first record index, path)` per segment, ascending — maps a
    /// record index back to the segment file holding it.
    pub segment_starts: Vec<(u64, PathBuf)>,
    /// Bytes discarded by torn-tail truncation (0 for a clean log).
    pub repaired_bytes: u64,
}

impl WalOpenReport {
    /// The segment file holding record `index`, if any.
    pub fn segment_of(&self, index: u64) -> Option<&Path> {
        self.segment_starts
            .iter()
            .rev()
            .find(|(first, _)| *first <= index)
            .map(|(_, path)| path.as_path())
    }
}

/// The segmented append-only write-ahead log (see module docs).
#[derive(Debug)]
pub struct SegmentedWal {
    dir: PathBuf,
    config: WalConfig,
    /// Writer over the active (newest) segment.
    writer: BufWriter<File>,
    /// Path of the active segment (for error reporting).
    active_path: PathBuf,
    /// Bytes written to the active segment, header included.
    active_len: u64,
    /// Index the next appended record will get.
    next_record: u64,
    /// `true` when buffered/unsynced records exist.
    dirty: bool,
}

fn segment_path(dir: &Path, first_record: u64) -> PathBuf {
    dir.join(format!("wal-{first_record:020}.seg"))
}

/// Lists segment files in ascending first-record order.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut segments = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| WalError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| WalError::io(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(number) = name
            .strip_prefix("wal-")
            .and_then(|n| n.strip_suffix(".seg"))
        {
            if let Ok(first) = number.parse::<u64>() {
                segments.push((first, entry.path()));
            }
        }
    }
    segments.sort_unstable_by_key(|(first, _)| *first);
    Ok(segments)
}

/// `fsync` a directory so a just-created/renamed file survives a crash.
fn sync_dir(dir: &Path) -> Result<(), WalError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| WalError::io(dir, e))
}

/// The parse of one segment's bytes.
struct SegmentScan {
    records: Vec<Vec<u8>>,
    /// Offset one past the last complete, checksummed record.
    good_len: u64,
    /// `Some(reason, offset)` when the segment ends in an incomplete
    /// record (crash mid-write).
    torn: Option<(&'static str, u64)>,
}

/// Parses a segment, distinguishing torn tails from corruption.
///
/// `record_base` is the WAL-wide index of the segment's first record,
/// used for error reporting and header cross-checking.
fn scan_segment(path: &Path, bytes: &[u8], record_base: u64) -> Result<SegmentScan, WalError> {
    if bytes.len() < SEGMENT_HEADER_BYTES as usize {
        return Err(WalError::BadHeader {
            segment: path.to_path_buf(),
            reason: "file shorter than segment header",
        });
    }
    if &bytes[..8] != SEGMENT_MAGIC {
        return Err(WalError::BadHeader {
            segment: path.to_path_buf(),
            reason: "magic bytes missing",
        });
    }
    let version = u32::from_be_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(WalError::BadHeader {
            segment: path.to_path_buf(),
            reason: "unsupported format version",
        });
    }
    let first_record = u64::from_be_bytes(bytes[12..20].try_into().expect("8 bytes"));
    if first_record != record_base {
        return Err(WalError::BadHeader {
            segment: path.to_path_buf(),
            reason: "first-record index disagrees with preceding segments",
        });
    }

    let mut records = Vec::new();
    let mut offset = SEGMENT_HEADER_BYTES as usize;
    let mut torn = None;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < RECORD_HEADER_BYTES as usize {
            torn = Some(("incomplete record header", offset as u64));
            break;
        }
        let len =
            u32::from_be_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let expected_crc =
            u32::from_be_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        let payload_start = offset + RECORD_HEADER_BYTES as usize;
        if bytes.len() - payload_start < len {
            torn = Some(("incomplete record payload", offset as u64));
            break;
        }
        let payload = &bytes[payload_start..payload_start + len];
        if crc32(payload) != expected_crc {
            return Err(WalError::Corrupt {
                segment: path.to_path_buf(),
                offset: offset as u64,
                record: record_base + records.len() as u64,
                reason: "crc-32 mismatch",
            });
        }
        records.push(payload.to_vec());
        offset = payload_start + len;
    }
    Ok(SegmentScan {
        records,
        good_len: torn.map_or(offset as u64, |(_, at)| at),
        torn,
    })
}

impl SegmentedWal {
    /// Opens (or creates) the WAL in `dir`, reading back every record.
    ///
    /// A torn tail in the **newest** segment is repaired by truncating
    /// the file to its last complete record; the repair is reported in
    /// [`WalOpenReport::repaired_bytes`]. The writer resumes appending
    /// after the last surviving record.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] / [`WalError::BadHeader`] when any record
    /// outside the repairable tail fails its integrity checks — the
    /// caller must treat the log as tampered and refuse to start — and
    /// [`WalError::Io`] for filesystem failures.
    pub fn open(
        dir: impl Into<PathBuf>,
        config: WalConfig,
    ) -> Result<(Self, WalOpenReport), WalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| WalError::io(&dir, e))?;
        let segments = list_segments(&dir)?;

        let mut records = Vec::new();
        let mut segment_starts = Vec::with_capacity(segments.len());
        let mut repaired_bytes = 0u64;
        // A pruned WAL legitimately starts above record 0; gaps between
        // segments are still corruption.
        let first_record = segments.first().map_or(0, |(first, _)| *first);
        let mut record_base = first_record;
        let mut active: Option<(PathBuf, u64)> = None;

        for (i, (first, path)) in segments.iter().enumerate() {
            segment_starts.push((*first, path.clone()));
            let mut bytes = Vec::new();
            File::open(path)
                .and_then(|mut f| f.read_to_end(&mut bytes))
                .map_err(|e| WalError::io(path, e))?;
            if *first != record_base {
                return Err(WalError::BadHeader {
                    segment: path.clone(),
                    reason: "segment numbering has a gap or overlap",
                });
            }
            let scan = scan_segment(path, &bytes, record_base)?;
            let is_last = i + 1 == segments.len();
            if let Some((_reason, at)) = scan.torn {
                if !is_last {
                    // Sealed segments were fsynced before rotation; an
                    // incomplete record there is not a crash artifact.
                    return Err(WalError::Corrupt {
                        segment: path.clone(),
                        offset: at,
                        record: record_base + scan.records.len() as u64,
                        reason: "incomplete record in sealed segment",
                    });
                }
                // Torn tail: truncate back to the last complete record.
                repaired_bytes = bytes.len() as u64 - scan.good_len;
                let file = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| WalError::io(path, e))?;
                file.set_len(scan.good_len)
                    .map_err(|e| WalError::io(path, e))?;
                file.sync_all().map_err(|e| WalError::io(path, e))?;
            }
            record_base += scan.records.len() as u64;
            records.extend(scan.records);
            if is_last {
                active = Some((path.clone(), scan.good_len));
            }
        }

        let (active_path, active_len) = match active {
            Some(existing) => existing,
            None => {
                // Fresh WAL: create the first segment.
                let path = segment_path(&dir, 0);
                let mut file = File::create(&path).map_err(|e| WalError::io(&path, e))?;
                write_segment_header(&mut file, 0).map_err(|e| WalError::io(&path, e))?;
                file.sync_all().map_err(|e| WalError::io(&path, e))?;
                sync_dir(&dir)?;
                (path, SEGMENT_HEADER_BYTES)
            }
        };

        let mut file = OpenOptions::new()
            .write(true)
            .open(&active_path)
            .map_err(|e| WalError::io(&active_path, e))?;
        file.seek(SeekFrom::Start(active_len))
            .map_err(|e| WalError::io(&active_path, e))?;

        let segments_found = segments.len().max(1);
        let wal = SegmentedWal {
            dir,
            config,
            writer: BufWriter::new(file),
            active_path,
            active_len,
            next_record: record_base,
            dirty: false,
        };
        if segment_starts.is_empty() {
            segment_starts.push((0, wal.active_path.clone()));
        }
        Ok((
            wal,
            WalOpenReport {
                records,
                first_record,
                segments: segments_found,
                segment_starts,
                repaired_bytes,
            },
        ))
    }

    /// Index the next appended record will get (= records written).
    pub fn next_record(&self) -> u64 {
        self.next_record
    }

    /// The WAL directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one record; it becomes durable at the next
    /// [`SegmentedWal::sync`] (group commit).
    pub fn append(&mut self, payload: &[u8]) -> Result<(), WalError> {
        if self.active_len >= self.config.segment_bytes && self.active_len > SEGMENT_HEADER_BYTES {
            self.rotate()?;
        }
        let len = u32::try_from(payload.len()).expect("record longer than u32::MAX");
        let crc = crc32(payload);
        let path = self.active_path.clone();
        self.writer
            .write_all(&len.to_be_bytes())
            .and_then(|()| self.writer.write_all(&crc.to_be_bytes()))
            .and_then(|()| self.writer.write_all(payload))
            .map_err(|e| WalError::io(path, e))?;
        self.active_len += RECORD_HEADER_BYTES + payload.len() as u64;
        self.next_record += 1;
        self.dirty = true;
        Ok(())
    }

    /// Appends a batch of records and makes the whole batch durable
    /// with a single [`SegmentedWal::sync`]. A rotation occurring
    /// mid-batch still seals the outgoing segment with its fsync
    /// (open() relies on sealed segments being durable).
    pub fn append_batch<'a>(
        &mut self,
        payloads: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<(), WalError> {
        payloads.into_iter().try_for_each(|p| self.append(p))?;
        self.sync()
    }

    /// Flushes buffered records to the OS without `fsync`.
    fn flush(&mut self) -> Result<(), WalError> {
        let path = self.active_path.clone();
        self.writer.flush().map_err(|e| WalError::io(path, e))
    }

    /// Forces all appended records to stable storage — the group-commit
    /// point. A no-op when nothing is pending; under
    /// [`SyncPolicy::NoFsync`] it only flushes to the OS.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if !self.dirty {
            return Ok(());
        }
        self.flush()?;
        if self.config.sync != SyncPolicy::NoFsync {
            let path = self.active_path.clone();
            self.writer
                .get_ref()
                .sync_data()
                .map_err(|e| WalError::io(path, e))?;
        }
        self.dirty = false;
        Ok(())
    }

    /// Removes sealed segments whose records all lie **strictly below**
    /// `record` — the bounded-disk half of checkpointing: once a shard
    /// snapshot covers a prefix of the log, the WAL bytes for that
    /// prefix are dead weight for recovery.
    ///
    /// The active segment is never pruned, so the WAL always remains
    /// openable. When an `archive` hook is given, each evicted segment
    /// is handed to it **before** the file leaves the WAL directory (an
    /// auditor can then still request pruned history; see
    /// [`DirArchive`]); without a hook the segment is deleted and the
    /// disk stays bounded.
    ///
    /// Returns the `(first record, path)` of every pruned segment.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when a segment cannot be archived or removed;
    /// already-pruned segments stay pruned (the operation is
    /// re-runnable).
    pub fn prune_segments_below(
        &mut self,
        record: u64,
        mut archive: Option<&mut dyn SegmentArchive>,
    ) -> Result<Vec<(u64, PathBuf)>, WalError> {
        let segments = list_segments(&self.dir)?;
        let mut pruned = Vec::new();
        for pair in segments.windows(2) {
            let (first, path) = &pair[0];
            let (next_first, _) = &pair[1];
            // Records of this segment span [first, next_first); all of
            // them are below `record` iff next_first <= record. The
            // active (last) segment never appears as pair[0].
            if *next_first > record {
                break;
            }
            if let Some(hook) = archive.as_deref_mut() {
                hook.archive(*first, path)
                    .map_err(|e| WalError::io(path, e))?;
            }
            // The hook may have moved the file already (DirArchive).
            if path.exists() {
                fs::remove_file(path).map_err(|e| WalError::io(path, e))?;
            }
            pruned.push((*first, path.clone()));
        }
        if !pruned.is_empty() {
            sync_dir(&self.dir)?;
        }
        Ok(pruned)
    }

    /// Supersedes **everything** and restarts the WAL at record index
    /// `next_record` — the durable half of adopting a transferred
    /// checkpoint: the existing records belong to a history prefix the
    /// checkpoint replaces, and subsequent appends must carry record
    /// indices starting at the checkpoint height (the WAL invariant
    /// that a block's height is its record index). The caller persists
    /// the checkpoint itself **before** relying on the reset WAL, so a
    /// crash mid-adoption recovers either the old state or the new one,
    /// never a gap.
    ///
    /// The old segments are **not destroyed**: they are parked under
    /// `<dir>/superseded/` (invisible to [`SegmentedWal::open`], which
    /// only scans files in the WAL directory itself). A reset driven by
    /// a checkpoint whose trust later fails to confirm must not have
    /// erased genuinely co-signed durable history — an operator (or the
    /// auditor) can still recover the superseded records.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when segments cannot be parked or the fresh
    /// segment cannot be created.
    pub fn reset_to(&mut self, next_record: u64) -> Result<(), WalError> {
        let parked = self.dir.join("superseded");
        fs::create_dir_all(&parked).map_err(|e| WalError::io(&parked, e))?;
        for (first, path) in list_segments(&self.dir)? {
            let name = path.file_name().expect("segment files have names");
            let mut target = parked.join(name);
            let mut attempt = 1u32;
            while target.exists() {
                // A later reset can supersede a segment with the same
                // first-record index; keep both copies.
                target = parked.join(format!("wal-{first:020}.seg.{attempt}"));
                attempt += 1;
            }
            fs::rename(&path, &target).map_err(|e| WalError::io(&path, e))?;
        }
        let path = segment_path(&self.dir, next_record);
        let mut file = File::create(&path).map_err(|e| WalError::io(&path, e))?;
        write_segment_header(&mut file, next_record).map_err(|e| WalError::io(&path, e))?;
        if self.config.sync != SyncPolicy::NoFsync {
            file.sync_all().map_err(|e| WalError::io(&path, e))?;
            sync_dir(&self.dir)?;
        }
        // Dropping the old writer may flush buffered bytes into the
        // now-unlinked segment; harmless.
        self.writer = BufWriter::new(file);
        self.active_path = path;
        self.active_len = SEGMENT_HEADER_BYTES;
        self.next_record = next_record;
        self.dirty = false;
        Ok(())
    }

    /// Seals the active segment and starts a new one.
    fn rotate(&mut self) -> Result<(), WalError> {
        // Seal: everything in the old segment becomes durable.
        self.flush()?;
        if self.config.sync != SyncPolicy::NoFsync {
            let path = self.active_path.clone();
            self.writer
                .get_ref()
                .sync_data()
                .map_err(|e| WalError::io(path, e))?;
        }
        self.dirty = false;

        let path = segment_path(&self.dir, self.next_record);
        let mut file = File::create(&path).map_err(|e| WalError::io(&path, e))?;
        write_segment_header(&mut file, self.next_record).map_err(|e| WalError::io(&path, e))?;
        if self.config.sync != SyncPolicy::NoFsync {
            file.sync_all().map_err(|e| WalError::io(&path, e))?;
            sync_dir(&self.dir)?;
        }
        self.writer = BufWriter::new(file);
        self.active_path = path;
        self.active_len = SEGMENT_HEADER_BYTES;
        Ok(())
    }
}

fn write_segment_header(file: &mut File, first_record: u64) -> std::io::Result<()> {
    file.write_all(SEGMENT_MAGIC)?;
    file.write_all(&WAL_VERSION.to_be_bytes())?;
    file.write_all(&first_record.to_be_bytes())
}

/// Reads a contiguous run of **sealed** segments — e.g. an archive
/// directory's contents — into a [`WalOpenReport`]. Unlike
/// [`SegmentedWal::open`] there is no repairable tail here: sealed
/// segments were fsynced before rotation, so an incomplete record
/// anywhere is corruption.
///
/// # Errors
///
/// [`WalError`] on I/O failure, a numbering gap, or any integrity
/// violation.
pub fn read_sealed_segments(segments: &[(u64, PathBuf)]) -> Result<WalOpenReport, WalError> {
    let first_record = segments.first().map_or(0, |(first, _)| *first);
    let mut record_base = first_record;
    let mut records = Vec::new();
    let mut segment_starts = Vec::with_capacity(segments.len());
    for (first, path) in segments {
        if *first != record_base {
            return Err(WalError::BadHeader {
                segment: path.clone(),
                reason: "segment numbering has a gap or overlap",
            });
        }
        segment_starts.push((*first, path.clone()));
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| WalError::io(path, e))?;
        let scan = scan_segment(path, &bytes, record_base)?;
        if let Some((_, at)) = scan.torn {
            return Err(WalError::Corrupt {
                segment: path.clone(),
                offset: at,
                record: record_base + scan.records.len() as u64,
                reason: "incomplete record in sealed segment",
            });
        }
        record_base += scan.records.len() as u64;
        records.extend(scan.records);
    }
    Ok(WalOpenReport {
        records,
        first_record,
        segments: segments.len(),
        segment_starts,
        repaired_bytes: 0,
    })
}

/// Receives sealed segments evicted by
/// [`SegmentedWal::prune_segments_below`] before they leave the WAL
/// directory — the hook through which an auditor can still obtain
/// pruned history.
pub trait SegmentArchive: Send {
    /// Takes custody of `segment` (whose first record is
    /// `first_record`). The implementation may move the file; if it is
    /// still present afterwards, the pruner deletes it.
    fn archive(&mut self, first_record: u64, segment: &Path) -> std::io::Result<()>;
}

/// A [`SegmentArchive`] that moves pruned segments into a directory,
/// preserving their names — recovery and audit tooling can read them
/// back with the same scanner that reads live segments (see
/// [`crate::blocklog::WalBlockLog::open_with_archive`]).
#[derive(Debug)]
pub struct DirArchive {
    dir: PathBuf,
}

impl DirArchive {
    /// Opens (creating if needed) the archive directory.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DirArchive, WalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| WalError::io(&dir, e))?;
        Ok(DirArchive { dir })
    }

    /// The archive directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Archived segments, ascending by first record — what an auditor
    /// requests when it needs history below the live WAL.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the directory cannot be listed.
    pub fn segments(&self) -> Result<Vec<(u64, PathBuf)>, WalError> {
        list_segments(&self.dir)
    }
}

impl SegmentArchive for DirArchive {
    fn archive(&mut self, _first_record: u64, segment: &Path) -> std::io::Result<()> {
        let name = segment.file_name().expect("segment files have names");
        let target = self.dir.join(name);
        // Same filesystem in practice; fall back to copy+delete across
        // devices.
        match fs::rename(segment, &target) {
            Ok(()) => {}
            Err(_) => {
                fs::copy(segment, &target)?;
                fs::remove_file(segment)?;
            }
        }
        File::open(&self.dir).and_then(|d| d.sync_all())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn tiny_config() -> WalConfig {
        WalConfig {
            segment_bytes: 256,
            sync: SyncPolicy::Pipelined,
        }
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("record-{i:04}-{}", "x".repeat(i % 40)).into_bytes())
            .collect()
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = TempDir::new("wal-roundtrip");
        let data = payloads(50);
        {
            let (mut wal, report) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
            assert!(report.records.is_empty());
            for p in &data {
                wal.append(p).unwrap();
            }
            wal.sync().unwrap();
        }
        let (wal, report) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
        assert_eq!(report.records, data);
        assert_eq!(report.repaired_bytes, 0);
        assert!(report.segments > 1, "tiny segments must rotate");
        assert_eq!(wal.next_record(), 50);
    }

    #[test]
    fn append_resumes_after_reopen() {
        let dir = TempDir::new("wal-resume");
        let data = payloads(10);
        {
            let (mut wal, _) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
            for p in &data[..6] {
                wal.append(p).unwrap();
            }
            wal.sync().unwrap();
        }
        {
            let (mut wal, report) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
            assert_eq!(report.records.len(), 6);
            for p in &data[6..] {
                wal.append(p).unwrap();
            }
            wal.sync().unwrap();
        }
        let (_, report) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
        assert_eq!(report.records, data);
    }

    #[test]
    fn append_batch_groups_records() {
        let dir = TempDir::new("wal-batch");
        let data = payloads(20);
        let (mut wal, _) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
        wal.append_batch(data.iter().map(Vec::as_slice)).unwrap();
        drop(wal);
        let (_, report) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
        assert_eq!(report.records, data);
    }

    /// The newest segment's path, by name ordering.
    fn last_segment(dir: &Path) -> PathBuf {
        let mut segs = list_segments(dir).unwrap();
        segs.pop().unwrap().1
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = TempDir::new("wal-torn");
        let data = payloads(8);
        {
            let (mut wal, _) = SegmentedWal::open(
                dir.path(),
                WalConfig {
                    segment_bytes: 1 << 20, // keep one segment
                    sync: SyncPolicy::Pipelined,
                },
            )
            .unwrap();
            for p in &data {
                wal.append(p).unwrap();
            }
            wal.sync().unwrap();
        }
        // Crash mid-write: chop bytes off the final record.
        let seg = last_segment(dir.path());
        let len = fs::metadata(&seg).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let (mut wal, report) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
        assert_eq!(report.records, data[..7].to_vec(), "last record dropped");
        assert!(report.repaired_bytes > 0);
        assert_eq!(wal.next_record(), 7);

        // The log keeps working after the repair.
        wal.append(&data[7]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, report) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
        assert_eq!(report.records, data);
    }

    #[test]
    fn flipped_byte_is_corruption_not_torn_tail() {
        let dir = TempDir::new("wal-flip");
        let data = payloads(8);
        {
            let (mut wal, _) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
            for p in &data {
                wal.append(p).unwrap();
            }
            wal.sync().unwrap();
        }
        // Flip one payload byte in the *first* segment.
        let seg = list_segments(dir.path()).unwrap()[0].1.clone();
        let mut bytes = fs::read(&seg).unwrap();
        let target = SEGMENT_HEADER_BYTES as usize + RECORD_HEADER_BYTES as usize + 2;
        bytes[target] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();

        let err = SegmentedWal::open(dir.path(), tiny_config()).unwrap_err();
        match err {
            WalError::Corrupt { record, reason, .. } => {
                assert_eq!(record, 0);
                assert_eq!(reason, "crc-32 mismatch");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn short_record_in_sealed_segment_is_corruption() {
        let dir = TempDir::new("wal-sealed");
        let data = payloads(30);
        {
            let (mut wal, _) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
            for p in &data {
                wal.append(p).unwrap();
            }
            wal.sync().unwrap();
        }
        let segs = list_segments(dir.path()).unwrap();
        assert!(segs.len() >= 2);
        // Truncate a sealed (non-final) segment mid-record.
        let sealed = segs[0].1.clone();
        let len = fs::metadata(&sealed).unwrap().len();
        let file = OpenOptions::new().write(true).open(&sealed).unwrap();
        file.set_len(len - 2).unwrap();
        drop(file);

        let err = SegmentedWal::open(dir.path(), tiny_config()).unwrap_err();
        assert!(
            matches!(err, WalError::Corrupt { reason, .. } if reason.contains("sealed")),
            "{err:?}"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = TempDir::new("wal-magic");
        {
            let (mut wal, _) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
            wal.append(b"x").unwrap();
            wal.sync().unwrap();
        }
        let seg = last_segment(dir.path());
        let mut bytes = fs::read(&seg).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        assert!(matches!(
            SegmentedWal::open(dir.path(), tiny_config()),
            Err(WalError::BadHeader { .. })
        ));
    }

    #[test]
    fn missing_segment_detected() {
        let dir = TempDir::new("wal-gap");
        let data = payloads(30);
        {
            let (mut wal, _) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
            for p in &data {
                wal.append(p).unwrap();
            }
            wal.sync().unwrap();
        }
        let segs = list_segments(dir.path()).unwrap();
        assert!(segs.len() >= 3);
        fs::remove_file(&segs[1].1).unwrap();
        let err = SegmentedWal::open(dir.path(), tiny_config()).unwrap_err();
        assert!(
            matches!(err, WalError::BadHeader { reason, .. } if reason.contains("gap")),
            "{err:?}"
        );
    }

    #[test]
    fn empty_payloads_roundtrip() {
        let dir = TempDir::new("wal-empty");
        {
            let (mut wal, _) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
            wal.append(b"").unwrap();
            wal.append(b"x").unwrap();
            wal.append(b"").unwrap();
            wal.sync().unwrap();
        }
        let (_, report) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
        assert_eq!(
            report.records,
            vec![b"".to_vec(), b"x".to_vec(), b"".to_vec()]
        );
    }

    #[test]
    fn prune_below_removes_sealed_segments_and_reopens() {
        let dir = TempDir::new("wal-prune");
        let data = payloads(40);
        let (mut wal, _) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
        for p in &data {
            wal.append(p).unwrap();
        }
        wal.sync().unwrap();
        let before = list_segments(dir.path()).unwrap();
        assert!(before.len() >= 3, "tiny segments must rotate");

        // Prune everything below record 20: only segments wholly below
        // 20 go; the segment containing 20 stays.
        let pruned = wal.prune_segments_below(20, None).unwrap();
        assert!(!pruned.is_empty());
        let after = list_segments(dir.path()).unwrap();
        assert!(after.len() < before.len());
        assert!(after[0].0 <= 20, "record 20 still readable");
        drop(wal);

        // Reopen: the suffix survives, indexed from its true base.
        let (wal, report) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
        assert_eq!(report.first_record, after[0].0);
        assert_eq!(
            report.records,
            data[report.first_record as usize..].to_vec()
        );
        assert_eq!(wal.next_record(), 40);
    }

    #[test]
    fn prune_never_touches_active_segment() {
        let dir = TempDir::new("wal-prune-active");
        let (mut wal, _) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
        wal.append(b"only").unwrap();
        wal.sync().unwrap();
        assert!(wal.prune_segments_below(u64::MAX, None).unwrap().is_empty());
        assert_eq!(list_segments(dir.path()).unwrap().len(), 1);
    }

    #[test]
    fn prune_archives_segments_for_the_auditor() {
        let dir = TempDir::new("wal-prune-archive");
        let archive_dir = TempDir::new("wal-prune-archive-store");
        let data = payloads(40);
        let (mut wal, _) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
        for p in &data {
            wal.append(p).unwrap();
        }
        wal.sync().unwrap();
        let mut archive = DirArchive::open(archive_dir.path()).unwrap();
        let pruned = wal
            .prune_segments_below(u64::MAX, Some(&mut archive))
            .unwrap();
        assert!(pruned.len() >= 2);

        // The archived segments still scan cleanly: an auditor can read
        // the pruned history back record by record.
        let archived = archive.segments().unwrap();
        assert_eq!(archived.len(), pruned.len());
        let mut recovered = Vec::new();
        for (first, path) in &archived {
            let bytes = fs::read(path).unwrap();
            let scan = scan_segment(path, &bytes, *first).unwrap();
            assert!(scan.torn.is_none(), "sealed segments are complete");
            recovered.extend(scan.records);
        }
        assert_eq!(recovered, data[..recovered.len()].to_vec());
        // And the live WAL still opens over the suffix.
        drop(wal);
        let (_, report) = SegmentedWal::open(dir.path(), tiny_config()).unwrap();
        assert_eq!(
            report.records,
            data[report.first_record as usize..].to_vec()
        );
    }

    #[test]
    fn error_display_is_descriptive() {
        let err = WalError::Corrupt {
            segment: PathBuf::from("/tmp/wal-00.seg"),
            offset: 42,
            record: 7,
            reason: "crc-32 mismatch",
        };
        let msg = err.to_string();
        assert!(msg.contains("record #7"));
        assert!(msg.contains("crc-32 mismatch"));
    }
}
