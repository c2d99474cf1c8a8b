//! [`DurableLog`]: the persistence interface servers write blocks
//! through, with a WAL-backed and an in-memory implementation.
//!
//! Every terminated block (commit *and* abort) is appended before the
//! server acts on it; [`DurableLog::sync`] is the group-commit point.
//! [`WalBlockLog`] frames each block as one CRC-checksummed record of a
//! [`SegmentedWal`]; [`MemoryBlockLog`] keeps the same sequence in
//! memory — the pre-durability behavior — and supports shared handles
//! so tests can simulate a crash (drop the server, keep the "disk").

use core::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use fides_crypto::encoding::{Decodable, Encodable};
use fides_ledger::block::Block;

use crate::wal::{DirArchive, SegmentArchive, SegmentedWal, WalConfig, WalError, WalOpenReport};

/// A durable, append-only sequence of log blocks.
pub trait DurableLog: Send + fmt::Debug {
    /// Appends one block. Durability is deferred to [`DurableLog::sync`]
    /// unless the backend syncs eagerly.
    fn append_block(&mut self, block: &Block) -> Result<(), WalError>;

    /// Forces every appended block to stable storage (group commit).
    fn sync(&mut self) -> Result<(), WalError>;

    /// Number of blocks appended over the log's lifetime.
    fn block_count(&self) -> u64;

    /// Releases storage for blocks **strictly below** `height` — called
    /// once a shard snapshot covers that prefix, so the log's disk
    /// footprint stays bounded. Backends that cannot (or need not)
    /// prune simply keep everything; pruned blocks go through the
    /// backend's archive hook when one is configured.
    ///
    /// Returns how many storage units (segments, blocks) were evicted.
    ///
    /// # Errors
    ///
    /// Backend-specific I/O failures.
    fn prune_below(&mut self, height: u64) -> Result<usize, WalError> {
        let _ = height;
        Ok(0)
    }

    /// Discards every stored block and restarts the log at `height` —
    /// the durable half of adopting a transferred checkpoint during
    /// anti-entropy repair. The caller persists the checkpoint (which
    /// vouches for everything below `height`) before appending through
    /// the reset log.
    ///
    /// # Errors
    ///
    /// Backend-specific I/O failures.
    fn reset_to(&mut self, height: u64) -> Result<(), WalError>;

    /// Blocks this backend parked in its archive when pruning (the
    /// [`crate::wal::SegmentArchive`] hook) — what a repair peer serves
    /// when a lagging server asks for history below the live log.
    /// `None` when the backend keeps no archive.
    ///
    /// # Errors
    ///
    /// [`WalError`] when the archived segments fail their integrity
    /// checks — archived history is as untrusted as any other disk
    /// bytes.
    fn read_archived(&self) -> Result<Option<Vec<Block>>, WalError> {
        Ok(None)
    }
}

/// A [`DurableLog`] persisting blocks to a [`SegmentedWal`].
///
/// One record = one block, appended in height order, so a block's
/// height **is** its WAL-wide record index — pruning below a height
/// maps directly onto [`SegmentedWal::prune_segments_below`].
#[derive(Debug)]
pub struct WalBlockLog {
    wal: SegmentedWal,
    /// Receives pruned segments (None = delete on prune).
    archive: Option<DirArchive>,
}

/// Decodes every record of a WAL scan into blocks, attributing a bad
/// record to its segment.
fn decode_records(report: &WalOpenReport, dir: &Path) -> Result<Vec<Block>, WalError> {
    let mut blocks = Vec::with_capacity(report.records.len());
    for (i, record) in report.records.iter().enumerate() {
        let index = report.first_record + i as u64;
        match Block::decode(record) {
            Ok(block) => blocks.push(block),
            Err(_) => {
                let segment = report
                    .segment_of(index)
                    .map_or_else(|| dir.to_path_buf(), Path::to_path_buf);
                return Err(WalError::Corrupt {
                    segment,
                    offset: 0,
                    record: index,
                    reason: "record is not a valid block encoding",
                });
            }
        }
    }
    Ok(blocks)
}

impl WalBlockLog {
    /// Opens the WAL in `dir` and decodes every surviving record as a
    /// [`Block`], in append order. For a pruned WAL the returned blocks
    /// start at the first surviving height (`blocks[0].height > 0`);
    /// recovery then binds them to a snapshot covering the gap.
    ///
    /// Torn tails are repaired by the underlying WAL
    /// ([`SegmentedWal::open`]); a record that decodes to garbage is
    /// corruption.
    ///
    /// # Errors
    ///
    /// Any [`WalError`] from the WAL itself, or [`WalError::Corrupt`]
    /// when a record is not a valid block encoding.
    pub fn open(
        dir: impl Into<PathBuf>,
        config: WalConfig,
    ) -> Result<(WalBlockLog, Vec<Block>), WalError> {
        let dir = dir.into();
        let (wal, report): (SegmentedWal, WalOpenReport) = SegmentedWal::open(&dir, config)?;
        let blocks = decode_records(&report, &dir)?;
        Ok((WalBlockLog { wal, archive: None }, blocks))
    }

    /// [`WalBlockLog::open`], additionally reading **archived** segments
    /// so the returned blocks cover the full history even after pruning:
    /// records below the live WAL's first segment are loaded from
    /// `archive_dir` (where [`DirArchive`] parked them), then the live
    /// suffix follows. Future prunes archive into the same directory.
    ///
    /// This is the auditor-friendly configuration: the WAL directory
    /// stays bounded while the complete chain remains requestable.
    ///
    /// # Errors
    ///
    /// Any [`WalError`]; a gap between the archived records and the live
    /// WAL's first record is corruption (someone deleted archived
    /// history).
    pub fn open_with_archive(
        dir: impl Into<PathBuf>,
        archive_dir: impl Into<PathBuf>,
        config: WalConfig,
    ) -> Result<(WalBlockLog, Vec<Block>), WalError> {
        let dir = dir.into();
        let archive = DirArchive::open(archive_dir)?;
        let (wal, report): (SegmentedWal, WalOpenReport) = SegmentedWal::open(&dir, config)?;

        let mut blocks = Vec::new();
        if report.first_record > 0 {
            let archived = crate::wal::read_sealed_segments(&archive.segments()?)?;
            if archived.first_record != 0
                || archived.first_record + archived.records.len() as u64 != report.first_record
            {
                return Err(WalError::BadHeader {
                    segment: archive.dir().to_path_buf(),
                    reason: "archived segments do not cover the pruned prefix",
                });
            }
            blocks = decode_records(&archived, archive.dir())?;
        }
        blocks.extend(decode_records(&report, &dir)?);
        Ok((
            WalBlockLog {
                wal,
                archive: Some(archive),
            },
            blocks,
        ))
    }

    /// The underlying WAL (for inspection in tests/benchmarks).
    pub fn wal(&self) -> &SegmentedWal {
        &self.wal
    }

    /// The archive receiving pruned segments, if configured.
    pub fn archive(&self) -> Option<&DirArchive> {
        self.archive.as_ref()
    }
}

impl DurableLog for WalBlockLog {
    fn append_block(&mut self, block: &Block) -> Result<(), WalError> {
        self.wal.append(&block.encode())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.wal.sync()
    }

    fn block_count(&self) -> u64 {
        self.wal.next_record()
    }

    fn prune_below(&mut self, height: u64) -> Result<usize, WalError> {
        let hook = self.archive.as_mut().map(|a| a as &mut dyn SegmentArchive);
        Ok(self.wal.prune_segments_below(height, hook)?.len())
    }

    fn reset_to(&mut self, height: u64) -> Result<(), WalError> {
        self.wal.reset_to(height)
    }

    fn read_archived(&self) -> Result<Option<Vec<Block>>, WalError> {
        let Some(archive) = &self.archive else {
            return Ok(None);
        };
        let segments = archive.segments()?;
        if segments.is_empty() {
            return Ok(None);
        }
        let report = crate::wal::read_sealed_segments(&segments)?;
        decode_records(&report, archive.dir()).map(Some)
    }
}

/// The shared "disk" behind [`MemoryBlockLog`] handles: the retained
/// blocks plus the monotone append watermark (`next_height` survives
/// pruning, like a WAL's record numbering does).
#[derive(Debug, Default)]
struct MemoryLogState {
    blocks: Vec<Block>,
    next_height: u64,
}

type SharedBlocks = Arc<Mutex<MemoryLogState>>;

/// An in-memory [`DurableLog`] — the original no-persistence behavior.
///
/// Handles created with [`MemoryBlockLog::handle`] share one block
/// sequence, so a test can drop a server ("crash"), then reopen the
/// same handle and replay — exercising the recovery machinery without
/// a filesystem.
#[derive(Debug, Default)]
pub struct MemoryBlockLog {
    blocks: SharedBlocks,
}

impl MemoryBlockLog {
    /// A fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle sharing this log's storage.
    pub fn handle(&self) -> MemoryBlockLog {
        MemoryBlockLog {
            blocks: Arc::clone(&self.blocks),
        }
    }

    /// All retained blocks (the "reopen" path for tests).
    pub fn blocks(&self) -> Vec<Block> {
        self.blocks.lock().expect("memory log lock").blocks.clone()
    }
}

impl DurableLog for MemoryBlockLog {
    fn append_block(&mut self, block: &Block) -> Result<(), WalError> {
        let mut state = self.blocks.lock().expect("memory log lock");
        state.next_height = state.next_height.max(block.height + 1);
        state.blocks.push(block.clone());
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        Ok(())
    }

    fn block_count(&self) -> u64 {
        self.blocks.lock().expect("memory log lock").next_height
    }

    fn prune_below(&mut self, height: u64) -> Result<usize, WalError> {
        let mut state = self.blocks.lock().expect("memory log lock");
        let before = state.blocks.len();
        state.blocks.retain(|b| b.height >= height);
        Ok(before - state.blocks.len())
    }

    fn reset_to(&mut self, height: u64) -> Result<(), WalError> {
        let mut state = self.blocks.lock().expect("memory log lock");
        state.blocks.clear();
        state.next_height = height;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use crate::wal::SyncPolicy;
    use fides_ledger::block::{BlockBuilder, Decision};
    use fides_ledger::log::TamperProofLog;

    fn chain(n: u64) -> Vec<Block> {
        let mut log = TamperProofLog::new();
        for h in 0..n {
            let block = BlockBuilder::new(h, log.tip_hash())
                .decision(Decision::Commit)
                .build_unsigned();
            log.append(block).unwrap();
        }
        log.to_blocks()
    }

    #[test]
    fn wal_block_log_roundtrip() {
        let dir = TempDir::new("blocklog");
        let blocks = chain(10);
        let config = WalConfig {
            segment_bytes: 512,
            sync: SyncPolicy::Pipelined,
        };
        {
            let (mut log, existing) = WalBlockLog::open(dir.path(), config).unwrap();
            assert!(existing.is_empty());
            for b in &blocks {
                log.append_block(b).unwrap();
            }
            log.sync().unwrap();
            assert_eq!(log.block_count(), 10);
        }
        let (_, replayed) = WalBlockLog::open(dir.path(), config).unwrap();
        assert_eq!(replayed, blocks);
    }

    #[test]
    fn reset_to_restarts_record_numbering() {
        let dir = TempDir::new("blocklog-reset");
        let blocks = chain(8);
        let config = WalConfig {
            segment_bytes: 256,
            sync: SyncPolicy::Pipelined,
        };
        {
            let (mut log, _) = WalBlockLog::open(dir.path(), config).unwrap();
            for b in &blocks[..5] {
                log.append_block(b).unwrap();
            }
            log.sync().unwrap();
            // Adopt a checkpoint at height 6: everything below is now
            // vouched for elsewhere; the WAL restarts there.
            log.reset_to(6).unwrap();
            assert_eq!(log.block_count(), 6);
            for b in &blocks[6..] {
                log.append_block(b).unwrap();
            }
            log.sync().unwrap();
        }
        let (log, replayed) = WalBlockLog::open(dir.path(), config).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].height, 6);
        assert_eq!(log.block_count(), 8);

        // The superseded pre-reset records were parked, not destroyed.
        let parked = dir.join("superseded");
        assert!(
            std::fs::read_dir(&parked).unwrap().count() > 0,
            "superseded segments are preserved for forensics"
        );
    }

    #[test]
    fn archived_blocks_read_back_for_repair() {
        let dir = TempDir::new("blocklog-archive-read");
        let blocks = chain(40);
        let config = WalConfig {
            segment_bytes: 512,
            sync: SyncPolicy::Pipelined,
        };
        let (mut log, _) =
            WalBlockLog::open_with_archive(dir.join("wal"), dir.join("archive"), config).unwrap();
        for b in &blocks {
            log.append_block(b).unwrap();
        }
        log.sync().unwrap();
        assert!(log.prune_below(30).unwrap() > 0, "segments were pruned");
        let archived = log.read_archived().unwrap().expect("archive has blocks");
        assert_eq!(archived[0].height, 0, "archive starts at genesis");
        assert_eq!(archived, blocks[..archived.len()].to_vec());
        assert!(
            archived.len() >= 20,
            "a meaningful prefix was archived: {}",
            archived.len()
        );

        // A log without an archive reports none.
        let (plain, _) = WalBlockLog::open(dir.join("wal2"), config).unwrap();
        assert!(plain.read_archived().unwrap().is_none());
    }

    #[test]
    fn memory_block_log_survives_drop_via_handle() {
        let disk = MemoryBlockLog::new();
        let blocks = chain(3);
        {
            let mut log = disk.handle();
            for b in &blocks {
                log.append_block(b).unwrap();
            }
            log.sync().unwrap();
        } // server crashes
        assert_eq!(disk.blocks(), blocks);
        assert_eq!(disk.block_count(), 3);
    }
}
