//! # fides-durability — persistence for data on untrusted disks
//!
//! Fides' guarantees hinge on an append-only tamper-proof log and
//! Merkle-authenticated datastores (paper §3.1, §4.2, §4.4); this crate
//! makes both survive a server restart **without weakening the threat
//! model**: bytes read back from disk are treated exactly like a log
//! surrendered to the auditor — re-chained, re-verified, and refused
//! when they do not check out.
//!
//! Pure `std`, no external crates. Three pieces:
//!
//! * [`wal`] — a **segmented append-only write-ahead log**:
//!   length-prefixed, CRC-32-checksummed records (serialized with the
//!   canonical [`fides_crypto::encoding`] traits), segment rotation,
//!   group-commit `fsync` batching, and torn-tail truncation on open.
//!   A flipped byte anywhere is corruption and fails the open; only an
//!   incomplete record at the very tail — the signature of a crash
//!   mid-write — is repaired.
//! * [`snapshot`] — **shard snapshots**: atomic, checksummed checkpoint
//!   files capturing a full [`fides_store::AuthenticatedShard`] image
//!   (items, version chains, timestamps, Merkle root) bound to a log
//!   height and tip hash, so recovery replays a log *suffix* instead of
//!   the whole history.
//! * [`recovery`] — the **verified recovery path**: rebuild the
//!   [`fides_ledger::TamperProofLog`] from WAL records, re-check every
//!   height and hash pointer, re-verify all collective signatures with
//!   the batched fast path ([`fides_crypto::cosi::verify_batch`]), and
//!   bind the snapshot to the verified chain before a server may serve
//!   traffic.
//!
//! The [`DurableLog`] and [`SnapshotStore`] traits abstract the
//! backend: [`WalBlockLog`] + [`FileSnapshotStore`] persist to disk,
//! while [`MemoryBlockLog`] + [`MemorySnapshotStore`] preserve the
//! original in-memory behavior (and let tests crash/recover without a
//! filesystem).
//!
//! ```
//! use fides_durability::{
//!     recover_ledger, SegmentedWal, SyncPolicy, WalBlockLog, WalConfig,
//! };
//! use fides_durability::testutil::TempDir;
//! use fides_crypto::Digest;
//! use fides_ledger::{BlockBuilder, Decision};
//!
//! let dir = TempDir::new("lib-doc");
//! let config = WalConfig::default();
//!
//! // A server appends terminated blocks, group-committing each batch.
//! let (mut wal, existing) = WalBlockLog::open(dir.path(), config)?;
//! assert!(existing.is_empty());
//! let genesis = BlockBuilder::new(0, Digest::ZERO)
//!     .decision(Decision::Commit)
//!     .build_unsigned();
//! use fides_durability::DurableLog;
//! wal.append_block(&genesis)?;
//! wal.sync()?;
//! drop(wal); // crash!
//!
//! // On restart the blocks come back and re-verify (no cosigns here,
//! // so the signature pass is disabled as in the 2PC baseline).
//! let (_wal, blocks) = WalBlockLog::open(dir.path(), config)?;
//! let recovered = recover_ledger(blocks, None, &[], false)?;
//! assert_eq!(recovered.log.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod blocklog;
pub mod crc32;
pub mod pipeline;
pub mod recovery;
pub mod snapshot;
pub mod wal;

mod tempdir;

/// Scratch-directory helpers for tests, benches and examples.
pub mod testutil {
    pub use crate::tempdir::TempDir;
}

pub use blocklog::{DurableLog, MemoryBlockLog, WalBlockLog};
pub use crc32::crc32;
pub use pipeline::{CommitPipeline, DurableAck, PipelineConfig, PipelineMetrics};
pub use recovery::{recover_ledger, RecoveredLedger, RecoveryError};
pub use snapshot::{
    FileSnapshotStore, MemorySnapshotStore, PruneFloor, ShardSnapshot, SnapshotDelta,
    SnapshotError, SnapshotStore,
};
pub use wal::{
    DirArchive, SegmentArchive, SegmentedWal, SyncPolicy, WalConfig, WalError, WalOpenReport,
};
