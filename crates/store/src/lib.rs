//! Datastore substrate for Fides (paper §3.1, §4.2).
//!
//! A Fides deployment partitions its data into *shards*, one per database
//! server. Each data item carries a read timestamp `rts` and a write
//! timestamp `wts` — the commit timestamps of the last transactions that
//! read and wrote it. This crate provides:
//!
//! * [`types`] — keys, values and Lamport-style commit [`Timestamp`]s,
//! * [`rwset`] — the read/write-set entries stored in every log block
//!   (paper Table 1),
//! * [`single`] / [`multi`] — single-versioned and multi-versioned
//!   stores (§4.2.1, "Updating the datastore"),
//! * [`authenticated`] — a store wrapped with an incrementally-maintained
//!   Merkle hash tree, producing the per-shard roots and verification
//!   objects that the auditor uses to authenticate datastores (§4.2.2),
//! * [`checkpoint`] — serializable shard images (leaf order + version
//!   chains + timestamps) backing `fides-durability`'s snapshots, and
//!   the deltas between two images of one shard.

pub mod authenticated;
pub mod checkpoint;
pub mod multi;
pub mod proofs;
pub mod rwset;
pub mod single;
pub mod types;

pub use authenticated::{combine_roots, key_leaf_digest, AuthenticatedShard, MhtUpdateStats};
pub use checkpoint::{CheckpointDelta, CheckpointItem, DeltaError, ItemDelta, ShardCheckpoint};
pub use multi::MultiVersionStore;
pub use proofs::{AbsenceProof, AbsenceSuccessor, ReadEntryProof, ReadProofError, ShardReadProof};
pub use rwset::{ReadEntry, WriteEntry};
pub use single::SingleVersionStore;
pub use types::{ItemState, Key, Timestamp, Value};
