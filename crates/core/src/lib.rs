//! Fides core: auditable transaction management on untrusted
//! infrastructure (paper §3–§5).
//!
//! This crate assembles the substrates (`fides-crypto`, `fides-store`,
//! `fides-net`, `fides-ledger`) into the full system:
//!
//! * [`messages`] — the signed protocol messages exchanged between
//!   clients, cohorts and the coordinator,
//! * [`partition`] — the key → server partition map,
//! * [`occ`] — commit-time timestamp-ordering validation (§4.3.1),
//! * [`behavior`] — fault-injection switches modelling every malicious
//!   behaviour of §3.2/§5,
//! * [`server`] — the database server: execution layer, commitment
//!   layer (TFCommit cohort + coordinator, plus the trusted 2PC
//!   baseline of §6.1), datastore and log,
//! * [`client`] — client sessions executing the transaction life-cycle
//!   of Figure 5,
//! * [`audit`] — the offline auditor implementing Lemmas 1–7,
//! * [`recovery`] — persistence configuration and the verified crash
//!   recovery path (WAL + snapshot restart via `fides-durability`),
//! * [`repair`] — the repair plane: verified anti-entropy state
//!   transfer for lagging or restarted servers (gap detection, block
//!   and checkpoint transfer, Byzantine-refuting verification),
//! * [`system`] — the cluster harness used by tests, examples and the
//!   benchmark suite,
//! * [`telemetry`] — the per-server metric bundle: commit-round stage
//!   timers, durability/read/repair counters and the structured event
//!   ring (built on `fides-telemetry`).
//!
//! # Quick start
//!
//! ```
//! use fides_core::system::{ClusterConfig, FidesCluster};
//! use fides_store::{Key, Value};
//!
//! // Three servers, four preloaded items per shard, one txn per block.
//! let config = ClusterConfig::new(3).items_per_shard(4);
//! let cluster = FidesCluster::start(config);
//! let mut client = cluster.client(0);
//!
//! let key = cluster.key_of(0, 0); // first item of server 0's shard
//! let mut txn = client.begin();
//! let read = client.read(&mut txn, &key).unwrap();
//! client.write(&mut txn, &key, Value::from_i64(42)).unwrap();
//! let outcome = client.commit(txn).unwrap();
//! assert!(outcome.committed());
//!
//! let report = cluster.audit();
//! assert!(report.is_clean());
//! cluster.shutdown();
//! # let _ = read;
//! ```

pub mod audit;
pub mod behavior;
pub mod client;
pub mod messages;
pub mod occ;
pub mod partition;
pub mod recovery;
pub mod repair;
pub mod server;
pub mod system;
pub mod telemetry;

pub use audit::{AuditReport, Auditor, Violation, ViolationKind};
pub use behavior::Behavior;
pub use client::{
    finalize_outcomes, ClientSession, PendingCommit, ReadStats, TxnCtx, TxnOutcome,
    UnverifiedOutcome,
};
pub use fides_read::{ReadConsistency, ReadEvidence, ReadFault};
pub use messages::{CommitProtocol, Message, ReadRefusal, TxnHandle};
pub use partition::Partitioner;
pub use recovery::{MemoryCluster, PersistenceBackend, PersistenceConfig, ServerStartError};
pub use repair::{RepairEvidence, RepairFault};
pub use system::{ClusterConfig, FidesCluster};
pub use telemetry::ServerTelemetry;
