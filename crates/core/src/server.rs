//! The Fides database server (paper §3.1 Figure 3, §4).
//!
//! Each server is one thread owning the four components of Figure 3:
//! an **execution layer** (transactional reads and buffered writes), a
//! **commitment layer** (TFCommit cohort and, on the designated server,
//! the TFCommit coordinator; or their 2PC counterparts), a **datastore**
//! (a Merkle-authenticated multi-versioned shard) and the
//! **tamper-proof log**.
//!
//! # One dispatch
//!
//! [`Server::run`] hands each authenticated message to one `match`
//! (`Server::dispatch`), then ticks. The commit round a server leads is
//! plain data (`round::LeaderRound`) that dispatch advances: `Vote`,
//! `Response` and `TwoPcVote` fill the open round's slots, and the tick
//! times out a round whose phase deadline passed. Nothing blocks inside
//! a round, so each message kind gets the same handler whether or not a
//! round is open.
//!
//! # The pipelined commit hot path
//!
//! Server state is **lock-split into independent stages** (see
//! `docs/pipeline.md` for the full locking protocol), so the commit
//! path of block *h* overlaps work on its neighbours instead of
//! serializing everything behind one state mutex:
//!
//! * [`ExecState`] — CoSi witnesses, buffered out-of-order decisions
//!   (the inbox/validation stage);
//! * [`ShardStage`] — the Merkle-authenticated datastore, whose batch
//!   leaf updates fan out over the process-wide thread pool
//!   (`MerkleTree::update_leaves_parallel`);
//! * [`LedgerStage`] — the tamper-proof log plus audit evidence;
//! * the durability stage — a [`CommitPipeline`], whose dedicated WAL
//!   writer thread batches appends **across rounds** behind one
//!   covering fsync.
//!
//! A server therefore validates block *h+1* (exec + shard reads) while
//! the pool is hashing *h*'s subtree updates and the writer thread is
//! fsyncing *h−1*. Stage locks are never held two at a time by the
//! commit path; cross-stage consistency for the auditor comes from
//! [`ShardStage::applied_height`] (see [`ServerState::audit_snapshot`]).
//!
//! # Persistence
//!
//! A persisted server carries a [`CommitPipeline`] (attached at
//! construction, see [`crate::recovery`]). Every terminated block —
//! commit *and* abort — is handed to its writer thread, which appends
//! it to the durable log; the server **acknowledges commits to clients
//! only after the covering fsync** (ordered acks), and all WAL and
//! snapshot I/O stays off its thread. Every `snapshot_interval` blocks
//! the shard is checkpointed so restarts replay only a log suffix; the
//! pipeline saves snapshots only once their height is durable and can
//! prune WAL segments below them. On restart,
//! [`crate::recovery::recover_server`] re-validates the whole persisted
//! chain (hash links + batched collective-signature verification) and
//! cross-checks the replayed shard against the co-signed Merkle roots
//! before the server is allowed to serve traffic; a corrupted or
//! tampered disk fails startup rather than silently serving forged
//! state. Without a pipeline the server keeps the original memory-only
//! behavior.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fides_crypto::cosi::{self, Witness};
use fides_crypto::encoding::{Decodable, Encodable};
use fides_crypto::schnorr::{KeyPair, PublicKey};
use fides_crypto::Digest;
use fides_ledger::block::{Block, BlockHeader, Decision, TxnRecord};
use fides_ledger::log::TamperProofLog;
use fides_net::{Endpoint, Envelope, NodeId};
use fides_store::authenticated::{AuthenticatedShard, MhtUpdateStats};
use fides_store::types::{ItemState, Key, Timestamp, Value};

use fides_durability::{CommitPipeline, ShardSnapshot, SnapshotDelta};
use fides_net::EndpointSender;
use fides_store::DeltaError;

use crate::behavior::Behavior;
use crate::messages::{
    CommitProtocol, InvolvedVote, Message, MirrorImage, PartialBlock, Refusal, TxnHandle,
};
use crate::occ;
use crate::partition::Partitioner;
use crate::recovery::RecoveredServer;
use crate::repair::{verify_transfer, MirrorEntry, RepairEvidence, RepairFault, RepairShared};
use crate::telemetry::ServerTelemetry;
use fides_telemetry::trace::now_ns;
use fides_telemetry::{FlightRecorder, Level, Span, Stage, Stall, TraceContext};

mod round;

/// Map from node address to public key — the paper's "servers and
/// clients are uniquely identifiable using their public keys" (§3.1).
pub type Directory = Arc<HashMap<NodeId, PublicKey>>;

/// The inbox/validation stage: per-round protocol state. Touched by
/// the vote/response phases — never by the block-apply hot path's
/// heavy work.
#[derive(Debug, Default)]
pub struct ExecState {
    /// CoSi witness state per block height.
    witnesses: HashMap<u64, Witness>,
    /// Root sent in the vote for each height (to detect replacement,
    /// Scenario 2).
    sent_roots: HashMap<u64, Digest>,
    /// Decision blocks that arrived ahead of this server's log tip
    /// (out-of-order delivery). They are verified **in batch** and
    /// applied as soon as the gap closes (the catch-up loop).
    pending_decisions: BTreeMap<u64, Block>,
    /// Rotation: `GetVote` rounds that arrived ahead of this server's
    /// log tip — the next leader raced this cohort's application of the
    /// previous decision. Voted as soon as catch-up closes the gap.
    gated_votes: BTreeMap<u64, (NodeId, PartialBlock)>,
    /// Rotation: `Challenge` phases that arrived ahead of the log tip,
    /// replayed after catch-up (same race as `gated_votes`).
    gated_challenges: BTreeMap<
        u64,
        (
            NodeId,
            Box<Block>,
            cosi::Commitment,
            fides_crypto::scalar::Scalar,
        ),
    >,
}

/// Where the co-signed root covering a shard's current state lives —
/// what a snapshot-read response must hand the client as its trust
/// anchor.
#[derive(Debug, Clone)]
pub enum RootProvenance {
    /// No root-bearing block has touched this shard yet: its state is
    /// the deterministic genesis population, which clients hold as a
    /// trusted root (applied height 0).
    Genesis,
    /// The newest applied block that carried this shard's root; its
    /// header is the self-authenticating carrier (applied height =
    /// `header.height + 1`).
    Header(Box<BlockHeader>),
    /// The state descends from a checkpoint whose co-signed root lives
    /// in a block this server no longer holds (checkpoint bootstrap
    /// with a root-less suffix): reads are refused until the next
    /// root-bearing block lands.
    Unknown,
}

impl RootProvenance {
    /// The newest applied block carrying the shard's root, from a log.
    fn from_log(log: &TamperProofLog, idx: u32) -> RootProvenance {
        for block in log.blocks().iter().rev() {
            if block.decision == Decision::Commit && block.root_of(idx).is_some() {
                return RootProvenance::Header(Box::new(block.header()));
            }
        }
        if log.base_height() == 0 {
            RootProvenance::Genesis
        } else {
            RootProvenance::Unknown
        }
    }

    /// `(applied root height, header to ship)` — `None` when reads
    /// cannot be anchored.
    fn anchor(&self) -> Option<(u64, Option<BlockHeader>)> {
        match self {
            RootProvenance::Genesis => Some((0, None)),
            RootProvenance::Header(h) => Some((h.height + 1, Some((**h).clone()))),
            RootProvenance::Unknown => None,
        }
    }
}

/// The datastore stage: the Merkle-authenticated shard plus the commit
/// watermark reads validate against.
#[derive(Debug)]
pub struct ShardStage {
    /// The authenticated datastore shard.
    pub shard: AuthenticatedShard,
    /// Highest committed transaction timestamp (end-txn requests at or
    /// below this are ignored, §4.3.1).
    pub last_committed: Timestamp,
    /// Height up to which blocks have been applied to the shard. Lags
    /// the ledger stage briefly while a block is mid-apply; the auditor
    /// uses it to take consistent (log, shard) snapshots.
    pub applied_height: u64,
    /// Provenance of the co-signed root covering the shard's current
    /// state (the verified read plane's trust anchor).
    pub last_root: RootProvenance,
    /// Newest committed write timestamp per key, across **all** shards
    /// (every server applies every commit block). The leader's batch
    /// former consults this to keep transactions whose read set is
    /// already overwritten — certain to abort under OCC — out of clean
    /// blocks (`Server::select_batch`).
    pub write_watermarks: HashMap<Key, Timestamp>,
}

/// A mirror's read-serving state, built once per origin from the shard
/// its receipt check restored and brought forward in place by each
/// mirror delta, together with its [`crate::repair::MirrorEntry`]'s
/// image: a read served mid-supersede sees exactly one `(shard, root)`
/// pair, never a torn mix of old and new mirror.
#[derive(Clone, Debug)]
pub(crate) struct MirrorReadState {
    /// The mirrored checkpoint's applied height (= coverage watermark).
    covered: u64,
    /// The restored shard the proofs are generated from.
    shard: AuthenticatedShard,
    /// The co-signed root anchoring the mirror. Set by the first read
    /// that finds it in the local ledger and whose header matches
    /// `shard`'s root.
    anchor: std::sync::OnceLock<MirrorAnchor>,
}

/// A mirror's co-signed anchor: `(applied root height, carrier header)`
/// (`None` header = genesis).
type MirrorAnchor = (u64, Option<BlockHeader>);

/// The ledger stage: the replicated log plus the audit evidence this
/// server accumulates.
#[derive(Debug, Default)]
pub struct LedgerStage {
    /// This server's copy of the globally replicated log.
    pub log: TamperProofLog,
    /// Rounds this server refused to co-sign (protocol anomalies it
    /// detected first-hand).
    pub refusals: Vec<(u64, Refusal)>,
    /// Culprits the coordinator identified via partial-signature checks
    /// (Lemma 4): `(height, server indices)`.
    pub cosi_culprits: Vec<(u64, Vec<u32>)>,
    /// Coordinator-side round statistics.
    pub round_stats: RoundStats,
}

/// Server state shared with the harness/auditor, **lock-split into
/// independently locked stages** so the commit pipeline's stages never
/// contend on one global mutex (see module docs). The commit path
/// acquires at most one stage lock at a time, in the fixed order
/// exec → shard → ledger → durability; multi-stage readers (the
/// auditor) synchronize through [`ShardStage::applied_height`].
#[derive(Debug)]
pub struct ServerState {
    /// This server's index (= shard index).
    pub idx: u32,
    /// Fault-injection configuration (immutable once running).
    behavior: Behavior,
    exec: parking_lot::Mutex<ExecState>,
    shard: parking_lot::Mutex<ShardStage>,
    ledger: parking_lot::Mutex<LedgerStage>,
    /// The durability engine (`None` = original memory-only behavior,
    /// or the engine was killed).
    durability: parking_lot::Mutex<Option<CommitPipeline>>,
    /// Repair-plane state: lagging/repairing status, refuted-transfer
    /// evidence, and peers' checkpoint mirrors with their read-serving
    /// state.
    repair: parking_lot::Mutex<RepairShared>,
    /// Lock-free metric handles (stage timers, counters, event ring).
    /// Recording never takes a stage lock; snapshots go through
    /// [`ServerState::metrics`].
    pub telemetry: ServerTelemetry,
}

/// Commit-round accounting (coordinator only).
///
/// The paper's "commit latency" ("time taken to terminate a transaction
/// once the client sends end transaction request") is
/// `round_nanos / committed_txns`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Protocol rounds driven to completion.
    pub rounds: u64,
    /// Total wall-clock time inside rounds, in nanoseconds.
    pub round_nanos: u128,
    /// Transactions committed across all rounds.
    pub committed_txns: u64,
    /// Transactions aborted across all rounds.
    pub aborted_txns: u64,
}

impl RoundStats {
    /// Folds another server's stats in — under rotating leadership the
    /// cluster's round accounting is the sum over every leader.
    pub fn merge(&mut self, other: &RoundStats) {
        self.rounds += other.rounds;
        self.round_nanos += other.round_nanos;
        self.committed_txns += other.committed_txns;
        self.aborted_txns += other.aborted_txns;
    }
}

impl ServerState {
    pub(crate) fn new(idx: u32, shard: AuthenticatedShard, behavior: Behavior) -> Self {
        ServerState {
            idx,
            behavior,
            exec: parking_lot::Mutex::new(ExecState::default()),
            shard: parking_lot::Mutex::new(ShardStage {
                shard,
                last_committed: Timestamp::ZERO,
                applied_height: 0,
                last_root: RootProvenance::Genesis,
                write_watermarks: HashMap::new(),
            }),
            ledger: parking_lot::Mutex::new(LedgerStage::default()),
            durability: parking_lot::Mutex::new(None),
            repair: parking_lot::Mutex::new(RepairShared::default()),
            telemetry: ServerTelemetry::new(idx as u64),
        }
    }

    /// State for a restarted server: log, shard, commit watermark,
    /// durability engine and persisted checkpoint mirrors come out of
    /// [`crate::recovery::recover_server`].
    pub(crate) fn recovered(idx: u32, behavior: Behavior, recovered: RecoveredServer) -> Self {
        let applied_height = recovered.log.next_height();
        let repair = RepairShared {
            // Reloaded mirrors restore lazily, on their first read or delta.
            mirrors: recovered
                .mirrors
                .into_iter()
                .map(|(origin, snapshot)| {
                    let entry = MirrorEntry {
                        snapshot: Arc::new(snapshot),
                        reads: None,
                    };
                    (origin, entry)
                })
                .collect(),
            // A provisionally adopted checkpoint (snapshot ahead of a
            // torn WAL) starts the server in `Repairing`: it must not
            // serve commit votes until a peer's co-signed chain
            // confirms or replaces the adopted tip.
            repairing: recovered.provisional,
            since: recovered.provisional.then(Instant::now),
            ..RepairShared::default()
        };
        let last_root = RootProvenance::from_log(&recovered.log, idx);
        ServerState {
            idx,
            behavior,
            exec: parking_lot::Mutex::new(ExecState::default()),
            shard: parking_lot::Mutex::new(ShardStage {
                shard: recovered.shard,
                last_committed: recovered.last_committed,
                applied_height,
                last_root,
                write_watermarks: watermarks_from_log(&recovered.log),
            }),
            ledger: parking_lot::Mutex::new(LedgerStage {
                log: recovered.log,
                ..LedgerStage::default()
            }),
            durability: parking_lot::Mutex::new(Some(recovered.pipeline)),
            repair: parking_lot::Mutex::new(repair),
            telemetry: ServerTelemetry::new(idx as u64),
        }
    }

    /// A point-in-time snapshot of this server's metrics.
    pub fn metrics(&self) -> fides_telemetry::MetricsSnapshot {
        self.telemetry.snapshot()
    }

    /// The structured events this server recorded (newest-capacity
    /// window), ordered by sequence number.
    pub fn events(&self) -> Vec<fides_telemetry::Event> {
        self.telemetry.events.snapshot()
    }

    /// The fault-injection configuration.
    pub fn behavior(&self) -> &Behavior {
        &self.behavior
    }

    /// A point-in-time copy of this server's log.
    pub fn log(&self) -> TamperProofLog {
        self.ledger.lock().log.clone()
    }

    /// The log's tip height (`base + len` — correct for suffix logs).
    pub fn next_height(&self) -> u64 {
        self.ledger.lock().log.next_height()
    }

    /// Runs `f` over the shard (read access for tests/examples).
    pub fn with_shard<R>(&self, f: impl FnOnce(&AuthenticatedShard) -> R) -> R {
        f(&self.shard.lock().shard)
    }

    /// Runs `f` over the shard mutably — fault injection in tests.
    #[doc(hidden)]
    pub fn with_shard_mut<R>(&self, f: impl FnOnce(&mut AuthenticatedShard) -> R) -> R {
        f(&mut self.shard.lock().shard)
    }

    /// Highest committed transaction timestamp.
    pub fn last_committed(&self) -> Timestamp {
        self.shard.lock().last_committed
    }

    /// Refusals this server recorded (protocol anomalies).
    pub fn refusals(&self) -> Vec<(u64, Refusal)> {
        self.ledger.lock().refusals.clone()
    }

    /// Culprits identified by partial-signature checks (Lemma 4).
    pub fn cosi_culprits(&self) -> Vec<(u64, Vec<u32>)> {
        self.ledger.lock().cosi_culprits.clone()
    }

    /// Commit-round statistics (meaningful on the coordinator).
    pub fn round_stats(&self) -> RoundStats {
        self.ledger.lock().round_stats
    }

    /// Merkle-maintenance statistics.
    pub fn mht_stats(&self) -> MhtUpdateStats {
        self.shard.lock().shard.stats()
    }

    /// Zeroes the Merkle-maintenance statistics.
    pub fn reset_mht_stats(&self) {
        self.shard.lock().shard.reset_stats();
    }

    /// `true` while this server is repairing (gap detected, verified
    /// state transfer not yet installed). A repairing server votes
    /// abort for blocks touching its shard and is treated by the
    /// auditor as lagging, not faulty, until the grace deadline.
    pub fn is_repairing(&self) -> bool {
        self.repair.lock().repairing
    }

    /// When the current repair began (`None` when not repairing).
    pub fn repair_since(&self) -> Option<Instant> {
        self.repair.lock().since
    }

    /// Completed verified repairs over this server's lifetime.
    pub fn repair_completions(&self) -> u64 {
        self.repair.lock().completions
    }

    /// Refuted transfer attempts recorded against Byzantine peers.
    pub fn repair_evidence(&self) -> Vec<RepairEvidence> {
        self.repair.lock().evidence.clone()
    }

    /// Heights of the checkpoint mirrors this server holds for peers.
    pub fn mirror_heights(&self) -> Vec<(u32, u64)> {
        let repair = self.repair.lock();
        let mut heights: Vec<(u32, u64)> = repair
            .mirrors
            .iter()
            .map(|(origin, held)| (*origin, held.snapshot.height))
            .collect();
        heights.sort_unstable();
        heights
    }

    /// The newest snapshot persisted on this server's disk — what it
    /// surrenders to the auditor so a suffix-log audit (peers pruned
    /// their WALs) can seed its replay from verified checkpoints.
    pub fn persisted_snapshot(&self) -> Option<ShardSnapshot> {
        self.durability.lock().as_ref()?.load_latest_snapshot()
    }

    /// Height below which this server's blocks are durable — `None`
    /// without persistence.
    pub fn durable_height(&self) -> Option<u64> {
        self.durability
            .lock()
            .as_ref()
            .map(CommitPipeline::durable_height)
    }

    /// Blocks until everything submitted to the durability engine is
    /// stable (no-op without persistence).
    pub fn flush_durability(&self) {
        if let Some(pipeline) = self.durability.lock().as_ref() {
            pipeline.flush();
        }
    }

    /// The log copy this server would hand an auditor — with its log
    /// faults applied (tampering happens at surrender time, §4.4).
    pub fn log_for_audit(&self) -> TamperProofLog {
        self.faulted(self.log())
    }

    fn faulted(&self, mut log: TamperProofLog) -> TamperProofLog {
        if let Some(h) = self.behavior.tamper_log_at {
            log.tamper_block(h, |b| {
                b.decision = match b.decision {
                    Decision::Commit => Decision::Abort,
                    Decision::Abort => Decision::Commit,
                }
            });
        }
        if let Some((a, b)) = self.behavior.reorder_log {
            log.reorder_blocks(a, b);
        }
        if let Some(keep) = self.behavior.truncate_log_to {
            log.truncate(keep);
        }
        log
    }

    /// Drops the durability engine, flushing it (its Drop drains,
    /// fsyncs and joins the writer thread). Called by cluster shutdown
    /// so a restart can reopen the same directories.
    pub(crate) fn shutdown_durability(&self) {
        let _ = self.durability.lock().take();
    }

    /// Crash-test hook: tears the durability engine down **without**
    /// flushing — it abandons its un-fsynced tail, so the on-disk state
    /// is exactly what the last covering fsync left (the in-process
    /// stand-in for `kill -9` mid-stream). The server keeps running
    /// memory-only afterwards.
    #[doc(hidden)]
    pub fn kill_durability(&self) {
        if let Some(pipeline) = self.durability.lock().take() {
            pipeline.kill();
        }
    }

    /// A **consistent** `(log-for-audit, shard)` pair: the shard has
    /// applied exactly the blocks of the returned log. Because the
    /// stages are locked independently, the apply path can momentarily
    /// hold a block in the ledger that the shard has not absorbed yet;
    /// this retries until the [`ShardStage::applied_height`] watermark
    /// matches the log tip (instant on a settled cluster).
    pub fn audit_snapshot(&self) -> (TamperProofLog, AuthenticatedShard) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let log = self.log();
            let (shard, applied) = {
                let stage = self.shard.lock();
                (stage.shard.clone(), stage.applied_height)
            };
            if applied == log.next_height() || Instant::now() >= deadline {
                return (self.faulted(log), shard);
            }
            std::thread::yield_now();
        }
    }
}

/// Static per-server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// This server's index.
    pub idx: u32,
    /// Total number of servers.
    pub n_servers: u32,
    /// Which commitment protocol to run.
    pub protocol: CommitProtocol,
    /// Transactions per block (coordinator only).
    pub batch_size: usize,
    /// Idle time after which the coordinator terminates a partial batch.
    pub flush_interval: Duration,
    /// Phase timeout for vote/response collection.
    pub round_timeout: Duration,
    /// Run the repair plane (anti-entropy state transfer). Only
    /// meaningful under TFCommit — 2PC blocks are unsigned, so a
    /// transfer could not be verified.
    pub repair: bool,
    /// Broadcast saved snapshots to peers as checkpoint mirrors and
    /// persist received ones (see
    /// [`crate::recovery::PersistenceConfig::mirror_checkpoints`]).
    pub mirror_checkpoints: bool,
    /// Withhold client outcomes until a majority of servers reports the
    /// block durable (see
    /// [`crate::recovery::PersistenceConfig::quorum_acks`]).
    pub quorum_acks: bool,
    /// Blocks between automatic shard snapshots while a durability
    /// engine is attached (see
    /// [`crate::recovery::PersistenceConfig::snapshot_interval`];
    /// 0 = never).
    pub snapshot_interval: u64,
    /// Rotate commit leadership deterministically by block height
    /// (`height % n_servers`) instead of pinning every round on
    /// [`COORDINATOR_IDX`]. TFCommit only; under rotation every server
    /// accepts end-transaction traffic and forwards queued work to the
    /// frontier leader ([`Message::EndTxnFwd`]) so no batch starves.
    pub rotate_leaders: bool,
    /// Liveness watchdog threshold: how long the frontier may sit still
    /// *with work outstanding* (live CoSi witnesses or queued end-txns)
    /// before the round-progress monitor declares a [`Stall`] and dumps
    /// the flight recorder. `Duration::ZERO` disables the watchdog.
    /// The main loop ticks at least every `flush_interval`, so
    /// detection lands within `stall_timeout + flush_interval` — with
    /// the default `stall_timeout == round_timeout`, well inside 2×
    /// the round timeout.
    pub stall_timeout: Duration,
}

/// The running server: message loop plus protocol handlers.
pub struct Server {
    state: Arc<ServerState>,
    endpoint: Endpoint,
    keypair: KeyPair,
    directory: Directory,
    partitioner: Partitioner,
    config: ServerConfig,
    /// Public keys of all servers, by index (the CoSi witness set).
    server_pks: Vec<PublicKey>,
    /// Coordinator: queued end-transaction requests.
    pending: Vec<PendingTxn>,
    /// Coordinator: when the oldest queued end-txn must be terminated
    /// even though the batch is not full. Deadline-based (not
    /// idle-based): a steady stream of execution traffic cannot starve
    /// block formation.
    batch_deadline: Option<Instant>,
    /// Authenticated messages awaiting dispatch: the transport is
    /// drained in bursts whose signatures are verified with **one**
    /// batched check ([`fides_net::verify_envelopes`]), and the decoded
    /// survivors queue here in arrival order.
    inbox: std::collections::VecDeque<(NodeId, Message, Option<TraceContext>)>,
    /// The in-flight anti-entropy repair, when this server detected a
    /// gap. While a task is active incoming decisions are buffered
    /// (never applied) so the verified transfer installs against a
    /// frozen base.
    repair_task: Option<RepairTask>,
    /// Rate limiter for repair-gap gossip queries.
    last_repair_query: Option<Instant>,
    /// The checkpoint this server last mirrored to its peers: the base
    /// of its next mirror delta, and what it sends a holder that asks
    /// to resync. `None` until its first mirror after starting.
    last_mirror: Option<Arc<ShardSnapshot>>,
    /// Origins this server asked for a whole mirror image, and when.
    resyncs: HashMap<u32, Instant>,
    /// Coordinator-only: outcomes withheld until a quorum of servers
    /// reports the block durable (`ServerConfig::quorum_acks`).
    quorum: Option<Arc<QuorumAcks>>,
    /// Per-peer liveness gauges (`net.peer.<i>.last_heard_ms`): set to
    /// milliseconds-on-the-process-epoch at every authenticated
    /// envelope receipt from that server.
    peer_last_heard: Vec<Arc<fides_telemetry::Gauge>>,
    /// Round-progress monitor state (see [`Server::tick_watchdog`]).
    watchdog: WatchdogTick,
    /// The commit round this server leads, while one is open: plain
    /// data that [`Server::dispatch`] advances (see [`round`]).
    round: Option<round::LeaderRound>,
    /// Cleared by `Shutdown`: the message loop exits.
    running: bool,
}

#[derive(Clone, Debug)]
struct PendingTxn {
    handle: TxnHandle,
    client: NodeId,
    record: TxnRecord,
    /// The sampled trace context this end-txn arrived with (fides-trace
    /// — `None` for the unsampled 1−1/N of traffic). Survives
    /// forwarding; the round that terminates the transaction parents
    /// its spans under this context.
    trace: Option<TraceContext>,
    /// Rounds this transaction sat out because the leader's write
    /// watermarks already doom its read set (see
    /// [`Server::select_batch`]). Bounded by [`MAX_DOOMED_DEFERRALS`].
    deferrals: u32,
}

/// Round-progress watchdog state: when the frontier last moved, and
/// which stalled height was already reported (fire once per height).
struct WatchdogTick {
    last_frontier: u64,
    since: Instant,
    fired_for: Option<u64>,
}

/// Blocks fetched per `RepairRequest` round trip.
const REPAIR_CHUNK: u32 = 64;

/// Cap on rounds parked in [`ExecState::gated_votes`] /
/// [`ExecState::gated_challenges`] (same bound as buffered decisions —
/// a Byzantine leader cannot balloon cohort memory with far-future
/// rounds).
const MAX_GATED_ROUNDS: usize = 1024;

/// How many rounds a doomed transaction (read set already overwritten
/// per the leader's write watermarks) may be held out of clean batches
/// before it is flushed into a dedicated abort round anyway.
const MAX_DOOMED_DEFERRALS: u32 = 4;

/// Minimum spacing between repair-gap gossip broadcasts.
const REPAIR_QUERY_GAP: Duration = Duration::from_millis(100);

/// How long a mirror holder waits for the whole image it asked an
/// origin for ([`Message::MirrorResync`]) before asking again.
const MIRROR_RESYNC_GAP: Duration = Duration::from_secs(1);

/// One anti-entropy repair attempt: the staging area for blocks (and
/// possibly a checkpoint) fetched from `peer`, verified as a whole
/// before any byte reaches live state.
#[derive(Debug)]
struct RepairTask {
    /// The peer currently serving the transfer.
    peer: u32,
    /// Height the staged run starts at (this server's frozen tip, or
    /// the transferred checkpoint's height).
    base_height: u64,
    /// The hash the first staged block must link to (own verified tip,
    /// or the checkpoint's recorded tip hash).
    base_tip: Digest,
    /// A transferred checkpoint of this server's own shard, staged when
    /// peers pruned below `base_height` (verified internally on
    /// receipt; cross-checked against co-signed roots at install).
    checkpoint: Option<Arc<ShardSnapshot>>,
    /// The shard the receipt check restored from `checkpoint`: the
    /// replay base at install, so the image is restored only once.
    checkpoint_shard: Option<AuthenticatedShard>,
    /// Blocks staged so far, consecutive from `base_height`.
    staged: Vec<Block>,
    /// The tip to reach (grows if the serving peer advances).
    target: u64,
    /// Peers that failed or refused this repair (tried and excluded).
    excluded: HashSet<u32>,
    /// Whether a checkpoint was already requested from `peer`.
    asked_checkpoint: bool,
    /// Last time `peer` responded (drives the unresponsive-peer
    /// retarget).
    last_activity: Instant,
    /// When the gap was first detected (spans retargets; feeds the
    /// `repair.duration_ns` histogram at install).
    started: Instant,
}

/// Coordinator-side quorum-durable outcome gate: client outcomes for a
/// block are released only once `quorum` distinct servers (the
/// coordinator included) report the block fsync-durable. Shared with
/// the WAL writer thread, whose ordered-ack callback records the
/// coordinator's own durability.
struct QuorumAcks {
    quorum: usize,
    sender: EndpointSender,
    keypair: KeyPair,
    from: NodeId,
    inner: parking_lot::Mutex<QuorumInner>,
}

#[derive(Default)]
struct QuorumInner {
    /// Outcome payloads withheld per height.
    pending: HashMap<u64, Vec<(NodeId, Vec<u8>)>>,
    /// Servers whose copy of each height is durable.
    acks: HashMap<u64, HashSet<u32>>,
}

impl QuorumAcks {
    /// Registers a block's withheld outcomes (coordinator thread, after
    /// the decision broadcast and before any `Durable` message for the
    /// height can be dispatched).
    fn register(&self, height: u64, payloads: Vec<(NodeId, Vec<u8>)>) {
        let mut inner = self.inner.lock();
        inner.pending.insert(height, payloads);
        self.release_if_ready(&mut inner, height);
    }

    /// Records that `server`'s copy of `height` is durable, releasing
    /// the withheld outcomes once the quorum is reached.
    fn record(&self, height: u64, server: u32) {
        let mut inner = self.inner.lock();
        inner.acks.entry(height).or_default().insert(server);
        // Bound stale entries: acks from rounds that never registered
        // outcomes, and withheld payloads whose quorum can no longer
        // realistically arrive (their clients timed out long ago).
        if height > 4096 {
            let floor = height - 4096;
            inner.acks.retain(|h, _| *h >= floor);
            inner.pending.retain(|h, _| *h >= floor);
        }
        self.release_if_ready(&mut inner, height);
    }

    fn release_if_ready(&self, inner: &mut QuorumInner, height: u64) {
        let ready = inner
            .acks
            .get(&height)
            .is_some_and(|acks| acks.len() >= self.quorum)
            && inner.pending.contains_key(&height);
        if !ready {
            return;
        }
        let payloads = inner.pending.remove(&height).expect("checked");
        inner.acks.remove(&height);
        for (client, payload) in payloads {
            self.sender
                .send(Envelope::sign(&self.keypair, self.from, client, payload));
        }
    }
}

/// The coordinator index (the "designated server", §4.1).
pub const COORDINATOR_IDX: u32 = 0;

/// The commit leader for block `height`: `height % n_servers` under
/// rotating leadership ([`ServerConfig::rotate_leaders`]), the fixed
/// [`COORDINATOR_IDX`] otherwise. Clients use this to aim end-txn
/// traffic at the server that will form the next block; a miss is
/// harmless (the receiver forwards via [`Message::EndTxnFwd`]).
pub fn leader_for_height(height: u64, n_servers: u32, rotate: bool) -> u32 {
    if rotate {
        (height % n_servers.max(1) as u64) as u32
    } else {
        COORDINATOR_IDX
    }
}

/// Computes the node id of server `idx` (servers occupy the low id
/// range).
pub fn server_node(idx: u32) -> NodeId {
    NodeId::new(idx)
}

/// Node id of client `idx`.
pub fn client_node(idx: u32) -> NodeId {
    NodeId::new(1 << 20 | idx)
}

/// Node id of the harness/admin endpoint (sends `Flush`/`Shutdown`).
pub fn admin_node() -> NodeId {
    NodeId::new(u32::MAX)
}

impl Server {
    /// Builds a server around pre-constructed state. Returns the shared
    /// state handle for the harness/auditor.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        config: ServerConfig,
        shard: AuthenticatedShard,
        behavior: Behavior,
        endpoint: Endpoint,
        keypair: KeyPair,
        directory: Directory,
        partitioner: Partitioner,
        server_pks: Vec<PublicKey>,
    ) -> (Server, Arc<ServerState>) {
        let state = ServerState::new(config.idx, shard, behavior);
        Server::from_state(
            config,
            state,
            endpoint,
            keypair,
            directory,
            partitioner,
            server_pks,
        )
    }

    /// Builds a server around an explicit [`ServerState`] — the restart
    /// path, where the state (log, shard, `last_committed`, durability
    /// handles) comes out of [`crate::recovery::recover_server`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_state(
        config: ServerConfig,
        state: ServerState,
        endpoint: Endpoint,
        keypair: KeyPair,
        directory: Directory,
        partitioner: Partitioner,
        server_pks: Vec<PublicKey>,
    ) -> (Server, Arc<ServerState>) {
        let state = Arc::new(state);
        // Attach the metric handles the WAL writer thread records into
        // (fsync latency, batch size, queue depth) before any traffic.
        if let Some(pipeline) = state.durability.lock().as_ref() {
            pipeline.set_metrics(state.telemetry.pipeline_metrics());
        }
        // Under rotation every server leads some heights, so every
        // server needs the quorum tracker for the outcomes it withholds.
        let quorum = (config.quorum_acks
            && (config.idx == COORDINATOR_IDX || config.rotate_leaders))
            .then(|| {
                Arc::new(QuorumAcks {
                    quorum: (config.n_servers as usize / 2) + 1,
                    sender: endpoint.sender(),
                    keypair,
                    from: endpoint.node(),
                    inner: parking_lot::Mutex::new(QuorumInner::default()),
                })
            });
        let peer_last_heard = (0..config.n_servers)
            .map(|peer| {
                state
                    .telemetry
                    .registry
                    .gauge(&format!("net.peer.{peer}.last_heard_ms"))
            })
            .collect();
        let server = Server {
            state: Arc::clone(&state),
            endpoint,
            keypair,
            directory,
            partitioner,
            config,
            server_pks,
            pending: Vec::new(),
            batch_deadline: None,
            inbox: std::collections::VecDeque::new(),
            repair_task: None,
            last_repair_query: None,
            last_mirror: None,
            resyncs: HashMap::new(),
            quorum,
            peer_last_heard,
            watchdog: WatchdogTick {
                last_frontier: 0,
                since: Instant::now(),
                fired_for: None,
            },
            round: None,
            running: true,
        };
        (server, state)
    }

    fn is_coordinator(&self) -> bool {
        self.config.idx == COORDINATOR_IDX
    }

    /// Whether deterministic leader rotation is active (TFCommit only —
    /// 2PC keeps the fixed designated coordinator).
    fn rotation_on(&self) -> bool {
        self.config.rotate_leaders && matches!(self.config.protocol, CommitProtocol::TfCommit)
    }

    /// The leader of the round at `height`.
    fn leader_of(&self, height: u64) -> u32 {
        leader_for_height(height, self.config.n_servers, self.rotation_on())
    }

    /// The height the next formed block will occupy — the frontier
    /// round. Takes the ledger lock; never call while holding a stage
    /// lock.
    fn frontier_height(&self) -> u64 {
        self.state.ledger.lock().log.next_height()
    }

    /// Whether this server leads the frontier round (and may therefore
    /// form the next batch).
    fn leads_frontier(&self) -> bool {
        if self.rotation_on() {
            self.leader_of(self.frontier_height()) == self.config.idx
        } else {
            self.is_coordinator()
        }
    }

    /// The server's message loop. Returns when a `Shutdown` message
    /// arrives or the network disappears.
    ///
    /// Each pass hands at most one message to `Server::dispatch`,
    /// then ticks: an open round past its phase deadline times out, a
    /// due batch opens the next round, and the forwarding, repair and
    /// watchdog upkeep runs. A leader opens a round as soon as a full
    /// batch is pending, or when the oldest pending end-txn has waited
    /// `flush_interval` — a hard deadline, so block formation keeps
    /// pace even while execution traffic streams in continuously.
    pub fn run(mut self) {
        // Startup gossip: announce our tip so peers can tell us (and we
        // can tell them) about any gap — the rejoin path after a
        // restart, and a no-op on a fresh, level cluster.
        if self.repair_enabled() {
            self.broadcast_repair_query();
        }
        while self.running {
            // An open round waits for its phase deadline; the batch
            // deadline matters only once no round is open.
            let wake = match (&self.round, self.batch_deadline) {
                (Some(round), _) => Some(round.deadline),
                (None, deadline) if self.is_coordinator() || self.rotation_on() => deadline,
                _ => None,
            };
            let timeout = wake.map_or(self.config.flush_interval, |wake| {
                wake.saturating_duration_since(Instant::now())
                    .min(self.config.flush_interval)
            });
            match self.next_message(Instant::now() + timeout) {
                Ok((from, msg, trace)) => self.dispatch(from, msg, trace),
                Err(fides_net::RecvError::Timeout) => {}
                Err(fides_net::RecvError::Disconnected) => break,
            }
            if !self.running {
                // A round still open at shutdown is dropped, not timed out.
                break;
            }
            self.expire_round();
            self.drive_rounds();
            self.maybe_forward_pending();
            self.drive_repair();
            self.tick_watchdog();
        }
    }

    /// The round-progress liveness monitor, ticked every main-loop
    /// iteration (the loop wakes at least every `flush_interval`).
    ///
    /// A stall is declared when the frontier height has not moved for
    /// [`ServerConfig::stall_timeout`] **while work is outstanding** —
    /// live CoSi witnesses (votes cast whose decision never arrived)
    /// or queued end-transactions. Idle quiet is not a stall. On
    /// detection it records a structured [`Stall`] naming the stalled
    /// height and its leader, dumps a [`FlightRecorder`] (recent event
    /// ring + metrics snapshot + inflight round state) into the
    /// server's [`fides_telemetry::StallLog`], and fires once per
    /// stalled height — the trigger substrate for a timeout-driven
    /// view change (ROADMAP item 6, failover).
    fn tick_watchdog(&mut self) {
        if self.config.stall_timeout.is_zero() {
            return;
        }
        let frontier = self.frontier_height();
        if frontier != self.watchdog.last_frontier {
            self.watchdog.last_frontier = frontier;
            self.watchdog.since = Instant::now();
            self.watchdog.fired_for = None;
            return;
        }
        let (witness_heights, gated) = {
            let exec = self.state.exec.lock();
            (
                exec.witnesses.keys().copied().collect::<Vec<u64>>(),
                exec.gated_votes.len() + exec.gated_challenges.len(),
            )
        };
        if witness_heights.is_empty() && self.pending.is_empty() {
            // Nothing outstanding: a still frontier is just quiet.
            self.watchdog.since = Instant::now();
            return;
        }
        let waited = self.watchdog.since.elapsed();
        if waited < self.config.stall_timeout || self.watchdog.fired_for == Some(frontier) {
            return;
        }
        self.watchdog.fired_for = Some(frontier);
        let stall = Stall {
            leader: self.leader_of(frontier) as u64,
            height: frontier,
            waited_ms: waited.as_millis() as u64,
        };
        self.state.telemetry.stalls.inc();
        self.state.telemetry.events.record(
            Level::Error,
            "watchdog",
            format!(
                "stall at height {} (leader {}, waited {} ms)",
                stall.height, stall.leader, stall.waited_ms
            ),
        );
        let mut notes = vec![
            format!("observer: server {}", self.config.idx),
            format!("live CoSi witnesses at heights {witness_heights:?}"),
            format!("queued end-txns: {}", self.pending.len()),
            format!("gated rounds (votes+challenges): {gated}"),
        ];
        if self.state.is_repairing() {
            notes.push("shard is repairing".to_string());
        }
        self.state.telemetry.stall_log.report(FlightRecorder {
            stall,
            at_ns: now_ns(),
            events: self.state.telemetry.events.snapshot(),
            metrics: self.state.telemetry.snapshot(),
            notes,
        });
    }

    /// The next authenticated message: pops the pre-verified inbox, or
    /// drains a burst from the transport and batch-verifies its
    /// signatures ([`fides_net::Endpoint::recv_verified_burst`] — one
    /// batched check with per-envelope fallback, so only forgeries
    /// drop; undecodable payloads are discarded, §3.1).
    fn next_message(
        &mut self,
        deadline: Instant,
    ) -> Result<(NodeId, Message, Option<TraceContext>), fides_net::RecvError> {
        /// Upper bound on one burst (bounds worst-case batch latency).
        const MAX_BURST: usize = 64;
        loop {
            if let Some(message) = self.inbox.pop_front() {
                return Ok(message);
            }
            let burst = self
                .endpoint
                .recv_verified_burst(deadline, &self.directory, MAX_BURST)?;
            for env in &burst {
                // Liveness gauge: any authenticated envelope from a
                // server peer counts as hearing from it.
                if let Some(gauge) = self.peer_last_heard.get(env.from.raw() as usize) {
                    gauge.set((now_ns() / 1_000_000) as i64);
                }
                if let Ok(msg) = Message::decode(&env.payload) {
                    if matches!(
                        msg,
                        Message::RepairBlocks { .. } | Message::RepairCheckpoint { .. }
                    ) {
                        // Transfer volume as received, never re-encoded.
                        self.state
                            .telemetry
                            .repair_bytes
                            .add(env.payload.len() as u64);
                    }
                    self.inbox.push_back((env.from, msg, env.trace));
                }
            }
        }
    }

    /// Opens a round when none is open and a full batch is queued or
    /// the batch deadline has passed. Loops only while rounds end as
    /// they open (a lone server holds every vote itself).
    ///
    /// A repairing leader drives no rounds: its log tip is behind the
    /// chain, so any block it formed would not extend its peers' logs.
    /// Pending end-txns wait (or get bounced as stale) until the repair
    /// installs.
    fn drive_rounds(&mut self) {
        if self.repair_task.is_some() || self.state.is_repairing() {
            return;
        }
        while self.round.is_none() && self.leads_frontier() && !self.pending.is_empty() {
            let due = self.pending.len() >= self.config.batch_size
                || self
                    .batch_deadline
                    .is_some_and(|deadline| Instant::now() >= deadline);
            if !due || !self.open_round() {
                return;
            }
        }
    }

    /// Rotation liveness *and* batch concentration: a server holding
    /// queued end-txns it does not lead at the frontier (clients aim at
    /// an estimated leader and may race a leadership change) hands them
    /// to the frontier leader immediately. Forwarding eagerly — rather
    /// than waiting out the batch deadline — keeps the whole cluster's
    /// backlog concentrated at the one server about to run a round, so
    /// rotating blocks stay as full as fixed-coordinator blocks. A
    /// forward that races another leadership change simply hops again
    /// from the new recipient until it lands on the current leader.
    fn maybe_forward_pending(&mut self) {
        if !self.rotation_on()
            || self.pending.is_empty()
            || self.repair_task.is_some()
            || self.state.is_repairing()
        {
            return;
        }
        if !self.leads_frontier() {
            self.forward_pending();
        }
    }

    /// Sends every queued end-txn to the frontier leader as
    /// [`Message::EndTxnFwd`]. The forward carries the originating
    /// client's raw node id so the leader answers the client directly.
    fn forward_pending(&mut self) {
        let leader = self.leader_of(self.frontier_height());
        if leader == self.config.idx {
            return;
        }
        for txn in std::mem::take(&mut self.pending) {
            // A sampled txn's context rides the forward envelope, so
            // the eventual leader still parents the round under the
            // client's root span.
            self.send_traced(
                server_node(leader),
                &Message::EndTxnFwd {
                    client: txn.client.raw(),
                    handle: txn.handle,
                    record: txn.record,
                },
                txn.trace,
            );
        }
        self.batch_deadline = None;
    }

    fn send(&self, to: NodeId, msg: &Message) {
        self.send_traced(to, msg, None);
    }

    fn send_traced(&self, to: NodeId, msg: &Message, trace: Option<TraceContext>) {
        self.send_payload(to, msg.encode(), trace);
    }

    fn send_payload(&self, to: NodeId, payload: Vec<u8>, trace: Option<TraceContext>) {
        let env = Envelope::sign_traced(&self.keypair, self.endpoint.node(), to, payload, trace);
        self.endpoint.send(env);
    }

    fn broadcast_to_servers(&self, msg: &Message) {
        self.broadcast_to_servers_traced(msg, None);
    }

    /// Encodes `msg` once and signs it once per peer (a checkpoint
    /// mirror's payload is the whole shard image).
    fn broadcast_to_servers_traced(&self, msg: &Message, trace: Option<TraceContext>) {
        let payload = msg.encode();
        for s in 0..self.config.n_servers {
            if s != self.config.idx {
                self.send_payload(server_node(s), payload.clone(), trace);
            }
        }
    }

    /// The one dispatch: every received message goes to its handler
    /// here, whether or not this server has a round open. Replies to the
    /// open round advance it ([`Server::on_round_reply`]).
    fn dispatch(&mut self, from: NodeId, msg: Message, trace: Option<TraceContext>) {
        match msg {
            Message::ReadMany { txn, keys } => self.handle_read_many(from, txn, keys),
            Message::Write { txn, key, .. } => self.handle_write(from, txn, key),
            Message::EndTxn { handle, record } => {
                // Rounds are driven by the main loop once a full batch
                // is pending.
                self.handle_end_txn(from, handle, record, trace);
            }
            Message::EndTxnFwd {
                client,
                handle,
                record,
            } if self.rotation_on() && from.raw() < self.config.n_servers => {
                self.enqueue_end_txn(NodeId::new(client), handle, record, trace);
            }
            Message::Flush if !self.pending.is_empty() && !self.state.is_repairing() => {
                if self.leads_frontier() {
                    // Due now: the loop's tick opens the round, unless
                    // one is open (its end restarts the batch window).
                    self.batch_deadline = Some(Instant::now());
                } else if self.rotation_on() {
                    self.forward_pending();
                }
            }
            Message::GetVote { partial } => self.handle_get_vote(from, partial, trace),
            Message::Challenge {
                block,
                aggregate,
                challenge,
            } => self.handle_challenge(from, block, aggregate, challenge, trace),
            Message::Decision { block } => self.handle_decision_traced(block, trace),
            reply @ (Message::Vote { .. }
            | Message::Response { .. }
            | Message::TwoPcVote { .. }) => {
                self.on_round_reply(from, reply);
            }
            Message::TwoPcGetVote { partial } => self.handle_2pc_get_vote(from, partial),
            Message::TwoPcDecision { block } => self.handle_2pc_decision(block),
            Message::RepairQuery { next_height } => self.handle_repair_query(from, next_height),
            Message::RepairInfo {
                next_height,
                tip_hash,
                base_height,
                mirror_height,
            } => self.handle_repair_info(from, next_height, tip_hash, base_height, mirror_height),
            Message::RepairRequest { from: wanted, max } => {
                self.handle_repair_request(from, wanted, max);
            }
            Message::RepairBlocks {
                from: served_from,
                blocks,
                base_height,
                next_height,
            } => self.handle_repair_blocks(from, served_from, blocks, base_height, next_height),
            Message::RepairCheckpointRequest => self.handle_repair_checkpoint_request(from),
            Message::RepairCheckpoint { snapshot } => {
                self.handle_repair_checkpoint(from, snapshot);
            }
            Message::CheckpointMirror { image } => self.handle_checkpoint_mirror(from, image),
            Message::MirrorResync => self.handle_mirror_resync(from),
            Message::Durable { height } => self.handle_durable(from, height),
            Message::SnapshotRead {
                req,
                shard,
                keys,
                min_covered,
                at_height,
            } => self.handle_snapshot_read(from, req, shard, keys, min_covered, at_height),
            Message::RootQuery { from: from_height } => self.handle_root_query(from, from_height),
            Message::Shutdown => self.running = false,
            // Replies meant for clients, and forwards outside rotation.
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Execution layer (§4.2.1).
    // ------------------------------------------------------------------

    /// The batched read: one locked pass over the shard answers every
    /// key this transaction needs from this server, and the whole
    /// response costs one signature.
    fn handle_read_many(&mut self, from: NodeId, txn: TxnHandle, keys: Vec<Key>) {
        let stage = self.state.shard.lock();
        let items: Vec<crate::messages::ReadManyItem> = keys
            .into_iter()
            .map(|key| {
                let state = stage.shard.read(&key).map(|item| {
                    let value = if self.state.behavior().stale_read_keys.contains(&key) {
                        stale_value(&stage, &key, &item)
                    } else {
                        item.value.clone()
                    };
                    (value, item.rts, item.wts)
                });
                (key, state)
            })
            .collect();
        drop(stage);
        self.send(from, &Message::ReadManyResp { txn, items });
    }

    /// A blind write's pre-image (§4.2.1). The write itself stays
    /// with the client until its end-transaction request.
    fn handle_write(&mut self, from: NodeId, txn: TxnHandle, key: Key) {
        let old = self
            .state
            .shard
            .lock()
            .shard
            .read(&key)
            .map(|item| (item.value, item.rts, item.wts));
        self.send(from, &Message::WriteAck { txn, key, old });
    }

    fn handle_end_txn(
        &mut self,
        from: NodeId,
        handle: TxnHandle,
        record: TxnRecord,
        trace: Option<TraceContext>,
    ) {
        if !self.is_coordinator() && !self.rotation_on() {
            return; // only the designated coordinator terminates txns
        }
        self.enqueue_end_txn(from, handle, record, trace);
    }

    /// Queues a termination request (from a client directly, or relayed
    /// by a peer via [`Message::EndTxnFwd`]). Under rotation every
    /// server queues; a non-leader hands its queue to the frontier
    /// leader when the batch deadline passes.
    fn enqueue_end_txn(
        &mut self,
        client: NodeId,
        handle: TxnHandle,
        record: TxnRecord,
        trace: Option<TraceContext>,
    ) {
        let last = self.state.last_committed();
        if record.id <= last {
            // §4.3.1: "servers ignore any end transaction request with a
            // timestamp lower than the latest committed timestamp" — we
            // additionally tell the client so it can retry.
            self.send(client, &Message::EndTxnRejected { handle, hint: last });
            return;
        }
        if self.pending.iter().any(|p| p.handle == handle) {
            return; // forwarded duplicate of a request already queued
        }
        if self.pending.is_empty() {
            self.batch_deadline = Some(Instant::now() + self.config.flush_interval);
        }
        self.pending.push(PendingTxn {
            handle,
            client,
            record,
            trace,
            deferrals: 0,
        });
    }

    // ------------------------------------------------------------------
    // Cohort: TFCommit phases 2 and 4 (§4.3.1).
    // ------------------------------------------------------------------

    /// Phase 2 `<Vote, SchCommitment>` — shared by cohorts (message
    /// handler) and the coordinator (local call).
    ///
    /// OCC validation of large batches fans out per-transaction over
    /// the thread pool ([`occ::validate_batch_parallel`]), and the
    /// speculative root's Merkle work runs on the pool too — the
    /// "parallel Merkle/OCC execution" half of the commit pipeline.
    fn cohort_vote(&self, partial: &PartialBlock) -> (cosi::Commitment, Option<InvolvedVote>) {
        // Round id binds the nonce to (height, prev hash).
        let mut round_id = partial.height.to_be_bytes().to_vec();
        round_id.extend_from_slice(partial.prev_hash.as_bytes());
        let record_hint = partial.encode();
        let witness = Witness::commit(&self.keypair, &round_id, &record_hint);
        let commitment = witness.commitment();
        {
            let mut exec = self.state.exec.lock();
            exec.witnesses.insert(partial.height, witness);
            // Open rounds from this server's view: voted, not applied.
            self.state
                .telemetry
                .inflight_rounds
                .set(exec.witnesses.len() as i64);
        }

        let involved = self.involvement(&partial.txns);
        let involved_vote = if involved.contains(&self.config.idx) {
            if self.state.is_repairing() {
                // A repairing shard cannot validate reads or compute a
                // trustworthy speculative root — vote abort until the
                // verified transfer installs. The CoSi witness half
                // above still participates, so rounds not touching this
                // shard proceed at full speed.
                return (
                    commitment,
                    Some(InvolvedVote {
                        commit: false,
                        root: None,
                        failed: Vec::new(),
                    }),
                );
            }
            let mut stage = self.state.shard.lock();
            // Local OCC validation over this shard's slice (§4.3.1).
            let shard = &stage.shard;
            let failed = occ::validate_batch_parallel(&partial.txns, |key| {
                if self.partitioner.owner(key) == self.config.idx {
                    shard.read(key)
                } else {
                    None
                }
            });
            // Also enforce the sequential-log rule for the whole batch.
            let stale = partial.txns.iter().any(|t| t.id <= stage.last_committed);
            if failed.is_empty() && !stale {
                // Commit vote: compute the speculative root over all of
                // the block's writes that land on this shard.
                let writes = shard_writes(&partial.txns, &self.partitioner, self.config.idx);
                let root = stage.shard.speculative_root(&writes);
                drop(stage);
                self.state
                    .exec
                    .lock()
                    .sent_roots
                    .insert(partial.height, root);
                Some(InvolvedVote {
                    commit: true,
                    root: Some(root),
                    failed: Vec::new(),
                })
            } else {
                Some(InvolvedVote {
                    commit: false,
                    root: None,
                    failed,
                })
            }
        } else {
            None
        };
        (commitment, involved_vote)
    }

    fn handle_get_vote(
        &mut self,
        from: NodeId,
        partial: PartialBlock,
        trace: Option<TraceContext>,
    ) {
        if self.rotation_on() {
            if from.raw() != self.leader_of(partial.height) {
                return; // not that round's leader — ignore
            }
            let tip = self.frontier_height();
            if partial.height < tip {
                return; // stale round; the chain moved past it
            }
            if partial.height > tip {
                // The next leader raced our application of the previous
                // decision: park the round and vote right after
                // catch-up closes the gap.
                let mut exec = self.state.exec.lock();
                if exec.gated_votes.len() < MAX_GATED_ROUNDS {
                    exec.gated_votes.insert(partial.height, (from, partial));
                }
                return;
            }
        }
        let t0 = Instant::now();
        let start_ns = now_ns();
        let (commitment, involved) = self.cohort_vote(&partial);
        self.state
            .telemetry
            .stages
            .record(Stage::OccValidate, t0.elapsed().as_nanos() as u64);
        if let Some(ctx) = trace {
            // Cohort-side child of the leader's round span: where this
            // server spent the vote phase for the sampled transaction.
            let sink = &self.state.telemetry.spans;
            sink.close(
                ctx.trace_id,
                sink.next_id(),
                ctx.parent_span,
                "cohort.occ_validate",
                start_ns,
                partial.height,
            );
        }
        self.send(
            from,
            &Message::Vote {
                height: partial.height,
                commitment,
                involved,
            },
        );
    }

    /// Phase 4 `<null, SchResponse>` — the cohort-side checks of
    /// Lemma 5 / Scenario 2 followed by the Schnorr response.
    fn cohort_response(
        &self,
        block: &Block,
        aggregate: &cosi::Commitment,
        challenge: &fides_crypto::scalar::Scalar,
    ) -> Result<cosi::Response, Refusal> {
        // Fork guard: never co-sign a block at a height this log
        // already holds — a coordinator that restarted short (and has
        // not finished repairing) or is equivocating could otherwise
        // collect honest signatures for a second history.
        if block.height < self.state.ledger.lock().log.next_height() {
            return Err(Refusal::StaleHeight);
        }
        let involved = self.involvement(&block.txns);

        // Decision/roots consistency (§4.3.1 phase 4): a commit block
        // carries roots from *all* involved servers; an abort block has
        // at least one missing.
        let roots_present: HashSet<u32> = block.roots.iter().map(|r| r.server).collect();
        match block.decision {
            Decision::Commit => {
                if !involved.iter().all(|s| roots_present.contains(s)) {
                    return Err(Refusal::MissingRoots);
                }
            }
            Decision::Abort => {
                if !involved.is_empty() && involved.iter().all(|s| roots_present.contains(s)) {
                    return Err(Refusal::DecisionInconsistent);
                }
            }
        }

        let mut exec = self.state.exec.lock();
        // Own-root check (Scenario 2: a malicious coordinator storing an
        // incorrect root for a benign server is caught here).
        if let Some(sent) = exec.sent_roots.get(&block.height) {
            if block.decision == Decision::Commit && block.root_of(self.config.idx) != Some(*sent) {
                return Err(Refusal::RootMismatch);
            }
        }

        // Challenge recomputation (Lemma 5 Case 1: an equivocating
        // coordinator's challenge cannot correspond to both blocks).
        let expected = cosi::challenge(&aggregate.0, &block.signing_bytes());
        if expected != *challenge {
            return Err(Refusal::BadChallenge);
        }

        let witness = exec
            .witnesses
            .remove(&block.height)
            .ok_or(Refusal::BadChallenge)?;
        if self.state.behavior().corrupt_cosi_response {
            Ok(witness.respond_corrupt(challenge))
        } else {
            Ok(witness.respond(challenge))
        }
    }

    fn handle_challenge(
        &mut self,
        from: NodeId,
        block: Block,
        aggregate: cosi::Commitment,
        challenge: fides_crypto::scalar::Scalar,
        trace: Option<TraceContext>,
    ) {
        let height = block.height;
        if self.rotation_on() {
            if from.raw() != self.leader_of(height) {
                // Fork guard, rotation case: only `height % n` may
                // assemble the challenge for this height.
                self.state.telemetry.events.record(
                    Level::Warn,
                    "commit",
                    format!("refused to co-sign height {height}: WrongLeader"),
                );
                self.state
                    .ledger
                    .lock()
                    .refusals
                    .push((height, Refusal::WrongLeader));
                self.send(
                    from,
                    &Message::Response {
                        height,
                        result: Err(Refusal::WrongLeader),
                    },
                );
                return;
            }
            if height > self.frontier_height() {
                // Reordered ahead of the decision we have not applied
                // yet: park and replay after catch-up. (A height below
                // the tip falls through to the StaleHeight refusal.)
                let mut exec = self.state.exec.lock();
                if exec.gated_challenges.len() < MAX_GATED_ROUNDS {
                    exec.gated_challenges
                        .insert(height, (from, Box::new(block), aggregate, challenge));
                }
                return;
            }
        }
        let t0 = Instant::now();
        let start_ns = now_ns();
        let result = self.cohort_response(&block, &aggregate, &challenge);
        self.state
            .telemetry
            .stages
            .record(Stage::CosiAssemble, t0.elapsed().as_nanos() as u64);
        if let Some(ctx) = trace {
            let sink = &self.state.telemetry.spans;
            sink.close(
                ctx.trace_id,
                sink.next_id(),
                ctx.parent_span,
                "cohort.cosi_respond",
                start_ns,
                height,
            );
        }
        if let Err(refusal) = &result {
            self.state.telemetry.events.record(
                Level::Warn,
                "commit",
                format!("refused to co-sign height {height}: {refusal:?}"),
            );
            self.state.ledger.lock().refusals.push((height, *refusal));
        }
        self.send(from, &Message::Response { height, result });
    }

    /// Phase 5: verify the co-sign, then append and apply (§4.1 steps
    /// 6–7). Both commit and abort blocks are logged; only commit
    /// blocks update the datastore.
    ///
    /// Decisions that arrive **ahead** of this server's log tip
    /// (reordered delivery) are buffered unverified; once the gap
    /// closes, the whole consecutive run is verified with one
    /// [`cosi::verify_batch`] call in [`Server::catch_up`] instead of
    /// one full signature check per block.
    ///
    /// Takes the envelope's trace context when the decision arrived for
    /// a sampled round (buffered/replayed decisions lose it — only the
    /// direct path is attributed, which is the common case).
    fn handle_decision_traced(&mut self, block: Block, trace: Option<TraceContext>) {
        /// Upper bound on buffered future decisions (memory guard).
        const MAX_BUFFERED_DECISIONS: u64 = 1024;

        let tip = self.state.ledger.lock().log.next_height();
        // While a repair task is staging a transfer, every decision is
        // buffered — the verified install must land against a frozen
        // base, and the catch-up loop drains the buffer afterwards.
        if block.height > tip || self.repair_task.is_some() {
            let gapped = block.height > tip;
            if block.height >= tip && block.height - tip <= MAX_BUFFERED_DECISIONS {
                self.state
                    .exec
                    .lock()
                    .pending_decisions
                    .insert(block.height, block);
            }
            if gapped {
                // A gap: the decisions between our tip and this height
                // went missing (or we restarted short). Gossip our tip
                // so a peer's RepairInfo can start a transfer.
                self.maybe_query_repair();
            }
            return;
        }
        if !block
            .cosign
            .verify(&block.signing_bytes(), &self.server_pks)
        {
            // An unsigned/invalidly-signed block is never logged; the
            // anomaly surfaces at the clients and the audit.
            return;
        }
        self.apply_block_traced(block, CommitProtocol::TfCommit, trace);
        self.catch_up();
    }

    /// The catch-up loop: applies buffered decisions that have become
    /// consecutive with the log tip.
    ///
    /// The whole run is verified with a **single** batched
    /// collective-signature check; only if that fails does the loop
    /// fall back to per-block verification, applying valid blocks and
    /// stopping at the first invalid one (which cannot be linked into
    /// the chain, and whose absence will surface at the audit).
    fn catch_up(&mut self) {
        self.catch_up_decisions();
        self.drain_gated();
    }

    /// Rotation: replays `GetVote`/`Challenge` phases that were parked
    /// because they arrived ahead of the log tip, now that catch-up may
    /// have closed the gap. Entries the chain moved past are dropped.
    fn drain_gated(&mut self) {
        if !self.rotation_on() {
            return;
        }
        let tip = self.frontier_height();
        let (vote, challenge) = {
            let mut exec = self.state.exec.lock();
            exec.gated_votes.retain(|&h, _| h >= tip);
            exec.gated_challenges.retain(|&h, _| h >= tip);
            (
                exec.gated_votes.remove(&tip),
                exec.gated_challenges.remove(&tip),
            )
        };
        if let Some((from, partial)) = vote {
            self.handle_get_vote(from, partial, None);
        }
        if let Some((from, block, aggregate, scalar)) = challenge {
            self.handle_challenge(from, *block, aggregate, scalar, None);
        }
    }

    fn catch_up_decisions(&mut self) {
        if self.repair_task.is_some() {
            return; // frozen while a transfer is staging
        }
        loop {
            let run: Vec<Block> = {
                let tip = self.state.ledger.lock().log.next_height();
                let mut exec = self.state.exec.lock();
                let mut next = tip;
                let mut run = Vec::new();
                while let Some(block) = exec.pending_decisions.remove(&next) {
                    run.push(block);
                    next += 1;
                }
                // Drop stale entries at or below the tip.
                exec.pending_decisions.retain(|&h, _| h > tip);
                run
            };
            if run.is_empty() {
                return;
            }
            let records: Vec<Vec<u8>> = run.iter().map(|b| b.signing_bytes()).collect();
            let items: Vec<(&[u8], cosi::CollectiveSignature)> = records
                .iter()
                .map(Vec::as_slice)
                .zip(run.iter().map(|b| b.cosign))
                .collect();
            if cosi::verify_batch(&items, &self.server_pks) {
                for block in run {
                    self.apply_block(block, CommitProtocol::TfCommit);
                }
            } else {
                // Pinpoint the first invalid signature; the chain
                // cannot continue past it.
                let valid_prefix = items
                    .iter()
                    .position(|(record, sig)| !sig.verify(record, &self.server_pks))
                    .unwrap_or(items.len());
                let mut blocks = run.into_iter();
                for block in blocks.by_ref().take(valid_prefix) {
                    self.apply_block(block, CommitProtocol::TfCommit);
                }
                // Discard the invalid block, but re-buffer the blocks
                // behind it: a correctly signed copy of the bad height
                // may still arrive and let them apply.
                let _invalid = blocks.next();
                let mut exec = self.state.exec.lock();
                for block in blocks {
                    exec.pending_decisions.insert(block.height, block);
                }
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Cohort: 2PC baseline (§6.1).
    // ------------------------------------------------------------------

    /// This server's 2PC vote on a batch: OCC over its own shard's
    /// slice, commit when the batch does not touch it.
    fn twopc_vote(&self, partial: &PartialBlock) -> (bool, Vec<Timestamp>) {
        if !self.involvement(&partial.txns).contains(&self.config.idx) {
            return (true, Vec::new());
        }
        let stage = self.state.shard.lock();
        let shard = &stage.shard;
        let failed = occ::validate_batch_parallel(&partial.txns, |key| {
            if self.partitioner.owner(key) == self.config.idx {
                shard.read(key)
            } else {
                None
            }
        });
        (failed.is_empty(), failed)
    }

    fn handle_2pc_get_vote(&mut self, from: NodeId, partial: PartialBlock) {
        let (commit, failed) = self.twopc_vote(&partial);
        self.send(
            from,
            &Message::TwoPcVote {
                height: partial.height,
                commit,
                failed,
            },
        );
    }

    fn handle_2pc_decision(&mut self, block: Block) {
        self.apply_block(block, CommitProtocol::TwoPhaseCommit);
    }

    // ------------------------------------------------------------------
    // Repair plane: serving side (any up-to-date server is a repair
    // peer) and requesting side (the gap-detection / staging / verified
    // install state machine). See `crate::repair` for the verification
    // obligations and `docs/repair.md` for the message flow.
    // ------------------------------------------------------------------

    /// Whether the repair plane runs on this server: TFCommit only
    /// (2PC blocks are unsigned, so a transfer could not be verified)
    /// and pointless without peers.
    fn repair_enabled(&self) -> bool {
        self.config.repair
            && self.config.protocol == CommitProtocol::TfCommit
            && self.config.n_servers > 1
    }

    /// Broadcasts our tip to every peer (rate-limited): the gossip that
    /// turns a height divergence into a repair in either direction.
    fn maybe_query_repair(&mut self) {
        if !self.repair_enabled() {
            return;
        }
        if self
            .last_repair_query
            .is_some_and(|at| at.elapsed() < REPAIR_QUERY_GAP)
        {
            return;
        }
        self.broadcast_repair_query();
    }

    fn broadcast_repair_query(&mut self) {
        self.last_repair_query = Some(Instant::now());
        let next_height = self.state.ledger.lock().log.next_height();
        self.broadcast_to_servers(&Message::RepairQuery { next_height });
    }

    /// Serving side of the gossip: answer with our tip, our servable
    /// floor and any mirror we hold for the requester — and, if the
    /// *requester* is ahead of us, treat the query as our own gap
    /// detection.
    fn handle_repair_query(&mut self, from: NodeId, their_next: u64) {
        if !self.repair_enabled() || from.raw() >= self.config.n_servers {
            return;
        }
        let (next_height, tip_hash, base_height) = {
            let ledger = self.state.ledger.lock();
            (
                ledger.log.next_height(),
                ledger.log.tip_hash(),
                ledger.log.base_height(),
            )
        };
        let mirror_height = self
            .state
            .repair
            .lock()
            .mirrors
            .get(&from.raw())
            .map(|held| held.snapshot.height);
        self.send(
            from,
            &Message::RepairInfo {
                next_height,
                tip_hash,
                base_height,
                mirror_height,
            },
        );
        if their_next > next_height {
            self.begin_repair(from.raw(), their_next);
        }
    }

    fn handle_repair_info(
        &mut self,
        from: NodeId,
        next_height: u64,
        tip_hash: Digest,
        _base_height: u64,
        _mirror_height: Option<u64>,
    ) {
        if !self.repair_enabled() || from.raw() >= self.config.n_servers {
            return;
        }
        let (mine_next, mine_tip) = {
            let ledger = self.state.ledger.lock();
            (ledger.log.next_height(), ledger.log.tip_hash())
        };
        if next_height > mine_next {
            self.begin_repair(from.raw(), next_height);
            return;
        }
        if next_height == mine_next && tip_hash == mine_tip && self.repair_task.is_none() {
            // A peer at our exact tip: a provisionally adopted
            // checkpoint (snapshot recovered ahead of a torn WAL) is
            // now confirmed against the live chain.
            let mut repair = self.state.repair.lock();
            if repair.repairing {
                repair.repairing = false;
                repair.since = None;
            }
        }
    }

    /// Serving side of a block fetch. Ranges below the in-memory log's
    /// base are retried against the durability archive (pruned segments
    /// parked by [`fides_durability::SegmentArchive`], read through the
    /// writer thread that owns the log); a range gone from both is
    /// answered empty with our floor, steering the requester toward
    /// checkpoint transfer.
    fn handle_repair_request(&mut self, from: NodeId, wanted: u64, max: u32) {
        if !self.repair_enabled() || from.raw() >= self.config.n_servers {
            return;
        }
        let max = max.min(REPAIR_CHUNK) as usize;
        let (mut blocks, mut base_height, next_height) = {
            let ledger = self.state.ledger.lock();
            (
                ledger.log.blocks_from(wanted, max),
                ledger.log.base_height(),
                ledger.log.next_height(),
            )
        };
        if blocks.is_empty() && wanted < base_height {
            // The in-memory log is a suffix; pruned history may still be
            // readable from the archive directory.
            let archived = self
                .state
                .durability
                .lock()
                .as_ref()
                .and_then(CommitPipeline::read_archived)
                .unwrap_or_default();
            if let Some(first) = archived.first().map(|b| b.height) {
                base_height = base_height.min(first);
                let skip = wanted.saturating_sub(first) as usize;
                blocks = archived.into_iter().skip(skip).take(max).collect();
            }
        }
        if self.state.behavior().tamper_repair_blocks {
            if let Some(block) = blocks.first_mut() {
                block.decision = match block.decision {
                    Decision::Commit => Decision::Abort,
                    Decision::Abort => Decision::Commit,
                };
            }
        }
        self.send(
            from,
            &Message::RepairBlocks {
                from: wanted,
                blocks,
                base_height,
                next_height,
            },
        );
    }

    /// Serving side of checkpoint transfer: hand back the requester's
    /// own mirrored shard image, if we hold one.
    fn handle_repair_checkpoint_request(&mut self, from: NodeId) {
        if !self.repair_enabled() || from.raw() >= self.config.n_servers {
            return;
        }
        let mut snapshot = self
            .state
            .repair
            .lock()
            .mirrors
            .get(&from.raw())
            .map(|held| Arc::clone(&held.snapshot));
        if self.state.behavior().tamper_repair_checkpoint {
            if let Some(snap) = &mut snapshot {
                // The forgery edits a private copy; the held image (and
                // the reads served from it) stay genuine.
                if let Some(item) = Arc::make_mut(snap).checkpoint.items.first_mut() {
                    if let Some(version) = item.versions.last_mut() {
                        version.1 = fides_store::types::Value::from_i64(i64::MAX);
                    }
                }
            }
        }
        self.send(from, &Message::RepairCheckpoint { snapshot });
    }

    /// Stores (and persists) a peer's checkpoint mirror. The mirror is
    /// only provisional custody — a repairer adopting it re-verifies it
    /// against the co-signed chain — but refusing internally
    /// inconsistent images early keeps garbage off the disk. A whole
    /// image is restored once, on receipt, and the restored shard
    /// serves its reads; a delta brings image and shard forward in
    /// place. Either way the full new image is persisted.
    fn handle_checkpoint_mirror(&mut self, from: NodeId, image: MirrorImage) {
        let origin = from.raw();
        if !self.config.mirror_checkpoints
            || !self.repair_enabled()
            || origin >= self.config.n_servers
            || origin == self.config.idx
        {
            return;
        }
        let accepted = match image {
            MirrorImage::Full(snapshot) => self.install_mirror(origin, snapshot),
            MirrorImage::Delta(delta) => self.apply_mirror_delta(origin, &delta),
        };
        if let Some(snapshot) = accepted {
            if let Some(pipeline) = self.state.durability.lock().as_ref() {
                pipeline.submit_mirror(origin, snapshot);
            }
        }
    }

    /// Installs a whole mirror image newer than the held one. An image
    /// no newer is dropped before any work; an accepted one is restored
    /// (and root-checked) exactly once, here.
    fn install_mirror(
        &mut self,
        origin: u32,
        snapshot: Arc<ShardSnapshot>,
    ) -> Option<Arc<ShardSnapshot>> {
        self.resyncs.remove(&origin);
        let newer = self
            .state
            .repair
            .lock()
            .mirrors
            .get(&origin)
            .is_none_or(|held| snapshot.height > held.snapshot.height);
        if !newer {
            return None;
        }
        let reads = self.restore_mirror(&snapshot)?;
        // One entry swap: reads in flight keep the superseded entry's
        // Arc — exactly one co-signed root each.
        self.state.repair.lock().mirrors.insert(
            origin,
            MirrorEntry {
                snapshot: Arc::clone(&snapshot),
                reads: Some(reads),
            },
        );
        Some(snapshot)
    }

    /// Applies `origin`'s mirror delta when the held mirror is exactly
    /// its base. A delta with no held base, or one that fails its
    /// checks, changes nothing: the holder asks the origin for its whole
    /// image instead ([`Message::MirrorResync`]).
    fn apply_mirror_delta(
        &mut self,
        origin: u32,
        delta: &SnapshotDelta,
    ) -> Option<Arc<ShardSnapshot>> {
        let applied = {
            let mut repair = self.state.repair.lock();
            match repair.mirrors.get_mut(&origin) {
                // Already past it (a whole image overtook the delta).
                Some(held) if held.snapshot.height >= delta.height => return None,
                Some(held) if held.snapshot.height == delta.base_height => {
                    self.apply_delta_to(held, delta)
                }
                _ => Err(DeltaError::BaseMismatch),
            }
        };
        match applied {
            Ok(snapshot) => {
                self.state.telemetry.mirror_deltas.inc();
                Some(snapshot)
            }
            Err(err) => {
                self.state.telemetry.events.record(
                    Level::Warn,
                    "repair",
                    format!(
                        "mirror delta {}→{} from server {origin} refused: {err}",
                        delta.base_height, delta.height
                    ),
                );
                self.request_mirror_resync(origin);
                None
            }
        }
    }

    /// Brings `held` forward by `delta`: the serving shard first — it
    /// checks the delta's shape and claimed root before changing
    /// anything — then the image. `Arc::make_mut` copies either only
    /// while something else (the WAL writer) still holds it. The
    /// co-signed anchor is looked up afresh on the next read.
    fn apply_delta_to(
        &self,
        held: &mut MirrorEntry,
        delta: &SnapshotDelta,
    ) -> Result<Arc<ShardSnapshot>, DeltaError> {
        let reads = match held.reads.take() {
            Some(reads) => reads,
            // Reloaded at restart and not read since.
            None => self
                .restore_mirror(&held.snapshot)
                .ok_or(DeltaError::RootMismatch)?,
        };
        let state = Arc::make_mut(held.reads.insert(reads));
        state.shard.apply_delta(&delta.checkpoint, &delta.root)?;
        state.covered = delta.height;
        state.anchor = std::sync::OnceLock::new();
        if let Err(err) = Arc::make_mut(&mut held.snapshot).apply_delta(delta) {
            // The image disagrees with the shard restored from it: serve
            // nothing from the shard, restore the unchanged image later.
            held.reads = None;
            return Err(err);
        }
        debug_assert!(
            held.snapshot.restore_verified().is_ok_and(|full| {
                held.reads.as_ref().is_some_and(|reads| {
                    full.root() == reads.shard.root()
                        && full.checkpoint() == reads.shard.checkpoint()
                })
            }),
            "an applied mirror delta matches a full restore of its image"
        );
        Ok(Arc::clone(&held.snapshot))
    }

    /// Asks `origin` for its whole mirror image, at most once per
    /// [`MIRROR_RESYNC_GAP`] while the answer is outstanding.
    fn request_mirror_resync(&mut self, origin: u32) {
        let now = Instant::now();
        if self
            .resyncs
            .get(&origin)
            .is_some_and(|asked| now.duration_since(*asked) < MIRROR_RESYNC_GAP)
        {
            return;
        }
        self.resyncs.insert(origin, now);
        self.state.telemetry.mirror_resyncs.inc();
        self.send(server_node(origin), &Message::MirrorResync);
    }

    /// Origin side of a resync: the asking holder gets the whole image
    /// last mirrored, the base of the next delta.
    fn handle_mirror_resync(&mut self, from: NodeId) {
        if !self.config.mirror_checkpoints
            || !self.repair_enabled()
            || from.raw() >= self.config.n_servers
        {
            return;
        }
        if let Some(snapshot) = &self.last_mirror {
            let image = MirrorImage::Full(Arc::clone(snapshot));
            self.send(from, &Message::CheckpointMirror { image });
        }
    }

    /// Mirrors a fresh checkpoint to every peer: as a delta against the
    /// image mirrored last when there is one, whole otherwise.
    fn mirror_checkpoint(&mut self, snapshot: &Arc<ShardSnapshot>) {
        let delta = self
            .last_mirror
            .as_ref()
            .and_then(|prev| prev.diff(snapshot));
        let image = match delta {
            Some(mut delta) => {
                if self.state.behavior().forge_mirror_delta {
                    // Fault: one altered value under the honest root.
                    let forged = delta
                        .checkpoint
                        .items
                        .iter_mut()
                        .find_map(|item| item.versions.last_mut());
                    if let Some((_, value)) = forged {
                        *value = Value::from_i64(i64::MAX);
                    }
                }
                MirrorImage::Delta(Box::new(delta))
            }
            None => MirrorImage::Full(Arc::clone(snapshot)),
        };
        self.broadcast_to_servers(&Message::CheckpointMirror { image });
        self.last_mirror = Some(Arc::clone(snapshot));
    }

    /// Quorum-durable acks: a cohort reported its copy of `height`
    /// fsync-durable.
    fn handle_durable(&mut self, from: NodeId, height: u64) {
        if from.raw() >= self.config.n_servers {
            return;
        }
        if let Some(quorum) = &self.quorum {
            quorum.record(height, from.raw());
        }
    }

    // ------------------------------------------------------------------
    // Verified read plane: proof-carrying snapshot reads served from
    // the live shard (owner) or from a verified checkpoint mirror of a
    // peer's shard (any holder) — read-only traffic never enters a
    // commit round. See `docs/reads.md`.
    // ------------------------------------------------------------------

    /// Coarse estimate of the remaining repair time, shipped in
    /// `ReadRefusal::Repairing` so clients retarget instead of burning
    /// their op-timeout against this server.
    fn repair_eta_ms(&self) -> u32 {
        match &self.repair_task {
            Some(task) => {
                let staged = task.base_height + task.staged.len() as u64;
                let remaining = task.target.saturating_sub(staged);
                // ~1 ms/block transfer+verify, floored at one gossip gap.
                (remaining.saturating_mul(1).clamp(100, 5_000)) as u32
            }
            None => 100,
        }
    }

    fn refuse_read(&self, to: NodeId, req: u64, reason: crate::messages::ReadRefusal) {
        self.state.telemetry.read_refusals.inc();
        self.state.telemetry.events.record(
            Level::Debug,
            "read",
            format!("refused snapshot read {req}: {reason:?}"),
        );
        self.send(to, &Message::SnapshotReadRefused { req, reason });
    }

    /// Serves a proof-carrying snapshot read: from the live shard when
    /// this server owns it, from a cached verified mirror otherwise.
    fn handle_snapshot_read(
        &mut self,
        from: NodeId,
        req: u64,
        shard_idx: u32,
        keys: Vec<Key>,
        min_covered: u64,
        at_height: Option<u64>,
    ) {
        use crate::messages::ReadRefusal;
        if self.config.protocol != CommitProtocol::TfCommit {
            // The 2PC baseline co-signs nothing and keeps no Merkle
            // tree: no proof a client could verify exists. Refusing is
            // the honest answer (serving would only earn an honest
            // server false TamperedRead evidence).
            self.refuse_read(from, req, ReadRefusal::NoSnapshot);
            return;
        }
        if self.state.is_repairing() {
            // A repairing shard cannot anchor trustworthy reads, and a
            // mirror held here may be what the repair itself is about.
            let eta_hint_ms = self.repair_eta_ms();
            self.refuse_read(from, req, ReadRefusal::Repairing { eta_hint_ms });
            return;
        }
        let ignore_bounds = self.state.behavior().ignore_read_bounds;
        let (root_height, covered, header, proof) = if shard_idx == self.config.idx {
            // Owner path: one shard-stage lock covers proof generation
            // and the anchor — a consistent (state, root) pair even
            // while the commit pipeline is mid-flight.
            let stage = self.state.shard.lock();
            let Some((root_height, header)) = stage.last_root.anchor() else {
                // Checkpoint bootstrap with no root-bearing block yet.
                self.refuse_read(from, req, ReadRefusal::TooStale { best_covered: 0 });
                return;
            };
            let covered = stage.applied_height;
            if covered < min_covered && !ignore_bounds {
                self.refuse_read(
                    from,
                    req,
                    ReadRefusal::TooStale {
                        best_covered: covered,
                    },
                );
                return;
            }
            if at_height.is_some_and(|h| root_height > h || h > covered) && !ignore_bounds {
                // The live state is not the state at `h` (a root landed
                // after it, or `h` is in the future).
                self.refuse_read(
                    from,
                    req,
                    ReadRefusal::TooStale {
                        best_covered: covered,
                    },
                );
                return;
            }
            let proof = stage.shard.prove_read(&keys);
            (root_height, covered, header, proof)
        } else {
            // Mirror path: serve a *peer's* shard from its verified
            // checkpoint mirror. The whole response derives from one
            // `Arc<MirrorReadState>` — a mirror superseded mid-read
            // cannot produce a torn (state, root) mix.
            let Some((mirror, (root_height, header))) = self.mirror_read_state(shard_idx) else {
                self.refuse_read(from, req, ReadRefusal::NoSnapshot);
                return;
            };
            if mirror.covered < min_covered && !ignore_bounds {
                self.refuse_read(
                    from,
                    req,
                    ReadRefusal::TooStale {
                        best_covered: mirror.covered,
                    },
                );
                return;
            }
            if at_height.is_some_and(|h| root_height > h || h > mirror.covered) && !ignore_bounds {
                self.refuse_read(
                    from,
                    req,
                    ReadRefusal::TooStale {
                        best_covered: mirror.covered,
                    },
                );
                return;
            }
            let proof = mirror.shard.prove_read(&keys);
            (root_height, mirror.covered, header, proof)
        };

        // Byzantine switches: forge values/absences inside the response
        // (the genuine proofs then refute the forgery client-side).
        let mut proof = proof;
        let behavior = self.state.behavior();
        if !behavior.forge_read_values.is_empty() || !behavior.forge_read_absence.is_empty() {
            for (key, entry) in keys.iter().zip(proof.entries.iter_mut()) {
                if behavior.forge_read_values.contains(key) {
                    if let fides_store::ReadEntryProof::Present { value, .. } = entry {
                        *value = Value::from_i64(i64::MAX);
                    }
                }
                if behavior.forge_read_absence.contains(key) {
                    *entry = fides_store::ReadEntryProof::Absent(fides_store::AbsenceProof {
                        pred: None,
                        succ: fides_store::AbsenceSuccessor::Empty,
                    });
                }
            }
        }

        if shard_idx == self.config.idx {
            self.state.telemetry.reads_owner.inc();
        } else {
            self.state.telemetry.reads_mirror.inc();
        }
        self.send(
            from,
            &Message::SnapshotReadResp {
                req,
                shard: shard_idx,
                root_height,
                covered_height: covered,
                header: header.map(Box::new),
                proof: Box::new(proof),
            },
        );
    }

    /// Restores a mirror image (counted in `repair.mirror_restores`)
    /// into its read-serving state; `None` when the image does not
    /// reproduce its recorded root.
    fn restore_mirror(&self, snapshot: &ShardSnapshot) -> Option<Arc<MirrorReadState>> {
        self.state.telemetry.mirror_restores.inc();
        let shard = snapshot.restore_verified().ok()?;
        Some(Arc::new(MirrorReadState {
            covered: snapshot.height,
            shard,
            anchor: std::sync::OnceLock::new(),
        }))
    }

    /// The read-serving state for `origin`'s mirror plus its co-signed
    /// anchor. Never touches the image: only a mirror reloaded at
    /// restart is restored here, on its first read.
    fn mirror_read_state(&self, origin: u32) -> Option<(Arc<MirrorReadState>, MirrorAnchor)> {
        let state = {
            let mut repair = self.state.repair.lock();
            let held = repair.mirrors.get_mut(&origin)?;
            match &held.reads {
                Some(state) => Arc::clone(state),
                None => {
                    let Some(state) = self.restore_mirror(&held.snapshot) else {
                        // Corrupt on disk: neither readable nor worth
                        // handing back to its origin.
                        repair.mirrors.remove(&origin);
                        return None;
                    };
                    held.reads = Some(Arc::clone(&state));
                    state
                }
            }
        };
        let anchor = match state.anchor.get() {
            Some(anchor) => anchor.clone(),
            None => {
                let anchor = self.mirror_anchor(origin, state.covered)?;
                // The restored mirror must match its anchor — a forged
                // but internally consistent mirror is refused here
                // rather than served.
                if let Some(header) = &anchor.1 {
                    if header.root_of(origin) != Some(state.shard.root()) {
                        return None;
                    }
                }
                state.anchor.get_or_init(|| anchor).clone()
            }
        };
        Some((state, anchor))
    }

    /// The co-signed root anchoring `origin`'s mirror at height
    /// `covered`: the newest commit block below it carrying the
    /// origin's root, as `(applied root height, header)`, or genesis.
    /// `None` while that block has not been applied here yet, or when
    /// its history is pruned here.
    fn mirror_anchor(&self, origin: u32, covered: u64) -> Option<MirrorAnchor> {
        let ledger = self.state.ledger.lock();
        let base = ledger.log.base_height();
        let mut h = covered;
        while h > base {
            h -= 1;
            let block = ledger.log.get(h)?;
            if block.decision == Decision::Commit && block.root_of(origin).is_some() {
                return Some((h + 1, Some(block.header())));
            }
        }
        (base == 0).then_some((0, None))
    }

    /// Serves recent co-signed headers (the pull half of the root
    /// announcement): walking down from the tip, every header that
    /// contributes a shard's newest commit root, until all shards are
    /// covered, the scan cap is hit, or `from` is passed.
    fn handle_root_query(&mut self, from: NodeId, from_height: u64) {
        const MAX_SCAN: usize = 256;
        const MAX_HEADERS: usize = 32;
        if self.config.protocol != CommitProtocol::TfCommit {
            // Unsigned (2PC) blocks yield no verifiable headers.
            self.send(
                from,
                &Message::RootAnnounce {
                    headers: Vec::new(),
                },
            );
            return;
        }
        let headers = {
            let ledger = self.state.ledger.lock();
            let tip = ledger.log.next_height();
            let base = ledger.log.base_height();
            let mut headers: Vec<BlockHeader> = Vec::new();
            let mut covered: HashSet<u32> = HashSet::new();
            let mut scanned = 0usize;
            let mut h = tip;
            while h > base && scanned < MAX_SCAN && headers.len() < MAX_HEADERS {
                h -= 1;
                scanned += 1;
                let Some(block) = ledger.log.get(h) else {
                    break;
                };
                let contributes = block.decision == Decision::Commit
                    && block.roots.iter().any(|r| !covered.contains(&r.server));
                // The tip header always ships (freshness evidence).
                if headers.is_empty() || contributes {
                    if block.decision == Decision::Commit {
                        covered.extend(block.roots.iter().map(|r| r.server));
                    }
                    headers.push(block.header());
                }
                if covered.len() >= self.config.n_servers as usize && h <= from_height {
                    break;
                }
            }
            headers
        };
        self.send(from, &Message::RootAnnounce { headers });
    }

    // ---- Requesting side ------------------------------------------------

    /// Starts a repair toward `target` served by `peer`, unless one is
    /// already running or we are not actually behind.
    fn begin_repair(&mut self, peer: u32, target: u64) {
        if !self.repair_enabled() || self.repair_task.is_some() || peer == self.config.idx {
            return;
        }
        let (tip, tip_hash) = {
            let ledger = self.state.ledger.lock();
            (ledger.log.next_height(), ledger.log.tip_hash())
        };
        if target <= tip {
            return;
        }
        {
            let mut repair = self.state.repair.lock();
            if !repair.repairing {
                repair.repairing = true;
                repair.since = Some(Instant::now());
            }
        }
        let mut excluded = HashSet::new();
        excluded.insert(self.config.idx);
        self.state.telemetry.repair_started.inc();
        self.state.telemetry.events.record(
            Level::Info,
            "repair",
            format!("gap detected: tip {tip}, target {target}, serving peer {peer}"),
        );
        self.repair_task = Some(RepairTask {
            peer,
            base_height: tip,
            base_tip: tip_hash,
            checkpoint: None,
            checkpoint_shard: None,
            staged: Vec::new(),
            target,
            excluded,
            asked_checkpoint: false,
            last_activity: Instant::now(),
            started: Instant::now(),
        });
        self.send_repair_request();
    }

    fn send_repair_request(&mut self) {
        let Some(task) = &mut self.repair_task else {
            return;
        };
        let from = task.base_height + task.staged.len() as u64;
        let peer = server_node(task.peer);
        task.last_activity = Instant::now();
        self.send(
            peer,
            &Message::RepairRequest {
                from,
                max: REPAIR_CHUNK,
            },
        );
    }

    /// Requesting side: stage a served chunk, fall back to checkpoint
    /// transfer when the peer pruned the range, finalize when the
    /// target is reached.
    fn handle_repair_blocks(
        &mut self,
        from: NodeId,
        served_from: u64,
        blocks: Vec<Block>,
        peer_base: u64,
        peer_next: u64,
    ) {
        let Some(task) = &mut self.repair_task else {
            return;
        };
        if from.raw() != task.peer {
            return;
        }
        task.last_activity = Instant::now();
        let expected = task.base_height + task.staged.len() as u64;
        if served_from != expected {
            return; // stale response from an earlier staging position
        }
        task.target = task.target.max(peer_next);
        if blocks.is_empty() {
            if expected < peer_base {
                // The peer pruned this range: its own WAL floor is above
                // what we need. Fall back to a checkpoint of our shard.
                if task.checkpoint.is_none() && !task.asked_checkpoint {
                    task.asked_checkpoint = true;
                    let peer = server_node(task.peer);
                    self.send(peer, &Message::RepairCheckpointRequest);
                    return;
                }
                self.retarget_repair(true);
                return;
            }
            if expected >= task.target {
                self.finalize_repair();
            } else {
                // The peer claims a tip it cannot serve toward: move on.
                self.retarget_repair(true);
            }
            return;
        }
        // Cheap structural gate (full verification happens at install):
        // the chunk must be consecutive from the requested height.
        if blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.height != expected + i as u64)
        {
            self.retarget_repair(true);
            return;
        }
        self.state.telemetry.repair_blocks.add(blocks.len() as u64);
        task.staged.extend(blocks);
        if task.base_height + task.staged.len() as u64 >= task.target {
            self.finalize_repair();
        } else {
            self.send_repair_request();
        }
    }

    /// Requesting side of checkpoint transfer: verify the mirrored
    /// image internally, then restage the fetch from its height — the
    /// chain anchoring at install refutes a forged `tip_hash`. The
    /// shard the check restores is kept as the install's replay base.
    fn handle_repair_checkpoint(&mut self, from: NodeId, snapshot: Option<Arc<ShardSnapshot>>) {
        let Some(task) = &mut self.repair_task else {
            return;
        };
        if from.raw() != task.peer || !task.asked_checkpoint {
            return;
        }
        task.last_activity = Instant::now();
        let Some(snapshot) = snapshot else {
            // An honest "I hold no mirror for you" — not evidence.
            self.retarget_repair(true);
            return;
        };
        let Ok(shard) = snapshot.restore_verified() else {
            let peer = task.peer;
            self.record_repair_evidence(peer, RepairFault::BadCheckpoint);
            self.retarget_repair(true);
            return;
        };
        if snapshot.height <= task.base_height {
            // Older than what we already hold: useless here.
            self.retarget_repair(true);
            return;
        }
        task.target = task.target.max(snapshot.height);
        task.base_height = snapshot.height;
        task.base_tip = snapshot.tip_hash;
        task.checkpoint = Some(snapshot);
        task.checkpoint_shard = Some(shard);
        task.staged.clear();
        if task.base_height >= task.target {
            self.finalize_repair();
        } else {
            self.send_repair_request();
        }
    }

    /// Verifies the complete staged transfer and installs it, or
    /// records evidence against the serving peer and retries elsewhere.
    fn finalize_repair(&mut self) {
        let Some(mut task) = self.repair_task.take() else {
            return;
        };
        let (base_shard, base_last_committed) =
            match (&task.checkpoint, task.checkpoint_shard.take()) {
                (Some(snap), Some(shard)) => (shard, snap.last_committed),
                _ => {
                    let stage = self.state.shard.lock();
                    (stage.shard.clone(), stage.last_committed)
                }
            };
        match verify_transfer(
            self.config.idx,
            &self.partitioner,
            &self.server_pks,
            self.config.protocol,
            crate::repair::TransferBase {
                height: task.base_height,
                tip: task.base_tip,
                shard: base_shard,
                last_committed: base_last_committed,
            },
            &task.staged,
        ) {
            Err(fault) => {
                // Attribution discipline: a base mismatch on an
                // *extension* transfer means our own (provisionally
                // adopted) anchor is wrong — the peer served genuinely
                // co-signed blocks and must not be accused. On a
                // checkpoint transfer the same fault proves the
                // checkpoint the peer served carries a forged tip hash.
                match fault {
                    RepairFault::BaseMismatch { .. } if task.checkpoint.is_none() => {}
                    RepairFault::BaseMismatch { .. } => {
                        self.record_repair_evidence(task.peer, RepairFault::BadCheckpoint);
                    }
                    fault => self.record_repair_evidence(task.peer, fault),
                }
                let mut excluded = task.excluded;
                excluded.insert(task.peer);
                self.restart_repair_task(excluded, task.target, task.started);
            }
            Ok(verified) => {
                // A checkpoint installed with no co-signed suffix on top
                // carries an unconfirmed tip hash: stay provisional
                // (repairing) until a peer at the same height confirms
                // it — see `handle_repair_info`.
                let provisional = task.checkpoint.is_some() && task.staged.is_empty();
                let install_start = Instant::now();
                self.install_transfer(&task, verified.shard, verified.last_committed);
                self.state
                    .telemetry
                    .repair_install_ns
                    .record_duration(install_start.elapsed());
                {
                    let mut repair = self.state.repair.lock();
                    repair.repairing = provisional;
                    repair.since = provisional.then(Instant::now);
                    repair.completions += 1;
                }
                self.state.telemetry.repair_completed.inc();
                self.state
                    .telemetry
                    .repair_duration_ns
                    .record_duration(task.started.elapsed());
                self.state.telemetry.events.record(
                    Level::Info,
                    "repair",
                    format!(
                        "installed verified transfer from peer {}: {} blocks to height {}{}",
                        task.peer,
                        task.staged.len(),
                        task.base_height + task.staged.len() as u64,
                        if provisional { " (provisional)" } else { "" },
                    ),
                );
                // Buffered live decisions apply now that the base moved.
                self.catch_up();
                // The chain may have advanced while we staged: re-gossip
                // so a remaining gap starts a fresh (short) repair.
                self.broadcast_repair_query();
            }
        }
    }

    /// Installs a verified transfer into the staged server state, one
    /// stage lock at a time (same order as the live apply path). For a
    /// checkpoint bootstrap the ledger becomes a suffix log, the WAL is
    /// reset to restart at the checkpoint height (which is persisted
    /// first), and the shard is replaced wholesale.
    fn install_transfer(
        &mut self,
        task: &RepairTask,
        shard: AuthenticatedShard,
        last_committed: Timestamp,
    ) {
        let new_tip = task.base_height + task.staged.len() as u64;
        // Stage 1 — ledger.
        {
            let mut ledger = self.state.ledger.lock();
            if task.checkpoint.is_some() {
                ledger.log = TamperProofLog::from_suffix(
                    task.base_height,
                    task.base_tip,
                    task.staged.clone(),
                )
                .expect("verified transfer chains");
            } else {
                for block in task.staged.iter().cloned() {
                    ledger
                        .log
                        .append(block)
                        .expect("verified transfer extends the log");
                }
            }
        }
        // Stage 2 — exec: round state below the new tip is stale; the
        // buffered decisions at or above it feed the catch-up loop.
        {
            let mut exec = self.state.exec.lock();
            exec.witnesses.retain(|h, _| *h >= new_tip);
            exec.sent_roots.retain(|h, _| *h >= new_tip);
            exec.pending_decisions.retain(|h, _| *h >= new_tip);
        }
        // Stage 3 — durability: checkpoint first (it vouches for the
        // discarded prefix), then the WAL restarts at its height and the
        // transferred blocks follow. With quorum acks on, a repaired
        // cohort also reports the transferred heights durable — the
        // coordinator may still be withholding outcomes for them.
        // Under rotation the repairer is a cohort for every height it
        // did not lead.
        {
            let durability = self.state.durability.lock();
            if let Some(pipeline) = durability.as_ref() {
                if let Some(snap) = &task.checkpoint {
                    pipeline.reset_to(Arc::clone(snap));
                }
                for block in &task.staged {
                    pipeline.submit_block(block);
                }
            }
            if self.config.quorum_acks {
                for block in &task.staged {
                    if self.leader_of(block.height) != self.config.idx {
                        self.report_durable(durability.as_ref(), block.height);
                    }
                }
            }
        }
        // Stage 4 — shard: swap in the verified replay and publish the
        // watermark. The read anchor is re-derived from the installed
        // log (the staged run may or may not carry this shard's root).
        {
            let (last_root, watermarks) = {
                let ledger = self.state.ledger.lock();
                (
                    RootProvenance::from_log(&ledger.log, self.config.idx),
                    watermarks_from_log(&ledger.log),
                )
            };
            let mut stage = self.state.shard.lock();
            stage.shard = shard;
            stage.last_committed = last_committed;
            stage.applied_height = new_tip;
            stage.last_root = last_root;
            stage.write_watermarks = watermarks;
        }
    }

    /// Retries the current repair with the next untried peer (dropping
    /// the staged transfer); with every peer tried, the task is
    /// abandoned and the rate-limited gossip loop starts over.
    fn retarget_repair(&mut self, exclude_current: bool) {
        let Some(task) = self.repair_task.take() else {
            return;
        };
        let mut excluded = task.excluded;
        if exclude_current {
            excluded.insert(task.peer);
        }
        self.restart_repair_task(excluded, task.target, task.started);
    }

    fn restart_repair_task(&mut self, excluded: HashSet<u32>, target: u64, started: Instant) {
        let (tip, tip_hash) = {
            let ledger = self.state.ledger.lock();
            (ledger.log.next_height(), ledger.log.tip_hash())
        };
        if target <= tip {
            // Caught up through other means; nothing left to repair.
            let mut repair = self.state.repair.lock();
            repair.repairing = false;
            repair.since = None;
            return;
        }
        let Some(peer) =
            (0..self.config.n_servers).find(|s| *s != self.config.idx && !excluded.contains(s))
        else {
            // Every peer tried and failed: leave the repairing flag up
            // (the audit grace clock keeps ticking) and let the gossip
            // loop retry from scratch.
            self.repair_task = None;
            return;
        };
        self.state.telemetry.repair_retargets.inc();
        self.state.telemetry.events.record(
            Level::Info,
            "repair",
            format!("retargeting repair to peer {peer} (target {target})"),
        );
        self.repair_task = Some(RepairTask {
            peer,
            base_height: tip,
            base_tip: tip_hash,
            checkpoint: None,
            checkpoint_shard: None,
            staged: Vec::new(),
            target,
            excluded,
            asked_checkpoint: false,
            last_activity: Instant::now(),
            started,
        });
        self.send_repair_request();
    }

    /// Periodic repair upkeep from the message loop: drop an
    /// unresponsive serving peer, and keep gossiping while lagging with
    /// no active task.
    fn drive_repair(&mut self) {
        if !self.repair_enabled() {
            return;
        }
        if let Some(task) = &self.repair_task {
            if task.last_activity.elapsed() > self.config.round_timeout {
                self.retarget_repair(true);
            }
        } else if self.state.is_repairing() {
            self.maybe_query_repair();
        }
    }

    fn record_repair_evidence(&self, peer: u32, fault: RepairFault) {
        /// Hard cap: a retry loop against persistent Byzantine peers
        /// must not grow evidence without bound.
        const MAX_EVIDENCE: usize = 512;
        let evidence = RepairEvidence { peer, fault };
        let mut repair = self.state.repair.lock();
        // A stuck retry loop against the same Byzantine peer would
        // otherwise record the identical refutation every cycle.
        if repair.evidence.len() < MAX_EVIDENCE && repair.evidence.last() != Some(&evidence) {
            self.state.telemetry.events.record(
                Level::Warn,
                "repair",
                format!("refuted transfer from peer {peer}: {:?}", evidence.fault),
            );
            repair.evidence.push(evidence);
        }
    }

    // ------------------------------------------------------------------
    // Applying a terminated block.
    // ------------------------------------------------------------------

    /// The staged apply path. Each stage takes exactly one lock and
    /// releases it before the next — the expensive steps (fsync,
    /// snapshot save, WAL pruning) run on the pipeline's writer thread,
    /// off this server's message loop entirely:
    ///
    /// 1. **ledger** — dedupe + hash-chain append;
    /// 2. **exec** — drop the round's witness state;
    /// 3. **durability** — a pipeline submit (fsync later, acks
    ///    deferred);
    /// 4. **shard** — apply committed writes with pool-parallel Merkle
    ///    updates, then publish `applied_height`;
    /// 5. **checkpoint** — capture a snapshot every `snapshot_interval`
    ///    blocks; the pipeline saves it only after the covering fsync.
    fn apply_block(&mut self, block: Block, protocol: CommitProtocol) {
        self.apply_block_traced(block, protocol, None);
    }

    /// [`Server::apply_block`] attributing the durability hand-off and
    /// the Merkle/apply segment to a sampled transaction's trace. The
    /// fsync itself is recorded by the WAL writer thread
    /// (`wal.fsync`, submit → covering fsync), so the queue wait is
    /// visible; the `commit.stage.merkle_update` span covers the rest
    /// of the apply.
    fn apply_block_traced(
        &mut self,
        block: Block,
        protocol: CommitProtocol,
        trace: Option<TraceContext>,
    ) {
        let apply_start = Instant::now();
        let apply_start_ns = now_ns();
        let durability_ns;
        let decision = block.decision;
        let max_ts = block.max_txn_ts();
        let height = block.height;
        let behavior = self.state.behavior();
        // A commit block carrying this shard's root becomes the read
        // plane's new trust anchor (abort blocks carry *speculative*
        // roots that were never applied — they must not move it).
        let read_anchor = (protocol == CommitProtocol::TfCommit
            && decision == Decision::Commit
            && block.root_of(self.config.idx).is_some())
        .then(|| Box::new(block.header()));

        // Stage 1 — ledger.
        let tip_hash = {
            let mut ledger = self.state.ledger.lock();
            if ledger.log.get(height).is_some() {
                return; // duplicate decision (e.g. coordinator's copy)
            }
            if ledger.log.append(block.clone()).is_err() {
                return; // does not extend our log; ignore
            }
            ledger.log.tip_hash()
        };

        // Stage 2 — exec cleanup.
        {
            let mut exec = self.state.exec.lock();
            exec.witnesses.remove(&height);
            exec.sent_roots.remove(&height);
            self.state
                .telemetry
                .inflight_rounds
                .set(exec.witnesses.len() as i64);
        }

        // Stage 3 — durability: hand the block to the writer thread.
        // The shard may move before the block is fsynced — sound
        // because recovery rebuilds purely from the WAL, snapshots are
        // saved only after the covering fsync, and clients are acked
        // only after it (ordered acks).
        {
            let durability_start = Instant::now();
            let durability = self.state.durability.lock();
            if let Some(pipeline) = durability.as_ref() {
                pipeline.submit_block_traced(&block, trace);
            }
            if self.config.quorum_acks && self.leader_of(height) != self.config.idx {
                self.report_durable(durability.as_ref(), height);
            }
            drop(durability);
            durability_ns = durability_start.elapsed().as_nanos() as u64;
        }

        // Stage 4 — shard.
        {
            let mut stage = self.state.shard.lock();
            if decision == Decision::Commit {
                for txn in &block.txns {
                    let reads: Vec<Key> = txn
                        .read_set
                        .iter()
                        .filter(|r| self.partitioner.owner(&r.key) == self.config.idx)
                        .map(|r| r.key.clone())
                        .collect();
                    let mut writes: Vec<(Key, Value)> = txn
                        .write_set
                        .iter()
                        .filter(|w| self.partitioner.owner(&w.key) == self.config.idx)
                        .map(|w| (w.key.clone(), w.new_value.clone()))
                        .collect();
                    // Fault: silently skip configured writes (§5
                    // Scenario 3).
                    if !behavior.skip_write_keys.is_empty() {
                        writes.retain(|(k, _)| !behavior.skip_write_keys.contains(k));
                    }
                    match protocol {
                        CommitProtocol::TfCommit => {
                            stage.shard.apply_commit(txn.id, &reads, &writes);
                        }
                        CommitProtocol::TwoPhaseCommit => {
                            stage.shard.apply_commit_store_only(txn.id, &reads, &writes);
                        }
                    }
                    // Batch-former doom filter: track the newest
                    // committed write per key across *all* shards.
                    for w in &txn.write_set {
                        let mark = stage
                            .write_watermarks
                            .entry(w.key.clone())
                            .or_insert(txn.id);
                        if txn.id > *mark {
                            *mark = txn.id;
                        }
                    }
                }
                if let Some(ts) = max_ts {
                    if ts > stage.last_committed {
                        stage.last_committed = ts;
                    }
                }
                // Fault: corrupt the datastore after applying (§5
                // Scenario 3).
                if let Some((key, value)) = behavior.corrupt_after_commit.clone() {
                    if self.partitioner.owner(&key) == self.config.idx {
                        if let Some(ts) = max_ts {
                            stage.shard.store_mut().corrupt_version(&key, ts, value);
                        }
                    }
                }
                if let Some(header) = read_anchor {
                    stage.last_root = RootProvenance::Header(header);
                }
            }
            stage.applied_height = height + 1;
        }

        // Stage 5 — periodic checkpoint: snapshot the shard (with the
        // block's writes applied) so recovery replays only the suffix
        // above it. Only under TFCommit: the 2PC baseline maintains no
        // Merkle tree, so there is no meaningful root to bind a
        // snapshot to — its recovery replays the full (unsigned) log
        // instead.
        let snapshot_interval = self.config.snapshot_interval;
        let applied = height + 1;
        if protocol == CommitProtocol::TfCommit
            && snapshot_interval > 0
            && applied.is_multiple_of(snapshot_interval)
            && self.state.durability.lock().is_some()
        {
            // One capture, shared by the mirror broadcast and the local
            // save.
            let snapshot = Arc::new({
                let stage = self.state.shard.lock();
                ShardSnapshot::capture(&stage.shard, applied, tip_hash, stage.last_committed)
            });
            // Mirror the checkpoint to peers before pruning can bite:
            // once every server prunes its WAL below this height, the
            // mirrors are what keep *this* shard recoverable should our
            // disk die with the history (checkpoint state transfer).
            if self.config.mirror_checkpoints && self.repair_enabled() {
                self.mirror_checkpoint(&snapshot);
            }
            if let Some(pipeline) = self.state.durability.lock().as_ref() {
                pipeline.submit_snapshot(snapshot);
            }
        }

        // Stage split for the round breakdown: the durability hand-off
        // (the pipeline submit — the asynchronous fsync itself shows up
        // as `durability.fsync_ns`) vs everything else
        // in the apply (ledger append, Merkle recomputation, exec
        // cleanup, checkpointing). Recorded on every role: the
        // coordinator's round laps deliberately skip this segment.
        let total_ns = apply_start.elapsed().as_nanos() as u64;
        self.state
            .telemetry
            .stages
            .record(Stage::WalFsync, durability_ns);
        self.state
            .telemetry
            .stages
            .record(Stage::MerkleUpdate, total_ns.saturating_sub(durability_ns));
        if let Some(ctx) = trace {
            let sink = &self.state.telemetry.spans;
            // The durability hand-off (the real fsync is the writer
            // thread's `wal.fsync` span instead).
            sink.record(Span {
                trace_id: ctx.trace_id,
                span_id: sink.next_id(),
                parent: ctx.parent_span,
                name: Stage::WalFsync.metric_name(),
                node: sink.tag(),
                start_ns: apply_start_ns,
                end_ns: apply_start_ns + durability_ns,
                aux: height,
            });
            sink.close(
                ctx.trace_id,
                sink.next_id(),
                ctx.parent_span,
                Stage::MerkleUpdate.metric_name(),
                apply_start_ns + durability_ns,
                height,
            );
        }
    }

    /// Tells the leader of `height` that this cohort's copy of the
    /// block is durable (quorum acks): from the writer thread once the
    /// covering fsync lands, or at once without a durability engine (a
    /// memory-only cohort has nothing a crash could take back).
    fn report_durable(&self, pipeline: Option<&CommitPipeline>, height: u64) {
        let leader = server_node(self.leader_of(height));
        let Some(pipeline) = pipeline else {
            self.send(leader, &Message::Durable { height });
            return;
        };
        let sender = self.endpoint.sender();
        let keypair = self.keypair;
        let from = self.endpoint.node();
        pipeline.on_durable(
            height,
            Box::new(move || {
                let msg = Message::Durable { height };
                sender.send(Envelope::sign(&keypair, from, leader, msg.encode()));
            }),
        );
    }

    // ------------------------------------------------------------------
    // Helpers.
    // ------------------------------------------------------------------

    /// The servers whose shards are accessed by these transactions.
    fn involvement(&self, txns: &[TxnRecord]) -> HashSet<u32> {
        let mut set = HashSet::new();
        for txn in txns {
            for r in &txn.read_set {
                set.insert(self.partitioner.owner(&r.key));
            }
            for w in &txn.write_set {
                set.insert(self.partitioner.owner(&w.key));
            }
        }
        set
    }
}

/// Rebuilds the per-key committed-write watermarks from a log's commit
/// blocks — the recovery and repair-install paths, where the live map
/// cannot be patched incrementally. A checkpoint-truncated log yields a
/// partial map, which only weakens the batch former's doom filter
/// (stale stragglers then abort through a round, as before).
fn watermarks_from_log(log: &TamperProofLog) -> HashMap<Key, Timestamp> {
    let mut marks: HashMap<Key, Timestamp> = HashMap::new();
    for block in log.blocks() {
        if block.decision != Decision::Commit {
            continue;
        }
        for txn in &block.txns {
            for w in &txn.write_set {
                let mark = marks.entry(w.key.clone()).or_insert(txn.id);
                if txn.id > *mark {
                    *mark = txn.id;
                }
            }
        }
    }
    marks
}

/// All writes in the batch that land on `server`'s shard, in txn order.
fn shard_writes(txns: &[TxnRecord], partitioner: &Partitioner, server: u32) -> Vec<(Key, Value)> {
    let mut writes = Vec::new();
    for txn in txns {
        for w in &txn.write_set {
            if partitioner.owner(&w.key) == server {
                writes.push((w.key.clone(), w.new_value.clone()));
            }
        }
    }
    writes
}

/// Previous-version value used by the stale-read fault (§5 Scenario 1:
/// the malicious server returns the old value with up-to-date
/// timestamps).
fn stale_value(stage: &ShardStage, key: &Key, item: &ItemState) -> Value {
    let wts = item.wts;
    if wts == Timestamp::ZERO {
        return item.value.clone();
    }
    let just_before = Timestamp::new(wts.counter().saturating_sub(1), u32::MAX);
    stage
        .shard
        .store()
        .value_at(key, just_before)
        .unwrap_or_else(|| item.value.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_ranges_are_disjoint() {
        assert_ne!(server_node(0), client_node(0));
        assert_ne!(client_node(0), admin_node());
        assert!(server_node(100).raw() < client_node(0).raw());
    }

    #[test]
    fn shard_writes_filters_by_owner() {
        use fides_store::rwset::WriteEntry;
        let p = Partitioner::from_assignments(2, [(Key::new("a"), 0), (Key::new("b"), 1)]);
        let txn = TxnRecord {
            id: Timestamp::new(1, 0),
            read_set: vec![],
            write_set: vec![
                WriteEntry {
                    key: Key::new("a"),
                    new_value: Value::from_i64(1),
                    old_value: None,
                    rts: Timestamp::ZERO,
                    wts: Timestamp::ZERO,
                },
                WriteEntry {
                    key: Key::new("b"),
                    new_value: Value::from_i64(2),
                    old_value: None,
                    rts: Timestamp::ZERO,
                    wts: Timestamp::ZERO,
                },
            ],
        };
        let w0 = shard_writes(std::slice::from_ref(&txn), &p, 0);
        assert_eq!(w0.len(), 1);
        assert_eq!(w0[0].0, Key::new("a"));
        let w1 = shard_writes(&[txn], &p, 1);
        assert_eq!(w1.len(), 1);
        assert_eq!(w1[0].0, Key::new("b"));
    }

    const N: u32 = 3;
    /// Index of the client in [`Harness::parties`]; cohort `s` sits at
    /// index `s`.
    const CLIENT: usize = 0;
    /// Index of the admin in [`Harness::parties`].
    const ADMIN: usize = N as usize;

    fn item(shard: u32, i: usize) -> Key {
        Key::new(format!("s{shard}:{i}"))
    }

    /// A read-modify-write of the leader's item `i`, timestamped `ts`.
    fn rmw(ts: u64, i: usize) -> TxnRecord {
        use fides_store::rwset::{ReadEntry, WriteEntry};
        TxnRecord {
            id: Timestamp::new(ts, 0),
            read_set: vec![ReadEntry {
                key: item(0, i),
                value: Value::from_i64(0),
                rts: Timestamp::ZERO,
                wts: Timestamp::ZERO,
            }],
            write_set: vec![WriteEntry {
                key: item(0, i),
                new_value: Value::from_i64(1),
                old_value: None,
                rts: Timestamp::ZERO,
                wts: Timestamp::ZERO,
            }],
        }
    }

    /// Server 0 leads batches of one over a zero-latency network; the
    /// harness plays the client, the admin and cohorts `1..N`, signing
    /// with the deterministic `fides-server-{i}` keys a cluster uses.
    struct Harness {
        _net: fides_net::Network,
        leader: Option<std::thread::JoinHandle<()>>,
        state: Arc<ServerState>,
        parties: Vec<(KeyPair, Endpoint)>,
        server_pks: Vec<PublicKey>,
        /// Each cohort's CoSi witness for the round it voted in.
        witnesses: HashMap<u32, Witness>,
    }

    impl Harness {
        fn start() -> Harness {
            let net = fides_net::Network::new(fides_net::NetworkConfig::default());
            let key = |seed: String| KeyPair::from_seed(seed.as_bytes());
            let servers: Vec<KeyPair> = (0..N).map(|i| key(format!("fides-server-{i}"))).collect();
            let mut parties = vec![(key("fides-client-0".into()), net.register(client_node(0)))];
            parties.extend((1..N).map(|s| (servers[s as usize], net.register(server_node(s)))));
            parties.push((key("fides-admin".into()), net.register(admin_node())));
            let mut directory: HashMap<NodeId, PublicKey> = parties
                .iter()
                .map(|(kp, ep)| (ep.node(), kp.public_key()))
                .collect();
            directory.insert(server_node(0), servers[0].public_key());
            let partitioner = Partitioner::from_assignments(
                N,
                (0..N).flat_map(|s| (0..4).map(move |i| (item(s, i), s))),
            );
            let shard =
                AuthenticatedShard::new((0..4).map(|i| (item(0, i), Value::from_i64(0))).collect());
            let config = ServerConfig {
                idx: 0,
                n_servers: N,
                protocol: CommitProtocol::TfCommit,
                batch_size: 1,
                flush_interval: Duration::from_millis(5),
                // Rounds end by votes here, never by the clock.
                round_timeout: Duration::from_secs(600),
                repair: true,
                mirror_checkpoints: true,
                quorum_acks: false,
                snapshot_interval: 0,
                rotate_leaders: false,
                stall_timeout: Duration::ZERO,
            };
            let server_pks: Vec<PublicKey> = servers.iter().map(KeyPair::public_key).collect();
            let (mut server, state) = Server::new(
                config,
                shard,
                Behavior::default(),
                net.register(server_node(0)),
                servers[0],
                Arc::new(directory),
                partitioner,
                server_pks.clone(),
            );
            // The image a `MirrorResync` hands back.
            server.last_mirror = Some(Arc::new(state.with_shard(|shard| {
                ShardSnapshot::capture(shard, 0, Digest::ZERO, Timestamp::ZERO)
            })));
            Harness {
                _net: net,
                leader: Some(std::thread::spawn(move || server.run())),
                state,
                parties,
                server_pks,
                witnesses: HashMap::new(),
            }
        }

        fn send(&self, party: usize, msg: Message) {
            let (kp, ep) = &self.parties[party];
            ep.send(Envelope::sign(kp, ep.node(), server_node(0), msg.encode()));
        }

        /// The next message `party` receives that `pick` accepts,
        /// skipping any other.
        fn expect<T>(
            &self,
            party: usize,
            what: &str,
            mut pick: impl FnMut(Message) -> Option<T>,
        ) -> T {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let wait = deadline.saturating_duration_since(Instant::now());
                let env = self.parties[party]
                    .1
                    .recv_timeout(wait)
                    .unwrap_or_else(|_| panic!("party {party} never got {what}"));
                if let Some(found) = Message::decode(&env.payload).ok().and_then(&mut pick) {
                    return found;
                }
            }
        }

        fn end_txn(&self, ts: u64, i: usize) {
            let handle = TxnHandle { client: 0, seq: ts };
            let record = rmw(ts, i);
            self.send(CLIENT, Message::EndTxn { handle, record });
        }

        /// Cohort `s` receives the next `GetVote` and returns it with
        /// the vote it would cast (for the caller to send or withhold).
        fn vote(&mut self, s: u32) -> (PartialBlock, Message) {
            let partial = self.expect(s as usize, "GetVote", |m| match m {
                Message::GetVote { partial } => Some(partial),
                _ => None,
            });
            let mut round_id = partial.height.to_be_bytes().to_vec();
            round_id.extend_from_slice(partial.prev_hash.as_bytes());
            let witness =
                Witness::commit(&self.parties[s as usize].0, &round_id, &partial.encode());
            let vote = Message::Vote {
                height: partial.height,
                commitment: witness.commitment(),
                involved: None,
            };
            self.witnesses.insert(s, witness);
            (partial, vote)
        }

        /// Every cohort answers the challenge; returns the decided block.
        fn finish_round(&mut self) -> Block {
            for s in 1..N {
                let (height, challenge) = self.expect(s as usize, "Challenge", |m| match m {
                    Message::Challenge {
                        block, challenge, ..
                    } => Some((block.height, challenge)),
                    _ => None,
                });
                let witness = self.witnesses.remove(&s).expect("voted");
                let result = Ok(witness.respond(&challenge));
                self.send(s as usize, Message::Response { height, result });
            }
            let decided: Vec<Block> = (1..N)
                .map(|s| {
                    self.expect(s as usize, "Decision", |m| match m {
                        Message::Decision { block } => Some(block),
                        _ => None,
                    })
                })
                .collect();
            let block = decided[0].clone();
            assert!(block
                .cosign
                .verify(&block.signing_bytes(), &self.server_pks));
            block
        }

        /// Shuts the leader down and joins its thread.
        fn stop(&mut self) -> std::thread::Result<()> {
            let Some(leader) = self.leader.take() else {
                return Ok(());
            };
            self.send(ADMIN, Message::Shutdown);
            leader.join()
        }
    }

    impl Drop for Harness {
        fn drop(&mut self) {
            let _ = self.stop();
        }
    }

    /// A shutdown that reaches the leader mid-round stops it; the round
    /// does not time out: no counter, no timeout event, no rejections.
    #[test]
    fn shutdown_during_a_round_is_not_a_round_timeout() {
        let mut h = Harness::start();
        h.end_txn(1, 0);
        let (_, vote) = h.vote(1);
        h.send(1, vote);
        let _withheld = h.vote(2);
        h.stop().expect("leader thread");
        assert_eq!(h.state.metrics().counter("commit.round.timeouts"), 0);
        let events = h.state.events();
        assert!(
            !events.iter().any(|e| e.message.contains("timed out")),
            "{events:?}"
        );
        while let Some(env) = h.parties[CLIENT].1.try_recv() {
            let msg = Message::decode(&env.payload).expect("decodes");
            assert!(!matches!(msg, Message::EndTxnRejected { .. }), "{msg:?}");
        }
    }

    /// While a cohort withholds its vote the leader's round stays open,
    /// and every message kind still gets its handler: each request is
    /// answered before the round ends, an end-transaction joins the next
    /// batch, a peer's `RepairInfo` starts a repair, and the withheld
    /// vote then completes the round.
    #[test]
    fn no_message_is_lost_while_a_round_is_open() {
        let mut h = Harness::start();
        h.end_txn(1, 0);
        let (_, vote) = h.vote(1);
        h.send(1, vote);
        let (_, withheld) = h.vote(2);

        let txn = TxnHandle { client: 0, seq: 99 };
        type Reply = fn(&Message) -> bool;
        let requests: [(usize, Message, Reply); 8] = [
            (
                CLIENT,
                Message::ReadMany {
                    txn,
                    keys: vec![item(0, 1)],
                },
                |m| matches!(m, Message::ReadManyResp { .. }),
            ),
            (
                CLIENT,
                Message::Write {
                    txn,
                    key: item(0, 1),
                    value: Value::from_i64(7),
                },
                |m| matches!(m, Message::WriteAck { .. }),
            ),
            (
                CLIENT,
                Message::SnapshotRead {
                    req: 1,
                    shard: 0,
                    keys: vec![item(0, 1)],
                    min_covered: 0,
                    at_height: None,
                },
                |m| matches!(m, Message::SnapshotReadResp { .. }),
            ),
            (CLIENT, Message::RootQuery { from: 0 }, |m| {
                matches!(m, Message::RootAnnounce { .. })
            }),
            (1, Message::RepairQuery { next_height: 0 }, |m| {
                matches!(m, Message::RepairInfo { .. })
            }),
            (1, Message::RepairRequest { from: 0, max: 8 }, |m| {
                matches!(m, Message::RepairBlocks { .. })
            }),
            (1, Message::RepairCheckpointRequest, |m| {
                matches!(m, Message::RepairCheckpoint { snapshot: None })
            }),
            (1, Message::MirrorResync, |m| {
                matches!(m, Message::CheckpointMirror { .. })
            }),
        ];
        for (party, request, reply) in requests {
            let what = format!("a reply to {request:?}");
            h.send(party, request);
            h.expect(party, &what, |m| reply(&m).then_some(()));
        }
        // Kinds with nothing to answer mid-round.
        h.send(ADMIN, Message::Flush);
        h.send(1, Message::Durable { height: 0 });
        h.end_txn(2, 1);

        // The withheld vote completes the round...
        h.send(2, withheld);
        let block = h.finish_round();
        assert_eq!((block.height, block.decision), (0, Decision::Commit));
        // ...and the queued end-transaction forms the next batch.
        let (partial, vote) = h.vote(1);
        assert_eq!(partial.height, 1);
        assert_eq!(partial.txns, vec![rmw(2, 1)]);
        h.send(1, vote);
        let (_, withheld) = h.vote(2);

        // A peer claiming a longer chain starts a repair mid-round.
        h.send(
            1,
            Message::RepairInfo {
                next_height: 40,
                tip_hash: Digest::ZERO,
                base_height: 0,
                mirror_height: None,
            },
        );
        h.expect(1, "RepairRequest", |m| match m {
            Message::RepairRequest { from: 1, .. } => Some(()),
            _ => None,
        });
        h.send(2, withheld);
        assert_eq!(h.finish_round().height, 1);
        h.stop().expect("leader thread");
        assert_eq!(h.state.metrics().counter("commit.round.timeouts"), 0);
    }
}
