//! Per-server observability bundle: the metric handles a Fides server
//! records into on its hot paths.
//!
//! [`ServerTelemetry`] pre-resolves every counter/gauge/histogram the
//! server touches (commit-round stage timers, durability pipeline
//! gauges, read-plane counters, repair-plane counters) so the commit
//! path never takes the registry lock — recording is a single relaxed
//! atomic op per metric. The registry itself is only consulted when a
//! [`MetricsSnapshot`] is taken.
//!
//! Metric names follow `plane.component.metric` (see
//! `docs/telemetry.md` for the full taxonomy):
//!
//! * `commit.*` — coordinator/cohort round accounting and the six
//!   per-stage latency histograms ([`fides_telemetry::Stage`]),
//! * `durability.*` — group-commit pipeline depth, fsync latency and
//!   batch sizes,
//! * `read.*` — verified-read serving and refusals,
//! * `repair.*` — anti-entropy transfers: phases, bytes, retargets.

use std::sync::Arc;

use fides_durability::PipelineMetrics;
use fides_telemetry::{
    Counter, EventLog, Histogram, MetricsSnapshot, Registry, SpanSink, StageTimers, StallLog,
};

/// How many rare structured events each server retains (repair
/// transitions, refusals, Byzantine evidence, timeouts). Old events are
/// overwritten ring-buffer style; `FIDES_LOG` additionally mirrors them
/// to stderr as they happen.
const EVENT_CAPACITY: usize = 256;

/// How many finished spans each node retains (fides-trace). Sized for
/// the sampled tail of a bench run: a traced round records ~10 spans
/// per participating server, so 4096 keeps the last ~400 traced rounds
/// per node.
pub(crate) const SPAN_CAPACITY: usize = 4096;

/// Pre-resolved metric handles for one server. Cheap to clone (all
/// `Arc`s); every handle stays registered in [`Self::registry`] so
/// `snapshot()` sees all of them.
#[derive(Clone, Debug)]
pub struct ServerTelemetry {
    /// The backing registry — the source of [`MetricsSnapshot`]s.
    pub registry: Arc<Registry>,
    /// Structured event ring (repair transitions, refusals, timeouts).
    pub events: Arc<EventLog>,
    /// Finished causal spans (fides-trace), tagged with this server's
    /// index — what [`crate::FidesCluster::dump_traces`] collects.
    pub spans: Arc<SpanSink>,
    /// Liveness stalls + flight-recorder dumps from the round-progress
    /// watchdog — the trigger substrate for a future view change.
    pub stall_log: Arc<StallLog>,
    /// Per-stage commit-round latency histograms.
    pub stages: StageTimers,
    /// Commit rounds driven to completion (coordinator).
    pub rounds: Arc<Counter>,
    /// Rounds this server led as the (possibly rotating) commit leader —
    /// under rotation every server's count grows; the differential
    /// tests assert leadership actually spread.
    pub rounds_led: Arc<Counter>,
    /// Rounds currently open from this server's point of view: votes
    /// cast (CoSi witness live) whose decision has not yet applied. The
    /// high watermark > 1 is the signature of overlapped rounds under
    /// rotating leadership.
    pub inflight_rounds: Arc<fides_telemetry::Gauge>,
    /// Rounds that hit a vote/response collection timeout.
    pub round_timeouts: Arc<Counter>,
    /// Liveness stalls declared by the round-progress watchdog.
    pub stalls: Arc<Counter>,
    /// Group-commit fsync latency (recorded by the writer thread).
    pub fsync_ns: Arc<Histogram>,
    /// Blocks covered per group-commit fsync.
    pub batch_blocks: Arc<Histogram>,
    /// Pipeline queue depth (submitted, not yet durable).
    pub queue_depth: Arc<fides_telemetry::Gauge>,
    /// Snapshot reads served from the server's own shard.
    pub reads_owner: Arc<Counter>,
    /// Snapshot reads served from a mirrored peer checkpoint.
    pub reads_mirror: Arc<Counter>,
    /// Snapshot reads refused (repairing, uncovered height, …).
    pub read_refusals: Arc<Counter>,
    /// Repair tasks started (gap detected).
    pub repair_started: Arc<Counter>,
    /// Repair tasks completed (verified state installed).
    pub repair_completed: Arc<Counter>,
    /// Repair source retargets (peer stopped serving / refuted).
    pub repair_retargets: Arc<Counter>,
    /// Blocks fetched over the repair plane.
    pub repair_blocks: Arc<Counter>,
    /// Payload bytes of block/checkpoint transfers received over repair.
    pub repair_bytes: Arc<Counter>,
    /// Peers' checkpoint mirrors restored (and root-verified) here: one
    /// per whole image received newer than the held one, plus one per
    /// mirror reloaded at restart, on its first read or delta. Reads
    /// and deltas never restore.
    pub mirror_restores: Arc<Counter>,
    /// Mirror deltas applied in place to a held mirror.
    pub mirror_deltas: Arc<Counter>,
    /// Whole images requested from an origin because its delta did not
    /// apply here (base not held, or the delta failed its checks).
    pub mirror_resyncs: Arc<Counter>,
    /// Latency of installing a verified transfer (ns).
    pub repair_install_ns: Arc<Histogram>,
    /// End-to-end repair durations, gap detection → installed (ns).
    pub repair_duration_ns: Arc<Histogram>,
}

impl ServerTelemetry {
    /// `tag` namespaces this node's span ids (the server index; clients
    /// use [`fides_telemetry::trace::CLIENT_TAG_BASE`]` + id`).
    pub fn new(tag: u64) -> Self {
        let registry = Arc::new(Registry::new());
        let stages = StageTimers::new(&registry);
        ServerTelemetry {
            events: Arc::new(EventLog::new(EVENT_CAPACITY)),
            spans: Arc::new(SpanSink::new(tag, SPAN_CAPACITY)),
            stall_log: Arc::new(StallLog::new()),
            stages,
            rounds: registry.counter("commit.rounds"),
            rounds_led: registry.counter("commit.rounds_led"),
            inflight_rounds: registry.gauge("commit.inflight_rounds"),
            round_timeouts: registry.counter("commit.round.timeouts"),
            stalls: registry.counter("watchdog.stalls"),
            fsync_ns: registry.histogram("durability.fsync_ns"),
            batch_blocks: registry.histogram("durability.batch_blocks"),
            queue_depth: registry.gauge("durability.queue_depth"),
            reads_owner: registry.counter("read.serve.owner"),
            reads_mirror: registry.counter("read.serve.mirror"),
            read_refusals: registry.counter("read.refused"),
            repair_started: registry.counter("repair.started"),
            repair_completed: registry.counter("repair.completed"),
            repair_retargets: registry.counter("repair.retargets"),
            repair_blocks: registry.counter("repair.blocks_fetched"),
            repair_bytes: registry.counter("repair.bytes"),
            mirror_restores: registry.counter("repair.mirror_restores"),
            mirror_deltas: registry.counter("repair.mirror_deltas"),
            mirror_resyncs: registry.counter("repair.mirror_resyncs"),
            repair_install_ns: registry.histogram("repair.install_ns"),
            repair_duration_ns: registry.histogram("repair.duration_ns"),
            registry,
        }
    }

    /// A point-in-time snapshot of every metric this server records.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The handles the durability pipeline's writer thread records
    /// into (attached via [`fides_durability::CommitPipeline::set_metrics`]).
    pub fn pipeline_metrics(&self) -> PipelineMetrics {
        PipelineMetrics {
            fsync_ns: Arc::clone(&self.fsync_ns),
            batch_blocks: Arc::clone(&self.batch_blocks),
            queue_depth: Arc::clone(&self.queue_depth),
            spans: Some(Arc::clone(&self.spans)),
        }
    }
}

impl Default for ServerTelemetry {
    fn default() -> Self {
        Self::new(0)
    }
}
