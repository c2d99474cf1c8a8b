//! Asynchronous group commit: a dedicated WAL writer thread with an
//! ordered-ack guarantee.
//!
//! This is every persisted server's one durability engine: a server
//! never pays the fsync on its commit path, and all of its WAL and
//! snapshot I/O runs on the writer thread. Terminated blocks are handed
//! to a [`CommitPipeline`], whose writer thread drains everything queued
//! since the last disk round-trip, appends the whole batch, issues
//! **one** covering fsync, and only then advances the durable watermark
//! — batching appends *across rounds*, not just within one block. The
//! server applies block *h+1* to its shard and votes on *h+2* while the
//! writer is still fsyncing *h*.
//!
//! What makes this safe:
//!
//! * **Ordered acks** — a commit acknowledgement registered for height
//!   `h` ([`CommitPipeline::on_durable`]) runs only once the watermark
//!   covers `h`, and acks always fire in height order. A client that
//!   has seen an outcome therefore knows the block (and every block
//!   below it) survives a crash.
//! * **Snapshot ordering** — shard snapshots are routed through the
//!   same writer thread and saved only after the fsync covering their
//!   height, so a crash can never leave a snapshot ahead of the durable
//!   log (which recovery would refuse).
//! * **Crash shape** — a crash loses only un-fsynced tail blocks; the
//!   WAL prefix below the watermark is intact and recovery reproduces
//!   exactly the acknowledged history (tested in
//!   `crates/core/tests/pipeline_stress.rs`).
//!
//! After a snapshot is saved the writer prunes WAL segments below it
//! when pruning is enabled — the disk stays bounded while the pipeline
//! runs — but never above the oldest peer mirror it has persisted
//! ([`PruneFloor`]). Segments the log archives when pruning stay
//! readable through [`CommitPipeline::read_archived`]: repair peers
//! serve history below their in-memory log from there.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fides_ledger::block::Block;
use fides_telemetry::trace::now_ns;
use fides_telemetry::{Gauge, Histogram, Span, SpanSink, TraceContext};

use crate::blocklog::DurableLog;
use crate::snapshot::{PruneFloor, ShardSnapshot, SnapshotStore};

/// A commit acknowledgement deferred until the covering fsync.
pub type DurableAck = Box<dyn FnOnce() + Send>;

/// Pipeline tuning.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Prune WAL segments below each saved snapshot, but not below the
    /// oldest persisted peer mirror ([`PruneFloor`]). This bounds the
    /// disk; the log's archive hook, when configured, still preserves
    /// history for the auditor.
    pub prune_wal: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { prune_wal: true }
    }
}

/// Observability handles the writer thread records into (see
/// `docs/telemetry.md`): attach with [`CommitPipeline::set_metrics`]
/// before traffic starts. Without them the pipeline records nothing.
#[derive(Clone, Debug, Default)]
pub struct PipelineMetrics {
    /// Covering-fsync latency, nanoseconds (`durability.fsync_ns`) —
    /// the disk round-trip the commit path no longer waits for.
    pub fsync_ns: Arc<Histogram>,
    /// Blocks covered per fsync (`durability.batch_blocks`) — the
    /// group-commit batching factor.
    pub batch_blocks: Arc<Histogram>,
    /// Commands queued to the writer but not yet drained
    /// (`durability.queue_depth`), with a high-watermark.
    pub queue_depth: Arc<Gauge>,
    /// Span sink for sampled traces (fides-trace): a traced append
    /// gets a `wal.fsync` span covering queue wait + the covering
    /// fsync. `None` outside traced clusters.
    pub spans: Option<Arc<SpanSink>>,
}

/// The causal context a traced block carries into the writer thread.
struct AppendTrace {
    ctx: TraceContext,
    /// When the server submitted the block ([`now_ns`]) — the span
    /// starts here so queue wait is visible, not hidden.
    submitted_ns: u64,
}

enum Cmd {
    /// Append this block; it becomes durable at the next covering
    /// fsync. Blocks must be submitted in height order.
    Append(Box<Block>, Option<AppendTrace>),
    /// Save this snapshot after the fsync covering its height, then
    /// prune the WAL up to the [`PruneFloor`] (if enabled).
    Snapshot(Arc<ShardSnapshot>),
    /// Persist a mirror of a peer's checkpoint (anti-entropy repair:
    /// the peer can fetch its own shard image back after losing its
    /// disk). Saved immediately — mirrors carry no local ack semantics
    /// — and raises the mirror's share of the [`PruneFloor`].
    Mirror(u32, Arc<ShardSnapshot>),
    /// Adopt a transferred checkpoint: save it, reset the log to start
    /// at its height, move the watermark there, and signal the barrier.
    /// The server guarantees no acks are pending across a reset.
    Reset(Arc<ShardSnapshot>, crossbeam_channel::Sender<()>),
    /// Reply with the newest persisted snapshot (audit surrender).
    LoadLatest(crossbeam_channel::Sender<Option<ShardSnapshot>>),
    /// Reply with the blocks the log archived when pruning (repair
    /// serving below the in-memory log).
    ReadArchived(crossbeam_channel::Sender<Option<Vec<Block>>>),
    /// Fsync whatever is pending and signal the barrier.
    Flush(crossbeam_channel::Sender<()>),
    /// Test hook: stop immediately, abandoning buffered (un-fsynced)
    /// state — the in-process stand-in for `kill -9`.
    Kill,
}

/// Watermark + ack registry shared between the handle and the writer.
struct DurableState {
    /// Heights `< watermark` are fsync-covered.
    watermark: AtomicU64,
    /// Acks not yet runnable, keyed by the height they wait for.
    pending_acks: Mutex<BTreeMap<u64, Vec<DurableAck>>>,
    /// Signalled whenever the watermark advances.
    advanced: Condvar,
    advanced_mx: Mutex<()>,
}

impl DurableState {
    /// Runs (in height order) every pending ack the watermark now
    /// covers.
    fn release_acks(&self) {
        let runnable: Vec<DurableAck> = {
            let watermark = self.watermark.load(Ordering::Acquire);
            let mut pending = self.pending_acks.lock().unwrap_or_else(|e| e.into_inner());
            let keep = pending.split_off(&watermark);
            let runnable = std::mem::replace(&mut *pending, keep);
            runnable.into_values().flatten().collect()
        };
        for ack in runnable {
            ack();
        }
        let _guard = self.advanced_mx.lock().unwrap_or_else(|e| e.into_inner());
        self.advanced.notify_all();
    }
}

/// The asynchronous group-commit engine (see module docs).
pub struct CommitPipeline {
    tx: Option<crossbeam_channel::Sender<Cmd>>,
    state: Arc<DurableState>,
    writer: Option<JoinHandle<()>>,
    metrics: Arc<OnceLock<PipelineMetrics>>,
}

impl std::fmt::Debug for CommitPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CommitPipeline(durable_height={})",
            self.durable_height()
        )
    }
}

impl CommitPipeline {
    /// Spawns the writer thread over a durable log and snapshot store
    /// already holding `durable_height` blocks (the recovery point) and
    /// no peer mirrors.
    pub fn new(
        log: Box<dyn DurableLog>,
        snapshots: Box<dyn SnapshotStore>,
        durable_height: u64,
        config: PipelineConfig,
    ) -> CommitPipeline {
        Self::with_floor(
            log,
            snapshots,
            durable_height,
            config,
            PruneFloor::default(),
        )
    }

    /// [`CommitPipeline::new`] over a store already holding peer
    /// mirrors, whose heights `floor` records.
    pub fn with_floor(
        log: Box<dyn DurableLog>,
        snapshots: Box<dyn SnapshotStore>,
        durable_height: u64,
        config: PipelineConfig,
        floor: PruneFloor,
    ) -> CommitPipeline {
        let (tx, rx) = crossbeam_channel::unbounded();
        let state = Arc::new(DurableState {
            watermark: AtomicU64::new(durable_height),
            pending_acks: Mutex::new(BTreeMap::new()),
            advanced: Condvar::new(),
            advanced_mx: Mutex::new(()),
        });
        let writer_state = Arc::clone(&state);
        let metrics: Arc<OnceLock<PipelineMetrics>> = Arc::new(OnceLock::new());
        let writer_metrics = Arc::clone(&metrics);
        let writer = std::thread::Builder::new()
            .name("fides-wal-writer".into())
            .spawn(move || {
                writer_loop(
                    rx,
                    log,
                    snapshots,
                    writer_state,
                    config,
                    floor,
                    writer_metrics,
                );
            })
            .expect("spawn WAL writer thread");
        CommitPipeline {
            tx: Some(tx),
            state,
            writer: Some(writer),
            metrics,
        }
    }

    /// Attaches observability handles (idempotent; the first attach
    /// wins). Call before traffic starts so the queue-depth gauge
    /// balances.
    pub fn set_metrics(&self, metrics: PipelineMetrics) {
        let _ = self.metrics.set(metrics);
    }

    fn send(&self, cmd: Cmd) {
        self.tx
            .as_ref()
            .expect("pipeline alive")
            .send(cmd)
            .expect("WAL writer thread alive");
    }

    /// Queues a block for appending. Returns immediately; durability
    /// arrives with a later covering fsync. Blocks must be submitted in
    /// height order (the server's apply path guarantees this).
    pub fn submit_block(&self, block: &Block) {
        self.submit_block_traced(block, None);
    }

    /// [`CommitPipeline::submit_block`] carrying a sampled trace
    /// context: the covering fsync will emit a `wal.fsync` span
    /// parented under `ctx.parent_span` (requires
    /// [`PipelineMetrics::spans`] to be attached).
    pub fn submit_block_traced(&self, block: &Block, ctx: Option<TraceContext>) {
        if let Some(m) = self.metrics.get() {
            m.queue_depth.add(1);
        }
        let trace = ctx.map(|ctx| AppendTrace {
            ctx,
            submitted_ns: now_ns(),
        });
        self.send(Cmd::Append(Box::new(block.clone()), trace));
    }

    /// Queues a snapshot; it is saved only after the fsync covering its
    /// height, so recovery can always bind it to the durable chain.
    /// The image is shared, not copied: the caller may keep serving it.
    pub fn submit_snapshot(&self, snapshot: Arc<ShardSnapshot>) {
        self.send(Cmd::Snapshot(snapshot));
    }

    /// Queues a peer's checkpoint mirror for persistence (see
    /// [`crate::SnapshotStore::save_mirror`]), sharing the image the
    /// caller holds for serving.
    pub fn submit_mirror(&self, origin: u32, snapshot: Arc<ShardSnapshot>) {
        self.send(Cmd::Mirror(origin, snapshot));
    }

    /// Adopts a transferred checkpoint (anti-entropy repair): persists
    /// it, resets the WAL to restart at `snapshot.height`, and moves the
    /// durable watermark there. Blocking — on return the checkpoint is
    /// durable and subsequent [`CommitPipeline::submit_block`] calls
    /// must continue from `snapshot.height`. The caller must not have
    /// acks pending below the new height.
    pub fn reset_to(&self, snapshot: Arc<ShardSnapshot>) {
        let (done_tx, done_rx) = crossbeam_channel::unbounded();
        self.send(Cmd::Reset(snapshot, done_tx));
        let _ = done_rx.recv();
    }

    /// The newest persisted snapshot, fetched through the writer thread
    /// (which owns the store) — what a server surrenders to the auditor
    /// so a suffix-log audit can seed its replay.
    pub fn load_latest_snapshot(&self) -> Option<ShardSnapshot> {
        let (tx, rx) = crossbeam_channel::unbounded();
        self.send(Cmd::LoadLatest(tx));
        rx.recv().ok().flatten()
    }

    /// The blocks the log parked in its archive when pruning, in height
    /// order, fetched through the writer thread (which owns the log) —
    /// what a repair peer serves when a lagging server asks for history
    /// below the in-memory log. `None` when the log keeps no archive or
    /// the archive fails its integrity checks.
    pub fn read_archived(&self) -> Option<Vec<Block>> {
        let (tx, rx) = crossbeam_channel::unbounded();
        self.send(Cmd::ReadArchived(tx));
        rx.recv().ok().flatten()
    }

    /// Registers `ack` to run once every block at height `< height + 1`
    /// is fsync-covered — i.e. once block `height` is durable. Runs
    /// inline when that is already true. Acks fire in height order
    /// (the ordered-ack guarantee clients rely on).
    pub fn on_durable(&self, height: u64, ack: DurableAck) {
        let mut pending = self
            .state
            .pending_acks
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if self.state.watermark.load(Ordering::Acquire) > height {
            drop(pending);
            ack();
        } else {
            pending.entry(height).or_default().push(ack);
        }
    }

    /// Heights below this are durable.
    pub fn durable_height(&self) -> u64 {
        self.state.watermark.load(Ordering::Acquire)
    }

    /// Waits until block `height` is durable (or the timeout passes).
    pub fn wait_durable(&self, height: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.durable_height() > height {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let guard = self
                .state
                .advanced_mx
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if self.durable_height() > height {
                return true;
            }
            let _ = self
                .state
                .advanced
                .wait_timeout(guard, (deadline - now).min(Duration::from_millis(10)))
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocking barrier: every block submitted before this call is
    /// durable when it returns.
    pub fn flush(&self) {
        let (done_tx, done_rx) = crossbeam_channel::unbounded();
        self.send(Cmd::Flush(done_tx));
        let _ = done_rx.recv();
    }

    /// Test hook simulating `kill -9` mid-stream: the writer stops
    /// without flushing, abandoning whatever was queued or buffered but
    /// not yet fsynced. The durable prefix (= everything acknowledged)
    /// survives on disk; recovery must reproduce exactly that.
    pub fn kill(mut self) {
        self.send(Cmd::Kill);
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        self.tx = None;
    }
}

impl Drop for CommitPipeline {
    /// Graceful shutdown: close the queue, let the writer drain and
    /// fsync everything, then join it.
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

fn writer_loop(
    rx: crossbeam_channel::Receiver<Cmd>,
    mut log: Box<dyn DurableLog>,
    mut snapshots: Box<dyn SnapshotStore>,
    state: Arc<DurableState>,
    config: PipelineConfig,
    mut floor: PruneFloor,
    metrics: Arc<OnceLock<PipelineMetrics>>,
) {
    // Snapshots waiting for the fsync covering their height.
    let mut queued_snapshots: Vec<Arc<ShardSnapshot>> = Vec::new();
    'outer: loop {
        // Block for the first command, then greedily drain everything
        // already queued — that whole batch shares one fsync. This is
        // what batches appends across commit rounds: while the previous
        // fsync was in flight, several rounds' blocks piled up here.
        let first = match rx.recv() {
            Ok(cmd) => cmd,
            Err(_) => break 'outer, // handle dropped: final flush below
        };
        let mut appended_to: Option<u64> = None;
        let mut appended_blocks = 0u64;
        let mut barriers: Vec<crossbeam_channel::Sender<()>> = Vec::new();
        let mut batch = vec![first];
        while let Ok(cmd) = rx.try_recv() {
            batch.push(cmd);
        }
        // Traced appends in this batch: their `wal.fsync` spans close
        // after the covering fsync below.
        let mut traced: Vec<(AppendTrace, u64)> = Vec::new();
        for cmd in batch {
            match cmd {
                Cmd::Append(block, trace) => {
                    let height = block.height;
                    log.append_block(&block)
                        .expect("pipelined WAL append failed");
                    appended_to = Some(height);
                    appended_blocks += 1;
                    if let Some(trace) = trace {
                        traced.push((trace, height));
                    }
                }
                Cmd::Snapshot(snapshot) => queued_snapshots.push(snapshot),
                Cmd::Mirror(origin, snapshot) => {
                    snapshots
                        .save_mirror(origin, &snapshot)
                        .expect("pipelined mirror save failed");
                    floor.mirror(origin, snapshot.height);
                }
                Cmd::Reset(snapshot, done) => {
                    // Checkpoint adoption: persist the checkpoint first
                    // (it vouches for everything below its height), then
                    // restart the log there. Queued pre-reset snapshots
                    // are superseded.
                    let height = snapshot.height;
                    snapshots
                        .save(&snapshot)
                        .expect("checkpoint-adoption snapshot save failed");
                    log.reset_to(height).expect("WAL reset failed");
                    queued_snapshots.retain(|s| s.height > height);
                    appended_to = None;
                    state.watermark.store(height, Ordering::Release);
                    barriers.push(done);
                }
                Cmd::LoadLatest(reply) => {
                    let _ = reply.send(snapshots.load_latest().ok().flatten());
                }
                Cmd::ReadArchived(reply) => {
                    let _ = reply.send(log.read_archived().ok().flatten());
                }
                Cmd::Flush(done) => barriers.push(done),
                Cmd::Kill => {
                    // Abandon un-fsynced state: leak the log so not even
                    // its buffered bytes reach the OS (Drop would flush
                    // them) — the on-disk prefix stays exactly as the
                    // last covering fsync left it.
                    std::mem::forget(log);
                    return;
                }
            }
        }
        // One fsync covers every block drained above.
        if let Some(m) = metrics.get() {
            let t0 = Instant::now();
            log.sync().expect("pipelined WAL fsync failed");
            m.fsync_ns.record_duration(t0.elapsed());
            if appended_blocks > 0 {
                m.batch_blocks.record(appended_blocks);
                m.queue_depth.add(-(appended_blocks as i64));
            }
            if let Some(sink) = &m.spans {
                for (trace, height) in traced.drain(..) {
                    sink.record(Span {
                        trace_id: trace.ctx.trace_id,
                        span_id: sink.next_id(),
                        parent: trace.ctx.parent_span,
                        name: "wal.fsync",
                        node: sink.tag(),
                        start_ns: trace.submitted_ns,
                        end_ns: now_ns(),
                        aux: height,
                    });
                }
            }
        } else {
            log.sync().expect("pipelined WAL fsync failed");
        }
        if let Some(height) = appended_to {
            state.watermark.store(height + 1, Ordering::Release);
        }
        state.release_acks();

        // Snapshots whose height the watermark now covers are safe to
        // save; then the WAL below them is dead weight — except what a
        // peer whose mirror we hold may need back.
        let watermark = state.watermark.load(Ordering::Acquire);
        queued_snapshots.retain(|snapshot| {
            if snapshot.height <= watermark {
                snapshots
                    .save(snapshot)
                    .expect("pipelined snapshot save failed");
                floor.own_snapshot(snapshot.height);
                false
            } else {
                true
            }
        });
        if config.prune_wal {
            floor
                .prune(log.as_mut())
                .expect("pipelined WAL prune failed");
        }
        for done in barriers {
            let _ = done.send(());
        }
    }
    // Graceful shutdown: everything submitted is already appended (the
    // drain above runs to completion before the loop re-polls), so one
    // final sync makes the full history durable.
    log.sync().expect("final WAL fsync failed");
    let watermark = log.block_count();
    state.watermark.store(watermark, Ordering::Release);
    state.release_acks();
    for snapshot in queued_snapshots.drain(..) {
        if snapshot.height <= watermark {
            snapshots
                .save(&snapshot)
                .expect("final snapshot save failed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocklog::{MemoryBlockLog, WalBlockLog};
    use crate::snapshot::{FileSnapshotStore, MemorySnapshotStore};
    use crate::testutil::TempDir;
    use crate::wal::{SyncPolicy, WalConfig};
    use fides_ledger::block::{BlockBuilder, Decision};
    use fides_ledger::log::TamperProofLog;
    use std::sync::atomic::AtomicUsize;

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

    fn pipelined_config() -> WalConfig {
        WalConfig {
            segment_bytes: 1 << 16,
            sync: SyncPolicy::Pipelined,
        }
    }

    #[test]
    fn blocks_become_durable_and_acks_fire_in_order() {
        let dir = TempDir::new("pipeline-order");
        let (log, existing) = WalBlockLog::open(dir.path(), pipelined_config()).unwrap();
        assert!(existing.is_empty());
        let pipeline = CommitPipeline::new(
            Box::new(log),
            Box::new(MemorySnapshotStore::new()),
            0,
            PipelineConfig::default(),
        );

        let order = Arc::new(Mutex::new(Vec::new()));
        let blocks = chain(20);
        // Register acks in scrambled order before submitting: they must
        // still fire in height order.
        for &h in &[5u64, 0, 12, 19, 3] {
            let order = Arc::clone(&order);
            pipeline.on_durable(h, Box::new(move || order.lock().unwrap().push(h)));
        }
        for block in &blocks {
            pipeline.submit_block(block);
        }
        assert!(pipeline.wait_durable(19, Duration::from_secs(5)));
        assert_eq!(pipeline.durable_height(), 20);
        drop(pipeline);
        assert_eq!(*order.lock().unwrap(), vec![0, 3, 5, 12, 19]);

        // Everything survives a reopen.
        let (_, replayed) = WalBlockLog::open(dir.path(), pipelined_config()).unwrap();
        assert_eq!(replayed, blocks);
    }

    #[test]
    fn ack_for_already_durable_height_runs_inline() {
        let pipeline = CommitPipeline::new(
            Box::new(MemoryBlockLog::new()),
            Box::new(MemorySnapshotStore::new()),
            0,
            PipelineConfig::default(),
        );
        let blocks = chain(3);
        for block in &blocks {
            pipeline.submit_block(block);
        }
        assert!(pipeline.wait_durable(2, Duration::from_secs(5)));
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        pipeline.on_durable(
            1,
            Box::new(move || {
                ran2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(
            ran.load(Ordering::SeqCst),
            1,
            "inline ack for durable height"
        );
    }

    #[test]
    fn graceful_drop_flushes_everything() {
        let dir = TempDir::new("pipeline-drop");
        let blocks = chain(7);
        {
            let (log, _) = WalBlockLog::open(dir.path(), pipelined_config()).unwrap();
            let pipeline = CommitPipeline::new(
                Box::new(log),
                Box::new(MemorySnapshotStore::new()),
                0,
                PipelineConfig::default(),
            );
            for block in &blocks {
                pipeline.submit_block(block);
            }
            // Drop without waiting: shutdown must drain and fsync.
        }
        let (_, replayed) = WalBlockLog::open(dir.path(), pipelined_config()).unwrap();
        assert_eq!(replayed, blocks);
    }

    #[test]
    fn flush_is_a_barrier() {
        let disk = MemoryBlockLog::new();
        let pipeline = CommitPipeline::new(
            Box::new(disk.handle()),
            Box::new(MemorySnapshotStore::new()),
            0,
            PipelineConfig::default(),
        );
        for block in &chain(5) {
            pipeline.submit_block(block);
        }
        pipeline.flush();
        assert_eq!(pipeline.durable_height(), 5);
        assert_eq!(disk.blocks().len(), 5);
    }

    #[test]
    fn kill_preserves_only_the_acked_prefix() {
        let dir = TempDir::new("pipeline-kill");
        let blocks = chain(30);
        let acked = Arc::new(AtomicU64::new(0));
        {
            let (log, _) = WalBlockLog::open(dir.path(), pipelined_config()).unwrap();
            let pipeline = CommitPipeline::new(
                Box::new(log),
                Box::new(MemorySnapshotStore::new()),
                0,
                PipelineConfig::default(),
            );
            for block in &blocks[..20] {
                pipeline.submit_block(block);
                let acked = Arc::clone(&acked);
                let h = block.height;
                pipeline.on_durable(
                    h,
                    Box::new(move || {
                        acked.fetch_max(h + 1, Ordering::SeqCst);
                    }),
                );
            }
            pipeline.flush();
            // These blocks are submitted but never covered by an fsync
            // before the kill — they may or may not survive; nothing
            // acked them.
            for block in &blocks[20..] {
                pipeline.submit_block(block);
            }
            pipeline.kill();
        }
        let acked = acked.load(Ordering::SeqCst);
        assert_eq!(acked, 20, "flush barrier acked exactly the prefix");
        let (_, replayed) = WalBlockLog::open(dir.path(), pipelined_config()).unwrap();
        assert!(
            replayed.len() as u64 >= acked,
            "acknowledged blocks survive the kill: {} < {acked}",
            replayed.len()
        );
        assert_eq!(replayed, blocks[..replayed.len()].to_vec());
    }

    #[test]
    fn reset_adopts_checkpoint_and_restarts_the_wal() {
        let dir = TempDir::new("pipeline-reset");
        let blocks = chain(12);
        let shard = fides_store::AuthenticatedShard::new(vec![(
            fides_store::Key::new("k"),
            fides_store::Value::from_i64(1),
        )]);
        {
            let (log, _) = WalBlockLog::open(dir.join("wal"), pipelined_config()).unwrap();
            let snapshots = FileSnapshotStore::open(dir.join("snapshots")).unwrap();
            let pipeline = CommitPipeline::new(
                Box::new(log),
                Box::new(snapshots),
                0,
                PipelineConfig::default(),
            );
            // A short prefix exists, then a checkpoint at height 8 is
            // adopted via state transfer and appends continue from there.
            for block in &blocks[..3] {
                pipeline.submit_block(block);
            }
            pipeline.flush();
            let snapshot =
                ShardSnapshot::capture(&shard, 8, blocks[7].hash(), fides_store::Timestamp::ZERO);
            pipeline.reset_to(Arc::new(snapshot));
            assert_eq!(pipeline.durable_height(), 8);
            for block in &blocks[8..] {
                pipeline.submit_block(block);
            }
            pipeline.submit_mirror(
                3,
                Arc::new(ShardSnapshot::capture(
                    &shard,
                    2,
                    blocks[1].hash(),
                    fides_store::Timestamp::ZERO,
                )),
            );
            pipeline.flush();
            assert_eq!(pipeline.durable_height(), 12);
            assert_eq!(pipeline.load_latest_snapshot().unwrap().height, 8);
        }
        // Reopen: the WAL is a suffix starting at the adopted height,
        // bound to the saved checkpoint; the mirror survived too.
        let (_, replayed) = WalBlockLog::open(dir.join("wal"), pipelined_config()).unwrap();
        assert_eq!(replayed.first().unwrap().height, 8);
        assert_eq!(replayed.len(), 4);
        let snapshots = FileSnapshotStore::open(dir.join("snapshots")).unwrap();
        let latest = snapshots.load_latest().unwrap().unwrap();
        assert_eq!(latest.height, 8);
        let recovered =
            crate::recovery::recover_ledger(replayed, Some(latest), &[], false).unwrap();
        assert_eq!(recovered.log.next_height(), 12);
        assert_eq!(recovered.log.tip_hash(), blocks[11].hash());
        let mirrors = snapshots.load_mirrors().unwrap();
        assert_eq!(mirrors.len(), 1);
        assert_eq!(mirrors[0].0, 3);
    }

    #[test]
    fn pruning_waits_for_the_oldest_held_mirror() {
        let disk = MemoryBlockLog::new();
        let pipeline = CommitPipeline::new(
            Box::new(disk.handle()),
            Box::new(MemorySnapshotStore::new()),
            0,
            PipelineConfig::default(),
        );
        let blocks = chain(20);
        let shard = fides_store::AuthenticatedShard::new(vec![(
            fides_store::Key::new("k"),
            fides_store::Value::from_i64(1),
        )]);
        let snap = |height: u64| {
            Arc::new(ShardSnapshot::capture(
                &shard,
                height,
                blocks[height as usize - 1].hash(),
                fides_store::Timestamp::ZERO,
            ))
        };
        for block in &blocks {
            pipeline.submit_block(block);
        }
        // Origin 3's mirror at 8 holds the floor below the own
        // snapshot at 12: block 8 stays servable.
        pipeline.submit_mirror(3, snap(8));
        pipeline.submit_snapshot(snap(12));
        pipeline.flush();
        assert_eq!(disk.blocks()[0].height, 8);
        // A newer mirror releases the floor to the own snapshot.
        pipeline.submit_mirror(3, snap(16));
        pipeline.flush();
        assert_eq!(disk.blocks()[0].height, 12);
    }

    #[test]
    fn snapshot_saved_only_after_covering_fsync_then_pruned() {
        let dir = TempDir::new("pipeline-snap");
        let wal_dir = dir.join("wal");
        let blocks = chain(40);
        let (log, _) = WalBlockLog::open(
            &wal_dir,
            WalConfig {
                segment_bytes: 512, // force rotations so pruning can bite
                sync: SyncPolicy::Pipelined,
            },
        )
        .unwrap();
        let snapshots = MemorySnapshotStore::new();
        let snap_reader = snapshots.handle();
        let pipeline = CommitPipeline::new(
            Box::new(log),
            Box::new(snapshots),
            0,
            PipelineConfig { prune_wal: true },
        );
        for block in &blocks[..32] {
            pipeline.submit_block(block);
        }
        // Snapshot at height 32 (tip hash of block 31).
        let shard = fides_store::AuthenticatedShard::new(vec![(
            fides_store::Key::new("k"),
            fides_store::Value::from_i64(1),
        )]);
        let snapshot =
            ShardSnapshot::capture(&shard, 32, blocks[31].hash(), fides_store::Timestamp::ZERO);
        pipeline.submit_snapshot(Arc::new(snapshot));
        for block in &blocks[32..] {
            pipeline.submit_block(block);
        }
        pipeline.flush();
        assert_eq!(snap_reader.load_latest().unwrap().unwrap().height, 32);
        drop(pipeline);

        // The WAL was pruned below 32 — and still recovers with the
        // snapshot via the suffix path.
        let (_, surviving) = WalBlockLog::open(&wal_dir, pipelined_config()).unwrap();
        assert!(surviving[0].height > 0, "prefix segments were pruned");
        assert!(surviving[0].height <= 32);
        let snapshot = snap_reader.load_latest().unwrap();
        let recovered = crate::recovery::recover_ledger(surviving, snapshot, &[], false).unwrap();
        assert_eq!(recovered.log.next_height(), 40);
        assert_eq!(recovered.log.tip_hash(), blocks[39].hash());
        assert_eq!(recovered.replay_from(), 32);
        assert_eq!(recovered.replay_blocks().len(), 8);
    }

    #[test]
    fn archive_read_returns_exactly_the_pruned_blocks() {
        let dir = TempDir::new("pipeline-archive");
        let blocks = chain(40);
        let tiny = WalConfig {
            segment_bytes: 512, // force rotations so pruning can bite
            ..WalConfig::default()
        };
        let shard = fides_store::AuthenticatedShard::new(vec![(
            fides_store::Key::new("k"),
            fides_store::Value::from_i64(1),
        )]);
        let snapshot = Arc::new(ShardSnapshot::capture(
            &shard,
            32,
            blocks[31].hash(),
            fides_store::Timestamp::ZERO,
        ));
        // Runs the pipeline over `log` until a snapshot at 32 prunes
        // it; returns the archive reads from before and after.
        let prune = |log: WalBlockLog| {
            let pipeline = CommitPipeline::new(
                Box::new(log),
                Box::new(MemorySnapshotStore::new()),
                0,
                PipelineConfig::default(),
            );
            for block in &blocks {
                pipeline.submit_block(block);
            }
            pipeline.flush();
            let before = pipeline.read_archived();
            pipeline.submit_snapshot(Arc::clone(&snapshot));
            pipeline.flush();
            (before, pipeline.read_archived())
        };

        let (log, _) =
            WalBlockLog::open_with_archive(dir.join("wal"), dir.join("archive"), tiny).unwrap();
        let (before, after) = prune(log);
        assert_eq!(before, None, "nothing is archived before the prune");
        let archived = after.expect("the prune archived segments");
        assert!(!archived.is_empty() && archived.len() <= 32);
        assert_eq!(archived, blocks[..archived.len()], "height order from 0");
        // Exactly the pruned prefix: the live WAL starts where the
        // archive ends.
        let (_, live) = WalBlockLog::open(dir.join("wal"), tiny).unwrap();
        assert_eq!(live[0].height, archived.len() as u64);

        // Without an archive the pruned blocks are gone.
        let (log, _) = WalBlockLog::open(dir.join("plain"), tiny).unwrap();
        assert_eq!(prune(log), (None, None));
        let (_, live) = WalBlockLog::open(dir.join("plain"), tiny).unwrap();
        assert!(live[0].height > 0, "the plain WAL was pruned too");
    }
}
