//! The Fides benchmark: one command, two workloads, end-to-end and
//! per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path fidesbench/Cargo.toml -- \
//!     --workload rmw_uniform --seed 1 --seconds 48 --trace 0
//! ```
//!
//! Every run starts a 4-server cluster (10 000 items per shard, batch
//! limit 100, pipelined WAL with fsync) over a fresh directory under
//! `.bench_data/`, drives it from one process with two client threads
//! on the instant in-process network, checks the results, restarts the
//! cluster through verified recovery, and prints one JSON object as the
//! last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` is a separate run that reports the per-layer
//! metrics instead. `README.md` beside this file lists every metric,
//! the workload that moves it, and how the metrics interact.

mod sched;
mod stats;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fides_core::client::{
    finalize_outcomes, PendingCommit, ReadStats, TxnOutcome, UnverifiedOutcome,
};
use fides_core::messages::{CommitProtocol, TxnHandle};
use fides_core::recovery::PersistenceConfig;
use fides_core::system::{ClusterConfig, FidesCluster};
use fides_core::{ClientSession, ReadConsistency};
use fides_crypto::encoding::Encodable;
use fides_crypto::schnorr::{KeyPair, PublicKey};
use fides_durability::{SyncPolicy, WalConfig};
use fides_ledger::{Block, Decision, TamperProofLog};
use fides_store::{Key, Value};
use fides_telemetry::Stage;
use fides_workload::{KeyChooser, WorkloadConfig, WorkloadGenerator};

const SERVERS: u32 = 4;
const ITEMS_PER_SHARD: usize = 10_000;
const BATCH_LIMIT: usize = 100;
const FLUSH_INTERVAL: Duration = Duration::from_millis(10);
const INITIAL_VALUE: i64 = 100;
/// Each RMW transaction adds 1 to this many distinct keys.
const OPS_PER_TXN: usize = 5;
/// Client threads, one `ClientSession` each (the machine has 2 cores).
const SESSIONS: u32 = 2;
/// Commits each session keeps in flight. Light enough that the two
/// cores are not saturated: at 16 the commit rate tracks how much CPU
/// the host grants the machine rather than the program's cost.
const DEPTH: usize = 4;
const STALENESS: ReadConsistency = ReadConsistency::BoundedStaleness(64);
const ZIPF_THETA: f64 = 0.9;
/// Load before each load phase that is run but not counted.
const WARMUP: Duration = Duration::from_secs(1);
/// How long in-flight commits may take to resolve after a window ends
/// before they count as failed.
const GRACE: Duration = Duration::from_secs(10);
/// A shared host can switch between a fast and a slow processor speed
/// every few seconds, so timed work is sampled across the run, not in
/// one burst. The load runs in this many segments, with one throwaway cold
/// start timed after each.
const SEGMENTS: f64 = 6.0;
/// Share of `--seconds` a traced run spends restarting the cluster
/// after the load; the mean restart is reported, since a median would
/// flip between the two speeds. An untraced run restarts once, as a
/// check.
const RESTART_SHARE: f64 = 0.25;
/// Times a commit given up by its session is executed again before it
/// counts as failed.
const MAX_RESUBMITS: u32 = 10;
/// The audited chain: waves of conflict-free transactions, each wave
/// executed first and then submitted together, so it lands in one block.
const AUDIT_WAVES: usize = 2;
const WAVE_TXNS: usize = 10;
/// Share of `--seconds` a traced run spends auditing that chain, before
/// any load. An untraced run audits it once, as a check, and gives all
/// of `--seconds` to the load phases.
const AUDIT_SHARE: f64 = 0.25;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    RmwUniform,
    ReadMostlyZipf,
}

/// One closed-loop load phase: the share of verified read-only
/// transactions (the rest are RMW commits) and the key distribution.
#[derive(Clone, Copy, Debug)]
struct Mix {
    read_pct: u64,
    zipf: bool,
}

const RMW_UNIFORM: Mix = Mix {
    read_pct: 0,
    zipf: false,
};
const READS_UNIFORM: Mix = Mix {
    read_pct: 100,
    zipf: false,
};
const READ_MOSTLY_ZIPF: Mix = Mix {
    read_pct: 90,
    zipf: true,
};

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "rmw_uniform" => Some(Workload::RmwUniform),
            "read_mostly_zipf" => Some(Workload::ReadMostlyZipf),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::RmwUniform => "rmw_uniform",
            Workload::ReadMostlyZipf => "read_mostly_zipf",
        }
    }

    /// The load phases after the audit phase, with their shares of the
    /// time left for load. The first phase with commits gives the commit
    /// metrics, the first with reads the read metrics; `rmw_uniform`
    /// measures reads in a shorter phase of their own.
    fn phases(self) -> Vec<(Mix, f64)> {
        match self {
            Workload::RmwUniform => vec![(RMW_UNIFORM, 2.0 / 3.0), (READS_UNIFORM, 1.0 / 3.0)],
            Workload::ReadMostlyZipf => vec![(READ_MOSTLY_ZIPF, 1.0)],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// SplitMix64: derives independent per-session seeds from `--seed` and
/// drives each session's read/write coin.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next()
}

fn cluster_config(dir: &Path) -> ClusterConfig {
    ClusterConfig::new(SERVERS)
        .items_per_shard(ITEMS_PER_SHARD)
        .batch_size(BATCH_LIMIT)
        .protocol(CommitProtocol::TfCommit)
        .flush_interval(FLUSH_INTERVAL)
        .initial_value(INITIAL_VALUE)
        .max_clients(64)
        .persistence(PersistenceConfig::files(dir).wal(WalConfig {
            sync: SyncPolicy::Pipelined,
            ..WalConfig::default()
        }))
}

fn generator(
    mix: Mix,
    seed: u64,
    conflict_free_window: usize,
) -> WorkloadGenerator<fn(u32, usize) -> Key> {
    let mut config = WorkloadConfig::paper_default(SERVERS, ITEMS_PER_SHARD)
        .ops_per_txn(OPS_PER_TXN)
        .seed(seed)
        .conflict_free_window(conflict_free_window);
    if mix.zipf {
        config = config.chooser(KeyChooser::Zipfian { theta: ZIPF_THETA });
    }
    WorkloadGenerator::new(config, FidesCluster::key_name as fn(u32, usize) -> Key)
}

fn plus_one(keys: &[Key], values: Vec<Value>) -> Vec<(Key, Value)> {
    keys.iter()
        .zip(values)
        .map(|(k, v)| (k.clone(), Value::from_i64(v.as_i64().unwrap_or(0) + 1)))
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one load phase (or one session of it) did.
#[derive(Default)]
struct LoadStats {
    window_s: f64,
    /// Latency of each commit and read that completed inside the
    /// measured window, start of the transaction to verified result.
    commit_ms: Vec<f64>,
    read_ms: Vec<f64>,
    commits_attempted: u64,
    committed: u64,
    aborted: u64,
    commit_failed: u64,
    /// Commits executed again after the session gave up on them.
    resubmits: u64,
    reads_attempted: u64,
    read_failed: u64,
    /// Client-side spans, summed over resolved commits.
    exec_ns: u128,
    outcome_wait_ns: u128,
    finalize_ns: u128,
    resolved: u64,
    read_stats: ReadStats,
    client_sched: sched::CpuWait,
    violations: Vec<String>,
}

impl LoadStats {
    /// Adds another session's (or segment's) counts; the measured
    /// window stays the caller's to set.
    fn merge(&mut self, other: LoadStats) {
        self.commit_ms.extend(other.commit_ms);
        self.read_ms.extend(other.read_ms);
        self.commits_attempted += other.commits_attempted;
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.commit_failed += other.commit_failed;
        self.resubmits += other.resubmits;
        self.reads_attempted += other.reads_attempted;
        self.read_failed += other.read_failed;
        self.exec_ns += other.exec_ns;
        self.outcome_wait_ns += other.outcome_wait_ns;
        self.finalize_ns += other.finalize_ns;
        self.resolved += other.resolved;
        self.read_stats.merge(&other.read_stats);
        self.client_sched.add(other.client_sched);
        self.violations.extend(other.violations);
    }

    fn commit_tps(&self) -> f64 {
        self.commit_ms.len() as f64 / self.window_s
    }

    fn read_tps(&self) -> f64 {
        self.read_ms.len() as f64 / self.window_s
    }
}

/// A commit in flight: when its transaction started, how long
/// execution took, and when the end-transaction request went out.
struct InFlight {
    keys: Vec<Key>,
    started: Instant,
    exec: Duration,
    submitted: Instant,
    resubmits: u32,
}

/// One client session's closed loop over a phase.
struct Session {
    client: ClientSession,
    keys: WorkloadGenerator<fn(u32, usize) -> Key>,
    coin: SplitMix,
    mix: Mix,
    server_pks: Vec<PublicKey>,
    window: (Instant, Instant),
    pending: Vec<PendingCommit>,
    in_flight: HashMap<TxnHandle, InFlight>,
    out: LoadStats,
}

impl Session {
    fn in_window(&self, at: Instant) -> bool {
        at >= self.window.0 && at < self.window.1
    }

    fn run(mut self) -> LoadStats {
        let end = self.window.1;
        loop {
            let now = Instant::now();
            if now >= end {
                if self.pending.is_empty() || now >= end + GRACE {
                    break;
                }
                self.serve(now + Duration::from_millis(50));
                continue;
            }
            while self.pending.len() < DEPTH && Instant::now() < end {
                let keys = self.keys.next_txn().keys;
                if self.coin.next() % 100 < self.mix.read_pct {
                    self.read(&keys);
                    // Outcomes that arrived during the read were stashed
                    // by the session; resolve them now, without waiting,
                    // so a commit is timed to within one read of its
                    // arrival.
                    self.serve(Instant::now());
                } else {
                    self.submit(keys);
                }
            }
            self.serve(Instant::now() + Duration::from_millis(2));
        }
        // Still unresolved after the grace period: a failure.
        if !self.in_flight.is_empty() {
            eprintln!(
                "fidesbench: failed: {} commits without an outcome after {GRACE:?}",
                self.in_flight.len()
            );
        }
        self.out.commit_failed += self.in_flight.len() as u64;
        self.out.read_stats = self.client.take_read_stats();
        self.out.client_sched = sched::thread_self().unwrap_or_default();
        self.out
    }

    fn read(&mut self, keys: &[Key]) {
        let started = Instant::now();
        self.out.reads_attempted += 1;
        match self.client.read_only(keys, STALENESS) {
            Ok(values) => {
                let done = Instant::now();
                // Values only ever grow from their initial value.
                if values.iter().any(|v| {
                    v.as_ref()
                        .and_then(Value::as_i64)
                        .is_none_or(|x| x < INITIAL_VALUE)
                }) {
                    self.out
                        .violations
                        .push(format!("verified read of {keys:?} returned {values:?}"));
                }
                if self.in_window(done) {
                    self.out.read_ms.push(ms(done - started));
                }
            }
            Err(e) => {
                eprintln!("fidesbench: failed: verified read: {e}");
                self.out.read_failed += 1;
            }
        }
    }

    fn submit(&mut self, keys: Vec<Key>) {
        self.out.commits_attempted += 1;
        self.execute(keys, Instant::now(), 0);
    }

    /// Executes the transaction over `keys` and submits its commit.
    fn execute(&mut self, keys: Vec<Key>, started: Instant, resubmits: u32) {
        let exec_started = Instant::now();
        let mut txn = self.client.begin();
        let executed = self
            .client
            .read_all(&mut txn, &keys)
            .and_then(|values| self.client.write_all(&mut txn, &plus_one(&keys, values)));
        if let Err(e) = executed {
            eprintln!("fidesbench: failed: executing a transaction: {e}");
            self.out.commit_failed += 1;
            return;
        }
        let exec = exec_started.elapsed();
        let commit = self.client.commit_async(txn);
        self.in_flight.insert(
            commit.handle,
            InFlight {
                keys,
                started,
                exec,
                submitted: Instant::now(),
                resubmits,
            },
        );
        self.pending.push(commit);
    }

    /// Receives outcomes until `deadline`, records each commit at its
    /// verified outcome, and executes again the commits the session gave
    /// up on.
    fn serve(&mut self, deadline: Instant) {
        let resolved = self.client.drain_outcomes(&mut self.pending, deadline);
        if !resolved.is_empty() {
            self.record(resolved);
        }
        // The session drops a commit whose timestamp the leader rejected
        // too often; the leader never queued it, so, like an application,
        // execute it again.
        let given_up: Vec<TxnHandle> = self
            .in_flight
            .keys()
            .filter(|h| !self.pending.iter().any(|p| p.handle == **h))
            .copied()
            .collect();
        for handle in given_up {
            let f = self.in_flight.remove(&handle).expect("listed above");
            if f.resubmits >= MAX_RESUBMITS {
                eprintln!("fidesbench: failed: a commit given up {MAX_RESUBMITS} times");
                self.out.commit_failed += 1;
            } else {
                self.out.resubmits += 1;
                self.execute(f.keys, f.started, f.resubmits + 1);
            }
        }
    }

    /// Verifies the collective signatures of `resolved` and records each
    /// commit at its verified outcome.
    fn record(&mut self, resolved: Vec<UnverifiedOutcome>) {
        let drained = Instant::now();
        let handles: Vec<TxnHandle> = resolved.iter().map(|o| o.handle).collect();
        let outcomes = finalize_outcomes(resolved, &self.server_pks, CommitProtocol::TfCommit);
        let done = Instant::now();
        self.out.finalize_ns += (done - drained).as_nanos();
        for (handle, outcome) in handles.iter().zip(outcomes) {
            let Some(f) = self.in_flight.remove(handle) else {
                continue;
            };
            self.out.resolved += 1;
            self.out.exec_ns += f.exec.as_nanos();
            self.out.outcome_wait_ns += (drained - f.submitted).as_nanos();
            match outcome {
                TxnOutcome::Committed { .. } => {
                    self.out.committed += 1;
                    if self.in_window(done) {
                        self.out.commit_ms.push(ms(done - f.started));
                    }
                }
                TxnOutcome::Aborted { .. } => self.out.aborted += 1,
                TxnOutcome::Anomaly { .. } => {
                    eprintln!("fidesbench: failed: unverifiable outcome");
                    self.out.commit_failed += 1;
                }
            }
        }
    }
}

/// Runs `mix` from `SESSIONS` client threads: `warmup`, then a measured
/// `window`, then a drain of the commits still in flight.
fn run_load(
    cluster: &FidesCluster,
    mix: Mix,
    seed: u64,
    warmup: Duration,
    window: Duration,
    next_client: &mut u32,
    trace_sample: u64,
) -> LoadStats {
    // Each session reads its trace sampling rate once, when created.
    std::env::set_var("FIDES_TRACE_SAMPLE", trace_sample.to_string());
    let start = Instant::now() + Duration::from_millis(5);
    let measured = (start + warmup, start + warmup + window);
    let sessions: Vec<Session> = (0..SESSIONS)
        .map(|_| {
            let id = *next_client;
            *next_client += 1;
            Session {
                client: cluster.client(id),
                keys: generator(mix, derive_seed(seed, 2 * id as u64), 1),
                coin: SplitMix(derive_seed(seed, 2 * id as u64 + 1)),
                mix,
                server_pks: cluster.server_pks().to_vec(),
                window: measured,
                pending: Vec::new(),
                in_flight: HashMap::new(),
                out: LoadStats::default(),
            }
        })
        .collect();
    let mut total = LoadStats {
        window_s: window.as_secs_f64(),
        ..LoadStats::default()
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(i, session)| {
                std::thread::Builder::new()
                    .name(format!("{}-{i}", sched::CLIENT_THREAD))
                    .spawn_scoped(scope, move || {
                        let wait = start.saturating_duration_since(Instant::now());
                        std::thread::sleep(wait);
                        session.run()
                    })
                    .expect("spawn client thread")
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(stats) => total.merge(stats),
                Err(_) => total.violations.push("a client thread panicked".into()),
            }
        }
    });
    total
}

/// Commits `AUDIT_WAVES` waves of `WAVE_TXNS` conflict-free RMW
/// transactions from one session. Returns (attempted, committed, failed).
fn build_audit_chain(cluster: &FidesCluster, seed: u64, id: u32) -> (u64, u64, u64) {
    let mut client = cluster.client(id);
    let mut keys = generator(RMW_UNIFORM, seed, WAVE_TXNS);
    let (mut attempted, mut committed, mut failed) = (0, 0, 0);
    for _ in 0..AUDIT_WAVES {
        let mut txns = Vec::with_capacity(WAVE_TXNS);
        for _ in 0..WAVE_TXNS {
            attempted += 1;
            let spec = keys.next_txn();
            let mut txn = client.begin();
            let executed = client
                .read_all(&mut txn, &spec.keys)
                .and_then(|values| client.write_all(&mut txn, &plus_one(&spec.keys, values)));
            match executed {
                Ok(()) => txns.push(txn),
                Err(_) => failed += 1,
            }
        }
        let mut pending: Vec<PendingCommit> =
            txns.into_iter().map(|t| client.commit_async(t)).collect();
        let submitted = pending.len() as u64;
        let resolved = client.drain_outcomes(&mut pending, Instant::now() + GRACE);
        let outcomes = finalize_outcomes(resolved, cluster.server_pks(), CommitProtocol::TfCommit);
        let ok = outcomes.iter().filter(|o| o.committed()).count() as u64;
        let aborted = outcomes
            .iter()
            .filter(|o| matches!(o, TxnOutcome::Aborted { .. }))
            .count() as u64;
        committed += ok;
        failed += submitted - ok - aborted;
    }
    (attempted, committed, failed)
}

/// Removes the run's data directory however the run ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's directory is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Mean wall time of `f` in microseconds over `items`, each repeated
/// until the pass takes at least 20 ms.
fn mean_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || started.elapsed() < Duration::from_millis(20) {
        for item in items {
            f(item);
            calls += 1;
        }
    }
    started.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// End-of-run consistency checks on a settled cluster. Returns the
/// violations found.
fn check_cluster(cluster: &FidesCluster, verified_commits: u64, failed: u64) -> Vec<String> {
    let mut violations = Vec::new();
    cluster.flush();
    if cluster.settle(Duration::from_secs(20)).is_none() {
        violations.push("servers did not converge to one tip height".into());
    }
    let logs: Vec<TamperProofLog> = (0..SERVERS)
        .map(|s| cluster.server_state(s).log())
        .collect();
    for (s, log) in logs.iter().enumerate() {
        if log.next_height() != logs[0].next_height() || log.tip_hash() != logs[0].tip_hash() {
            violations.push(format!(
                "server {s} ends at height {} with a different tip than server 0 (height {})",
                log.next_height(),
                logs[0].next_height()
            ));
        }
        if let Err(fault) = fides_ledger::validate_chain(log, cluster.server_pks()) {
            violations.push(format!("server {s}: chain rejected: {fault:?}"));
        }
    }
    let chain_commits: u64 = logs[0]
        .iter()
        .filter(|b| b.decision == Decision::Commit)
        .map(|b| b.txns.len() as u64)
        .sum();
    let sum: i64 = (0..SERVERS)
        .map(|s| {
            cluster.server_state(s).with_shard(|shard| {
                shard
                    .keys()
                    .map(|k| shard.read(k).and_then(|st| st.value.as_i64()).unwrap_or(0))
                    .sum::<i64>()
            })
        })
        .sum();
    let initial = INITIAL_VALUE * (SERVERS as i64) * ITEMS_PER_SHARD as i64;
    if sum != initial + OPS_PER_TXN as i64 * chain_commits as i64 {
        violations.push(format!(
            "shard values sum to {sum}, expected {initial} + {OPS_PER_TXN} x {chain_commits} \
             committed transactions"
        ));
    }
    if chain_commits < verified_commits || chain_commits > verified_commits + failed {
        violations.push(format!(
            "the chain commits {chain_commits} transactions; clients verified {verified_commits} \
             and {failed} operations failed"
        ));
    }
    violations
}

/// Everything the run measured, before it is turned into metrics.
struct Run {
    setup_s: f64,
    setup_s_each: Vec<f64>,
    audit_ms_per_block: f64,
    /// Each audit's and each restart's time per block.
    audit_ms_each: Vec<f64>,
    recover_ms_each: Vec<f64>,
    audit_blocks: usize,
    /// Sorted latencies of the commits and reads in the measured windows.
    commit_ms: Vec<f64>,
    commit_tps: f64,
    commits_attempted: u64,
    committed: u64,
    aborted: u64,
    commit_failed: u64,
    resubmits: u64,
    read_ms: Vec<f64>,
    read_tps: f64,
    reads_attempted: u64,
    read_failed: u64,
    /// Committed-transaction rate of the traced segments of a traced
    /// run's commit phase over that of its untraced segments.
    trace_overhead: f64,
    recover_ms_per_block: f64,
    blocks: u64,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    layers: Vec<(String, f64, &'static str)>,
}

/// Starts a cluster over `dir`; returns it with the seconds it took to
/// be ready.
fn timed_start(dir: &Path) -> Result<(FidesCluster, f64), String> {
    let started = Instant::now();
    let cluster = FidesCluster::try_start(cluster_config(dir)).map_err(|e| e.to_string())?;
    Ok((cluster, started.elapsed().as_secs_f64()))
}

/// Times one cold start of a throwaway cluster over the fresh `dir`.
fn cold_start(dir: &Path) -> Result<f64, String> {
    let (cluster, seconds) = timed_start(dir)?;
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    Ok(seconds)
}

fn run(args: &Args, data: &Path) -> Result<Run, String> {
    let main_dir = data.join("cluster");
    // Set-up: the kept cluster's start, and throwaway cold starts during
    // the load (below); `setup_s` is their median.
    let (cluster, first_setup) = timed_start(&main_dir)?;
    let mut setups = vec![first_setup];
    let sched_before = sched::snapshot();
    let mut violations = Vec::new();
    let mut next_client = 0u32;

    // The audited chain, then audits of it: for the audit phase's share
    // of a traced run, once in an untraced one.
    let (mut attempted, prelude_committed, mut failed) =
        build_audit_chain(&cluster, args.seed, next_client);
    next_client += 1;
    let audit_for = if args.trace {
        args.seconds.mul_f64(AUDIT_SHARE)
    } else {
        Duration::ZERO
    };
    let audit_start = Instant::now();
    let mut audit_ms = Vec::new();
    let mut audit_blocks = 0;
    while audit_ms.is_empty() || audit_start.elapsed() < audit_for {
        let started = Instant::now();
        let report = cluster.audit();
        let elapsed = started.elapsed();
        attempted += 1;
        if !report.is_clean() {
            violations.push(format!("audit: {report}"));
        }
        audit_blocks = report.blocks_replayed;
        audit_ms.push(ms(elapsed) / report.blocks_replayed.max(1) as f64);
    }

    // The load phases, each in segments with a throwaway cold start
    // after every segment. A traced run traces the middle two of every
    // four segments of its commit phase, to measure tracing cost.
    let load_for = args.seconds - audit_for;
    let phases: Vec<(Mix, Duration)> = args
        .workload
        .phases()
        .into_iter()
        .map(|(mix, share)| (mix, load_for.mul_f64(share)))
        .collect();
    let commit_phase = phases.iter().position(|(mix, _)| mix.read_pct < 100);
    let read_phase = phases.iter().position(|(mix, _)| mix.read_pct > 0);
    let (commit_phase, read_phase) = commit_phase.zip(read_phase).expect("commits and reads");
    let (mut untraced, mut traced) = (LoadStats::default(), LoadStats::default());
    let mut results = Vec::with_capacity(phases.len());
    for (i, (mix, window)) in phases.into_iter().enumerate() {
        let segments = (window.as_secs_f64() / load_for.as_secs_f64() * SEGMENTS)
            .round()
            .max(1.0) as u32;
        let mut stats = LoadStats::default();
        for j in 0..segments {
            let sample = u64::from(args.trace && i == commit_phase && matches!(j % 4, 1 | 2));
            let warmup = if j == 0 { WARMUP } else { Duration::ZERO };
            let segment = run_load(
                &cluster,
                mix,
                args.seed,
                warmup,
                window / segments,
                &mut next_client,
                sample,
            );
            if i == commit_phase {
                let into = if sample == 0 {
                    &mut untraced
                } else {
                    &mut traced
                };
                into.window_s += segment.window_s;
                into.commit_ms.extend_from_slice(&segment.commit_ms);
            }
            stats.window_s += segment.window_s;
            stats.merge(segment);
            setups.push(cold_start(&data.join(format!("setup-{}", setups.len())))?);
        }
        attempted += stats.commits_attempted + stats.reads_attempted;
        failed += stats.commit_failed + stats.read_failed;
        violations.extend(stats.violations.iter().cloned());
        results.push(stats);
    }
    let verified_commits = prelude_committed + results.iter().map(|s| s.committed).sum::<u64>();
    violations.extend(check_cluster(&cluster, verified_commits, failed));

    let log = cluster.server_state(0).log();
    let blocks = log.next_height();
    let mut layers = Vec::new();
    if args.trace {
        let mut clients = sched::CpuWait::default();
        for stats in &results {
            clients.add(stats.client_sched);
        }
        layers = per_layer(
            &cluster,
            &log,
            (&results[commit_phase], &results[read_phase]),
            (&sched_before, clients),
            attempted,
        );
    }
    cluster.shutdown();
    if args.trace {
        layers.push((
            "wal.bytes_per_txn".into(),
            dir_bytes(&main_dir) as f64 / verified_commits.max(1) as f64,
            "B",
        ));
    }

    // Restart over the same directory through verified recovery: for
    // the restart share of a traced run, once in an untraced one.
    let restart_for = if args.trace {
        args.seconds.mul_f64(RESTART_SHARE)
    } else {
        Duration::ZERO
    };
    let restart_start = Instant::now();
    let mut restarts = Vec::new();
    while restarts.is_empty() || restart_start.elapsed() < restart_for {
        let (restarted, seconds) = timed_start(&main_dir)?;
        restarts.push(seconds * 1e3);
        for s in 0..SERVERS {
            let height = restarted.server_state(s).next_height();
            if height != blocks {
                violations.push(format!(
                    "restarted server {s} recovered height {height}, expected {blocks}"
                ));
            }
        }
        restarted.shutdown();
    }

    let (commits, reads) = (&results[commit_phase], &results[read_phase]);
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    Ok(Run {
        setup_s: stats::median(&setups).unwrap_or(0.0),
        setup_s_each: setups,
        audit_ms_per_block: stats::median(&audit_ms).unwrap_or(0.0),
        audit_blocks,
        audit_ms_each: audit_ms,
        recover_ms_each: restarts.iter().map(|r| r / blocks.max(1) as f64).collect(),
        trace_overhead: if traced.window_s > 0.0 {
            traced.commit_tps() / untraced.commit_tps()
        } else {
            0.0
        },
        commit_ms: sorted(&commits.commit_ms),
        commit_tps: commits.commit_tps(),
        commits_attempted: commits.commits_attempted,
        committed: commits.committed,
        aborted: commits.aborted,
        commit_failed: commits.commit_failed,
        resubmits: commits.resubmits,
        read_ms: sorted(&reads.read_ms),
        read_tps: reads.read_tps(),
        reads_attempted: reads.reads_attempted,
        read_failed: reads.read_failed,
        recover_ms_per_block: restarts.iter().sum::<f64>()
            / restarts.len() as f64
            / blocks.max(1) as f64,
        blocks,
        attempted,
        failed,
        violations,
        layers,
    })
}

/// The per-layer metrics, read while the cluster still runs.
fn per_layer(
    cluster: &FidesCluster,
    log: &TamperProofLog,
    (commits, reads): (&LoadStats, &LoadStats),
    (sched_before, clients): (&HashMap<u64, (sched::Role, sched::CpuWait)>, sched::CpuWait),
    ops: u64,
) -> Vec<(String, f64, &'static str)> {
    let sched_after = sched::snapshot();
    let m = cluster.metrics();
    let rounds = cluster.round_stats();
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let n_rounds = rounds.rounds as f64;
    let resolved = commits.resolved as f64;
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push((
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
            unit,
        ));
    };

    // client: the benchmark's own spans around the client calls.
    let round_ms = per(rounds.round_nanos as f64 / 1e6, n_rounds);
    let wait_ms = per(commits.outcome_wait_ns as f64 / 1e6, resolved);
    put(
        "client.exec_ms",
        per(commits.exec_ns as f64 / 1e6, resolved),
        "ms",
    );
    put("client.outcome_wait_ms", wait_ms, "ms");
    put(
        "client.finalize_us_per_txn",
        per(commits.finalize_ns as f64 / 1e3, resolved),
        "us",
    );
    put("client.unattributed_ms", wait_ms - round_ms, "ms");
    put(
        "client.resubmits_per_1k",
        per(
            commits.resubmits as f64 * 1e3,
            commits.commits_attempted as f64,
        ),
        "count",
    );

    // server: commit rounds and their six stages.
    put("commit.round_ms", round_ms, "ms");
    for stage in Stage::ALL {
        let h = m.histogram(stage.metric_name());
        put(
            &format!("commit.stage.{}.ms_per_round", stage.name()),
            per(h.sum as f64 / 1e6, n_rounds),
            "ms",
        );
    }
    put(
        "commit.txns_per_block",
        per(
            (rounds.committed_txns + rounds.aborted_txns) as f64,
            n_rounds,
        ),
        "count",
    );
    put(
        "commit.round_timeouts",
        m.counter("commit.round.timeouts") as f64,
        "count",
    );
    put(
        "commit.inflight_rounds_max",
        m.gauges.get("commit.inflight_rounds").map_or(0, |g| g.max) as f64,
        "count",
    );

    // occ / ledger blocks.
    let abort_blocks = log.iter().filter(|b| b.decision == Decision::Abort).count();
    put(
        "occ.abort_block_share",
        per(abort_blocks as f64, log.len() as f64),
        "ratio",
    );
    put(
        "occ.abort_ratio",
        per(commits.aborted as f64, commits.commits_attempted as f64),
        "ratio",
    );

    // store.
    let mht_ms: f64 = cluster.mht_stats().iter().map(|s| ms(s.elapsed)).sum();
    put(
        "store.mht_update_ms_per_block",
        per(mht_ms, log.len() as f64),
        "ms",
    );
    let latest = log
        .iter()
        .filter(|b| b.decision == Decision::Commit)
        .filter_map(Block::max_txn_ts)
        .max();
    let tree_ms = latest.map_or(0.0, |ts| {
        cluster.server_state(0).with_shard(|shard| {
            let started = Instant::now();
            std::hint::black_box(shard.tree_at_version(ts).root());
            ms(started.elapsed())
        })
    });
    put("store.tree_at_version_ms", tree_ms, "ms");

    // crypto, on the run's own blocks and co-signatures.
    let sample: Vec<&Block> = log.blocks().iter().rev().take(256).collect();
    let pks = cluster.server_pks();
    let kp = KeyPair::from_seed(b"fidesbench-envelope");
    let envelopes: Vec<fides_net::Envelope> = sample
        .iter()
        .map(|b| {
            fides_net::Envelope::sign(
                &kp,
                fides_net::NodeId::new(0),
                fides_net::NodeId::new(1),
                b.encode(),
            )
        })
        .collect();
    let pk = kp.public_key();
    put(
        "crypto.envelope_verify_us",
        mean_us(&envelopes, |e| assert!(std::hint::black_box(e.verify(&pk)))),
        "us",
    );
    put(
        "crypto.cosi_verify_us",
        mean_us(&sample, |b| {
            assert!(std::hint::black_box(
                b.cosign.verify(&b.signing_bytes(), pks)
            ))
        }),
        "us",
    );
    put(
        "crypto.block_hash_us",
        mean_us(&sample, |b| {
            std::hint::black_box(b.hash());
        }),
        "us",
    );

    // ledger.
    let started = Instant::now();
    std::hint::black_box(fides_ledger::validate_chain(log, pks).is_ok());
    put(
        "ledger.validate_chain_ms_per_block",
        per(ms(started.elapsed()), log.len() as f64),
        "ms",
    );
    let logs: Vec<TamperProofLog> = (0..SERVERS)
        .map(|s| cluster.server_state(s).log())
        .collect();
    let started = Instant::now();
    let selection = fides_ledger::select_canonical_log(&logs, pks);
    put(
        "ledger.select_log_ms_per_block",
        per(ms(started.elapsed()), selection.canonical.len() as f64),
        "ms",
    );

    // durability.
    let fsync = m.histogram("durability.fsync_ns");
    put(
        "wal.fsync_p50_us",
        fsync.percentile(50.0) as f64 / 1e3,
        "us",
    );
    put(
        "wal.fsync_p99_us",
        fsync.percentile(99.0) as f64 / 1e3,
        "us",
    );
    put(
        "wal.blocks_per_fsync",
        m.histogram("durability.batch_blocks").mean(),
        "count",
    );
    put(
        "wal.queue_peak",
        m.gauges.get("durability.queue_depth").map_or(0, |g| g.max) as f64,
        "count",
    );

    // net: every operation of the run, commits and reads.
    let net = cluster.network_stats();
    put(
        "net.msgs_per_txn",
        per(net.messages_sent() as f64, ops as f64),
        "count",
    );
    put(
        "net.bytes_per_txn",
        per(net.bytes_sent() as f64, ops as f64),
        "B",
    );

    // read plane.
    let rs = &reads.read_stats;
    put(
        "read.verify_us_per_key",
        per(rs.verify_nanos() as f64 / 1e3, rs.keys_read as f64),
        "us",
    );
    put(
        "read.registry_hit_ratio",
        per(
            rs.registry.hits as f64,
            (rs.registry.hits + rs.registry.misses) as f64,
        ),
        "ratio",
    );
    put(
        "read.refused_per_1k",
        per(
            m.counter("read.refused") as f64 * 1e3,
            reads.reads_attempted as f64,
        ),
        "count",
    );
    let (owner, mirror) = (
        m.counter("read.serve.owner"),
        m.counter("read.serve.mirror"),
    );
    put(
        "read.mirror_share",
        per(mirror as f64, (owner + mirror) as f64),
        "ratio",
    );
    put(
        "read.staleness_p50",
        rs.staleness.snapshot().percentile(50.0) as f64,
        "blocks",
    );

    // OS scheduler, per thread role, per 1000 operations.
    let mut roles = sched::by_role(sched_before, &sched_after);
    roles.insert(sched::Role::Client, clients);
    for role in sched::Role::ALL {
        let cw = roles.get(&role).copied().unwrap_or_default();
        put(
            &format!("sched.{}.cpu_ms_per_1k_ops", role.name()),
            per(cw.cpu_ns as f64 / 1e6 * 1e3, ops as f64),
            "ms",
        );
        put(
            &format!("sched.{}.wait_ms_per_1k_ops", role.name()),
            per(cw.wait_ns as f64 / 1e6 * 1e3, ops as f64),
            "ms",
        );
    }
    out
}

/// A latency distribution's sample count and percentiles, as JSON.
fn percentiles(sorted: &[f64]) -> String {
    let mut fields = vec![format!("\"samples\": {}", sorted.len())];
    for p in [50.0, 75.0, 90.0, 95.0, 99.0] {
        let v = stats::percentile_sorted(sorted, p).unwrap_or(0.0);
        fields.push(format!("\"p{p}\": {}", json_num(v)));
    }
    format!("{{{}}}", fields.join(", "))
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The git revision of a checkout, read from `.git` in the working
/// directory (the benchmark reads nothing outside it).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev
    }
}

fn machine() -> (String, String, usize) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    (cpu, kernel, nproc)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "fidesbench: {e}\nusage: fidesbench --workload rmw_uniform|read_mostly_zipf \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let data = DataDir(PathBuf::from(".bench_data").join(std::process::id().to_string()));
    let _ = std::fs::remove_dir_all(&data.0);
    let run = match run(&args, &data.0) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("fidesbench: {e}");
            drop(data);
            std::process::exit(1);
        }
    };
    drop(data);

    let pct = |v: &[f64], p| stats::percentile_sorted(v, p).unwrap_or(0.0);
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let mut layers = run.layers.clone();
        layers.push(("audit.ms_per_block".into(), run.audit_ms_per_block, "ms"));
        layers.push((
            "recovery.ms_per_block".into(),
            run.recover_ms_per_block,
            "ms",
        ));
        layers.push(("trace.overhead_ratio".into(), run.trace_overhead, "ratio"));
        layers
    } else {
        vec![
            ("setup_s".into(), run.setup_s, "s"),
            ("commit_tps".into(), run.commit_tps, "1/s"),
            ("commit_p50_ms".into(), pct(&run.commit_ms, 50.0), "ms"),
            (
                "commit_ratio".into(),
                run.committed as f64 / run.commits_attempted.max(1) as f64,
                "ratio",
            ),
            ("read_tps".into(), run.read_tps, "1/s"),
            ("read_p50_ms".into(), pct(&run.read_ms, 50.0), "ms"),
            ("read_p75_ms".into(), pct(&run.read_ms, 75.0), "ms"),
        ]
    };

    let (cpu, kernel, nproc) = machine();
    let correct = run.violations.is_empty();
    let record = format!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"kernel\": {}, \
         \"warmup\": {}, \"network\": \"instant in-process (NetworkConfig::default)\", \
         \"commit_ms\": {}, \"read_ms\": {}, \"commits_attempted\": {}, \
         \"committed\": {}, \"aborted\": {}, \"commit_failed\": {}, \"resubmits\": {}, \"reads_attempted\": {}, \
         \"read_failed\": {}, \"audits\": {}, \"audit_blocks\": {}, \"chain_blocks\": {}, \
         \"setup_s_each\": {:?}, \"audit_ms_per_block_each\": {:?}, \"recover_ms_per_block_each\": {:?}, \"violations\": [{}]}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds.as_secs(),
        args.trace as u8,
        json_str(&git_rev()),
        json_str(&cpu),
        json_str(&kernel),
        json_str(&format!(
            "{} s of load before each load phase is run but not counted; set-up is the \
             median of {} cold starts spread over the run, recovery the mean of {} restarts",
            WARMUP.as_secs_f64(),
            run.setup_s_each.len(),
            run.recover_ms_each.len()
        )),
        percentiles(&run.commit_ms),
        percentiles(&run.read_ms),
        run.commits_attempted,
        run.committed,
        run.aborted,
        run.commit_failed,
        run.resubmits,
        run.reads_attempted,
        run.read_failed,
        run.audit_ms_each.len(),
        run.audit_blocks,
        run.blocks,
        run.setup_s_each,
        run.audit_ms_each,
        run.recover_ms_each,
        run.violations.iter().map(|v| json_str(v)).collect::<Vec<_>>().join(", "),
    );
    println!("{record}");
    for v in &run.violations {
        eprintln!("fidesbench: check failed: {v}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
