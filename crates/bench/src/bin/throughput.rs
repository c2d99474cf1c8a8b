//! Closed-loop multi-client throughput driver — the perf-trajectory
//! harness behind `BENCH_PR3.json`.
//!
//! Each client thread runs read-modify-write transactions back to back
//! (closed loop) against a cluster with durability on, for a fixed wall
//! duration, recording per-transaction latency. The driver reports
//! committed txns/s plus p50/p99 latency, optionally as one JSON object
//! for machine consumption, and can gate CI against a checked-in
//! baseline (`--check-baseline`).
//!
//! ```text
//! throughput --servers 4 --clients 8 --duration 5 --batch 100 \
//!            --policy pipelined --json
//! ```

use std::time::{Duration, Instant};

use fides_core::client::{finalize_outcomes, PendingCommit, ReadStats, UnverifiedOutcome};
use fides_core::messages::CommitProtocol;
use fides_core::recovery::PersistenceConfig;
use fides_core::system::{ClusterConfig, FidesCluster};
use fides_core::{Behavior, ReadConsistency};
use fides_durability::{SyncPolicy, WalConfig};
use fides_telemetry::trace::{assemble, to_chrome_json};
use fides_telemetry::{log_error, log_info, Histogram, MetricsSnapshot, Span, Stage, Stall};
use fides_workload::{KeyChooser, WorkloadConfig, WorkloadGenerator};

#[derive(Clone, Debug)]
struct Args {
    servers: u32,
    clients: u32,
    duration: Duration,
    batch: usize,
    items_per_shard: usize,
    policy: Policy,
    json: bool,
    label: String,
    zipf: Option<f64>,
    snapshot_interval: u64,
    dir: Option<String>,
    check_baseline: Option<String>,
    /// Transactions each client keeps in flight (1 = classic closed
    /// loop; >1 = a pipelined client using `commit_async` +
    /// batch-verified outcomes).
    inflight: usize,
    /// Coordinator batch-formation window.
    flush: Duration,
    /// Fault injection: after this many seconds, kill a non-coordinator
    /// server (`kill -9` semantics: durability torn, thread gone),
    /// restart it over its surviving disk, and measure the repair
    /// plane's rejoin latency plus post-rejoin throughput.
    kill_restart: Option<Duration>,
    /// Percentage of transactions that are read-only (served by the
    /// verified read plane, or forced through commit rounds with
    /// `--reads-via-commit`).
    read_pct: u32,
    /// Consistency policy for verified reads.
    consistency: ReadConsistency,
    /// Baseline mode: run read-only transactions as commit-round
    /// transactions (begin → read_all → commit) instead of verified
    /// snapshot reads — what the read plane is measured against.
    reads_via_commit: bool,
    /// Pin the process-wide thread pool to this many workers (sets
    /// `FIDES_POOL_THREADS` before the pool initializes).
    workers: Option<u32>,
    /// Multicore scaling rig: run the same workload once per worker
    /// count (each in a fresh child process, since the pool width is
    /// fixed at first use) and emit a combined txns/s-vs-cores JSON
    /// with the primitive microbenches.
    sweep_workers: Option<Vec<u32>>,
    /// Write the sweep JSON here (e.g. `BENCH_PR6.json`) instead of
    /// stdout only.
    out: Option<String>,
    /// Pipelined WAL writer gather window: how long the writer keeps
    /// collecting appends past its greedy drain before the covering
    /// fsync (raises `fsync_batch_mean`).
    gather: Duration,
    /// Trace 1-in-N committed transactions (sets `FIDES_TRACE_SAMPLE`
    /// before any client starts; 0 = off). Defaults to the environment.
    trace_sample: Option<u64>,
    /// Write the N slowest committed-txn traces here as Chrome
    /// trace-event JSON, plus every retained span at `FILE.all`.
    trace_out: Option<String>,
    /// Write the merged cluster metrics here in Prometheus text format.
    prom_out: Option<String>,
    /// Tracing-cost rig: re-run the workload with tracing off, 1/64,
    /// and 1/1 (child process per point), measure watchdog detection
    /// latency on a stalled leader, and emit one combined JSON document
    /// (`BENCH_PR10.json` shape).
    trace_sweep: bool,
}

fn consistency_str(c: ReadConsistency) -> String {
    match c {
        ReadConsistency::Fresh => "fresh".into(),
        ReadConsistency::BoundedStaleness(k) => format!("bounded:{k}"),
        ReadConsistency::AtHeight(h) => format!("at:{h}"),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Policy {
    /// No persistence at all (the pre-durability engine).
    None,
    /// Asynchronous group commit: appends batched across rounds on a
    /// dedicated writer thread, acks after the covering fsync.
    Pipelined,
    /// Persistence without fsync (lower bound; not crash-safe).
    NoFsync,
}

impl Policy {
    fn as_str(self) -> &'static str {
        match self {
            Policy::None => "none",
            Policy::Pipelined => "pipelined",
            Policy::NoFsync => "nofsync",
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: throughput [--servers N] [--clients N] [--duration SECS] [--batch N]\n\
         \x20                 [--items N] [--policy none|pipelined|nofsync]\n\
         \x20                 [--zipf THETA] [--snapshot-interval N] [--dir PATH]\n\
         \x20                 [--inflight D] [--kill-restart SECS] [--label NAME] [--json]\n\
         \x20                 [--read-pct P] [--consistency fresh|bounded:K|at:H]\n\
         \x20                 [--reads-via-commit] [--check-baseline FILE]\n\
         \x20                 [--workers N] [--sweep-workers N,N,...] [--out FILE]\n\
         \x20                 [--gather-ms MS]\n\
         \x20                 [--trace-sample N] [--trace-out FILE] [--prom-out FILE]\n\
         \x20                 [--trace-sweep]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        servers: 4,
        clients: 8,
        duration: Duration::from_secs(5),
        batch: 100,
        items_per_shard: 10_000,
        policy: Policy::Pipelined,
        json: false,
        label: String::new(),
        zipf: None,
        snapshot_interval: 0,
        dir: None,
        check_baseline: None,
        inflight: 8,
        flush: Duration::from_millis(10),
        kill_restart: None,
        read_pct: 0,
        consistency: ReadConsistency::BoundedStaleness(64),
        reads_via_commit: false,
        workers: None,
        sweep_workers: None,
        out: None,
        gather: Duration::ZERO,
        trace_sample: None,
        trace_out: None,
        prom_out: None,
        trace_sweep: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| match it.next() {
            Some(v) => v,
            None => usage(),
        };
        match flag.as_str() {
            "--servers" => args.servers = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--clients" => args.clients = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--duration" => {
                args.duration =
                    Duration::from_secs_f64(value(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--batch" => args.batch = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--items" => args.items_per_shard = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--policy" => {
                args.policy = match value(&mut it).as_str() {
                    "none" => Policy::None,
                    "pipelined" => Policy::Pipelined,
                    "nofsync" => Policy::NoFsync,
                    _ => usage(),
                }
            }
            "--zipf" => args.zipf = Some(value(&mut it).parse().unwrap_or_else(|_| usage())),
            "--snapshot-interval" => {
                args.snapshot_interval = value(&mut it).parse().unwrap_or_else(|_| usage())
            }
            "--dir" => args.dir = Some(value(&mut it)),
            "--flush" => {
                args.flush =
                    Duration::from_millis(value(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--inflight" => {
                args.inflight = value(&mut it)
                    .parse::<usize>()
                    .unwrap_or_else(|_| usage())
                    .max(1)
            }
            "--kill-restart" => {
                args.kill_restart = Some(Duration::from_secs_f64(
                    value(&mut it).parse().unwrap_or_else(|_| usage()),
                ))
            }
            "--read-pct" => {
                args.read_pct = value(&mut it)
                    .parse::<u32>()
                    .unwrap_or_else(|_| usage())
                    .min(100)
            }
            "--consistency" => {
                let v = value(&mut it);
                args.consistency = if v == "fresh" {
                    ReadConsistency::Fresh
                } else if let Some(k) = v.strip_prefix("bounded:") {
                    ReadConsistency::BoundedStaleness(k.parse().unwrap_or_else(|_| usage()))
                } else if let Some(h) = v.strip_prefix("at:") {
                    ReadConsistency::AtHeight(h.parse().unwrap_or_else(|_| usage()))
                } else {
                    usage()
                };
            }
            "--reads-via-commit" => args.reads_via_commit = true,
            "--workers" => {
                args.workers = Some(
                    value(&mut it)
                        .parse::<u32>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--sweep-workers" => {
                let list: Option<Vec<u32>> = value(&mut it)
                    .split(',')
                    .map(|s| s.trim().parse::<u32>().ok().filter(|&n| n >= 1))
                    .collect();
                args.sweep_workers = Some(match list {
                    Some(l) if !l.is_empty() => l,
                    _ => usage(),
                });
            }
            "--gather-ms" => {
                let ms: f64 = value(&mut it).parse().unwrap_or_else(|_| usage());
                args.gather = Duration::from_secs_f64(ms.max(0.0) / 1e3);
            }
            "--trace-sample" => {
                args.trace_sample = Some(value(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--trace-out" => args.trace_out = Some(value(&mut it)),
            "--prom-out" => args.prom_out = Some(value(&mut it)),
            "--trace-sweep" => args.trace_sweep = true,
            "--out" => args.out = Some(value(&mut it)),
            "--label" => args.label = value(&mut it),
            "--json" => args.json = true,
            "--check-baseline" => args.check_baseline = Some(value(&mut it)),
            _ => usage(),
        }
    }
    args
}

#[derive(Debug)]
struct RunResult {
    committed: usize,
    aborted: usize,
    elapsed: Duration,
    /// All completed transactions (write commits + read-only) per
    /// second — identical to the old definition when `--read-pct 0`.
    txns_per_sec: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    blocks: usize,
    rounds: u64,
    /// Mean coordinator round time (the in-protocol cost per block).
    round_ms: f64,
    /// Fault-injection results (`--kill-restart`): the killed server
    /// and how long the repair plane took to rejoin it (restart →
    /// repaired-at-tip), plus the throughput measured after rejoin.
    repair: Option<RepairResult>,
    /// Read-plane results (`--read-pct > 0`).
    reads: Option<ReadResult>,
    /// Cluster-wide metrics snapshot (every server merged), captured
    /// after settle and before shutdown — the source of the per-stage
    /// latency breakdown and durability numbers in the JSON.
    metrics: MetricsSnapshot,
    /// Every retained fides-trace span, server sinks + client sinks
    /// (empty unless `FIDES_TRACE_SAMPLE` was set).
    spans: Vec<Span>,
}

#[derive(Debug)]
struct ReadResult {
    /// Read-only transactions completed.
    completed: usize,
    /// Read-only transactions that failed (refused/timed out/refuted).
    failed: usize,
    /// Server-side refusals observed by the clients (a subset of
    /// `failed` unless retries succeeded).
    refused: u64,
    read_txns_per_sec: f64,
    read_p50_ms: f64,
    /// Client-side proof verification cost, µs per key (0 in
    /// `--reads-via-commit` mode, where no proofs exist).
    verify_us_per_key: f64,
    /// Client root-registry header cache hits/misses.
    registry_hits: u64,
    registry_misses: u64,
    /// Observed staleness histogram entries (heights behind tip →
    /// count), at telemetry-histogram bucket resolution.
    staleness: Vec<(u64, u64)>,
}

/// One client thread's tallies.
#[derive(Default)]
struct ClientOut {
    committed: usize,
    aborted: usize,
    /// Client-observed commit latency in nanoseconds.
    latency: Histogram,
    reads: usize,
    read_failed: usize,
    read_latencies_ms: Vec<f64>,
    read_stats: ReadStats,
    /// The client's retained trace spans (empty when sampling is off).
    spans: Vec<Span>,
}

#[derive(Debug)]
struct RepairResult {
    victim: u32,
    /// restart → verified rejoin at the fleet tip.
    repair_ms: f64,
    /// Committed txns/s over the post-rejoin window.
    post_rejoin_txns_per_sec: f64,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let rank = (p * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

fn run(args: &Args) -> RunResult {
    let mut config = ClusterConfig::new(args.servers)
        .items_per_shard(args.items_per_shard)
        .batch_size(args.batch)
        .protocol(CommitProtocol::TfCommit)
        .max_clients(args.clients)
        .flush_interval(args.flush);
    if args.kill_restart.is_some() {
        if args.policy == Policy::None {
            log_error!(
                "bench",
                "--kill-restart requires a persistent --policy (the victim restarts from disk)"
            );
            std::process::exit(2);
        }
        // While the victim is dead every round stalls on its missing
        // vote; a short phase timeout keeps the dead window readable
        // instead of multiplying it by 5 s per round.
        config = config.round_timeout(Duration::from_millis(300));
    }

    // Durability: a scratch directory per run unless --dir pins one.
    let scratch;
    if args.policy != Policy::None {
        let dir = match &args.dir {
            Some(d) => std::path::PathBuf::from(d),
            None => {
                scratch = fides_durability::testutil::TempDir::new("throughput");
                scratch.path().to_path_buf()
            }
        };
        let sync = match args.policy {
            Policy::Pipelined => SyncPolicy::Pipelined,
            Policy::NoFsync => SyncPolicy::NoFsync,
            Policy::None => unreachable!(),
        };
        config = config.persistence(
            PersistenceConfig::files(dir)
                .wal(WalConfig {
                    sync,
                    ..WalConfig::default()
                })
                .snapshot_interval(args.snapshot_interval)
                .gather_window(args.gather),
        );
    }

    let mut cluster = FidesCluster::start(config);
    let deadline = Instant::now() + args.duration;
    let start = Instant::now();

    let mut handles = Vec::new();
    for c in 0..args.clients {
        let mut client = cluster.client(c);
        if args.kill_restart.is_some() {
            // Reads sent to the dead server must fail fast so the
            // closed loop keeps probing and recovers promptly at
            // rejoin, instead of sleeping through 10 s timeouts.
            client.set_op_timeout(Duration::from_millis(500));
        }
        let workload = WorkloadConfig::paper_default(args.servers, args.items_per_shard)
            .seed(0x5EED_0000 + c as u64);
        let workload = match args.zipf {
            Some(theta) => workload.chooser(KeyChooser::Zipfian { theta }),
            None => workload,
        };
        let mut generator = WorkloadGenerator::new(workload, FidesCluster::key_name);
        let depth = args.inflight;
        let server_pks = cluster.server_pks().to_vec();
        let protocol = cluster.config().protocol;
        let read_pct = args.read_pct as u64;
        let consistency = args.consistency;
        let reads_via_commit = args.reads_via_commit;
        handles.push(std::thread::spawn(move || {
            let mut out = ClientOut::default();
            // Deterministic per-client coin for the read/write mix.
            let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ ((c as u64) << 17);
            let mut roll_read = move || {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 33) % 100 < read_pct
            };
            // One read-only transaction: the verified read plane, or
            // the same read set forced through a commit round (the
            // baseline the plane is measured against).
            let run_read = |client: &mut fides_core::ClientSession,
                            keys: &[fides_store::Key],
                            out: &mut ClientOut| {
                let t0 = Instant::now();
                let ok = if reads_via_commit {
                    let mut txn = client.begin();
                    client.read_all(&mut txn, keys).is_ok()
                        && client.commit(txn).map(|o| o.committed()).unwrap_or(false)
                } else {
                    client.read_only(keys, consistency).is_ok()
                };
                if ok {
                    out.reads += 1;
                    out.read_latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                } else {
                    out.read_failed += 1;
                }
            };
            if depth == 1 {
                // Classic closed loop: one transaction at a time,
                // outcome verified synchronously (batched exec phase).
                while Instant::now() < deadline {
                    let spec = generator.next_txn();
                    if roll_read() {
                        run_read(&mut client, &spec.keys, &mut out);
                        continue;
                    }
                    let t0 = Instant::now();
                    match client.run_rmw_batched(&spec.keys, 1) {
                        Ok(outcome) if outcome.committed() => {
                            out.committed += 1;
                            out.latency.record_duration(t0.elapsed());
                        }
                        _ => out.aborted += 1,
                    }
                }
                out.read_stats = client.take_read_stats();
                out.spans = client.spans();
                return out;
            }
            // Pipelined client: keep `depth` commits in flight; verify
            // outcome signatures in batches (`finalize_outcomes`).
            // Read-only transactions run synchronously between fills —
            // they occupy no commit slot (they enter no round).
            let mut pending: Vec<PendingCommit> = Vec::new();
            let mut started: Vec<(fides_core::messages::TxnHandle, Instant)> = Vec::new();
            let mut unverified: Vec<UnverifiedOutcome> = Vec::new();
            let mut submitted = 0usize;
            loop {
                let now = Instant::now();
                let accepting = now < deadline;
                if !accepting && pending.is_empty() {
                    break;
                }
                // Fill the window with fresh transactions. Reads and
                // writes go out as one batch each (burst-verified
                // responses) instead of `ops` sequential round trips.
                while accepting && pending.len() < depth {
                    let spec = generator.next_txn();
                    if roll_read() {
                        run_read(&mut client, &spec.keys, &mut out);
                        continue;
                    }
                    let t0 = Instant::now();
                    let mut txn = client.begin();
                    let Ok(values) = client.read_all(&mut txn, &spec.keys) else {
                        out.aborted += 1;
                        continue;
                    };
                    let writes: Vec<(fides_store::Key, fides_store::Value)> = spec
                        .keys
                        .iter()
                        .zip(values)
                        .map(|(key, value)| {
                            let next =
                                fides_store::Value::from_i64(value.as_i64().unwrap_or(0) + 1);
                            (key.clone(), next)
                        })
                        .collect();
                    if client.write_all(&mut txn, &writes).is_err() {
                        out.aborted += 1;
                        continue;
                    }
                    let commit = client.commit_async(txn);
                    started.push((commit.handle, t0));
                    pending.push(commit);
                    submitted += 1;
                }
                // Service in-flight commits briefly, then refill.
                let drain_until = Instant::now() + Duration::from_millis(2);
                let drain_until = if accepting {
                    drain_until
                } else {
                    // Past the deadline: give stragglers a real grace
                    // period, then stop.
                    Instant::now() + Duration::from_millis(500)
                };
                let resolved = client.drain_outcomes(&mut pending, drain_until);
                if !accepting && resolved.is_empty() {
                    break;
                }
                for outcome in &resolved {
                    if let Some(at) = started.iter().position(|(h, _)| *h == outcome.handle) {
                        let (_, t0) = started.swap_remove(at);
                        out.latency.record_duration(t0.elapsed());
                    }
                }
                unverified.extend(resolved);
            }
            let outcomes = finalize_outcomes(unverified, &server_pks, protocol);
            out.committed += outcomes.iter().filter(|o| o.committed()).count();
            out.aborted += submitted - outcomes.len().min(submitted)
                + outcomes.iter().filter(|o| !o.committed()).count();
            out.read_stats = client.take_read_stats();
            out.spans = client.spans();
            out
        }));
    }

    // Fault injection: kill a non-coordinator mid-run, restart it, and
    // time the repair plane's verified rejoin while the clients keep
    // hammering the cluster.
    let mut repair_marker: Option<(u32, f64, Instant, u64)> = None;
    if let Some(kill_after) = args.kill_restart {
        let victim = args.servers - 1;
        let kill_at = start + kill_after;
        let now = Instant::now();
        if kill_at > now {
            std::thread::sleep(kill_at - now);
        }
        cluster.crash_server(victim);
        // A beat of downtime so the kill is observable as a dip.
        std::thread::sleep(Duration::from_millis(200));
        let restart_at = Instant::now();
        cluster.restart_server(victim).expect("victim restart");
        let rejoined = cluster.await_rejoin(victim, Duration::from_secs(30));
        assert!(rejoined, "victim failed to rejoin within 30 s");
        let repair_ms = restart_at.elapsed().as_secs_f64() * 1e3;
        let committed_at_rejoin = cluster.round_stats().committed_txns;
        repair_marker = Some((victim, repair_ms, Instant::now(), committed_at_rejoin));
    }

    let mut committed = 0usize;
    let mut aborted = 0usize;
    let latency = Histogram::new();
    let mut reads = 0usize;
    let mut read_failed = 0usize;
    let mut read_latencies_ms: Vec<f64> = Vec::new();
    let mut read_stats = ReadStats::default();
    let mut spans: Vec<Span> = Vec::new();
    for h in handles {
        let out = h.join().expect("client thread");
        committed += out.committed;
        aborted += out.aborted;
        latency.merge(&out.latency);
        reads += out.reads;
        read_failed += out.read_failed;
        read_latencies_ms.extend(out.read_latencies_ms);
        read_stats.merge(&out.read_stats);
        spans.extend(out.spans);
    }
    let elapsed = start.elapsed();
    // Snapshot the commit counter *before* the flush/settle drain so
    // the post-rejoin rate's numerator and denominator cover the same
    // interval (client start → client join).
    let rounds_at_join = cluster.round_stats();
    cluster.flush();
    let blocks = cluster.settle(Duration::from_secs(10)).unwrap_or(0);
    let rounds = cluster.round_stats();
    let repair = repair_marker.map(|(victim, repair_ms, rejoined_at, committed_at_rejoin)| {
        let window = elapsed
            .saturating_sub(rejoined_at.duration_since(start))
            .as_secs_f64()
            .max(1e-6);
        let post = rounds_at_join
            .committed_txns
            .saturating_sub(committed_at_rejoin);
        RepairResult {
            victim,
            repair_ms,
            post_rejoin_txns_per_sec: post as f64 / window,
        }
    });
    // Server-side metrics must be read before shutdown tears the
    // states down; taken after settle so stage counts are final.
    let metrics = cluster.metrics();
    spans.extend(cluster.dump_traces());
    cluster.shutdown();

    read_latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let lat = latency.snapshot();
    let read_result = (args.read_pct > 0).then(|| ReadResult {
        completed: reads,
        failed: read_failed,
        refused: read_stats.refusals,
        read_txns_per_sec: reads as f64 / elapsed.as_secs_f64(),
        read_p50_ms: percentile(&read_latencies_ms, 0.50),
        verify_us_per_key: if read_stats.keys_read > 0 {
            read_stats.verify_nanos() as f64 / 1e3 / read_stats.keys_read as f64
        } else {
            0.0
        },
        registry_hits: read_stats.registry.hits,
        registry_misses: read_stats.registry.misses,
        staleness: read_stats.staleness.snapshot().entries(),
    });
    RunResult {
        committed,
        aborted,
        elapsed,
        txns_per_sec: (committed + reads) as f64 / elapsed.as_secs_f64(),
        p50_ms: lat.percentile(50.0) as f64 / 1e6,
        p95_ms: lat.percentile(95.0) as f64 / 1e6,
        p99_ms: lat.percentile(99.0) as f64 / 1e6,
        blocks,
        rounds: rounds.rounds,
        round_ms: if rounds.rounds > 0 {
            rounds.round_nanos as f64 / 1e6 / rounds.rounds as f64
        } else {
            f64::NAN
        },
        repair,
        reads: read_result,
        metrics,
        spans,
    }
}

/// The per-stage latency breakdown as a JSON object: for each commit
/// stage, sample count, p50/p99 in µs and total time spent in ms,
/// summed across every server (coordinator + cohorts).
fn stages_json(m: &MetricsSnapshot) -> String {
    let per_stage: Vec<String> = Stage::ALL
        .iter()
        .map(|s| {
            let h = m.histogram(s.metric_name());
            format!(
                "    \"{}\": {{\"samples\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"total_ms\": {:.3}}}",
                s.name(),
                h.count,
                h.percentile(50.0) as f64 / 1e3,
                h.percentile(99.0) as f64 / 1e3,
                h.sum as f64 / 1e6,
            )
        })
        .collect();
    format!("{{\n{}\n  }}", per_stage.join(",\n"))
}

/// The sample rate the clients actually saw (`main` folds
/// `--trace-sample` into the environment before any client starts).
fn effective_trace_sample() -> u64 {
    std::env::var("FIDES_TRACE_SAMPLE")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// How many of the slowest committed-txn traces `--trace-out` keeps in
/// the exemplar file.
const SLOWEST_TRACES: usize = 5;

/// Writes the run's trace exemplars: the `SLOWEST_TRACES` slowest
/// traces that retained their `client.commit` root to `path` (the file
/// to open in `chrome://tracing`), and every retained span to
/// `path.all`.
fn write_trace_out(path: &str, spans: &[Span]) {
    let trees = assemble(spans);
    let mut commits: Vec<_> = trees
        .iter()
        .filter(|t| t.span("client.commit").is_some())
        .collect();
    commits.sort_by_key(|t| std::cmp::Reverse(t.duration_ns()));
    let slowest: Vec<Span> = commits
        .iter()
        .take(SLOWEST_TRACES)
        .flat_map(|t| t.spans.iter().cloned())
        .collect();
    for t in commits.iter().take(SLOWEST_TRACES) {
        log_info!(
            "bench",
            "  slow trace {:#x}: {:.3} ms across {} spans",
            t.trace_id,
            t.duration_ns() as f64 / 1e6,
            t.spans.len()
        );
    }
    let write = |file: &str, json: String| {
        std::fs::write(file, format!("{json}\n")).unwrap_or_else(|e| {
            log_error!("bench", "cannot write {file}: {e}");
            std::process::exit(1);
        });
    };
    write(path, to_chrome_json(&slowest));
    write(&format!("{path}.all"), to_chrome_json(spans));
    log_info!(
        "bench",
        "wrote {path} ({} slowest of {} traces) and {path}.all ({} spans)",
        commits.len().min(SLOWEST_TRACES),
        commits.len(),
        spans.len()
    );
}

/// A failed child's stderr is its `FIDES_LOG` stream. Replay the raw
/// bytes — not a lossy re-decode through the parent's logger — so the
/// failure is diagnosable from the sweep output alone.
fn replay_child_stderr(what: &str, stderr: &[u8]) {
    use std::io::Write;
    log_error!("bench", "{what} failed; replaying its stderr:");
    let err = std::io::stderr();
    let mut err = err.lock();
    let _ = err.write_all(stderr);
    let _ = err.flush();
}

fn emit_json(args: &Args, r: &RunResult) -> String {
    let reads = r.reads.as_ref().map_or(String::new(), |rr| {
        let hist: Vec<String> = rr
            .staleness
            .iter()
            .map(|(bucket, count)| format!("\"{bucket}\": {count}"))
            .collect();
        format!(
            ",\n  \"read_pct\": {},\n  \"consistency\": \"{}\",\n  \
             \"reads_via_commit\": {},\n  \"reads_completed\": {},\n  \
             \"reads_failed\": {},\n  \"reads_refused\": {},\n  \
             \"read_txns_per_sec\": {:.1},\n  \
             \"read_p50_ms\": {:.3},\n  \"read_verify_us_per_key\": {:.3},\n  \
             \"registry_hits\": {},\n  \"registry_misses\": {},\n  \
             \"staleness_hist\": {{{}}}",
            args.read_pct,
            consistency_str(args.consistency),
            args.reads_via_commit,
            rr.completed,
            rr.failed,
            rr.refused,
            rr.read_txns_per_sec,
            rr.read_p50_ms,
            rr.verify_us_per_key,
            rr.registry_hits,
            rr.registry_misses,
            hist.join(", "),
        )
    });
    let repair = r.repair.as_ref().map_or(String::new(), |rep| {
        format!(
            ",\n  \"kill_restart_s\": {:.3},\n  \"victim\": {},\n  \"repair_ms\": {:.3},\n  \
             \"post_rejoin_txns_per_sec\": {:.1}",
            args.kill_restart.unwrap_or_default().as_secs_f64(),
            rep.victim,
            rep.repair_ms,
            rep.post_rejoin_txns_per_sec,
        )
    });
    let fsync = r.metrics.histogram("durability.fsync_ns");
    let batch_blocks = r.metrics.histogram("durability.batch_blocks");
    let queue_peak = r
        .metrics
        .gauges
        .get("durability.queue_depth")
        .map_or(0, |g| g.max);
    format!(
        "{{\n  \"label\": \"{}\",\n  \"servers\": {},\n  \"clients\": {},\n  \"batch\": {},\n  \
         \"items_per_shard\": {},\n  \"policy\": \"{}\",\n  \
         \"gather_ms\": {:.3},\n  \"trace_sample\": {},\n  \"trace_spans\": {},\n  \
         \"duration_s\": {:.3},\n  \
         \"committed\": {},\n  \"aborted\": {},\n  \"txns_per_sec\": {:.1},\n  \
         \"p50_ms\": {:.3},\n  \"p95_ms\": {:.3},\n  \"p99_ms\": {:.3},\n  \"blocks\": {},\n  \
         \"rounds\": {},\n  \"round_ms\": {:.3},\n  \"round_timeouts\": {},\n  \
         \"stages\": {},\n  \
         \"fsync_p50_us\": {:.1},\n  \"fsync_p99_us\": {:.1},\n  \
         \"fsync_batch_mean\": {:.2},\n  \"wal_queue_peak\": {}{reads}{repair}\n}}",
        args.label,
        args.servers,
        args.clients,
        args.batch,
        args.items_per_shard,
        args.policy.as_str(),
        args.gather.as_secs_f64() * 1e3,
        effective_trace_sample(),
        r.spans.len(),
        r.elapsed.as_secs_f64(),
        r.committed,
        r.aborted,
        r.txns_per_sec,
        r.p50_ms,
        r.p95_ms,
        r.p99_ms,
        r.blocks,
        r.rounds,
        r.round_ms,
        r.metrics.counter("commit.round.timeouts"),
        stages_json(&r.metrics),
        fsync.percentile(50.0) as f64 / 1e3,
        fsync.percentile(99.0) as f64 / 1e3,
        batch_blocks.mean(),
        queue_peak,
    )
}

/// Extracts `"key": <number>` from our own JSON output format — enough
/// of a parser for the CI baseline gate, with no external crates.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One worker-count point of the scaling sweep, parsed back out of a
/// child run's JSON.
struct SweepPoint {
    workers: u32,
    txns_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    committed: f64,
}

/// The multicore scaling rig: re-runs this binary once per requested
/// worker count and combines the points with the primitive
/// microbenches into one JSON document (`BENCH_PR6.json` shape).
///
/// A child process per point is mandatory, not a convenience — the
/// process-wide thread pool fixes its width on first use, so a single
/// process cannot measure two widths.
fn run_sweep(args: &Args, worker_counts: &[u32]) {
    let exe = std::env::current_exe().expect("own executable path");
    // Child args: everything we were invoked with, minus the sweep
    // control flags, plus the pinned worker count and --json.
    let mut base: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--sweep-workers" | "--out" | "--workers" | "--check-baseline" | "--trace-out"
            | "--prom-out" => {
                let _ = it.next();
            }
            "--json" | "--trace-sweep" => {}
            _ => base.push(flag),
        }
    }

    // Headline point: one child at the invoked worker configuration
    // (no pinned pool width), whose numbers land at the top level of
    // the document — directly comparable with earlier BENCH_PR*.json
    // single-run files.
    log_info!("bench", "headline run...");
    let headline_out = std::process::Command::new(&exe)
        .args(&base)
        .arg("--json")
        .output()
        .expect("spawn headline child");
    let headline = String::from_utf8_lossy(&headline_out.stdout).into_owned();
    if !headline_out.status.success() {
        replay_child_stderr("headline child", &headline_out.stderr);
        std::process::exit(1);
    }
    let headline_field = |key: &str| {
        json_number(&headline, key).unwrap_or_else(|| {
            log_error!("bench", "headline child emitted no {key}:\n{headline}");
            std::process::exit(1);
        })
    };
    let headline_txns = headline_field("txns_per_sec");
    let headline_committed = headline_field("committed");
    let headline_aborted = headline_field("aborted");
    let headline_p50 = headline_field("p50_ms");
    let headline_p99 = headline_field("p99_ms");
    let headline_fsync_mean = headline_field("fsync_batch_mean");
    log_info!(
        "bench",
        "  headline: {headline_txns:.0} txns/s (p50 {headline_p50:.2} ms, \
         fsync batch x{headline_fsync_mean:.2})"
    );

    log_info!("bench", "primitive microbenches (before/after)...");
    let primitives = fides_bench::primitives::run();
    for p in &primitives {
        log_info!(
            "bench",
            "  {}: {:.0} ns -> {:.0} ns ({:.2}x)",
            p.name,
            p.before_ns,
            p.after_ns,
            p.speedup()
        );
    }

    let mut points: Vec<SweepPoint> = Vec::new();
    for &workers in worker_counts {
        log_info!("bench", "sweep: {workers} worker(s)...");
        let output = std::process::Command::new(&exe)
            .args(&base)
            .args(["--workers", &workers.to_string(), "--json"])
            .output()
            .expect("spawn sweep child");
        let stdout = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            replay_child_stderr(&format!("sweep child ({workers} workers)"), &output.stderr);
            std::process::exit(1);
        }
        let field = |key: &str| {
            json_number(&stdout, key).unwrap_or_else(|| {
                log_error!(
                    "bench",
                    "sweep child ({workers} workers) emitted no {key}:\n{stdout}"
                );
                std::process::exit(1);
            })
        };
        let point = SweepPoint {
            workers,
            txns_per_sec: field("txns_per_sec"),
            p50_ms: field("p50_ms"),
            p99_ms: field("p99_ms"),
            committed: field("committed"),
        };
        log_info!(
            "bench",
            "  {} workers: {:.0} txns/s (p50 {:.2} ms)",
            workers,
            point.txns_per_sec,
            point.p50_ms
        );
        points.push(point);
    }

    let sweep_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"workers\": {}, \"txns_per_sec\": {:.1}, \"p50_ms\": {:.3}, \
                 \"p99_ms\": {:.3}, \"committed\": {:.0}}}",
                p.workers, p.txns_per_sec, p.p50_ms, p.p99_ms, p.committed
            )
        })
        .collect();
    let base_rate = points.first().map_or(0.0, |p| p.txns_per_sec);
    let scaling: Vec<String> = points
        .iter()
        .map(|p| format!("{:.2}", p.txns_per_sec / base_rate.max(1e-9)))
        .collect();
    let json = format!(
        "{{\n  \"label\": \"{}\",\n  \"servers\": {},\n  \"clients\": {},\n  \
         \"policy\": \"{}\",\n  \"gather_ms\": {:.3},\n  \
         \"duration_s\": {:.1},\n  \
         \"txns_per_sec\": {:.1},\n  \"committed\": {:.0},\n  \"aborted\": {:.0},\n  \
         \"p50_ms\": {:.3},\n  \"p99_ms\": {:.3},\n  \"fsync_batch_mean\": {:.2},\n  \
         \"sweep\": [\n{}\n  ],\n  \
         \"speedup_vs_1_worker\": [{}],\n  \"primitives\": {}\n}}",
        args.label,
        args.servers,
        args.clients,
        args.policy.as_str(),
        args.gather.as_secs_f64() * 1e3,
        args.duration.as_secs_f64(),
        headline_txns,
        headline_committed,
        headline_aborted,
        headline_p50,
        headline_p99,
        headline_fsync_mean,
        sweep_json.join(",\n"),
        scaling.join(", "),
        fides_bench::primitives::to_json(&primitives),
    );
    println!("{json}");
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{json}\n")).unwrap_or_else(|e| {
            log_error!("bench", "cannot write {path}: {e}");
            std::process::exit(1);
        });
        log_info!("bench", "wrote {path}");
    }
}

/// One tracing-cost point of the trace sweep, parsed back out of a
/// child run's JSON.
struct TracePoint {
    sample: u64,
    txns_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    committed: f64,
    spans: f64,
}

/// Watchdog detection latency measured against a real stalled leader.
struct WatchdogResult {
    round_timeout: Duration,
    /// Commit submission → first cohort `Stall` report.
    detect: Duration,
    stall: Stall,
    /// Whether a flight-recorder dump names the stalled height.
    dump_names_height: bool,
}

/// Stalls a 4-server cluster's leader after vote collection
/// (`Behavior::stall_after_votes`) and times how long the cohorts'
/// round-progress watchdogs take to declare the stall. The stall
/// timeout follows the round timeout (the `ClusterConfig` default), so
/// detection within 2× the round timeout is the acceptance bar.
fn measure_watchdog_detection() -> WatchdogResult {
    let round_timeout = Duration::from_millis(100);
    let servers = 4u32;
    let items = 256usize;
    let config = ClusterConfig::new(servers)
        .items_per_shard(items)
        .batch_size(1)
        .protocol(CommitProtocol::TfCommit)
        .flush_interval(Duration::from_millis(5))
        .round_timeout(round_timeout)
        .behavior(
            0,
            Behavior {
                stall_after_votes: true,
                ..Behavior::default()
            },
        );
    let cluster = FidesCluster::start(config);
    let mut client = cluster.client(0);
    let workload = WorkloadConfig::paper_default(servers, items).seed(0xD06);
    let mut generator = WorkloadGenerator::new(workload, FidesCluster::key_name);
    let spec = generator.next_txn();
    let mut txn = client.begin();
    let values = client
        .read_all(&mut txn, &spec.keys)
        .expect("warm-up reads");
    let writes: Vec<(fides_store::Key, fides_store::Value)> = spec
        .keys
        .iter()
        .zip(values)
        .map(|(key, value)| {
            let next = fides_store::Value::from_i64(value.as_i64().unwrap_or(0) + 1);
            (key.clone(), next)
        })
        .collect();
    client.write_all(&mut txn, &writes).expect("writes");
    let t0 = Instant::now();
    // The leader collects every vote for this transaction's round and
    // then goes silent; the outcome never arrives.
    let _abandoned = client.commit_async(txn);
    let deadline = t0 + Duration::from_secs(10);
    let stall = loop {
        let found = (1..servers).find_map(|s| cluster.stall_log(s).stalls().into_iter().next());
        if let Some(stall) = found {
            break stall;
        }
        assert!(
            Instant::now() < deadline,
            "watchdog never fired on the stalled leader"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    let detect = t0.elapsed();
    let needle = format!("height {}", stall.height);
    let dump_names_height = (1..servers)
        .flat_map(|s| cluster.stall_log(s).dumps())
        .any(|d| d.render().contains(&needle));
    cluster.shutdown();
    WatchdogResult {
        round_timeout,
        detect,
        stall,
        dump_names_height,
    }
}

/// The tracing-cost rig behind `BENCH_PR10.json`: one child run per
/// sampling rate — off, 1/64, 1/1 — so each point's clients read a
/// fresh `FIDES_TRACE_SAMPLE`, plus the stalled-leader watchdog rig
/// for detection latency.
fn run_trace_sweep(args: &Args) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut base: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trace-sample" | "--out" | "--check-baseline" | "--trace-out" | "--prom-out"
            | "--sweep-workers" => {
                let _ = it.next();
            }
            "--json" | "--trace-sweep" => {}
            _ => base.push(flag),
        }
    }

    let mut points: Vec<TracePoint> = Vec::new();
    for sample in [0u64, 64, 1] {
        let rate = if sample == 0 {
            "off".to_string()
        } else {
            format!("1-in-{sample}")
        };
        log_info!("bench", "trace sweep: sampling {rate}...");
        let output = std::process::Command::new(&exe)
            .args(&base)
            .args(["--trace-sample", &sample.to_string(), "--json"])
            .output()
            .expect("spawn trace-sweep child");
        let stdout = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            replay_child_stderr(&format!("trace-sweep child ({rate})"), &output.stderr);
            std::process::exit(1);
        }
        let field = |key: &str| {
            json_number(&stdout, key).unwrap_or_else(|| {
                log_error!(
                    "bench",
                    "trace-sweep child ({rate}) emitted no {key}:\n{stdout}"
                );
                std::process::exit(1);
            })
        };
        let point = TracePoint {
            sample,
            txns_per_sec: field("txns_per_sec"),
            p50_ms: field("p50_ms"),
            p99_ms: field("p99_ms"),
            committed: field("committed"),
            spans: field("trace_spans"),
        };
        if sample > 0 && point.spans == 0.0 {
            log_error!("bench", "traced run ({rate}) retained no spans");
            std::process::exit(1);
        }
        log_info!(
            "bench",
            "  {rate}: {:.0} txns/s (p50 {:.2} ms, {:.0} spans)",
            point.txns_per_sec,
            point.p50_ms,
            point.spans
        );
        points.push(point);
    }
    let off = points[0].txns_per_sec.max(1e-9);

    log_info!("bench", "watchdog rig: stalling the leader after votes...");
    let wd = measure_watchdog_detection();
    log_info!(
        "bench",
        "  stall declared in {:.1} ms (round timeout {:.0} ms): height {}, leader {}",
        wd.detect.as_secs_f64() * 1e3,
        wd.round_timeout.as_secs_f64() * 1e3,
        wd.stall.height,
        wd.stall.leader
    );

    let curve: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"sample\": {}, \"txns_per_sec\": {:.1}, \"p50_ms\": {:.3}, \
                 \"p99_ms\": {:.3}, \"committed\": {:.0}, \"spans\": {:.0}, \
                 \"vs_off\": {:.3}}}",
                p.sample,
                p.txns_per_sec,
                p.p50_ms,
                p.p99_ms,
                p.committed,
                p.spans,
                p.txns_per_sec / off
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"label\": \"{}\",\n  \"servers\": {},\n  \"clients\": {},\n  \"batch\": {},\n  \
         \"policy\": \"{}\",\n  \"duration_s\": {:.1},\n  \
         \"txns_per_sec\": {:.1},\n  \
         \"trace_overhead\": [\n{}\n  ],\n  \
         \"watchdog\": {{\"round_timeout_ms\": {:.0}, \"detect_ms\": {:.1}, \
         \"detect_vs_timeout\": {:.2}, \"stalled_height\": {}, \"leader\": {}, \
         \"waited_ms\": {}, \"dump_names_height\": {}}}\n}}",
        args.label,
        args.servers,
        args.clients,
        args.batch,
        args.policy.as_str(),
        args.duration.as_secs_f64(),
        off,
        curve.join(",\n"),
        wd.round_timeout.as_secs_f64() * 1e3,
        wd.detect.as_secs_f64() * 1e3,
        wd.detect.as_secs_f64() / wd.round_timeout.as_secs_f64().max(1e-9),
        wd.stall.height,
        wd.stall.leader,
        wd.stall.waited_ms,
        wd.dump_names_height,
    );
    println!("{json}");
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{json}\n")).unwrap_or_else(|e| {
            log_error!("bench", "cannot write {path}: {e}");
            std::process::exit(1);
        });
        log_info!("bench", "wrote {path}");
    }
}

fn main() {
    let args = parse_args();
    if args.trace_sweep {
        run_trace_sweep(&args);
        return;
    }
    if let Some(counts) = args.sweep_workers.clone() {
        run_sweep(&args, &counts);
        return;
    }
    if let Some(workers) = args.workers {
        // Must precede the first thread-pool use anywhere in the
        // process; the pool reads this once and fixes its width.
        std::env::set_var("FIDES_POOL_THREADS", workers.to_string());
    }
    if let Some(every) = args.trace_sample {
        // Must precede the first ClientSession construction; each
        // client's sampler reads this once.
        std::env::set_var("FIDES_TRACE_SAMPLE", every.to_string());
    } else if args.trace_out.is_some() && std::env::var_os("FIDES_TRACE_SAMPLE").is_none() {
        // A trace file with no sampled traffic helps nobody.
        std::env::set_var("FIDES_TRACE_SAMPLE", "1");
    }
    let result = run(&args);
    let json = emit_json(&args, &result);
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{json}\n")).unwrap_or_else(|e| {
            log_error!("bench", "cannot write {path}: {e}");
            std::process::exit(1);
        });
        log_info!("bench", "wrote {path}");
    }
    if let Some(path) = &args.trace_out {
        write_trace_out(path, &result.spans);
    }
    if let Some(path) = &args.prom_out {
        std::fs::write(path, result.metrics.to_prometheus()).unwrap_or_else(|e| {
            log_error!("bench", "cannot write {path}: {e}");
            std::process::exit(1);
        });
        log_info!("bench", "wrote {path}");
    }
    if args.json {
        println!("{json}");
    } else {
        println!(
            "servers={} clients={} batch={} policy={}: {} committed ({} aborted) in {:.2}s \
             = {:.0} txns/s, p50 {:.2} ms, p99 {:.2} ms, {} blocks, {} rounds @ {:.2} ms",
            args.servers,
            args.clients,
            args.batch,
            args.policy.as_str(),
            result.committed,
            result.aborted,
            result.elapsed.as_secs_f64(),
            result.txns_per_sec,
            result.p50_ms,
            result.p99_ms,
            result.blocks,
            result.rounds,
            result.round_ms,
        );
        if let Some(reads) = &result.reads {
            println!(
                "reads ({}% of mix, {}, {}): {} completed ({} failed) = {:.0} read txns/s, \
                 p50 {:.2} ms, proof-verify {:.2} µs/key, staleness {:?}",
                args.read_pct,
                consistency_str(args.consistency),
                if args.reads_via_commit {
                    "via commit rounds"
                } else {
                    "verified read plane"
                },
                reads.completed,
                reads.failed,
                reads.read_txns_per_sec,
                reads.read_p50_ms,
                reads.verify_us_per_key,
                reads.staleness,
            );
        }
        if let Some(repair) = &result.repair {
            println!(
                "kill-restart: server {} repaired in {:.1} ms, post-rejoin {:.0} txns/s",
                repair.victim, repair.repair_ms, repair.post_rejoin_txns_per_sec,
            );
        }
    }

    if let Some(path) = &args.check_baseline {
        let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
            log_error!("bench", "cannot read baseline {path}: {e}");
            std::process::exit(1);
        });
        let Some(expected) = json_number(&baseline, "txns_per_sec") else {
            log_error!("bench", "baseline {path} has no txns_per_sec field");
            std::process::exit(1);
        };
        // Sanity-check our own emission too: CI fails on malformed JSON.
        let Some(measured) = json_number(&json, "txns_per_sec") else {
            log_error!("bench", "emitted JSON is malformed");
            std::process::exit(1);
        };
        let floor = expected * 0.7;
        if measured < floor {
            log_error!(
                "bench",
                "throughput regression: measured {measured:.1} txns/s is below 70% of the \
                 baseline {expected:.1} txns/s (floor {floor:.1})"
            );
            std::process::exit(1);
        }
        log_info!(
            "bench",
            "baseline check passed: {measured:.1} txns/s >= {floor:.1} (70% of baseline)"
        );
    }
}
