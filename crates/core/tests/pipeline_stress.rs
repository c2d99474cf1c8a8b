//! Stress tests for the pipelined commit hot path: many concurrent
//! clients, Zipf-skewed keys, mixed cross-shard transactions, WAL
//! pruning below snapshots — and a mid-stream kill proving the
//! ordered-ack crash-consistency guarantee under
//! `SyncPolicy::Pipelined`.

use std::time::{Duration, Instant};

use fides_core::client::finalize_outcomes;
use fides_core::messages::CommitProtocol;
use fides_core::recovery::PersistenceConfig;
use fides_core::system::{ClusterConfig, FidesCluster};
use fides_durability::testutil::TempDir;
use fides_durability::{SyncPolicy, WalConfig};
use fides_workload::{KeyChooser, WorkloadConfig, WorkloadGenerator};

const N_SERVERS: u32 = 4;
const ITEMS_PER_SHARD: usize = 256;

fn pipelined_config(dir: &TempDir, snapshot_interval: u64) -> ClusterConfig {
    ClusterConfig::new(N_SERVERS)
        .items_per_shard(ITEMS_PER_SHARD)
        .batch_size(8)
        .protocol(CommitProtocol::TfCommit)
        .max_clients(16)
        .flush_interval(Duration::from_millis(10))
        .persistence(
            PersistenceConfig::files(dir.path())
                .wal(WalConfig {
                    // Tiny segments so pruning visibly evicts files.
                    segment_bytes: 4096,
                    sync: SyncPolicy::Pipelined,
                })
                .snapshot_interval(snapshot_interval)
                .prune_wal(true)
                .archive_pruned(true),
        )
}

/// Drives `txns_per_client` Zipf-skewed read-modify-write transactions
/// from each of `n_clients` pipelined clients (2 commits in flight
/// each), returning `(committed, aborted)`.
fn run_zipf_clients(
    cluster: &FidesCluster,
    n_clients: u32,
    txns_per_client: usize,
) -> (usize, usize) {
    let server_pks = cluster.server_pks().to_vec();
    let protocol = cluster.config().protocol;
    let mut handles = Vec::new();
    for c in 0..n_clients {
        let mut client = cluster.client(c);
        let mut generator = WorkloadGenerator::new(
            WorkloadConfig::paper_default(N_SERVERS, ITEMS_PER_SHARD)
                .ops_per_txn(4)
                .chooser(KeyChooser::Zipfian { theta: 0.6 })
                .seed(0xC0FFEE + c as u64),
            FidesCluster::key_name,
        );
        let server_pks = server_pks.clone();
        handles.push(std::thread::spawn(move || {
            let mut pending = Vec::new();
            let mut unverified = Vec::new();
            let mut submitted = 0usize;
            while submitted < txns_per_client || !pending.is_empty() {
                while submitted < txns_per_client && pending.len() < 2 {
                    let spec = generator.next_txn();
                    let mut txn = client.begin();
                    let Ok(values) = client.read_all(&mut txn, &spec.keys) else {
                        continue;
                    };
                    let writes: Vec<_> = spec
                        .keys
                        .iter()
                        .zip(values)
                        .map(|(k, v)| {
                            (
                                k.clone(),
                                fides_store::Value::from_i64(v.as_i64().unwrap_or(0) + 1),
                            )
                        })
                        .collect();
                    if client.write_all(&mut txn, &writes).is_err() {
                        continue;
                    }
                    pending.push(client.commit_async(txn));
                    submitted += 1;
                }
                unverified.extend(
                    client.drain_outcomes(&mut pending, Instant::now() + Duration::from_millis(50)),
                );
            }
            let outcomes = finalize_outcomes(unverified, &server_pks, protocol);
            let committed = outcomes.iter().filter(|o| o.committed()).count();
            (committed, outcomes.len() - committed)
        }));
    }
    let mut committed = 0;
    let mut aborted = 0;
    for h in handles {
        let (c, a) = h.join().expect("client thread");
        committed += c;
        aborted += a;
    }
    (committed, aborted)
}

/// Concurrent Zipf-skewed commits: the audit stays clean (histories
/// serialize — the auditor replays OCC and checks the serialization
/// graph for cycles), snapshots prune the WAL, and a **clean** restart
/// reproduces every server's tip hash from disk.
#[test]
fn zipf_stress_audit_clean_and_restart_identical() {
    let dir = TempDir::new("pipeline-stress");
    let (tips, committed) = {
        let cluster = FidesCluster::start(pipelined_config(&dir, 8));
        // Zipf contention on a saturated 1-CPU host legitimately aborts
        // a large share via the §4.3.1 sequential-log rule, and the
        // abort rate swings with scheduler luck (18–20/60 at the PR 3
        // baseline, occasionally under 15 on busy CI boxes). Instead of
        // betting one wave against the scheduler, drive extra waves
        // until enough commits accumulate: the floor measures that the
        // pipeline makes progress, not single-wave throughput.
        let mut committed = 0usize;
        let mut waves = 0usize;
        while committed < 15 && waves < 4 {
            let (c, _aborted) = run_zipf_clients(&cluster, 6, 10);
            committed += c;
            waves += 1;
        }
        assert!(
            committed >= 15,
            "a solid fraction of transactions should commit after {waves} waves: {committed}"
        );
        cluster.flush();
        cluster
            .settle(Duration::from_secs(5))
            .expect("logs converge");

        // Histories serialize and every proof checks out.
        let report = cluster.audit();
        assert!(report.is_clean(), "{report}");

        let tips: Vec<_> = (0..N_SERVERS)
            .map(|s| {
                let state = cluster.server_state(s);
                (state.log().len(), state.log().tip_hash())
            })
            .collect();
        cluster.shutdown();
        (tips, committed)
    };
    assert!(committed > 0);

    // Snapshots + pruning actually bit: the WAL no longer starts at
    // record 0, and the evicted segments are parked in the archive.
    let wal_dir = PersistenceConfig::server_dir(dir.path(), 0).join("wal");
    let first_segment = std::fs::read_dir(&wal_dir)
        .expect("wal dir exists")
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("wal-"))
        .min()
        .expect("some segment");
    assert_ne!(
        first_segment, "wal-00000000000000000000.seg",
        "WAL prefix below the snapshot should be pruned"
    );
    let archive_dir = PersistenceConfig::server_dir(dir.path(), 0).join("archive");
    assert!(
        std::fs::read_dir(&archive_dir)
            .expect("archive dir")
            .count()
            > 0,
        "pruned segments are archived for the auditor"
    );

    // Restart: recovery reads archive + live WAL, re-verifies the whole
    // chain, and reproduces the exact tips.
    let cluster = FidesCluster::start(pipelined_config(&dir, 8));
    for (s, (len, tip)) in tips.iter().enumerate() {
        let state = cluster.server_state(s as u32);
        assert_eq!(state.log().len(), *len, "server {s} length");
        assert_eq!(state.log().tip_hash(), *tip, "server {s} tip hash");
    }
    assert!(cluster.audit().is_clean());
    cluster.shutdown();
}

/// The commit-round stage breakdown tiles the measured round latency:
/// the coordinator's six stage histograms (batch formation, OCC
/// validation, Merkle update, CoSi assembly, WAL fsync hand-off,
/// outcome send) are recorded as contiguous laps of the same clock
/// that accumulates `round_nanos`, so (a) every stage reports samples
/// and (b) their sums reproduce the total to within the residual the
/// laps deliberately skip (catch-up, lock hand-offs).
#[test]
fn stage_breakdown_tiles_round_latency() {
    use fides_telemetry::Stage;

    let dir = TempDir::new("pipeline-stages");
    let cluster = FidesCluster::start(pipelined_config(&dir, 8));
    let mut committed = 0usize;
    let mut waves = 0usize;
    while committed < 15 && waves < 4 {
        let (c, _aborted) = run_zipf_clients(&cluster, 4, 10);
        committed += c;
        waves += 1;
    }
    cluster.flush();
    cluster
        .settle(Duration::from_secs(5))
        .expect("logs converge");

    let stats = cluster.round_stats();
    assert!(stats.rounds > 0);
    let metrics = cluster.server_metrics(0);
    assert_eq!(metrics.counter("commit.rounds"), stats.rounds);

    // (a) Every commit-path stage saw every round on the coordinator.
    for stage in Stage::ALL {
        let h = metrics.histogram(stage.metric_name());
        assert!(
            h.count > 0,
            "stage {} reported no samples: {:?}",
            stage.name(),
            metrics.counters
        );
    }

    // (b) The stage laps tile the measured round latency **per
    // round**. With tail stages deferred across rounds (batched
    // outcome fan-out, group-commit hand-off) the
    // per-stage sample counts no longer all equal the round count, so
    // the absolute sums cannot be compared — the per-round means still
    // tile: the summed mean stage lap lands within the residual of the
    // mean round latency (catch-up, lock hand-offs, per-lap clock
    // reads).
    let total = u64::try_from(stats.round_nanos).expect("round nanos fit");
    let round_mean = total as f64 / stats.rounds.max(1) as f64;
    let staged_mean: f64 = Stage::ALL
        .iter()
        .map(|s| {
            let h = metrics.histogram(s.metric_name());
            h.sum as f64 / h.count.max(1) as f64
        })
        .sum();
    assert!(
        staged_mean <= round_mean * 1.05,
        "mean stage laps exceed the mean round clock: {staged_mean} > {round_mean}"
    );
    let tolerance = round_mean / 5.0 + 5_000_000.0;
    assert!(
        round_mean - staged_mean < tolerance,
        "mean stage laps {staged_mean} fall more than {tolerance}ns short of {round_mean}"
    );

    // The cohorts contribute their half of the pipeline: vote-side OCC
    // validation and the apply split show up cluster-wide too.
    let cluster_metrics = cluster.metrics();
    for stage in [Stage::OccValidate, Stage::MerkleUpdate, Stage::WalFsync] {
        assert!(
            cluster_metrics.histogram(stage.metric_name()).count
                > metrics.histogram(stage.metric_name()).count,
            "cohorts recorded no {} samples",
            stage.name()
        );
    }
    // Cluster-wide, every stage's percentiles are sane.
    for stage in Stage::ALL {
        let h = cluster_metrics.histogram(stage.metric_name());
        let (p50, p99) = (h.percentile(50.0), h.percentile(99.0));
        assert!(
            p99 >= p50 && p50 > 0,
            "stage {} percentiles bogus: p50 {p50} ns, p99 {p99} ns",
            stage.name()
        );
    }
    // The asynchronous group-commit fsync is reported out-of-band of
    // the round clock.
    let fsync = cluster_metrics.histogram("durability.fsync_ns");
    assert!(fsync.count > 0 && fsync.percentile(50.0) > 0, "{fsync:?}");
    assert!(cluster_metrics.histogram("durability.batch_blocks").count > 0);

    cluster.shutdown();
}

/// The ordered-ack guarantee under a mid-stream kill: acknowledged
/// commits survive on the coordinator's disk, every server's recovered
/// log is a hash-chain prefix of its pre-kill log, and startup's
/// verified recovery accepts the torn-down state.
#[test]
fn mid_stream_kill_recovers_acked_prefix() {
    let dir = TempDir::new("pipeline-kill");
    let config = || {
        ClusterConfig::new(N_SERVERS)
            .items_per_shard(ITEMS_PER_SHARD)
            .batch_size(4)
            .max_clients(8)
            .flush_interval(Duration::from_millis(5))
            .persistence(
                PersistenceConfig::files(dir.path())
                    .wal(WalConfig {
                        segment_bytes: 1 << 20,
                        sync: SyncPolicy::Pipelined,
                    })
                    // No snapshots: recovery must replay the full WAL.
                    .snapshot_interval(0),
            )
    };
    let cluster = FidesCluster::start(config());

    // Wave 1: committed AND acknowledged — every outcome the clients
    // received implies the coordinator's covering fsync already ran.
    let mut acked_heights = Vec::new();
    let mut client = cluster.client(0);
    for i in 0..6 {
        let keys = vec![
            FidesCluster::key_name(i % N_SERVERS, i as usize),
            FidesCluster::key_name((i + 1) % N_SERVERS, i as usize + 2),
        ];
        let outcome = client.run_rmw_batched(&keys, 1).expect("wave-1 commit");
        if let fides_core::client::TxnOutcome::Committed { height, .. } = outcome {
            acked_heights.push(height);
        }
    }
    assert!(!acked_heights.is_empty(), "wave 1 must commit something");
    cluster
        .settle(Duration::from_secs(5))
        .expect("wave 1 settles");

    // Wave 2: submitted but never acknowledged — then the plug is
    // pulled while blocks are in flight to the WAL writer.
    let mut wave2 = Vec::new();
    for i in 0..4u64 {
        let keys = vec![FidesCluster::key_name((i % 2) as u32, 20 + i as usize)];
        let mut txn = client.begin();
        let values = client.read_all(&mut txn, &keys).expect("read");
        let writes: Vec<_> = keys
            .iter()
            .zip(values)
            .map(|(k, v)| {
                (
                    k.clone(),
                    fides_store::Value::from_i64(v.as_i64().unwrap_or(0) + 1),
                )
            })
            .collect();
        client.write_all(&mut txn, &writes).expect("write");
        wave2.push(client.commit_async(txn));
    }
    // Give the coordinator a beat to form blocks, then kill all the
    // durability engines without flushing.
    std::thread::sleep(Duration::from_millis(30));
    let durable_at_kill: Vec<_> = (0..N_SERVERS)
        .map(|s| cluster.server_state(s).durable_height().unwrap_or(0))
        .collect();
    let states: Vec<_> = (0..N_SERVERS).map(|s| cluster.server_state(s)).collect();
    for state in &states {
        state.kill_durability();
    }
    cluster.shutdown();
    // The final in-memory chains (ahead of the torn disk): everything
    // the servers had appended by the time their threads stopped.
    let pre_kill: Vec<_> = states.iter().map(|s| s.log()).collect();

    // Restart over the torn state: verified recovery must accept it.
    let cluster = FidesCluster::try_start(config()).expect("recovery after kill");
    for s in 0..N_SERVERS {
        let state = cluster.server_state(s);
        let recovered = state.log();
        let full = &pre_kill[s as usize];
        // Prefix reproduction: the recovered chain is exactly the head
        // of the pre-kill chain (same hashes, block for block).
        assert!(
            recovered.len() <= full.len(),
            "server {s} recovered more than existed"
        );
        assert!(
            recovered.len() as u64 >= durable_at_kill[s as usize],
            "server {s} lost fsync-covered blocks: {} < {}",
            recovered.len(),
            durable_at_kill[s as usize],
        );
        for (i, block) in recovered.blocks().iter().enumerate() {
            assert_eq!(
                block.hash(),
                full.blocks()[i].hash(),
                "server {s} diverges at height {i}"
            );
        }
        if recovered.len() == full.len() {
            assert_eq!(recovered.tip_hash(), full.tip_hash());
        }
    }
    // Ordered acks: every acknowledged wave-1 commit is on the
    // coordinator's recovered chain.
    let coordinator = cluster.server_state(0);
    let log = coordinator.log();
    for height in &acked_heights {
        assert!(
            log.get(*height).is_some(),
            "acked block {height} lost by the kill"
        );
    }
    cluster.shutdown();
}

/// A Byzantine cohort under `SyncPolicy::Pipelined`: a block whose
/// collective signature cannot be assembled is never durable, but the
/// clients must still receive the outcome immediately and classify it
/// as an anomaly — exactly as the inline engine behaves. (Regression:
/// deferring that outcome to a covering fsync that can never happen
/// would starve the clients into timeouts.)
#[test]
fn byzantine_cosign_under_pipelined_still_surfaces_anomaly() {
    use fides_core::behavior::Behavior;
    let dir = TempDir::new("pipeline-byzantine");
    let cluster = FidesCluster::start(
        ClusterConfig::new(3)
            .items_per_shard(8)
            .flush_interval(Duration::from_millis(5))
            .behavior(
                2,
                Behavior {
                    corrupt_cosi_response: true,
                    ..Behavior::default()
                },
            )
            .persistence(
                PersistenceConfig::files(dir.path())
                    .wal(WalConfig {
                        sync: SyncPolicy::Pipelined,
                        ..WalConfig::default()
                    })
                    .snapshot_interval(0),
            ),
    );
    let mut client = cluster.client(0);
    let key = FidesCluster::key_name(0, 1);
    let outcome = client
        .run_rmw_batched(&[key], 1)
        .expect("outcome must arrive promptly despite the invalid cosign");
    assert!(outcome.is_anomaly(), "got {outcome:?}");
    // The coordinator identified the culprit (Lemma 4) and nothing was
    // logged or persisted for the failed round.
    let coordinator = cluster.server_state(0);
    assert!(!coordinator.cosi_culprits().is_empty());
    assert_eq!(coordinator.log().len(), 0);
    cluster.shutdown();
}

/// Mixed protocol sanity under the pipelined policy: the in-memory
/// backend exercises the same pipeline (writer thread, ordered acks)
/// without a filesystem, and a restart over the shared memory "disks"
/// recovers identically.
#[test]
fn pipelined_memory_backend_restart() {
    use fides_core::recovery::MemoryCluster;
    let disks = MemoryCluster::new();
    let config = |disks: &MemoryCluster| {
        ClusterConfig::new(3)
            .items_per_shard(16)
            .batch_size(2)
            .flush_interval(Duration::from_millis(5))
            .persistence(
                PersistenceConfig::memory(disks.clone())
                    .wal(WalConfig {
                        sync: SyncPolicy::Pipelined,
                        ..WalConfig::default()
                    })
                    .snapshot_interval(4),
            )
    };
    let (tip, len) = {
        let cluster = FidesCluster::start(config(&disks));
        let mut client = cluster.client(0);
        for i in 0..5 {
            let key = FidesCluster::key_name(i % 3, i as usize);
            assert!(client
                .run_rmw_batched(&[key], 1)
                .expect("commit")
                .committed());
        }
        cluster.settle(Duration::from_secs(5)).expect("settles");
        assert!(cluster.audit().is_clean());
        let state = cluster.server_state(0);
        let log = state.log();
        let out = (log.tip_hash(), log.len());
        cluster.shutdown();
        out
    };
    let cluster = FidesCluster::start(config(&disks));
    let state = cluster.server_state(0);
    assert_eq!(state.log().len(), len);
    assert_eq!(state.log().tip_hash(), tip);
    cluster.shutdown();
}
