//! fides-trace integration tests: causal span trees across the commit
//! pipeline, and the liveness watchdog against a stalled leader.
//!
//! * Span-tree assembly — a fully-sampled commit produces one tree per
//!   transaction whose edges match the message flow (client root →
//!   commit round → coordinator stages / cohort work), and whose
//!   coordinator stage spans measure the same intervals as the
//!   `commit.stage.*` histograms.
//! * Watchdog — a leader that collects every vote and then goes silent
//!   (`Behavior::stall_after_votes`) is declared stalled by the
//!   cohorts' round-progress watchdogs within 2× the round timeout,
//!   and the flight-recorder dump names the stalled height and leader.

use std::time::{Duration, Instant};

use fides_core::messages::CommitProtocol;
use fides_core::system::{ClusterConfig, FidesCluster};
use fides_core::Behavior;
use fides_telemetry::trace::{assemble, to_chrome_json, CLIENT_TAG_BASE};
use fides_telemetry::{Span, Stage};

const N_SERVERS: u32 = 4;
const ITEMS_PER_SHARD: usize = 64;

fn config() -> ClusterConfig {
    ClusterConfig::new(N_SERVERS)
        .items_per_shard(ITEMS_PER_SHARD)
        .protocol(CommitProtocol::TfCommit)
        .batch_size(1)
        .max_clients(8)
}

/// A read-modify-write spec touching two shards, so the traced round
/// has real cohort work on servers other than the coordinator.
fn cross_shard_keys(i: usize) -> Vec<fides_store::Key> {
    vec![
        FidesCluster::key_name((i % N_SERVERS as usize) as u32, i % ITEMS_PER_SHARD),
        FidesCluster::key_name(
            ((i + 1) % N_SERVERS as usize) as u32,
            (i + 3) % ITEMS_PER_SHARD,
        ),
    ]
}

#[test]
fn traced_commit_assembles_cross_server_span_tree() {
    // Every commit sampled. The sampler reads this once per client, at
    // construction; the variable is process-global, which is fine —
    // extra sampled traffic from a concurrent test only adds spans to
    // sinks nobody snapshots.
    std::env::set_var("FIDES_TRACE_SAMPLE", "1");
    let cluster = FidesCluster::start(config());
    let mut client = cluster.client(0);
    let outcome = client
        .run_rmw_batched(&cross_shard_keys(0), 1)
        .expect("commit");
    assert!(outcome.committed());
    cluster.flush();
    cluster
        .settle(Duration::from_secs(5))
        .expect("logs converge");
    // The coordinator closes its round after the outcome has gone out,
    // so the client (and the logs) can be done first: wait for the
    // round span before reading the coordinator's spans and histograms.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cluster
        .dump_traces()
        .iter()
        .any(|s| s.name == "commit.round")
    {
        assert!(
            Instant::now() < deadline,
            "the coordinator never closed its round"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Read the coordinator's stage histograms before shutdown: with
    // one commit and `batch_size(1)` there was exactly one round, so
    // each histogram's sum is that round's single stage lap.
    let coord_metrics = cluster.server_metrics(0);

    let mut spans = cluster.dump_traces();
    spans.extend(client.spans());
    cluster.shutdown();

    let trees = assemble(&spans);
    let tree = trees
        .iter()
        .find(|t| t.span("client.commit").is_some())
        .expect("a traced commit retained its client root");

    // Edges match the message flow: client root → commit round →
    // stage/cohort spans.
    let root = tree.root().expect("client root");
    assert_eq!(root.name, "client.commit");
    assert!(root.node >= CLIENT_TAG_BASE, "root recorded by the client");
    let round = tree.span("commit.round").expect("round span");
    assert_eq!(round.parent, root.span_id, "round hangs off client root");
    assert_eq!(round.node, 0, "fixed coordinator led the round");
    // Only the starts nest: the outcome fans out *during* the round
    // (OutcomeSend precedes the round span's close), so the client can
    // close its root before the coordinator closes the round.
    assert!(root.start_ns <= round.start_ns);

    // All six commit stages on the coordinator, each a child of the
    // round span, each measuring the same interval as the coordinator's
    // stage histogram (two clock reads apart, so give microseconds of
    // scheduling noise a wide berth).
    for stage in Stage::ALL {
        let stage_spans: Vec<&Span> = tree
            .spans
            .iter()
            .filter(|s| s.name == stage.metric_name())
            .collect();
        let coord = stage_spans
            .iter()
            .find(|s| s.node == 0)
            .unwrap_or_else(|| panic!("no coordinator span for {}", stage.metric_name()));
        assert_eq!(
            coord.parent,
            round.span_id,
            "{} parent",
            stage.metric_name()
        );
        let hist = coord_metrics.histogram(stage.metric_name());
        let tolerance = (hist.sum / 4).max(5_000_000);
        assert!(
            coord.duration_ns().abs_diff(hist.sum) <= tolerance,
            "{}: span {} ns vs histogram {} ns",
            stage.metric_name(),
            coord.duration_ns(),
            hist.sum
        );
    }

    // Cohort-side work landed in the same tree, attributed to other
    // servers and hung off the round span via the envelope context.
    for name in ["cohort.occ_validate", "cohort.cosi_respond"] {
        let cohort = tree
            .spans
            .iter()
            .find(|s| s.name == name && s.node != 0 && s.node < CLIENT_TAG_BASE)
            .unwrap_or_else(|| panic!("no cohort span {name}"));
        assert_eq!(cohort.parent, round.span_id, "{name} parent");
    }

    // The export is well-formed Chrome trace-event JSON (CI validates
    // it with a real parser; this is the cheap structural check).
    let json = to_chrome_json(&tree.spans);
    assert!(json.starts_with("{\"traceEvents\": ["));
    assert!(json.ends_with("]}"));
    assert!(json.contains("\"client.commit\""));
    assert!(json.contains("\"commit.stage.wal_fsync\""));
}

#[test]
fn watchdog_declares_stalled_leader_within_two_round_timeouts() {
    let round_timeout = Duration::from_millis(200);
    let cluster = FidesCluster::start(
        config()
            .flush_interval(Duration::from_millis(5))
            .round_timeout(round_timeout)
            .behavior(
                0,
                Behavior {
                    stall_after_votes: true,
                    ..Behavior::default()
                },
            ),
    );
    let mut client = cluster.client(0);
    let keys = cross_shard_keys(0);
    let mut txn = client.begin();
    let values = client.read_all(&mut txn, &keys).expect("reads");
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
    client.write_all(&mut txn, &writes).expect("writes");

    // The leader collects every vote for this round, then goes silent;
    // the cohorts are left holding live CoSi witnesses.
    let t0 = Instant::now();
    let _abandoned = client.commit_async(txn);
    let stall = loop {
        let found = (1..N_SERVERS).find_map(|s| cluster.stall_log(s).stalls().into_iter().next());
        if let Some(stall) = found {
            break stall;
        }
        assert!(
            t0.elapsed() <= 2 * round_timeout,
            "no stall declared within 2x the round timeout"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(t0.elapsed() <= 2 * round_timeout, "detection too slow");
    assert_eq!(stall.leader, 0, "the fixed coordinator is the leader");
    assert_eq!(stall.height, 0, "the first round is the stalled one");
    assert!(
        stall.waited_ms >= round_timeout.as_millis() as u64 * 9 / 10,
        "stall declared before the timeout elapsed: {} ms",
        stall.waited_ms
    );

    // The flight-recorder dump names the stalled height and leader and
    // captured the cohort's inflight state.
    let dump = (1..N_SERVERS)
        .flat_map(|s| cluster.stall_log(s).dumps())
        .next()
        .expect("a cohort dumped its flight recorder");
    assert_eq!(dump.stall, stall);
    let rendered = dump.render();
    assert!(
        rendered.contains("stall at height 0 (leader 0"),
        "dump must name the stalled height and leader:\n{rendered}"
    );
    assert!(
        dump.notes.iter().any(|n| n.contains("witness")),
        "dump notes the live CoSi witnesses: {:?}",
        dump.notes
    );

    // The stall is also visible as a metric, for the export plane.
    let stalls: u64 = (0..N_SERVERS)
        .map(|s| cluster.server_metrics(s).counter("watchdog.stalls"))
        .sum();
    assert!(stalls >= 1, "watchdog.stalls counter never moved");
    cluster.shutdown();
}
