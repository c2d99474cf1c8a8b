//! The verified read plane, end to end: proof-carrying reads served by
//! owners and checkpoint mirrors, absence proofs for negative reads,
//! and one Byzantine server caught forging a read — refuted by the
//! client alone and pinned by the audit. Mirrors are restored once per
//! peer and refreshed by deltas after that; the run checks both.
//!
//! ```text
//! cargo run --release --example verified_reads
//! ```

use std::time::{Duration, Instant};

use fides::core::client::ClientError;
use fides::core::system::{ClusterConfig, FidesCluster};
use fides::core::{Behavior, PersistenceConfig, ReadConsistency, ViolationKind};
use fides::durability::testutil::TempDir;
use fides::store::Key;

fn main() {
    let dir = TempDir::new("verified-reads-example");
    // Three servers, persistence on with frequent checkpoints so every
    // peer soon holds a verified mirror of every other shard. Server 2
    // is Byzantine: it forges the value of one key in snapshot reads.
    let forged_key = Key::new("s000:item-000002");
    let cluster = FidesCluster::start(
        ClusterConfig::new(3)
            .items_per_shard(16)
            .persistence(PersistenceConfig::files(dir.path()).snapshot_interval(4))
            .behavior(
                2,
                Behavior {
                    forge_read_values: vec![forged_key.clone()],
                    ..Behavior::default()
                },
            ),
    );

    // Committed history past several snapshot intervals, on every
    // shard, so co-signed roots exist and each peer's mirror has been
    // refreshed a few times.
    const INTERVAL: u64 = 4;
    let mut writer = cluster.client(0);
    let hot = cluster.key_of(0, 0);
    let mut i = 0;
    while writer.known_tip() < 5 * INTERVAL {
        let keys = [
            hot.clone(),
            cluster.key_of(1, i % 16),
            cluster.key_of(2, i % 16),
        ];
        let outcome = writer.run_rmw_batched(&keys, 5).expect("commit");
        assert!(outcome.committed());
        i += 1;
    }
    let tip = cluster.settle(Duration::from_secs(5)).expect("settle") as u64;
    // Every server checkpoints at the same heights: wait until each one
    // holds every peer's newest mirror.
    let newest = tip - tip % INTERVAL;
    let deadline = Instant::now() + Duration::from_secs(10);
    for holder in 0..3u32 {
        let want: Vec<(u32, u64)> = (0..3)
            .filter(|o| *o != holder)
            .map(|o| (o, newest))
            .collect();
        while cluster.server_state(holder).mirror_heights() != want {
            assert!(
                Instant::now() < deadline,
                "server {holder} never mirrored {newest}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // ---- 1. A verified read: no commit round, proof checked locally.
    let mut reader = cluster.client(1);
    let rounds_before = cluster.round_stats().rounds;
    let values = reader
        .read_only(std::slice::from_ref(&hot), ReadConsistency::Fresh)
        .expect("fresh verified read");
    println!(
        "fresh read of {hot}: {} (proof-verified, {} commit rounds ran for it)",
        values[0].as_ref().unwrap(),
        cluster.round_stats().rounds - rounds_before,
    );
    assert_eq!(cluster.round_stats().rounds, rounds_before);

    // ---- 2. A negative read is just as tamper-evident: the absence
    // of a key is *proven* (a bracket of adjacent keys in the sorted
    // key tree), not taken on faith.
    let phantom = Key::new("s000:no-such-item");
    let values = reader
        .read_only(std::slice::from_ref(&phantom), ReadConsistency::Fresh)
        .expect("verified absence");
    println!("read of {phantom}: proven absent = {}", values[0].is_none());
    assert!(values[0].is_none());

    // ---- 3. Mirrors: each server restored each peer's first mirror
    // once and applied every later one as a delta in place.
    for holder in 0..3u32 {
        let metrics = cluster.server_metrics(holder);
        let restores = metrics.counter("repair.mirror_restores");
        let deltas = metrics.counter("repair.mirror_deltas");
        println!(
            "server {holder}: {restores} mirror restore(s), {deltas} mirror delta(s), \
             {} resync(s)",
            metrics.counter("repair.mirror_resyncs"),
        );
        assert_eq!(restores, 2, "one restore per peer");
        assert!(deltas > 0, "later mirrors arrive as deltas");
    }

    // ---- 4. Mirror-served reads: ask server 1 for shard 0's data.
    // The proof anchors to the same co-signed root the owner would use;
    // the response reports exactly how stale the mirror is.
    let verified = reader
        .read_only_from(
            1,
            std::slice::from_ref(&hot),
            ReadConsistency::BoundedStaleness(64),
        )
        .expect("delta-refreshed mirror read");
    println!(
        "mirror read from server 1: value {}, covered height {} (newest mirror {newest}), \
         staleness {} block(s)",
        verified.values[0].as_ref().unwrap(),
        verified.covered_height,
        verified.staleness,
    );
    assert_eq!(verified.covered_height, newest);

    // ---- 5. The Byzantine forged-proof refutation: server 2 serves a
    // corrupted value for `forged_key`. The genuine multiproof cannot
    // link the forged value to the co-signed root, so the *client*
    // refutes it — no auditor round-trip, no honest-server quorum
    // needed at read time.
    let err = reader
        .read_only_from(
            2,
            std::slice::from_ref(&forged_key),
            ReadConsistency::BoundedStaleness(64),
        )
        .expect_err("the forgery must not verify");
    match &err {
        ClientError::ReadRefuted(fault) => {
            println!("server 2's forged read REFUTED client-side: {fault}")
        }
        other => panic!("expected a refutation, got {other:?}"),
    }

    // ---- 6. ...and the audit pins the evidence on exactly server 2.
    let report = cluster.audit();
    let against_2 = report.against_server(2);
    let tampered_reads = against_2
        .iter()
        .filter(|v| matches!(&v.kind, ViolationKind::TamperedRead { .. }))
        .count();
    println!(
        "audit: {} violation(s) against server 2 ({tampered_reads} tampered read(s)); \
         servers 0 and 1 clean: {}",
        against_2.len(),
        report.against_server(0).is_empty() && report.against_server(1).is_empty(),
    );
    assert!(tampered_reads >= 1);
    assert!(report.against_server(0).is_empty());
    assert!(report.against_server(1).is_empty());

    cluster.shutdown();
    println!("done.");
}
