//! Integration tests for the verified read plane: proof-carrying
//! snapshot reads served by owners and checkpoint mirrors, Byzantine
//! refutation with audit attribution, and the repair-aware retry hint.

use std::time::{Duration, Instant};

use fides_core::client::ClientError;
use fides_core::messages::ReadRefusal;
use fides_core::system::{ClusterConfig, FidesCluster};
use fides_core::{Behavior, ReadConsistency, ReadFault, ViolationKind};
use fides_store::Key;

fn commit_rmw(client: &mut fides_core::ClientSession, keys: &[Key], delta: i64) {
    let outcome = client.run_rmw_batched(keys, delta).expect("commit");
    assert!(outcome.committed(), "{outcome:?}");
}

#[test]
fn owner_reads_verify_without_commit_rounds() {
    let cluster = FidesCluster::start(ClusterConfig::new(3).items_per_shard(16));
    let k0 = cluster.key_of(0, 1);
    let k2 = cluster.key_of(2, 5);
    let mut writer = cluster.client(0);
    commit_rmw(&mut writer, &[k0.clone(), k2.clone()], 11);
    cluster.settle(Duration::from_secs(5)).expect("settled");

    // A *different* client (fresh registry, knows only genesis) reads
    // both shards: values come back proof-verified, absent keys come
    // back proven absent, and not a single commit round runs.
    let rounds_before = cluster.round_stats().rounds;
    let mut reader = cluster.client(1);
    let phantom = Key::new("never-written");
    let values = reader
        .read_only(
            &[k0.clone(), k2.clone(), phantom.clone()],
            ReadConsistency::BoundedStaleness(0),
        )
        .expect("verified read");
    assert_eq!(values[0].as_ref().unwrap().as_i64(), Some(111));
    assert_eq!(values[1].as_ref().unwrap().as_i64(), Some(111));
    assert!(values[2].is_none(), "phantom key proven absent");

    // Plenty more reads: still zero additional rounds.
    for _ in 0..10 {
        reader
            .read_only(&[k0.clone(), k2.clone()], ReadConsistency::Fresh)
            .expect("verified read");
    }
    assert_eq!(cluster.round_stats().rounds, rounds_before);

    let stats = reader.take_read_stats();
    assert!(stats.reads >= 11, "reads counted: {stats:?}");
    assert!(stats.keys_read >= 23);
    assert!(stats.verify_nanos() > 0);
    assert!(
        stats.staleness.snapshot().count_at(0) > 0,
        "fresh reads: {stats:?}"
    );

    let report = cluster.audit();
    assert!(report.is_clean(), "{report}");
    cluster.shutdown();
}

#[test]
fn genesis_reads_verify_before_any_commit() {
    let cluster = FidesCluster::start(ClusterConfig::new(2).items_per_shard(8));
    let mut reader = cluster.client(0);
    let key = cluster.key_of(1, 3);
    let values = reader
        .read_only(&[key, Key::new("missing")], ReadConsistency::Fresh)
        .expect("genesis read");
    assert_eq!(values[0].as_ref().unwrap().as_i64(), Some(100));
    assert!(values[1].is_none());
    assert!(cluster.audit().is_clean());
    cluster.shutdown();
}

#[test]
fn forged_value_refuted_and_attributed() {
    let key = Key::new("s001:item-000002");
    let cluster = FidesCluster::start(ClusterConfig::new(3).items_per_shard(8).behavior(
        1,
        Behavior {
            forge_read_values: vec![key.clone()],
            ..Behavior::default()
        },
    ));
    let mut reader = cluster.client(0);
    let err = reader
        .read_only(std::slice::from_ref(&key), ReadConsistency::Fresh)
        .expect_err("forged value must not verify");
    assert!(
        matches!(err, ClientError::ReadRefuted(_) | ClientError::Timeout(_)),
        "{err:?}"
    );

    let report = cluster.audit();
    let against = report.against_server(1);
    assert!(
        against
            .iter()
            .any(|v| matches!(&v.kind, ViolationKind::TamperedRead { .. })),
        "audit must pin the forger: {report}"
    );
    // No other server is accused of anything.
    assert!(report.against_server(0).is_empty());
    assert!(report.against_server(2).is_empty());
    cluster.shutdown();
}

#[test]
fn forged_absence_refuted_and_attributed() {
    let key = Key::new("s002:item-000001");
    let cluster = FidesCluster::start(ClusterConfig::new(3).items_per_shard(8).behavior(
        2,
        Behavior {
            forge_read_absence: vec![key.clone()],
            ..Behavior::default()
        },
    ));
    let mut reader = cluster.client(0);
    let err = reader
        .read_only_from(2, std::slice::from_ref(&key), ReadConsistency::Fresh)
        .expect_err("forged absence must not verify");
    match err {
        ClientError::ReadRefuted(ReadFault::Proof(_)) => {}
        other => panic!("expected a proof refutation, got {other:?}"),
    }
    let report = cluster.audit();
    assert!(report
        .against_server(2)
        .iter()
        .any(|v| matches!(&v.kind, ViolationKind::TamperedRead { .. })));
    cluster.shutdown();
}

/// Drives commits until every peer holds a checkpoint mirror of the
/// owner's shard at height ≥ `min_height`.
fn drive_until_mirrored(
    cluster: &FidesCluster,
    owner: u32,
    writer: &mut fides_core::ClientSession,
    min_height: u64,
) -> u64 {
    let key = cluster.key_of(owner, 0);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut committed = 0u64;
    loop {
        commit_rmw(writer, std::slice::from_ref(&key), 1);
        committed += 1;
        let mirrored = (0..cluster.config().n_servers)
            .filter(|s| *s != owner)
            .all(|s| {
                cluster
                    .server_state(s)
                    .mirror_heights()
                    .iter()
                    .any(|(origin, h)| *origin == owner && *h >= min_height)
            });
        if mirrored {
            return committed;
        }
        assert!(Instant::now() < deadline, "mirrors never formed");
    }
}

#[test]
fn mirror_served_reads_verify_within_bound() {
    let tmp = fides_durability::testutil::TempDir::new("mirror-reads");
    let cluster = FidesCluster::start(
        ClusterConfig::new(3)
            .items_per_shard(8)
            .persistence(fides_core::PersistenceConfig::files(tmp.path()).snapshot_interval(4)),
    );
    let mut writer = cluster.client(0);
    drive_until_mirrored(&cluster, 0, &mut writer, 4);
    cluster.settle(Duration::from_secs(5)).expect("settled");

    // A client that knows the current tip (it committed) asks a NON-
    // owner peer for shard 0 under a generous bound: the peer serves
    // from its verified mirror, the proof verifies, and the audit stays
    // clean — every server is a read replica for every shard.
    let mut reader = cluster.client(1);
    let key = cluster.key_of(0, 0);
    commit_rmw(&mut reader, &[cluster.key_of(1, 1)], 1);
    let verified = reader
        .read_only_from(
            2,
            std::slice::from_ref(&key),
            ReadConsistency::BoundedStaleness(64),
        )
        .expect("mirror-served read");
    assert!(verified.values[0].is_some());
    assert!(verified.covered_height >= 4);
    assert!(verified.root_height <= verified.covered_height);

    // The generic path load-balances across owner + mirrors and always
    // verifies.
    for _ in 0..6 {
        let values = reader
            .read_only(
                std::slice::from_ref(&key),
                ReadConsistency::BoundedStaleness(64),
            )
            .expect("load-balanced read");
        assert!(values[0].is_some());
    }
    assert!(cluster.read_evidence().is_empty());
    let report = cluster.audit();
    assert!(report.is_clean(), "{report}");
    cluster.shutdown();
}

#[test]
fn stale_beyond_bound_serve_is_refuted_and_audited() {
    let tmp = fides_durability::testutil::TempDir::new("stale-reads");
    let cluster = FidesCluster::start(
        ClusterConfig::new(3)
            .items_per_shard(8)
            .persistence(fides_core::PersistenceConfig::files(tmp.path()).snapshot_interval(4))
            .behavior(
                2,
                Behavior {
                    ignore_read_bounds: true,
                    ..Behavior::default()
                },
            ),
    );
    // Mirrors form at height ~4, then the chain advances well past
    // them.
    let mut writer = cluster.client(0);
    drive_until_mirrored(&cluster, 0, &mut writer, 4);
    let key = cluster.key_of(0, 0);
    let mut reader = cluster.client(1);
    for _ in 0..8 {
        commit_rmw(&mut reader, std::slice::from_ref(&key), 1);
    }
    // Land off the snapshot interval so the newest possible mirror is
    // strictly below the tip (no "mirror exactly at tip" race).
    while reader.known_tip().is_multiple_of(4) {
        commit_rmw(&mut reader, std::slice::from_ref(&key), 1);
    }
    cluster.settle(Duration::from_secs(5)).expect("settled");
    let tip = reader.known_tip();
    assert!(tip >= 12, "tip {tip}");

    // Server 2 ignores the freshness bound and serves its stale mirror
    // as if it were fresh: the client refutes it (the mirror's root
    // height is provably below the demanded coverage) and files
    // evidence against exactly server 2.
    let err = reader
        .read_only_from(2, std::slice::from_ref(&key), ReadConsistency::Fresh)
        .expect_err("stale-beyond-bound serve must be refuted");
    match err {
        ClientError::ReadRefuted(
            ReadFault::StaleBeyondBound { .. } | ReadFault::StaleClaim { .. },
        ) => {}
        other => panic!("expected a staleness refutation, got {other:?}"),
    }
    let report = cluster.audit();
    assert!(report
        .against_server(2)
        .iter()
        .any(|v| matches!(&v.kind, ViolationKind::TamperedRead { .. })));
    assert!(report.against_server(0).is_empty());
    assert!(report.against_server(1).is_empty());
    cluster.shutdown();
}

#[test]
fn mirror_reads_mid_supersede_never_tear() {
    // A reader hammers a mirror holder while the writer keeps pushing
    // new checkpoints (mirrors superseding each other). Every response
    // must verify against exactly one co-signed root — a torn mix of
    // old shard + new root (or vice versa) would fail verification and
    // file evidence.
    let tmp = fides_durability::testutil::TempDir::new("supersede-reads");
    let cluster = FidesCluster::start(
        ClusterConfig::new(3)
            .items_per_shard(8)
            .batch_size(1)
            .persistence(fides_core::PersistenceConfig::files(tmp.path()).snapshot_interval(2)),
    );
    let mut writer = cluster.client(0);
    drive_until_mirrored(&cluster, 0, &mut writer, 2);

    let key = cluster.key_of(0, 0);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader_stop = std::sync::Arc::clone(&stop);
    let mut reader = cluster.client(1);
    let reader_key = key.clone();
    let reader_thread = std::thread::spawn(move || {
        let mut served = 0u64;
        while !reader_stop.load(std::sync::atomic::Ordering::Relaxed) {
            match reader.read_only_from(
                1,
                std::slice::from_ref(&reader_key),
                ReadConsistency::BoundedStaleness(1_000),
            ) {
                Ok(verified) => {
                    assert!(verified.values[0].is_some());
                    served += 1;
                }
                // Honest refusals (cache mid-rebuild) are fine; refuted
                // reads are not.
                Err(ClientError::ReadRefused(_)) | Err(ClientError::Timeout(_)) => {}
                Err(other) => panic!("refuted mid-supersede read: {other:?}"),
            }
        }
        served
    });

    // ~20 commits → ~10 checkpoint supersedes on shard 0.
    for _ in 0..20 {
        commit_rmw(&mut writer, std::slice::from_ref(&key), 1);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let served = reader_thread.join().expect("reader thread");
    assert!(served > 0, "mirror reads were served concurrently");
    assert!(
        cluster.read_evidence().is_empty(),
        "no read was torn: {:?}",
        cluster.read_evidence()
    );
    let report = cluster.audit();
    assert!(report.is_clean(), "{report}");
    cluster.shutdown();
}

#[test]
fn mirrors_restore_once_and_reads_never_restore() {
    const INTERVAL: u64 = 4;
    let tmp = fides_durability::testutil::TempDir::new("mirror-restores");
    let config = ClusterConfig::new(3)
        .items_per_shard(8)
        .persistence(fides_core::PersistenceConfig::files(tmp.path()).snapshot_interval(INTERVAL));
    let (holder, owner) = (2u32, 0u32);
    let key = FidesCluster::key_name(owner, 0);
    let restores = |cluster: &FidesCluster| {
        cluster
            .server_metrics(holder)
            .counter("repair.mirror_restores")
    };
    let mirror_reads = |reader: &mut fides_core::ClientSession, n: usize| {
        for _ in 0..n {
            let verified = reader
                .read_only_from(
                    holder,
                    std::slice::from_ref(&key),
                    ReadConsistency::BoundedStaleness(64),
                )
                .expect("mirror-served read");
            assert!(verified.values[0].is_some());
        }
    };

    let cluster = FidesCluster::start(config.clone());
    let mut writer = cluster.client(0);
    drive_until_mirrored(&cluster, owner, &mut writer, INTERVAL);
    let tip = cluster.settle(Duration::from_secs(5)).expect("settled") as u64;
    // Every peer checkpoints at the same heights: wait until the holder
    // accepted the newest mirror of both peers, so none is in flight.
    let newest = tip - tip % INTERVAL;
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.server_state(holder).mirror_heights() != [(0, newest), (1, newest)] {
        assert!(
            Instant::now() < deadline,
            "mirrors at {newest} never arrived"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let accepted = restores(&cluster);
    assert!(accepted >= 2, "one restore per accepted mirror: {accepted}");

    // Reads serve the shard restored at receipt: none restores again.
    let served = cluster.server_metrics(holder).counter("read.serve.mirror");
    mirror_reads(&mut cluster.client(1), 8);
    assert_eq!(restores(&cluster), accepted);
    assert!(cluster.server_metrics(holder).counter("read.serve.mirror") >= served + 8);
    assert!(cluster.read_evidence().is_empty());
    cluster.shutdown();

    // A restart reloads the mirrors from disk and restores each one
    // lazily: once, on its first read.
    let cluster = FidesCluster::start(config);
    assert_eq!(restores(&cluster), 0);
    let mut reader = cluster.client(1);
    mirror_reads(&mut reader, 1);
    assert_eq!(restores(&cluster), 1);
    mirror_reads(&mut reader, 8);
    assert_eq!(restores(&cluster), 1);
    assert!(cluster.read_evidence().is_empty());
    cluster.shutdown();
}

/// Commits RMWs on every shard until the chain passes `min_tip`, then
/// waits until every server holds every peer's newest mirror (every
/// server checkpoints at the same heights). Returns that height.
fn commit_past_and_await_mirrors(
    cluster: &FidesCluster,
    writer: &mut fides_core::ClientSession,
    min_tip: u64,
    interval: u64,
) -> u64 {
    let n = cluster.config().n_servers;
    let mut i = 0usize;
    while writer.known_tip() < min_tip {
        let keys: Vec<Key> = (0..n).map(|s| cluster.key_of(s, i % 8)).collect();
        commit_rmw(writer, &keys, 1);
        i += 1;
    }
    let tip = cluster.settle(Duration::from_secs(5)).expect("settled") as u64;
    let newest = tip - tip % interval;
    let deadline = Instant::now() + Duration::from_secs(10);
    for holder in 0..n {
        let want: Vec<(u32, u64)> = (0..n)
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
    newest
}

#[test]
fn mirrors_restore_once_then_apply_deltas_byte_identical() {
    const INTERVAL: u64 = 4;
    let tmp = fides_durability::testutil::TempDir::new("mirror-deltas");
    let cluster =
        FidesCluster::start(ClusterConfig::new(3).items_per_shard(8).persistence(
            fides_core::PersistenceConfig::files(tmp.path()).snapshot_interval(INTERVAL),
        ));
    let mut writer = cluster.client(0);
    let newest = commit_past_and_await_mirrors(&cluster, &mut writer, 5 * INTERVAL, INTERVAL);
    assert!(newest >= 4 * INTERVAL, "four snapshot intervals: {newest}");

    let snapshots =
        |s: u32| fides_core::PersistenceConfig::server_dir(tmp.path(), s).join("snapshots");
    for holder in 0..3u32 {
        let metrics = cluster.server_metrics(holder);
        // The first mirror of each peer is restored; every later one
        // arrives as a delta and never restores. (A peer that fell
        // behind and repaired skips the checkpoints it repaired past,
        // so expect at least one delta per peer, not one per interval.)
        assert_eq!(
            metrics.counter("repair.mirror_restores"),
            2,
            "holder {holder}"
        );
        assert!(
            metrics.counter("repair.mirror_deltas") >= 2,
            "holder {holder}: {} deltas",
            metrics.counter("repair.mirror_deltas")
        );
        assert_eq!(
            metrics.counter("repair.mirror_resyncs"),
            0,
            "holder {holder}"
        );
        // The persisted mirror is the origin's own checkpoint file. The
        // holder saves it just after updating the entry that
        // `mirror_heights` reads, so poll until the file has landed.
        for origin in (0..3u32).filter(|o| *o != holder) {
            let mirror = snapshots(holder).join(format!("mirror-{origin:010}.fsnap"));
            let own = snapshots(origin).join(format!("snap-{newest:020}.fsnap"));
            let deadline = Instant::now() + Duration::from_secs(10);
            while std::fs::read(&mirror).ok() != std::fs::read(&own).ok() {
                assert!(
                    Instant::now() < deadline,
                    "holder {holder}'s mirror of {origin} differs from its snapshot at {newest}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(
                own.exists(),
                "origin {origin} saved its snapshot at {newest}"
            );
        }
    }

    // Delta-refreshed mirrors serve reads that verify at the newest
    // height.
    let mut reader = cluster.client(1);
    let key = cluster.key_of(0, 0);
    let verified = reader
        .read_only_from(
            2,
            std::slice::from_ref(&key),
            ReadConsistency::BoundedStaleness(64),
        )
        .expect("mirror-served read");
    assert_eq!(verified.covered_height, newest);
    assert!(verified.values[0].is_some());
    assert!(cluster.read_evidence().is_empty());
    let report = cluster.audit();
    assert!(report.is_clean(), "{report}");
    cluster.shutdown();
}

#[test]
fn forged_mirror_delta_refused_and_resynced() {
    const INTERVAL: u64 = 4;
    let tmp = fides_durability::testutil::TempDir::new("forged-delta");
    let forger = 0u32;
    let cluster = FidesCluster::start(
        ClusterConfig::new(3)
            .items_per_shard(8)
            .persistence(
                fides_core::PersistenceConfig::files(tmp.path()).snapshot_interval(INTERVAL),
            )
            .behavior(
                forger,
                Behavior {
                    forge_mirror_delta: true,
                    ..Behavior::default()
                },
            ),
    );
    let mut writer = cluster.client(0);
    let newest = commit_past_and_await_mirrors(&cluster, &mut writer, 4 * INTERVAL, INTERVAL);

    let mut reader = cluster.client(1);
    for holder in (0..3u32).filter(|h| *h != forger) {
        // Every forged delta was refused and answered by a whole image.
        let metrics = cluster.server_metrics(holder);
        assert!(
            metrics.counter("repair.mirror_resyncs") >= 1,
            "holder {holder}"
        );
        assert!(
            metrics.counter("repair.mirror_restores") >= 3,
            "holder {holder}"
        );
        // The honest peer's deltas still apply.
        assert!(
            metrics.counter("repair.mirror_deltas") >= 1,
            "holder {holder}"
        );
        // The held mirror is the honest one: its reads verify.
        let keys: Vec<Key> = (0..8).map(|i| cluster.key_of(forger, i)).collect();
        let verified = reader
            .read_only_from(holder, &keys, ReadConsistency::BoundedStaleness(64))
            .expect("mirror-served read of the forger's shard");
        assert_eq!(verified.covered_height, newest);
        assert!(verified.values.iter().all(Option::is_some));
    }
    assert!(cluster.read_evidence().is_empty());
    let report = cluster.audit();
    for honest in (0..3u32).filter(|s| *s != forger) {
        assert!(report.against_server(honest).is_empty(), "{report}");
        assert!(cluster.server_state(honest).repair_evidence().is_empty());
    }
    cluster.shutdown();
}

#[test]
fn repairing_server_refuses_reads_promptly() {
    let tmp = fides_durability::testutil::TempDir::new("repairing-reads");
    let mut cluster = FidesCluster::start(
        ClusterConfig::new(3)
            .items_per_shard(8)
            .round_timeout(Duration::from_millis(300))
            .persistence(fides_core::PersistenceConfig::files(tmp.path())),
    );
    let victim = 2u32;
    let key = cluster.key_of(victim, 0);
    let mut writer = cluster.client(0);
    for _ in 0..4 {
        commit_rmw(&mut writer, std::slice::from_ref(&key), 1);
    }
    cluster.settle(Duration::from_secs(5)).expect("settled");

    cluster.crash_server(victim);
    // The victim's disk dies with it: the restart finds nothing, so the
    // repair plane must transfer the whole chain — a real repair window
    // for the reads below to hit.
    let victim_dir = fides_core::PersistenceConfig::server_dir(tmp.path(), victim);
    std::fs::remove_dir_all(&victim_dir).expect("wipe victim disk");
    cluster.restart_server(victim).expect("restart");

    // While the victim repairs, reads against it return *promptly* —
    // either an honest `Repairing{eta}` refusal (the retry hint) or,
    // once repair installs, a verified response. They never burn the
    // op-timeout.
    let mut reader = cluster.client(1);
    reader.set_op_timeout(Duration::from_secs(2));
    let mut saw_refusal_or_ok = false;
    for _ in 0..50 {
        let t0 = Instant::now();
        match reader.read_only_from(
            victim,
            std::slice::from_ref(&key),
            ReadConsistency::BoundedStaleness(1_000),
        ) {
            Ok(_) => {
                saw_refusal_or_ok = true;
                break;
            }
            Err(ClientError::ReadRefused(ReadRefusal::Repairing { eta_hint_ms })) => {
                assert!(eta_hint_ms > 0);
                assert!(
                    t0.elapsed() < Duration::from_secs(1),
                    "refusal must be prompt"
                );
                saw_refusal_or_ok = true;
                // The generic path retargets: the owner-fallback serves
                // the read despite the repairing peer.
                let values = reader
                    .read_only(
                        std::slice::from_ref(&key),
                        ReadConsistency::BoundedStaleness(1_000),
                    )
                    .expect("fallback read");
                assert!(values[0].is_some());
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(saw_refusal_or_ok, "victim never answered reads");
    assert!(cluster.await_rejoin(victim, Duration::from_secs(30)));
    // After rejoin the victim serves verified reads again.
    let verified = reader
        .read_only_from(victim, std::slice::from_ref(&key), ReadConsistency::Fresh)
        .expect("post-rejoin read");
    assert!(verified.values[0].is_some());
    assert!(cluster.read_evidence().is_empty());
    cluster.shutdown();
}

#[test]
fn at_height_pins_a_snapshot() {
    let cluster = FidesCluster::start(ClusterConfig::new(2).items_per_shard(8));
    let key = cluster.key_of(0, 0);
    let mut writer = cluster.client(0);
    commit_rmw(&mut writer, std::slice::from_ref(&key), 1);
    cluster.settle(Duration::from_secs(5)).expect("settled");

    let mut reader = cluster.client(1);
    // Pin at the current tip (1 block applied).
    let verified = reader
        .read_only_from(0, std::slice::from_ref(&key), ReadConsistency::AtHeight(1))
        .expect("pinned read");
    assert_eq!(verified.values[0].as_ref().unwrap().as_i64(), Some(101));

    // After another commit the live state is no longer the state at
    // height 1: the owner honestly refuses the pin.
    commit_rmw(&mut writer, std::slice::from_ref(&key), 1);
    cluster.settle(Duration::from_secs(5)).expect("settled");
    let err = reader
        .read_only_from(0, std::slice::from_ref(&key), ReadConsistency::AtHeight(1))
        .expect_err("superseded pin must refuse");
    assert!(
        matches!(err, ClientError::ReadRefused(ReadRefusal::TooStale { .. })),
        "{err:?}"
    );
    assert!(cluster.read_evidence().is_empty());
    cluster.shutdown();
}

/// Waits until no message has been sent for 100 ms, so a measured
/// message count sees only what the measured operation sends.
fn quiesce(cluster: &FidesCluster) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = cluster.network_stats().messages_sent();
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = cluster.network_stats().messages_sent();
        if now == last {
            return;
        }
        assert!(Instant::now() < deadline, "the cluster never went quiet");
        last = now;
    }
}

/// Per server, the shard parts it has served (owner plus mirror).
fn parts_served(cluster: &FidesCluster) -> Vec<u64> {
    (0..cluster.config().n_servers)
        .map(|s| {
            let metrics = cluster.server_metrics(s);
            metrics.counter("read.serve.owner") + metrics.counter("read.serve.mirror")
        })
        .collect()
}

#[test]
fn bounded_read_of_every_shard_is_one_round_trip() {
    const INTERVAL: u64 = 4;
    let tmp = fides_durability::testutil::TempDir::new("one-round-trip");
    let cluster =
        FidesCluster::start(ClusterConfig::new(4).items_per_shard(8).persistence(
            fides_core::PersistenceConfig::files(tmp.path()).snapshot_interval(INTERVAL),
        ));
    let mut writer = cluster.client(0);
    commit_past_and_await_mirrors(&cluster, &mut writer, 2 * INTERVAL, INTERVAL);
    quiesce(&cluster);

    // Every server holds a mirror of every peer: one server answers a
    // read of all four shards, in one request and one signed response.
    let keys: Vec<Key> = (0..4).map(|s| cluster.key_of(s, 1)).collect();
    let mut reader = cluster.client(1);
    let served = parts_served(&cluster);
    let sent = cluster.network_stats().messages_sent();
    let values = reader
        .read_only(&keys, ReadConsistency::BoundedStaleness(64))
        .expect("verified read");
    assert_eq!(cluster.network_stats().messages_sent() - sent, 2);
    assert!(values.iter().all(Option::is_some), "{values:?}");
    let raised: Vec<u64> = parts_served(&cluster)
        .iter()
        .zip(&served)
        .map(|(now, before)| now - before)
        .collect();
    assert_eq!(raised.iter().filter(|d| **d > 0).count(), 1, "{raised:?}");
    assert_eq!(raised.iter().sum::<u64>(), 4, "{raised:?}");
    let stats = reader.take_read_stats();
    assert_eq!((stats.reads, stats.refusals), (4, 0), "{stats:?}");
    assert!(cluster.read_evidence().is_empty());
    cluster.shutdown();
}

#[test]
fn refused_part_falls_back_per_shard_without_evidence() {
    // Memory-only servers hold no mirrors: a target answers its own
    // shard and refuses every other.
    let cluster = FidesCluster::start(ClusterConfig::new(2).items_per_shard(8));
    let keys = [cluster.key_of(0, 2), cluster.key_of(1, 3)];
    commit_rmw(&mut cluster.client(0), &keys, 5);
    cluster.settle(Duration::from_secs(5)).expect("settled");
    quiesce(&cluster);

    // Client 1's rotation starts at server 1, which serves shard 1 and
    // refuses shard 0; the per-shard fallback then reads shard 0 from
    // its owner.
    let mut reader = cluster.client(1);
    let sent = cluster.network_stats().messages_sent();
    let values = reader
        .read_only(&keys, ReadConsistency::BoundedStaleness(64))
        .expect("verified read through the fallback");
    let values: Vec<Option<i64>> = values
        .iter()
        .map(|v| v.as_ref().and_then(|v| v.as_i64()))
        .collect();
    assert_eq!(values, [Some(105), Some(105)]);
    assert_eq!(cluster.network_stats().messages_sent() - sent, 4);
    let (target, owner) = (cluster.server_metrics(1), cluster.server_metrics(0));
    assert_eq!(target.counter("read.refused"), 1);
    assert_eq!(target.counter("read.serve.owner"), 1);
    assert_eq!(owner.counter("read.serve.owner"), 1);
    assert_eq!(reader.take_read_stats().refusals, 1);
    assert!(cluster.read_evidence().is_empty());
    assert!(cluster.audit().is_clean());
    cluster.shutdown();
}

#[test]
fn dead_read_target_costs_a_share_of_the_op_timeout() {
    let mut cluster = FidesCluster::start(ClusterConfig::new(4).items_per_shard(8));
    // Client 1's rotation starts at server 1: its first bounded read
    // asks the dead server for every shard.
    let victim = 1u32;
    cluster.crash_server(victim);
    let keys: Vec<Key> = [0, 2, 3].iter().map(|&s| cluster.key_of(s, 1)).collect();
    let mut reader = cluster.client(1);
    let op_timeout = Duration::from_secs(1);
    reader.set_op_timeout(op_timeout);
    // That costs one candidate's share of the op-timeout. The timeout
    // moves the dead server to the back of the rotation, so the later
    // reads, which start their rotation elsewhere, try it last and
    // never wait on it: all six finish within one op-timeout.
    let start = Instant::now();
    for i in 0..6 {
        let t0 = Instant::now();
        let values = reader
            .read_only(&keys, ReadConsistency::BoundedStaleness(64))
            .unwrap_or_else(|e| panic!("read {i}: {e}"));
        let took = t0.elapsed();
        assert!(took < op_timeout, "read {i} took {took:?}");
        assert!(values.iter().all(Option::is_some), "read {i}: {values:?}");
    }
    let total = start.elapsed();
    assert!(total < op_timeout, "six reads took {total:?}");
    assert!(cluster.read_evidence().is_empty());
    cluster.shutdown();
}
