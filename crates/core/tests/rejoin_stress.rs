//! Repair-plane stress tests: a server killed mid-run restarts short
//! (torn WAL, or total disk loss — including below every peer's
//! pruned-WAL floor, forcing checkpoint transfer), rejoins through
//! verified anti-entropy state transfer, also while clients keep
//! committing, and the final audit is clean with identical tip hashes
//! on all servers. A Byzantine peer serving a
//! tampered suffix or forged checkpoint is refuted and reported as
//! audit evidence; a repairing server is lagging, not faulty, until
//! the grace deadline.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fides_core::audit::ViolationKind;
use fides_core::behavior::Behavior;
use fides_core::recovery::{MemoryCluster, PersistenceConfig};
use fides_core::system::{ClusterConfig, FidesCluster};
use fides_durability::{SyncPolicy, WalConfig};
use fides_store::Key;

const N_SERVERS: u32 = 4;
const ITEMS: usize = 16;

/// Commits `n` single-key RMW transactions spread across all shards.
fn commit_txns(cluster: &FidesCluster, client_id: u32, n: usize) -> usize {
    let mut client = cluster.client(client_id);
    let mut committed = 0;
    for i in 0..n {
        let keys = vec![FidesCluster::key_name(i as u32 % N_SERVERS, i % ITEMS)];
        if let Ok(outcome) = client.run_rmw_batched(&keys, 1) {
            if outcome.committed() {
                committed += 1;
            }
        }
    }
    committed
}

fn tips(cluster: &FidesCluster) -> Vec<(u64, fides_crypto::Digest)> {
    (0..N_SERVERS)
        .map(|s| {
            let log = cluster.server_state(s).log();
            (log.next_height(), log.tip_hash())
        })
        .collect()
}

/// Waits until every peer holds a checkpoint mirror of `origin`'s shard
/// at `min_height` or above. A shutdown may still overtake `origin`'s
/// newest mirror: the peers' prune floor keeps the blocks above
/// whichever mirror they hold servable.
fn await_mirrors(cluster: &FidesCluster, origin: u32, min_height: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !(0..N_SERVERS).filter(|s| *s != origin).all(|s| {
        cluster
            .server_state(s)
            .mirror_heights()
            .iter()
            .any(|(o, h)| *o == origin && *h >= min_height)
    }) {
        assert!(
            std::time::Instant::now() < deadline,
            "peers never mirrored server {origin} at {min_height}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn assert_identical_tips(cluster: &FidesCluster) {
    let tips = tips(cluster);
    assert!(
        tips.iter().all(|t| *t == tips[0]),
        "all servers must share one tip: {tips:?}"
    );
}

/// A server killed mid-run loses its entire disk, restarts at height 0,
/// and rejoins through verified block transfer (peers hold the full
/// log): identical tips, a clean audit, and the repaired server serves
/// subsequent rounds. Quorum-durable acks ride the same run: every
/// outcome the clients saw was covered by a majority of fsyncs.
#[test]
fn killed_server_rejoins_via_block_transfer() {
    let dir = fides_durability::testutil::TempDir::new("rejoin-blocks");
    let victim = N_SERVERS - 1;
    let config = || {
        ClusterConfig::new(N_SERVERS)
            .items_per_shard(ITEMS)
            .batch_size(2)
            .flush_interval(Duration::from_millis(5))
            .round_timeout(Duration::from_millis(300))
            .persistence(
                PersistenceConfig::files(dir.path())
                    .wal(WalConfig {
                        sync: SyncPolicy::Pipelined,
                        ..WalConfig::default()
                    })
                    .snapshot_interval(0)
                    .quorum_acks(true),
            )
    };
    let mut cluster = FidesCluster::start(config());

    // Phase 1: real traffic, quorum-acked outcomes.
    let committed = commit_txns(&cluster, 0, 10);
    assert!(committed >= 8, "phase-1 commits: {committed}");
    cluster.settle(Duration::from_secs(5)).expect("settles");
    let height_before = cluster.server_state(0).next_height();
    assert!(height_before > 0);

    // Kill the victim mid-run (durability torn, thread gone), then its
    // disk dies entirely.
    cluster.crash_server(victim);
    let victim_dir = PersistenceConfig::server_dir(dir.path(), victim);
    std::fs::remove_dir_all(&victim_dir).expect("wipe victim disk");

    // Restart: verified recovery finds an empty disk, the startup
    // gossip discovers the gap, and the repair plane transfers and
    // re-verifies the whole chain.
    cluster.restart_server(victim).expect("restart");
    assert!(
        cluster.await_rejoin(victim, Duration::from_secs(10)),
        "victim must finish repairing"
    );
    let state = cluster.server_state(victim);
    assert!(state.repair_completions() >= 1, "repair actually ran");
    assert!(state.repair_evidence().is_empty(), "honest peers");
    assert_eq!(state.next_height(), height_before);
    assert_identical_tips(&cluster);

    // The repaired server serves subsequent rounds — including writes
    // landing on its own shard.
    let mut client = cluster.client(1);
    let key = FidesCluster::key_name(victim, 3);
    let outcome = client.run_rmw_batched(&[key], 7).expect("post-rejoin txn");
    assert!(outcome.committed(), "{outcome:?}");
    let more = commit_txns(&cluster, 2, 6);
    assert!(more >= 5, "post-rejoin commits: {more}");
    cluster.settle(Duration::from_secs(5)).expect("resettles");

    let report = cluster.audit();
    assert!(report.is_clean(), "{report}");
    assert!(report.lagging.is_empty());
    assert_identical_tips(&cluster);
    cluster.shutdown();
}

/// A cohort killed while several clients commit restarts over its own
/// surviving directory and rejoins under the same load: it catches up
/// within 10 s, commits keep landing after the rejoin, and the run ends
/// with identical tips and a clean audit.
#[test]
fn cohort_rejoins_under_live_load() {
    const LOADERS: u32 = 3;
    let dir = fides_durability::testutil::TempDir::new("rejoin-live");
    let victim = N_SERVERS - 1;
    let mut cluster = FidesCluster::start(
        ClusterConfig::new(N_SERVERS)
            .items_per_shard(ITEMS)
            .batch_size(8)
            .flush_interval(Duration::from_millis(5))
            // While the victim is dead every round waits for its vote;
            // a short phase timeout keeps that window short.
            .round_timeout(Duration::from_millis(300))
            .persistence(PersistenceConfig::files(dir.path()).wal(WalConfig {
                sync: SyncPolicy::Pipelined,
                ..WalConfig::default()
            })),
    );
    let committed = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let loaders: Vec<_> = (0..LOADERS)
        .map(|c| {
            let mut client = cluster.client(c);
            // Requests to the dead server fail fast, so the load keeps
            // probing and resumes at the rejoin.
            client.set_op_timeout(Duration::from_millis(500));
            let (committed, stop) = (Arc::clone(&committed), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut i = c as usize;
                while !stop.load(Ordering::Relaxed) {
                    let keys = [FidesCluster::key_name(i as u32 % N_SERVERS, i % ITEMS)];
                    if client
                        .run_rmw_batched(&keys, 1)
                        .is_ok_and(|o| o.committed())
                    {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                    i += LOADERS as usize;
                }
            })
        })
        .collect();
    let await_commits = |target: usize, when: &str| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while committed.load(Ordering::Relaxed) < target {
            let seen = committed.load(Ordering::Relaxed);
            assert!(Instant::now() < deadline, "{seen} commits {when}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    await_commits(20, "before the kill");

    cluster.crash_server(victim);
    std::thread::sleep(Duration::from_millis(200));
    cluster.restart_server(victim).expect("restart");
    assert!(
        cluster.await_rejoin(victim, Duration::from_secs(10)),
        "victim must rejoin within 10 s under load"
    );
    let at_rejoin = committed.load(Ordering::Relaxed);
    await_commits(at_rejoin + 20, "after the rejoin");
    stop.store(true, Ordering::Relaxed);
    for loader in loaders {
        loader.join().expect("load thread");
    }

    cluster.flush();
    cluster.settle(Duration::from_secs(10)).expect("settles");
    assert_identical_tips(&cluster);
    let report = cluster.audit();
    assert!(report.is_clean(), "{report}");
    assert!(report.lagging.is_empty());
    cluster.shutdown();
}

/// A round that times out leaves the cohorts that voted commit holding
/// their speculative root for its height. The next round at that height
/// need not involve them, and it must commit instead of being refused
/// by each of them for a root mismatch.
#[test]
fn round_after_a_timed_out_round_at_its_height_commits() {
    let victim = N_SERVERS - 1;
    let mut cluster = FidesCluster::start(
        ClusterConfig::new(N_SERVERS)
            .items_per_shard(ITEMS)
            .flush_interval(Duration::from_millis(5))
            .round_timeout(Duration::from_millis(300))
            .persistence(PersistenceConfig::memory(MemoryCluster::new())),
    );
    let mut client = cluster.client(0);
    // Cohorts 1 and 2 vote commit at height 0; the dead victim never
    // votes, so the round times out.
    cluster.crash_server(victim);
    let cohort_keys = [FidesCluster::key_name(1, 0), FidesCluster::key_name(2, 0)];
    let timed_out = client.run_rmw_batched(&cohort_keys, 1);
    assert!(
        !timed_out.as_ref().is_ok_and(|o| o.committed()),
        "{timed_out:?}"
    );
    cluster.restart_server(victim).expect("restart");
    assert!(cluster.await_rejoin(victim, Duration::from_secs(10)));
    assert_eq!(cluster.server_state(0).next_height(), 0);

    // Height 0 again, on the leader's shard alone.
    let outcome = client
        .run_rmw_batched(&[FidesCluster::key_name(0, 0)], 1)
        .expect("commit");
    assert!(outcome.committed(), "{outcome:?}");
    let refusals: Vec<_> = (0..N_SERVERS)
        .flat_map(|s| cluster.server_state(s).refusals())
        .collect();
    assert!(refusals.is_empty(), "{refusals:?}");
    cluster.shutdown();
}

/// Total disk loss **below every peer's pruned-WAL floor**: the peers
/// deleted their history below their snapshots (no archive), so blocks
/// alone cannot rebuild the victim's shard. The repair plane falls back
/// to checkpoint transfer — the victim fetches its own mirrored shard
/// image back from a peer, anchors it to the co-signed suffix, and
/// rejoins. The audit then runs over suffix logs, seeding its replay
/// from the surrendered (and chain-bound) checkpoints, and stays clean.
#[test]
fn disk_loss_below_pruned_floor_rejoins_via_checkpoint_transfer() {
    let dir = fides_durability::testutil::TempDir::new("rejoin-checkpoint");
    let victim = 2u32;
    let config = || {
        ClusterConfig::new(N_SERVERS)
            .items_per_shard(ITEMS)
            .batch_size(2)
            .flush_interval(Duration::from_millis(5))
            .round_timeout(Duration::from_millis(500))
            .persistence(
                PersistenceConfig::files(dir.path())
                    .wal(WalConfig {
                        // Tiny segments so pruning actually evicts the
                        // prefix below each snapshot.
                        segment_bytes: 512,
                        ..WalConfig::default()
                    })
                    .snapshot_interval(4)
                    .prune_wal(true)
                    // No archive: pruned history is *gone* — only the
                    // mirrored checkpoints keep the fleet repairable.
                    .archive_pruned(false),
            )
    };

    // Phase 1: enough traffic for snapshots (heights 4, 8, ...) to be
    // saved, mirrored to peers, and the WAL pruned beneath them.
    let height_before = {
        let cluster = FidesCluster::start(config());
        let committed = commit_txns(&cluster, 0, 12);
        assert!(committed >= 10, "phase-1 commits: {committed}");
        cluster.settle(Duration::from_secs(5)).expect("settles");
        // Every peer holds a mirror of the victim's shard.
        await_mirrors(&cluster, victim, 4);
        let h = cluster.server_state(0).next_height();
        cluster.shutdown();
        h
    };

    // The pruning actually bit: peers' WALs no longer start at 0.
    let peer_wal = PersistenceConfig::server_dir(dir.path(), 0).join("wal");
    let first_segment = std::fs::read_dir(&peer_wal)
        .expect("wal dir")
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("wal-"))
        .min()
        .expect("some segment");
    assert_ne!(
        first_segment, "wal-00000000000000000000.seg",
        "peers must have pruned their prefix"
    );

    // The victim's disk dies entirely — its own snapshots included.
    std::fs::remove_dir_all(PersistenceConfig::server_dir(dir.path(), victim))
        .expect("wipe victim disk");

    // Phase 2: restart the fleet. Peers recover suffix logs bound to
    // their snapshots; the victim comes up empty, below everyone's
    // floor, and must take the checkpoint-transfer path.
    let cluster = FidesCluster::start(config());
    assert!(
        cluster.await_rejoin(victim, Duration::from_secs(10)),
        "victim must rejoin via checkpoint transfer"
    );
    let state = cluster.server_state(victim);
    assert!(state.repair_completions() >= 1);
    assert_eq!(state.next_height(), height_before);
    assert_identical_tips(&cluster);

    // The victim's shard carries its pre-crash state back: a phase-1
    // counter it owns reads with its incremented value.
    let mut client = cluster.client(0);
    let victim_key = FidesCluster::key_name(victim, victim as usize % ITEMS);
    let mut txn = client.begin();
    let value = client.read(&mut txn, &victim_key).expect("read back");
    assert!(
        value.as_i64().is_some_and(|v| v > 100),
        "pre-crash write must survive the disk loss: {value:?}"
    );

    // Subsequent rounds commit on all four servers and the audit —
    // seeded from the surrendered checkpoints — is clean.
    let more = commit_txns(&cluster, 1, 8);
    assert!(more >= 6, "post-rejoin commits: {more}");
    cluster.settle(Duration::from_secs(5)).expect("resettles");
    let report = cluster.audit();
    assert!(report.is_clean(), "{report}");
    assert!(
        report.canonical_base > 0,
        "the audit ran over suffix logs: base {}",
        report.canonical_base
    );
    assert_identical_tips(&cluster);
    cluster.shutdown();
}

/// Byzantine repair peers: servers 0 and 1 serve tampered suffixes to a
/// rejoining server. The verification refutes both (nothing tampered is
/// ever applied), evidence is recorded and surfaced by the audit
/// against the precise peers, and the repair completes through the
/// honest peer once it becomes reachable.
#[test]
fn tampered_transfer_refuted_and_reported() {
    let dir = fides_durability::testutil::TempDir::new("rejoin-byzantine");
    let victim = 3u32;
    let tamper = Behavior {
        tamper_repair_blocks: true,
        ..Behavior::default()
    };
    let config = |behaviors: bool| {
        let mut config = ClusterConfig::new(N_SERVERS)
            .items_per_shard(ITEMS)
            .batch_size(2)
            .flush_interval(Duration::from_millis(5))
            .round_timeout(Duration::from_millis(300))
            .persistence(PersistenceConfig::files(dir.path()).snapshot_interval(0));
        if behaviors {
            config = config
                .behavior(0, tamper.clone())
                .behavior(1, tamper.clone());
        }
        config
    };

    // Honest phase builds history.
    let height_before = {
        let cluster = FidesCluster::start(config(false));
        let committed = commit_txns(&cluster, 0, 8);
        assert!(committed >= 6);
        cluster.settle(Duration::from_secs(5)).expect("settles");
        let h = cluster.server_state(0).next_height();
        cluster.shutdown();
        h
    };

    // Servers 0 and 1 turn Byzantine on the repair plane. The victim is
    // crashed, its disk wiped, and the honest peer (2) made unreachable
    // *before* the victim's restart gossip runs — it must try the
    // liars first.
    let mut cluster = FidesCluster::start(config(true));
    cluster.crash_server(victim);
    std::fs::remove_dir_all(PersistenceConfig::server_dir(dir.path(), victim))
        .expect("wipe victim disk");
    cluster
        .network()
        .partition_pair(fides_net::NodeId::new(victim), fides_net::NodeId::new(2));
    cluster.restart_server(victim).expect("restart");

    // Both Byzantine peers get refuted.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let evidence = cluster.server_state(victim).repair_evidence();
        let peers: std::collections::HashSet<u32> = evidence.iter().map(|e| e.peer).collect();
        if peers.contains(&0) && peers.contains(&1) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "both tampering peers must be refuted: {evidence:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Nothing tampered was applied: the victim is still repairing.
    assert!(cluster.server_state(victim).is_repairing());

    // Heal: the honest peer finishes the job.
    cluster.network().heal();
    assert!(
        cluster.await_rejoin(victim, Duration::from_secs(10)),
        "repair must complete via the honest peer"
    );
    assert_eq!(cluster.server_state(victim).next_height(), height_before);
    assert_identical_tips(&cluster);

    // The audit reports the tampering peers — and nobody else.
    let report = cluster.audit();
    assert!(
        !report.against_server(0).is_empty() && !report.against_server(1).is_empty(),
        "evidence against both Byzantine peers: {report}"
    );
    assert!(report
        .violations
        .iter()
        .all(|v| matches!(v.kind, ViolationKind::TamperedTransfer { .. })));
    assert!(report.against_server(2).is_empty());
    assert!(report.against_server(victim).is_empty());
    cluster.shutdown();
}

/// A snapshot found AHEAD of a torn WAL is adopted provisionally: the
/// server starts in `Repairing` instead of refusing startup, repairs
/// the missing suffix from its peers, and rejoins. While it is behind
/// and repairing, the audit lists it as lagging instead of accusing it
/// of an incomplete log — until the grace deadline, after which the
/// missing tail counts as an omission again.
#[test]
fn snapshot_ahead_of_torn_wal_starts_repairing_and_lagging_is_excused() {
    let dir = fides_durability::testutil::TempDir::new("rejoin-provisional");
    let victim = 1u32;
    let config = || {
        ClusterConfig::new(3)
            .items_per_shard(ITEMS)
            .batch_size(1)
            .flush_interval(Duration::from_millis(5))
            .round_timeout(Duration::from_millis(300))
            .persistence(PersistenceConfig::files(dir.path()).snapshot_interval(4))
    };
    let mut cluster = FidesCluster::start(config());
    {
        let mut client = cluster.client(0);
        for i in 0..6 {
            let keys = vec![FidesCluster::key_name(i % 3, i as usize)];
            assert!(client.run_rmw_batched(&keys, 1).expect("txn").committed());
        }
    }
    cluster.settle(Duration::from_secs(5)).expect("settles");
    let height_before = cluster.server_state(0).next_height();
    assert!(height_before >= 6);

    // Crash the victim, destroy its WAL but leave its snapshot (height
    // 4): the old recovery refused this disk (snapshot ahead of the
    // log); the repair plane adopts it provisionally. The victim stays
    // partitioned so we can observe the lagging state before repair
    // completes.
    cluster.crash_server(victim);
    std::fs::remove_dir_all(PersistenceConfig::server_dir(dir.path(), victim).join("wal"))
        .expect("tear the victim's WAL");
    for peer in [0u32, 2] {
        cluster
            .network()
            .partition_pair(fides_net::NodeId::new(victim), fides_net::NodeId::new(peer));
    }
    cluster.restart_server(victim).expect("provisional restart");
    let state = cluster.server_state(victim);
    assert!(
        state.is_repairing(),
        "a provisionally adopted snapshot starts the server in Repairing"
    );
    assert_eq!(state.next_height(), 4, "adopted at the snapshot height");

    // Within the grace window the audit excuses the short log...
    let report = cluster.audit();
    assert!(report.lagging.contains(&victim), "{report}");
    assert!(
        report.against_server(victim).is_empty(),
        "a repairing server is lagging, not faulty: {report}"
    );

    // ...but past the deadline the omission counts.
    cluster.set_repair_grace(Duration::ZERO);
    let strict = cluster.audit();
    cluster.set_repair_grace(Duration::from_secs(30));
    assert!(
        strict
            .against_server(victim)
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::IncompleteLog { .. })),
        "past the grace deadline the short log is an omission: {strict}"
    );

    // Heal → the repair plane confirms the adopted checkpoint against
    // the chain and fetches the missing suffix.
    cluster.network().heal();
    assert!(
        cluster.await_rejoin(victim, Duration::from_secs(10)),
        "victim must rejoin after healing"
    );
    assert_eq!(cluster.server_state(victim).next_height(), height_before);
    let report = cluster.audit();
    assert!(report.is_clean(), "{report}");
    assert!(report.lagging.is_empty());

    // And it serves rounds again.
    let mut client = cluster.client(1);
    let key = FidesCluster::key_name(victim, 2);
    assert!(client
        .run_rmw_batched(std::slice::from_ref(&key), 3)
        .expect("post-rejoin txn")
        .committed());
    cluster.shutdown();
}

/// A forged checkpoint mirror is refuted by the repairer: the peer
/// serves a doctored shard image, the internal root verification
/// catches it, evidence lands against the peer, and the repair
/// completes through an honest peer's mirror.
#[test]
fn forged_checkpoint_mirror_refuted() {
    let dir = fides_durability::testutil::TempDir::new("rejoin-forged-mirror");
    let victim = 3u32;
    let liar = 0u32;
    let config = |byzantine: bool| {
        let mut config = ClusterConfig::new(N_SERVERS)
            .items_per_shard(ITEMS)
            .batch_size(2)
            .flush_interval(Duration::from_millis(5))
            .round_timeout(Duration::from_millis(300))
            .persistence(
                PersistenceConfig::files(dir.path())
                    .wal(WalConfig {
                        segment_bytes: 512,
                        ..WalConfig::default()
                    })
                    .snapshot_interval(4)
                    .prune_wal(true)
                    .archive_pruned(false),
            );
        if byzantine {
            config = config.behavior(
                liar,
                Behavior {
                    tamper_repair_checkpoint: true,
                    ..Behavior::default()
                },
            );
        }
        config
    };
    {
        let cluster = FidesCluster::start(config(false));
        let committed = commit_txns(&cluster, 0, 12);
        assert!(committed >= 10);
        cluster.settle(Duration::from_secs(5)).expect("settles");
        await_mirrors(&cluster, victim, 4);
        cluster.shutdown();
    }
    std::fs::remove_dir_all(PersistenceConfig::server_dir(dir.path(), victim))
        .expect("wipe victim disk");

    let cluster = FidesCluster::start(config(true));
    assert!(
        cluster.await_rejoin(victim, Duration::from_secs(10)),
        "repair completes despite the forged mirror"
    );
    // If the liar was consulted, its forged checkpoint was refuted (the
    // repair may also have routed around it entirely — evidence, when
    // present, must name the liar).
    let evidence = cluster.server_state(victim).repair_evidence();
    assert!(
        evidence.iter().all(|e| e.peer == liar),
        "only the liar may be accused: {evidence:?}"
    );
    assert_identical_tips(&cluster);
    let key = Key::new(format!("s{victim:03}:item-{:06}", victim as usize % ITEMS));
    let mut client = cluster.client(0);
    let mut txn = client.begin();
    let value = client.read(&mut txn, &key).expect("read back");
    assert!(value.as_i64().is_some());
    cluster.shutdown();
}
