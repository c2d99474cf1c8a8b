//! End-to-end integration: workload generation → client sessions →
//! TFCommit → tamper-proof log → audit, across every crate.

use std::time::Duration;

use fides::core::messages::CommitProtocol;
use fides::core::system::{ClusterConfig, FidesCluster};
use fides::workload::{WorkloadConfig, WorkloadGenerator};

/// Drives `total_txns` transactions from `n_clients` concurrent client
/// threads using the paper's workload shape. Returns (committed,
/// aborted, anomalies).
fn drive_workload(
    cluster: &FidesCluster,
    n_clients: u32,
    total_txns: usize,
    ops_per_txn: usize,
) -> (usize, usize, usize) {
    let config = cluster.config().clone();
    // One conflict-free window spanning the whole run: concurrent
    // clients interleave arbitrarily, so only full disjointness keeps
    // every interleaving conflict-free (the §4.6 "non-conflicting
    // transactions" batching assumption).
    let mut generator = WorkloadGenerator::new(
        WorkloadConfig::paper_default(config.n_servers, config.items_per_shard)
            .ops_per_txn(ops_per_txn)
            .conflict_free_window(total_txns),
        FidesCluster::key_name,
    );
    let per_client = total_txns / n_clients as usize;
    let mut handles = Vec::new();
    for c in 0..n_clients {
        let mut client = cluster.client(c);
        let specs: Vec<_> = generator.take_txns(per_client);
        handles.push(std::thread::spawn(move || {
            let mut counts = (0usize, 0usize, 0usize);
            for spec in specs {
                match client.run_rmw(&spec.keys, 1) {
                    Ok(outcome) if outcome.committed() => counts.0 += 1,
                    Ok(outcome) if outcome.is_anomaly() => counts.2 += 1,
                    Ok(_) => counts.1 += 1,
                    Err(_) => counts.1 += 1,
                }
            }
            counts
        }));
    }
    let mut total = (0, 0, 0);
    for h in handles {
        let (c, a, x) = h.join().unwrap();
        total.0 += c;
        total.1 += a;
        total.2 += x;
    }
    total
}

#[test]
fn tfcommit_workload_runs_clean() {
    let cluster = FidesCluster::start(
        ClusterConfig::new(4)
            .items_per_shard(128)
            .batch_size(8)
            .max_clients(16),
    );
    let (committed, _aborted, anomalies) = drive_workload(&cluster, 8, 64, 5);
    assert_eq!(anomalies, 0);
    assert!(committed >= 56, "most txns commit, got {committed}");
    cluster.flush();
    let report = cluster.audit();
    assert!(report.is_clean(), "{report}");
    assert!(report.blocks_replayed >= committed / 8);
    cluster.shutdown();
}

#[test]
fn twopc_workload_runs() {
    let cluster = FidesCluster::start(
        ClusterConfig::new(4)
            .items_per_shard(128)
            .batch_size(8)
            .max_clients(16)
            .protocol(CommitProtocol::TwoPhaseCommit),
    );
    let (committed, _aborted, anomalies) = drive_workload(&cluster, 8, 64, 5);
    assert_eq!(anomalies, 0);
    assert!(committed >= 56, "most txns commit, got {committed}");
    cluster.shutdown();
}

#[test]
fn mht_stats_accumulate_under_tfcommit_only() {
    // TFCommit performs Merkle maintenance; 2PC does not (§6.1: the MHT
    // updates are part of TFCommit's overhead).
    let tfc = FidesCluster::start(ClusterConfig::new(3).items_per_shard(128).max_clients(4));
    drive_workload(&tfc, 2, 10, 3);
    tfc.flush();
    tfc.settle(Duration::from_secs(2));
    let tfc_updates: u64 = tfc.mht_stats().iter().map(|s| s.leaf_updates).sum();
    assert!(tfc_updates > 0, "TFCommit must touch Merkle trees");
    tfc.shutdown();

    let twopc = FidesCluster::start(
        ClusterConfig::new(3)
            .items_per_shard(128)
            .max_clients(4)
            .protocol(CommitProtocol::TwoPhaseCommit),
    );
    drive_workload(&twopc, 2, 10, 3);
    twopc.flush();
    twopc.settle(Duration::from_secs(2));
    let twopc_updates: u64 = twopc.mht_stats().iter().map(|s| s.leaf_updates).sum();
    assert_eq!(twopc_updates, 0, "2PC must not touch Merkle trees");
    twopc.shutdown();
}

#[test]
fn network_counts_messages() {
    let cluster = FidesCluster::start(ClusterConfig::new(3).items_per_shard(8));
    let mut client = cluster.client(0);
    let key = cluster.key_of(0, 0);
    client.run_rmw(&[key], 1).unwrap();
    // read + write (with replies) + end-txn + 4 protocol phases × 2 cohorts…
    assert!(cluster.network_stats().messages_sent() > 10);
    assert_eq!(cluster.network_stats().messages_dropped(), 0);
    cluster.shutdown();
}

#[test]
fn logs_identical_across_servers() {
    let cluster = FidesCluster::start(ClusterConfig::new(4).items_per_shard(16).max_clients(4));
    drive_workload(&cluster, 2, 12, 2);
    cluster.flush();
    cluster.settle(Duration::from_secs(2)).expect("converges");
    let reference: Vec<_> = cluster
        .server_state(0)
        .log()
        .iter()
        .map(|b| b.hash())
        .collect();
    assert!(!reference.is_empty());
    for s in 1..4 {
        let hashes: Vec<_> = cluster
            .server_state(s)
            .log()
            .iter()
            .map(|b| b.hash())
            .collect();
        assert_eq!(hashes, reference, "server {s} log diverges");
    }
    cluster.shutdown();
}

#[test]
fn multi_versioned_store_preserves_history() {
    let cluster = FidesCluster::start(ClusterConfig::new(2).items_per_shard(4));
    let mut client = cluster.client(0);
    let key = cluster.key_of(0, 0);
    for _ in 0..3 {
        assert!(client
            .run_rmw(std::slice::from_ref(&key), 10)
            .unwrap()
            .committed());
    }
    cluster.settle(Duration::from_secs(2));
    let state = cluster.server_state(0);
    state.with_shard(|shard| {
        // Initial version + 3 committed versions.
        assert_eq!(shard.store().version_count(&key), 4);
        // The latest value reflects all increments.
        assert_eq!(shard.read(&key).unwrap().value.as_i64(), Some(130));
    });
    cluster.shutdown();
}
