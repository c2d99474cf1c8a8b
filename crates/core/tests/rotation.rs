//! Rotating-leadership integration tests: the `height % n` leader
//! schedule must change *who* drives each commit round without changing
//! *what* the cluster agrees on.
//!
//! * Chain equivalence — a rotating cluster running the same
//!   deterministic workload as a fixed-coordinator cluster produces a
//!   byte-identical co-signed chain (the leader's identity never leaks
//!   into the signed bytes; the deterministic CoSi nonces and the
//!   canonical block encoding are leader-agnostic).
//! * Pinned chain bytes — the fixed-leader chain of that workload, under
//!   TFCommit and under the §6.1 2PC baseline, hashes to a recorded
//!   SHA-256: a change to how the leader drives its round that moves a
//!   single encoded byte fails here.
//! * Speculative-OCC safety — with rounds overlapped across rotating
//!   leaders, no committed transaction ever read a stale version:
//!   replaying the committed chain in height order, every read's `wts`
//!   matches the newest committed write below it.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fides_core::client::finalize_outcomes;
use fides_core::messages::CommitProtocol;
use fides_core::system::{ClusterConfig, FidesCluster};
use fides_crypto::encoding::Encodable;
use fides_crypto::sha256::Sha256;
use fides_ledger::block::{Block, Decision};
use fides_store::{Key, Timestamp};

const N_SERVERS: u32 = 4;
const ITEMS_PER_SHARD: usize = 64;

fn config(rotate: bool) -> ClusterConfig {
    config_for(CommitProtocol::TfCommit, rotate)
}

fn config_for(protocol: CommitProtocol, rotate: bool) -> ClusterConfig {
    ClusterConfig::new(N_SERVERS)
        .items_per_shard(ITEMS_PER_SHARD)
        .protocol(protocol)
        .rotate_leaders(rotate)
        .batch_size(1)
        .max_clients(8)
}

/// One client, strictly sequential read-modify-write commits over a
/// deterministic key schedule: with `batch_size(1)` every transaction
/// terminates in its own block, so the chain the cluster builds is a
/// pure function of the workload — independent of timers and scheduler
/// interleaving.
fn run_sequential_workload(cluster: &FidesCluster) -> Vec<Block> {
    let mut client = cluster.client(0);
    for i in 0..(3 * N_SERVERS as usize) {
        let keys = vec![
            FidesCluster::key_name((i % N_SERVERS as usize) as u32, i % ITEMS_PER_SHARD),
            FidesCluster::key_name(
                ((i + 1) % N_SERVERS as usize) as u32,
                (i + 3) % ITEMS_PER_SHARD,
            ),
        ];
        let outcome = client.run_rmw_batched(&keys, 1).expect("commit");
        assert!(outcome.committed(), "sequential txn {i} must commit");
    }
    cluster.flush();
    cluster
        .settle(Duration::from_secs(5))
        .expect("logs converge");
    assert!(cluster.audit().is_clean());
    cluster.server_state(0).log().blocks().to_vec()
}

/// SHA-256 over the concatenated encodings of `blocks`, as hex.
fn chain_digest(blocks: &[Block]) -> String {
    let encoded: Vec<Vec<u8>> = blocks.iter().map(Encodable::encode).collect();
    let parts: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
    Sha256::digest_parts(&parts).to_hex()
}

/// The fixed leader's chain for the sequential workload is pinned byte
/// for byte, under TFCommit and under 2PC: a change to how the leader
/// drives its round must not move a single byte of either chain.
#[test]
fn fixed_leader_chains_match_pinned_digests() {
    for (protocol, pinned) in [
        (
            CommitProtocol::TfCommit,
            "89e3b0be4f76579af375161dc8e04fb7f361deaf8e5fd0939e0dfc12b1486e33",
        ),
        (
            CommitProtocol::TwoPhaseCommit,
            "6323eb423048c57a895cf5cb9d642600cf47cc118c46957eafd68c45b09719f7",
        ),
    ] {
        let cluster = FidesCluster::start(config_for(protocol, false));
        let blocks = run_sequential_workload(&cluster);
        cluster.shutdown();
        assert_eq!(
            blocks.len(),
            3 * N_SERVERS as usize,
            "{protocol}: one block per txn"
        );
        assert_eq!(
            chain_digest(&blocks),
            pinned,
            "{protocol}: chain bytes changed"
        );
    }
}

/// The tentpole's differential guarantee: rotation changes the leader
/// schedule, not the agreed history. The same deterministic workload
/// driven through a fixed-coordinator cluster and a rotating cluster
/// yields byte-identical co-signed blocks — and under rotation the
/// leadership really did spread (every server led its `height % n`
/// share of the rounds).
#[test]
fn rotating_chain_byte_identical_to_fixed_coordinator() {
    let fixed_blocks = {
        let cluster = FidesCluster::start(config(false));
        let blocks = run_sequential_workload(&cluster);
        cluster.shutdown();
        blocks
    };

    let cluster = FidesCluster::start(config(true));
    let rotating_blocks = run_sequential_workload(&cluster);
    for s in 0..N_SERVERS {
        let led = cluster.server_metrics(s).counter("commit.rounds_led");
        assert!(led > 0, "server {s} never led a round under rotation");
    }
    cluster.shutdown();

    assert_eq!(
        fixed_blocks.len(),
        rotating_blocks.len(),
        "both schedules terminate the same rounds"
    );
    assert!(
        fixed_blocks.len() as u32 >= N_SERVERS,
        "enough blocks to rotate through every leader"
    );
    for (fixed, rotating) in fixed_blocks.iter().zip(&rotating_blocks) {
        assert_eq!(
            fixed.encode(),
            rotating.encode(),
            "block {} differs between schedules",
            fixed.height
        );
    }
}

/// Overlapped speculative OCC under rotation never commits a stale
/// read. Conflict-heavy pipelined clients keep several commits in
/// flight while leadership rotates every height; afterwards the
/// committed chain is replayed in height order against a last-writer
/// map — every committed read must carry the `wts` of the newest
/// committed write below its block (the §4.3.1 certification rule,
/// checked here independently of the auditor).
#[test]
fn overlapped_rotation_never_commits_stale_reads() {
    let cluster = FidesCluster::start(
        config(true)
            .batch_size(8)
            .flush_interval(Duration::from_millis(5)),
    );
    let server_pks = cluster.server_pks().to_vec();
    let protocol = cluster.config().protocol;

    let mut handles = Vec::new();
    for c in 0..6u32 {
        let mut client = cluster.client(c);
        let server_pks = server_pks.clone();
        handles.push(std::thread::spawn(move || {
            let mut pending = Vec::new();
            let mut unverified = Vec::new();
            let mut submitted = 0usize;
            // A deliberately tiny key window (8 keys per shard) so
            // clients collide constantly — the speculative OCC filter
            // and revalidation on apply both stay busy.
            while submitted < 15 || !pending.is_empty() {
                while submitted < 15 && pending.len() < 2 {
                    let i = submitted + c as usize;
                    let keys = vec![
                        FidesCluster::key_name((i % N_SERVERS as usize) as u32, i % 8),
                        FidesCluster::key_name(((i + 1) % N_SERVERS as usize) as u32, (i + 3) % 8),
                    ];
                    let mut txn = client.begin();
                    let Ok(values) = client.read_all(&mut txn, &keys) else {
                        continue;
                    };
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
            outcomes.iter().filter(|o| o.committed()).count()
        }));
    }
    let committed: usize = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .sum();
    assert!(committed > 0, "contended workload must make progress");

    cluster.flush();
    cluster
        .settle(Duration::from_secs(5))
        .expect("logs converge");
    assert!(cluster.audit().is_clean());

    // Leadership spread even under the contended pipelined load.
    let leaders = (0..N_SERVERS)
        .filter(|&s| cluster.server_metrics(s).counter("commit.rounds_led") > 0)
        .count();
    assert!(leaders > 1, "rotation never moved the leader");

    // Independent stale-read replay over the committed chain.
    let log = cluster.server_state(0).log();
    let mut last_write: HashMap<Key, Timestamp> = HashMap::new();
    let mut committed_txns = 0usize;
    for block in log.blocks() {
        if block.decision != Decision::Commit {
            continue;
        }
        for txn in &block.txns {
            for read in &txn.read_set {
                let newest = last_write
                    .get(&read.key)
                    .copied()
                    .unwrap_or(Timestamp::ZERO);
                assert_eq!(
                    read.wts, newest,
                    "txn {:?} at height {} committed a stale read of {:?}",
                    txn.id, block.height, read.key
                );
            }
            for write in &txn.write_set {
                last_write.insert(write.key.clone(), txn.id);
            }
        }
        committed_txns += block.txns.len();
    }
    assert!(committed_txns >= committed, "committed txns all on chain");
    cluster.shutdown();
}
