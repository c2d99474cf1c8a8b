//! Crash/recovery integration tests: commit transactions, crash the
//! cluster (drop every server), restart from persisted state, and
//! assert the recovered system is byte-identical to the pre-crash one —
//! plus the refusal paths for corrupted and tampered disks.

use std::time::Duration;

use fides_core::recovery::{MemoryCluster, PersistenceConfig, ServerStartError};
use fides_core::system::{ClusterConfig, FidesCluster};
use fides_crypto::Digest;
use fides_durability::testutil::TempDir;
use fides_durability::{crc32, RecoveryError, SyncPolicy, WalConfig};

/// Small segments so every test exercises rotation; no fsync so the
/// suite stays fast (crash-consistency of fsync itself isn't testable
/// from user space anyway).
fn test_wal_config() -> WalConfig {
    WalConfig {
        segment_bytes: 2048,
        sync: SyncPolicy::NoFsync,
    }
}

fn persisted_config(persistence: PersistenceConfig, n: u32) -> ClusterConfig {
    ClusterConfig::new(n)
        .items_per_shard(8)
        .persistence(persistence.wal(test_wal_config()))
}

/// Commits `count` read-modify-write transactions, each touching two
/// shards (when available).
fn commit_txns(cluster: &FidesCluster, count: usize) {
    let n = cluster.config().n_servers;
    let mut client = cluster.client(0);
    for i in 0..count {
        let keys = if n > 1 {
            vec![
                cluster.key_of(i as u32 % n, i % 8),
                cluster.key_of((i as u32 + 1) % n, i % 8),
            ]
        } else {
            vec![cluster.key_of(0, i % 8)]
        };
        let outcome = client.run_rmw(&keys, 1).expect("protocol completes");
        assert!(outcome.committed(), "txn {i}: {outcome:?}");
    }
    cluster
        .settle(Duration::from_secs(5))
        .expect("logs converge");
}

/// Per-server `(log length, tip hash, shard root)` fingerprint. Read as
/// one consistent pair: `settle` converges on log heights, and a shard
/// may still be absorbing the newest block its ledger holds.
fn fingerprint(cluster: &FidesCluster) -> Vec<(usize, Digest, Digest)> {
    (0..cluster.config().n_servers)
        .map(|s| {
            let (log, shard) = cluster.server_state(s).audit_snapshot();
            (log.len(), log.tip_hash(), shard.root())
        })
        .collect()
}

#[test]
fn restart_reproduces_logs_and_roots() {
    let dir = TempDir::new("recovery-restart");
    let persistence = PersistenceConfig::files(dir.path()).snapshot_interval(3);
    let config = persisted_config(persistence, 3);

    let before = {
        let cluster = FidesCluster::start(config.clone());
        commit_txns(&cluster, 8);
        let fp = fingerprint(&cluster);
        cluster.shutdown(); // the "crash": all in-memory state is gone
        fp
    };
    assert!(before.iter().all(|(len, _, _)| *len == 8));

    // Restart over the same directory: WAL + snapshot recovery.
    let cluster = FidesCluster::start(config);
    let after = fingerprint(&cluster);
    assert_eq!(after, before, "recovered state must match pre-crash state");

    // The recovered cluster keeps serving: more commits, clean audit.
    commit_txns(&cluster, 3);
    let report = cluster.audit();
    assert!(report.is_clean(), "{report}");
    assert!(fingerprint(&cluster).iter().all(|(len, _, _)| *len == 11));
    cluster.shutdown();
}

#[test]
fn restart_recovers_on_memory_backend_too() {
    // The same crash/recovery flow over the in-memory backend: the
    // MemoryCluster handle outlives the cluster, like a disk.
    let disks = MemoryCluster::new();
    let persistence = PersistenceConfig::memory(disks.clone()).snapshot_interval(2);
    let config = persisted_config(persistence, 3);

    let before = {
        let cluster = FidesCluster::start(config.clone());
        commit_txns(&cluster, 5);
        let fp = fingerprint(&cluster);
        cluster.shutdown();
        fp
    };

    let cluster = FidesCluster::start(config);
    assert_eq!(fingerprint(&cluster), before);
    commit_txns(&cluster, 2);
    assert!(cluster.audit().is_clean());
    cluster.shutdown();
}

/// The newest WAL segment file of `server` under `root`.
fn last_segment(root: &std::path::Path, server: u32) -> std::path::PathBuf {
    let wal_dir = PersistenceConfig::server_dir(root, server).join("wal");
    let mut segments: Vec<_> = std::fs::read_dir(&wal_dir)
        .expect("wal dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segments.sort();
    segments.pop().expect("at least one segment")
}

#[test]
fn truncated_tail_is_repaired_on_restart() {
    let dir = TempDir::new("recovery-torn");
    // No snapshots: a snapshot above the surviving log length would
    // (correctly) refuse startup, but here we want the repair path.
    let persistence = PersistenceConfig::files(dir.path()).snapshot_interval(0);
    let config = persisted_config(persistence, 1);

    let tip_before_last = {
        let cluster = FidesCluster::start(config.clone());
        commit_txns(&cluster, 3);
        let state = cluster.server_state(0);
        let tip = state.log().get(1).expect("block 1").hash();
        cluster.shutdown();
        tip
    };

    // Crash mid-write: chop bytes off the final record of the WAL.
    let segment = last_segment(dir.path(), 0);
    let len = std::fs::metadata(&segment).expect("segment metadata").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .expect("open segment");
    file.set_len(len - 5).expect("truncate segment");
    drop(file);

    // Restart repairs the tail: the half-written block is discarded,
    // everything before it survives.
    let cluster = FidesCluster::start(config);
    {
        let state = cluster.server_state(0);
        let log = state.log();
        assert_eq!(log.len(), 2, "torn last block dropped");
        assert_eq!(log.tip_hash(), tip_before_last);
    }
    // And the server keeps appending from the repaired tip.
    commit_txns(&cluster, 1);
    assert_eq!(cluster.server_state(0).log().len(), 3);
    assert!(cluster.audit().is_clean());
    cluster.shutdown();
}

#[test]
fn flipped_byte_in_wal_refuses_startup() {
    let dir = TempDir::new("recovery-flip");
    let persistence = PersistenceConfig::files(dir.path()).snapshot_interval(0);
    let config = persisted_config(persistence, 3);
    {
        let cluster = FidesCluster::start(config.clone());
        commit_txns(&cluster, 6);
        cluster.shutdown();
    }

    // Flip one byte in the middle of server 1's WAL (not the tail).
    let segment = {
        let wal_dir = PersistenceConfig::server_dir(dir.path(), 1).join("wal");
        let mut segs: Vec<_> = std::fs::read_dir(wal_dir)
            .expect("wal dir")
            .map(|e| e.expect("entry").path())
            .collect();
        segs.sort();
        segs[0].clone()
    };
    let mut bytes = std::fs::read(&segment).expect("read segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&segment, &bytes).expect("write tampered segment");

    let err = FidesCluster::try_start(config).expect_err("startup must be refused");
    let msg = err.to_string();
    assert!(msg.contains("server 1"), "{msg}");
    assert!(msg.contains("refusing startup"), "{msg}");
    assert!(
        matches!(
            err,
            ServerStartError::Recovery {
                server: 1,
                source: RecoveryError::Wal(_)
            }
        ),
        "{err:?}"
    );
}

#[test]
fn tampered_block_with_valid_crc_refuses_startup() {
    use fides_durability::wal::{RECORD_HEADER_BYTES, SEGMENT_HEADER_BYTES};

    let dir = TempDir::new("recovery-tamper");
    let persistence = PersistenceConfig::files(dir.path()).snapshot_interval(0);
    let config = persisted_config(persistence, 3);
    {
        let cluster = FidesCluster::start(config.clone());
        commit_txns(&cluster, 4);
        cluster.shutdown();
    }

    // A smarter attacker: flip a byte inside the first record's block
    // payload *and* fix up the CRC so the WAL layer is fooled. The
    // collective-signature re-verification still catches it.
    let segment = {
        let wal_dir = PersistenceConfig::server_dir(dir.path(), 2).join("wal");
        let mut segs: Vec<_> = std::fs::read_dir(wal_dir)
            .expect("wal dir")
            .map(|e| e.expect("entry").path())
            .collect();
        segs.sort();
        segs[0].clone()
    };
    let mut bytes = std::fs::read(&segment).expect("read segment");
    let header = SEGMENT_HEADER_BYTES as usize;
    let len = u32::from_be_bytes(bytes[header..header + 4].try_into().unwrap()) as usize;
    let payload_start = header + RECORD_HEADER_BYTES as usize;
    // Flip a byte deep in the payload (past the height field, inside
    // the transaction data), then recompute the checksum.
    bytes[payload_start + len / 2] ^= 0x01;
    let new_crc = crc32(&bytes[payload_start..payload_start + len]);
    bytes[header + 4..header + 8].copy_from_slice(&new_crc.to_be_bytes());
    std::fs::write(&segment, &bytes).expect("write tampered segment");

    let err = FidesCluster::try_start(config).expect_err("startup must be refused");
    match err {
        // Either the chain re-validation or — if the flip hit encoding
        // structure — the block decode refuses; both are startup
        // refusals naming server 2.
        ServerStartError::Recovery { server, ref source } => {
            assert_eq!(server, 2);
            assert!(
                matches!(
                    source,
                    RecoveryError::Tampered(_)
                        | RecoveryError::BrokenChain(_)
                        | RecoveryError::Wal(_)
                ),
                "{source:?}"
            );
        }
        other => panic!("unexpected error: {other:?}"),
    }
    assert!(err.to_string().contains("refusing startup"));
}

#[test]
fn forged_snapshot_refuses_startup() {
    let dir = TempDir::new("recovery-snapforge");
    let persistence = PersistenceConfig::files(dir.path()).snapshot_interval(2);
    let config = persisted_config(persistence, 1);
    {
        let cluster = FidesCluster::start(config.clone());
        commit_txns(&cluster, 4);
        cluster.shutdown();
    }

    // Corrupt the snapshot payload (value bytes) — the CRC catches it.
    let snap_dir = PersistenceConfig::server_dir(dir.path(), 0).join("snapshots");
    let snap = std::fs::read_dir(&snap_dir)
        .expect("snapshot dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "fsnap"))
        .expect("snapshot written");
    let mut bytes = std::fs::read(&snap).expect("read snapshot");
    let at = bytes.len() - 8;
    bytes[at] ^= 0x02;
    std::fs::write(&snap, &bytes).expect("write forged snapshot");

    let err = FidesCluster::try_start(config).expect_err("startup must be refused");
    assert!(
        matches!(
            err,
            ServerStartError::Recovery {
                server: 0,
                source: RecoveryError::Snapshot(_)
            }
        ),
        "{err:?}"
    );
}

#[test]
fn twopc_cluster_restarts_from_wal() {
    use fides_core::messages::CommitProtocol;

    // The 2PC baseline logs unsigned blocks and keeps no Merkle tree;
    // its recovery skips the cosign pass and never snapshots, replaying
    // the full log store-only.
    let dir = TempDir::new("recovery-2pc");
    let persistence = PersistenceConfig::files(dir.path()).snapshot_interval(2);
    let config = persisted_config(persistence, 2).protocol(CommitProtocol::TwoPhaseCommit);

    let before = {
        let cluster = FidesCluster::start(config.clone());
        commit_txns(&cluster, 5);
        let fp = fingerprint(&cluster);
        cluster.shutdown();
        fp
    };

    let cluster = FidesCluster::start(config);
    assert_eq!(fingerprint(&cluster), before);
    commit_txns(&cluster, 2);
    assert!(fingerprint(&cluster).iter().all(|(len, _, _)| *len == 7));
    cluster.shutdown();
}

#[test]
fn snapshot_plus_suffix_replay_matches_full_replay() {
    // Two identical histories, one recovered through a snapshot +
    // suffix, one through full-log replay — the recovered states must
    // agree (and with the live pre-crash state).
    let dir_snap = TempDir::new("recovery-snap");
    let dir_full = TempDir::new("recovery-full");
    let mk = |dir: &TempDir, interval: u64| {
        persisted_config(
            PersistenceConfig::files(dir.path()).snapshot_interval(interval),
            2,
        )
    };

    let mut fps = Vec::new();
    for (dir, interval) in [(&dir_snap, 2), (&dir_full, 0)] {
        let config = mk(dir, interval);
        let before = {
            let cluster = FidesCluster::start(config.clone());
            commit_txns(&cluster, 7);
            let fp = fingerprint(&cluster);
            cluster.shutdown();
            fp
        };
        let cluster = FidesCluster::start(config);
        assert_eq!(fingerprint(&cluster), before);
        fps.push(fingerprint(&cluster));
        cluster.shutdown();
    }
    assert_eq!(fps[0], fps[1], "snapshot path and full-replay path agree");
}
