//! Write-ahead-log micro-benchmarks: append (group-commit) and
//! replay/recovery throughput of `fides-durability`.
//!
//! Appends are measured end-to-end — encode, frame, checksum, write,
//! flush — per block of `B` transactions, since one block is the
//! group-commit unit servers pay per round. Replay is measured both as
//! raw decode (open + CRC + block decode) and as the full verified
//! recovery path (hash chain + batched collective signatures).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fides_crypto::cosi::{self, Witness};
use fides_crypto::encoding::Encodable;
use fides_crypto::schnorr::KeyPair;
use fides_durability::testutil::TempDir;
use fides_durability::{recover_ledger, DurableLog, SyncPolicy, WalBlockLog, WalConfig};
use fides_ledger::block::{Block, BlockBuilder, Decision, TxnRecord};
use fides_ledger::log::TamperProofLog;
use fides_store::rwset::{ReadEntry, WriteEntry};
use fides_store::types::{Key, Timestamp, Value};

fn txn(ts: u64) -> TxnRecord {
    TxnRecord {
        id: Timestamp::new(ts, 0),
        read_set: vec![ReadEntry {
            key: Key::new(format!("item-{:06}", ts % 10_000)),
            value: Value::from_i64(100),
            rts: Timestamp::new(ts.saturating_sub(1), 0),
            wts: Timestamp::new(ts.saturating_sub(2), 0),
        }],
        write_set: vec![WriteEntry {
            key: Key::new(format!("item-{:06}", ts % 10_000)),
            new_value: Value::from_i64(ts as i64),
            old_value: Some(Value::from_i64(100)),
            rts: Timestamp::new(ts.saturating_sub(1), 0),
            wts: Timestamp::new(ts.saturating_sub(2), 0),
        }],
    }
}

/// An unsigned chain of `n` blocks with `batch` txns each.
fn chain(n: u64, batch: u64) -> Vec<Block> {
    let mut log = TamperProofLog::new();
    for h in 0..n {
        let block = BlockBuilder::new(h, log.tip_hash())
            .txns((0..batch).map(|i| txn(1 + h * batch + i)))
            .decision(Decision::Commit)
            .build_unsigned();
        log.append(block).expect("chain extends");
    }
    log.to_blocks()
}

/// A co-signed chain (for the verified-recovery benchmark).
fn signed_chain(n: u64, batch: u64, keys: &[KeyPair]) -> Vec<Block> {
    chain(n, batch)
        .into_iter()
        .map(|unsigned| {
            let record = unsigned.signing_bytes();
            let witnesses: Vec<Witness> = keys
                .iter()
                .map(|k| Witness::commit(k, &unsigned.height.to_be_bytes(), &record))
                .collect();
            let agg = cosi::aggregate_commitments(witnesses.iter().map(|w| w.commitment()));
            let c = cosi::challenge(&agg, &record);
            let sig =
                cosi::CollectiveSignature::assemble(agg, witnesses.iter().map(|w| w.respond(&c)));
            Block {
                cosign: sig,
                ..unsigned
            }
        })
        .collect()
}

fn wal_config(sync: SyncPolicy) -> WalConfig {
    WalConfig {
        segment_bytes: 8 * 1024 * 1024,
        sync,
    }
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal/append_block");
    for batch in [1u64, 100] {
        let blocks = chain(64, batch);
        let block_bytes = blocks[0].encode().len() as u64;
        group.throughput(Throughput::Bytes(block_bytes));
        for (label, sync) in [
            ("fsync", SyncPolicy::Pipelined),
            ("nofsync", SyncPolicy::NoFsync),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("txns={batch}"), label),
                &sync,
                |b, &sync| {
                    b.iter_custom(|iters| {
                        let dir = TempDir::new("bench-append");
                        let (mut wal, _) =
                            WalBlockLog::open(dir.path(), wal_config(sync)).expect("open");
                        let start = Instant::now();
                        for i in 0..iters {
                            let block = &blocks[(i % 64) as usize];
                            wal.append_block(block).expect("append");
                            wal.sync().expect("sync");
                        }
                        start.elapsed()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    // Raw decode throughput: open re-reads, CRC-checks and decodes the
    // whole WAL.
    let mut group = c.benchmark_group("wal/replay_decode");
    group.sample_size(20);
    for n in [256u64, 1024] {
        let dir = TempDir::new("bench-replay");
        let config = wal_config(SyncPolicy::NoFsync);
        let blocks = chain(n, 100);
        let mut bytes = 0u64;
        {
            let (mut wal, _) = WalBlockLog::open(dir.path(), config).expect("open");
            for b in &blocks {
                bytes += b.encode().len() as u64;
                wal.append_block(b).expect("append");
            }
            wal.sync().expect("sync");
        }
        group.throughput(Throughput::Bytes(bytes));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let (_, replayed) = WalBlockLog::open(dir.path(), config).expect("reopen");
                assert_eq!(replayed.len(), n as usize);
                replayed
            })
        });
    }
    group.finish();

    // Full verified recovery: decode + hash chain + batched cosigs.
    let mut group = c.benchmark_group("recovery/verified_replay");
    group.sample_size(10);
    let keys: Vec<KeyPair> = (0..3u8).map(|i| KeyPair::from_seed(&[i, 0x77])).collect();
    let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
    for n in [64u64, 256] {
        let dir = TempDir::new("bench-recover");
        let config = wal_config(SyncPolicy::NoFsync);
        {
            let (mut wal, _) = WalBlockLog::open(dir.path(), config).expect("open");
            for b in &signed_chain(n, 100, &keys) {
                wal.append_block(b).expect("append");
            }
            wal.sync().expect("sync");
        }
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let start = Instant::now();
                    let (_, blocks) = WalBlockLog::open(dir.path(), config).expect("reopen");
                    let recovered =
                        recover_ledger(blocks, None, &pks, true).expect("verified recovery");
                    assert_eq!(recovered.log.len(), n as usize);
                    total += start.elapsed();
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_append, bench_replay);
criterion_main!(benches);
