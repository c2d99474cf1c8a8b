//! Micro-benchmarks for the cryptographic substrate — the "additional
//! computations" the paper attributes to TFCommit vs 2PC (§6.1):
//! collective signing and hashing.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fides_crypto::cosi::{self, CollectiveSignature, Witness};
use fides_crypto::point::FixedBaseTable;
use fides_crypto::schnorr::{self, BatchItem, KeyPair, PublicKey, Signature};
use fides_crypto::sha256::{self, Sha256};

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    eprintln!("sha256 backend: {}", sha256::backend_name());
    for size in [64usize, 1024, 65536] {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        // This CPU's backend (SHA-NI when present) beside the portable
        // compression it replaces.
        group.bench_function(format!("digest/{size}B"), |b| {
            b.iter(|| Sha256::digest(std::hint::black_box(&data)))
        });
        group.bench_function(format!("digest_portable/{size}B"), |b| {
            b.iter(|| sha256::digest_portable(std::hint::black_box(&data)))
        });
    }
    // 64 Merkle-node-shaped messages (65 bytes: prefix + two child
    // digests) through the multi-lane path vs one-by-one scalar
    // digests — the hottest hash call site in block apply.
    let node_msgs: Vec<[u8; 65]> = (0..64u8)
        .map(|i| {
            let mut m = [0u8; 65];
            m[0] = 0x01;
            m[1..33].copy_from_slice(Sha256::digest(&[i]).as_bytes());
            m[33..].copy_from_slice(Sha256::digest(&[i, i]).as_bytes());
            m
        })
        .collect();
    let refs: Vec<&[u8]> = node_msgs.iter().map(|m| m.as_slice()).collect();
    group.throughput(Throughput::Elements(64));
    group.bench_function("digest_many/64x65B", |b| {
        b.iter(|| Sha256::digest_many(std::hint::black_box(&refs)))
    });
    group.bench_function("digest_sequential/64x65B", |b| {
        b.iter(|| {
            refs.iter()
                .map(|m| Sha256::digest(std::hint::black_box(m)))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

fn bench_schnorr(c: &mut Criterion) {
    let kp = KeyPair::from_seed(b"bench");
    let msg = b"a typical protocol message payload";
    let sig = kp.sign(msg);

    let mut group = c.benchmark_group("schnorr");
    group.sample_size(20);
    group.bench_function("sign", |b| b.iter(|| kp.sign(std::hint::black_box(msg))));
    group.bench_function("verify", |b| {
        b.iter(|| kp.public_key().verify(std::hint::black_box(msg), &sig))
    });
    // A directory key: two table walks against its prepared table
    // (built by the first iteration).
    let prepared = kp.public_key().prepared();
    group.bench_function("verify_prepared", |b| {
        b.iter(|| prepared.verify(std::hint::black_box(msg), &sig))
    });
    // What a prepared key's first check pays once per process.
    group.bench_function("table_build", |b| {
        b.iter(|| FixedBaseTable::new(std::hint::black_box(&kp.public_key().point())))
    });
    // The kept pre-GLV full-width wNAF ladder. CI requires `verify`'s
    // median to beat this one's.
    group.bench_function("verify_wnaf", |b| {
        b.iter(|| kp.public_key().verify_wnaf(std::hint::black_box(msg), &sig))
    });
    group.finish();
}

fn bench_schnorr_batch(c: &mut Criterion) {
    // 64 distinct signers/messages — the whole-log verification shape.
    let n = 64usize;
    let keys: Vec<KeyPair> = (0..n)
        .map(|i| KeyPair::from_seed(&[i as u8, 0xEE]))
        .collect();
    let messages: Vec<Vec<u8>> = (0..n)
        .map(|i| format!("protocol message {i}").into_bytes())
        .collect();
    let signed: Vec<(PublicKey, Signature)> = keys
        .iter()
        .zip(&messages)
        .map(|(kp, m)| (kp.public_key(), kp.sign(m)))
        .collect();
    let items: Vec<BatchItem<'_>> = signed
        .iter()
        .zip(&messages)
        .map(|(&(public_key, signature), message)| BatchItem {
            public_key,
            message,
            signature,
        })
        .collect();

    let mut group = c.benchmark_group("schnorr");
    group.sample_size(20);
    group.bench_function("verify_batch/64", |b| {
        b.iter(|| schnorr::verify_batch(std::hint::black_box(&items)))
    });
    // The baseline the batch is judged against: 64 one-by-one verifies.
    group.bench_function("verify_sequential/64", |b| {
        b.iter(|| {
            items.iter().all(|it| {
                it.public_key
                    .verify(std::hint::black_box(it.message), &it.signature)
            })
        })
    });
    group.finish();
}

fn bench_cosi_batch(c: &mut Criterion) {
    // 64 blocks co-signed by the same 5-server witness set — exactly
    // the validate_chain workload.
    let n_blocks = 64usize;
    let keys: Vec<KeyPair> = (0..5)
        .map(|i| KeyPair::from_seed(&[i as u8, 0xEF]))
        .collect();
    let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
    let records: Vec<Vec<u8>> = (0..n_blocks)
        .map(|h| format!("block #{h}").into_bytes())
        .collect();
    let sigs: Vec<CollectiveSignature> = records
        .iter()
        .enumerate()
        .map(|(h, record)| {
            let witnesses: Vec<Witness> = keys
                .iter()
                .map(|k| Witness::commit(k, &(h as u64).to_be_bytes(), record))
                .collect();
            let agg = cosi::aggregate_commitments(witnesses.iter().map(|w| w.commitment()));
            let ch = cosi::challenge(&agg, record);
            cosi::CollectiveSignature::assemble(agg, witnesses.iter().map(|w| w.respond(&ch)))
        })
        .collect();
    let items: Vec<(&[u8], CollectiveSignature)> = records
        .iter()
        .map(Vec::as_slice)
        .zip(sigs.iter().copied())
        .collect();

    let mut group = c.benchmark_group("cosi");
    group.sample_size(20);
    group.bench_function("verify_batch/64", |b| {
        b.iter(|| cosi::verify_batch(std::hint::black_box(&items), &pks))
    });
    group.bench_function("verify_sequential/64", |b| {
        b.iter(|| {
            items
                .iter()
                .all(|(record, sig)| sig.verify(std::hint::black_box(record), &pks))
        })
    });
    group.finish();
}

fn bench_cosi(c: &mut Criterion) {
    let mut group = c.benchmark_group("cosi");
    group.sample_size(10);
    for n in [3usize, 4, 5, 9] {
        let keys: Vec<KeyPair> = (0..n).map(|i| KeyPair::from_seed(&[i as u8])).collect();
        let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        let record = b"block signing bytes";

        // The full round: commit, aggregate, challenge, respond,
        // assemble — everything TFCommit adds per block.
        group.bench_function(format!("full-round/n={n}"), |b| {
            b.iter(|| {
                let witnesses: Vec<Witness> = keys
                    .iter()
                    .map(|kp| Witness::commit(kp, b"round", record))
                    .collect();
                let agg = cosi::aggregate_commitments(witnesses.iter().map(|w| w.commitment()));
                let ch = cosi::challenge(&agg, record);
                cosi::CollectiveSignature::assemble(agg, witnesses.iter().map(|w| w.respond(&ch)))
            })
        });

        // Verification cost is that of a single signature (§2.2).
        let witnesses: Vec<Witness> = keys
            .iter()
            .map(|kp| Witness::commit(kp, b"round", record))
            .collect();
        let agg = cosi::aggregate_commitments(witnesses.iter().map(|w| w.commitment()));
        let ch = cosi::challenge(&agg, record);
        let sig =
            cosi::CollectiveSignature::assemble(agg, witnesses.iter().map(|w| w.respond(&ch)));
        group.bench_function(format!("verify/n={n}"), |b| {
            b.iter(|| sig.verify(std::hint::black_box(record), &pks))
        });
        if n == 4 {
            // A cluster's witness set: the aggregate key's table.
            let prepared: Vec<_> = pks.iter().map(|pk| pk.prepared()).collect();
            group.bench_function(format!("verify_prepared/n={n}"), |b| {
                b.iter(|| sig.verify(std::hint::black_box(record), &prepared))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_schnorr,
    bench_schnorr_batch,
    bench_cosi,
    bench_cosi_batch
);
criterion_main!(benches);
