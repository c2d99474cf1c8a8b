//! Property-based tests for the datastore substrate.

use fides_crypto::encoding::{Decodable, Encodable};
use fides_store::authenticated::{leaf_digest, AuthenticatedShard};
use fides_store::{
    CheckpointDelta, DeltaError, ItemDelta, Key, MultiVersionStore, ShardCheckpoint,
    SingleVersionStore, Timestamp, Value,
};
use proptest::prelude::*;

fn key(i: u8) -> Key {
    Key::new(format!("k{i:03}"))
}

/// Plays `ops` on `shard`, one commit timestamp each: `(kind, k, v)`
/// updates an existing key, creates a new one, bumps a key's `rts`
/// with a read-only commit, or corrupts an old (overwritten) version.
fn play(shard: &mut AuthenticatedShard, ops: &[(u8, u8, i64)], ts: &mut u64) {
    for &(kind, k, v) in ops {
        *ts += 1;
        let stamp = Timestamp::new(*ts, 0);
        let keys: Vec<Key> = shard.keys().cloned().collect();
        let existing = keys[k as usize % keys.len()].clone();
        match kind % 8 {
            0..=3 => {
                shard.apply_commit(stamp, &[], &[(existing, Value::from_i64(v))]);
            }
            4 => {
                let created = Key::new(format!("new-{ts:05}"));
                shard.apply_commit(stamp, &[], &[(created, Value::from_i64(v))]);
            }
            5 | 6 => {
                shard.apply_commit(stamp, std::slice::from_ref(&existing), &[]);
            }
            _ => {
                if shard.store().version_count(&existing) >= 2 {
                    shard.store_mut().corrupt_version(
                        &existing,
                        Timestamp::ZERO,
                        Value::from_i64(v),
                    );
                }
            }
        }
    }
}

/// A shard of `n` items after `ops`, checkpointed at `split` ops and at
/// the end: `(base, later, last timestamp)`.
fn history(n: u8, ops: &[(u8, u8, i64)], split: usize) -> (ShardCheckpoint, ShardCheckpoint, u64) {
    let items: Vec<(Key, Value)> = (0..n).map(|i| (key(i), Value::from_i64(0))).collect();
    let mut shard = AuthenticatedShard::new(items);
    let mut ts = 0u64;
    let split = split.min(ops.len());
    play(&mut shard, &ops[..split], &mut ts);
    let base = shard.checkpoint();
    play(&mut shard, &ops[split..], &mut ts);
    (base, shard.checkpoint(), ts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The speculative root equals the root after actually committing
    /// the same writes — the invariant TFCommit's vote phase depends on
    /// (§4.3.1).
    #[test]
    fn speculative_root_matches_commit(
        n in 1usize..24,
        writes in proptest::collection::vec((any::<u8>(), any::<i64>()), 1..12),
    ) {
        let items: Vec<(Key, Value)> =
            (0..n).map(|i| (key(i as u8), Value::from_i64(i as i64))).collect();
        let mut spec_shard = AuthenticatedShard::new(items.clone());
        let mut commit_shard = AuthenticatedShard::new(items);

        let writes: Vec<(Key, Value)> = writes
            .into_iter()
            .map(|(k, v)| (key(k % n as u8), Value::from_i64(v)))
            .collect();
        // Deduplicate: within one block each key is written once
        // (non-conflicting batch); keep the last write per key.
        let mut dedup: std::collections::BTreeMap<Key, Value> = Default::default();
        for (k, v) in writes {
            dedup.insert(k, v);
        }
        let writes: Vec<(Key, Value)> = dedup.into_iter().collect();

        let before = spec_shard.root();
        let speculative = spec_shard.speculative_root(&writes);
        prop_assert_eq!(spec_shard.root(), before, "speculation must not mutate");

        commit_shard.apply_commit(Timestamp::new(1, 0), &[], &writes);
        prop_assert_eq!(speculative, commit_shard.root());
    }

    /// Committed values are always provable against the live root, and
    /// proofs never validate wrong values.
    #[test]
    fn proofs_sound_after_random_history(
        ops in proptest::collection::vec((any::<u8>(), any::<i64>()), 1..30),
    ) {
        let n = 16u8;
        let items: Vec<(Key, Value)> =
            (0..n).map(|i| (key(i), Value::from_i64(0))).collect();
        let mut shard = AuthenticatedShard::new(items);
        let mut ts = 0u64;
        for (k, v) in ops {
            ts += 1;
            shard.apply_commit(
                Timestamp::new(ts, 0),
                &[],
                &[(key(k % n), Value::from_i64(v))],
            );
        }
        // Membership proofs anchor to the value root, which recombines
        // with the key root into the co-signed composite root.
        let value_root = shard.value_root();
        prop_assert_eq!(
            fides_store::combine_roots(&value_root, &shard.key_root()),
            shard.root()
        );
        for i in 0..n {
            let (value, vo) = shard.proof_latest(&key(i)).expect("preloaded");
            prop_assert!(vo.verify(leaf_digest(&key(i), &value), &value_root));
            // A different value must not verify.
            let wrong = Value::from_i64(value.as_i64().unwrap_or(0) + 1);
            prop_assert!(!vo.verify(leaf_digest(&key(i), &wrong), &value_root));
        }
        // Batched reads (multiproof + absence brackets) verify against
        // the composite root, and absent keys are provably unbound.
        let request: Vec<Key> = (0..n).map(key).chain([Key::new("nope")]).collect();
        let bundle = shard.prove_read(&request);
        let values = bundle.verify(&request, &shard.root()).expect("bundle verifies");
        prop_assert!(values[..n as usize].iter().all(|v| v.is_some()));
        prop_assert!(values[n as usize].is_none());
    }

    /// Historical reconstruction agrees with the roots observed live at
    /// every version (multi-versioned audit, §4.2.2).
    #[test]
    fn version_reconstruction_matches_live_roots(
        ops in proptest::collection::vec((any::<u8>(), any::<i64>()), 1..16),
    ) {
        let n = 8u8;
        let items: Vec<(Key, Value)> =
            (0..n).map(|i| (key(i), Value::from_i64(0))).collect();
        let mut shard = AuthenticatedShard::new(items);
        let mut observed: Vec<(Timestamp, fides_crypto::Digest)> = Vec::new();
        let mut ts = 0u64;
        for (k, v) in ops {
            ts += 1;
            let stamp = Timestamp::new(ts, 0);
            shard.apply_commit(stamp, &[], &[(key(k % n), Value::from_i64(v))]);
            observed.push((stamp, shard.root()));
        }
        for (stamp, root) in observed {
            prop_assert_eq!(shard.root_at_version(stamp), root);
        }
    }

    /// Rollback never leaves versions newer than the target and keeps
    /// the surviving history intact.
    #[test]
    fn rollback_invariants(
        writes in proptest::collection::vec((any::<u8>(), 1u64..50), 1..20),
        cut in 1u64..50,
    ) {
        let mut store = MultiVersionStore::new();
        for i in 0..4u8 {
            store.load(key(i), Value::from_i64(0));
        }
        for (k, t) in &writes {
            store.commit_write(&key(k % 4), Value::from_i64(*t as i64), Timestamp::new(*t, 0));
        }
        let cut_ts = Timestamp::new(cut, u32::MAX);
        let expected: std::collections::HashMap<Key, Option<Value>> = (0..4u8)
            .map(|i| (key(i), store.value_at(&key(i), cut_ts)))
            .collect();
        store.rollback_to(cut_ts);
        for i in 0..4u8 {
            let k = key(i);
            prop_assert_eq!(store.get(&k).map(|s| s.value), expected[&k].clone());
            if let Some(state) = store.get(&k) {
                prop_assert!(state.wts <= cut_ts);
                prop_assert!(state.rts <= cut_ts);
            }
        }
    }

    /// Single-version store timestamps are monotone under any op mix.
    #[test]
    fn single_version_timestamps_monotone(
        ops in proptest::collection::vec((any::<bool>(), any::<u8>(), 1u64..100), 1..40),
    ) {
        let mut store = SingleVersionStore::new();
        for i in 0..4u8 {
            store.load(key(i), Value::from_i64(0));
        }
        let mut high_water: std::collections::HashMap<Key, (Timestamp, Timestamp)> =
            Default::default();
        for (is_write, k, t) in ops {
            let k = key(k % 4);
            let ts = Timestamp::new(t, 0);
            if is_write {
                store.commit_write(&k, Value::from_i64(t as i64), ts);
            } else {
                store.commit_read(&k, ts);
            }
            let state = store.get(&k).unwrap();
            let entry = high_water.entry(k).or_insert((Timestamp::ZERO, Timestamp::ZERO));
            prop_assert!(state.rts >= entry.0, "rts regressed");
            prop_assert!(state.wts >= entry.1, "wts regressed");
            *entry = (state.rts, state.wts);
            prop_assert!(state.rts >= state.wts, "rts >= wts invariant (writes bump both)");
        }
    }

    /// A delta applied to its base image gives the later image byte for
    /// byte; applied to the base's restored shard it gives the shard a
    /// restore of the later image would: roots, version chains and
    /// historical roots alike. Its encoding survives a round trip, and
    /// every truncation or bit flip of it fails to decode.
    #[test]
    fn delta_reproduces_later_image_and_shard(
        n in 2u8..12,
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<i64>()), 1..40),
        split in 0usize..40,
        cut in any::<u16>(),
        flip in any::<u16>(),
    ) {
        let (base, later, last_ts) = history(n, &ops, split);
        let delta = base.diff(&later).expect("histories only grow");

        let mut image = base.clone();
        image.apply_delta(&delta).expect("delta applies to its base");
        prop_assert_eq!(image.encode(), later.encode());

        let want = later.restore();
        let mut shard = base.restore();
        shard.apply_delta(&delta, &want.root()).expect("delta reproduces the root");
        prop_assert_eq!(shard.root(), want.root());
        prop_assert_eq!(shard.key_root(), want.key_root());
        prop_assert_eq!(shard.checkpoint(), later.clone());
        for t in [0, last_ts / 2, last_ts] {
            let stamp = Timestamp::new(t, 0);
            prop_assert_eq!(shard.root_at_version(stamp), want.root_at_version(stamp));
        }

        let bytes = delta.encode();
        prop_assert_eq!(CheckpointDelta::decode(&bytes).ok(), Some(delta.clone()));
        let cut = cut as usize % bytes.len();
        prop_assert!(CheckpointDelta::decode(&bytes[..cut]).is_err());
        let mut flipped = bytes.clone();
        let at = flip as usize % (bytes.len() * 8);
        flipped[at / 8] ^= 1 << (at % 8);
        prop_assert!(CheckpointDelta::decode(&flipped).is_err());
    }

    /// Malformed deltas — an index gap or one far out of range, a key
    /// mismatch, `keep` past the chain, versions that do not ascend —
    /// are refused by image and shard alike before anything changes.
    #[test]
    fn malformed_deltas_refused_before_any_change(
        n in 2u8..12,
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<i64>()), 1..30),
        split in 0usize..30,
        pick in any::<u8>(),
    ) {
        let (base, later, last_ts) = history(n, &ops, split);
        let good = base.diff(&later).expect("histories only grow");
        let root = later.restore().root();
        let at = pick as usize % base.len();
        let item = &base.items[at];
        let other = &base.items[(at + 1) % base.len()];
        let edit = |index: u64, key: &Key, keep: usize, versions: Vec<(Timestamp, Value)>| {
            ItemDelta {
                index,
                key: key.clone(),
                created: item.created,
                rts: item.rts,
                keep: keep as u64,
                versions,
            }
        };
        let fresh = vec![(Timestamp::new(last_ts + 1, 0), Value::from_i64(1))];
        let appended = |index: u64| {
            let mut delta = good.clone();
            delta.items.push(edit(index, &Key::new("gap"), 0, fresh.clone()));
            delta
        };
        let only = |entry: ItemDelta| CheckpointDelta { items: vec![entry] };
        let chain = item.versions.len();
        let cases = [
            (appended(later.len() as u64 + 1), DeltaError::IndexGap { index: later.len() as u64 + 1 }),
            (appended(u64::MAX), DeltaError::IndexGap { index: u64::MAX }),
            (only(edit(at as u64, &other.key, 1, Vec::new())), DeltaError::KeyMismatch { index: at as u64 }),
            (only(edit(at as u64, &item.key, chain + 1, Vec::new())), DeltaError::KeepPastChain { index: at as u64 }),
            (
                only(edit(at as u64, &item.key, chain, vec![item.versions[chain - 1].clone()])),
                DeltaError::BadVersions { index: at as u64 },
            ),
            (
                only(edit(at as u64, &item.key, 0, [fresh.clone(), fresh.clone()].concat())),
                DeltaError::BadVersions { index: at as u64 },
            ),
        ];
        for (delta, want) in cases {
            let mut image = base.clone();
            prop_assert_eq!(image.apply_delta(&delta), Err(want));
            prop_assert_eq!(&image, &base);
            let mut shard = base.restore();
            prop_assert_eq!(shard.apply_delta(&delta, &root), Err(want));
            prop_assert_eq!(shard.checkpoint(), base.clone());
        }
    }
}
