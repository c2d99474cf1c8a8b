//! A Merkle-authenticated shard (paper §4.2.2).
//!
//! Wraps a [`MultiVersionStore`] with an incrementally-maintained Merkle
//! hash tree whose leaves are `H(key ‖ value)` in key-creation order.
//! The shard produces:
//!
//! * **speculative roots** — the root the shard *would* have if a
//!   transaction's writes were applied, computed in memory without
//!   touching the datastore (§4.3.1: "since MHT computation is done in
//!   memory, the datastore is unaffected if Ti eventually aborts");
//! * **verification objects** at the latest state or at any historical
//!   version, which the auditor checks against the roots logged in
//!   blocks (Lemma 2).
//!
//! The timestamps (`rts`/`wts`) are deliberately *not* part of the leaf
//! hash: the auditor verifies timestamps by replaying the log (Lemmas 1
//! and 3); the tree authenticates values.
//!
//! # The composite shard root
//!
//! The root a shard publishes (and cohorts co-sign into blocks) is a
//! **composite**: `H(value_root ‖ key_root)`, where the *value tree*
//! holds `H(key ‖ value)` leaves in creation order and the *key tree*
//! holds `H(key)` leaves in **sorted key order**. The value tree backs
//! membership proofs (verification objects, multiproofs); the key tree
//! backs **absence proofs** — two key-adjacent leaves bracketing a
//! missing key prove it is unbound, so negative reads are as
//! tamper-evident as positive ones (see [`crate::proofs`]). Updating an
//! existing key leaves the key tree untouched; only key *creation*
//! (rare — the keyspace is preloaded) rebuilds it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fides_crypto::encoding::Encoder;
use fides_crypto::merkle::{hash_leaf, MerkleTree, VerificationObject};
use fides_crypto::Digest;

use crate::checkpoint::{CheckpointDelta, CheckpointItem, DeltaError, ShardCheckpoint};
use crate::multi::MultiVersionStore;
use crate::types::{ItemState, Key, Timestamp, Value};

/// Cumulative Merkle-maintenance statistics — the "MHT update time" the
/// paper plots in Figure 14.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MhtUpdateStats {
    /// Number of leaf replacements performed.
    pub leaf_updates: u64,
    /// Total internal nodes rehashed (≈ `leaf_updates · log₂ n`).
    pub nodes_recomputed: u64,
    /// Wall-clock time spent in Merkle maintenance.
    pub elapsed: Duration,
}

impl MhtUpdateStats {
    fn absorb(&mut self, other: MhtUpdateStats) {
        self.leaf_updates += other.leaf_updates;
        self.nodes_recomputed += other.nodes_recomputed;
        self.elapsed += other.elapsed;
    }
}

/// Computes the canonical leaf digest for a `(key, value)` pair.
pub fn leaf_digest(key: &Key, value: &Value) -> Digest {
    let mut enc = Encoder::new();
    enc.put_str(key.as_str());
    enc.put_str(value.as_str());
    hash_leaf(enc.as_bytes())
}

/// Computes the canonical **key tree** leaf digest for a key — domain
/// separated from [`leaf_digest`] so a key leaf can never be confused
/// with a value leaf.
pub fn key_leaf_digest(key: &Key) -> Digest {
    let mut enc = Encoder::new();
    enc.put_str("fides.key.v1");
    enc.put_str(key.as_str());
    hash_leaf(enc.as_bytes())
}

/// Combines a value-tree root and a key-tree root into the composite
/// shard root that cohorts co-sign into blocks. Hash binding makes the
/// pair unique: a prover must exhibit the genuine `(value_root,
/// key_root)` halves for any co-signed composite, so value proofs and
/// absence proofs anchor to the same 32-byte commitment.
pub fn combine_roots(value_root: &Digest, key_root: &Digest) -> Digest {
    fides_crypto::sha256::Sha256::digest_parts(&[
        b"fides.shardroot.v1",
        value_root.as_bytes(),
        key_root.as_bytes(),
    ])
}

/// A shard whose contents are authenticated by a Merkle hash tree.
///
/// # Example
///
/// ```
/// use fides_store::{AuthenticatedShard, Key, Timestamp, Value};
///
/// let mut shard = AuthenticatedShard::new(vec![
///     (Key::new("x"), Value::from_i64(1000)),
///     (Key::new("y"), Value::from_i64(500)),
/// ]);
/// let root_before = shard.root();
///
/// let ts = Timestamp::new(100, 0);
/// shard.apply_commit(ts, &[Key::new("y")], &[(Key::new("x"), Value::from_i64(900))]);
/// assert_ne!(shard.root(), root_before);
///
/// // The auditor can verify x's value against the new value root.
/// let (value, vo) = shard.proof_latest(&Key::new("x")).unwrap();
/// assert_eq!(value.as_i64(), Some(900));
/// assert!(vo.verify(fides_store::authenticated::leaf_digest(&Key::new("x"), &value), &shard.value_root()));
/// // ...and the value root chains into the co-signed composite root.
/// assert_eq!(
///     fides_store::authenticated::combine_roots(&shard.value_root(), &shard.key_root()),
///     shard.root(),
/// );
/// ```
#[derive(Clone, Debug)]
pub struct AuthenticatedShard {
    store: MultiVersionStore,
    tree: MerkleTree,
    /// Merkle tree over [`key_leaf_digest`] leaves in sorted key order —
    /// the absence-proof half of the composite root. Rebuilt only when
    /// a key is created.
    key_tree: MerkleTree,
    /// The key tree's leaf order (all keys, sorted): `key_order[i]` is
    /// leaf `i`. Kept in lock-step with `key_tree` so live absence
    /// proofs find their bracket by binary search instead of an `O(n)`
    /// scan under the shard lock.
    key_order: Vec<Key>,
    /// Key → (leaf index, creation timestamp). Leaf indexes are assigned
    /// in creation order, so the keys existing at any version occupy a
    /// prefix of the leaf level.
    index: BTreeMap<Key, (usize, Timestamp)>,
    stats: MhtUpdateStats,
}

impl AuthenticatedShard {
    /// Builds a shard over the initial `(key, value)` population. Items
    /// are loaded with zero timestamps, in the order given (leaf index =
    /// position).
    pub fn new(items: Vec<(Key, Value)>) -> Self {
        let mut store = MultiVersionStore::new();
        let mut index = BTreeMap::new();
        let mut leaves = Vec::with_capacity(items.len());
        for (i, (key, value)) in items.into_iter().enumerate() {
            leaves.push(leaf_digest(&key, &value));
            index.insert(key.clone(), (i, Timestamp::ZERO));
            store.load(key, value);
        }
        let key_order: Vec<Key> = index.keys().cloned().collect();
        let key_tree = key_tree_of(key_order.iter());
        AuthenticatedShard {
            store,
            tree: MerkleTree::from_leaves(leaves),
            key_tree,
            key_order,
            index,
            stats: MhtUpdateStats::default(),
        }
    }

    /// The latest state of `key`, if stored here.
    pub fn read(&self, key: &Key) -> Option<ItemState> {
        self.store.get(key)
    }

    /// Returns `true` if the shard stores `key`.
    pub fn contains(&self, key: &Key) -> bool {
        self.index.contains_key(key)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if the shard holds no items.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// All keys of this shard, in key order.
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.index.keys()
    }

    /// The current **composite** root of the shard — what cohorts
    /// co-sign into blocks: `H(value_root ‖ key_root)`
    /// ([`combine_roots`]).
    pub fn root(&self) -> Digest {
        combine_roots(&self.tree.root(), &self.key_tree.root())
    }

    /// The value tree's root (membership proofs verify against this
    /// half of the composite).
    pub fn value_root(&self) -> Digest {
        self.tree.root()
    }

    /// The key tree's root (absence proofs verify against this half).
    pub fn key_root(&self) -> Digest {
        self.key_tree.root()
    }

    /// The root the shard would have after applying `writes`, computed
    /// in memory and rolled back — the `root_mht` each involved cohort
    /// sends in its TFCommit vote (§4.3.1).
    ///
    /// Writes to keys not yet in the shard are appended on a cloned tree
    /// (slower path, kept rare by preloading the keyspace); only that
    /// path recomputes the key tree — updates to existing keys reuse the
    /// live key root unchanged.
    pub fn speculative_root(&mut self, writes: &[(Key, Value)]) -> Digest {
        let any_new = writes.iter().any(|(k, _)| !self.index.contains_key(k));
        if any_new {
            let mut tree = self.tree.clone();
            for (key, value) in writes {
                match self.index.get(key) {
                    Some((idx, _)) => {
                        tree.update_leaf(*idx, leaf_digest(key, value));
                    }
                    None => {
                        tree.push_leaf(leaf_digest(key, value));
                    }
                }
            }
            // The created keys join the sorted key set.
            let mut keys: Vec<&Key> = self.index.keys().collect();
            keys.extend(
                writes
                    .iter()
                    .map(|(k, _)| k)
                    .filter(|k| !self.index.contains_key(*k)),
            );
            keys.sort_unstable();
            keys.dedup();
            let key_tree = key_tree_of(keys.into_iter());
            return combine_roots(&tree.root(), &key_tree.root());
        }
        // Fast path: a single overlay pass over the immutable tree —
        // no apply, no revert, and by construction "the datastore is
        // unaffected if Ti eventually aborts" (§4.3.1).
        let start = Instant::now();
        let updates: Vec<(usize, Digest)> = writes
            .iter()
            .map(|(key, value)| (self.index[key].0, leaf_digest(key, value)))
            .collect();
        let (root, nodes) = self.tree.root_with_updates(&updates);
        self.stats.absorb(MhtUpdateStats {
            leaf_updates: writes.len() as u64,
            nodes_recomputed: nodes as u64,
            elapsed: start.elapsed(),
        });
        combine_roots(&root, &self.key_tree.root())
    }

    /// Applies a committed transaction at `ts`: advances `rts` of read
    /// keys, writes new versions and incrementally updates the tree.
    /// Returns the Merkle-maintenance cost of this call.
    pub fn apply_commit(
        &mut self,
        ts: Timestamp,
        reads: &[Key],
        writes: &[(Key, Value)],
    ) -> MhtUpdateStats {
        for key in reads {
            self.store.commit_read(key, ts);
        }
        let start = Instant::now();
        let mut nodes = 0u64;
        let mut leaf_updates = 0u64;
        let mut created = false;
        // Existing keys batch into one shared-path update; only new
        // keys take the append path.
        let mut updates: Vec<(usize, Digest)> = Vec::with_capacity(writes.len());
        for (key, value) in writes {
            self.store.commit_write(key, value.clone(), ts);
            let digest = leaf_digest(key, value);
            match self.index.get(key) {
                Some((idx, _)) => updates.push((*idx, digest)),
                None => {
                    let idx = self.tree.push_leaf(digest);
                    self.index.insert(key.clone(), (idx, ts));
                    nodes += self.tree.height() as u64;
                    created = true;
                }
            }
            leaf_updates += 1;
        }
        nodes += self.tree.update_leaves_parallel(&updates) as u64;
        if created {
            // Key creation changes the sorted key set: rebuild the key
            // tree (rare — the keyspace is preloaded).
            self.key_order = self.index.keys().cloned().collect();
            self.key_tree = key_tree_of(self.key_order.iter());
            nodes += self.key_tree.len() as u64;
        }
        let call_stats = MhtUpdateStats {
            leaf_updates,
            nodes_recomputed: nodes,
            elapsed: start.elapsed(),
        };
        self.stats.absorb(call_stats);
        call_stats
    }

    /// Applies a committed transaction to the datastore *without*
    /// Merkle maintenance — used by the trusted 2PC baseline (§6.1),
    /// which keeps no authenticated structures.
    pub fn apply_commit_store_only(
        &mut self,
        ts: Timestamp,
        reads: &[Key],
        writes: &[(Key, Value)],
    ) {
        for key in reads {
            self.store.commit_read(key, ts);
        }
        for (key, value) in writes {
            self.store.commit_write(key, value.clone(), ts);
            if !self.index.contains_key(key) {
                let idx = self.index.len();
                self.index.insert(key.clone(), (idx, ts));
            }
        }
    }

    /// The latest value of `key` with its verification object against
    /// [`AuthenticatedShard::root`].
    pub fn proof_latest(&self, key: &Key) -> Option<(Value, VerificationObject)> {
        let (idx, _) = *self.index.get(key)?;
        let state = self.store.get(key)?;
        Some((state.value, self.tree.proof(idx)))
    }

    /// Reconstructs the Merkle tree as of version `ts` from the
    /// (possibly corrupted) datastore — the server-side computation when
    /// an auditor audits version `ts` (§4.2.2, multi-versioned audit).
    pub fn tree_at_version(&self, ts: Timestamp) -> MerkleTree {
        // Keys existing at ts occupy a prefix of the leaf level because
        // leaf indexes are assigned in commit order.
        let mut entries: Vec<(usize, &Key)> = self
            .index
            .iter()
            .filter(|(_, (_, created))| *created <= ts)
            .map(|(k, (idx, _))| (*idx, k))
            .collect();
        entries.sort_unstable_by_key(|(idx, _)| *idx);
        let leaves = entries
            .into_iter()
            .map(|(_, key)| {
                let value = self
                    .store
                    .value_at(key, ts)
                    .expect("key created at or before ts has a version at ts");
                leaf_digest(key, &value)
            })
            .collect();
        MerkleTree::from_leaves(leaves)
    }

    /// Reconstructs the **key tree** as of version `ts`: the sorted set
    /// of keys created at or before `ts`.
    pub fn key_tree_at_version(&self, ts: Timestamp) -> MerkleTree {
        key_tree_of(
            self.index
                .iter()
                .filter(|(_, (_, created))| *created <= ts)
                .map(|(k, _)| k),
        )
    }

    /// The composite shard root as of version `ts` — what this shard
    /// co-signed in the last block whose writes reached `ts`.
    pub fn root_at_version(&self, ts: Timestamp) -> Digest {
        combine_roots(
            &self.tree_at_version(ts).root(),
            &self.key_tree_at_version(ts).root(),
        )
    }

    /// The value and verification object of `key` at version `ts`, built
    /// from the live datastore (a corrupted store yields a VO whose root
    /// mismatches the logged one — exactly Lemma 2's detection).
    pub fn proof_at_version(
        &self,
        key: &Key,
        ts: Timestamp,
    ) -> Option<(Value, VerificationObject)> {
        let (idx, created) = *self.index.get(key)?;
        if created > ts {
            return None;
        }
        let value = self.store.value_at(key, ts)?;
        let tree = self.tree_at_version(ts);
        Some((value, tree.proof(idx)))
    }

    /// Exports the shard as a [`ShardCheckpoint`]: every item in
    /// leaf-index order with its full version chain and timestamps.
    /// [`AuthenticatedShard::from_checkpoint`] reproduces a shard with
    /// an identical Merkle root, datastore and historical proofs.
    pub fn checkpoint(&self) -> ShardCheckpoint {
        let mut entries: Vec<(usize, &Key, Timestamp)> = self
            .index
            .iter()
            .map(|(k, (idx, created))| (*idx, k, *created))
            .collect();
        entries.sort_unstable_by_key(|(idx, _, _)| *idx);
        let items = entries
            .into_iter()
            .map(|(_, key, created)| {
                let (versions, rts) = self
                    .store
                    .export_chain(key)
                    .expect("indexed key exists in the store");
                CheckpointItem {
                    key: key.clone(),
                    created,
                    rts,
                    versions,
                }
            })
            .collect();
        ShardCheckpoint { items }
    }

    /// Rebuilds a shard from a checkpoint taken with
    /// [`AuthenticatedShard::checkpoint`]. Leaf order, version chains
    /// and timestamps are restored verbatim, so the Merkle root matches
    /// the checkpointed shard's root exactly.
    pub fn from_checkpoint(checkpoint: &ShardCheckpoint) -> Self {
        let mut store = MultiVersionStore::new();
        let mut index = BTreeMap::new();
        let mut leaves = Vec::with_capacity(checkpoint.items.len());
        for (i, item) in checkpoint.items.iter().enumerate() {
            let (_, latest) = item
                .versions
                .last()
                .expect("checkpoint chains are non-empty");
            leaves.push(leaf_digest(&item.key, latest));
            index.insert(item.key.clone(), (i, item.created));
            store.restore_chain(item.key.clone(), item.versions.clone(), item.rts);
        }
        let key_order: Vec<Key> = index.keys().cloned().collect();
        let key_tree = key_tree_of(key_order.iter());
        AuthenticatedShard {
            store,
            tree: MerkleTree::from_leaves(leaves),
            key_tree,
            key_order,
            index,
            stats: MhtUpdateStats::default(),
        }
    }

    /// Applies a [`CheckpointDelta`] taken against the image this shard
    /// was restored from (or last brought up to date by a delta),
    /// leaving the shard as [`AuthenticatedShard::from_checkpoint`] of
    /// the newer image would build it. Only the changed and appended
    /// leaves are rehashed; the key tree is rebuilt only when keys were
    /// appended.
    ///
    /// Checks everything before changing anything: the delta's shape
    /// against this shard, then the composite root it produces against
    /// `root`.
    ///
    /// # Errors
    ///
    /// A [`DeltaError`] ([`DeltaError::RootMismatch`] for a well-formed
    /// delta that does not reproduce `root`); the shard is unchanged.
    pub fn apply_delta(
        &mut self,
        delta: &CheckpointDelta,
        root: &Digest,
    ) -> Result<(), DeltaError> {
        let base_len = self.len();
        delta.check_with(
            base_len,
            |item| {
                let (index, _) = self.index.get(&item.key)?;
                (*index as u64 == item.index)
                    .then(|| self.store.chain(&item.key))
                    .flatten()
            },
            |key| self.index.contains_key(key),
        )?;
        // New leaf digests: changed latest values in place, then the
        // appended items. An item whose latest version is untouched
        // (an `rts` bump) keeps its leaf.
        let mut updates: Vec<(usize, Digest)> = Vec::new();
        let mut appended: Vec<&Key> = Vec::new();
        let mut tree = self.tree.clone();
        for item in &delta.items {
            let index = item.index as usize;
            let chain = self.store.chain(&item.key).unwrap_or_default();
            let latest = match item.versions.last() {
                Some((_, value)) => value,
                None if item.keep as usize == chain.len() => continue,
                None => &chain[item.keep as usize - 1].1,
            };
            let digest = leaf_digest(&item.key, latest);
            if index < base_len {
                updates.push((index, digest));
            } else {
                tree.push_leaf(digest);
                appended.push(&item.key);
            }
        }
        tree.update_leaves_parallel(&updates);
        let key_order: Option<Vec<Key>> = (!appended.is_empty()).then(|| {
            let mut keys: Vec<Key> = self.key_order.clone();
            keys.extend(appended.iter().map(|k| (*k).clone()));
            keys.sort_unstable();
            keys
        });
        let key_tree = key_order.as_ref().map(|keys| key_tree_of(keys.iter()));
        let key_root = key_tree.as_ref().unwrap_or(&self.key_tree).root();
        if combine_roots(&tree.root(), &key_root) != *root {
            return Err(DeltaError::RootMismatch);
        }

        self.tree = tree;
        if let (Some(order), Some(key_tree)) = (key_order, key_tree) {
            self.key_order = order;
            self.key_tree = key_tree;
        }
        for item in &delta.items {
            self.store
                .splice_chain(&item.key, item.keep as usize, &item.versions, item.rts);
            self.index
                .insert(item.key.clone(), (item.index as usize, item.created));
        }
        Ok(())
    }

    /// Cumulative Merkle-maintenance statistics since construction (or
    /// the last [`AuthenticatedShard::reset_stats`]).
    pub fn stats(&self) -> MhtUpdateStats {
        self.stats
    }

    /// Zeroes the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = MhtUpdateStats::default();
    }

    /// Mutable access to the underlying store, for fault injection
    /// (datastore corruption) in tests and examples.
    #[doc(hidden)]
    pub fn store_mut(&mut self) -> &mut MultiVersionStore {
        &mut self.store
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &MultiVersionStore {
        &self.store
    }

    /// The value-tree leaf index and creation timestamp of `key`, if
    /// stored here (proof plumbing for [`crate::proofs`]).
    pub(crate) fn leaf_index(&self, key: &Key) -> Option<(usize, Timestamp)> {
        self.index.get(key).copied()
    }

    /// The live value tree (proof plumbing).
    pub(crate) fn value_tree(&self) -> &MerkleTree {
        &self.tree
    }

    /// The live key tree (proof plumbing).
    pub(crate) fn live_key_tree(&self) -> &MerkleTree {
        &self.key_tree
    }

    /// The key tree's sorted leaf order (proof plumbing): live absence
    /// proofs binary-search their bracket here in `O(log n)`.
    pub(crate) fn key_order(&self) -> &[Key] {
        &self.key_order
    }

    /// Position of `key` in sorted key order among keys created at or
    /// before `ts` (= its key-tree slot if present), plus the bracketing
    /// predecessor/successor keys. `O(n)` over the shard's key set —
    /// audit-path only (historical absence proofs); the live path uses
    /// [`AuthenticatedShard::key_order`] instead.
    pub(crate) fn key_neighbors_at(
        &self,
        key: &Key,
        ts: Timestamp,
    ) -> (usize, Option<Key>, Option<Key>, usize) {
        let mut pos = 0usize;
        let mut total = 0usize;
        let mut pred: Option<&Key> = None;
        let mut succ: Option<&Key> = None;
        for (k, (_, created)) in self.index.iter() {
            if *created > ts {
                continue;
            }
            total += 1;
            if k < key {
                pos += 1;
                pred = Some(k);
            } else if k > key && succ.is_none() {
                succ = Some(k);
            }
        }
        (pos, pred.cloned(), succ.cloned(), total)
    }
}

/// Builds the sorted key tree over an (ascending) key iterator.
fn key_tree_of<'a>(keys: impl Iterator<Item = &'a Key>) -> MerkleTree {
    MerkleTree::from_leaves(keys.map(key_leaf_digest).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(n: usize) -> AuthenticatedShard {
        AuthenticatedShard::new(
            (0..n)
                .map(|i| (Key::new(format!("item-{i:04}")), Value::from_i64(i as i64)))
                .collect(),
        )
    }

    fn ts(c: u64) -> Timestamp {
        Timestamp::new(c, 0)
    }

    #[test]
    fn initial_roots_deterministic() {
        assert_eq!(shard(16).root(), shard(16).root());
        assert_ne!(shard(16).root(), shard(17).root());
    }

    #[test]
    fn speculative_root_matches_committed_root() {
        let mut a = shard(32);
        let mut b = shard(32);
        let writes = vec![
            (Key::new("item-0003"), Value::from_i64(333)),
            (Key::new("item-0017"), Value::from_i64(777)),
        ];
        let spec = a.speculative_root(&writes);
        // Speculation must not change the live root.
        assert_eq!(a.root(), b.root());
        b.apply_commit(ts(1), &[], &writes);
        assert_eq!(spec, b.root());
    }

    #[test]
    fn speculative_root_with_new_key() {
        let mut a = shard(8);
        let live_before = a.root();
        let writes = vec![(Key::new("new-key"), Value::from_i64(1))];
        let spec = a.speculative_root(&writes);
        assert_eq!(a.root(), live_before, "speculation must not mutate");
        let mut b = shard(8);
        b.apply_commit(ts(1), &[], &writes);
        assert_eq!(spec, b.root());
    }

    #[test]
    fn apply_commit_updates_store_and_tree() {
        let mut s = shard(8);
        let before = s.root();
        s.apply_commit(
            ts(10),
            &[Key::new("item-0001")],
            &[(Key::new("item-0002"), Value::from_i64(99))],
        );
        assert_ne!(s.root(), before);
        let item = s.read(&Key::new("item-0002")).unwrap();
        assert_eq!(item.value.as_i64(), Some(99));
        assert_eq!(item.wts, ts(10));
        assert_eq!(s.read(&Key::new("item-0001")).unwrap().rts, ts(10));
    }

    #[test]
    fn proof_latest_verifies() {
        let mut s = shard(20);
        s.apply_commit(ts(5), &[], &[(Key::new("item-0007"), Value::from_i64(70))]);
        let (value, vo) = s.proof_latest(&Key::new("item-0007")).unwrap();
        assert!(vo.verify(leaf_digest(&Key::new("item-0007"), &value), &s.value_root()));
        // The value root chains into the co-signed composite.
        assert_eq!(combine_roots(&s.value_root(), &s.key_root()), s.root());
    }

    #[test]
    fn historical_proof_verifies_against_historical_root() {
        let mut s = shard(8);
        let key = Key::new("item-0004");
        s.apply_commit(ts(10), &[], &[(key.clone(), Value::from_i64(100))]);
        let value_root_10 = s.value_root();
        let root_10 = s.root();
        s.apply_commit(ts(20), &[], &[(key.clone(), Value::from_i64(200))]);

        let (value, vo) = s.proof_at_version(&key, ts(10)).unwrap();
        assert_eq!(value.as_i64(), Some(100));
        assert!(vo.verify(leaf_digest(&key, &value), &value_root_10));
        // And the reconstruction matches the live roots recorded then —
        // both the value half and the composite.
        assert_eq!(s.tree_at_version(ts(10)).root(), value_root_10);
        assert_eq!(s.root_at_version(ts(10)), root_10);
    }

    #[test]
    fn corruption_detected_by_version_proof() {
        let mut s = shard(8);
        let key = Key::new("item-0004");
        s.apply_commit(ts(100), &[], &[(key.clone(), Value::from_i64(900))]);
        let honest_root = s.root();

        // The server silently rewrites history (paper §5 Scenario 3).
        s.store_mut()
            .corrupt_version(&key, ts(100), Value::from_i64(1000));

        let (value, vo) = s.proof_at_version(&key, ts(100)).unwrap();
        // The VO computed from the corrupted store no longer matches the
        // root that was logged at commit time.
        assert!(
            !vo.verify(
                leaf_digest(&key, &Value::from_i64(900)),
                &s.tree_at_version(ts(100)).root()
            ) || value.as_i64() != Some(900)
        );
        assert_ne!(s.tree_at_version(ts(100)).root(), honest_root);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut s = shard(64);
        assert_eq!(s.stats(), MhtUpdateStats::default());
        s.apply_commit(ts(1), &[], &[(Key::new("item-0001"), Value::from_i64(5))]);
        let st = s.stats();
        assert_eq!(st.leaf_updates, 1);
        assert_eq!(st.nodes_recomputed, 6); // log2(64)
        s.reset_stats();
        assert_eq!(s.stats(), MhtUpdateStats::default());
    }

    #[test]
    fn new_key_extends_tree() {
        let mut s = shard(4);
        let key_root_before = s.key_root();
        s.apply_commit(ts(9), &[], &[(Key::new("zzz-new"), Value::from_i64(1))]);
        assert_eq!(s.len(), 5);
        let (value, vo) = s.proof_latest(&Key::new("zzz-new")).unwrap();
        assert!(vo.verify(leaf_digest(&Key::new("zzz-new"), &value), &s.value_root()));
        // Key creation moves the key tree too.
        assert_ne!(s.key_root(), key_root_before);
        // Version reconstruction before creation excludes it.
        assert!(s.proof_at_version(&Key::new("zzz-new"), ts(5)).is_none());
        assert_eq!(s.key_tree_at_version(ts(5)).root(), key_root_before);
    }

    #[test]
    fn reads_do_not_change_root() {
        let mut s = shard(8);
        let before = s.root();
        s.apply_commit(ts(3), &[Key::new("item-0000")], &[]);
        assert_eq!(s.root(), before);
    }

    // ------------------------------------------------------------------
    // proof_at_version boundary regressions: exact-height, pre-first-
    // write (absence), and post-checkpoint-restore reconstruction. The
    // commit timestamp's client tie-breaker participates in the
    // boundary, so `ts-10.2` written state must be invisible at
    // `ts-10.1` and visible at `ts-10.2`/`ts-10.3`.
    // ------------------------------------------------------------------

    #[test]
    fn proof_at_version_exact_write_boundary() {
        let mut s = shard(8);
        let key = Key::new("item-0004");
        s.apply_commit(
            Timestamp::new(10, 2),
            &[],
            &[(key.clone(), Value::from_i64(100))],
        );
        s.apply_commit(
            Timestamp::new(20, 0),
            &[],
            &[(key.clone(), Value::from_i64(200))],
        );

        // Exactly at the write timestamp: the written value.
        let (v, vo) = s.proof_at_version(&key, Timestamp::new(10, 2)).unwrap();
        assert_eq!(v.as_i64(), Some(100));
        assert!(vo.verify(
            leaf_digest(&key, &v),
            &s.tree_at_version(Timestamp::new(10, 2)).root()
        ));
        // One client-tiebreak below: the previous value.
        let (v, _) = s.proof_at_version(&key, Timestamp::new(10, 1)).unwrap();
        assert_eq!(v.as_i64(), Some(4));
        // One above: still the ts-10.2 value.
        let (v, _) = s.proof_at_version(&key, Timestamp::new(10, 3)).unwrap();
        assert_eq!(v.as_i64(), Some(100));
    }

    #[test]
    fn proof_at_version_before_creation_is_absence() {
        let mut s = shard(4);
        let key = Key::new("zzz-new");
        s.apply_commit(
            Timestamp::new(10, 1),
            &[],
            &[(key.clone(), Value::from_i64(1))],
        );
        // Strictly before creation (including the exact-counter, lower
        // tie-break boundary): no membership proof, but a verifying
        // absence proof against the same version's key root.
        for before in [Timestamp::new(5, 0), Timestamp::new(10, 0)] {
            assert!(s.proof_at_version(&key, before).is_none(), "{before}");
            let absence = s.absence_proof_at_version(&key, before).unwrap();
            assert!(absence.verify(&key, &s.key_tree_at_version(before).root()));
        }
        // At (and after) creation: membership, no absence.
        assert!(s.proof_at_version(&key, Timestamp::new(10, 1)).is_some());
        assert!(s
            .absence_proof_at_version(&key, Timestamp::new(10, 1))
            .is_none());
    }

    #[test]
    fn proof_at_version_survives_checkpoint_restore() {
        // Version chains are restored verbatim, so historical proofs
        // keep working after a restart from a checkpoint — including at
        // the exact write boundary.
        let mut s = shard(8);
        let key = Key::new("item-0002");
        s.apply_commit(ts(10), &[], &[(key.clone(), Value::from_i64(22))]);
        s.apply_commit(ts(20), &[], &[(key.clone(), Value::from_i64(33))]);
        let value_root_10 = s.tree_at_version(ts(10)).root();
        let root_10 = s.root_at_version(ts(10));

        let restored = s.checkpoint().restore();
        let (v, vo) = restored.proof_at_version(&key, ts(10)).unwrap();
        assert_eq!(v.as_i64(), Some(22));
        assert!(vo.verify(leaf_digest(&key, &v), &value_root_10));
        assert_eq!(restored.root_at_version(ts(10)), root_10);
        assert_eq!(restored.tree_at_version(ts(10)).root(), value_root_10);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_root_and_history() {
        let mut s = shard(16);
        s.apply_commit(
            ts(10),
            &[Key::new("item-0001")],
            &[(Key::new("item-0002"), Value::from_i64(77))],
        );
        s.apply_commit(ts(20), &[], &[(Key::new("zzz-new"), Value::from_i64(5))]);
        let root_10 = s.tree_at_version(ts(10)).root();

        let restored = s.checkpoint().restore();
        assert_eq!(restored.root(), s.root());
        assert_eq!(restored.len(), s.len());
        // Latest state including timestamps.
        let item = restored.read(&Key::new("item-0002")).unwrap();
        assert_eq!(item.value.as_i64(), Some(77));
        assert_eq!(item.wts, ts(10));
        assert_eq!(restored.read(&Key::new("item-0001")).unwrap().rts, ts(10));
        // Historical reconstruction still works (full version chains).
        assert_eq!(restored.tree_at_version(ts(10)).root(), root_10);
        // And so do fresh commits on the restored shard.
        let mut a = s.clone();
        let mut b = restored;
        a.apply_commit(ts(30), &[], &[(Key::new("item-0003"), Value::from_i64(1))]);
        b.apply_commit(ts(30), &[], &[(Key::new("item-0003"), Value::from_i64(1))]);
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn checkpoint_encoding_roundtrip() {
        use fides_crypto::encoding::{Decodable, Encodable};
        let mut s = shard(8);
        s.apply_commit(ts(4), &[], &[(Key::new("item-0000"), Value::from_i64(9))]);
        let cp = s.checkpoint();
        let decoded =
            crate::checkpoint::ShardCheckpoint::decode(&cp.encode()).expect("roundtrip decodes");
        assert_eq!(decoded, cp);
        assert_eq!(decoded.restore().root(), s.root());
    }

    #[test]
    fn tree_at_version_zero_matches_initial() {
        let mut s = shard(8);
        let initial = s.root();
        s.apply_commit(ts(10), &[], &[(Key::new("item-0000"), Value::from_i64(42))]);
        assert_eq!(s.root_at_version(Timestamp::ZERO), initial);
    }
}
