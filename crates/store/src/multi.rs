//! Multi-versioned store: every committed transaction creates a new
//! version of the items it wrote, while older versions remain readable
//! (paper §4.2.1: "multi-versioned data can provide recoverability. If a
//! failure occurs, the data can be reset to the last sanitized version").

use std::collections::BTreeMap;

use crate::types::{ItemState, Key, Timestamp, Value};

/// The version history of one item: committed `(wts, value)` pairs in
/// timestamp order, plus the current read timestamp.
#[derive(Clone, Debug, Default)]
struct VersionChain {
    /// `(commit timestamp, value)` in strictly increasing ts order.
    versions: Vec<(Timestamp, Value)>,
    rts: Timestamp,
}

/// A multi-versioned key-value shard.
///
/// # Example
///
/// ```
/// use fides_store::{Key, MultiVersionStore, Timestamp, Value};
///
/// let mut store = MultiVersionStore::new();
/// store.load(Key::new("x"), Value::from_i64(1000));
/// store.commit_write(&Key::new("x"), Value::from_i64(900), Timestamp::new(100, 0));
///
/// // Latest state:
/// assert_eq!(store.get(&Key::new("x")).unwrap().value.as_i64(), Some(900));
/// // Historical state at ts-50:
/// let old = store.value_at(&Key::new("x"), Timestamp::new(50, 0)).unwrap();
/// assert_eq!(old.as_i64(), Some(1000));
/// ```
#[derive(Clone, Debug, Default)]
pub struct MultiVersionStore {
    items: BTreeMap<Key, VersionChain>,
}

impl MultiVersionStore {
    /// Creates an empty shard.
    pub fn new() -> Self {
        MultiVersionStore {
            items: BTreeMap::new(),
        }
    }

    /// Loads an item with an initial version at [`Timestamp::ZERO`].
    pub fn load(&mut self, key: Key, value: Value) {
        self.items.insert(
            key,
            VersionChain {
                versions: vec![(Timestamp::ZERO, value)],
                rts: Timestamp::ZERO,
            },
        );
    }

    /// Returns the *latest* state of `key` (value of the newest version
    /// plus current timestamps), if present.
    pub fn get(&self, key: &Key) -> Option<ItemState> {
        let chain = self.items.get(key)?;
        let (wts, value) = chain.versions.last()?;
        Some(ItemState {
            value: value.clone(),
            rts: chain.rts,
            wts: *wts,
        })
    }

    /// The value visible at version `ts`: the newest version with
    /// `wts ≤ ts` (the audit-time reconstruction of §4.2.2).
    pub fn value_at(&self, key: &Key, ts: Timestamp) -> Option<Value> {
        let chain = self.items.get(key)?;
        chain
            .versions
            .iter()
            .rev()
            .find(|(wts, _)| *wts <= ts)
            .map(|(_, v)| v.clone())
    }

    /// Returns `true` if the shard stores `key`.
    pub fn contains(&self, key: &Key) -> bool {
        self.items.contains_key(key)
    }

    /// Number of items (not versions).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the shard is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of committed versions of `key` (including the loaded one).
    pub fn version_count(&self, key: &Key) -> usize {
        self.items.get(key).map_or(0, |c| c.versions.len())
    }

    /// Records a committed read at `ts` (advances `rts`).
    pub fn commit_read(&mut self, key: &Key, ts: Timestamp) {
        if let Some(chain) = self.items.get_mut(key) {
            if ts > chain.rts {
                chain.rts = ts;
            }
        }
    }

    /// Applies a committed write at `ts`: appends a new version (or
    /// replaces it if a version at exactly `ts` exists, which happens
    /// only when a transaction writes the same key twice).
    pub fn commit_write(&mut self, key: &Key, value: Value, ts: Timestamp) {
        let chain = self.items.entry(key.clone()).or_default();
        match chain.versions.last_mut() {
            Some((last_ts, last_val)) if *last_ts == ts => *last_val = value,
            Some((last_ts, _)) if *last_ts > ts => {
                // Out-of-order write: insert at the right position to keep
                // the chain sorted (can occur with concurrent clients).
                let pos = chain.versions.partition_point(|(wts, _)| *wts <= ts);
                chain.versions.insert(pos, (ts, value));
            }
            _ => chain.versions.push((ts, value)),
        }
        if ts > chain.rts {
            chain.rts = ts;
        }
    }

    /// Discards every version newer than `ts` — the paper's recovery
    /// path: "the data can be reset to the last sanitized version and the
    /// application can resume execution from there".
    pub fn rollback_to(&mut self, ts: Timestamp) {
        for chain in self.items.values_mut() {
            chain.versions.retain(|(wts, _)| *wts <= ts);
            if chain.rts > ts {
                chain.rts = ts;
            }
        }
        self.items.retain(|_, chain| !chain.versions.is_empty());
    }

    /// Exports `key`'s full committed state for checkpointing: the
    /// version chain (ascending `wts`) and the current read timestamp.
    pub fn export_chain(&self, key: &Key) -> Option<(Vec<(Timestamp, Value)>, Timestamp)> {
        self.items
            .get(key)
            .map(|chain| (chain.versions.clone(), chain.rts))
    }

    /// Restores a checkpointed version chain verbatim, replacing any
    /// existing state for `key`. `versions` must be non-empty and in
    /// ascending timestamp order (as produced by
    /// [`MultiVersionStore::export_chain`]).
    pub fn restore_chain(&mut self, key: Key, versions: Vec<(Timestamp, Value)>, rts: Timestamp) {
        debug_assert!(!versions.is_empty(), "restored chain must be non-empty");
        debug_assert!(versions.windows(2).all(|w| w[0].0 < w[1].0));
        self.items.insert(key, VersionChain { versions, rts });
    }

    /// `key`'s committed versions, ascending (checkpoint-delta checks).
    pub(crate) fn chain(&self, key: &Key) -> Option<&[(Timestamp, Value)]> {
        self.items.get(key).map(|chain| chain.versions.as_slice())
    }

    /// Keeps the first `keep` versions of `key`'s chain, appends
    /// `versions` and sets `rts` — a checkpoint delta applied in place.
    /// The caller has checked that the result stays ascending.
    pub(crate) fn splice_chain(
        &mut self,
        key: &Key,
        keep: usize,
        versions: &[(Timestamp, Value)],
        rts: Timestamp,
    ) {
        let chain = self.items.entry(key.clone()).or_default();
        chain.versions.truncate(keep);
        chain.versions.extend_from_slice(versions);
        chain.rts = rts;
    }

    /// Iterates over `(key, latest state)` in key order.
    pub fn iter_latest(&self) -> impl Iterator<Item = (&Key, ItemState)> {
        self.items.iter().filter_map(|(k, chain)| {
            let (wts, value) = chain.versions.last()?;
            Some((
                k,
                ItemState {
                    value: value.clone(),
                    rts: chain.rts,
                    wts: *wts,
                },
            ))
        })
    }

    /// All keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.items.keys()
    }

    /// Overwrites the value of the version visible at `ts` *without*
    /// creating a new version — models datastore corruption (paper §5,
    /// Scenario 3). Fault-injection only.
    #[doc(hidden)]
    pub fn corrupt_version(&mut self, key: &Key, ts: Timestamp, value: Value) -> bool {
        if let Some(chain) = self.items.get_mut(key) {
            if let Some(entry) = chain.versions.iter_mut().rev().find(|(wts, _)| *wts <= ts) {
                entry.1 = value;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn ts(c: u64) -> Timestamp {
        Timestamp::new(c, 0)
    }

    #[test]
    fn versions_accumulate() {
        let mut s = MultiVersionStore::new();
        s.load(k("x"), Value::from_i64(1));
        s.commit_write(&k("x"), Value::from_i64(2), ts(10));
        s.commit_write(&k("x"), Value::from_i64(3), ts(20));
        assert_eq!(s.version_count(&k("x")), 3);
        assert_eq!(s.get(&k("x")).unwrap().value.as_i64(), Some(3));
    }

    #[test]
    fn value_at_selects_correct_version() {
        let mut s = MultiVersionStore::new();
        s.load(k("x"), Value::from_i64(1));
        s.commit_write(&k("x"), Value::from_i64(2), ts(10));
        s.commit_write(&k("x"), Value::from_i64(3), ts(20));
        assert_eq!(s.value_at(&k("x"), ts(5)).unwrap().as_i64(), Some(1));
        assert_eq!(s.value_at(&k("x"), ts(10)).unwrap().as_i64(), Some(2));
        assert_eq!(s.value_at(&k("x"), ts(15)).unwrap().as_i64(), Some(2));
        assert_eq!(s.value_at(&k("x"), ts(99)).unwrap().as_i64(), Some(3));
    }

    #[test]
    fn rollback_discards_newer_versions() {
        let mut s = MultiVersionStore::new();
        s.load(k("x"), Value::from_i64(1));
        s.commit_write(&k("x"), Value::from_i64(2), ts(10));
        s.commit_write(&k("x"), Value::from_i64(3), ts(20));
        s.rollback_to(ts(10));
        assert_eq!(s.version_count(&k("x")), 2);
        assert_eq!(s.get(&k("x")).unwrap().value.as_i64(), Some(2));
        assert!(s.get(&k("x")).unwrap().rts <= ts(10));
    }

    #[test]
    fn rollback_drops_items_created_later() {
        let mut s = MultiVersionStore::new();
        s.commit_write(&k("y"), Value::from_i64(5), ts(50));
        s.rollback_to(ts(10));
        assert!(!s.contains(&k("y")));
    }

    #[test]
    fn out_of_order_write_keeps_chain_sorted() {
        let mut s = MultiVersionStore::new();
        s.load(k("x"), Value::from_i64(1));
        s.commit_write(&k("x"), Value::from_i64(3), ts(30));
        s.commit_write(&k("x"), Value::from_i64(2), ts(20));
        assert_eq!(s.value_at(&k("x"), ts(20)).unwrap().as_i64(), Some(2));
        assert_eq!(s.value_at(&k("x"), ts(30)).unwrap().as_i64(), Some(3));
        assert_eq!(s.get(&k("x")).unwrap().value.as_i64(), Some(3));
    }

    #[test]
    fn same_ts_write_replaces() {
        let mut s = MultiVersionStore::new();
        s.load(k("x"), Value::from_i64(1));
        s.commit_write(&k("x"), Value::from_i64(2), ts(10));
        s.commit_write(&k("x"), Value::from_i64(7), ts(10));
        assert_eq!(s.version_count(&k("x")), 2);
        assert_eq!(s.value_at(&k("x"), ts(10)).unwrap().as_i64(), Some(7));
    }

    #[test]
    fn corruption_rewrites_history_silently() {
        let mut s = MultiVersionStore::new();
        s.load(k("x"), Value::from_i64(1000));
        s.commit_write(&k("x"), Value::from_i64(900), ts(100));
        assert!(s.corrupt_version(&k("x"), ts(100), Value::from_i64(1000)));
        // Version count unchanged: the tampering is silent.
        assert_eq!(s.version_count(&k("x")), 2);
        assert_eq!(s.value_at(&k("x"), ts(100)).unwrap().as_i64(), Some(1000));
    }

    #[test]
    fn commit_read_advances_rts() {
        let mut s = MultiVersionStore::new();
        s.load(k("x"), Value::from_i64(1));
        s.commit_read(&k("x"), ts(42));
        assert_eq!(s.get(&k("x")).unwrap().rts, ts(42));
    }

    #[test]
    fn value_before_first_version_of_unloaded_item() {
        let mut s = MultiVersionStore::new();
        s.commit_write(&k("x"), Value::from_i64(9), ts(10));
        // At ts 5 the item did not exist yet.
        assert!(s.value_at(&k("x"), ts(5)).is_none());
    }
}
