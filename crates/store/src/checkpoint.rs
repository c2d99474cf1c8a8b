//! Shard checkpoints: a serializable image of an [`AuthenticatedShard`].
//!
//! A checkpoint captures everything a server needs to reconstruct its
//! authenticated datastore without replaying the whole log: every item
//! in **leaf-index order** (the order determines the Merkle tree shape)
//! with its full committed version chain, read timestamp and creation
//! timestamp. Restoring a checkpoint and asking for
//! [`AuthenticatedShard::root`] reproduces the exact root the shard had
//! when the checkpoint was taken — which is how recovery verifies a
//! snapshot against the roots co-signed in the tamper-proof log.
//!
//! The version chains are kept in full (not just the latest value) so
//! that a restored shard still answers the auditor's historical queries
//! ([`AuthenticatedShard::proof_at_version`], Lemma 2) exactly as the
//! pre-crash shard did.
//!
//! Two images of one shard taken some blocks apart differ in few items:
//! [`ShardCheckpoint::diff`] captures that difference as a
//! [`CheckpointDelta`], which [`ShardCheckpoint::apply_delta`] and
//! [`AuthenticatedShard::apply_delta`] apply in place — so a peer
//! holding the older image need not receive, decode or restore the
//! whole newer one.

use std::collections::HashSet;
use std::fmt;

use fides_crypto::encoding::{Decodable, DecodeError, Decoder, Encodable, Encoder};

use crate::authenticated::AuthenticatedShard;
use crate::types::{Key, Timestamp, Value};

/// One item's checkpointed state: identity, timestamps and the full
/// committed version chain (ascending `wts`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointItem {
    /// The item's key.
    pub key: Key,
    /// Commit timestamp at which the item was created (leaf appended).
    pub created: Timestamp,
    /// Read timestamp — the newest committed read.
    pub rts: Timestamp,
    /// Committed `(wts, value)` versions in ascending timestamp order;
    /// never empty (the last entry is the latest state).
    pub versions: Vec<(Timestamp, Value)>,
}

/// A full shard image in leaf-index order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardCheckpoint {
    /// All items, ordered by leaf index (= creation order).
    pub items: Vec<CheckpointItem>,
}

impl ShardCheckpoint {
    /// Number of checkpointed items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when the checkpoint holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Restores the shard this checkpoint was taken from.
    pub fn restore(&self) -> AuthenticatedShard {
        AuthenticatedShard::from_checkpoint(self)
    }

    /// The delta that turns this image into `later`: every item whose
    /// state changed, in place, plus the items appended after it.
    /// `None` when `later` is not an in-place extension of this image
    /// (it has fewer items, or a leaf now holds a different key); the
    /// caller then ships `later` whole.
    pub fn diff(&self, later: &ShardCheckpoint) -> Option<CheckpointDelta> {
        if later.items.len() < self.items.len() {
            return None;
        }
        let mut items = Vec::new();
        for (index, new) in later.items.iter().enumerate() {
            let base = match self.items.get(index) {
                Some(old) if old == new => continue,
                Some(old) if old.key != new.key => return None,
                Some(old) => old.versions.as_slice(),
                None => &[],
            };
            let keep = base
                .iter()
                .zip(&new.versions)
                .take_while(|(a, b)| a == b)
                .count();
            items.push(ItemDelta {
                index: index as u64,
                key: new.key.clone(),
                created: new.created,
                rts: new.rts,
                keep: keep as u64,
                versions: new.versions[keep..].to_vec(),
            });
        }
        Some(CheckpointDelta { items })
    }

    /// Applies `delta` in place. The whole delta is checked first; on
    /// error the image is unchanged.
    ///
    /// # Errors
    ///
    /// A [`DeltaError`] naming the first malformed item.
    pub fn apply_delta(&mut self, delta: &CheckpointDelta) -> Result<(), DeltaError> {
        delta.check(self)?;
        for item in &delta.items {
            match self.items.get_mut(item.index as usize) {
                Some(base) => {
                    base.created = item.created;
                    base.rts = item.rts;
                    base.versions.truncate(item.keep as usize);
                    base.versions.extend_from_slice(&item.versions);
                }
                None => self.items.push(CheckpointItem {
                    key: item.key.clone(),
                    created: item.created,
                    rts: item.rts,
                    versions: item.versions.clone(),
                }),
            }
        }
        Ok(())
    }
}

/// One changed or appended item of a [`CheckpointDelta`]: leaf `index`
/// holds `key` with the given timestamps and the version chain
/// `base[..keep] ++ versions`, where `base` is the chain the leaf held
/// in the base image (empty for an appended leaf).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemDelta {
    /// The item's leaf index.
    pub index: u64,
    /// The item's key — must match the base image's key at `index`.
    pub key: Key,
    /// Creation timestamp.
    pub created: Timestamp,
    /// Read timestamp.
    pub rts: Timestamp,
    /// Length of the base chain's unchanged prefix (0 when appended).
    pub keep: u64,
    /// The versions after the kept prefix, ascending.
    pub versions: Vec<(Timestamp, Value)>,
}

/// The difference between two images of one shard
/// ([`ShardCheckpoint::diff`]): changed items in place and appended
/// items, in ascending leaf order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointDelta {
    /// The changed and appended items, by ascending leaf index.
    pub items: Vec<ItemDelta>,
}

/// Why a [`CheckpointDelta`] does not apply to an image or shard. Every
/// variant is found before anything is changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// Item indexes are not strictly ascending.
    Unordered {
        /// The offending index.
        index: u64,
    },
    /// An appended item skips a leaf (or lies far out of range).
    IndexGap {
        /// The offending index.
        index: u64,
    },
    /// The base holds a different key at this index.
    KeyMismatch {
        /// The offending index.
        index: u64,
    },
    /// An appended item's key already exists.
    DuplicateKey {
        /// The offending index.
        index: u64,
    },
    /// `keep` exceeds the base chain (or is non-zero for an append).
    KeepPastChain {
        /// The offending index.
        index: u64,
    },
    /// The resulting chain is empty or not strictly ascending.
    BadVersions {
        /// The offending index.
        index: u64,
    },
    /// The delta reproduces a root other than the one it claims.
    RootMismatch,
    /// The delta was cut against a different image than the one held.
    BaseMismatch,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Unordered { index } => write!(f, "delta index {index} out of order"),
            DeltaError::IndexGap { index } => write!(f, "delta index {index} skips a leaf"),
            DeltaError::KeyMismatch { index } => write!(f, "delta key differs at leaf {index}"),
            DeltaError::DuplicateKey { index } => {
                write!(f, "delta appends an existing key at leaf {index}")
            }
            DeltaError::KeepPastChain { index } => {
                write!(f, "delta keeps more versions than leaf {index} holds")
            }
            DeltaError::BadVersions { index } => {
                write!(
                    f,
                    "delta leaves leaf {index} with an empty or unsorted chain"
                )
            }
            DeltaError::RootMismatch => write!(f, "delta does not reproduce its claimed root"),
            DeltaError::BaseMismatch => write!(f, "delta was cut against another image"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl CheckpointDelta {
    /// Checks that the delta applies to `base`, changing nothing.
    fn check(&self, base: &ShardCheckpoint) -> Result<(), DeltaError> {
        let appends = self
            .items
            .iter()
            .any(|item| item.index >= base.items.len() as u64);
        // Only key creation (rare) pays for the key set.
        let keys: HashSet<&Key> = if appends {
            base.items.iter().map(|item| &item.key).collect()
        } else {
            HashSet::new()
        };
        self.check_with(
            base.items.len(),
            |item| {
                base.items
                    .get(item.index as usize)
                    .filter(|b| b.key == item.key)
                    .map(|b| b.versions.as_slice())
            },
            |key| keys.contains(key),
        )
    }

    /// The shape check shared by images and shards: `base_len` leaves,
    /// `chain_at(item)` the base chain of the leaf at `item.index` if it
    /// holds `item.key`, `exists(key)` whether the base holds `key`.
    pub(crate) fn check_with<'a>(
        &self,
        base_len: usize,
        chain_at: impl Fn(&ItemDelta) -> Option<&'a [(Timestamp, Value)]>,
        exists: impl Fn(&Key) -> bool,
    ) -> Result<(), DeltaError> {
        let mut next = 0u64;
        let mut len = base_len as u64;
        let mut appended: HashSet<&Key> = HashSet::new();
        for item in &self.items {
            let index = item.index;
            if index < next {
                return Err(DeltaError::Unordered { index });
            }
            next = index.saturating_add(1);
            let kept: &[(Timestamp, Value)] = if index < base_len as u64 {
                let chain = chain_at(item).ok_or(DeltaError::KeyMismatch { index })?;
                usize::try_from(item.keep)
                    .ok()
                    .and_then(|keep| chain.get(..keep))
                    .ok_or(DeltaError::KeepPastChain { index })?
            } else if index == len {
                len += 1;
                if item.keep != 0 {
                    return Err(DeltaError::KeepPastChain { index });
                }
                if exists(&item.key) || !appended.insert(&item.key) {
                    return Err(DeltaError::DuplicateKey { index });
                }
                &[]
            } else {
                return Err(DeltaError::IndexGap { index });
            };
            let mut last = kept.last().map(|(ts, _)| *ts);
            if last.is_none() && item.versions.is_empty() {
                return Err(DeltaError::BadVersions { index });
            }
            for (ts, _) in &item.versions {
                if last.is_some_and(|prev| *ts <= prev) {
                    return Err(DeltaError::BadVersions { index });
                }
                last = Some(*ts);
            }
        }
        Ok(())
    }
}

impl Encodable for CheckpointItem {
    fn encode_into(&self, enc: &mut Encoder) {
        self.key.encode_into(enc);
        self.created.encode_into(enc);
        self.rts.encode_into(enc);
        enc.put_seq(&self.versions, |e, (wts, value)| {
            wts.encode_into(e);
            value.encode_into(e);
        });
    }
}

impl Decodable for CheckpointItem {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let key = Key::decode_from(dec)?;
        let created = Timestamp::decode_from(dec)?;
        let rts = Timestamp::decode_from(dec)?;
        let versions = dec.take_seq(|d| {
            let wts = Timestamp::decode_from(d)?;
            let value = Value::decode_from(d)?;
            Ok((wts, value))
        })?;
        if versions.is_empty() {
            return Err(DecodeError::InvalidValue("checkpoint item has no versions"));
        }
        if versions.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(DecodeError::InvalidValue(
                "checkpoint versions not strictly ascending",
            ));
        }
        Ok(CheckpointItem {
            key,
            created,
            rts,
            versions,
        })
    }
}

impl Encodable for ShardCheckpoint {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_seq(&self.items, |e, item| item.encode_into(e));
    }
}

impl Decodable for ShardCheckpoint {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ShardCheckpoint {
            items: dec.take_seq(CheckpointItem::decode_from)?,
        })
    }
}

/// Domain tag of the digest that seals an encoded [`CheckpointDelta`].
const DELTA_SEAL: &[u8] = b"fides.ckptdelta.v1";

fn delta_seal(body: &[u8]) -> fides_crypto::Digest {
    fides_crypto::sha256::Sha256::digest_parts(&[DELTA_SEAL, body])
}

/// `body ‖ H(tag ‖ body)`: a truncated or bit-flipped delta fails to
/// decode instead of applying as a different, well-formed one.
impl Encodable for CheckpointDelta {
    fn encode_into(&self, enc: &mut Encoder) {
        let mut body = Encoder::new();
        body.put_seq(&self.items, |e, item| {
            e.put_u64(item.index);
            item.key.encode_into(e);
            item.created.encode_into(e);
            item.rts.encode_into(e);
            e.put_u64(item.keep);
            e.put_seq(&item.versions, |e, (wts, value)| {
                wts.encode_into(e);
                value.encode_into(e);
            });
        });
        enc.put_bytes(body.as_bytes());
        enc.put_digest(&delta_seal(body.as_bytes()));
    }
}

impl Decodable for CheckpointDelta {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let body = dec.take_bytes()?;
        if dec.take_digest()? != delta_seal(body) {
            return Err(DecodeError::InvalidValue("checkpoint delta seal mismatch"));
        }
        let mut body = Decoder::new(body);
        let items = body.take_seq(|d| {
            Ok(ItemDelta {
                index: d.take_u64()?,
                key: Key::decode_from(d)?,
                created: Timestamp::decode_from(d)?,
                rts: Timestamp::decode_from(d)?,
                keep: d.take_u64()?,
                versions: d.take_seq(|d| {
                    let wts = Timestamp::decode_from(d)?;
                    let value = Value::decode_from(d)?;
                    Ok((wts, value))
                })?,
            })
        })?;
        body.finish()?;
        Ok(CheckpointDelta { items })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(c: u64) -> Timestamp {
        Timestamp::new(c, 0)
    }

    fn sample() -> ShardCheckpoint {
        ShardCheckpoint {
            items: vec![
                CheckpointItem {
                    key: Key::new("a"),
                    created: Timestamp::ZERO,
                    rts: ts(7),
                    versions: vec![
                        (Timestamp::ZERO, Value::from_i64(1)),
                        (ts(5), Value::from_i64(2)),
                    ],
                },
                CheckpointItem {
                    key: Key::new("b"),
                    created: ts(3),
                    rts: ts(3),
                    versions: vec![(ts(3), Value::from_i64(9))],
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let cp = sample();
        assert_eq!(ShardCheckpoint::decode(&cp.encode()).unwrap(), cp);
    }

    #[test]
    fn empty_roundtrip() {
        let cp = ShardCheckpoint::default();
        assert!(cp.is_empty());
        assert_eq!(ShardCheckpoint::decode(&cp.encode()).unwrap(), cp);
    }

    #[test]
    fn empty_version_chain_rejected() {
        let mut enc = fides_crypto::encoding::Encoder::new();
        enc.put_seq(&[()], |e, _| {
            Key::new("x").encode_into(e);
            Timestamp::ZERO.encode_into(e);
            Timestamp::ZERO.encode_into(e);
            e.put_u32(0); // zero versions
        });
        assert!(matches!(
            ShardCheckpoint::decode(enc.as_bytes()),
            Err(DecodeError::InvalidValue(_))
        ));
    }

    /// `sample()` after a write to "a", an `rts` bump on "b" and a new
    /// key "c".
    fn later() -> ShardCheckpoint {
        let mut cp = sample();
        cp.items[0].versions.push((ts(9), Value::from_i64(3)));
        cp.items[0].rts = ts(9);
        cp.items[1].rts = ts(9);
        cp.items.push(CheckpointItem {
            key: Key::new("c"),
            created: ts(9),
            rts: ts(9),
            versions: vec![(ts(9), Value::from_i64(4))],
        });
        cp
    }

    #[test]
    fn diff_then_apply_reproduces_later() {
        let (base, later) = (sample(), later());
        let delta = base.diff(&later).expect("later extends base");
        assert_eq!(delta.items.len(), 3);
        assert_eq!(delta.items[0].keep, 2);
        assert!(
            delta.items[1].versions.is_empty(),
            "rts bump ships no versions"
        );
        let mut applied = base.clone();
        applied.apply_delta(&delta).unwrap();
        assert_eq!(applied, later);
        assert!(base.diff(&base).unwrap().items.is_empty());
        // A shrunk image or a re-keyed leaf is not a delta.
        assert!(later.diff(&base).is_none());
        let mut rekeyed = sample();
        rekeyed.items[1].key = Key::new("z");
        assert!(base.diff(&rekeyed).is_none());
    }

    #[test]
    fn shard_applies_delta_in_place() {
        let (base, later) = (sample(), later());
        let delta = base.diff(&later).unwrap();
        let mut shard = base.restore();
        let wrong = shard.root();
        assert_eq!(
            shard.apply_delta(&delta, &wrong),
            Err(DeltaError::RootMismatch)
        );
        assert_eq!(
            shard.root(),
            base.restore().root(),
            "refusal changes nothing"
        );
        let want = later.restore();
        shard.apply_delta(&delta, &want.root()).unwrap();
        assert_eq!(shard.root(), want.root());
        assert_eq!(shard.checkpoint(), later);
    }

    #[test]
    fn malformed_deltas_refused_unchanged() {
        let base = sample();
        let good = base.diff(&later()).unwrap();
        type Mutation = fn(&mut CheckpointDelta);
        let cases: Vec<(Mutation, DeltaError)> = vec![
            (|d| d.items.swap(0, 1), DeltaError::Unordered { index: 0 }),
            (|d| d.items[2].index = 3, DeltaError::IndexGap { index: 3 }),
            (
                |d| d.items[0].key = Key::new("b"),
                DeltaError::KeyMismatch { index: 0 },
            ),
            (
                |d| d.items[2].key = Key::new("a"),
                DeltaError::DuplicateKey { index: 2 },
            ),
            (
                |d| d.items[1].keep = 2,
                DeltaError::KeepPastChain { index: 1 },
            ),
            (
                |d| d.items[2].keep = 1,
                DeltaError::KeepPastChain { index: 2 },
            ),
            (
                |d| d.items[0].versions[0].0 = ts(5),
                DeltaError::BadVersions { index: 0 },
            ),
            (
                |d| d.items[2].versions.clear(),
                DeltaError::BadVersions { index: 2 },
            ),
        ];
        for (mutate, want) in cases {
            let mut delta = good.clone();
            mutate(&mut delta);
            let mut image = base.clone();
            assert_eq!(image.apply_delta(&delta), Err(want));
            assert_eq!(image, base);
            let mut shard = base.restore();
            let root = later().restore().root();
            assert_eq!(shard.apply_delta(&delta, &root), Err(want));
            assert_eq!(shard.checkpoint(), base);
        }
    }

    #[test]
    fn delta_encoding_roundtrips_and_seals() {
        let delta = sample().diff(&later()).unwrap();
        let bytes = delta.encode();
        assert_eq!(CheckpointDelta::decode(&bytes).unwrap(), delta);
        for cut in 0..bytes.len() {
            assert!(CheckpointDelta::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x10;
            assert!(CheckpointDelta::decode(&flipped).is_err(), "flip {at}");
        }
    }

    #[test]
    fn unsorted_versions_rejected() {
        let mut item = sample().items.remove(0);
        item.versions.reverse();
        let cp = ShardCheckpoint { items: vec![item] };
        assert!(matches!(
            ShardCheckpoint::decode(&cp.encode()),
            Err(DecodeError::InvalidValue(_))
        ));
    }
}
