//! The repair plane: verified anti-entropy state transfer.
//!
//! Fides' protocol machinery assumed a fixed fleet at uniform height —
//! every server starts together, stays in lock-step, and a server that
//! restarts short was permanently excluded (the PR 2 limitation). This
//! module removes that assumption. A lagging or freshly-restarted
//! server:
//!
//! 1. **detects its gap** — from decision traffic arriving ahead of its
//!    log tip, or from `RepairQuery`/`RepairInfo` gossip at startup;
//! 2. **fetches missing decision blocks** from a peer in chunks, or —
//!    when every reachable peer has pruned its history below the
//!    restart height — a **checkpoint of its own shard** that peers
//!    mirrored before pruning, plus the log suffix above it;
//! 3. **re-verifies everything before applying a single byte**
//!    ([`verify_transfer`]): the transferred blocks must chain from a
//!    trusted anchor (the server's own verified tip hash, or the
//!    checkpoint's recorded tip hash which the first co-signed block's
//!    `prev_hash` must reproduce), every collective signature is
//!    checked with the batched fast path
//!    ([`fides_crypto::cosi::verify_batch`] via
//!    [`fides_ledger::validate::validate_transfer`]), and the replayed
//!    shard is cross-checked against the per-shard Merkle roots
//!    co-signed inside the blocks;
//! 4. **rejoins live rounds** — buffered decisions apply through the
//!    existing catch-up loop and the server's involved votes flip back
//!    from abort to commit.
//!
//! Byzantine discipline: a peer serving garbage cannot make the
//! repairer apply it — verification fails, the attempt is recorded as
//! [`RepairEvidence`] against the serving peer (surfaced in the audit
//! report), and the repairer retries with another peer. Conversely a
//! *repairing* server is lagging, not faulty: the auditor treats it as
//! such until the configured grace deadline.

use core::fmt;
use std::sync::Arc;
use std::time::Instant;

use fides_crypto::schnorr::PublicKey;
use fides_crypto::Digest;
use fides_durability::ShardSnapshot;
use fides_ledger::block::{Block, Decision};
use fides_ledger::validate::{validate_transfer, TransferFault};
use fides_store::authenticated::AuthenticatedShard;
use fides_store::types::Timestamp;

use crate::messages::CommitProtocol;
use crate::partition::Partitioner;
use crate::recovery::replay_block;
use crate::server::MirrorReadState;

/// Why a transfer from a peer was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairFault {
    /// The transferred blocks fail chain/signature verification
    /// (tampered suffix, or a suffix that does not anchor to the
    /// trusted base).
    Transfer(TransferFault),
    /// The blocks verify, but replaying them leaves the shard with a
    /// Merkle root different from the one co-signed at this height —
    /// the transferred *checkpoint* carried forged data.
    RootMismatch {
        /// The first block whose co-signed root the replay missed.
        height: u64,
    },
    /// The transferred checkpoint fails its internal verification (its
    /// payload does not reproduce its recorded root).
    BadCheckpoint,
    /// The transferred blocks are correctly co-signed but do not link
    /// to the verification **base** — the base itself (a provisionally
    /// adopted local snapshot, or a transferred checkpoint's tip hash)
    /// is what disagrees with the signed chain. For an extension
    /// transfer this is *not* the serving peer's fault and must not
    /// produce evidence against it.
    BaseMismatch {
        /// The base height whose anchor the co-signed chain refutes.
        height: u64,
    },
}

impl fmt::Display for RepairFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairFault::Transfer(fault) => write!(f, "{fault}"),
            RepairFault::RootMismatch { height } => write!(
                f,
                "replayed shard root at block {height} does not match the co-signed root"
            ),
            RepairFault::BadCheckpoint => {
                write!(f, "transferred checkpoint fails its root verification")
            }
            RepairFault::BaseMismatch { height } => write!(
                f,
                "co-signed chain refutes the transfer base at height {height}"
            ),
        }
    }
}

/// One refuted transfer attempt: which peer served garbage, and what
/// the verification caught. Collected by the repairing server and
/// folded into the audit report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairEvidence {
    /// The peer that served the refused payload.
    pub peer: u32,
    /// What the verification caught.
    pub fault: RepairFault,
}

impl fmt::Display for RepairEvidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "peer {} served a refused transfer: {}",
            self.peer, self.fault
        )
    }
}

/// The repairing-server state shared with the harness and auditor.
#[derive(Debug, Default)]
pub struct RepairShared {
    /// `true` from gap detection until the verified install completes.
    pub repairing: bool,
    /// When the current repair began (for the audit grace deadline).
    pub since: Option<Instant>,
    /// Completed verified repairs over this server's lifetime.
    pub completions: u64,
    /// Refuted transfer attempts (Byzantine peers), in detection order.
    pub evidence: Vec<RepairEvidence>,
    /// Peers' checkpoints mirrored here (origin → newest mirror) —
    /// served back to an origin that lost its disk, and to readers of
    /// the origin's shard.
    pub mirrors: std::collections::HashMap<u32, MirrorEntry>,
}

/// One peer's checkpoint held here. The image is shared: this entry,
/// the durability pipeline and repair responses hold the same `Arc`. A
/// whole image replaces the entry; a mirror delta updates image and
/// serving state in place through `Arc::make_mut`, which copies first
/// whatever another holder (the WAL writer, a read in flight) still
/// shares — so a read keeps exactly one co-signed root.
#[derive(Debug)]
pub struct MirrorEntry {
    /// The origin's checkpoint image.
    pub snapshot: Arc<ShardSnapshot>,
    /// The serving state built from the shard that the receipt check
    /// restored. `None` only for a mirror reloaded from disk at
    /// restart, until its first read or delta restores it.
    pub(crate) reads: Option<Arc<MirrorReadState>>,
}

/// The outcome of a verified transfer: state ready to install.
#[derive(Debug)]
pub struct VerifiedTransfer {
    /// The shard with the transferred blocks replayed (on top of the
    /// transferred checkpoint when one was used).
    pub shard: AuthenticatedShard,
    /// Highest committed transaction timestamp in the verified state.
    pub last_committed: Timestamp,
}

/// The trusted anchor a transfer verifies against: the state at
/// `height` plus the hash the first transferred block must link to —
/// the receiving server's own verified tip for an extension transfer,
/// the restored checkpoint for a bootstrap transfer.
#[derive(Debug)]
pub struct TransferBase {
    /// Height the transferred run starts at.
    pub height: u64,
    /// The hash the first transferred block's `prev_hash` must equal.
    pub tip: Digest,
    /// The trusted shard state at `height` (consumed and replayed).
    pub shard: AuthenticatedShard,
    /// Highest committed transaction timestamp at `height`.
    pub last_committed: Timestamp,
}

/// Verifies a transferred block range end to end — chain anchoring,
/// batched collective signatures, and shard-root cross-checks — without
/// touching any live server state.
///
/// The root cross-check is what refutes a forged checkpoint that is
/// *internally* consistent: its data cannot reproduce the co-signed
/// per-shard root at the first commit block that touches this shard.
///
/// # Errors
///
/// A [`RepairFault`] naming what the verification caught; the caller
/// records it as evidence against the serving peer and retries
/// elsewhere.
pub fn verify_transfer(
    idx: u32,
    partitioner: &Partitioner,
    server_pks: &[PublicKey],
    protocol: CommitProtocol,
    base: TransferBase,
    blocks: &[Block],
) -> Result<VerifiedTransfer, RepairFault> {
    let verify_cosign = protocol == CommitProtocol::TfCommit;
    if let Err(fault) = validate_transfer(
        base.height,
        base.tip,
        blocks.to_vec(),
        server_pks,
        verify_cosign,
    ) {
        // Attribution: a first block that fails to *link* but carries a
        // valid collective signature proves the base anchor wrong, not
        // the transfer — the signatures decide who is lying.
        if let TransferFault::Structure(fides_ledger::log::LogError::BrokenLink) = fault {
            if let Some(first) = blocks.first() {
                if first.height == base.height
                    && (!verify_cosign || first.cosign.verify(&first.signing_bytes(), server_pks))
                {
                    return Err(RepairFault::BaseMismatch {
                        height: base.height,
                    });
                }
            }
        }
        return Err(RepairFault::Transfer(fault));
    }

    let mut shard = base.shard;
    let mut last_committed = base.last_committed;
    for block in blocks {
        if block.decision != Decision::Commit {
            continue;
        }
        replay_block(&mut shard, block, partitioner, idx, protocol);
        if let Some(ts) = block.max_txn_ts() {
            if ts > last_committed {
                last_committed = ts;
            }
        }
        if let Some(signed_root) = block.root_of(idx) {
            if shard.root() != signed_root {
                return Err(RepairFault::RootMismatch {
                    height: block.height,
                });
            }
        }
    }

    Ok(VerifiedTransfer {
        shard,
        last_committed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_crypto::cosi::{self, Witness};
    use fides_crypto::schnorr::KeyPair;
    use fides_ledger::block::{BlockBuilder, ShardRoot, TxnRecord};
    use fides_ledger::log::TamperProofLog;
    use fides_store::rwset::WriteEntry;
    use fides_store::types::{Key, Value};

    fn keys(n: u8) -> Vec<KeyPair> {
        (0..n).map(|i| KeyPair::from_seed(&[i, 0x77])).collect()
    }

    fn pks(keys: &[KeyPair]) -> Vec<PublicKey> {
        keys.iter().map(|k| k.public_key()).collect()
    }

    /// A co-signed chain of single-write commit blocks against one
    /// shard, with the correct speculative roots recorded.
    fn signed_history(
        n: u64,
        keys: &[KeyPair],
        shard: &mut AuthenticatedShard,
        partitioner: &Partitioner,
    ) -> Vec<Block> {
        let mut log = TamperProofLog::new();
        for h in 0..n {
            let key = Key::new("item-0");
            let value = Value::from_i64(100 + h as i64);
            let ts = Timestamp::new(h + 1, 0);
            let txn = TxnRecord {
                id: ts,
                read_set: vec![],
                write_set: vec![WriteEntry {
                    key: key.clone(),
                    new_value: value.clone(),
                    old_value: None,
                    rts: Timestamp::ZERO,
                    wts: Timestamp::ZERO,
                }],
            };
            let root = shard.speculative_root(&[(key.clone(), value.clone())]);
            let unsigned = BlockBuilder::new(h, log.tip_hash())
                .txn(txn)
                .decision(Decision::Commit)
                .root(ShardRoot { server: 0, root })
                .build_unsigned();
            let record = unsigned.signing_bytes();
            let witnesses: Vec<Witness> = keys
                .iter()
                .map(|k| Witness::commit(k, &h.to_be_bytes(), &record))
                .collect();
            let agg = cosi::aggregate_commitments(witnesses.iter().map(|w| w.commitment()));
            let c = cosi::challenge(&agg, &record);
            let sig =
                cosi::CollectiveSignature::assemble(agg, witnesses.iter().map(|w| w.respond(&c)));
            let block = Block {
                cosign: sig,
                ..unsigned
            };
            replay_block(shard, &block, partitioner, 0, CommitProtocol::TfCommit);
            log.append(block).unwrap();
        }
        log.to_blocks()
    }

    #[test]
    fn honest_transfer_verifies_and_replays() {
        let ks = keys(3);
        let partitioner = Partitioner::from_assignments(1, [(Key::new("item-0"), 0)]);
        let base = AuthenticatedShard::new(vec![(Key::new("item-0"), Value::from_i64(100))]);
        let mut evolving = base.clone();
        let blocks = signed_history(4, &ks, &mut evolving, &partitioner);

        let verified = verify_transfer(
            0,
            &partitioner,
            &pks(&ks),
            CommitProtocol::TfCommit,
            TransferBase {
                height: 0,
                tip: Digest::ZERO,
                shard: base,
                last_committed: Timestamp::ZERO,
            },
            &blocks,
        )
        .unwrap();
        assert_eq!(verified.shard.root(), evolving.root());
        assert_eq!(verified.last_committed, Timestamp::new(4, 0));
    }

    #[test]
    fn honest_blocks_against_forged_anchor_blame_the_base_not_the_peer() {
        // Correctly co-signed blocks that fail to link to the anchor
        // prove the *anchor* wrong (a forged provisionally-adopted
        // snapshot tip): the fault must be `BaseMismatch`, never a
        // transfer fault attributable to the serving peer.
        let ks = keys(3);
        let partitioner = Partitioner::from_assignments(1, [(Key::new("item-0"), 0)]);
        let base = AuthenticatedShard::new(vec![(Key::new("item-0"), Value::from_i64(100))]);
        let mut evolving = base.clone();
        let blocks = signed_history(4, &ks, &mut evolving, &partitioner);

        let err = verify_transfer(
            0,
            &partitioner,
            &pks(&ks),
            CommitProtocol::TfCommit,
            TransferBase {
                height: 0,
                tip: Digest::new([0xBA; 32]), // forged anchor
                shard: base,
                last_committed: Timestamp::ZERO,
            },
            &blocks,
        )
        .unwrap_err();
        assert_eq!(err, RepairFault::BaseMismatch { height: 0 });
    }

    #[test]
    fn forged_base_state_caught_by_root_cross_check() {
        // The transferred blocks are genuine, but the "checkpoint" the
        // repairer was handed contains forged data on a key the suffix
        // never overwrites: the first co-signed root it replays toward
        // cannot be reproduced. (A forgery confined to already
        // overwritten versions is invisible to current-state roots — by
        // design, roots authenticate the live shard.)
        let ks = keys(3);
        let partitioner =
            Partitioner::from_assignments(1, [(Key::new("item-0"), 0), (Key::new("item-1"), 0)]);
        let population = vec![
            (Key::new("item-0"), Value::from_i64(100)),
            (Key::new("item-1"), Value::from_i64(200)),
        ];
        let base = AuthenticatedShard::new(population.clone());
        let mut evolving = base.clone();
        let blocks = signed_history(4, &ks, &mut evolving, &partitioner);

        let mut forged_population = population;
        forged_population[1].1 = Value::from_i64(666);
        let forged = AuthenticatedShard::new(forged_population);
        let err = verify_transfer(
            0,
            &partitioner,
            &pks(&ks),
            CommitProtocol::TfCommit,
            TransferBase {
                height: 0,
                tip: Digest::ZERO,
                shard: forged,
                last_committed: Timestamp::ZERO,
            },
            &blocks,
        )
        .unwrap_err();
        assert_eq!(err, RepairFault::RootMismatch { height: 0 });
    }

    #[test]
    fn tampered_suffix_refused_before_any_replay() {
        let ks = keys(3);
        let partitioner = Partitioner::from_assignments(1, [(Key::new("item-0"), 0)]);
        let base = AuthenticatedShard::new(vec![(Key::new("item-0"), Value::from_i64(100))]);
        let mut evolving = base.clone();
        let mut blocks = signed_history(4, &ks, &mut evolving, &partitioner);
        blocks[2].decision = Decision::Abort;
        for i in 3..blocks.len() {
            blocks[i].prev_hash = blocks[i - 1].hash();
        }

        let err = verify_transfer(
            0,
            &partitioner,
            &pks(&ks),
            CommitProtocol::TfCommit,
            TransferBase {
                height: 0,
                tip: Digest::ZERO,
                shard: base,
                last_committed: Timestamp::ZERO,
            },
            &blocks,
        )
        .unwrap_err();
        assert!(matches!(err, RepairFault::Transfer(_)), "{err}");
    }
}
