//! Protocol messages.
//!
//! Every message travels inside a signed [`fides_net::Envelope`]; this
//! module defines the payloads and their canonical encodings. The
//! TFCommit phases (paper Figure 7) map to message pairs:
//!
//! | phase | message |
//! |-------|---------|
//! | `<GetVote, SchAnnouncement>` | [`Message::GetVote`] |
//! | `<Vote, SchCommitment>`      | [`Message::Vote`] |
//! | `<null, SchChallenge>`       | [`Message::Challenge`] |
//! | `<null, SchResponse>`        | [`Message::Response`] |
//! | `<Decision, null>`           | [`Message::Decision`] |
//!
//! The 2PC baseline (§6.1) uses the `TwoPc*` variants.

use core::fmt;
use std::sync::Arc;

use fides_crypto::cosi;
use fides_crypto::encoding::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use fides_crypto::scalar::Scalar;
use fides_durability::{ShardSnapshot, SnapshotDelta};
use fides_ledger::block::{Block, BlockHeader, TxnRecord};
use fides_store::proofs::ShardReadProof;
use fides_store::types::{Key, Timestamp, Value};

/// Which atomic commitment protocol a cluster runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CommitProtocol {
    /// TrustFree Commit — 2PC fused with CoSi (the paper's contribution).
    #[default]
    TfCommit,
    /// Plain trusted Two-Phase Commit (the §6.1 baseline).
    TwoPhaseCommit,
}

impl fmt::Display for CommitProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitProtocol::TfCommit => write!(f, "TFCommit"),
            CommitProtocol::TwoPhaseCommit => write!(f, "2PC"),
        }
    }
}

/// Client-side provisional transaction identity, used to correlate
/// execution-phase messages before the commit timestamp is assigned.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TxnHandle {
    /// The issuing client's id.
    pub client: u32,
    /// Client-local sequence number.
    pub seq: u64,
}

impl fmt::Display for TxnHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn-c{}-{}", self.client, self.seq)
    }
}

/// The partially-filled block broadcast in the `<GetVote>` phase:
/// commit timestamps, read/write sets and the previous-block hash
/// (Figure 7, leftmost block state).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialBlock {
    /// Chain position the block will occupy.
    pub height: u64,
    /// The batched transactions (sorted by commit timestamp).
    pub txns: Vec<TxnRecord>,
    /// Hash of the previous block.
    pub prev_hash: fides_crypto::Digest,
}

/// A cohort's involvement-specific vote contents (only sent by cohorts
/// whose shard is accessed by the block, §4.3.1 phase 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvolvedVote {
    /// `true` → commit, `false` → abort.
    pub commit: bool,
    /// The speculative Merkle root (present iff `commit`).
    pub root: Option<fides_crypto::Digest>,
    /// Ids of transactions that failed local validation (abort votes).
    pub failed: Vec<Timestamp>,
}

/// Why a cohort refused to produce a Schnorr response in phase 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// A commit block is missing roots of involved servers.
    MissingRoots,
    /// The cohort's own root in the block differs from what it sent.
    RootMismatch,
    /// The coordinator's challenge does not hash to `H(X ‖ block)`.
    BadChallenge,
    /// An abort block carries a full root set (or other decision
    /// inconsistency).
    DecisionInconsistent,
    /// The round targets a height this cohort's log already holds — a
    /// stale (e.g. restarted-short) or equivocating coordinator trying
    /// to co-sign a second block at an occupied height. Refusing keeps
    /// an honest cohort from ever signing a fork.
    StaleHeight,
    /// The challenge came from a node that is not the leader
    /// ([`crate::server::COORDINATOR_IDX`]). Answering it would use up
    /// the CoSi witness the leader's real challenge needs.
    WrongLeader,
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::MissingRoots => write!(f, "commit block is missing involved roots"),
            Refusal::RootMismatch => write!(f, "own root was replaced in the block"),
            Refusal::BadChallenge => write!(f, "challenge does not match H(X || block)"),
            Refusal::DecisionInconsistent => write!(f, "decision inconsistent with roots"),
            Refusal::StaleHeight => write!(f, "round height already occupied in this log"),
            Refusal::WrongLeader => write!(f, "challenge from a node that is not the leader"),
        }
    }
}

/// A protocol message (the payload of a signed envelope).
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    // ------------------------------------------------------------------
    // Transaction execution (client ↔ server), Figure 5 steps 1–3. Step
    // 1 (begin) is implicit in a transaction's first request.
    // ------------------------------------------------------------------
    /// Step 2: a batched read — every key this transaction needs from
    /// one server, in one signed message — the execution layer's
    /// counterpart of block batching (one signature amortized over the
    /// whole per-server key set).
    ReadMany { txn: TxnHandle, keys: Vec<Key> },
    /// Step 3: response to [`Message::ReadMany`]: per key, the item
    /// state or `None` for an unknown key.
    ReadManyResp {
        txn: TxnHandle,
        items: Vec<ReadManyItem>,
    },
    /// Step 2: a blind write, sent for its pre-image; the written value
    /// stays with the client until its end-transaction request.
    Write {
        txn: TxnHandle,
        key: Key,
        value: Value,
    },
    /// Step 3: write acknowledgement; carries the pre-image and
    /// timestamps for blind writes (§4.2.1).
    WriteAck {
        txn: TxnHandle,
        key: Key,
        /// `(old value, rts, wts)` — `None` when the key is unknown to
        /// this server (a fresh insert).
        old: Option<(Value, Timestamp, Timestamp)>,
    },

    // ------------------------------------------------------------------
    // Termination (client → coordinator), Figure 5 step 4.
    // ------------------------------------------------------------------
    /// `end_transaction(Tid, ts, Rset-Wset)` — the signed client request
    /// the coordinator encapsulates into the block.
    EndTxn {
        handle: TxnHandle,
        record: TxnRecord,
    },
    /// The coordinator refused the request (stale timestamp); the client
    /// should retry with a timestamp above `hint`.
    EndTxnRejected { handle: TxnHandle, hint: Timestamp },
    /// Final outcome: the signed block containing the client's
    /// transaction(s) — one message resolves **every** commit this
    /// client had in the block, so the coordinator signs (and the
    /// client verifies) the multi-kilobyte block once per client
    /// instead of once per transaction. The client verifies the
    /// collective signature before accepting (§4.3.1 phase 5).
    Outcome {
        handles: Vec<TxnHandle>,
        block: Block,
    },

    // ------------------------------------------------------------------
    // TFCommit (coordinator ↔ cohorts), §4.3.1.
    // ------------------------------------------------------------------
    /// Phase 1 `<GetVote, SchAnnouncement>`.
    GetVote { partial: PartialBlock },
    /// Phase 2 `<Vote, SchCommitment>`.
    Vote {
        height: u64,
        commitment: cosi::Commitment,
        involved: Option<InvolvedVote>,
    },
    /// Phase 3 `<null, SchChallenge>`: the filled (unsigned) block, the
    /// aggregate commitment `X` and the challenge `ch = H(X ‖ block)`.
    Challenge {
        block: Block,
        aggregate: cosi::Commitment,
        challenge: Scalar,
    },
    /// Phase 4 `<null, SchResponse>`.
    Response {
        height: u64,
        result: Result<cosi::Response, Refusal>,
    },
    /// Phase 5 `<Decision, null>`: the finalized, collectively signed
    /// block.
    Decision { block: Block },

    // ------------------------------------------------------------------
    // Two-Phase Commit baseline (§6.1).
    // ------------------------------------------------------------------
    /// 2PC vote request with the proposed block.
    TwoPcGetVote { partial: PartialBlock },
    /// 2PC vote.
    TwoPcVote {
        height: u64,
        commit: bool,
        failed: Vec<Timestamp>,
    },
    /// 2PC decision broadcast.
    TwoPcDecision { block: Block },

    // ------------------------------------------------------------------
    // Repair plane (anti-entropy state transfer, server ↔ server).
    //
    // A lagging or freshly-restarted server detects its gap, fetches
    // missing decision blocks — or a checkpoint + log suffix when peers
    // have pruned — and re-verifies everything (batched collective
    // signatures, hash-chain anchoring, shard-root cross-checks) before
    // applying a single byte. A peer serving garbage is refuted and
    // reported as audit evidence.
    // ------------------------------------------------------------------
    /// "Where are you?" — carries the sender's own tip so the exchange
    /// doubles as gossip: a peer that is itself behind learns it here.
    RepairQuery {
        /// The sender's next log height.
        next_height: u64,
    },
    /// Answer to [`Message::RepairQuery`].
    RepairInfo {
        /// The responder's next log height (its tip).
        next_height: u64,
        /// The responder's tip hash — lets a server that provisionally
        /// adopted a snapshot ahead of its torn WAL confirm the
        /// adoption against a peer at the same height.
        tip_hash: fides_crypto::Digest,
        /// Lowest height the responder can serve blocks from (its
        /// in-memory log base; lower if its archive reaches further).
        base_height: u64,
        /// Height of the checkpoint mirror the responder holds for the
        /// *requester*, if any — the bulk-transfer fallback.
        mirror_height: Option<u64>,
    },
    /// Fetch up to `max` decision blocks starting at height `from`.
    RepairRequest {
        /// First height wanted.
        from: u64,
        /// Chunk-size cap.
        max: u32,
    },
    /// One chunk of transferred blocks. An empty chunk with
    /// `base_height > from` means the responder pruned that history
    /// (fall back to a checkpoint); an empty chunk otherwise means the
    /// responder has nothing newer.
    RepairBlocks {
        /// The height the requester asked for.
        from: u64,
        /// The served blocks (consecutive from `from` when non-empty).
        blocks: Vec<Block>,
        /// Lowest height the responder can serve.
        base_height: u64,
        /// The responder's tip (lets the requester track a moving
        /// target).
        next_height: u64,
    },
    /// Ask the peer for the checkpoint mirror of the **requester's own
    /// shard** (served when the requester restarted below every peer's
    /// pruned-WAL floor).
    RepairCheckpointRequest,
    /// The mirrored checkpoint, or `None` when the peer holds none.
    RepairCheckpoint {
        /// The requester's own shard image, as last mirrored (shared
        /// with the holder's mirror entry, not copied).
        snapshot: Option<Arc<ShardSnapshot>>,
    },
    /// Broadcast after a server saves a snapshot: peers persist the
    /// mirror so the origin's shard state stays recoverable even after
    /// the cluster prunes its WALs below the snapshot (quorum-durable
    /// checkpoints — the precondition that makes pruning safe
    /// fleet-wide).
    CheckpointMirror {
        /// The origin's shard image, whole or as a delta against its
        /// previous mirror.
        image: MirrorImage,
    },
    /// A mirror holder asks the origin for its whole current image: a
    /// delta arrived that the holder could not apply (its base is not
    /// the held mirror, or it fails its checks).
    MirrorResync,

    // ------------------------------------------------------------------
    // Verified read plane (client ↔ any server).
    //
    // Read-only transactions never enter a commit round: the client
    // asks one server for a proof-carrying snapshot read of every shard
    // it touches, verifies the multiproof/absence proofs against cached
    // co-signed roots, and is done. Any peer holding a verified
    // checkpoint mirror of another server's shard serves
    // (stale-bounded) reads for it.
    // ------------------------------------------------------------------
    /// A batched proof-carrying read: per part, `keys` all owned by
    /// `shard`. The server must serve state current through at least
    /// `min_covered` applied blocks (an honest server refuses the part
    /// otherwise); `at_height` pins an exact snapshot instead.
    SnapshotRead {
        /// Client-local request id (correlates the response).
        req: u64,
        /// `(shard, keys)` per shard read.
        parts: Vec<(u32, Vec<Key>)>,
        /// Minimum applied height the served state must cover.
        min_covered: u64,
        /// Serve state exactly as of this applied height (`AtHeight`).
        at_height: Option<u64>,
    },
    /// The answer to a [`Message::SnapshotRead`], signed once: one
    /// [`ReadPart`] per distinct shard requested, in request order.
    SnapshotReadResp {
        /// Echo of the request id.
        req: u64,
        /// One proof-carrying answer or honest refusal per shard.
        parts: Vec<ReadPart>,
    },
    /// Ask a server for recent co-signed block headers (the pull side
    /// of the lightweight root announcement): headers at or above
    /// `from`, newest first, capped.
    RootQuery {
        /// Lowest applied height of interest.
        from: u64,
    },
    /// Answer to [`Message::RootQuery`]: enough recent headers to cover
    /// the newest co-signed root of every shard (clients verify each
    /// header's collective signature before trusting it).
    RootAnnounce {
        /// The served headers.
        headers: Vec<BlockHeader>,
    },

    // ------------------------------------------------------------------
    // Quorum-durable acknowledgements (cohort → coordinator).
    // ------------------------------------------------------------------
    /// The sending cohort's copy of block `height` is fsync-durable.
    /// With `PersistenceConfig::quorum_acks` the coordinator withholds
    /// client outcomes until a quorum of servers (itself included)
    /// reports this.
    Durable {
        /// The durable block's height.
        height: u64,
    },

    // ------------------------------------------------------------------
    // Harness control.
    // ------------------------------------------------------------------
    /// Ask the coordinator to terminate whatever is pending now.
    Flush,
    /// Ask a server thread to exit.
    Shutdown,
}

/// One entry of a [`Message::ReadManyResp`]: the key and, when the
/// server stores it, its `(value, rts, wts)` state.
pub type ReadManyItem = (Key, Option<(Value, Timestamp, Timestamp)>);

/// One shard's answer inside a [`Message::SnapshotReadResp`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadPart {
    /// The shard this part answers.
    pub shard: u32,
    /// The proof-carrying read, or why this server refused the shard.
    pub result: Result<ServedRead, ReadRefusal>,
}

/// A proof-carrying read of one shard: values + multiproof + absence
/// proofs anchored at the co-signed root of applied height
/// `root_height` (0 = genesis), optionally with the co-signed header
/// proving that root to a client that has not cached it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServedRead {
    /// Applied height of the anchoring co-signed root.
    pub root_height: u64,
    /// Applied height the served state is current through.
    pub covered_height: u64,
    /// The co-signed root carrier (`None` = genesis or client-cached).
    pub header: Option<Box<BlockHeader>>,
    /// The proof bundle (values ride inside).
    pub proof: Box<ShardReadProof>,
}

/// Why a server honestly refused one shard of a
/// [`Message::SnapshotRead`] — always a retargeting hint, never
/// evidence (a *Byzantine* server serves a bad proof instead, and the
/// client's verification refutes it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadRefusal {
    /// The server is mid-repair and cannot serve trustworthy reads;
    /// retry (or retarget) after roughly `eta_hint_ms` — the
    /// repair-aware retry hint that keeps clients from burning their
    /// op-timeout against a repairing server.
    Repairing {
        /// Coarse estimate of the remaining repair time.
        eta_hint_ms: u32,
    },
    /// The server holds no checkpoint mirror of the requested shard
    /// (and does not own it): ask the owner or another peer.
    NoSnapshot,
    /// The server's best servable state is older than the request's
    /// bound; `best_covered` says how far it could serve, so the client
    /// can fall back to the owner (or relax its policy).
    TooStale {
        /// The newest applied height this server could cover.
        best_covered: u64,
    },
}

impl fmt::Display for ReadRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadRefusal::Repairing { eta_hint_ms } => {
                write!(f, "repairing (retry in ~{eta_hint_ms} ms)")
            }
            ReadRefusal::NoSnapshot => write!(f, "no mirror of that shard held here"),
            ReadRefusal::TooStale { best_covered } => {
                write!(f, "best servable height {best_covered} is below the bound")
            }
        }
    }
}

impl Encodable for ReadRefusal {
    fn encode_into(&self, enc: &mut Encoder) {
        match self {
            ReadRefusal::Repairing { eta_hint_ms } => {
                enc.put_u8(0);
                enc.put_u32(*eta_hint_ms);
            }
            ReadRefusal::NoSnapshot => enc.put_u8(1),
            ReadRefusal::TooStale { best_covered } => {
                enc.put_u8(2);
                enc.put_u64(*best_covered);
            }
        }
    }
}

impl Decodable for ReadRefusal {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.take_u8()? {
            0 => ReadRefusal::Repairing {
                eta_hint_ms: dec.take_u32()?,
            },
            1 => ReadRefusal::NoSnapshot,
            2 => ReadRefusal::TooStale {
                best_covered: dec.take_u64()?,
            },
            t => return Err(DecodeError::InvalidTag(t)),
        })
    }
}

impl Encodable for ReadPart {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u32(self.shard);
        match &self.result {
            Ok(served) => {
                enc.put_u8(1);
                enc.put_u64(served.root_height);
                enc.put_u64(served.covered_height);
                enc.put_option(&served.header, |e, h| h.encode_into(e));
                served.proof.encode_into(enc);
            }
            Err(reason) => {
                enc.put_u8(0);
                reason.encode_into(enc);
            }
        }
    }
}

impl Decodable for ReadPart {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let shard = dec.take_u32()?;
        let result = match dec.take_u8()? {
            1 => Ok(ServedRead {
                root_height: dec.take_u64()?,
                covered_height: dec.take_u64()?,
                header: dec.take_option(|d| BlockHeader::decode_from(d).map(Box::new))?,
                proof: Box::new(ShardReadProof::decode_from(dec)?),
            }),
            0 => Err(ReadRefusal::decode_from(dec)?),
            t => return Err(DecodeError::InvalidTag(t)),
        };
        Ok(ReadPart { shard, result })
    }
}

impl Message {
    /// A short name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Write { .. } => "write",
            Message::WriteAck { .. } => "write-ack",
            Message::EndTxn { .. } => "end-txn",
            Message::EndTxnRejected { .. } => "end-txn-rejected",
            Message::Outcome { .. } => "outcome",
            Message::GetVote { .. } => "get-vote",
            Message::Vote { .. } => "vote",
            Message::Challenge { .. } => "challenge",
            Message::Response { .. } => "response",
            Message::Decision { .. } => "decision",
            Message::TwoPcGetVote { .. } => "2pc-get-vote",
            Message::TwoPcVote { .. } => "2pc-vote",
            Message::TwoPcDecision { .. } => "2pc-decision",
            Message::Flush => "flush",
            Message::Shutdown => "shutdown",
            Message::ReadMany { .. } => "read-many",
            Message::ReadManyResp { .. } => "read-many-resp",
            Message::RepairQuery { .. } => "repair-query",
            Message::RepairInfo { .. } => "repair-info",
            Message::RepairRequest { .. } => "repair-request",
            Message::RepairBlocks { .. } => "repair-blocks",
            Message::RepairCheckpointRequest => "repair-checkpoint-request",
            Message::RepairCheckpoint { .. } => "repair-checkpoint",
            Message::CheckpointMirror { .. } => "checkpoint-mirror",
            Message::MirrorResync => "mirror-resync",
            Message::Durable { .. } => "durable",
            Message::SnapshotRead { .. } => "snapshot-read",
            Message::SnapshotReadResp { .. } => "snapshot-read-resp",
            Message::RootQuery { .. } => "root-query",
            Message::RootAnnounce { .. } => "root-announce",
        }
    }
}

/// A [`Message::CheckpointMirror`] payload. After an origin's first
/// mirror, a holder already has its previous image, so the origin ships
/// only what changed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MirrorImage {
    /// The whole image: an origin's first mirror after it starts, or
    /// its answer to a [`Message::MirrorResync`] (one capture, shared by
    /// the broadcast, the local save and the receiving holder).
    Full(Arc<ShardSnapshot>),
    /// The change since the origin's previous mirror, which applies
    /// only to a holder holding exactly that mirror.
    Delta(Box<SnapshotDelta>),
}

// ----------------------------------------------------------------------
// Canonical encoding.
// ----------------------------------------------------------------------

impl Encodable for TxnHandle {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u32(self.client);
        enc.put_u64(self.seq);
    }
}

impl Decodable for TxnHandle {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TxnHandle {
            client: dec.take_u32()?,
            seq: dec.take_u64()?,
        })
    }
}

impl Encodable for PartialBlock {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.height);
        enc.put_seq(&self.txns, |e, t| t.encode_into(e));
        enc.put_digest(&self.prev_hash);
    }
}

impl Decodable for PartialBlock {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(PartialBlock {
            height: dec.take_u64()?,
            txns: dec.take_seq(TxnRecord::decode_from)?,
            prev_hash: dec.take_digest()?,
        })
    }
}

impl Encodable for InvolvedVote {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_bool(self.commit);
        enc.put_option(&self.root, |e, d| e.put_digest(d));
        enc.put_seq(&self.failed, |e, t| t.encode_into(e));
    }
}

impl Decodable for InvolvedVote {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(InvolvedVote {
            commit: dec.take_bool()?,
            root: dec.take_option(|d| d.take_digest())?,
            failed: dec.take_seq(Timestamp::decode_from)?,
        })
    }
}

impl Encodable for Refusal {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            Refusal::MissingRoots => 0,
            Refusal::RootMismatch => 1,
            Refusal::BadChallenge => 2,
            Refusal::DecisionInconsistent => 3,
            Refusal::StaleHeight => 4,
            Refusal::WrongLeader => 5,
        });
    }
}

impl Decodable for Refusal {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(Refusal::MissingRoots),
            1 => Ok(Refusal::RootMismatch),
            2 => Ok(Refusal::BadChallenge),
            3 => Ok(Refusal::DecisionInconsistent),
            4 => Ok(Refusal::StaleHeight),
            5 => Ok(Refusal::WrongLeader),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// Encodes a [`Message::Outcome`] wire payload from **pre-encoded**
/// block bytes. The block dominates the payload for batch-sized rounds;
/// the outcome fan-out encodes it once per block and reuses the bytes
/// across every per-client envelope instead of re-encoding per client.
/// Must stay byte-identical to the `Message::Outcome` arm below.
pub fn encode_outcome_payload(handles: &[TxnHandle], block_bytes: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(8); // Message::Outcome wire tag
    enc.put_seq(handles, |e, h| h.encode_into(e));
    enc.put_fixed(block_bytes);
    enc.into_bytes()
}

impl Encodable for Message {
    fn encode_into(&self, enc: &mut Encoder) {
        match self {
            Message::Write { txn, key, value } => {
                enc.put_u8(4);
                txn.encode_into(enc);
                key.encode_into(enc);
                value.encode_into(enc);
            }
            Message::WriteAck { txn, key, old } => {
                enc.put_u8(5);
                txn.encode_into(enc);
                key.encode_into(enc);
                enc.put_option(old, |e, (v, r, w)| {
                    v.encode_into(e);
                    r.encode_into(e);
                    w.encode_into(e);
                });
            }
            Message::EndTxn { handle, record } => {
                enc.put_u8(6);
                handle.encode_into(enc);
                record.encode_into(enc);
            }
            Message::EndTxnRejected { handle, hint } => {
                enc.put_u8(7);
                handle.encode_into(enc);
                hint.encode_into(enc);
            }
            Message::Outcome { handles, block } => {
                enc.put_u8(8);
                enc.put_seq(handles, |e, h| h.encode_into(e));
                block.encode_into(enc);
            }
            Message::GetVote { partial } => {
                enc.put_u8(9);
                partial.encode_into(enc);
            }
            Message::Vote {
                height,
                commitment,
                involved,
            } => {
                enc.put_u8(10);
                enc.put_u64(*height);
                commitment.encode_into(enc);
                enc.put_option(involved, |e, v| v.encode_into(e));
            }
            Message::Challenge {
                block,
                aggregate,
                challenge,
            } => {
                enc.put_u8(11);
                block.encode_into(enc);
                aggregate.encode_into(enc);
                enc.put_fixed(&challenge.to_be_bytes());
            }
            Message::Response { height, result } => {
                enc.put_u8(12);
                enc.put_u64(*height);
                match result {
                    Ok(resp) => {
                        enc.put_u8(1);
                        resp.encode_into(enc);
                    }
                    Err(refusal) => {
                        enc.put_u8(0);
                        refusal.encode_into(enc);
                    }
                }
            }
            Message::Decision { block } => {
                enc.put_u8(13);
                block.encode_into(enc);
            }
            Message::TwoPcGetVote { partial } => {
                enc.put_u8(14);
                partial.encode_into(enc);
            }
            Message::TwoPcVote {
                height,
                commit,
                failed,
            } => {
                enc.put_u8(15);
                enc.put_u64(*height);
                enc.put_bool(*commit);
                enc.put_seq(failed, |e, t| t.encode_into(e));
            }
            Message::TwoPcDecision { block } => {
                enc.put_u8(16);
                block.encode_into(enc);
            }
            Message::Flush => enc.put_u8(17),
            Message::Shutdown => enc.put_u8(18),
            Message::ReadMany { txn, keys } => {
                enc.put_u8(19);
                txn.encode_into(enc);
                enc.put_seq(keys, |e, k| k.encode_into(e));
            }
            Message::ReadManyResp { txn, items } => {
                enc.put_u8(20);
                txn.encode_into(enc);
                enc.put_seq(items, |e, (key, state)| {
                    key.encode_into(e);
                    e.put_option(state, |e, (value, rts, wts)| {
                        value.encode_into(e);
                        rts.encode_into(e);
                        wts.encode_into(e);
                    });
                });
            }
            Message::RepairQuery { next_height } => {
                enc.put_u8(21);
                enc.put_u64(*next_height);
            }
            Message::RepairInfo {
                next_height,
                tip_hash,
                base_height,
                mirror_height,
            } => {
                enc.put_u8(22);
                enc.put_u64(*next_height);
                enc.put_digest(tip_hash);
                enc.put_u64(*base_height);
                enc.put_option(mirror_height, |e, h| e.put_u64(*h));
            }
            Message::RepairRequest { from, max } => {
                enc.put_u8(23);
                enc.put_u64(*from);
                enc.put_u32(*max);
            }
            Message::RepairBlocks {
                from,
                blocks,
                base_height,
                next_height,
            } => {
                enc.put_u8(24);
                enc.put_u64(*from);
                enc.put_seq(blocks, |e, b| b.encode_into(e));
                enc.put_u64(*base_height);
                enc.put_u64(*next_height);
            }
            Message::RepairCheckpointRequest => enc.put_u8(25),
            Message::RepairCheckpoint { snapshot } => {
                enc.put_u8(26);
                enc.put_option(snapshot, |e, s| s.encode_into(e));
            }
            Message::CheckpointMirror { image } => {
                enc.put_u8(27);
                match image {
                    MirrorImage::Full(snapshot) => {
                        enc.put_u8(0);
                        snapshot.encode_into(enc);
                    }
                    MirrorImage::Delta(delta) => {
                        enc.put_u8(1);
                        delta.encode_into(enc);
                    }
                }
            }
            Message::MirrorResync => enc.put_u8(35),
            Message::Durable { height } => {
                enc.put_u8(28);
                enc.put_u64(*height);
            }
            Message::SnapshotRead {
                req,
                parts,
                min_covered,
                at_height,
            } => {
                enc.put_u8(29);
                enc.put_u64(*req);
                enc.put_seq(parts, |e, (shard, keys)| {
                    e.put_u32(*shard);
                    e.put_seq(keys, |e, k| k.encode_into(e));
                });
                enc.put_u64(*min_covered);
                enc.put_option(at_height, |e, h| e.put_u64(*h));
            }
            Message::SnapshotReadResp { req, parts } => {
                enc.put_u8(30);
                enc.put_u64(*req);
                enc.put_seq(parts, |e, part| part.encode_into(e));
            }
            Message::RootQuery { from } => {
                enc.put_u8(32);
                enc.put_u64(*from);
            }
            Message::RootAnnounce { headers } => {
                enc.put_u8(33);
                enc.put_seq(headers, |e, h| h.encode_into(e));
            }
        }
    }
}

impl Decodable for Message {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.take_u8()? {
            // Tags 0–3 carried the retired per-key begin/read messages;
            // they stay unassigned, so old peers' bytes fail to decode.
            4 => Message::Write {
                txn: TxnHandle::decode_from(dec)?,
                key: Key::decode_from(dec)?,
                value: Value::decode_from(dec)?,
            },
            5 => Message::WriteAck {
                txn: TxnHandle::decode_from(dec)?,
                key: Key::decode_from(dec)?,
                old: dec.take_option(|d| {
                    Ok((
                        Value::decode_from(d)?,
                        Timestamp::decode_from(d)?,
                        Timestamp::decode_from(d)?,
                    ))
                })?,
            },
            6 => Message::EndTxn {
                handle: TxnHandle::decode_from(dec)?,
                record: TxnRecord::decode_from(dec)?,
            },
            7 => Message::EndTxnRejected {
                handle: TxnHandle::decode_from(dec)?,
                hint: Timestamp::decode_from(dec)?,
            },
            8 => Message::Outcome {
                handles: dec.take_seq(TxnHandle::decode_from)?,
                block: Block::decode_from(dec)?,
            },
            9 => Message::GetVote {
                partial: PartialBlock::decode_from(dec)?,
            },
            10 => Message::Vote {
                height: dec.take_u64()?,
                commitment: cosi::Commitment::decode_from(dec)?,
                involved: dec.take_option(InvolvedVote::decode_from)?,
            },
            11 => {
                let block = Block::decode_from(dec)?;
                let aggregate = cosi::Commitment::decode_from(dec)?;
                let mut sb = [0u8; 32];
                sb.copy_from_slice(dec.take_fixed(32)?);
                let challenge = Scalar::from_be_bytes(&sb)
                    .ok_or(DecodeError::InvalidValue("challenge scalar"))?;
                Message::Challenge {
                    block,
                    aggregate,
                    challenge,
                }
            }
            12 => {
                let height = dec.take_u64()?;
                let result = match dec.take_u8()? {
                    1 => Ok(cosi::Response::decode_from(dec)?),
                    0 => Err(Refusal::decode_from(dec)?),
                    t => return Err(DecodeError::InvalidTag(t)),
                };
                Message::Response { height, result }
            }
            13 => Message::Decision {
                block: Block::decode_from(dec)?,
            },
            14 => Message::TwoPcGetVote {
                partial: PartialBlock::decode_from(dec)?,
            },
            15 => Message::TwoPcVote {
                height: dec.take_u64()?,
                commit: dec.take_bool()?,
                failed: dec.take_seq(Timestamp::decode_from)?,
            },
            16 => Message::TwoPcDecision {
                block: Block::decode_from(dec)?,
            },
            17 => Message::Flush,
            18 => Message::Shutdown,
            19 => Message::ReadMany {
                txn: TxnHandle::decode_from(dec)?,
                keys: dec.take_seq(Key::decode_from)?,
            },
            20 => Message::ReadManyResp {
                txn: TxnHandle::decode_from(dec)?,
                items: dec.take_seq(|d| {
                    let key = Key::decode_from(d)?;
                    let state = d.take_option(|d| {
                        let value = Value::decode_from(d)?;
                        let rts = Timestamp::decode_from(d)?;
                        let wts = Timestamp::decode_from(d)?;
                        Ok((value, rts, wts))
                    })?;
                    Ok((key, state))
                })?,
            },
            21 => Message::RepairQuery {
                next_height: dec.take_u64()?,
            },
            22 => Message::RepairInfo {
                next_height: dec.take_u64()?,
                tip_hash: dec.take_digest()?,
                base_height: dec.take_u64()?,
                mirror_height: dec.take_option(|d| d.take_u64())?,
            },
            23 => Message::RepairRequest {
                from: dec.take_u64()?,
                max: dec.take_u32()?,
            },
            24 => Message::RepairBlocks {
                from: dec.take_u64()?,
                blocks: dec.take_seq(Block::decode_from)?,
                base_height: dec.take_u64()?,
                next_height: dec.take_u64()?,
            },
            25 => Message::RepairCheckpointRequest,
            26 => Message::RepairCheckpoint {
                snapshot: dec.take_option(|d| ShardSnapshot::decode_from(d).map(Arc::new))?,
            },
            27 => Message::CheckpointMirror {
                image: match dec.take_u8()? {
                    0 => MirrorImage::Full(Arc::new(ShardSnapshot::decode_from(dec)?)),
                    1 => MirrorImage::Delta(Box::new(SnapshotDelta::decode_from(dec)?)),
                    t => return Err(DecodeError::InvalidTag(t)),
                },
            },
            28 => Message::Durable {
                height: dec.take_u64()?,
            },
            29 => Message::SnapshotRead {
                req: dec.take_u64()?,
                parts: dec.take_seq(|d| Ok((d.take_u32()?, d.take_seq(Key::decode_from)?)))?,
                min_covered: dec.take_u64()?,
                at_height: dec.take_option(|d| d.take_u64())?,
            },
            30 => Message::SnapshotReadResp {
                req: dec.take_u64()?,
                parts: dec.take_seq(ReadPart::decode_from)?,
            },
            // Tag 31 carried the retired single-shard refusal; it stays
            // unassigned.
            32 => Message::RootQuery {
                from: dec.take_u64()?,
            },
            33 => Message::RootAnnounce {
                headers: dec.take_seq(BlockHeader::decode_from)?,
            },
            // Tag 34 carried the retired end-txn forward between
            // rotating leaders; it stays unassigned.
            35 => Message::MirrorResync,
            t => return Err(DecodeError::InvalidTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_crypto::schnorr::KeyPair;
    use fides_crypto::Digest;
    use fides_ledger::block::{BlockBuilder, Decision};
    use fides_store::rwset::{ReadEntry, WriteEntry};

    fn sample_record() -> TxnRecord {
        TxnRecord {
            id: Timestamp::new(10, 2),
            read_set: vec![ReadEntry {
                key: Key::new("x"),
                value: Value::from_i64(5),
                rts: Timestamp::ZERO,
                wts: Timestamp::ZERO,
            }],
            write_set: vec![WriteEntry {
                key: Key::new("x"),
                new_value: Value::from_i64(6),
                old_value: None,
                rts: Timestamp::ZERO,
                wts: Timestamp::ZERO,
            }],
        }
    }

    fn roundtrip(msg: Message) {
        let bytes = msg.encode();
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn execution_messages_roundtrip() {
        let txn = TxnHandle { client: 3, seq: 9 };
        roundtrip(Message::ReadMany {
            txn,
            keys: vec![Key::new("k"), Key::new("absent")],
        });
        roundtrip(Message::ReadManyResp {
            txn,
            items: vec![
                (
                    Key::new("k"),
                    Some((
                        Value::from_i64(7),
                        Timestamp::new(1, 0),
                        Timestamp::new(2, 0),
                    )),
                ),
                (Key::new("absent"), None),
            ],
        });
        roundtrip(Message::Write {
            txn,
            key: Key::new("k"),
            value: Value::from_i64(8),
        });
        roundtrip(Message::WriteAck {
            txn,
            key: Key::new("k"),
            old: Some((
                Value::from_i64(7),
                Timestamp::new(1, 0),
                Timestamp::new(2, 0),
            )),
        });
        roundtrip(Message::WriteAck {
            txn,
            key: Key::new("k"),
            old: None,
        });
    }

    #[test]
    fn termination_messages_roundtrip() {
        let handle = TxnHandle { client: 1, seq: 2 };
        roundtrip(Message::EndTxn {
            handle,
            record: sample_record(),
        });
        roundtrip(Message::EndTxnRejected {
            handle,
            hint: Timestamp::new(50, 0),
        });
        let block = BlockBuilder::new(0, Digest::ZERO)
            .txn(sample_record())
            .decision(Decision::Commit)
            .build_unsigned();
        roundtrip(Message::Outcome {
            handles: vec![handle, TxnHandle { client: 2, seq: 9 }],
            block,
        });
    }

    #[test]
    fn tfcommit_messages_roundtrip() {
        let partial = PartialBlock {
            height: 4,
            txns: vec![sample_record()],
            prev_hash: Digest::new([3; 32]),
        };
        roundtrip(Message::GetVote {
            partial: partial.clone(),
        });

        let kp = KeyPair::from_seed(b"w");
        let witness = fides_crypto::cosi::Witness::commit(&kp, b"r", b"rec");
        roundtrip(Message::Vote {
            height: 4,
            commitment: witness.commitment(),
            involved: Some(InvolvedVote {
                commit: true,
                root: Some(Digest::new([1; 32])),
                failed: vec![],
            }),
        });
        roundtrip(Message::Vote {
            height: 4,
            commitment: witness.commitment(),
            involved: None,
        });

        let block = BlockBuilder::new(4, Digest::new([3; 32]))
            .txn(sample_record())
            .decision(Decision::Commit)
            .build_unsigned();
        let challenge =
            fides_crypto::cosi::challenge(&witness.commitment().0, &block.signing_bytes());
        roundtrip(Message::Challenge {
            block: block.clone(),
            aggregate: witness.commitment(),
            challenge,
        });
        roundtrip(Message::Response {
            height: 4,
            result: Ok(witness.respond(&challenge)),
        });
        roundtrip(Message::Response {
            height: 4,
            result: Err(Refusal::RootMismatch),
        });
        roundtrip(Message::Response {
            height: 4,
            result: Err(Refusal::WrongLeader),
        });
        roundtrip(Message::Decision { block });
    }

    #[test]
    fn twopc_and_control_messages_roundtrip() {
        let partial = PartialBlock {
            height: 0,
            txns: vec![],
            prev_hash: Digest::ZERO,
        };
        roundtrip(Message::TwoPcGetVote { partial });
        roundtrip(Message::TwoPcVote {
            height: 0,
            commit: false,
            failed: vec![Timestamp::new(9, 1)],
        });
        let block = BlockBuilder::new(0, Digest::ZERO)
            .decision(Decision::Abort)
            .build_unsigned();
        roundtrip(Message::TwoPcDecision { block });
        roundtrip(Message::Flush);
        roundtrip(Message::Shutdown);
    }

    #[test]
    fn repair_messages_roundtrip() {
        roundtrip(Message::RepairQuery { next_height: 17 });
        roundtrip(Message::RepairInfo {
            next_height: 40,
            tip_hash: Digest::new([8; 32]),
            base_height: 32,
            mirror_height: Some(36),
        });
        roundtrip(Message::RepairInfo {
            next_height: 0,
            tip_hash: Digest::ZERO,
            base_height: 0,
            mirror_height: None,
        });
        roundtrip(Message::RepairRequest { from: 9, max: 64 });
        let block = BlockBuilder::new(9, Digest::new([2; 32]))
            .txn(sample_record())
            .decision(Decision::Commit)
            .build_unsigned();
        roundtrip(Message::RepairBlocks {
            from: 9,
            blocks: vec![block],
            base_height: 4,
            next_height: 12,
        });
        roundtrip(Message::RepairCheckpointRequest);

        let shard = fides_store::AuthenticatedShard::new(vec![(Key::new("m"), Value::from_i64(3))]);
        let snapshot = fides_durability::ShardSnapshot::capture(
            &shard,
            8,
            Digest::new([5; 32]),
            Timestamp::new(7, 0),
        );
        let snapshot = Arc::new(snapshot);
        roundtrip(Message::RepairCheckpoint {
            snapshot: Some(Arc::clone(&snapshot)),
        });
        roundtrip(Message::RepairCheckpoint { snapshot: None });
        let mut later = (*snapshot).clone();
        later.height = 12;
        later.checkpoint.items[0].rts = Timestamp::new(11, 0);
        let delta = snapshot.diff(&later).expect("later extends the mirror");
        roundtrip(Message::CheckpointMirror {
            image: MirrorImage::Full(snapshot),
        });
        roundtrip(Message::CheckpointMirror {
            image: MirrorImage::Delta(Box::new(delta)),
        });
        roundtrip(Message::MirrorResync);
        roundtrip(Message::Durable { height: 3 });
    }

    fn sample_read_request() -> Message {
        Message::SnapshotRead {
            req: 7,
            parts: vec![
                (2, vec![Key::new("a"), Key::new("b")]),
                (0, vec![Key::new("c")]),
                (3, Vec::new()),
            ],
            min_covered: 12,
            at_height: Some(10),
        }
    }

    /// A response with a served part carrying a header, a refused part
    /// and a genesis-anchored part.
    fn sample_read_response() -> Message {
        let shard = fides_store::AuthenticatedShard::new(vec![(Key::new("m"), Value::from_i64(3))]);
        let proof = shard.prove_read(&[Key::new("m"), Key::new("missing")]);
        let block = BlockBuilder::new(4, Digest::new([2; 32]))
            .txn(sample_record())
            .decision(Decision::Commit)
            .build_unsigned();
        Message::SnapshotReadResp {
            req: 7,
            parts: vec![
                ReadPart {
                    shard: 2,
                    result: Ok(ServedRead {
                        root_height: 5,
                        covered_height: 9,
                        header: Some(Box::new(block.header())),
                        proof: Box::new(proof.clone()),
                    }),
                },
                ReadPart {
                    shard: 0,
                    result: Err(ReadRefusal::NoSnapshot),
                },
                ReadPart {
                    shard: 3,
                    result: Ok(ServedRead {
                        root_height: 0,
                        covered_height: 0,
                        header: None,
                        proof: Box::new(proof),
                    }),
                },
            ],
        }
    }

    #[test]
    fn read_plane_messages_roundtrip() {
        roundtrip(sample_read_request());
        roundtrip(Message::SnapshotRead {
            req: 0,
            parts: Vec::new(),
            min_covered: 0,
            at_height: None,
        });
        roundtrip(sample_read_response());
        for reason in [
            ReadRefusal::Repairing { eta_hint_ms: 120 },
            ReadRefusal::NoSnapshot,
            ReadRefusal::TooStale { best_covered: 4 },
        ] {
            roundtrip(Message::SnapshotReadResp {
                req: 3,
                parts: vec![ReadPart {
                    shard: 1,
                    result: Err(reason),
                }],
            });
        }
        roundtrip(Message::RootQuery { from: 9 });
        let block = BlockBuilder::new(4, Digest::new([2; 32]))
            .decision(Decision::Commit)
            .build_unsigned();
        roundtrip(Message::RootAnnounce {
            headers: vec![block.header()],
        });
    }

    proptest::proptest! {
        /// Truncated and bit-flipped read-plane encodings decode to an
        /// error or to some message; they never panic the decoder. A
        /// truncation is always an error (decoding is a left-to-right
        /// parse, so a shorter prefix cannot be a whole message).
        #[test]
        fn read_plane_decoding_never_panics(
            cut in 0usize..4096,
            flips in proptest::collection::vec((0usize..1 << 16, 0u8..8), 1..4),
        ) {
            for msg in [sample_read_request(), sample_read_response()] {
                let bytes = msg.encode();
                proptest::prop_assert!(Message::decode(&bytes[..cut % bytes.len()]).is_err());
                let mut flipped = bytes.clone();
                for &(at, bit) in &flips {
                    flipped[at % bytes.len()] ^= 1 << bit;
                }
                let _ = Message::decode(&flipped);
            }
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(Message::decode(&[99]).is_err());
    }

    /// Retired tags stay unassigned: an old peer's per-key begin/read
    /// (0–3), single-shard refusal (31) or end-txn forward (34) fails to
    /// decode instead of being read as some other message.
    #[test]
    fn retired_tags_fail_to_decode() {
        for tag in [0u8, 1, 2, 3, 31, 34] {
            let decoded = Message::decode(&[tag, 0, 0, 0, 0, 0, 0, 0, 0]);
            assert!(
                matches!(decoded, Err(DecodeError::InvalidTag(t)) if t == tag),
                "tag {tag}: {decoded:?}"
            );
        }
    }

    #[test]
    fn kind_names_are_distinct_for_protocol_phases() {
        let txn = TxnHandle { client: 0, seq: 0 };
        let kinds = [
            Message::ReadMany {
                txn,
                keys: Vec::new(),
            }
            .kind(),
            sample_read_request().kind(),
            sample_read_response().kind(),
            Message::RootQuery { from: 0 }.kind(),
            Message::Flush.kind(),
            Message::Shutdown.kind(),
        ];
        let distinct: std::collections::HashSet<&str> = kinds.iter().copied().collect();
        assert_eq!(distinct.len(), kinds.len(), "{kinds:?}");
        assert!(kinds.iter().all(|k| !k.is_empty()));
    }
}
