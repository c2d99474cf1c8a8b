//! Client sessions: the transaction life-cycle of Figure 5.
//!
//! Clients interact directly with the database servers (there is no
//! trusted front-end, §4.1): reads and writes go to the owning shard
//! server; termination requests go to the designated coordinator; the
//! final signed block comes back and the client verifies the collective
//! signature before accepting the outcome (§4.3.1 phase 5).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fides_crypto::encoding::{Decodable, Encodable};
use fides_crypto::schnorr::{KeyPair, PublicKey};
use fides_crypto::Digest;
use fides_ledger::block::{Block, Decision, TxnRecord};
use fides_net::{Endpoint, Envelope, NodeId};
use fides_read::{
    verify_read, ReadConsistency, ReadEvidence, ReadFault, ReadResponse, RootRegistry, VerifiedRead,
};
use fides_store::rwset::{ReadEntry, WriteEntry};
use fides_store::types::{Key, Timestamp, Value};
use fides_telemetry::trace::{now_ns, CLIENT_TAG_BASE};
use fides_telemetry::{Sampler, Span, SpanSink, TraceContext};

use crate::messages::{CommitProtocol, Message, ReadPart, ReadRefusal, TxnHandle};
use crate::partition::Partitioner;
use crate::server::{client_node, server_node, Directory, COORDINATOR_IDX, LEADER};

/// A shared monotone counter from which clients derive commit
/// timestamps.
///
/// The paper only requires "a timestamp that supports total ordering …
/// as long as all clients use the same timestamp generating mechanism"
/// (§4.1); a shared atomic counter is the simplest such mechanism and
/// keeps end-transaction rejections (stale timestamps) out of the happy
/// path. The Lamport-style `(counter, client)` pair still totally
/// orders timestamps if clients ever race.
#[derive(Clone, Debug, Default)]
pub struct TimestampOracle(Arc<AtomicU64>);

impl TimestampOracle {
    /// Creates a fresh oracle starting above [`Timestamp::ZERO`].
    pub fn new() -> Self {
        TimestampOracle(Arc::new(AtomicU64::new(1)))
    }

    /// The next counter value (strictly increasing).
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Advances the counter to at least `floor`.
    pub fn advance_to(&self, floor: u64) {
        self.0.fetch_max(floor + 1, Ordering::Relaxed);
    }
}

/// Client-side state of one in-flight transaction.
#[derive(Debug)]
pub struct TxnCtx {
    handle: TxnHandle,
    /// Read set accumulated from read responses.
    reads: Vec<ReadEntry>,
    /// Keys read (to distinguish blind writes).
    read_keys: HashSet<Key>,
    /// Write intentions with the metadata from write acks.
    writes: Vec<WriteEntry>,
}

impl TxnCtx {
    /// The provisional transaction handle.
    pub fn handle(&self) -> TxnHandle {
        self.handle
    }

    /// Values read so far, in request order.
    pub fn reads(&self) -> &[ReadEntry] {
        &self.reads
    }
}

/// The final, client-visible outcome of a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOutcome {
    /// The transaction committed in the block at `height`.
    Committed {
        /// Assigned commit timestamp.
        ts: Timestamp,
        /// Block height in the global log.
        height: u64,
    },
    /// The transaction (or its whole block) aborted.
    Aborted {
        /// Assigned commit timestamp.
        ts: Timestamp,
        /// Height of the abort block.
        height: u64,
    },
    /// The returned block's collective signature did not verify — the
    /// client "detects an anomaly and triggers an audit" (§4.3.1).
    Anomaly {
        /// Assigned commit timestamp.
        ts: Timestamp,
    },
}

impl TxnOutcome {
    /// `true` only for a verified commit.
    pub fn committed(&self) -> bool {
        matches!(self, TxnOutcome::Committed { .. })
    }

    /// `true` when the client detected a protocol anomaly.
    pub fn is_anomaly(&self) -> bool {
        matches!(self, TxnOutcome::Anomaly { .. })
    }
}

/// A commit in flight on a pipelined client: everything needed to
/// retry a rejected timestamp and classify the eventual outcome.
#[derive(Debug)]
pub struct PendingCommit {
    /// The transaction's provisional handle.
    pub handle: TxnHandle,
    /// The (latest) commit timestamp assigned.
    pub ts: Timestamp,
    record: TxnRecord,
    attempts: u32,
    /// Sampled fides-trace root, closed when the outcome resolves.
    trace: Option<ClientTrace>,
}

/// A sampled commit's client-side trace state: the ids allocated at
/// submission, closed into a `client.commit` root span on resolution.
#[derive(Clone, Copy, Debug)]
struct ClientTrace {
    trace_id: u64,
    root_span: u64,
    start_ns: u64,
}

impl ClientTrace {
    /// The context end-txn envelopes carry: the round a leader runs for
    /// this transaction parents its spans under the client root.
    fn ctx(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            parent_span: self.root_span,
        }
    }
}

/// An outcome whose collective signature has **not** been verified yet
/// — produced by [`ClientSession::drain_outcomes`], consumed in bulk by
/// [`finalize_outcomes`].
#[derive(Debug)]
pub struct UnverifiedOutcome {
    /// The transaction's handle.
    pub handle: TxnHandle,
    /// The commit timestamp the client assigned.
    pub ts: Timestamp,
    /// The signed decision block as received.
    pub block: Box<Block>,
}

/// Verifies a batch of outcomes' collective signatures with **one**
/// batched check (`cosi::verify_batch`, the random-linear-combination
/// fast path) instead of one full verification per outcome, then
/// classifies each as committed/aborted exactly like
/// [`ClientSession::commit`] — §4.3.1 phase 5 at batch cost.
///
/// Several outcomes routinely share one block (batched rounds), so the
/// signature work is deduplicated by height first. If the batch check
/// fails, each distinct block is re-verified individually and only the
/// offending outcomes degrade to [`TxnOutcome::Anomaly`].
///
/// Under the 2PC baseline blocks are unsigned; verification is skipped
/// as in the synchronous path.
pub fn finalize_outcomes(
    outcomes: Vec<UnverifiedOutcome>,
    server_pks: &[PublicKey],
    protocol: CommitProtocol,
) -> Vec<TxnOutcome> {
    use std::collections::HashMap;

    // Distinct blocks by height (identical heights carry identical
    // blocks in an honest run; an equivocating coordinator's copies
    // fail verification either way).
    let mut distinct: HashMap<u64, &Block> = HashMap::new();
    for outcome in &outcomes {
        distinct
            .entry(outcome.block.height)
            .or_insert(&outcome.block);
    }
    let verified: HashMap<u64, bool> = if protocol == CommitProtocol::TfCommit {
        let blocks: Vec<(u64, &Block)> = distinct.iter().map(|(h, b)| (*h, *b)).collect();
        let records: Vec<Vec<u8>> = blocks.iter().map(|(_, b)| b.signing_bytes()).collect();
        let items: Vec<(&[u8], fides_crypto::cosi::CollectiveSignature)> = records
            .iter()
            .map(Vec::as_slice)
            .zip(blocks.iter().map(|(_, b)| b.cosign))
            .collect();
        if fides_crypto::cosi::verify_batch(&items, server_pks) {
            blocks.iter().map(|(h, _)| (*h, true)).collect()
        } else {
            // Attribute: re-check each distinct block individually.
            blocks
                .iter()
                .zip(&records)
                .map(|((h, b), record)| (*h, b.cosign.verify(record, server_pks)))
                .collect()
        }
    } else {
        distinct.keys().map(|h| (*h, true)).collect()
    };

    outcomes
        .into_iter()
        .map(|outcome| {
            let ts = outcome.ts;
            let block = *outcome.block;
            if !verified.get(&block.height).copied().unwrap_or(false) {
                return TxnOutcome::Anomaly { ts };
            }
            let committed =
                block.decision == Decision::Commit && block.txns.iter().any(|t| t.id == ts);
            if committed {
                TxnOutcome::Committed {
                    ts,
                    height: block.height,
                }
            } else {
                TxnOutcome::Aborted {
                    ts,
                    height: block.height,
                }
            }
        })
        .collect()
}

/// Client-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The owning server reported the key as absent.
    NoSuchKey(Key),
    /// No response arrived in time (crashed server or partition).
    Timeout(&'static str),
    /// The network shut down.
    Disconnected,
    /// The coordinator kept rejecting our timestamps.
    RetriesExhausted,
    /// The session has no read context (registry + evidence sink) —
    /// verified reads need [`ClientSession::with_read_context`].
    NoReadContext,
    /// Every eligible server honestly refused the read under the
    /// requested consistency (the last refusal is carried).
    ReadRefused(ReadRefusal),
    /// The read was refuted: the targeted server served a response that
    /// failed verification (evidence was filed) and no honest fallback
    /// could satisfy the request.
    ReadRefuted(ReadFault),
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::NoSuchKey(k) => write!(f, "no such key: {k}"),
            ClientError::Timeout(what) => write!(f, "timed out waiting for {what}"),
            ClientError::Disconnected => write!(f, "network disconnected"),
            ClientError::RetriesExhausted => write!(f, "coordinator kept rejecting timestamps"),
            ClientError::NoReadContext => {
                write!(
                    f,
                    "verified reads need a read context (registry + evidence sink)"
                )
            }
            ClientError::ReadRefused(reason) => {
                write!(f, "every eligible server refused the read: {reason}")
            }
            ClientError::ReadRefuted(fault) => write!(f, "read refuted: {fault}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A client session bound to one endpoint.
pub struct ClientSession {
    id: u32,
    endpoint: Endpoint,
    keypair: KeyPair,
    directory: Directory,
    partitioner: Partitioner,
    server_pks: Vec<PublicKey>,
    oracle: TimestampOracle,
    protocol: CommitProtocol,
    seq: u64,
    op_timeout: Duration,
    /// Commit traffic (outcomes/rejections) the leader sent while this
    /// session waited for an execution-phase response — a pipelined
    /// client's earlier transactions resolving mid-read. Consumed by
    /// [`ClientSession::drain_outcomes`].
    stash: std::collections::VecDeque<Message>,
    /// Verified-read-plane state (`None` until
    /// [`ClientSession::with_read_context`] attaches it).
    read: Option<ReadContext>,
    /// fides-trace head sampling: 1-in-N commits (`FIDES_TRACE_SAMPLE`)
    /// carry a [`TraceContext`] on their end-txn envelopes.
    sampler: Sampler,
    /// This client's finished spans (the `client.commit` round-trip
    /// roots), tagged `CLIENT_TAG_BASE + id`.
    spans: Arc<SpanSink>,
}

/// Finished spans retained per client — commits are sampled, so a
/// small ring holds plenty.
const CLIENT_SPAN_CAPACITY: usize = 1024;

/// The verified read plane's client-side state.
struct ReadContext {
    /// Co-signed root cache (seeded with genesis, fed by headers and
    /// outcomes).
    registry: RootRegistry,
    /// Where refuted reads are filed (shared with the harness, folded
    /// into audits as `TamperedRead` violations).
    evidence: Arc<parking_lot::Mutex<Vec<ReadEvidence>>>,
    /// Round-robin cursor for mirror load-balancing.
    next_target: u32,
    /// Request id sequence.
    req_seq: u64,
    /// Accumulated read metrics.
    stats: ReadStats,
    /// Negative cache: `(server, shard)` pairs that recently answered
    /// `NoSnapshot`, skipped in the rotation until the entry expires —
    /// a mirror-less cluster degrades to straight owner reads instead
    /// of paying refused round trips on every read.
    no_mirror: std::collections::HashMap<(u32, u32), Instant>,
    /// Servers a read recently timed out on, moved to the back of the
    /// rotation until the entry expires or the server answers again: a
    /// crashed server costs one read a share of its op-timeout, not
    /// every read that meets it.
    timed_out: std::collections::HashMap<u32, Instant>,
}

impl ReadContext {
    /// Starts the next rotation over `n` servers: returns its first
    /// server, advances the cursor and expires old `NoSnapshot` and
    /// timeout entries.
    fn next_rotation(&mut self, n: u32) -> u32 {
        let start = self.next_target;
        self.next_target = (start + 1) % n;
        let now = Instant::now();
        let fresh = |at: &Instant| now.duration_since(*at) < NO_MIRROR_TTL;
        self.no_mirror.retain(|_, refused_at| fresh(refused_at));
        self.timed_out.retain(|_, timed_out_at| fresh(timed_out_at));
        start
    }

    /// The servers that may serve `shard`, in rotation order from
    /// `start`, skipping peers that recently answered `NoSnapshot` for
    /// it. The owner is never skipped, so a mirror-less cluster
    /// degrades to straight owner reads. Servers that recently timed
    /// out come after every other candidate, never dropped: a read
    /// still reaches them when nothing else answers.
    fn eligible(&self, shard: u32, start: u32, n: u32) -> impl Iterator<Item = u32> + '_ {
        let rotation = (0..n)
            .map(move |i| (start + i) % n)
            .filter(move |s| *s == shard || !self.no_mirror.contains_key(&(*s, shard)));
        let answered = move |s: &u32| !self.timed_out.contains_key(s);
        rotation
            .clone()
            .filter(answered)
            .chain(rotation.filter(move |s| !answered(s)))
    }
}

/// How long a `NoSnapshot` refusal keeps a `(server, shard)` pair out
/// of the read rotation, and a timeout keeps a server at its back
/// (mirrors appear at checkpoint cadence, so a short TTL re-probes
/// soon enough).
const NO_MIRROR_TTL: Duration = Duration::from_secs(2);

/// Client-side verified-read metrics (drained by
/// [`ClientSession::take_read_stats`]).
#[derive(Debug, Default, Clone)]
pub struct ReadStats {
    /// Verified read-only requests completed.
    pub reads: u64,
    /// Keys proof-verified across those reads.
    pub keys_read: u64,
    /// Honest refusals observed while retargeting (repairing peers,
    /// missing mirrors, staleness bounds).
    pub refusals: u64,
    /// Root-registry cache effectiveness (hits avoid a header
    /// signature verification on the read path).
    pub registry: fides_read::RegistryStats,
    /// Per-response proof-verification latency
    /// ([`fides_read::verify_read`]), nanoseconds.
    pub verify_ns: fides_telemetry::Histogram,
    /// Staleness per verified read: observed
    /// `known_tip − covered_height` in blocks.
    pub staleness: fides_telemetry::Histogram,
}

impl ReadStats {
    /// Total nanoseconds spent inside proof verification.
    pub fn verify_nanos(&self) -> u64 {
        self.verify_ns.snapshot().sum
    }

    /// Folds another client's stats into this one (bench aggregation).
    pub fn merge(&mut self, other: &ReadStats) {
        self.reads += other.reads;
        self.keys_read += other.keys_read;
        self.refusals += other.refusals;
        self.registry.merge(&other.registry);
        self.verify_ns.merge(&other.verify_ns);
        self.staleness.merge(&other.staleness);
    }
}

/// What one snapshot-read attempt against one server produced.
enum ReadAttempt {
    /// Verified values.
    Ok(VerifiedRead),
    /// Honest refusal — retarget, no evidence.
    Refused(ReadRefusal),
    /// Refuted response — evidence filed against the server.
    Refuted(ReadFault),
    /// No (matching) response before the deadline.
    TimedOut,
}

impl ClientSession {
    /// Assembles a session (normally via
    /// [`crate::system::FidesCluster::client`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u32,
        endpoint: Endpoint,
        keypair: KeyPair,
        directory: Directory,
        partitioner: Partitioner,
        server_pks: Vec<PublicKey>,
        oracle: TimestampOracle,
        protocol: CommitProtocol,
    ) -> Self {
        ClientSession {
            id,
            endpoint,
            keypair,
            directory,
            partitioner,
            server_pks,
            oracle,
            protocol,
            seq: 0,
            op_timeout: Duration::from_secs(10),
            stash: std::collections::VecDeque::new(),
            read: None,
            sampler: Sampler::from_env(),
            // Node tags are 16-bit; ids above the 61 440 client-tag
            // slots wrap rather than panic.
            spans: Arc::new(SpanSink::new(
                CLIENT_TAG_BASE + (id as u64 % ((1 << 16) - CLIENT_TAG_BASE)),
                CLIENT_SPAN_CAPACITY,
            )),
        }
    }

    /// Attaches the verified read plane: the trusted genesis composite
    /// roots (one per shard — the same standing trust as the server
    /// public keys) and the shared evidence sink refuted reads are
    /// filed into. Normally wired by
    /// [`crate::system::FidesCluster::client`].
    pub fn with_read_context(
        mut self,
        genesis_roots: Vec<Digest>,
        evidence: Arc<parking_lot::Mutex<Vec<ReadEvidence>>>,
    ) -> Self {
        self.read = Some(ReadContext {
            registry: RootRegistry::new(self.server_pks.clone(), genesis_roots),
            evidence,
            next_target: self.id % self.partitioner.n_servers(),
            req_seq: 0,
            stats: ReadStats::default(),
            no_mirror: std::collections::HashMap::new(),
            timed_out: std::collections::HashMap::new(),
        });
        self
    }

    /// Drains the accumulated verified-read metrics (the root
    /// registry's cache counters folded in).
    pub fn take_read_stats(&mut self) -> ReadStats {
        self.read
            .as_mut()
            .map(|ctx| {
                let mut stats = std::mem::take(&mut ctx.stats);
                stats.registry = ctx.registry.stats.take();
                stats
            })
            .unwrap_or_default()
    }

    /// The newest co-signed chain tip this client has evidence for.
    pub fn known_tip(&self) -> u64 {
        self.read.as_ref().map_or(0, |ctx| ctx.registry.known_tip())
    }

    /// This client's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Starts a new transaction (Figure 5 step 1 is implicit in its
    /// first request to each server).
    pub fn begin(&mut self) -> TxnCtx {
        self.seq += 1;
        TxnCtx {
            handle: TxnHandle {
                client: self.id,
                seq: self.seq,
            },
            reads: Vec::new(),
            read_keys: HashSet::new(),
            writes: Vec::new(),
        }
    }

    fn send_to(&self, server: u32, msg: &Message) {
        self.send_to_traced(server, msg, None);
    }

    fn send_to_traced(&self, server: u32, msg: &Message, trace: Option<TraceContext>) {
        let env = Envelope::sign_traced(
            &self.keypair,
            client_node(self.id),
            server_node(server),
            msg.encode(),
            trace,
        );
        self.endpoint.send(env);
    }

    /// Decides whether this commit is traced and allocates its ids.
    fn sample_commit(&self) -> Option<ClientTrace> {
        self.sampler.sample().then(|| ClientTrace {
            trace_id: self.spans.next_id(),
            root_span: self.spans.next_id(),
            start_ns: now_ns(),
        })
    }

    /// Closes a sampled commit's `client.commit` root span — the
    /// client-observed round trip, submission to resolved outcome.
    fn close_commit_trace(&self, trace: Option<ClientTrace>, handle: TxnHandle) {
        if let Some(t) = trace {
            self.spans.close(
                t.trace_id,
                t.root_span,
                0,
                "client.commit",
                t.start_ns,
                handle.seq,
            );
        }
    }

    /// This client's finished spans (sampled `client.commit` round
    /// trips) — append to [`crate::FidesCluster::dump_traces`] output
    /// for the complete cross-node picture.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.snapshot()
    }

    /// Waits for a message `want` accepts; `want` hands back what it
    /// declines. Declined commit traffic the leader sent for other
    /// in-flight transactions is stashed for
    /// [`ClientSession::drain_outcomes`]; anything else is dropped.
    fn wait_for<T>(
        &mut self,
        what: &'static str,
        want: impl FnMut(NodeId, Message) -> Result<T, Box<Message>>,
    ) -> Result<T, ClientError> {
        let deadline = Instant::now() + self.op_timeout;
        self.wait_for_until(what, deadline, want)
    }

    /// [`ClientSession::wait_for`] against an explicit deadline.
    fn wait_for_until<T>(
        &mut self,
        what: &'static str,
        deadline: Instant,
        mut want: impl FnMut(NodeId, Message) -> Result<T, Box<Message>>,
    ) -> Result<T, ClientError> {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(ClientError::Timeout(what));
            }
            match self.endpoint.recv_timeout(deadline - now) {
                Ok(env) => {
                    let Some(pk) = self.directory.get(&env.from) else {
                        continue;
                    };
                    if !env.verify(pk) {
                        continue;
                    }
                    let Ok(msg) = Message::decode(&env.payload) else {
                        continue;
                    };
                    if let (Message::SnapshotReadResp { .. }, Some(ctx)) = (&msg, &mut self.read) {
                        // A read response, even a late one, shows that its
                        // server is up: it leaves the back of the rotation.
                        ctx.timed_out.remove(&env.from.raw());
                    }
                    match want(env.from, msg) {
                        Ok(out) => return Ok(out),
                        Err(msg) => self.keep_commit_traffic(env.from, *msg),
                    }
                }
                Err(fides_net::RecvError::Timeout) => return Err(ClientError::Timeout(what)),
                Err(fides_net::RecvError::Disconnected) => return Err(ClientError::Disconnected),
            }
        }
    }

    /// Stashes `msg` for [`ClientSession::drain_outcomes`] when it is
    /// commit traffic signed by the leader. Handles are sequential, so
    /// any node can guess one: an outcome or rejection from anyone else
    /// is dropped, and cannot end, retry or drop a commit.
    fn keep_commit_traffic(&mut self, from: NodeId, msg: Message) {
        if from == LEADER
            && matches!(
                msg,
                Message::Outcome { .. } | Message::EndTxnRejected { .. }
            )
        {
            self.stash.push_back(msg);
        }
    }

    /// Reads one item (Figure 5 steps 2–3): a one-key
    /// [`ClientSession::read_all`]. The observed value and timestamps
    /// join the read set.
    ///
    /// # Errors
    ///
    /// [`ClientError::NoSuchKey`] if the owning server does not store
    /// the key; timeout/disconnect errors on network failure.
    pub fn read(&mut self, txn: &mut TxnCtx, key: &Key) -> Result<Value, ClientError> {
        let mut values = self.read_all(txn, std::slice::from_ref(key))?;
        Ok(values.pop().expect("one value per key"))
    }

    /// Adds a write to the transaction's write set (Figure 5 steps 2–3)
    /// after a round trip to the owning server. For a blind write (key
    /// not previously read) the acknowledgement's old value is recorded
    /// in the write set (§4.2.1).
    pub fn write(&mut self, txn: &mut TxnCtx, key: &Key, value: Value) -> Result<(), ClientError> {
        let server = self.partitioner.owner(key);
        self.send_to(
            server,
            &Message::Write {
                txn: txn.handle,
                key: key.clone(),
                value: value.clone(),
            },
        );
        let handle = txn.handle;
        let want_key = key.clone();
        let want_from = server_node(server);
        let old = self.wait_for("write ack", move |from, msg| match msg {
            Message::WriteAck {
                txn: t,
                key: k,
                old,
            } if t == handle && k == want_key && from == want_from => Ok(old),
            other => Err(Box::new(other)),
        })?;

        let was_read = txn.read_keys.contains(key);
        let (old_value, rts, wts) = match (&old, was_read) {
            // Blind write: remember the pre-image (§4.2.1).
            (Some((v, r, w)), false) => (Some(v.clone()), *r, *w),
            // Read-then-write: the read entry already holds the pre-image.
            (Some((_, r, w)), true) => (None, *r, *w),
            (None, _) => (None, Timestamp::ZERO, Timestamp::ZERO),
        };
        if let Some((_, r, w)) = &old {
            self.oracle.advance_to(r.counter().max(w.counter()));
        }
        txn.writes.push(WriteEntry {
            key: key.clone(),
            new_value: value,
            old_value,
            rts,
            wts,
        });
        Ok(())
    }

    /// Terminates the transaction (Figure 5 steps 4–8): assigns the
    /// commit timestamp, sends the end-transaction request to the
    /// coordinator, waits for the signed block, verifies the collective
    /// signature and extracts the decision.
    ///
    /// # Errors
    ///
    /// Network errors; [`ClientError::RetriesExhausted`] if the
    /// coordinator keeps rejecting our timestamps.
    pub fn commit(&mut self, txn: TxnCtx) -> Result<TxnOutcome, ClientError> {
        let handle = txn.handle;
        // One sampling decision per transaction; retries re-send the
        // same context, so the whole retry tail lands in one trace.
        let trace = self.sample_commit();
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > 16 {
                return Err(ClientError::RetriesExhausted);
            }
            let ts = Timestamp::new(self.oracle.next(), self.id);
            let record = TxnRecord {
                id: ts,
                read_set: txn.reads.clone(),
                write_set: txn.writes.clone(),
            };
            self.send_to_traced(
                COORDINATOR_IDX,
                &Message::EndTxn { handle, record },
                trace.map(|t| t.ctx()),
            );

            enum Reply {
                Outcome(Box<Block>),
                Rejected(Timestamp),
            }
            let reply = self.wait_for("transaction outcome", |from, msg| match msg {
                Message::Outcome { handles, block }
                    if from == LEADER && handles.contains(&handle) =>
                {
                    Ok(Reply::Outcome(Box::new(block)))
                }
                Message::EndTxnRejected { handle: h, hint } if from == LEADER && h == handle => {
                    Ok(Reply::Rejected(hint))
                }
                other => Err(Box::new(other)),
            })?;

            match reply {
                Reply::Rejected(hint) => {
                    self.oracle.advance_to(hint.counter());
                    continue;
                }
                Reply::Outcome(block) => {
                    let block = *block;
                    // The round trip is over whatever the verdict —
                    // close the sampled root span before classifying.
                    self.close_commit_trace(trace, handle);
                    // §4.3.1 phase 5: "The client, with the public keys of
                    // all the servers, verifies the co-sign before
                    // accepting the decision."
                    if self.protocol == CommitProtocol::TfCommit
                        && !block
                            .cosign
                            .verify(&block.signing_bytes(), &self.server_pks)
                    {
                        return Ok(TxnOutcome::Anomaly { ts });
                    }
                    // A verified outcome feeds the read plane's root
                    // registry for free (commit roots only — an abort
                    // block's roots are speculative).
                    if let Some(ctx) = &mut self.read {
                        if block.decision == Decision::Commit {
                            ctx.registry
                                .note_verified_roots(block.height + 1, &block.roots);
                        } else {
                            ctx.registry.note_tip(block.height + 1);
                        }
                    }
                    self.oracle
                        .advance_to(block.max_txn_ts().map_or(0, |t| t.counter()));
                    let height = block.height;
                    let committed =
                        block.decision == Decision::Commit && block.txns.iter().any(|t| t.id == ts);
                    return Ok(if committed {
                        TxnOutcome::Committed { ts, height }
                    } else {
                        TxnOutcome::Aborted { ts, height }
                    });
                }
            }
        }
    }

    /// Receives until at least one authenticated message is available,
    /// draining the transport in bursts whose signatures are checked
    /// on arrival ([`fides_net::Endpoint::recv_verified_burst`]). Each
    /// message comes with the node that signed it.
    fn recv_auth_burst(
        &mut self,
        deadline: Instant,
    ) -> Result<Vec<(NodeId, Message)>, ClientError> {
        const MAX_BURST: usize = 32;
        loop {
            let burst =
                match self
                    .endpoint
                    .recv_verified_burst(deadline, &self.directory, MAX_BURST)
                {
                    Ok(burst) => burst,
                    Err(fides_net::RecvError::Timeout) => {
                        return Err(ClientError::Timeout("batched responses"))
                    }
                    Err(fides_net::RecvError::Disconnected) => {
                        return Err(ClientError::Disconnected)
                    }
                };
            let messages: Vec<(NodeId, Message)> = burst
                .iter()
                .filter_map(|env| Some((env.from, Message::decode(&env.payload).ok()?)))
                .collect();
            if !messages.is_empty() {
                return Ok(messages);
            }
        }
    }

    /// Reads several **distinct** keys in one shot: the keys are
    /// grouped by owning server and each group goes out as **one**
    /// signed [`Message::ReadMany`]; the per-server responses come back
    /// with burst batch-verified signatures. One round of waiting and
    /// roughly one signature per *server* instead of per *key* — the
    /// execution layer's answer to block batching. Values return in
    /// input order; all entries join the read set.
    ///
    /// # Errors
    ///
    /// [`ClientError::NoSuchKey`] if any key is absent; network errors.
    pub fn read_all(&mut self, txn: &mut TxnCtx, keys: &[Key]) -> Result<Vec<Value>, ClientError> {
        use std::collections::HashMap;
        // No explicit `Begin` round: reads need no server-side state, so
        // Figure 5 step 1 is implicit in the first operation.
        let mut per_server: HashMap<u32, Vec<Key>> = HashMap::new();
        for key in keys {
            per_server
                .entry(self.partitioner.owner(key))
                .or_default()
                .push(key.clone());
        }
        for (server, group) in per_server {
            self.send_to(
                server,
                &Message::ReadMany {
                    txn: txn.handle,
                    keys: group,
                },
            );
        }
        let wanted: HashSet<&Key> = keys.iter().collect();
        let mut entries: HashMap<Key, ReadEntry> = HashMap::new();
        let deadline = Instant::now() + self.op_timeout;
        while entries.len() < wanted.len() {
            for (from, msg) in self.recv_auth_burst(deadline)? {
                match msg {
                    Message::ReadManyResp { txn: t, items } if t == txn.handle => {
                        for (key, state) in items {
                            // Only the key's owner answers for it: an
                            // item another server planted is dropped.
                            if !wanted.contains(&key)
                                || from != server_node(self.partitioner.owner(&key))
                            {
                                continue;
                            }
                            let Some((value, rts, wts)) = state else {
                                return Err(ClientError::NoSuchKey(key));
                            };
                            entries.entry(key.clone()).or_insert(ReadEntry {
                                key,
                                value,
                                rts,
                                wts,
                            });
                        }
                    }
                    msg => self.keep_commit_traffic(from, msg),
                }
            }
        }
        let mut values = Vec::with_capacity(keys.len());
        for key in keys {
            // `get` rather than `remove`: a duplicate key in the input
            // yields one read request but two read-set entries, exactly
            // like two sequential `read` calls would.
            let entry = entries.get(key).cloned().expect("collected above");
            self.oracle
                .advance_to(entry.rts.counter().max(entry.wts.counter()));
            values.push(entry.value.clone());
            txn.read_keys.insert(entry.key.clone());
            txn.reads.push(entry);
        }
        Ok(values)
    }

    /// Buffers writes to several **distinct** keys in one shot — the
    /// batched counterpart of [`ClientSession::write`].
    ///
    /// Writes to keys **already read in this transaction** are buffered
    /// purely client-side: the owner's write-ack round trip would only
    /// repeat metadata the read already returned (commit-time OCC
    /// validates against the owner's live state either way, and the
    /// block carries the full write set). Blind writes still consult
    /// the owner for the pre-image (§4.2.1); their acks are collected
    /// with burst batch-verified signatures.
    ///
    /// # Errors
    ///
    /// Network errors (timeout, disconnect).
    pub fn write_all(
        &mut self,
        txn: &mut TxnCtx,
        writes: &[(Key, Value)],
    ) -> Result<(), ClientError> {
        use std::collections::HashMap;
        let mut blind: Vec<&(Key, Value)> = Vec::new();
        for entry @ (key, value) in writes {
            if txn.read_keys.contains(key) {
                // Read-then-write: the read entry already pinned the
                // version this write supersedes.
                let (rts, wts) = txn
                    .reads
                    .iter()
                    .find(|r| &r.key == key)
                    .map(|r| (r.rts, r.wts))
                    .unwrap_or((Timestamp::ZERO, Timestamp::ZERO));
                txn.writes.push(WriteEntry {
                    key: key.clone(),
                    new_value: value.clone(),
                    old_value: None,
                    rts,
                    wts,
                });
            } else {
                blind.push(entry);
            }
        }
        if blind.is_empty() {
            return Ok(());
        }
        for (key, value) in &blind {
            let server = self.partitioner.owner(key);
            self.send_to(
                server,
                &Message::Write {
                    txn: txn.handle,
                    key: key.clone(),
                    value: value.clone(),
                },
            );
        }
        let wanted: HashSet<&Key> = blind.iter().map(|(k, _)| k).collect();
        type OldState = Option<(Value, Timestamp, Timestamp)>;
        let mut acks: HashMap<Key, OldState> = HashMap::new();
        let deadline = Instant::now() + self.op_timeout;
        while acks.len() < wanted.len() {
            for (from, msg) in self.recv_auth_burst(deadline)? {
                match msg {
                    Message::WriteAck { txn: t, key, old }
                        if t == txn.handle
                            && wanted.contains(&key)
                            && from == server_node(self.partitioner.owner(&key)) =>
                    {
                        acks.entry(key).or_insert(old);
                    }
                    msg => self.keep_commit_traffic(from, msg),
                }
            }
        }
        for (key, value) in &blind {
            // `get` rather than `remove`: duplicate blind-write keys
            // share one ack but still produce one write entry each.
            let old = acks.get(key).cloned().expect("collected above");
            let (old_value, rts, wts) = match &old {
                Some((v, r, w)) => (Some(v.clone()), *r, *w),
                None => (None, Timestamp::ZERO, Timestamp::ZERO),
            };
            if let Some((_, r, w)) = &old {
                self.oracle.advance_to(r.counter().max(w.counter()));
            }
            txn.writes.push(WriteEntry {
                key: key.clone(),
                new_value: value.clone(),
                old_value,
                rts,
                wts,
            });
        }
        Ok(())
    }

    /// Starts terminating `txn` **without blocking**: the
    /// end-transaction request is sent and a [`PendingCommit`] records
    /// what is needed to retry and to classify the outcome. Combine
    /// with [`ClientSession::drain_outcomes`] to keep several
    /// transactions in flight, then [`finalize_outcomes`] to verify all
    /// their collective signatures **in one batch** — the client-side
    /// ride on `verify_batch` instead of one full Schnorr verification
    /// per outcome.
    pub fn commit_async(&mut self, txn: TxnCtx) -> PendingCommit {
        let trace = self.sample_commit();
        let ts = Timestamp::new(self.oracle.next(), self.id);
        let record = TxnRecord {
            id: ts,
            read_set: txn.reads.clone(),
            write_set: txn.writes.clone(),
        };
        self.send_to_traced(
            COORDINATOR_IDX,
            &Message::EndTxn {
                handle: txn.handle,
                record: record.clone(),
            },
            trace.map(|t| t.ctx()),
        );
        PendingCommit {
            handle: txn.handle,
            ts,
            record,
            attempts: 1,
            trace,
        }
    }

    /// Services the in-flight commits of a pipelined client: receives
    /// until `deadline` (or until every pending commit resolved),
    /// retrying rejected timestamps, and returns the **unverified**
    /// outcomes that arrived. Resolved entries are removed from
    /// `pending`.
    ///
    /// The returned outcomes' collective signatures have *not* been
    /// checked yet — pass them (in any quantity, across calls) to
    /// [`finalize_outcomes`], which batch-verifies all of them at once.
    pub fn drain_outcomes(
        &mut self,
        pending: &mut Vec<PendingCommit>,
        deadline: Instant,
    ) -> Vec<UnverifiedOutcome> {
        let mut resolved = Vec::new();
        let mut queue: Vec<(NodeId, Message)> = Vec::new();
        while !pending.is_empty() {
            // Commit traffic stashed during execution-phase waits first,
            // then bursts off the wire (signatures batch-verified —
            // a block's outcomes land together after the covering
            // fsync, so bursts are the common case). Only the leader's
            // count: the stash holds nothing else.
            let msg = if let Some(msg) = self.stash.pop_front() {
                msg
            } else if let Some((from, msg)) = queue.pop() {
                if from != LEADER {
                    continue;
                }
                msg
            } else {
                if Instant::now() >= deadline {
                    break;
                }
                match self.recv_auth_burst(deadline) {
                    Ok(mut messages) => {
                        // Reversed: pop() restores arrival order.
                        messages.reverse();
                        queue = messages;
                        continue;
                    }
                    Err(_) => break,
                }
            };
            match msg {
                Message::Outcome { handles, block } => {
                    self.oracle
                        .advance_to(block.max_txn_ts().map_or(0, |t| t.counter()));
                    let block = Box::new(block);
                    for handle in handles {
                        if let Some(at) = pending.iter().position(|p| p.handle == handle) {
                            let commit = pending.swap_remove(at);
                            self.close_commit_trace(commit.trace, handle);
                            resolved.push(UnverifiedOutcome {
                                handle,
                                ts: commit.ts,
                                block: block.clone(),
                            });
                        }
                    }
                }
                Message::EndTxnRejected { handle, hint } => {
                    if let Some(commit) = pending.iter_mut().find(|p| p.handle == handle) {
                        self.oracle.advance_to(hint.counter());
                        commit.attempts += 1;
                        if commit.attempts > 16 {
                            // Give up: the commit is dropped from
                            // `pending` and produces **no** outcome —
                            // callers account for it as the difference
                            // between submissions and finalized
                            // outcomes (mirrors the synchronous path's
                            // `RetriesExhausted`).
                            let at = pending
                                .iter()
                                .position(|p| p.handle == handle)
                                .expect("found above");
                            let _ = pending.swap_remove(at);
                            continue;
                        }
                        let ts = Timestamp::new(self.oracle.next(), self.id);
                        commit.ts = ts;
                        commit.record.id = ts;
                        let msg = Message::EndTxn {
                            handle,
                            record: commit.record.clone(),
                        };
                        let trace = commit.trace.map(|t| t.ctx());
                        self.send_to_traced(COORDINATOR_IDX, &msg, trace);
                    }
                }
                _ => {}
            }
        }
        resolved
    }

    /// Convenience: a read-modify-write transaction over `keys`, adding
    /// `delta` to each numeric value — the benchmark's 5-operation
    /// multi-record transaction shape (§6).
    pub fn run_rmw(&mut self, keys: &[Key], delta: i64) -> Result<TxnOutcome, ClientError> {
        let mut txn = self.begin();
        let mut staged = Vec::with_capacity(keys.len());
        for key in keys {
            let value = self.read(&mut txn, key)?;
            let next = Value::from_i64(value.as_i64().unwrap_or(0) + delta);
            staged.push((key.clone(), next));
        }
        for (key, next) in staged {
            self.write(&mut txn, &key, next)?;
        }
        self.commit(txn)
    }

    /// [`ClientSession::run_rmw`] on the batched execution path: all
    /// reads go out together (burst-verified responses), read-then-write
    /// writes buffer client-side, and the outcome is verified
    /// synchronously — the closed-loop shape with batch-priced crypto.
    pub fn run_rmw_batched(&mut self, keys: &[Key], delta: i64) -> Result<TxnOutcome, ClientError> {
        let mut txn = self.begin();
        let values = self.read_all(&mut txn, keys)?;
        let writes: Vec<(Key, Value)> = keys
            .iter()
            .zip(values)
            .map(|(key, value)| {
                (
                    key.clone(),
                    Value::from_i64(value.as_i64().unwrap_or(0) + delta),
                )
            })
            .collect();
        self.write_all(&mut txn, &writes)?;
        self.commit(txn)
    }

    /// Overrides the per-operation timeout (tests exercising crash
    /// paths use short values).
    pub fn set_op_timeout(&mut self, timeout: Duration) {
        self.op_timeout = timeout;
    }

    // ------------------------------------------------------------------
    // The verified read plane (see `docs/reads.md`): a read-only
    // transaction is one request to one server, which answers every
    // shard it touches; the client verifies every value (and every
    // absence) against a cached co-signed root, and the read never
    // enters a commit round.
    // ------------------------------------------------------------------

    /// Reads `keys` without a commit round, proof-verifying every
    /// value (and absence) client-side. Keys are grouped per owning
    /// shard. For [`ReadConsistency::Fresh`] each group goes to its
    /// owner, one request per owner. For bounded-staleness and pinned
    /// reads one server, picked round-robin across owners **and**
    /// checkpoint-mirror holders, answers every group in one request
    /// and one signed response; a group whose shard that server
    /// recently had no mirror of goes to the next server in the
    /// rotation instead. Groups that are refused, refuted or unanswered
    /// retry per shard, with owner fallback. Returns values in input
    /// order; `None` = proven absent.
    ///
    /// A server answering with a forged value, a forged absence, or a
    /// stale-beyond-bound root is refuted here and filed as
    /// [`ReadEvidence`] for the audit; honest refusals (repairing, no
    /// mirror, too stale) retarget silently.
    ///
    /// The whole read shares one op-timeout. Each server asked gets a
    /// share of what remains of it, split over the servers still left
    /// to try, so an unresponsive target costs part of the budget, not
    /// all of it.
    ///
    /// # Errors
    ///
    /// [`ClientError::NoReadContext`] without a read context; timeout/
    /// refusal/refutation errors when no eligible server could serve.
    pub fn read_only(
        &mut self,
        keys: &[Key],
        consistency: ReadConsistency,
    ) -> Result<Vec<Option<Value>>, ClientError> {
        use std::collections::HashMap;
        if self.read.is_none() {
            return Err(ClientError::NoReadContext);
        }
        let mut groups: Vec<(u32, Vec<Key>)> = Vec::new();
        for key in keys {
            let shard = self.partitioner.owner(key);
            match groups.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, group)) if group.contains(key) => {}
                Some((_, group)) => group.push(key.clone()),
                None => groups.push((shard, vec![key.clone()])),
            }
        }
        let deadline = Instant::now() + self.op_timeout;
        let mut resolved: HashMap<Key, Option<Value>> = HashMap::new();
        for idx in self.read_groups(&groups, consistency, deadline, &mut resolved)? {
            let (shard, group) = &groups[idx];
            let verified = self.read_shard(*shard, group, consistency, deadline)?;
            for (key, value) in group.iter().zip(verified.values) {
                resolved.insert(key.clone(), value);
            }
        }
        Ok(keys
            .iter()
            .map(|k| resolved.get(k).cloned().expect("every key resolved"))
            .collect())
    }

    /// The fast path of [`ClientSession::read_only`]: one
    /// `SnapshotRead` per planned target, carrying every group planned
    /// for it, all outstanding at once. The targets are each group's
    /// first candidate, so they wait for one candidate's share of the
    /// read's `deadline`. Verified groups land in `resolved`; the
    /// returned indices need the per-shard fallback.
    fn read_groups(
        &mut self,
        groups: &[(u32, Vec<Key>)],
        consistency: ReadConsistency,
        deadline: Instant,
        resolved: &mut std::collections::HashMap<Key, Option<Value>>,
    ) -> Result<Vec<usize>, ClientError> {
        let n = self.partitioner.n_servers();
        let candidates = match consistency {
            ReadConsistency::Fresh => 1,
            _ => n,
        };
        let ctx = self.read.as_mut().expect("checked by caller");
        let start = ctx.next_rotation(n);
        // (target, its group indices).
        let mut plan: Vec<(u32, Vec<usize>)> = Vec::new();
        for (idx, (shard, _)) in groups.iter().enumerate() {
            let target = match consistency {
                ReadConsistency::Fresh => *shard,
                _ => ctx.eligible(*shard, start, n).next().unwrap_or(*shard),
            };
            match plan.iter_mut().find(|(t, _)| *t == target) {
                Some((_, idxs)) => idxs.push(idx),
                None => plan.push((target, vec![idx])),
            }
        }
        let (min_covered, pinned) = self.read_bounds(consistency);
        // (request id, target, its group indices).
        let mut outstanding: Vec<(u64, u32, Vec<usize>)> = plan
            .into_iter()
            .map(|(target, idxs)| {
                let parts = idxs.iter().map(|&i| groups[i].clone()).collect();
                let req = self.send_read(target, parts, min_covered, pinned);
                (req, target, idxs)
            })
            .collect();
        let deadline = candidate_deadline(deadline, candidates);
        let mut fallback: Vec<usize> = Vec::new();
        while !outstanding.is_empty() {
            // Only the asked server's response counts: another server
            // answering a request id first is dropped, never taken for
            // (or blamed on) the target.
            let asked: Vec<(u64, NodeId)> = outstanding
                .iter()
                .map(|(req, target, _)| (*req, server_node(*target)))
                .collect();
            let reply = self.wait_for_until("snapshot reads", deadline, |from, msg| match msg {
                Message::SnapshotReadResp { req, parts } if asked.contains(&(req, from)) => {
                    Ok((req, parts))
                }
                other => Err(Box::new(other)),
            });
            let (req, parts) = match reply {
                Ok(reply) => reply,
                Err(ClientError::Timeout(_)) => break,
                Err(e) => return Err(e),
            };
            let at = outstanding
                .iter()
                .position(|(r, ..)| *r == req)
                .expect("outstanding");
            let (_, target, idxs) = outstanding.swap_remove(at);
            for idx in idxs {
                let (shard, group) = &groups[idx];
                let attempt = parts
                    .iter()
                    .find(|part| part.shard == *shard)
                    .map(|part| self.check_part(target, group, min_covered, pinned, part));
                match attempt {
                    Some(ReadAttempt::Ok(verified)) => {
                        for (key, value) in group.iter().zip(verified.values) {
                            resolved.insert(key.clone(), value);
                        }
                    }
                    _ => fallback.push(idx),
                }
            }
        }
        // Anything still outstanding timed out: its target moves to the
        // back of the rotation, and its groups fall back.
        let ctx = self.read.as_mut().expect("checked by caller");
        for (_, target, idxs) in outstanding {
            ctx.timed_out.insert(target, Instant::now());
            fallback.extend(idxs);
        }
        Ok(fallback)
    }

    /// The coverage a read under `consistency` demands given this
    /// client's known tip, and its pinned height.
    fn read_bounds(&self, consistency: ReadConsistency) -> (u64, Option<u64>) {
        let pinned = match consistency {
            ReadConsistency::AtHeight(h) => Some(h),
            _ => None,
        };
        (consistency.min_covered(self.known_tip()), pinned)
    }

    /// Signs and sends one `SnapshotRead` of `parts` to `target`;
    /// returns its request id.
    fn send_read(
        &mut self,
        target: u32,
        parts: Vec<(u32, Vec<Key>)>,
        min_covered: u64,
        at_height: Option<u64>,
    ) -> u64 {
        let ctx = self.read.as_mut().expect("checked by caller");
        let req = ctx.req_seq;
        ctx.req_seq += 1;
        self.send_to(
            target,
            &Message::SnapshotRead {
                req,
                parts,
                min_covered,
                at_height,
            },
        );
        req
    }

    /// Checks one part `target` answered for `keys`: counts a refusal
    /// (and remembers a missing mirror), or verifies the proofs,
    /// updating stats and filing evidence against `target` on an
    /// evidence-grade fault.
    fn check_part(
        &mut self,
        target: u32,
        keys: &[Key],
        min_covered: u64,
        pinned: Option<u64>,
        part: &ReadPart,
    ) -> ReadAttempt {
        let shard = part.shard;
        let ctx = self.read.as_mut().expect("read context exists");
        let served = match &part.result {
            Ok(served) => served,
            Err(reason) => {
                ctx.stats.refusals += 1;
                if matches!(reason, ReadRefusal::NoSnapshot) {
                    ctx.no_mirror.insert((target, shard), Instant::now());
                }
                return ReadAttempt::Refused(*reason);
            }
        };
        let t0 = Instant::now();
        let result = verify_read(
            &mut ctx.registry,
            &ReadResponse {
                server: target,
                shard,
                root_height: served.root_height,
                covered_height: served.covered_height,
                header: served.header.as_deref(),
                proof: &served.proof,
            },
            keys,
            min_covered,
            pinned,
        );
        ctx.stats.verify_ns.record_duration(t0.elapsed());
        match result {
            Ok(verified) => {
                ctx.stats.reads += 1;
                ctx.stats.keys_read += keys.len() as u64;
                ctx.stats.staleness.record(verified.staleness);
                ReadAttempt::Ok(verified)
            }
            Err(fault) => {
                if fault.is_evidence() {
                    /// Evidence cap (a retry loop against a persistent
                    /// forger must not grow it forever).
                    const MAX_READ_EVIDENCE: usize = 512;
                    let evidence = ReadEvidence {
                        server: target,
                        shard,
                        fault: fault.clone(),
                    };
                    let mut sink = ctx.evidence.lock();
                    if sink.len() < MAX_READ_EVIDENCE && sink.last() != Some(&evidence) {
                        sink.push(evidence);
                    }
                }
                ReadAttempt::Refuted(fault)
            }
        }
    }

    /// One shard's read: candidate servers tried round-robin (owner
    /// only under `Fresh`), cycling until success or `deadline`. Each
    /// candidate waits for its share of the time left: the remainder
    /// split over the candidates not yet tried in this cycle.
    fn read_shard(
        &mut self,
        shard: u32,
        keys: &[Key],
        consistency: ReadConsistency,
        deadline: Instant,
    ) -> Result<VerifiedRead, ClientError> {
        let n = self.partitioner.n_servers();
        let candidates: Vec<u32> = match consistency {
            // Only the owner is guaranteed fresh (a mirror could serve
            // Fresh only in the no-new-blocks race; not worth the hop).
            ReadConsistency::Fresh => vec![shard],
            _ => {
                let ctx = self.read.as_mut().expect("checked by caller");
                let start = ctx.next_rotation(n);
                ctx.eligible(shard, start, n).collect()
            }
        };
        let mut last_refusal: Option<ReadRefusal> = None;
        let mut last_fault: Option<ReadFault> = None;
        loop {
            // Transient outcomes (a Fresh read racing a commit apply, a
            // repairing peer, a timeout) are worth another cycle;
            // deterministic ones (a refuted forgery, no mirror held)
            // are not — retrying would only spin out the op-timeout.
            let mut transient = false;
            for (tried, &target) in candidates.iter().enumerate() {
                if Instant::now() >= deadline {
                    break;
                }
                let share = candidate_deadline(deadline, (candidates.len() - tried) as u32);
                match self.try_read_from(target, shard, keys, consistency, share)? {
                    ReadAttempt::Ok(verified) => return Ok(verified),
                    ReadAttempt::Refused(reason) => {
                        transient |= !matches!(reason, ReadRefusal::NoSnapshot);
                        last_refusal = Some(reason);
                    }
                    ReadAttempt::Refuted(fault) => last_fault = Some(fault),
                    ReadAttempt::TimedOut => {
                        transient = true;
                        let ctx = self.read.as_mut().expect("checked by caller");
                        ctx.timed_out.insert(target, Instant::now());
                    }
                }
            }
            if !transient || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_micros(300));
        }
        Err(match (last_fault, last_refusal) {
            (Some(fault), _) => ClientError::ReadRefuted(fault),
            (None, Some(reason)) => ClientError::ReadRefused(reason),
            (None, None) => ClientError::Timeout("snapshot read"),
        })
    }

    /// A single verified read against a specific server, **no**
    /// fallback — the building block of the per-shard fallback and the
    /// direct hook tests/benches use to target mirrors or Byzantine
    /// servers. All keys must belong to one shard.
    ///
    /// # Errors
    ///
    /// Network errors, [`ClientError::ReadRefused`] on an honest
    /// refusal, [`ClientError::ReadRefuted`] when the response failed
    /// verification (evidence filed).
    pub fn read_only_from(
        &mut self,
        server: u32,
        keys: &[Key],
        consistency: ReadConsistency,
    ) -> Result<VerifiedRead, ClientError> {
        if self.read.is_none() {
            return Err(ClientError::NoReadContext);
        }
        let shard = self.partitioner.owner(&keys[0]);
        debug_assert!(
            keys.iter().all(|k| self.partitioner.owner(k) == shard),
            "read_only_from takes keys of one shard"
        );
        let deadline = Instant::now() + self.op_timeout;
        match self.try_read_from(server, shard, keys, consistency, deadline)? {
            ReadAttempt::Ok(verified) => Ok(verified),
            ReadAttempt::Refused(reason) => Err(ClientError::ReadRefused(reason)),
            ReadAttempt::Refuted(fault) => Err(ClientError::ReadRefuted(fault)),
            ReadAttempt::TimedOut => Err(ClientError::Timeout("snapshot read")),
        }
    }

    /// Sends one single-shard `SnapshotRead` and classifies the
    /// outcome. On an unknown-root response the registry is refreshed
    /// (one `RootQuery`) and the read retried once.
    fn try_read_from(
        &mut self,
        target: u32,
        shard: u32,
        keys: &[Key],
        consistency: ReadConsistency,
        deadline: Instant,
    ) -> Result<ReadAttempt, ClientError> {
        let mut refreshed = false;
        loop {
            let (min_covered, pinned) = self.read_bounds(consistency);
            let req = self.send_read(target, vec![(shard, keys.to_vec())], min_covered, pinned);
            let want_from = server_node(target);
            let reply =
                self.wait_for_until("snapshot read", deadline, move |from, msg| match msg {
                    Message::SnapshotReadResp { req: r, parts }
                        if r == req
                            && from == want_from
                            && parts.iter().any(|part| part.shard == shard) =>
                    {
                        Ok(parts)
                    }
                    other => Err(Box::new(other)),
                });
            let parts = match reply {
                Ok(parts) => parts,
                Err(ClientError::Timeout(_)) => return Ok(ReadAttempt::TimedOut),
                Err(e) => return Err(e),
            };
            let part = parts.iter().find(|part| part.shard == shard);
            match self.check_part(target, keys, min_covered, pinned, part.expect("matched")) {
                ReadAttempt::Refuted(ReadFault::UnknownRoot { .. }) if !refreshed => {
                    // Client-side ignorance, not misbehaviour: learn the
                    // newer co-signed roots and retry once.
                    refreshed = true;
                    self.refresh_roots(target, shard, deadline)?;
                }
                attempt => return Ok(attempt),
            }
        }
    }

    /// Pulls recent co-signed headers from `target` into the registry
    /// (each header's collective signature is verified before any root
    /// is trusted; a forged one is filed as evidence).
    fn refresh_roots(
        &mut self,
        target: u32,
        shard: u32,
        deadline: Instant,
    ) -> Result<(), ClientError> {
        let from_height = self.known_tip();
        self.send_to(target, &Message::RootQuery { from: from_height });
        let want_from = server_node(target);
        let headers =
            self.wait_for_until("root announce", deadline, move |from, msg| match msg {
                Message::RootAnnounce { headers } if from == want_from => Ok(headers),
                other => Err(Box::new(other)),
            })?;
        let ctx = self.read.as_mut().expect("read context exists");
        for header in &headers {
            if ctx.registry.note_header(header).is_err() {
                ctx.evidence.lock().push(ReadEvidence {
                    server: target,
                    shard,
                    fault: ReadFault::ForgedHeader,
                });
                break;
            }
        }
        Ok(())
    }
}

/// The deadline for the next of `candidates` servers still to try
/// before `deadline`: an equal share of the time left, so one
/// unresponsive server cannot use up the others' time.
fn candidate_deadline(deadline: Instant, candidates: u32) -> Instant {
    let now = Instant::now();
    now + deadline.saturating_duration_since(now) / candidates.max(1)
}

impl core::fmt::Debug for ClientSession {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ClientSession(id={}, seq={})", self.id, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use fides_net::{Network, NetworkConfig};
    use fides_store::AuthenticatedShard;

    use crate::messages::ServedRead;
    use crate::server::client_node;

    const N: u32 = 4;

    fn item(shard: u32, i: usize) -> Key {
        Key::new(format!("s{shard}:{i}"))
    }

    fn genesis(shard: u32, i: usize) -> Value {
        Value::from_i64(100 * shard as i64 + i as i64)
    }

    /// A real client whose servers the test plays over a zero-latency
    /// network, signing with the deterministic `fides-server-{i}` keys
    /// a cluster uses. Every shard holds its genesis items, so a
    /// played server's proofs anchor at genesis (root height 0).
    struct Played {
        _net: Network,
        servers: Vec<(KeyPair, Endpoint)>,
        /// Another client of the directory (`fides-client-1`).
        outsider: (KeyPair, Endpoint),
        shards: Vec<AuthenticatedShard>,
        evidence: Arc<parking_lot::Mutex<Vec<ReadEvidence>>>,
    }

    impl Played {
        fn start() -> (Played, ClientSession) {
            let net = Network::new(NetworkConfig::default());
            let servers: Vec<(KeyPair, Endpoint)> = (0..N)
                .map(|s| {
                    let kp = KeyPair::from_seed(format!("fides-server-{s}").as_bytes());
                    (kp, net.register(server_node(s)))
                })
                .collect();
            let client_kp = KeyPair::from_seed(b"fides-client-0");
            let outsider = (
                KeyPair::from_seed(b"fides-client-1"),
                net.register(client_node(1)),
            );
            let mut directory: HashMap<NodeId, PublicKey> = servers
                .iter()
                .chain([&outsider])
                .map(|(kp, ep)| (ep.node(), kp.public_key()))
                .collect();
            directory.insert(client_node(0), client_kp.public_key());
            let partitioner = Partitioner::from_assignments(
                N,
                (0..N).flat_map(|s| (0..4).map(move |i| (item(s, i), s))),
            );
            let shards: Vec<AuthenticatedShard> = (0..N)
                .map(|s| {
                    AuthenticatedShard::new((0..4).map(|i| (item(s, i), genesis(s, i))).collect())
                })
                .collect();
            let evidence = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let client = ClientSession::new(
                0,
                net.register(client_node(0)),
                client_kp,
                Arc::new(directory),
                partitioner,
                servers.iter().map(|(kp, _)| kp.public_key()).collect(),
                TimestampOracle::new(),
                CommitProtocol::TfCommit,
            )
            .with_read_context(
                shards.iter().map(AuthenticatedShard::root).collect(),
                Arc::clone(&evidence),
            );
            let played = Played {
                _net: net,
                servers,
                outsider,
                shards,
                evidence,
            };
            (played, client)
        }

        /// The next message server `s` receives.
        fn recv(&self, s: u32) -> Message {
            let env = self.servers[s as usize]
                .1
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("server {s} got no request"));
            Message::decode(&env.payload).expect("decodes")
        }

        /// Server `s` sends `msg` to the client.
        fn reply(&self, s: u32, msg: &Message) {
            let (kp, ep) = &self.servers[s as usize];
            ep.send(Envelope::sign(kp, ep.node(), client_node(0), msg.encode()));
        }

        /// The other client sends `msg` to the client.
        fn reply_as_outsider(&self, msg: &Message) {
            let (kp, ep) = &self.outsider;
            ep.send(Envelope::sign(kp, ep.node(), client_node(0), msg.encode()));
        }

        /// The end-txn the leader (server 0) receives next.
        fn recv_end_txn(&self) -> (TxnHandle, TxnRecord) {
            match self.recv(0) {
                Message::EndTxn { handle, record } => (handle, record),
                other => panic!("expected an end-txn at the leader, got {other:?}"),
            }
        }

        /// An honest genesis-anchored read of `keys` from `shard`.
        fn serve(&self, shard: u32, keys: &[Key]) -> ServedRead {
            ServedRead {
                root_height: 0,
                covered_height: 0,
                header: None,
                proof: Box::new(self.shards[shard as usize].prove_read(keys)),
            }
        }
    }

    /// A non-target server answers the read's guessable request id
    /// first, with a forged value for one part and a `NoSnapshot` for
    /// another. The client takes only the asked server's response: the
    /// read returns its verified values, nothing is filed against it
    /// and it is not parked as mirror-less.
    #[test]
    fn read_replies_are_taken_only_from_the_asked_server() {
        let (played, mut client) = Played::start();
        let keys = vec![item(0, 1), item(1, 2), item(3, 0)];
        let reader = {
            let keys = keys.clone();
            std::thread::spawn(move || {
                let values = client.read_only(&keys, ReadConsistency::BoundedStaleness(64));
                (client, values)
            })
        };
        // Client 0's rotation starts at server 0: one request, every
        // shard in it.
        let Message::SnapshotRead { req, parts, .. } = played.recv(0) else {
            panic!("expected a snapshot read");
        };
        let shards: Vec<u32> = parts.iter().map(|(shard, _)| *shard).collect();
        assert_eq!(shards, [0, 1, 3]);

        let mut forged = played.serve(0, &parts[0].1);
        if let fides_store::ReadEntryProof::Present { value, .. } = &mut forged.proof.entries[0] {
            *value = Value::from_i64(-1);
        }
        played.reply(
            2,
            &Message::SnapshotReadResp {
                req,
                parts: vec![
                    ReadPart {
                        shard: 0,
                        result: Ok(forged),
                    },
                    ReadPart {
                        shard: 1,
                        result: Err(ReadRefusal::NoSnapshot),
                    },
                ],
            },
        );
        let honest = parts
            .iter()
            .map(|(shard, keys)| ReadPart {
                shard: *shard,
                result: Ok(played.serve(*shard, keys)),
            })
            .collect();
        played.reply(0, &Message::SnapshotReadResp { req, parts: honest });

        let (client, values) = reader.join().expect("reader thread");
        let want = [
            Some(genesis(0, 1)),
            Some(genesis(1, 2)),
            Some(genesis(3, 0)),
        ];
        assert_eq!(values.expect("verified read"), want);
        assert!(played.evidence.lock().is_empty());
        let ctx = client.read.as_ref().expect("read context");
        assert!(ctx.no_mirror.is_empty(), "{:?}", ctx.no_mirror);
        assert_eq!(ctx.stats.refusals, 0);
        assert_eq!(ctx.stats.reads, 3);
        for s in 1..N {
            assert!(played.servers[s as usize].1.try_recv().is_none());
        }
    }

    /// A non-owner answers a batched read and a blind write first,
    /// planting a value and timestamps. The client keeps only what each
    /// key's owner sent.
    #[test]
    fn execution_replies_are_taken_only_from_the_owner() {
        let (played, mut client) = Played::start();
        let (read_key, write_key) = (item(1, 0), item(2, 3));
        let executor = {
            let (read_key, write_key) = (read_key.clone(), write_key.clone());
            std::thread::spawn(move || {
                let mut txn = client.begin();
                let read = client.read_all(&mut txn, std::slice::from_ref(&read_key));
                let wrote = client.write_all(&mut txn, &[(write_key, Value::from_i64(7))]);
                (read, wrote, txn)
            })
        };
        let planted = Some((
            Value::from_i64(-1),
            Timestamp::new(900, 3),
            Timestamp::new(900, 3),
        ));

        let Message::ReadMany { txn, .. } = played.recv(1) else {
            panic!("expected a batched read at the owner");
        };
        let (value, rts, wts) = (genesis(1, 0), Timestamp::new(3, 1), Timestamp::new(2, 1));
        played.reply(
            3,
            &Message::ReadManyResp {
                txn,
                items: vec![(read_key.clone(), planted.clone())],
            },
        );
        played.reply(
            1,
            &Message::ReadManyResp {
                txn,
                items: vec![(read_key.clone(), Some((value.clone(), rts, wts)))],
            },
        );

        let Message::Write { txn, key, .. } = played.recv(2) else {
            panic!("expected a blind write at the owner");
        };
        assert_eq!(key, write_key);
        let old = (genesis(2, 3), Timestamp::new(5, 2), Timestamp::new(4, 2));
        played.reply(
            0,
            &Message::WriteAck {
                txn,
                key: write_key.clone(),
                old: planted,
            },
        );
        played.reply(
            2,
            &Message::WriteAck {
                txn,
                key: write_key.clone(),
                old: Some(old.clone()),
            },
        );

        let (read, wrote, txn) = executor.join().expect("executor thread");
        assert_eq!(read.expect("read"), std::slice::from_ref(&value));
        wrote.expect("write");
        assert_eq!(
            txn.reads,
            [ReadEntry {
                key: read_key,
                value,
                rts,
                wts,
            }]
        );
        assert_eq!(
            txn.writes,
            [WriteEntry {
                key: write_key,
                new_value: Value::from_i64(7),
                old_value: Some(old.0),
                rts: old.1,
                wts: old.2,
            }]
        );
    }

    /// A commit's handle is sequential, so any node can guess it. A
    /// rejection or outcome counts only from the leader. Forged ones —
    /// a non-leader's, another client's — force no retry, lend the
    /// oracle no timestamp, use up none of the 16 attempts, end no
    /// commit and are not kept for later.
    #[test]
    fn rejections_are_taken_only_from_servers() {
        let forged_hint = Timestamp::new(1_000_000, 2);
        let reject = |handle, hint| Message::EndTxnRejected { handle, hint };

        // Synchronous commit: each attempt meets forged rejections
        // first, then the leader's. The commit gives up after exactly
        // 16 attempts, none past the forged hint, and stashes none of
        // the 32 forgeries.
        let (played, mut client) = Played::start();
        let txn = client.begin();
        let committer = std::thread::spawn(move || {
            let result = client.commit(txn);
            (client, result)
        });
        for attempt in 1..=16u64 {
            let (handle, record) = played.recv_end_txn();
            assert!(
                record.id < forged_hint,
                "attempt {attempt}: {:?}",
                record.id
            );
            played.reply(2, &reject(handle, forged_hint));
            played.reply_as_outsider(&reject(handle, forged_hint));
            played.reply(0, &reject(handle, Timestamp::new(attempt, 0)));
        }
        let (client, result) = committer.join().expect("committer thread");
        assert!(
            matches!(result, Err(ClientError::RetriesExhausted)),
            "{result:?}"
        );
        assert!(client.stash.is_empty(), "{:?}", client.stash);
        assert!(played.servers[0].1.try_recv().is_none());

        // Pipelined: 16 forged rejections and a forged outcome leave the
        // commit pending on its first attempt; the leader's rejection
        // costs one retry.
        let (played, mut client) = Played::start();
        let txn = client.begin();
        let mut pending = vec![client.commit_async(txn)];
        let (handle, _) = played.recv_end_txn();
        for _ in 0..16 {
            played.reply(2, &reject(handle, forged_hint));
            played.reply_as_outsider(&reject(handle, forged_hint));
        }
        let block = fides_ledger::block::BlockBuilder::new(0, Digest::ZERO).build_unsigned();
        let outcome = Message::Outcome {
            handles: vec![handle],
            block,
        };
        played.reply(2, &outcome);
        played.reply_as_outsider(&outcome);
        played.reply(0, &reject(handle, Timestamp::new(5, 0)));
        let deadline = Instant::now() + Duration::from_millis(300);
        assert!(client.drain_outcomes(&mut pending, deadline).is_empty());
        assert_eq!(pending.len(), 1, "a forged rejection dropped the commit");
        assert_eq!(pending[0].attempts, 2);
        let (_, record) = played.recv_end_txn();
        assert!(record.id < forged_hint, "{:?}", record.id);
        assert!(played.servers[0].1.try_recv().is_none());
    }

    #[test]
    fn oracle_is_strictly_increasing() {
        let oracle = TimestampOracle::new();
        let a = oracle.next();
        let b = oracle.next();
        assert!(b > a);
    }

    #[test]
    fn oracle_advance_to_jumps_forward_only() {
        let oracle = TimestampOracle::new();
        oracle.advance_to(100);
        assert!(oracle.next() > 100);
        oracle.advance_to(5); // no regression
        assert!(oracle.next() > 100);
    }

    #[test]
    fn outcome_predicates() {
        let ts = Timestamp::new(1, 0);
        assert!(TxnOutcome::Committed { ts, height: 0 }.committed());
        assert!(!TxnOutcome::Aborted { ts, height: 0 }.committed());
        assert!(TxnOutcome::Anomaly { ts }.is_anomaly());
    }

    #[test]
    fn client_error_display() {
        assert!(ClientError::NoSuchKey(Key::new("x"))
            .to_string()
            .contains('x'));
        assert!(!ClientError::Timeout("vote").to_string().is_empty());
    }
}
