//! The leader's commit round (TFCommit §4.3.1, the §6.1 2PC baseline)
//! as plain data that [`Server::dispatch`] advances.
//!
//! A leader holds at most one open [`LeaderRound`]. Opening one forms
//! the batch, broadcasts `GetVote` (or `TwoPcGetVote`) and files the
//! leader's own vote. From then on the round moves only when the main
//! loop hands it something:
//!
//! * a `Vote`, `Response` or `TwoPcVote` fills its server's slot in the
//!   current phase ([`Slots`]); once every slot is filled the next phase
//!   runs at once: the challenge after the votes, then the decision,
//!   apply and outcomes after the responses (or after the 2PC votes);
//! * the loop's tick ends a round whose phase deadline passed, through
//!   [`Server::expire_round`], the one timeout path;
//! * every other message gets the handler it gets between rounds.
//!
//! Every round ends in [`Server::end_round`], which closes the round
//! span and books `commit.rounds` and the round stats.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use fides_crypto::cosi;
use fides_crypto::encoding::Encodable;
use fides_crypto::scalar::Scalar;
use fides_crypto::Digest;
use fides_ledger::block::{Block, BlockBuilder, Decision, ShardRoot};
use fides_net::{Envelope, NodeId};
use fides_store::types::Key;
use fides_telemetry::trace::{now_ns, SpanSink};
use fides_telemetry::{Level, Stage, Stopwatch, TraceContext};

use super::{server_node, PendingTxn, Server, MAX_DOOMED_DEFERRALS};
use crate::messages::{
    encode_outcome_payload, CommitProtocol, InvolvedVote, Message, PartialBlock, Refusal, TxnHandle,
};

/// The per-round causal context on the leader: every stage span of the
/// round hangs off `round_span`, which itself hangs off the sampled
/// client's root span.
#[derive(Clone, Copy)]
struct RoundTrace {
    ctx: TraceContext,
    round_span: u64,
    start_ns: u64,
}

impl RoundTrace {
    /// The context downstream messages (GetVote/Challenge/Decision) and
    /// spans carry: same trace, parented under the round span.
    fn child_ctx(&self) -> TraceContext {
        TraceContext {
            trace_id: self.ctx.trace_id,
            parent_span: self.round_span,
        }
    }

    /// Closes `stage`'s span, begun at `start_ns`, under the round span.
    fn close_stage(&self, sink: &SpanSink, stage: Stage, start_ns: u64, height: u64) {
        let (trace_id, span_id) = (self.ctx.trace_id, sink.next_id());
        let name = stage.metric_name();
        sink.close(trace_id, span_id, self.round_span, name, start_ns, height);
    }
}

/// One reply per server to the current phase, the leader's own filled
/// when the phase starts.
struct Slots<T>(Vec<Option<T>>);

impl<T> Slots<T> {
    fn new(n_servers: u32, own: u32, reply: T) -> Slots<T> {
        let mut slots: Vec<Option<T>> = (0..n_servers).map(|_| None).collect();
        slots[own as usize] = Some(reply);
        Slots(slots)
    }

    /// Files `from`'s reply; a second reply, or one from a node that is
    /// not a server, is ignored.
    fn fill(&mut self, from: NodeId, reply: T) {
        if let Some(slot @ None) = self.0.get_mut(from.raw() as usize) {
            *slot = Some(reply);
        }
    }

    fn is_full(&self) -> bool {
        self.0.iter().all(Option::is_some)
    }

    /// The filled replies, in server order.
    fn replies(&self) -> impl Iterator<Item = &T> {
        self.0.iter().flatten()
    }
}

/// The replies the open round waits for.
enum Phase {
    /// TFCommit phase 2: each server's CoSi commitment, plus its vote
    /// when its shard is involved.
    Votes(Slots<(cosi::Commitment, Option<InvolvedVote>)>),
    /// TFCommit phase 4: each server's response to the challenge on
    /// `block`.
    Responses {
        block: Box<Block>,
        aggregate: cosi::Commitment,
        challenge: Scalar,
        commitments: Vec<cosi::Commitment>,
        slots: Slots<Result<cosi::Response, Refusal>>,
    },
    /// The 2PC baseline's one vote phase.
    TwoPcVotes(Slots<bool>),
}

impl Phase {
    fn is_full(&self) -> bool {
        match self {
            Phase::Votes(slots) => slots.is_full(),
            Phase::Responses { slots, .. } => slots.is_full(),
            Phase::TwoPcVotes(slots) => slots.is_full(),
        }
    }
}

/// The leader's open round.
pub(super) struct LeaderRound {
    height: u64,
    prev_hash: Digest,
    batch: Vec<PendingTxn>,
    /// When the current phase times out.
    pub(super) deadline: Instant,
    /// Opened before batch formation: `round_nanos` covers the round.
    start: Instant,
    /// Contiguous stage laps: the six stage histograms ([`Stage`]) tile
    /// `round_nanos`.
    watch: Stopwatch,
    /// When the current stage's span began.
    stage_start_ns: u64,
    trace: Option<RoundTrace>,
    phase: Phase,
}

impl LeaderRound {
    /// The round's block, with its batch and `decision`.
    fn block(&self, decision: Decision) -> BlockBuilder {
        BlockBuilder::new(self.height, self.prev_hash)
            .txns(self.batch.iter().map(|p| p.record.clone()))
            .decision(decision)
    }
}

impl Server {
    /// Opens a round over the next batch: the vote request goes out and
    /// the leader files its own vote. Returns `false` when no batch
    /// could be formed.
    pub(super) fn open_round(&mut self) -> bool {
        let start = Instant::now();
        let mut watch = Stopwatch::new();
        let round_start_ns = now_ns();
        let batch = self.select_batch();
        if batch.is_empty() {
            self.restart_batch_window();
            return false;
        }
        // One sampled transaction makes the whole round traced: the
        // round span parents every stage span this leader records and
        // (via the traced broadcasts) every cohort span elsewhere.
        let trace = batch.iter().find_map(|p| p.trace).map(|ctx| RoundTrace {
            ctx,
            round_span: self.state.telemetry.spans.next_id(),
            start_ns: round_start_ns,
        });
        self.state
            .telemetry
            .stages
            .record(Stage::BatchForm, watch.lap_ns());
        let (height, prev_hash) = {
            let ledger = self.state.ledger.lock();
            (ledger.log.next_height(), ledger.log.tip_hash())
        };
        if let Some(rt) = trace {
            let sink = &self.state.telemetry.spans;
            rt.close_stage(sink, Stage::BatchForm, round_start_ns, height);
        }
        let stage_start_ns = now_ns();
        let partial = PartialBlock {
            height,
            txns: batch.iter().map(|p| p.record.clone()).collect(),
            prev_hash,
        };
        let (n, own) = (self.config.n_servers, self.config.idx);
        let phase = match self.config.protocol {
            CommitProtocol::TfCommit => {
                // Phase 1 <GetVote, SchAnnouncement>; downstream
                // envelopes carry the round span as parent, so the
                // cohort spans of a sampled round attach under it.
                let get_vote = Message::GetVote {
                    partial: partial.clone(),
                };
                self.broadcast_to_servers_traced(&get_vote, trace.map(|t| t.child_ctx()));
                // The leader is also a witness/cohort (phase 2).
                Phase::Votes(Slots::new(n, own, self.cohort_vote(&partial)))
            }
            CommitProtocol::TwoPhaseCommit => {
                self.broadcast_to_servers(&Message::TwoPcGetVote {
                    partial: partial.clone(),
                });
                Phase::TwoPcVotes(Slots::new(n, own, self.twopc_vote(&partial).0))
            }
        };
        self.round = Some(LeaderRound {
            height,
            prev_hash,
            batch,
            deadline: Instant::now() + self.config.round_timeout,
            start,
            watch,
            stage_start_ns,
            trace,
            phase,
        });
        // A lone server already holds every reply.
        self.advance_round();
        true
    }

    /// A `Vote`, `Response` or `TwoPcVote`: files it in the open round
    /// when it answers the round's current phase, and runs the next
    /// phase once every server has answered. Anything else is a stale
    /// reply to an earlier round or phase, and is dropped.
    pub(super) fn on_round_reply(&mut self, from: NodeId, reply: Message) {
        let Some(round) = &mut self.round else {
            return;
        };
        let at = round.height;
        match (&mut round.phase, reply) {
            (
                Phase::Votes(slots),
                Message::Vote {
                    height,
                    commitment,
                    involved,
                },
            ) if height == at => slots.fill(from, (commitment, involved)),
            (Phase::Responses { slots, .. }, Message::Response { height, result })
                if height == at =>
            {
                slots.fill(from, result);
            }
            (Phase::TwoPcVotes(slots), Message::TwoPcVote { height, commit, .. })
                if height == at =>
            {
                slots.fill(from, commit);
            }
            _ => return,
        }
        self.advance_round();
    }

    /// Runs the open round's next phase once every server has answered
    /// the current one.
    fn advance_round(&mut self) {
        while let Some(round) = self.round.take_if(|round| round.phase.is_full()) {
            match round.phase {
                Phase::Votes(_) => self.send_challenge(round),
                Phase::Responses { .. } => self.decide(round),
                Phase::TwoPcVotes(_) => self.decide_2pc(round),
            }
        }
    }

    /// The one timeout path, ticked by the main loop: a round whose
    /// phase deadline passed (a crashed or partitioned cohort) ends with
    /// its batch rejected. TFCommit is blocking (§4.3.1); the clients
    /// hear of the failure instead of waiting forever.
    pub(super) fn expire_round(&mut self) {
        let Some(mut round) = self.round.take_if(|round| Instant::now() >= round.deadline) else {
            return;
        };
        let (what, stage) = match round.phase {
            Phase::Votes(_) => ("vote", Some(Stage::OccValidate)),
            Phase::Responses { .. } => ("response", Some(Stage::CosiAssemble)),
            Phase::TwoPcVotes(_) => ("2PC vote", None),
        };
        if let Some(stage) = stage {
            self.close_stage(&mut round, stage);
        }
        self.state.telemetry.round_timeouts.inc();
        self.state.telemetry.events.record(
            Level::Warn,
            "commit",
            format!("{what} collection timed out at height {}", round.height),
        );
        self.reject_batch(&round.batch);
        self.end_round(round);
    }

    /// Records `stage`'s lap, and its span for a sampled round; the next
    /// stage starts now.
    fn close_stage(&self, round: &mut LeaderRound, stage: Stage) {
        self.state
            .telemetry
            .stages
            .record(stage, round.watch.lap_ns());
        if let Some(rt) = round.trace {
            let sink = &self.state.telemetry.spans;
            rt.close_stage(sink, stage, round.stage_start_ns, round.height);
        }
        round.stage_start_ns = now_ns();
    }

    /// Every vote is in (TFCommit phase 3, <null, SchChallenge>): form
    /// the decision and the block, broadcast the challenge and answer
    /// it as a cohort.
    fn send_challenge(&mut self, mut round: LeaderRound) {
        self.close_stage(&mut round, Stage::OccValidate);
        let height = round.height;
        if self.state.behavior().stall_after_votes {
            // Fault hook for the liveness watchdog tests: the leader
            // collects every vote, then goes silent — no Challenge, no
            // Decision, no rejection. Cohorts hold their CoSi witnesses
            // open forever; their round-progress watchdogs must fire.
            self.state.telemetry.events.record(
                Level::Warn,
                "commit",
                format!("stall_after_votes: abandoning round at height {height}"),
            );
            self.end_round(round);
            return;
        }
        let Phase::Votes(votes) = &round.phase else {
            unreachable!("a challenge follows the vote phase");
        };
        let all_commit = votes
            .replies()
            .filter_map(|(_, vote)| vote.as_ref())
            .all(|v| v.commit);
        let decision = if all_commit {
            Decision::Commit
        } else {
            Decision::Abort
        };
        let mut builder = round.block(decision);
        for (s, (_, vote)) in votes.replies().enumerate() {
            if let Some(InvolvedVote {
                commit: true,
                root: Some(root),
                ..
            }) = vote
            {
                builder = builder.root(ShardRoot {
                    server: s as u32,
                    root: *root,
                });
            }
        }
        let mut block = builder.build_unsigned();

        // Fault: replace a benign server's root (§5 Scenario 2).
        if let Some(victim) = self.state.behavior().fake_root_for {
            for r in block.roots.iter_mut().filter(|r| r.server == victim) {
                r.root = Digest::new([0xEE; 32]);
            }
        }

        let commitments: Vec<cosi::Commitment> = votes.replies().map(|(c, _)| *c).collect();
        let aggregate = cosi::Commitment(cosi::aggregate_commitments(commitments.iter().copied()));
        let challenge = cosi::challenge(&aggregate.0, &block.signing_bytes());

        // Fault: equivocate (Lemma 5 Case 1) — commit block to even
        // cohorts, abort block to odd cohorts, same challenge.
        if self.state.behavior().equivocate_decision {
            let alt = Block {
                decision: Decision::Abort,
                roots: Vec::new(),
                ..block.clone()
            };
            for s in (0..self.config.n_servers).filter(|&s| s != self.config.idx) {
                let block = if s % 2 == 0 { &block } else { &alt }.clone();
                let challenge = Message::Challenge {
                    block,
                    aggregate,
                    challenge,
                };
                self.send(server_node(s), &challenge);
            }
        } else {
            self.broadcast_to_servers_traced(
                &Message::Challenge {
                    block: block.clone(),
                    aggregate,
                    challenge,
                },
                round.trace.map(|t| t.child_ctx()),
            );
        }

        // The leader's own response.
        let own = self.cohort_response(&block, &aggregate, &challenge);
        round.phase = Phase::Responses {
            slots: Slots::new(self.config.n_servers, self.config.idx, own),
            block: Box::new(block),
            aggregate,
            challenge,
            commitments,
        };
        round.deadline = Instant::now() + self.config.round_timeout;
        self.round = Some(round);
    }

    /// Every response is in (TFCommit phase 5, <Decision, null>):
    /// assemble the collective signature, broadcast and apply the
    /// decision, and answer the clients.
    fn decide(&mut self, mut round: LeaderRound) {
        let Phase::Responses {
            block,
            aggregate,
            challenge,
            commitments,
            slots,
        } = &round.phase
        else {
            unreachable!("a decision follows the response phase");
        };
        let height = round.height;
        // `None` when a cohort refused: then no valid signature exists.
        let responses: Option<Vec<cosi::Response>> =
            slots.replies().map(|r| r.as_ref().ok().copied()).collect();
        let mut cosign_valid = false;
        let cosign = match responses {
            None => cosi::CollectiveSignature::placeholder(),
            Some(responses) => {
                let sig =
                    cosi::CollectiveSignature::assemble(aggregate.0, responses.iter().copied());
                // Lemma 4: an invalid aggregate lets the leader identify
                // the precise culprits by checking partial signatures.
                cosign_valid = sig.verify(&block.signing_bytes(), &self.server_pks);
                if !cosign_valid {
                    let pks = &self.server_pks;
                    let culprits =
                        cosi::identify_invalid_responses(challenge, commitments, &responses, pks);
                    let culprits = culprits.into_iter().map(|i| i as u32).collect();
                    self.state
                        .ledger
                        .lock()
                        .cosi_culprits
                        .push((height, culprits));
                }
                sig
            }
        };

        let signed = Block {
            cosign,
            ..(**block).clone()
        };
        let child_ctx = round.trace.map(|t| t.child_ctx());
        self.broadcast_to_servers_traced(
            &Message::Decision {
                block: signed.clone(),
            },
            child_ctx,
        );
        self.close_stage(&mut round, Stage::CosiAssemble);
        if cosign_valid {
            // The leader verified this signature when assembling it;
            // re-running the check in `handle_decision` would be pure
            // waste on the hot path.
            self.apply_block_traced(signed.clone(), CommitProtocol::TfCommit, child_ctx);
            self.catch_up();
        } else {
            self.handle_decision_traced(signed.clone(), child_ctx);
        }
        // The apply segment was recorded from inside `apply_block`
        // (MerkleUpdate + WalFsync); restart the lap clock so the
        // outcome stage does not double-count it.
        let _ = round.watch.lap_ns();
        round.stage_start_ns = now_ns();

        // Figure 5 step 8: respond to the clients. With a durability
        // engine the outcome is the commit acknowledgement, so it is
        // deferred until the WAL writer's fsync covers this height
        // (ordered acks — the client never observes a commit a crash
        // could undo); the leader itself moves straight on to the next
        // round. An invalidly signed block was never logged (and never
        // reaches the WAL), so its outcome — which the clients will
        // classify as an anomaly — goes out immediately.
        self.send_outcomes(height, &round.batch, &signed, cosign_valid);
        self.close_stage(&mut round, Stage::OutcomeSend);
        self.end_round(round);
    }

    /// Every 2PC vote is in: decide, apply and answer the clients.
    fn decide_2pc(&mut self, round: LeaderRound) {
        let Phase::TwoPcVotes(votes) = &round.phase else {
            unreachable!("a 2PC decision follows the 2PC vote phase");
        };
        let decision = if votes.replies().all(|commit| *commit) {
            Decision::Commit
        } else {
            Decision::Abort
        };
        let block = round.block(decision).build_unsigned();
        self.broadcast_to_servers(&Message::TwoPcDecision {
            block: block.clone(),
        });
        self.handle_2pc_decision(block.clone());
        self.send_outcomes(round.height, &round.batch, &block, true);
        self.end_round(round);
    }

    /// Where every round ends, decided, timed out or abandoned: closes
    /// the round span, books the round, and starts a fresh batch window
    /// for the end-txns still queued.
    fn end_round(&mut self, round: LeaderRound) {
        if let Some(rt) = round.trace {
            let sink = &self.state.telemetry.spans;
            sink.close(
                rt.ctx.trace_id,
                rt.round_span,
                rt.ctx.parent_span,
                "commit.round",
                rt.start_ns,
                round.height,
            );
        }
        let elapsed = round.start.elapsed();
        self.state.telemetry.rounds.inc();
        {
            let mut ledger = self.state.ledger.lock();
            // Committed iff the round appended a commit block.
            let committed = ledger.log.next_height() > round.height
                && ledger
                    .log
                    .last()
                    .is_some_and(|b| b.decision == Decision::Commit);
            let stats = &mut ledger.round_stats;
            stats.rounds += 1;
            stats.round_nanos += elapsed.as_nanos();
            let n_txns = round.batch.len() as u64;
            if committed {
                stats.committed_txns += n_txns;
            } else {
                stats.aborted_txns += n_txns;
            }
        }
        self.restart_batch_window();
    }

    /// Leftover end-txns start a fresh batch window; none, no deadline.
    fn restart_batch_window(&mut self) {
        self.batch_deadline =
            (!self.pending.is_empty()).then(|| Instant::now() + self.config.flush_interval);
    }

    /// Picks up to `batch_size` pending transactions, in timestamp
    /// order, skipping any that conflict (share a key) with an earlier
    /// selection — "a set of non-conflicting transactions" (§4.6).
    ///
    /// Transactions whose timestamp has fallen at or below
    /// `last_committed` while queued are bounced back to their clients
    /// for a fresh timestamp instead of entering the batch: one stale
    /// straggler would otherwise make every cohort vote abort for the
    /// **whole block** (§4.3.1's sequential-log rule), amplifying a
    /// single retry into a full batch of aborts under deep pipelining.
    fn select_batch(&mut self) -> Vec<PendingTxn> {
        let last_committed = self.state.last_committed();
        let stale: Vec<PendingTxn> = {
            let (stale, fresh) = self
                .pending
                .drain(..)
                .partition(|p| p.record.id <= last_committed);
            self.pending = fresh;
            stale
        };
        for p in &stale {
            self.send(
                p.client,
                &Message::EndTxnRejected {
                    handle: p.handle,
                    hint: last_committed,
                },
            );
        }
        self.pending.sort_by_key(|p| p.record.id);
        // Doom filter: a transaction whose read entry (key, wts) is
        // older than the newest committed write of that key is certain
        // to fail OCC at its owner — one such straggler makes every
        // cohort vote abort for the whole block. Keep doomed
        // transactions out of clean batches; they terminate through a
        // dedicated round of their own (which aborts and gives their
        // clients a properly co-signed abort outcome) once no clean
        // work is pending or they have deferred [`MAX_DOOMED_DEFERRALS`]
        // times.
        let (clean, mut doomed): (Vec<PendingTxn>, Vec<PendingTxn>) = {
            let stage = self.state.shard.lock();
            self.pending.drain(..).partition(|p| {
                !p.record.read_set.iter().any(|r| {
                    stage
                        .write_watermarks
                        .get(&r.key)
                        .is_some_and(|mark| *mark > r.wts)
                })
            })
        };
        let flush_doomed = !doomed.is_empty()
            && (clean.is_empty() || doomed.iter().any(|p| p.deferrals >= MAX_DOOMED_DEFERRALS));
        let (mut source, mut rest) = if flush_doomed {
            (doomed, clean)
        } else {
            for p in &mut doomed {
                p.deferrals += 1;
            }
            (clean, doomed)
        };
        let mut touched: HashSet<Key> = HashSet::new();
        let mut batch = Vec::new();
        for txn in source.drain(..) {
            let keys: Vec<Key> = txn
                .record
                .read_set
                .iter()
                .map(|r| r.key.clone())
                .chain(txn.record.write_set.iter().map(|w| w.key.clone()))
                .collect();
            let conflicts = keys.iter().any(|k| touched.contains(k));
            if batch.len() < self.config.batch_size && !conflicts {
                touched.extend(keys);
                batch.push(txn);
            } else {
                rest.push(txn);
            }
        }
        self.pending = rest;
        batch
    }

    /// Sends `Outcome` messages for a terminated batch — one message
    /// per **client** (covering all of that client's transactions in
    /// the block).
    ///
    /// With `durable_when_fsynced` and a durability engine, the sends
    /// run from the WAL writer thread once the covering fsync lands;
    /// otherwise (no durability, or a block that was never applied —
    /// e.g. an invalid collective signature the clients must see to
    /// detect the anomaly) they go out immediately.
    fn send_outcomes(
        &self,
        height: u64,
        batch: &[PendingTxn],
        signed: &Block,
        durable_when_fsynced: bool,
    ) {
        // Group the batch's handles by client, preserving order.
        let mut per_client: Vec<(NodeId, Vec<TxnHandle>)> = Vec::new();
        for p in batch {
            match per_client.iter_mut().find(|(c, _)| *c == p.client) {
                Some((_, handles)) => handles.push(p.handle),
                None => per_client.push((p.client, vec![p.handle])),
            }
        }
        // Encode the block once; every client's payload reuses the
        // bytes (the block is the payload's dominant cost at batch
        // sizes, and re-encoding it per client serialized the whole
        // fan-out on the leader).
        let block_bytes = signed.encode();
        let payloads: Vec<(NodeId, Vec<u8>)> = per_client
            .into_iter()
            .map(|(client, handles)| (client, encode_outcome_payload(&handles, &block_bytes)))
            .collect();
        let durability = self.state.durability.lock();
        if durable_when_fsynced {
            // Quorum-durable acks: withhold the outcomes until a
            // majority of servers (this leader included) reports the
            // block fsync-durable — an acknowledged commit then survives
            // the loss of any minority of disks, not just a leader crash.
            if let Some(quorum) = &self.quorum {
                quorum.register(height, payloads);
                // The leader's own durability vote; a memory-only leader
                // has nothing to lose.
                match durability.as_ref() {
                    Some(pipeline) => {
                        let quorum = Arc::clone(quorum);
                        let own = self.config.idx;
                        pipeline.on_durable(height, Box::new(move || quorum.record(height, own)));
                    }
                    None => quorum.record(height, self.config.idx),
                }
                return;
            }
            if let Some(pipeline) = durability.as_ref() {
                let (sender, keypair, from) =
                    (self.endpoint.sender(), self.keypair, self.endpoint.node());
                pipeline.on_durable(
                    height,
                    Box::new(move || {
                        for (client, payload) in payloads {
                            sender.send(Envelope::sign(&keypair, from, client, payload));
                        }
                    }),
                );
                return;
            }
        }
        drop(durability);
        for (client, payload) in payloads {
            self.send_payload(client, payload, None);
        }
    }

    /// Tells every client of `batch` its end-txn was not terminated.
    fn reject_batch(&self, batch: &[PendingTxn]) {
        let hint = self.state.last_committed();
        for p in batch {
            self.send(
                p.client,
                &Message::EndTxnRejected {
                    handle: p.handle,
                    hint,
                },
            );
        }
    }
}
