//! Fault-injection switches (paper §3.2, §5).
//!
//! "An individual server … can fail at one or more of the components. A
//! fault in the execution layer can return incorrect values; in the
//! commit layer can violate transaction atomicity; in the datastore can
//! corrupt the stored data values; and in the log can omit or reorder
//! the transaction history."
//!
//! A [`Behavior`] configures which of those faults a server exhibits.
//! Every switch corresponds to a failure scenario from §5 or a lemma
//! from §4, and the `audit` module's tests assert that each one is
//! detected *and attributed to the right server*.

use fides_store::types::{Key, Value};

/// Per-server malicious behaviour configuration. [`Behavior::honest`]
/// (= `Default`) disables everything.
#[derive(Clone, Debug, Default)]
pub struct Behavior {
    // ------------------------------------------------------------------
    // Execution-layer faults (§4.2.2, Scenario 1).
    // ------------------------------------------------------------------
    /// Return stale values (the previous version) for reads of these
    /// keys, while reporting *up-to-date* timestamps — the exact attack
    /// of Figure 10.
    pub stale_read_keys: Vec<Key>,

    // ------------------------------------------------------------------
    // Datastore faults (§4.2.2, Scenario 3).
    // ------------------------------------------------------------------
    /// Silently skip applying committed writes to these keys (the
    /// datastore never reflects the logged update).
    pub skip_write_keys: Vec<Key>,
    /// After each commit, overwrite `key` with `value` without a trace.
    pub corrupt_after_commit: Option<(Key, Value)>,

    // ------------------------------------------------------------------
    // Commit-layer faults — cohort side (Lemma 4).
    // ------------------------------------------------------------------
    /// Send an incorrect Schnorr response in the `SchResponse` phase.
    pub corrupt_cosi_response: bool,

    // ------------------------------------------------------------------
    // Commit-layer faults — coordinator side (Lemma 5, Scenario 2).
    // ------------------------------------------------------------------
    /// Equivocate: send a commit-decision block to even-indexed cohorts
    /// and an abort-decision block to odd-indexed ones, with the
    /// challenge computed from the commit block (Lemma 5, Case 1).
    pub equivocate_decision: bool,
    /// Replace this server's root in the block with garbage
    /// (Scenario 2: incorrect block creation against a benign server).
    pub fake_root_for: Option<u32>,
    /// As leader, collect every vote and then go silent — no
    /// `Challenge`, no `Decision`, no rejection. Cohorts are left
    /// holding live CoSi witnesses forever: the stalled-leader scenario
    /// the liveness watchdog must detect.
    pub stall_after_votes: bool,

    // ------------------------------------------------------------------
    // Repair-plane faults: a Byzantine peer serving garbage to a
    // rejoining server. Both are refuted by the repairer's verification
    // (batched collective signatures, chain anchoring, root
    // cross-checks) and reported as audit evidence.
    // ------------------------------------------------------------------
    /// When serving a `RepairRequest`, flip a block's decision in the
    /// transferred chunk (the tampered-suffix attack).
    pub tamper_repair_blocks: bool,
    /// When serving a `RepairCheckpointRequest`, corrupt a value inside
    /// the mirrored checkpoint before sending it.
    pub tamper_repair_checkpoint: bool,
    /// When mirroring a checkpoint as a delta, alter one value in it
    /// while claiming the honest root. Holders refuse the delta (it
    /// does not reproduce the root) and resync to the whole image.
    pub forge_mirror_delta: bool,

    // ------------------------------------------------------------------
    // Verified-read-plane faults: a Byzantine server answering
    // `SnapshotRead` with garbage. All three are refuted client-side
    // (the proofs cannot be forged) and filed as `ReadEvidence` →
    // `TamperedRead` audit violations against this server.
    // ------------------------------------------------------------------
    /// Serve a corrupted value for snapshot reads of these keys (the
    /// genuine proof then fails to link the forged value to the
    /// co-signed root).
    pub forge_read_values: Vec<Key>,
    /// Claim these keys absent in snapshot reads, with a fabricated
    /// absence bracket.
    pub forge_read_absence: Vec<Key>,
    /// Ignore the request's freshness bound and serve whatever state is
    /// at hand — the stale-beyond-bound attack (an honest server
    /// refuses with `ReadRefusal::TooStale`).
    pub ignore_read_bounds: bool,

    // ------------------------------------------------------------------
    // Log faults (§4.4, Lemmas 6–7). Applied lazily, right before logs
    // are surrendered to the auditor.
    // ------------------------------------------------------------------
    /// Rewrite the decision of the block at this height.
    pub tamper_log_at: Option<u64>,
    /// Swap the two blocks at these heights.
    pub reorder_log: Option<(u64, u64)>,
    /// Drop every block after this length (omit the tail).
    pub truncate_log_to: Option<usize>,
}

impl Behavior {
    /// A fully honest server.
    pub fn honest() -> Self {
        Behavior::default()
    }

    /// Returns `true` if every switch is off.
    pub fn is_honest(&self) -> bool {
        self.stale_read_keys.is_empty()
            && self.skip_write_keys.is_empty()
            && self.corrupt_after_commit.is_none()
            && !self.corrupt_cosi_response
            && !self.equivocate_decision
            && self.fake_root_for.is_none()
            && !self.stall_after_votes
            && !self.tamper_repair_blocks
            && !self.tamper_repair_checkpoint
            && !self.forge_mirror_delta
            && self.forge_read_values.is_empty()
            && self.forge_read_absence.is_empty()
            && !self.ignore_read_bounds
            && self.tamper_log_at.is_none()
            && self.reorder_log.is_none()
            && self.truncate_log_to.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_honest() {
        assert!(Behavior::honest().is_honest());
        assert!(Behavior::default().is_honest());
    }

    #[test]
    fn any_switch_flips_honesty() {
        let mut b = Behavior::honest();
        b.corrupt_cosi_response = true;
        assert!(!b.is_honest());

        let mut b = Behavior::honest();
        b.stale_read_keys.push(Key::new("x"));
        assert!(!b.is_honest());

        let mut b = Behavior::honest();
        b.truncate_log_to = Some(0);
        assert!(!b.is_honest());

        let mut b = Behavior::honest();
        b.fake_root_for = Some(2);
        assert!(!b.is_honest());
    }
}
