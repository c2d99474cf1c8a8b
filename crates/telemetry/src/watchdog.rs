//! Liveness watchdog data plane: structured stall reports and the
//! flight recorder dumped when a round stops making progress.
//!
//! The *detection* logic lives with the server (it knows the frontier
//! height, the current leader, and what work is outstanding); this
//! module owns the report types and the shared [`StallLog`] the
//! detector writes into — the trigger substrate ROADMAP item 1's
//! timeout-driven view change will consume, and what tests and the
//! bench rig read back.

use std::sync::Mutex;

use crate::events::Event;
use crate::registry::MetricsSnapshot;

/// One detected liveness stall: the frontier has not advanced past
/// `height` for `waited_ms` despite outstanding work, and `leader` is
/// the server whose round it is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stall {
    /// The leader of the stalled round.
    pub leader: u64,
    /// The frontier height that stopped advancing.
    pub height: u64,
    /// How long the frontier had been stuck when the detector fired.
    pub waited_ms: u64,
}

/// Everything the detector could grab at the moment it fired: the
/// recent event ring, a metrics snapshot, and free-form notes about
/// inflight round state — a post-mortem in a box.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    pub stall: Stall,
    /// When the dump was taken, on the process epoch
    /// ([`crate::trace::now_ns`]).
    pub at_ns: u64,
    /// The event ring at dump time (newest `capacity` events).
    pub events: Vec<Event>,
    pub metrics: MetricsSnapshot,
    /// Inflight round state, e.g. witness heights, pending txn count.
    pub notes: Vec<String>,
}

impl FlightRecorder {
    /// Human-readable rendering for stderr / bug reports.
    pub fn render(&self) -> String {
        let mut out = format!(
            "=== fides flight recorder: stall at height {} (leader {}, waited {} ms) ===\n",
            self.stall.height, self.stall.leader, self.stall.waited_ms
        );
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out.push_str(&format!("events ({}):\n", self.events.len()));
        for e in &self.events {
            out.push_str(&format!(
                "  [{:>12} ns] #{} {:5} {}: {}\n",
                e.at_ns,
                e.seq,
                format!("{:?}", e.level).to_lowercase(),
                e.category,
                e.message
            ));
        }
        out
    }
}

/// The shared mailbox between one server's stall detector and its
/// readers (tests, the bench rig, the future view-change trigger).
#[derive(Debug, Default)]
pub struct StallLog {
    stalls: Mutex<Vec<Stall>>,
    dumps: Mutex<Vec<FlightRecorder>>,
}

impl StallLog {
    pub fn new() -> Self {
        StallLog::default()
    }

    /// Records a stall and its flight-recorder dump.
    pub fn report(&self, dump: FlightRecorder) {
        self.stalls
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(dump.stall);
        self.dumps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(dump);
    }

    /// Every stall reported so far, in detection order.
    pub fn stalls(&self) -> Vec<Stall> {
        self.stalls
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Every flight-recorder dump so far, in detection order.
    pub fn dumps(&self) -> Vec<FlightRecorder> {
        self.dumps.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_log_round_trips() {
        let log = StallLog::new();
        assert!(log.stalls().is_empty());
        log.report(FlightRecorder {
            stall: Stall {
                leader: 2,
                height: 17,
                waited_ms: 120,
            },
            at_ns: 5,
            events: Vec::new(),
            metrics: MetricsSnapshot::default(),
            notes: vec!["pending=3".into()],
        });
        let stalls = log.stalls();
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].height, 17);
        let dump = &log.dumps()[0];
        assert!(dump.render().contains("height 17"));
        assert!(dump.render().contains("pending=3"));
    }
}
