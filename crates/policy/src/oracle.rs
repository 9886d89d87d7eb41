//! The oracle (schedule-replay) policy.
//!
//! An oracle policy carries its decisions with it: a list of
//! `(phase ordinal, gear)` pairs applied as the run's phases begin.
//! It exists for two jobs:
//!
//! * **Regression pinning** — capture the schedule an adaptive policy
//!   settled on (its decision log) and replay it in a test, so a model
//!   change that silently alters the schedule fails loudly.
//! * **Best-possible studies** — compare an online policy against the
//!   schedule an offline search found, the classic oracle baseline.
//!
//! Phase ordinals count every phase start this rank observes, in
//! order, starting from 0. Determinism makes the ordinal well-defined:
//! the k-th phase start of a run is the same phase in every execution.

use serde::{Deserialize, Serialize};

use crate::hook::{Observation, PolicyEvent, RankPolicy};

/// One step of an oracle schedule: at the `phase`-th phase start
/// (0-based), shift to `gear`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleStep {
    /// Phase ordinal, counting every observed phase start from 0.
    pub phase: usize,
    /// Gear to shift to, 1-based.
    pub gear: usize,
}

/// Per-rank state of the oracle policy: the schedule and a cursor.
#[derive(Debug, Clone)]
pub struct OracleRank {
    schedule: Vec<OracleStep>,
    next: usize,
    phase_ordinal: usize,
}

impl OracleRank {
    /// Build the policy from a schedule (ordered by strictly
    /// increasing phase ordinal — see [`crate::PolicySpec::validate`]).
    pub fn new(schedule: Vec<OracleStep>) -> Self {
        OracleRank { schedule, next: 0, phase_ordinal: 0 }
    }
}

impl RankPolicy for OracleRank {
    fn decide(&mut self, obs: &Observation<'_>) -> Option<usize> {
        if !matches!(obs.event, PolicyEvent::PhaseStart { .. }) {
            return None;
        }
        let ordinal = self.phase_ordinal;
        self.phase_ordinal += 1;
        match self.schedule.get(self.next) {
            Some(step) if step.phase == ordinal => {
                self.next += 1;
                Some(step.gear)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::MpiOp;
    use psc_machine::{presets, Counters, NodeSpec};

    fn start_obs<'a>(
        node: &'a NodeSpec,
        counters: &'a Counters,
        event: PolicyEvent<'a>,
    ) -> Observation<'a> {
        Observation {
            rank: 0,
            size: 1,
            now_s: 0.0,
            gear_index: 1,
            node,
            counters,
            window: counters,
            window_s: 0.0,
            energy_so_far_j: 0.0,
            event,
        }
    }

    #[test]
    fn schedule_fires_at_exact_phase_ordinals() {
        let node = presets::athlon64();
        let c = Counters::default();
        let mut p = OracleRank::new(vec![
            OracleStep { phase: 0, gear: 3 },
            OracleStep { phase: 2, gear: 5 },
        ]);
        let start = |name| PolicyEvent::PhaseStart { name, depth: 0 };
        assert_eq!(p.decide(&start_obs(&node, &c, start("a"))), Some(3)); // ordinal 0
        assert_eq!(p.decide(&start_obs(&node, &c, start("b"))), None); // ordinal 1
        assert_eq!(p.decide(&start_obs(&node, &c, start("c"))), Some(5)); // ordinal 2
        assert_eq!(p.decide(&start_obs(&node, &c, start("d"))), None); // exhausted
    }

    #[test]
    fn non_phase_events_do_not_advance_the_ordinal() {
        let node = presets::athlon64();
        let c = Counters::default();
        let mut p = OracleRank::new(vec![OracleStep { phase: 1, gear: 4 }]);
        let start = |name| PolicyEvent::PhaseStart { name, depth: 0 };
        assert_eq!(p.decide(&start_obs(&node, &c, start("a"))), None); // ordinal 0
        let op = PolicyEvent::OpExit {
            op: MpiOp::Allreduce,
            duration_s: 0.1,
            bytes: 8,
            all_ranks: true,
        };
        assert_eq!(p.decide(&start_obs(&node, &c, op)), None); // not a phase
        let end = PolicyEvent::PhaseEnd { name: "a", depth: 0, duration_s: 0.1 };
        assert_eq!(p.decide(&start_obs(&node, &c, end)), None); // not a start
        assert_eq!(p.decide(&start_obs(&node, &c, start("b"))), Some(4)); // ordinal 1
    }
}
