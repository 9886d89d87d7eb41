//! The cluster power-capping policy.
//!
//! The paper explores the energy-time tradeoff under a *time* framing
//! (how much slowdown buys how much energy). The same gear mechanism
//! also answers a *power* question that mattered to the clusters that
//! motivated the work: keep the whole machine under a wall-power
//! budget. This policy enforces a budget **by construction** rather
//! than by feedback:
//!
//! * Each rank holds an equal share `budget_w / size` of the budget.
//! * A rank never selects a gear whose worst-case draw
//!   ([`psc_machine::PowerModel::busy_w`]) exceeds its share — the
//!   *cap gear* computed once from the node model. Since actual draw
//!   never exceeds `busy_w` at the current gear, the cluster total is
//!   under budget at every instant, including mid-phase wattmeter
//!   samples; no coordination in virtual time is needed.
//! * At collective sync points, the policy rebalances *toward the
//!   slowest rank* (the critical path): a rank that spent most of the
//!   window blocked was waiting on someone slower, so it donates
//!   headroom by dropping one more gear (saving energy without
//!   stretching the critical path); a rank that computed nearly the
//!   whole window is on the critical path and reclaims its cap gear.
//!
//! Donation is one-way per window and clamped to the gear table, so
//! the cap invariant is never violated: requested gears are always at
//! or below (slower than) the cap gear.

use crate::hook::{Observation, RankPolicy};
use psc_machine::NodeSpec;

/// A rank donates headroom when it was blocked for more than this
/// fraction of the window since the last sync point…
const DONATE_IDLE_FRAC: f64 = 0.5;
/// …and reclaims its cap gear when blocked for less than this.
const RECLAIM_IDLE_FRAC: f64 = 0.25;

/// The fastest gear whose worst-case draw fits under `share_w`, as a
/// 1-based index. Falls back to the slowest gear when even that does
/// not fit (callers should have rejected such budgets via
/// [`crate::PolicySpec::validate`]).
pub fn cap_gear(node: &NodeSpec, share_w: f64) -> usize {
    for g in 1..=node.gears.len() {
        if node.power.busy_w(node.gear(g)) <= share_w + 1e-9 {
            return g;
        }
    }
    node.gears.len()
}

/// Per-rank state of the power-cap policy. See the module docs.
#[derive(Debug, Clone)]
pub struct PowerCapRank {
    cap_gear: usize,
    gear_count: usize,
}

impl PowerCapRank {
    /// Build the policy for one rank holding `share_w` watts of the
    /// cluster budget.
    pub fn new(share_w: f64, node: &NodeSpec) -> Self {
        PowerCapRank { cap_gear: cap_gear(node, share_w), gear_count: node.gears.len() }
    }

    /// The fastest gear this rank is ever allowed to run (1-based).
    pub fn cap_gear(&self) -> usize {
        self.cap_gear
    }
}

impl RankPolicy for PowerCapRank {
    fn decide(&mut self, obs: &Observation<'_>) -> Option<usize> {
        // Invariant guard: never tolerate running faster than the cap
        // (a smaller index is a faster gear).
        if obs.gear_index < self.cap_gear {
            return Some(self.cap_gear);
        }
        if !obs.event.is_sync_point() || obs.window_s <= 0.0 {
            return None;
        }
        let idle_frac = obs.window.idle_s / obs.window_s;
        if idle_frac > DONATE_IDLE_FRAC {
            // Mostly waiting: off the critical path. Donate headroom by
            // slowing one more gear.
            Some((obs.gear_index + 1).min(self.gear_count))
        } else if idle_frac < RECLAIM_IDLE_FRAC {
            // Mostly computing: on the critical path. Take the full share.
            Some(self.cap_gear)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::{MpiOp, PolicyEvent};
    use psc_machine::{presets, Counters};

    fn sync_obs<'a>(
        node: &'a NodeSpec,
        counters: &'a Counters,
        window: &'a Counters,
        gear_index: usize,
    ) -> Observation<'a> {
        Observation {
            rank: 0,
            size: 4,
            now_s: 1.0,
            gear_index,
            node,
            counters,
            window,
            window_s: window.total_s(),
            energy_so_far_j: 0.0,
            event: PolicyEvent::OpExit {
                op: MpiOp::Allreduce,
                duration_s: 0.01,
                bytes: 64,
                all_ranks: true,
            },
        }
    }

    fn idle_window(active_s: f64, idle_s: f64) -> Counters {
        let mut c = Counters::default();
        c.record_compute(&psc_machine::WorkBlock::cpu_only(1.0e6), active_s, 2.0e9);
        c.record_idle(idle_s);
        c
    }

    #[test]
    fn cap_gear_is_the_fastest_gear_under_the_share() {
        let node = presets::athlon64();
        // A share equal to gear 3's busy power admits gear 3 but not 2.
        let share = node.power.busy_w(node.gear(3));
        assert_eq!(cap_gear(&node, share), 3);
        // A huge share admits the fastest gear; a tiny one falls back
        // to the slowest.
        assert_eq!(cap_gear(&node, 10_000.0), 1);
        assert_eq!(cap_gear(&node, 1.0), node.gears.len());
    }

    #[test]
    fn idle_heavy_rank_donates_and_busy_rank_reclaims() {
        let node = presets::athlon64();
        let share = node.power.busy_w(node.gear(3));
        let mut p = PowerCapRank::new(share, &node);
        assert_eq!(p.cap_gear(), 3);
        let totals = Counters::default();

        // 80 % idle: donate one gear below current (3 → 4).
        let waiting = idle_window(0.2, 0.8);
        assert_eq!(p.decide(&sync_obs(&node, &totals, &waiting, 3)), Some(4));
        // Still idle at 4: keep sliding (4 → 5).
        assert_eq!(p.decide(&sync_obs(&node, &totals, &waiting, 4)), Some(5));
        // Now busy: snap back to the cap gear from wherever we are.
        let busy = idle_window(0.9, 0.1);
        assert_eq!(p.decide(&sync_obs(&node, &totals, &busy, 5)), Some(3));
        // In-between idle fraction: hold.
        let mixed = idle_window(0.6, 0.4);
        assert_eq!(p.decide(&sync_obs(&node, &totals, &mixed, 3)), None);
    }

    #[test]
    fn donation_clamps_at_the_slowest_gear() {
        let node = presets::athlon64();
        let mut p = PowerCapRank::new(10_000.0, &node);
        let totals = Counters::default();
        let waiting = idle_window(0.0, 1.0);
        let slowest = node.gears.len();
        assert_eq!(p.decide(&sync_obs(&node, &totals, &waiting, slowest)), Some(slowest));
    }

    #[test]
    fn never_requests_a_gear_above_the_cap() {
        let node = presets::athlon64();
        let share = node.power.busy_w(node.gear(4));
        let mut p = PowerCapRank::new(share, &node);
        let totals = Counters::default();
        for gear in 1..=node.gears.len() {
            for w in [idle_window(0.9, 0.1), idle_window(0.1, 0.9), idle_window(0.5, 0.5)] {
                if let Some(g) = p.decide(&sync_obs(&node, &totals, &w, gear)) {
                    assert!(
                        g >= p.cap_gear(),
                        "requested gear {g} is faster than cap {}",
                        p.cap_gear()
                    );
                }
            }
        }
    }

    #[test]
    fn running_above_the_cap_is_corrected_at_any_event() {
        let node = presets::athlon64();
        let share = node.power.busy_w(node.gear(4));
        let mut p = PowerCapRank::new(share, &node);
        let totals = Counters::default();
        let w = Counters::default();
        let obs = Observation {
            rank: 0,
            size: 4,
            now_s: 0.5,
            gear_index: 1,
            node: &node,
            counters: &totals,
            window: &w,
            window_s: 0.0,
            energy_so_far_j: 0.0,
            event: PolicyEvent::PhaseStart { name: "x", depth: 0 },
        };
        assert_eq!(p.decide(&obs), Some(4));
    }
}
