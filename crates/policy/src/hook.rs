//! The online DVFS policy seam: the contract between a gear policy and
//! the runtime that executes it.
//!
//! The paper's future work — "automatically reduce the energy gear
//! appropriately" — needs a place where a *policy* can watch a run and
//! move the gear while it happens. The `psc-mpi` `Comm` layer calls an
//! installed [`RankPolicy`] at every **phase boundary** (`Comm::span`
//! open/close) and at every **traced MPI-call exit**, handing it a
//! read-only [`Observation`] snapshot. The policy answers with at most
//! a gear index; the runtime applies it through the ordinary
//! `Comm::set_gear` path, so DVFS transition stalls are charged exactly
//! as they are for hand-written gear switching.
//!
//! Determinism contract: a policy's decision must be a pure function of
//! the observations it has received (its own accumulated state included)
//! — no host clocks, no RNGs, no global state. Observations themselves
//! are pure functions of virtual time, so policy-driven runs stay
//! byte-identical across `--jobs` counts and across the DES/threaded
//! backends, exactly like policy-free runs.
//!
//! The contract lives here, below the runtime, so the crate graph
//! enforces that a policy only *returns* a gear: `psc-mpi` depends on
//! `psc-policy` (and re-exports these types at their `psc_mpi::`
//! paths), never the reverse, so no policy can name a cluster, a
//! communicator, or a gear setter. This does not compile:
//!
//! ```compile_fail
//! use psc_mpi::cluster::Cluster;
//!
//! pub fn decide(comm: &mut psc_mpi::Comm) -> usize {
//!     comm.set_gear(4);
//!     4
//! }
//! ```

use psc_machine::{Counters, NodeSpec};
use serde::{Deserialize, Serialize};

/// The kind of message-passing operation an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MpiOp {
    /// Asynchronous point-to-point send (never blocks the sender beyond
    /// injection cost).
    Send,
    /// Blocking point-to-point receive.
    Recv,
    /// Combined send+receive (halo exchange).
    SendRecv,
    /// Nonblocking receive post (returns immediately).
    Irecv,
    /// Completion wait for a nonblocking receive.
    Wait,
    /// Barrier synchronization.
    Barrier,
    /// One-to-all broadcast.
    Bcast,
    /// All-to-one reduction.
    Reduce,
    /// All-to-all reduction.
    Allreduce,
    /// All-gather.
    Allgather,
    /// All-to-all personalized exchange.
    Alltoall,
    /// Prefix reduction (scan / exscan).
    Scan,
    /// Gather to a root.
    Gather,
    /// Scatter from a root.
    Scatter,
    /// Finalize (trailing barrier).
    Finalize,
}

impl MpiOp {
    /// Whether this operation can block waiting on remote progress.
    /// Sends are asynchronous (the paper's assumption) and so is
    /// posting a nonblocking receive; everything else is a *blocking
    /// point* for the reducible-work analysis.
    #[inline]
    pub fn is_blocking(self) -> bool {
        !matches!(self, MpiOp::Send | MpiOp::Irecv)
    }

    /// Whether this operation synchronizes *all* ranks of the job (a
    /// collective). These are the cluster-wide sync points at which
    /// budget-redistribution policies act: every rank observes the same
    /// count of them, in the same order.
    #[inline]
    pub fn is_collective(self) -> bool {
        !matches!(self, MpiOp::Send | MpiOp::Recv | MpiOp::SendRecv | MpiOp::Irecv | MpiOp::Wait)
    }
}

/// What triggered a policy callback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyEvent<'a> {
    /// A named phase span just opened (`Comm::span_begin`).
    /// The usual actuation point: shift *before* the phase runs.
    PhaseStart {
        /// Phase name as passed to `span`.
        name: &'a str,
        /// Nesting depth at open time (0 = outermost).
        depth: usize,
    },
    /// A named phase span just closed. `Observation::window` covers
    /// exactly this span, so the policy can profile the phase it names.
    PhaseEnd {
        /// Phase name as passed to `span`.
        name: &'a str,
        /// Nesting depth at open time (0 = outermost).
        depth: usize,
        /// Span length, seconds of virtual time.
        duration_s: f64,
    },
    /// A traced MPI operation just completed. (`Finalize` is excluded:
    /// nothing runs after it, so a shift there could only waste energy.)
    OpExit {
        /// The operation that completed.
        op: MpiOp,
        /// Time spent inside the call, seconds.
        duration_s: f64,
        /// Payload bytes this rank moved in the call.
        bytes: u64,
        /// Whether the op synchronizes *all* ranks (a collective) — the
        /// cluster-wide sync points at which budget policies act.
        all_ranks: bool,
    },
}

impl PolicyEvent<'_> {
    /// Whether this event is a cluster-wide synchronization point: the
    /// exit of an all-rank collective. Every rank observes the same
    /// number of these in the same order.
    #[inline]
    pub fn is_sync_point(&self) -> bool {
        matches!(self, PolicyEvent::OpExit { all_ranks: true, .. })
    }
}

/// A read-only snapshot of one rank's state, handed to the policy at
/// each [`PolicyEvent`]. Everything here is derived from virtual time
/// and the simulated hardware counters — nothing host-dependent.
#[derive(Debug, Clone, Copy)]
pub struct Observation<'a> {
    /// This rank's id, `0..size`.
    pub rank: usize,
    /// Number of ranks in the job.
    pub size: usize,
    /// Current virtual time, seconds.
    pub now_s: f64,
    /// The gear the rank is currently running at (1-based index).
    pub gear_index: usize,
    /// The node specification (gear table, CPU and power models).
    pub node: &'a NodeSpec,
    /// Cumulative hardware counters since the start of the run.
    pub counters: &'a Counters,
    /// Counter deltas over this event's window: for `PhaseEnd`, the
    /// enclosed span; otherwise, everything since this rank's previous
    /// policy event (or the run start).
    pub window: &'a Counters,
    /// Length of the window, seconds of virtual time.
    pub window_s: f64,
    /// Exact energy this rank has drawn so far, joules.
    pub energy_so_far_j: f64,
    /// What triggered the callback.
    pub event: PolicyEvent<'a>,
}

/// One rank's half of an online gear policy.
///
/// `decide` returns `Some(gear_index)` to request a shift (a request
/// equal to the current gear is a recorded no-op-free discard) or
/// `None` to leave the gear alone. Implementations must be
/// deterministic — see the module docs. `Send` is required because the
/// threaded backend moves each rank's policy onto that rank's OS
/// thread.
pub trait RankPolicy: Send {
    /// Observe one event and optionally request a gear.
    fn decide(&mut self, obs: &Observation<'_>) -> Option<usize>;
}

/// A cluster-wide gear policy: a factory for per-rank [`RankPolicy`]
/// instances plus the initial gear each rank starts at.
///
/// Per-rank policies never communicate at run time (coordination in
/// virtual time would itself have to be simulated); cluster-wide
/// behavior like power capping is expressed by giving each rank a
/// deterministic share of a global budget at construction.
pub trait ClusterPolicy {
    /// The gear rank `rank` (of `size`) starts the run at, given the
    /// `configured` gear from the run's `GearSelection`
    /// and the node every rank runs on (so budget policies can derive
    /// their cap from the power model).
    fn initial_gear(&self, rank: usize, size: usize, configured: usize, node: &NodeSpec) -> usize {
        let _ = (rank, size, node);
        configured
    }

    /// Build the policy instance that will ride along with rank `rank`.
    fn rank_policy(&self, rank: usize, size: usize, node: &NodeSpec) -> Box<dyn RankPolicy>;
}

/// The do-nothing rank policy: observes every event, never requests a
/// gear. Installing it exercises the whole hook path (marks, windows,
/// energy integration) without changing any result — which is exactly
/// what the `Static` policy and the hook-overhead benchmark need.
#[derive(Debug, Clone, Copy, Default)]
pub struct InertRankPolicy;

impl RankPolicy for InertRankPolicy {
    fn decide(&mut self, _obs: &Observation<'_>) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_point_is_all_rank_op_exit() {
        let collective = PolicyEvent::OpExit {
            op: MpiOp::Allreduce,
            duration_s: 0.1,
            bytes: 64,
            all_ranks: true,
        };
        let p2p =
            PolicyEvent::OpExit { op: MpiOp::Recv, duration_s: 0.1, bytes: 64, all_ranks: false };
        let phase = PolicyEvent::PhaseStart { name: "sweep", depth: 0 };
        assert!(collective.is_sync_point());
        assert!(!p2p.is_sync_point());
        assert!(!phase.is_sync_point());
    }

    #[test]
    fn inert_policy_never_decides() {
        let node = psc_machine::presets::athlon64();
        let counters = Counters::default();
        let window = Counters::default();
        let obs = Observation {
            rank: 0,
            size: 4,
            now_s: 1.0,
            gear_index: 1,
            node: &node,
            counters: &counters,
            window: &window,
            window_s: 1.0,
            energy_so_far_j: 100.0,
            event: PolicyEvent::PhaseStart { name: "x", depth: 0 },
        };
        assert_eq!(InertRankPolicy.decide(&obs), None);
    }

    #[test]
    fn default_initial_gear_is_the_configured_gear() {
        struct F;
        impl ClusterPolicy for F {
            fn rank_policy(
                &self,
                _rank: usize,
                _size: usize,
                _node: &NodeSpec,
            ) -> Box<dyn RankPolicy> {
                Box::new(InertRankPolicy)
            }
        }
        assert_eq!(F.initial_gear(2, 4, 3, &psc_machine::presets::athlon64()), 3);
    }

    #[test]
    fn point_to_point_ops_are_not_collective() {
        for op in [MpiOp::Send, MpiOp::Recv, MpiOp::SendRecv, MpiOp::Irecv, MpiOp::Wait] {
            assert!(!op.is_collective(), "{op:?}");
        }
        for op in [
            MpiOp::Barrier,
            MpiOp::Bcast,
            MpiOp::Reduce,
            MpiOp::Allreduce,
            MpiOp::Allgather,
            MpiOp::Alltoall,
            MpiOp::Scan,
            MpiOp::Gather,
            MpiOp::Scatter,
            MpiOp::Finalize,
        ] {
            assert!(op.is_collective(), "{op:?}");
        }
    }

    #[test]
    fn send_is_not_blocking_everything_else_is() {
        assert!(!MpiOp::Send.is_blocking());
        assert!(!MpiOp::Irecv.is_blocking());
        for op in [
            MpiOp::Recv,
            MpiOp::Wait,
            MpiOp::SendRecv,
            MpiOp::Barrier,
            MpiOp::Bcast,
            MpiOp::Reduce,
            MpiOp::Allreduce,
            MpiOp::Allgather,
            MpiOp::Alltoall,
            MpiOp::Scan,
            MpiOp::Gather,
            MpiOp::Scatter,
            MpiOp::Finalize,
        ] {
            assert!(op.is_blocking(), "{op:?} should be blocking");
        }
    }
}
