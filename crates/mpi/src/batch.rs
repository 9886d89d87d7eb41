//! Batched execution of independent cluster runs.
//!
//! A measurement campaign (an energy-time curve, a gear profile, a
//! node-count sweep) is a list of *independent* [`ClusterConfig`]s of
//! the same program. [`Cluster::run_many`] executes such a batch across
//! a bounded worker pool and returns the results **in input order** —
//! and because every run advances only virtual time, the results are
//! bit-identical whatever the worker count or host scheduling: all the
//! parallelism does is overlap host wall-clock.
//!
//! Identical configurations inside one batch are executed once and the
//! result is shared. (Cross-batch and cross-process deduplication is
//! the job of `psc-runner`'s content-addressed cache, which builds on
//! this primitive.)

use crate::cluster::{Cluster, ClusterConfig, RunResult};
use crate::comm::Comm;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The worker count used when the caller does not pin one: the
/// `PSC_JOBS` environment variable if set to a positive integer,
/// otherwise the host's available parallelism. Results are
/// bit-identical at any worker count, so this read configures only
/// host-side scheduling, never what a run computes.
pub fn default_jobs() -> usize {
    match std::env::var("PSC_JOBS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

impl Cluster {
    /// Run `program` under every configuration in `cfgs` using up to
    /// `jobs` concurrent runs, returning results in input order.
    ///
    /// Duplicate configurations are executed once; later occurrences
    /// receive a clone of the first result. Results are deterministic
    /// and independent of `jobs` (virtual time does not observe host
    /// scheduling). Panics in any rank propagate, as with
    /// [`Cluster::run`].
    pub fn run_many<F>(&self, cfgs: &[ClusterConfig], program: F, jobs: usize) -> Vec<RunResult>
    where
        F: Fn(&mut Comm) + Sync,
    {
        // Within-batch dedup: map each config to the slot of its first
        // occurrence. Batches are small (a handful of gears or node
        // counts), so the quadratic scan is irrelevant.
        let mut unique: Vec<usize> = Vec::new(); // indices into cfgs
        let mut slot_of: Vec<usize> = Vec::with_capacity(cfgs.len());
        for (i, cfg) in cfgs.iter().enumerate() {
            match cfgs[..i].iter().position(|c| c == cfg) {
                Some(j) => slot_of.push(slot_of[j]),
                None => {
                    unique.push(i);
                    slot_of.push(unique.len() - 1);
                }
            }
        }

        let slots: Vec<OnceLock<RunResult>> = unique.iter().map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let workers = jobs.max(1).min(unique.len().max(1));
        let program = &program;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= unique.len() {
                        break;
                    }
                    let (run, _) = self.run(&cfgs[unique[k]], |comm| program(comm));
                    let _ = slots[k].set(run);
                });
            }
        });

        slot_of
            .into_iter()
            .map(|s| slots[s].get().expect("every slot filled after the pool joins").clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_machine::WorkBlock;
    use std::sync::atomic::AtomicUsize;

    fn cluster() -> Cluster {
        Cluster::athlon_fast_ethernet()
    }

    fn program(comm: &mut Comm) {
        comm.compute(&WorkBlock::with_upm(2.0e8, 70.0));
        comm.barrier();
    }

    #[test]
    fn batched_results_match_serial_runs_exactly() {
        let c = cluster();
        let cfgs: Vec<ClusterConfig> = (1..=6)
            .map(|g| ClusterConfig::uniform(2, g))
            .chain([ClusterConfig::uniform(4, 1)])
            .collect();
        let batched = c.run_many(&cfgs, program, 8);
        assert_eq!(batched.len(), cfgs.len());
        for (cfg, got) in cfgs.iter().zip(&batched) {
            let (want, _) = c.run(cfg, program);
            assert_eq!(got.time_s.to_bits(), want.time_s.to_bits(), "{cfg:?}");
            assert_eq!(got.energy_j.to_bits(), want.energy_j.to_bits(), "{cfg:?}");
            assert_eq!(got.ranks.len(), want.ranks.len());
        }
    }

    #[test]
    fn jobs_one_and_many_are_bit_identical() {
        let c = cluster();
        let cfgs: Vec<ClusterConfig> = (1..=6).map(|g| ClusterConfig::uniform(3, g)).collect();
        let serial = c.run_many(&cfgs, program, 1);
        let parallel = c.run_many(&cfgs, program, 8);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a, b, "parallel batch diverged from serial");
        }
    }

    #[test]
    fn duplicate_configs_run_once() {
        let c = cluster();
        let executed = AtomicUsize::new(0);
        let cfgs = vec![
            ClusterConfig::uniform(1, 2),
            ClusterConfig::uniform(1, 3),
            ClusterConfig::uniform(1, 2), // duplicate of #0
            ClusterConfig::uniform(1, 2), // duplicate of #0
        ];
        let runs = c.run_many(
            &cfgs,
            |comm| {
                executed.fetch_add(1, Ordering::Relaxed);
                program(comm);
            },
            4,
        );
        // One rank per config, two unique configs → two executions.
        assert_eq!(executed.load(Ordering::Relaxed), 2);
        assert_eq!(runs[0], runs[2]);
        assert_eq!(runs[0], runs[3]);
        assert_ne!(runs[0].time_s.to_bits(), runs[1].time_s.to_bits());
    }

    #[test]
    fn empty_batch_returns_empty() {
        let c = cluster();
        assert!(c.run_many(&[], program, 4).is_empty());
    }

    #[test]
    fn default_jobs_honors_env() {
        // Serialize against other tests reading the var is unnecessary:
        // this test only sets and unsets its own value.
        std::env::set_var("PSC_JOBS", "3");
        assert_eq!(default_jobs(), 3);
        std::env::set_var("PSC_JOBS", "not-a-number");
        assert!(default_jobs() >= 1);
        std::env::remove_var("PSC_JOBS");
        assert!(default_jobs() >= 1);
    }
}
