//! The two sweep workloads: `gear_campaign` (memory cache) and
//! `node_scaling` (disk cache, cold pass then warm pass), both driven
//! through `Engine::execute`, one call per request.

use crate::check::{self, Tally};
use crate::gen::{self, Entry, Sweep, KERNELS};
use crate::{CacheKind, Measured, JOBS};
use psc_kernels::ProblemClass;
use psc_mpi::{Cluster, RunResult};
use psc_runner::{Engine, PoolUtilization, RunCache, RunPlan, RunSpec};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Memory-hit warm passes take ~1 ms: each sample times this many back
/// to back, and each cycle takes [`MEMORY_WARM_SAMPLES`] samples.
const MEMORY_WARM_REPEATS: usize = 25;
/// See [`MEMORY_WARM_REPEATS`].
const MEMORY_WARM_SAMPLES: usize = 20;

/// One class-test run per kernel through a throwaway engine: pages in
/// the simulator's code and grows the allocator before timing, without
/// touching the timed engine's cache.
pub fn warm_up(cluster: &Cluster) {
    let e = Engine::serial(cluster.clone());
    for b in KERNELS {
        std::hint::black_box(e.run(&RunSpec::uniform(b, ProblemClass::Test, 1, 1)));
    }
}

fn plan(request: &[Entry]) -> RunPlan {
    request.iter().map(|e| e.spec.clone()).collect()
}

fn engine(cluster: &Cluster, cache: RunCache) -> Engine {
    Engine::new(cluster.clone()).with_jobs(JOBS).with_cache(cache)
}

/// Execute every request of the sweep, timing each; returns the results
/// in submission order and the pass wall time.
fn pass(e: &Engine, sweep: &Sweep, lat: &mut Vec<f64>) -> (Vec<Arc<RunResult>>, f64) {
    let mut out = Vec::with_capacity(sweep.len());
    let t = Instant::now();
    for request in &sweep.requests {
        let plan = plan(request);
        let tr = Instant::now();
        out.extend(e.execute(&plan));
        lat.push(tr.elapsed().as_secs_f64());
    }
    (out, t.elapsed().as_secs_f64())
}

/// Share of specs whose (kernel, class, nodes) already ran earlier in
/// the list — the work a record-once, re-time-per-gear scheme could skip.
pub fn repeat_frac(entries: &[Entry]) -> f64 {
    let mut seen = BTreeSet::new();
    let repeats = entries
        .iter()
        .filter(|e| {
            !seen.insert((e.spec.bench.name(), e.spec.class == ProblemClass::B, e.spec.nodes))
        })
        .count();
    repeats as f64 / entries.len().max(1) as f64
}

/// Run a sweep workload for `seconds`: repeated set-up, cold pass and
/// warm pass, checking every result.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    cluster: &Cluster,
    work_dir: &Path,
) -> Measured {
    let disk = workload == "node_scaling";
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut m = Measured::default();
    let mut tally = Tally::default();
    // The first pass's entries and results, for the traced run.
    let mut first: Option<(Vec<Entry>, Vec<Arc<RunResult>>)> = None;
    let mut cycle = 0usize;
    loop {
        // Set-up: inputs, reference, engine (and a fresh cache directory).
        crate::stats::reset_peak_rss();
        let t = Instant::now();
        let sweep = if disk {
            gen::node_scaling(seed, cycle as u64)
        } else {
            gen::gear_campaign(seed, cycle as u64, &cluster.node)
        };
        let reference = check::reference();
        let dir = work_dir.join(format!("{workload}-{cycle}"));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = if disk { RunCache::with_disk(&dir) } else { RunCache::in_memory() };
        let e = engine(cluster, cache);
        warm_up(cluster);
        m.setup_s.push(t.elapsed().as_secs_f64());

        // Cold pass.
        let mut latency_s = Vec::new();
        let (cold, wall) = pass(&e, &sweep, &mut latency_s);
        crate::stats::push_latency(&mut m, &latency_s);
        if cycle == 0 {
            let s = e.cache_stats();
            let hits = (s.hits - s.inflight_joins) as f64;
            m.outcomes = [s.misses as f64, hits, s.inflight_joins as f64];
            m.dedup_rate = 1.0 - s.misses as f64 / sweep.len() as f64;
            m.pool_utilization =
                Some(PoolUtilization::from_snapshot(&e.metrics().snapshot()).utilization());
        }
        m.wall_s.push(wall);
        m.specs_per_s.push(sweep.len() as f64 / wall);
        for (entry, run) in sweep.entries().zip(&cold) {
            check::check_entry(&mut tally, &reference, entry, run);
        }
        if disk {
            m.cache_disk_mb = crate::stats::dir_mb(&dir);
        }

        // Warm pass: a fresh engine over the same directory answers
        // from disk; the memory-only campaign answers from memory.
        let warm_engine;
        let warm = if disk {
            warm_engine = engine(cluster, RunCache::with_disk(&dir));
            let (warm, warm_wall) = pass(&warm_engine, &sweep, &mut Vec::new());
            m.warm_wall_s.push(warm_wall);
            warm
        } else {
            warm_engine = e;
            let mut last = Vec::new();
            for _ in 0..MEMORY_WARM_SAMPLES {
                let t = Instant::now();
                for _ in 0..MEMORY_WARM_REPEATS {
                    last = sweep.entries().map(|x| warm_engine.run(&x.spec)).collect();
                }
                m.warm_wall_s.push(t.elapsed().as_secs_f64() / MEMORY_WARM_REPEATS as f64);
            }
            last
        };
        for ((entry, c), w) in sweep.entries().zip(&cold).zip(&warm) {
            tally.check(**c == **w && check::digest(c) == check::digest(w), || {
                format!("{}: warm result differs from the cold pass", entry.label)
            });
        }
        m.peak_rss_mb.push(crate::stats::peak_rss_mb());
        let _ = std::fs::remove_dir_all(&dir);

        if first.is_none() {
            m.frames = sweep_frames(&sweep);
            first = Some((sweep.entries().cloned().collect(), cold));
        }
        cycle += 1;
        if Instant::now() >= deadline && cycle >= 2 {
            break;
        }
    }
    let (entries, results) = first.expect("at least one cycle ran");
    if !disk {
        // What the memory-only cache would occupy in disk-cache format.
        m.cache_disk_mb =
            results.iter().map(|r| serde::json::to_string(&**r).len() as f64).sum::<f64>()
                / (1024.0 * 1024.0);
    }
    m.repeat_frac = repeat_frac(&entries);
    // The distinct specs of one cold pass, in first-request order.
    let mut seen = BTreeSet::new();
    for (entry, run) in entries.into_iter().zip(results) {
        if seen.insert(entry.label.clone()) {
            m.distinct.push((entry, run));
        }
    }
    m.replica = (0..m.distinct.len()).map(|i| (None, vec![i])).collect();
    m.cache = if disk { CacheKind::Disk(Vec::new()) } else { CacheKind::Memory };
    m.tally = tally;
    m
}

/// The sweep's specs as serve `run` frames, one per kernel request, for
/// pricing the protocol layer on this workload's inputs.
fn sweep_frames(sweep: &Sweep) -> Vec<String> {
    sweep
        .requests
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let specs: Vec<&str> = request.iter().map(|e| e.wire.as_str()).collect();
            format!(r#"{{"id":"r{i}","cmd":"run","specs":[{}]}}"#, specs.join(","))
        })
        .collect()
}
