//! The powerscale benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload gear_campaign|node_scaling|serve_zipf \
//!     --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --bless
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` splits the
//! workload's host time across the layers. Every simulated statistic is
//! checked against `reference.tsv` (written by `--bless`); the last
//! stdout line is the JSON result, and any mismatch exits non-zero.
//! See `README.md` for the workloads and what each metric means.

// The repository's clippy.toml bans the host clock so that simulation
// code cannot depend on it; measuring host time is this crate's job.
#![allow(clippy::disallowed_methods)]

mod check;
mod gen;
mod layers;
mod serve;
mod stats;
mod sweep;

use check::Tally;
use gen::Entry;
use psc_mpi::{Cluster, RunResult};
use psc_runner::Engine;
use stats::{median, Metric};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Engine workers, server workers and client connections: at most the
/// two CPUs the benchmark is sized for, so load never oversubscribes them.
pub const JOBS: usize = 2;

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["gear_campaign", "node_scaling", "serve_zipf"];

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_wall_s", "s"),
    ("specs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("cache_disk_mb", "MiB"),
];

/// Per-layer metrics: name, unit, and the end-to-end metric and
/// workload each should move.
pub const PER_LAYER: [(&str, &str, &str); 34] = [
    ("kernels.sim_s", "s", "wall_s on gear_campaign"),
    ("kernels.sim_1node_s", "s", "wall_s on node_scaling"),
    ("kernels.repeat_frac", "ratio", "wall_s on gear_campaign (work a re-timing scheme can skip)"),
    ("mpi.calls", "count", "wall_s on node_scaling"),
    ("mpi.trace_events", "count", "cache_disk_mb on node_scaling"),
    ("des.events", "count", "wall_s on node_scaling"),
    ("mpi.p2p_roundtrip_us", "us", "wall_s on node_scaling"),
    ("mpi.compute_call_ns", "ns", "wall_s on gear_campaign"),
    ("mpi.allreduce_us", "us", "wall_s on node_scaling"),
    ("mpi.comm_est_s", "s", "wall_s on node_scaling (estimate: calls x unit cost)"),
    ("des.stack_high_water_kb", "KiB", "peak_rss_mb on every workload"),
    ("machine.power_segments", "count", "cache_disk_mb on node_scaling"),
    ("machine.wattmeter_ms", "ms", "wall_s on gear_campaign"),
    ("policy.decisions", "count", "wall_s on gear_campaign"),
    ("faults.events", "count", "wall_s on gear_campaign"),
    ("runner.cache_key_us", "us", "latency_p50_ms on serve_zipf"),
    ("runner.serialize_s", "s", "wall_s on node_scaling"),
    ("runner.serialize_mb", "MiB", "cache_disk_mb on node_scaling"),
    ("runner.deserialize_s", "s", "warm_wall_s on node_scaling, latency_p99_ms on serve_zipf"),
    ("runner.disk_write_s", "s", "wall_s on node_scaling"),
    ("runner.disk_read_s", "s", "warm_wall_s on node_scaling"),
    ("runner.mem_hit_us", "us", "latency_p50_ms on serve_zipf"),
    ("runner.pool_utilization", "ratio", "wall_s on gear_campaign (slowest spec sets the tail)"),
    ("runner.outcomes.executed", "count", "wall_s on every workload"),
    ("runner.outcomes.cache_hit", "count", "latency_p50_ms on serve_zipf"),
    ("runner.outcomes.inflight_join", "count", "latency_p99_ms on serve_zipf"),
    ("serve.parse_us", "us", "latency_p50_ms on serve_zipf"),
    ("serve.encode_us", "us", "latency_p50_ms on serve_zipf"),
    ("serve.reply_ms.executed", "ms", "latency_p99_ms on serve_zipf"),
    ("serve.reply_ms.cache_hit", "ms", "latency_p50_ms on serve_zipf"),
    ("serve.reply_ms.inflight_join", "ms", "latency_p99_ms on serve_zipf"),
    ("serve.dedup_rate", "ratio", "specs_per_s on serve_zipf"),
    ("trace.overhead_frac", "ratio", "none (replica wall with spans vs without)"),
    ("trace.unattributed_frac", "ratio", "none (replica busy time outside every span)"),
];

/// How a workload's cache is configured, for the traced replica.
#[derive(Debug, Default)]
pub enum CacheKind {
    /// Memory only.
    #[default]
    Memory,
    /// Disk-backed in a fresh directory, pre-warmed with these entries.
    Disk(Vec<Entry>),
}

/// Everything one workload measured and what the traced run needs to
/// replay it.
#[derive(Debug, Default)]
pub struct Measured {
    /// Per set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Per cold pass (sweeps) or cold round (serve), seconds.
    pub wall_s: Vec<f64>,
    /// Per warm pass or round, seconds.
    pub warm_wall_s: Vec<f64>,
    /// Per cold pass or round.
    pub specs_per_s: Vec<f64>,
    /// Per cold pass or round: the median and 99th percentile of its
    /// request latencies (a sweep's `execute` call, a serve frame), s.
    pub latency_p50_s: Vec<f64>,
    /// See `latency_p50_s`.
    pub latency_p99_s: Vec<f64>,
    /// Requests timed over all cold passes or rounds.
    pub latency_samples: usize,
    /// Per pass or round (set-up included), peak resident memory, MiB.
    pub peak_rss_mb: Vec<f64>,
    /// Disk-cache footprint after a cold pass, MiB.
    pub cache_disk_mb: f64,
    /// Checked operations.
    pub tally: Tally,
    /// The distinct specs of a cold pass in first-request order, with
    /// their results.
    pub distinct: Vec<(Entry, Arc<RunResult>)>,
    /// Share of `distinct` whose (kernel, class, nodes) ran earlier.
    pub repeat_frac: f64,
    /// Per cold pass: executed, cache hit, in-flight join.
    pub outcomes: [f64; 3],
    /// 1 - executed / specs answered, cold.
    pub dedup_rate: f64,
    /// The engine pool's busy share (sweeps).
    pub pool_utilization: Option<f64>,
    /// Client-observed median reply ms per outcome (serve).
    pub reply_ms: Option<[f64; 3]>,
    /// Replica work items: an optional frame line and indices into
    /// `distinct`.
    pub replica: Vec<(Option<String>, Vec<usize>)>,
    /// The workload's cache configuration.
    pub cache: CacheKind,
    /// The workload's requests as serve `run` frames.
    pub frames: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--bless"] {
        return Ok(None);
    }
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (one of {})", WORKLOADS.join(", ")));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Some(Args { workload, seed, seconds, trace }))
}

/// Write `reference.tsv`: the digest of a direct serial run of every
/// spec any workload can draw, whatever the seed.
fn bless(cluster: &Cluster) {
    let mut entries = gen::gear_campaign_universe(&cluster.node);
    entries.extend(gen::node_scaling(0, 0).entries().cloned());
    entries.extend(gen::serve_universe(&cluster.node));
    entries.sort_by(|a, b| a.label.cmp(&b.label));
    entries.dedup_by(|a, b| a.label == b.label);
    let serial = Engine::serial(cluster.clone());
    let mut out = String::from("# label\tdigest (regenerate with --bless)\n");
    for e in &entries {
        out.push_str(&format!("{}\t{:016x}\n", e.label, check::digest(&serial.run(&e.spec))));
    }
    std::fs::write(check::REFERENCE_PATH, out).expect("write the reference");
    println!("blessed {} entries into {}", entries.len(), check::REFERENCE_PATH);
}

fn end_to_end(m: &Measured) -> [f64; END_TO_END.len()] {
    [
        median(&m.setup_s),
        median(&m.wall_s),
        median(&m.warm_wall_s),
        median(&m.specs_per_s),
        median(&m.latency_p50_s) * 1e3,
        median(&m.latency_p99_s) * 1e3,
        median(&m.peak_rss_mb),
        m.cache_disk_mb,
    ]
}

fn per_layer(
    cluster: &Cluster,
    m: &Measured,
    deadline: Instant,
    dir: &Path,
    tally: &mut Tally,
) -> [f64; PER_LAYER.len()] {
    // Alternate replica passes with and without spans.
    let (mut passes, mut plain) = (Vec::new(), Vec::new());
    while plain.is_empty() || Instant::now() < deadline {
        let timed = passes.len() <= plain.len();
        let r = layers::replica_pass(cluster, m, dir, timed, tally);
        if timed {
            passes.push(r)
        } else {
            plain.push(r.wall_s)
        }
    }
    let pick =
        |f: &dyn Fn(&layers::Replica) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let p = layers::price(cluster, m, dir, tally);

    let runs = || m.distinct.iter().map(|(_, r)| r);
    let ranks = || runs().flat_map(|r| &r.ranks);
    let sum = |f: &dyn Fn(&psc_mpi::RankResult) -> usize| ranks().map(f).sum::<usize>() as f64;
    let mpi_calls = ranks().map(|r| r.counters.mpi_calls).sum::<u64>() as f64;
    let replica_wall = pick(&|r| r.wall_s);
    let utilization =
        m.pool_utilization.unwrap_or_else(|| pick(&|r| r.busy_s / (r.wall_s * JOBS as f64)));

    println!(
        "replica passes: {} traced, {} untraced; traced replica wall / untraced {} wall = {:.4}",
        passes.len(),
        plain.len(),
        if m.reply_ms.is_some() { "round" } else { "pass" },
        replica_wall / median(&m.wall_s)
    );
    if let Some(r) = passes.first() {
        println!(
            "replica split by node count (first pass): nodes  simulate_s  insert_s  insert_share"
        );
        for (n, (s, i)) in &r.by_nodes {
            println!("  {n:>2}  {s:.4}  {i:.4}  {:.3}", i / (s + i));
        }
    }
    [
        pick(&|r| r.sim_s),
        p.sim_1node_s,
        m.repeat_frac,
        mpi_calls,
        sum(&|r| r.trace.events().len()),
        pick(&|r| r.des_events),
        p.p2p_roundtrip_us,
        p.compute_call_ns,
        p.allreduce_us,
        mpi_calls * p.p2p_roundtrip_us / 4.0 * 1e-6,
        passes.iter().map(|r| r.stack_high_water).fold(0.0, f64::max) / 1024.0,
        sum(&|r| r.power.segments().len()),
        p.wattmeter_ms,
        sum(&|r| r.trace.decisions().len()),
        sum(&|r| r.trace.fault_events().len()),
        p.cache_key_us,
        p.serialize_s,
        p.serialize_mb,
        p.deserialize_s,
        p.disk_write_s,
        p.disk_read_s,
        p.mem_hit_us,
        utilization,
        m.outcomes[0],
        m.outcomes[1],
        m.outcomes[2],
        p.parse_us,
        p.encode_us,
        p.reply_ms[0],
        p.reply_ms[1],
        p.reply_ms[2],
        m.dedup_rate,
        replica_wall / median(&plain) - 1.0,
        pick(&|r| 1.0 - r.spans_s() / r.busy_s),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cluster = Cluster::athlon_fast_ethernet();
    let Some(args) = args else {
        bless(&cluster);
        return;
    };
    let start = Instant::now();
    let work_root = PathBuf::from(".bench_work");
    let work_dir = work_root.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).expect("create the work directory");

    println!("{}", stats::host_line());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    // The traced run measures the untraced passes for half its time
    // (the base of trace.overhead_frac) and the replica for the rest.
    let untraced_s = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let m = match args.workload.as_str() {
        "serve_zipf" => serve::run(args.seed, untraced_s, &cluster, &work_dir),
        w => sweep::run(w, args.seed, untraced_s, &cluster, &work_dir),
    };
    let mut tally = m.tally;
    println!(
        "passes={} kernels.repeat_frac={:.4} latency_samples={}",
        m.wall_s.len(),
        m.repeat_frac,
        m.latency_samples
    );

    let metrics: Vec<Metric> = if args.trace {
        let deadline = start + std::time::Duration::from_secs_f64(args.seconds);
        let values = per_layer(&cluster, &m, deadline, &work_dir.join("layers"), &mut tally);
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit, moves), value)| {
                println!("{name} = {value:.6} {unit}  (moves {moves})");
                Metric { name, unit, value }
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end(&m))
            .map(|(&(name, unit), value)| {
                println!("{name} = {value:.6} {unit}");
                Metric { name, unit, value }
            })
            .collect()
    };

    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(&work_root); // only when no other run uses it
    let correct = tally.failed == 0;
    println!(
        "error_rate = {} ({} failed of {} checked operations)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!("{}", stats::result_line(correct, tally.attempted, tally.failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics and workloads this
    /// program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let v = serde::json::parse(&text).expect("BENCHMARK.json is JSON");
        let list = |k: &str| -> Vec<(String, String)> {
            match v.get(k) {
                Some(serde::Value::Seq(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |f: &str| {
                            m.get(f).and_then(serde::Value::as_str).unwrap_or("").to_owned()
                        };
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks {k}"),
            }
        };
        let e2e: Vec<_> = END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(list("end_to_end"), e2e);
        let layers: Vec<_> =
            PER_LAYER.iter().map(|(n, u, _)| (n.to_string(), u.to_string())).collect();
        assert_eq!(list("per_layer"), layers);
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
