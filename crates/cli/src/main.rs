//! `powerscale` — command-line interface to the power-scalable cluster
//! simulator. [`USAGE`] (`powerscale --help`) lists every command with
//! exactly the flags it reads; every command parses its command line
//! through [`psc_experiments::args::Args`].

#![deny(unsafe_op_in_unsafe_fn)]

use psc_analysis::curve::{EnergyTimeCurve, EnergyTimePoint};
use psc_analysis::pareto::{configs_of, fastest_under_power_cap, pareto_frontier};
use psc_analysis::plot::ascii_plot;
use psc_experiments::args::{Args, CliError};
use psc_experiments::harness::{
    backend_from_args, class_label, cluster, engine_from_args, engine_like, faults_from_args,
    measure_curve, model_for, predicted_curve,
};
use psc_faults::{FaultPlan, DEFAULT_NOISE_LEVEL};
use psc_kernels::{Benchmark, KernelOutput, ProblemClass};
use psc_model::autogear::{gear_for_delay_budget, min_energy_gear};
use psc_mpi::{ClusterConfig, RunResult};
use psc_policy::PolicySpec;
use psc_runner::{Engine, RunSpec};
use psc_telemetry::{write_chrome_trace, write_self_trace, RunManifest};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod stats;

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)).and_then(|a| a.conclude(dispatch(&a))) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn dispatch(args: &Args) -> Result<ExitCode, CliError> {
    let result = match args.positional(0) {
        // `analyze` picks its own exit code (findings under --deny fail
        // the run without being an *error*).
        Some("analyze") => return cmd_analyze(args),
        Some("run") => cmd_run(args),
        Some("sweep") => cmd_sweep(args),
        Some("stats") => cmd_stats(args),
        Some("trace") => cmd_trace(args),
        Some("curve") => cmd_curve(args),
        Some("model") => cmd_model(args),
        Some("advise") => cmd_advise(args),
        Some("budget") => cmd_budget(args),
        Some("faults") => cmd_faults(args),
        Some("policy") => cmd_policy(args),
        Some("serve") => cmd_serve(args),
        Some("replay") => cmd_replay(args),
        Some("list") => cmd_list(args),
        Some("help" | "-h") => cmd_help(args),
        None if args.switch("--help")? => cmd_help(args),
        None => {
            eprintln!("{USAGE}");
            return Ok(ExitCode::from(2));
        }
        Some(other) => {
            Err(CliError::Usage(format!("unknown command '{other}' (see `powerscale --help`)")))
        }
    };
    result.map(|()| ExitCode::SUCCESS)
}

fn cmd_help(args: &Args) -> Result<(), CliError> {
    args.finish()?;
    println!("{USAGE}");
    Ok(())
}

const USAGE: &str = "\
powerscale — energy-time exploration on a simulated power-scalable cluster

USAGE:
  powerscale run    --bench <NAME> [--nodes N] [--gear G] [--class b|test]
                    [--policy SPEC] [--backend threaded|des] [FAULTS]
                    [--trace-out PATH] [--manifest-out PATH]
  powerscale trace  --bench <NAME> [--nodes N] [--gear G] [--class b|test]
                    [--policy SPEC] [--backend threaded|des] [FAULTS]
                    [--out PATH]
  powerscale sweep  --bench <NAME> [--nodes N] [--class b|test] [ENGINE]
                    [--trace-out PATH] [--metrics-out PATH]
                    [--self-trace-out PATH] [--events-out PATH]
  powerscale stats  --bench <NAME> [--nodes N] [--class b|test] [ENGINE]
                    [--metrics-out PATH] [--self-trace-out PATH]
                    [--events-out PATH]
  powerscale curve  --bench <NAME> [--max-nodes N] [--class b|test] [ENGINE]
  powerscale model  --bench <NAME> [--predict M] [--class b|test] [ENGINE]
  powerscale advise --upm <UPM> [--delay FRAC]
  powerscale budget --bench <NAME> --power-cap <WATTS> [--max-nodes N]
                    [--class b|test] [ENGINE]
  powerscale faults [--seed N] [--level FRAC] [--out PATH] | --inspect PATH
  powerscale policy list | describe <NAME>
  powerscale policy run --bench <NAME> --policy <SPEC> [--nodes N] [--gear G]
                    [--class b|test] [--backend threaded|des] [FAULTS]
  powerscale serve  [--tcp ADDR] [--workers N] [--queue-cap N]
                    [--max-batch N] [ENGINE]
  powerscale replay [--clients N] [--requests N] [--batch N] [--seed N]
                    [--zipf S] [--interactive PCT] [--workers N]
                    [--queue-cap N] [--min-dedup FRAC] [--quick] [ENGINE]
  powerscale analyze [--deny] [--format text|json] [--baseline FILE]
                    [--root DIR] [--time-budget-ms N]
  powerscale list

  FAULTS = [--faults PATH] [--fault-seed N]
  ENGINE = [--jobs J] [--backend threaded|des] [FAULTS]

  --class test       tiny problem sizes (CI speed); the default is class B
  --jobs J           worker pool size (default: PSC_JOBS, else available
                     parallelism); results are identical at any J
  --backend B        how ranks run on the host: `des` coroutines (default)
                     or one `threaded` OS thread each; results are identical
  --faults PATH      run under a fault plan written by `powerscale faults`
  --fault-seed N     the default-noise plan at seed N (re-seeds --faults)
  --policy SPEC      online gear policy: static:3, phase-adaptive:1.05,
                     power-cap:400, oracle:0=2,3=5 (see `policy describe`)
  --trace-out PATH   Chrome Trace Event JSON for Perfetto; sweep writes one
                     file per gear, with -g<K> before the extension
  --metrics-out, --self-trace-out, --events-out PATH
                     engine metrics as Prometheus text, a self-trace
                     flamegraph, or a JSONL event log (observation only)
  --deny, --baseline FILE, --time-budget-ms N
                     analyze fails on findings not in FILE, or when the
                     analysis takes longer than N ms

  Sweeping commands memoize runs in a content-addressed cache under
  target/psc-run-cache (PSC_CACHE_DIR overrides; PSC_CACHE=0 disables).
  `serve` speaks JSONL on stdio or --tcp HOST:PORT (port 0 picks a free
  port and prints it). `replay` load-tests an in-process server and
  fails on any reply that differs from direct execution, any duplicated
  simulation, or a dedup rate under --min-dedup. README.md and DESIGN.md
  describe each subsystem.

  Flags are `--name value` pairs or bare `--switch`es. An unknown,
  repeated or valueless flag, a value given to a switch, or a stray
  argument is a usage error. Exit status: 0 on success, 1 on an error
  (a bad flag value, or fresh findings under `analyze --deny`), 2 on a
  usage error.";

/// Write the engine metrics exports `sweep` and `stats` take:
/// `--metrics-out` (Prometheus text exposition), `--self-trace-out`
/// (engine flamegraph, Trace Event Format), `--events-out` (structured
/// JSONL event log). Paths echo on stdout; the lines are deterministic
/// (same path whatever the worker count), so the `--jobs` byte-identity
/// gates are unaffected.
fn export_metrics(e: &Engine, [metrics, self_trace, events]: Exports) -> Result<(), CliError> {
    if metrics.is_none() && self_trace.is_none() && events.is_none() {
        return Ok(());
    }
    let snap = e.metrics().snapshot();
    let spans = e.metrics().spans();
    let write = |path: &str, text: String| -> Result<(), String> {
        let path = Path::new(path);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("creating {}: {e}", parent.display()))?;
            }
        }
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    if let Some(path) = metrics {
        write(path, psc_metrics::render_prometheus(&snap))?;
        println!("  metrics  {path}");
    }
    if let Some(path) = self_trace {
        write_self_trace(&spans, &snap, Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("  self-trace {path} (open in Perfetto)");
    }
    if let Some(path) = events {
        write(path, psc_metrics::events_jsonl(&snap, &spans))?;
        println!("  events   {path}");
    }
    Ok(())
}

/// The `--metrics-out`, `--self-trace-out` and `--events-out` paths.
type Exports<'a> = [Option<&'a str>; 3];

fn exports(args: &Args) -> Result<Exports<'_>, CliError> {
    let path = |flag| args.value(flag);
    Ok([path("--metrics-out")?, path("--self-trace-out")?, path("--events-out")?])
}

/// A one-line account of what a sweep actually executed.
fn print_cache_line(e: &Engine) {
    let s = e.cache_stats();
    println!(
        "\n  [{} run(s): {} executed, {} from cache ({} disk), {} worker(s)]",
        s.lookups(),
        s.misses,
        s.hits,
        s.disk_hits,
        e.jobs()
    );
}

fn parse_bench(args: &Args) -> Result<Benchmark, CliError> {
    let name = args.value("--bench")?.ok_or("missing --bench <NAME>")?;
    Benchmark::parse(name)
        .ok_or_else(|| format!("unknown benchmark '{name}' (try `powerscale list`)").into())
}

fn parse_class(args: &Args) -> Result<ProblemClass, CliError> {
    match args.value("--class")? {
        None | Some("b") | Some("B") => Ok(ProblemClass::B),
        Some("test") => Ok(ProblemClass::Test),
        Some(other) => Err(format!("unknown class '{other}' (b or test)").into()),
    }
}

/// `--nodes` (default 1), checked against the benchmark's valid counts.
fn parse_nodes(args: &Args, bench: Benchmark) -> Result<usize, CliError> {
    let nodes = args.num("--nodes")?.unwrap_or(1);
    if !bench.supports_nodes(nodes) {
        return Err(format!(
            "{} cannot run on {nodes} nodes (valid: {:?})",
            bench.name(),
            bench.valid_nodes(32)
        )
        .into());
    }
    Ok(nodes)
}

/// One configuration driven on the testbed cluster directly rather than
/// through an engine — what `run`, `trace` and `policy run` measure.
struct DirectRun {
    bench: Benchmark,
    class: ProblemClass,
    nodes: usize,
    gear: usize,
    cluster: psc_mpi::Cluster,
    faults: Option<FaultPlan>,
    policy: Option<PolicySpec>,
}

impl DirectRun {
    fn from_args(args: &Args) -> Result<Self, CliError> {
        let bench = parse_bench(args)?;
        let class = parse_class(args)?;
        let nodes = parse_nodes(args, bench)?;
        let gear: usize = args.num("--gear")?.unwrap_or(1);
        let cluster = match backend_from_args(args)? {
            Some(b) => cluster().with_backend(b),
            None => cluster(),
        };
        if gear < 1 || gear > cluster.node.gears.len() {
            return Err(format!("gear must be 1..={}", cluster.node.gears.len()).into());
        }
        let faults = faults_from_args(args)?;
        let policy = args.value("--policy")?.map(PolicySpec::parse).transpose()?;
        if let Some(p) = &policy {
            p.validate(&cluster.node, nodes)?;
        }
        Ok(DirectRun { bench, class, nodes, gear, cluster, faults, policy })
    }

    fn config(&self) -> ClusterConfig {
        ClusterConfig::uniform(self.nodes, self.gear)
    }

    fn execute(&self) -> (RunResult, Vec<KernelOutput>) {
        let (bench, class) = (self.bench, self.class);
        self.cluster.run_with_policy(
            &self.config(),
            self.faults.as_ref(),
            self.policy.as_ref().map(|p| p as _),
            move |comm: &mut psc_mpi::Comm| bench.run(comm, class),
        )
    }
}

fn cmd_run(args: &Args) -> Result<(), CliError> {
    let d = DirectRun::from_args(args)?;
    let trace_out = args.value("--trace-out")?.map(PathBuf::from);
    let manifest_out = args.value("--manifest-out")?.map(PathBuf::from);
    args.finish()?;
    let (run, outs) = d.execute();
    let (bench, nodes) = (d.bench, d.nodes);
    let out = &outs[0];
    match &d.policy {
        Some(p) => println!("{} on {nodes} node(s) under {}:", bench.name(), p.shorthand()),
        None => println!("{} on {nodes} node(s) at gear {}:", bench.name(), d.gear),
    }
    println!("  time    {:>12.2} s", run.time_s);
    println!("  energy  {:>12.0} J (wattmeter: {:.0} J)", run.energy_j, run.measured_energy_j);
    println!("  power   {:>12.1} W average", run.average_power_w());
    println!(
        "  T^A     {:>12.2} s (max rank), T^I {:.2} s",
        run.active_max_s(),
        run.idle_of_max_s()
    );
    println!("  UPM     {:>12.1}", run.total_counters().upm());
    println!("  checksum {:>11.6e}  iterations {}", out.checksum, out.iterations);
    if let Some(r) = out.residual {
        println!("  residual {:>11.3e}", r);
    }
    if let Some(path) = trace_out {
        write_chrome_trace(&run, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("  trace    {}", path.display());
    }
    if let Some(path) = manifest_out {
        let m = RunManifest::new(bench.name(), class_label(d.class), &d.config(), &run);
        m.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("  manifest {}", path.display());
    }
    Ok(())
}

/// `lu.json` → `lu-g3.json` (gear inserted before the extension).
fn path_with_gear(path: &Path, gear: usize) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let name = match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}-g{gear}.{ext}"),
        None => format!("{stem}-g{gear}"),
    };
    path.with_file_name(name)
}

fn cmd_trace(args: &Args) -> Result<(), CliError> {
    let d = DirectRun::from_args(args)?;
    let (bench, nodes, gear) = (d.bench, d.nodes, d.gear);
    let trace_path = match args.value("--out")? {
        Some(p) => PathBuf::from(p),
        None => PathBuf::from("results")
            .join(format!("{}-n{nodes}-g{gear}.trace.json", bench.name().to_lowercase())),
    };
    args.finish()?;
    let (run, _) = d.execute();
    let m = RunManifest::new(bench.name(), class_label(d.class), &d.config(), &run);
    println!(
        "{} on {nodes} node(s) at gear {gear}: {:.2} s, {:.0} J\n",
        bench.name(),
        run.time_s,
        run.energy_j
    );
    println!("{}", m.attribution.table());
    write_chrome_trace(&run, &trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    let manifest_path = m.default_path();
    m.write(&manifest_path).map_err(|e| format!("writing {}: {e}", manifest_path.display()))?;
    println!("wrote {} (open in Perfetto)", trace_path.display());
    println!("wrote {}", manifest_path.display());
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), CliError> {
    let bench = parse_bench(args)?;
    let class = parse_class(args)?;
    let nodes = parse_nodes(args, bench)?;
    let e = engine_from_args(args)?;
    let trace_out = args.value("--trace-out")?.map(PathBuf::from);
    let exports = exports(args)?;
    args.finish()?;
    let curve = match &trace_out {
        None => measure_curve(&e, bench, class, nodes),
        Some(base) => {
            // Runs come through the engine (cached, per-rank traces
            // included), then each one's trace is exported.
            let points = (1..=e.gear_count())
                .map(|gear| {
                    let run = e.run(&RunSpec::uniform(bench, class, nodes, gear));
                    let path = path_with_gear(base, gear);
                    write_chrome_trace(&run, &path)
                        .map_err(|e| format!("writing {}: {e}", path.display()))?;
                    Ok(EnergyTimePoint { gear, time_s: run.time_s, energy_j: run.energy_j })
                })
                .collect::<Result<Vec<_>, String>>()?;
            EnergyTimeCurve::new(bench.name(), nodes, points)
        }
    };
    println!("{} on {nodes} node(s):", bench.name());
    println!(
        "  {:>4} {:>10} {:>10} {:>8} {:>9}",
        "gear", "time [s]", "energy [J]", "delay", "savings"
    );
    for p in &curve.points {
        println!(
            "  {:>4} {:>10.2} {:>10.0} {:>7.2}% {:>8.2}%",
            p.gear,
            p.time_s,
            p.energy_j,
            100.0 * curve.delay(p.gear).unwrap(),
            100.0 * curve.savings(p.gear).unwrap()
        );
    }
    let edp = psc_analysis::metrics::best_edp_gear(&curve);
    let ed2p = psc_analysis::metrics::best_ed2p_gear(&curve);
    println!(
        "\n  min energy: gear {}  |  min E·T: gear {edp}  |  min E·T²: gear {ed2p}",
        curve.min_energy_gear()
    );
    println!("\n{}", ascii_plot(std::slice::from_ref(&curve), 60, 12));
    print_cache_line(&e);
    export_metrics(&e, exports)
}

/// `powerscale stats`: drive a figure-1-style gear sweep through the
/// engine, then report what the engine itself did — cache hit rate,
/// per-kernel wall-time histograms, queue behaviour, worker-pool
/// utilization, disk-I/O breakdown. The simulated results are
/// unaffected by the observation (analyzer rules L001, M001, R005);
/// run it twice to see the cold-vs-warm cache difference.
fn cmd_stats(args: &Args) -> Result<(), CliError> {
    let bench = parse_bench(args)?;
    let class = parse_class(args)?;
    let nodes = parse_nodes(args, bench)?;
    let e = engine_from_args(args)?;
    let exports = exports(args)?;
    args.finish()?;
    let curve = measure_curve(&e, bench, class, nodes);
    println!(
        "engine stats for the {} gear sweep on {nodes} node(s) ({} gear(s), {} worker(s)):\n",
        bench.name(),
        curve.points.len(),
        e.jobs()
    );
    print!("{}", stats::render_stats(&e.metrics().snapshot()));
    export_metrics(&e, exports)
}

fn cmd_curve(args: &Args) -> Result<(), CliError> {
    let bench = parse_bench(args)?;
    let class = parse_class(args)?;
    let max_nodes: usize = args.num("--max-nodes")?.unwrap_or(8);
    let e = engine_from_args(args)?;
    args.finish()?;
    let curves: Vec<_> = bench
        .valid_nodes(max_nodes)
        .into_iter()
        .map(|n| measure_curve(&e, bench, class, n))
        .collect();
    println!("{}", ascii_plot(&curves, 70, 16));
    print_cache_line(&e);
    Ok(())
}

fn cmd_model(args: &Args) -> Result<(), CliError> {
    let bench = parse_bench(args)?;
    let class = parse_class(args)?;
    let target: usize = args.num("--predict")?.unwrap_or(32);
    let e = engine_from_args(args)?;
    args.finish()?;
    let model = model_for(&e, bench, class, 9);
    println!("{} model (fit on ≤9 nodes):", bench.name());
    println!("  F_s ≈ {:.4} (slope {:+.5}/node)", model.amdahl.fs_mean(), model.amdahl.fs_slope);
    println!("  communication: {} (R² {:.3})", model.comm.shape, model.comm.r2);
    println!("  reducible fraction: {:.1}%", 100.0 * model.reducible_fraction);
    println!("\npredicted energy-time curve at {target} nodes (refined model):");
    println!("  {:>4} {:>10} {:>10}", "gear", "time [s]", "energy [J]");
    for p in model.predict_curve(target, true) {
        println!("  {:>4} {:>10.2} {:>10.0}", p.gear, p.time_s, p.energy_j);
    }
    let curve = predicted_curve(&model, bench, target, true);
    println!("\n{}", ascii_plot(std::slice::from_ref(&curve), 60, 12));
    print_cache_line(&e);
    Ok(())
}

fn cmd_advise(args: &Args) -> Result<(), CliError> {
    let upm: f64 = args.num("--upm")?.unwrap_or(f64::NAN);
    if !upm.is_finite() || upm <= 0.0 {
        return Err("missing or invalid --upm <UPM>".into());
    }
    let delay: f64 = args.num("--delay")?.unwrap_or(0.05);
    args.finish()?;
    let node = psc_machine::presets::athlon64();
    let a = gear_for_delay_budget(&node, upm, delay);
    let e = min_energy_gear(&node, upm);
    println!("workload at UPM {upm} on {}:", node.name);
    println!(
        "  within {:.0}% delay budget: gear {} (predicted delay {:+.1}%, savings {:+.1}%)",
        100.0 * delay,
        a.gear,
        100.0 * a.predicted_delay,
        100.0 * a.predicted_savings
    );
    println!(
        "  minimum-energy gear:      gear {} (predicted delay {:+.1}%, savings {:+.1}%)",
        e.gear,
        100.0 * e.predicted_delay,
        100.0 * e.predicted_savings
    );
    Ok(())
}

fn cmd_budget(args: &Args) -> Result<(), CliError> {
    let bench = parse_bench(args)?;
    let class = parse_class(args)?;
    let cap: f64 = args.num("--power-cap")?.unwrap_or(f64::NAN);
    if !cap.is_finite() || cap <= 0.0 {
        return Err("missing or invalid --power-cap <WATTS>".into());
    }
    let max_nodes: usize = args.num("--max-nodes")?.unwrap_or(9);
    let e = engine_from_args(args)?;
    args.finish()?;
    let curves: Vec<_> = bench
        .valid_nodes(max_nodes)
        .into_iter()
        .map(|n| measure_curve(&e, bench, class, n))
        .collect();
    let configs = configs_of(&curves);
    println!("Pareto frontier for {} (≤{max_nodes} nodes):", bench.name());
    for f in pareto_frontier(&configs) {
        println!(
            "  {:>2} nodes, gear {}: {:>8.2} s, {:>8.0} J, {:>6.1} W avg",
            f.nodes,
            f.gear,
            f.time_s,
            f.energy_j,
            f.average_power_w()
        );
    }
    match fastest_under_power_cap(&configs, cap) {
        Some(pick) => println!(
            "\nfastest under {cap:.0} W: {} nodes at gear {} ({:.2} s, {:.1} W avg)",
            pick.nodes,
            pick.gear,
            pick.time_s,
            pick.average_power_w()
        ),
        None => println!("\nno configuration fits under {cap:.0} W"),
    }
    print_cache_line(&e);
    Ok(())
}

fn cmd_faults(args: &Args) -> Result<(), CliError> {
    if let Some(path) = args.value("--inspect")? {
        args.finish()?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let plan = FaultPlan::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        println!("fault plan {path}:");
        println!("{}", plan.summary());
        return Ok(());
    }
    let seed: u64 = args.num("--seed")?.unwrap_or(42);
    let level: f64 = args.num("--level")?.unwrap_or(DEFAULT_NOISE_LEVEL);
    if !(0.0..=0.5).contains(&level) {
        return Err(format!("--level must be in [0, 0.5], got {level}").into());
    }
    let out = args.value("--out")?;
    args.finish()?;
    let plan = if level == 0.0 { FaultPlan::quiet(seed) } else { FaultPlan::noise(seed, level) };
    plan.validate()?;
    match out {
        Some(path) => {
            std::fs::write(path, plan.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {path}");
            println!("{}", plan.summary());
        }
        None => println!("{}", plan.to_json()),
    }
    Ok(())
}

/// `powerscale policy`: list the online gear policies, describe one, or
/// run a benchmark under one.
fn cmd_policy(args: &Args) -> Result<(), CliError> {
    match args.positional(1) {
        Some("list") => {
            args.finish()?;
            println!("{:<16} summary", "policy");
            for name in PolicySpec::NAMES {
                println!("{name:<16} {}", PolicySpec::summary(name).expect("listed policy"));
            }
            Ok(())
        }
        Some("describe") => {
            let name = args
                .positional(2)
                .ok_or("missing policy name: powerscale policy describe <NAME>")?;
            args.finish()?;
            let text = PolicySpec::describe(name).ok_or_else(|| {
                format!("unknown policy '{name}' (available: {})", PolicySpec::NAMES.join(", "))
            })?;
            print!("{text}");
            Ok(())
        }
        Some("run") => cmd_policy_run(args),
        Some(other) => Err(CliError::Usage(format!(
            "unknown policy subcommand '{other}' (list, describe, run)"
        ))),
        None => Err(CliError::Usage("missing policy subcommand (list, describe, run)".into())),
    }
}

fn cmd_policy_run(args: &Args) -> Result<(), CliError> {
    let d = DirectRun::from_args(args)?;
    let policy =
        d.policy.as_ref().ok_or("missing --policy <SPEC> (try `powerscale policy list`)")?;
    args.finish()?;
    let (run, _) = d.execute();
    let decisions: usize = run.ranks.iter().map(|r| r.trace.decisions().len()).sum();
    let shifts: usize = run.ranks.iter().map(|r| r.trace.gear_shifts().len()).sum();
    let nodes = d.nodes;
    println!("{} on {nodes} node(s) under {}:", d.bench.name(), policy.shorthand());
    println!("  time      {:>12.2} s", run.time_s);
    println!("  energy    {:>12.0} J (wattmeter: {:.0} J)", run.energy_j, run.measured_energy_j);
    println!("  power     {:>12.1} W average", run.average_power_w());
    println!("  decisions {:>12} across {} rank(s), {} gear shift(s)", decisions, nodes, shifts);
    for r in &run.ranks {
        if r.trace.decisions().is_empty() {
            continue;
        }
        // Full logs can run to hundreds of entries; show the head and
        // point at `trace --policy` for the rest.
        const SHOWN: usize = 6;
        let all = r.trace.decisions();
        let mut log: Vec<String> = all
            .iter()
            .take(SHOWN)
            .map(|d| format!("{:.3}s g{}→g{}", d.t_s, d.from_gear, d.to_gear))
            .collect();
        if all.len() > SHOWN {
            log.push(format!("… (+{} more)", all.len() - SHOWN));
        }
        println!("  rank {:<3} {}", r.rank, log.join("  "));
    }
    Ok(())
}

/// `powerscale serve`: run the JSONL job server on stdio or TCP.
/// Protocol bytes own stdout in stdio mode, so diagnostics go to
/// stderr; in TCP mode the bound address prints on stdout for scripts
/// to capture.
fn cmd_serve(args: &Args) -> Result<(), CliError> {
    use std::io::Write as _;
    let workers: usize = args.num("--workers")?.unwrap_or(4);
    let queue_cap: usize = args.num("--queue-cap")?.unwrap_or(64);
    let max_batch: usize = args.num("--max-batch")?.unwrap_or(1024);
    let tcp = args.value("--tcp")?;
    let engine = std::sync::Arc::new(engine_from_args(args)?);
    args.finish()?;
    let server = psc_serve::Server::new(
        engine,
        psc_serve::ServerConfig { workers, queue_capacity: queue_cap, max_batch },
    );
    match tcp {
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| format!("local addr: {e}"))?;
            println!("listening on {local} ({workers} worker(s), queue {queue_cap}/lane)");
            let _ = std::io::stdout().flush();
            server.serve_tcp(listener).map_err(|e| format!("serving {local}: {e}"))?;
        }
        None => {
            eprintln!(
                "serving JSONL on stdio ({workers} worker(s), queue {queue_cap}/lane); \
                 send {{\"id\":\"...\",\"cmd\":\"shutdown\"}} or EOF to stop"
            );
            let stdin = std::io::stdin();
            server.run_stdio(stdin.lock(), Box::new(std::io::stdout()));
        }
    }
    Ok(())
}

/// `powerscale replay`: the deterministic load-test harness. Fails
/// (non-zero exit) if any reply diverges from direct engine execution,
/// any duplicated spec simulates twice, or the dedup rate falls under
/// --min-dedup — the gates CI leans on.
fn cmd_replay(args: &Args) -> Result<(), CliError> {
    let base = if args.switch("--quick")? {
        psc_serve::ReplayConfig {
            clients: 4,
            requests_per_client: 6,
            batch_size: 3,
            ..psc_serve::ReplayConfig::default()
        }
    } else {
        psc_serve::ReplayConfig::default()
    };
    let cfg = psc_serve::ReplayConfig {
        clients: args.num("--clients")?.unwrap_or(base.clients),
        requests_per_client: args.num("--requests")?.unwrap_or(base.requests_per_client),
        batch_size: args.num("--batch")?.unwrap_or(base.batch_size),
        zipf_exponent: args.num("--zipf")?.unwrap_or(base.zipf_exponent),
        interactive_percent: args.num("--interactive")?.unwrap_or(base.interactive_percent),
        seed: args.num("--seed")?.unwrap_or(base.seed),
        workers: args.num("--workers")?.unwrap_or(base.workers),
        queue_capacity: args.num("--queue-cap")?.unwrap_or(base.queue_capacity),
    };
    if cfg.clients == 0 || cfg.requests_per_client == 0 || cfg.batch_size == 0 {
        return Err("--clients, --requests and --batch must be at least 1".into());
    }
    let min_dedup: f64 = args.num("--min-dedup")?.unwrap_or(0.0);
    let template = engine_from_args(args)?;
    args.finish()?;
    let r = psc_serve::replay(&|| engine_like(&template, template.faults().cloned()), cfg);
    println!(
        "replay: {} client(s) × {} request(s) × {} spec(s)/batch (zipf {}, seed {})",
        r.clients, cfg.requests_per_client, cfg.batch_size, cfg.zipf_exponent, cfg.seed
    );
    println!(
        "  specs      {:>8}   unique {:>6}   executed {:>6}   duplicates simulated {}",
        r.specs,
        r.unique_specs,
        r.executed,
        r.executed.saturating_sub(r.unique_specs)
    );
    println!("  dedup      {:>7.1}% of replies served without a simulation", 100.0 * r.dedup_rate);
    println!(
        "  identity   {}",
        if r.byte_identical {
            "every reply byte-identical to direct engine execution".to_string()
        } else {
            format!("{} replies DIVERGED", r.mismatches)
        }
    );
    println!("  wall       {:.2} s   throughput {:.0} specs/s", r.wall_s, r.throughput_specs_per_s);
    println!(
        "  latency    p50 {:.1} ms   p95 {:.1} ms (accept → done)",
        1e3 * r.latency_p50_s,
        1e3 * r.latency_p95_s
    );
    if !r.byte_identical {
        return Err(
            format!("{} replies diverged from direct engine execution", r.mismatches).into()
        );
    }
    if !r.dedup_exact() {
        return Err(format!(
            "in-flight dedup leak: {} simulations for {} unique specs",
            r.executed, r.unique_specs
        )
        .into());
    }
    if r.dedup_rate < min_dedup {
        return Err(format!(
            "dedup rate {:.3} below the --min-dedup {min_dedup} floor",
            r.dedup_rate
        )
        .into());
    }
    Ok(())
}

/// `powerscale analyze`: parse the analyzer's flags into its options.
fn cmd_analyze(args: &Args) -> Result<ExitCode, CliError> {
    let json = match args.value("--format")? {
        None | Some("text") => false,
        Some("json") => true,
        Some(f) => return Err(format!("unknown format '{f}' (expected text or json)").into()),
    };
    let opts = psc_analyze::cli::Options {
        deny: args.switch("--deny")?,
        json,
        baseline: args.value("--baseline")?.map(PathBuf::from),
        root: args.value("--root")?.map(PathBuf::from),
        time_budget_ms: args.num("--time-budget-ms")?,
    };
    args.finish()?;
    Ok(psc_analyze::cli::run(&opts)?)
}

fn cmd_list(args: &Args) -> Result<(), CliError> {
    args.finish()?;
    println!("{:<10} {:>8}  {:<12} valid node counts (≤32)", "benchmark", "UPM", "paper comm");
    for b in Benchmark::ALL {
        println!(
            "{:<10} {:>8.1}  {:<12} {:?}",
            b.name(),
            b.upm(),
            format!("{:?}", b.paper_comm_class()),
            b.valid_nodes(32)
        );
    }
    Ok(())
}
