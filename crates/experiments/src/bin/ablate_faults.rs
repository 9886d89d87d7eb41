//! Fault ablation — do the paper's qualitative findings survive
//! injected noise? Re-derives the orderings behind Figures 1–3 under a
//! ladder of escalating fault-plan noise levels and reports, per
//! figure, the first level at which an ordering breaks:
//!
//! * **Figure 1** (single-node gear sweeps): execution time is
//!   monotone in the gear index, and the energy-minimizing gear matches
//!   the fault-free baseline.
//! * **Figure 2** (multi-node sweeps): every adjacent node-count pair
//!   keeps its fault-free case-1/2/3 classification.
//! * **Figure 3** (Jacobi scaling): each adjacent pair keeps its
//!   fault-free classification.
//!
//! Exits 0 exactly when every figure survives the documented default
//! noise level ([`DEFAULT_NOISE_LEVEL`]). All injection is virtual-time
//! deterministic, so stdout and the `ablate_faults.csv` artifact are a
//! pure function of the seed and class — `--jobs` never changes a byte
//! (CI compares worker counts on exactly this property).

use psc_analysis::cases::{classify_pair, ScalingCase};
use psc_analysis::curve::EnergyTimeCurve;
use psc_experiments::args::read_env;
use psc_experiments::harness::{
    class_from_args, cluster, engine_like, engine_without_faults, fig2_nodes, measure_curve,
};
use psc_experiments::report::{render_claims, write_artifact, Claim};
use psc_faults::{FaultPlan, DEFAULT_NOISE_LEVEL};
use psc_kernels::{Benchmark, ProblemClass};
use psc_runner::Engine;

/// The noise ladder, lowest first. Must contain [`DEFAULT_NOISE_LEVEL`].
const LEVELS: [f64; 5] = [0.01, 0.02, 0.05, 0.10, 0.20];

/// Fig. 1 inputs: one single-node curve per NAS benchmark.
fn fig1_curves(e: &Engine, class: ProblemClass) -> Vec<EnergyTimeCurve> {
    Benchmark::NAS.iter().map(|&b| measure_curve(e, b, class, 1)).collect()
}

/// Fig. 2 inputs: each benchmark's adjacent node-count classifications.
fn fig2_cases(e: &Engine, class: ProblemClass) -> Vec<(String, ScalingCase)> {
    let mut cases = Vec::new();
    for bench in Benchmark::NAS {
        let curves: Vec<_> =
            fig2_nodes(bench).iter().map(|&n| measure_curve(e, bench, class, n)).collect();
        for pair in curves.windows(2) {
            let label = format!("{} {}→{}", bench.name(), pair[0].nodes, pair[1].nodes);
            cases.push((label, classify_pair(&pair[0], &pair[1])));
        }
    }
    cases
}

/// Fig. 3 inputs: Jacobi's adjacent node-count classifications.
fn fig3_cases(e: &Engine, class: ProblemClass) -> Vec<(String, ScalingCase)> {
    let curves: Vec<_> = [2usize, 4, 6, 8, 10]
        .iter()
        .map(|&n| measure_curve(e, Benchmark::Jacobi, class, n))
        .collect();
    curves
        .windows(2)
        .map(|pair| {
            let label = format!("Jacobi {}→{}", pair[0].nodes, pair[1].nodes);
            (label, classify_pair(&pair[0], &pair[1]))
        })
        .collect()
}

/// Time monotone in the gear index (gear 1 fastest, gear 6 slowest).
fn time_monotone(c: &EnergyTimeCurve) -> bool {
    c.points.windows(2).all(|w| w[1].time_s >= w[0].time_s * (1.0 - 1e-12))
}

/// Fig. 1 verdict under noise: report the first violated check, if any.
fn fig1_break(baseline: &[EnergyTimeCurve], noisy: &[EnergyTimeCurve]) -> Option<String> {
    for (b, n) in baseline.iter().zip(noisy) {
        if !time_monotone(n) {
            return Some(format!("{}: time no longer monotone in gear", n.label));
        }
        if b.min_energy_gear() != n.min_energy_gear() {
            return Some(format!(
                "{}: energy-optimal gear moved {}→{}",
                n.label,
                b.min_energy_gear(),
                n.min_energy_gear()
            ));
        }
    }
    None
}

/// Figs. 2/3 verdict: the first pair whose classification changed.
fn case_break(
    baseline: &[(String, ScalingCase)],
    noisy: &[(String, ScalingCase)],
) -> Option<String> {
    baseline
        .iter()
        .zip(noisy)
        .find(|((_, b), (_, n))| b != n)
        .map(|((label, b), (_, n))| format!("{label}: {b:?} became {n:?}"))
}

fn main() {
    // The binary sets every engine's fault plan itself, so it reads no
    // fault flags: `--seed` picks the noise stream.
    let (class, seed, base) = read_env(|a| {
        Ok((
            class_from_args(a)?,
            a.num("--seed")?.unwrap_or(42),
            engine_without_faults(cluster(), a)?,
        ))
    });

    println!("Fault ablation: Figures 1-3 orderings under escalating noise (seed {seed})\n");

    // The fault-free baseline everything is compared against.
    let b1 = fig1_curves(&base, class);
    let b2 = fig2_cases(&base, class);
    let b3 = fig3_cases(&base, class);
    assert!(
        b1.iter().all(time_monotone),
        "fault-free baseline must itself be monotone; the simulator is broken"
    );

    let mut first_break: [Option<f64>; 3] = [None; 3];
    let mut csv = String::from("level,fig1,fig2,fig3,detail\n");
    for &level in &LEVELS {
        let e = engine_like(&base, Some(FaultPlan::noise(seed, level)));
        let breaks = [
            fig1_break(&b1, &fig1_curves(&e, class)),
            case_break(&b2, &fig2_cases(&e, class)),
            case_break(&b3, &fig3_cases(&e, class)),
        ];
        let mut detail = String::new();
        for (i, brk) in breaks.iter().enumerate() {
            if let Some(why) = brk {
                if first_break[i].is_none() {
                    first_break[i] = Some(level);
                }
                if detail.is_empty() {
                    detail = format!("fig{}: {why}", i + 1);
                }
            }
        }
        let verdict = |b: &Option<String>| if b.is_none() { "ok" } else { "BROKE" };
        println!(
            "  level {level:.2}: fig1 {:<5}  fig2 {:<5}  fig3 {:<5}  {detail}",
            verdict(&breaks[0]),
            verdict(&breaks[1]),
            verdict(&breaks[2]),
        );
        csv.push_str(&format!(
            "{level},{},{},{},{detail}\n",
            verdict(&breaks[0]),
            verdict(&breaks[1]),
            verdict(&breaks[2]),
        ));
    }

    println!();
    for (i, fb) in first_break.iter().enumerate() {
        match fb {
            Some(level) => println!("  figure {}: first break at noise level {level:.2}", i + 1),
            None => println!("  figure {}: survives every tested level", i + 1),
        }
    }
    println!();

    let claims: Vec<Claim> = first_break
        .iter()
        .enumerate()
        .map(|(i, fb)| {
            Claim::boolean(
                format!("fig{}-survives-default-noise", i + 1),
                "orderings hold at the default noise level (0.02)",
                fb.is_none_or(|level| level > DEFAULT_NOISE_LEVEL),
            )
        })
        .collect();
    let (text, all) = render_claims("Fault-robustness claims", &claims);
    println!("{text}");
    write_artifact("ablate_faults.csv", &csv);
    if !all {
        std::process::exit(1);
    }
}
