//! Figure 5 — "Simulated results": fit the five-step model on the
//! measured configurations (≤ 9 nodes), validate it against held-out
//! runs and against the Sun cluster, then extrapolate every NAS
//! benchmark to 16, 25, and 32 power-scalable nodes at every gear.

use psc_analysis::plot::{ascii_plot, to_csv};
use psc_experiments::args::read_env;
use psc_experiments::harness::{
    class_from_args, decompositions, engine_for, engine_from_args, finish_sweep, gear_profile,
    measure_curve, predicted_curve, sun_cluster, telemetry_snapshot,
};
use psc_experiments::report::{render_claims, write_artifact, Claim};
use psc_experiments::timing::HostTimer;
use psc_kernels::{Benchmark, ProblemClass};
use psc_model::predict::ClusterModel;
use psc_model::validate::ValidationReport;
use psc_runner::RunSpec;

fn main() {
    let (class, e, sun) = read_env(|a| {
        Ok((class_from_args(a)?, engine_from_args(a)?, engine_for(sun_cluster(), a)?))
    });
    let timer = HostTimer::start();
    let targets = [16usize, 25, 32];

    println!("Figure 5: model-driven extrapolation to 16/25/32 nodes\n");
    let mut all_curves = Vec::new();
    let mut claims = Vec::new();
    let mut shape_disagreements = 0usize;

    for bench in Benchmark::NAS {
        // Step 1-2: measure and fit on the power-scalable cluster (≤9).
        let decomps = decompositions(&e, bench, class, 9);
        let profile = gear_profile(&e, bench, class);
        let model = ClusterModel::fit(&decomps, profile);

        // Hold-out validation: refit on all but the largest measured
        // configuration and predict it.
        let held_out = decomps.last().unwrap();
        let train = &decomps[..decomps.len() - 1];
        let (ho_time_err, ho_energy_err) = if train.iter().filter(|d| d.nodes > 1).count() >= 2 {
            let partial = ClusterModel::fit(train, model.profile.clone());
            let pred = partial.refined(held_out.nodes, 1);
            let n = held_out.nodes;
            // The same gear-1 run the decomposition sweep measured: a
            // cache hit, not a re-execution.
            let run = e.run(&RunSpec::uniform(bench, class, n, 1));
            (
                (pred.time_s - run.time_s).abs() / run.time_s,
                (pred.energy_j - run.energy_j).abs() / run.energy_j,
            )
        } else {
            (0.0, 0.0)
        };

        // Sun-cluster validation (paper §4.1 "Validation").
        let sun_decomps = decompositions(&sun, bench, class, 32);
        let report = ValidationReport::compare(bench.name(), &decomps, &sun_decomps);

        // Step 3+5: extrapolate.
        let mut curves: Vec<_> = bench
            .valid_nodes(9)
            .into_iter()
            .filter(|&n| n > 1)
            .map(|n| measure_curve(&e, bench, class, n))
            .collect();
        for &m in &targets {
            curves.push(predicted_curve(&model, bench, m, true));
        }

        println!(
            "{}: comm shape {} (R²={:.3}), F_s≈{:.4}, reducible {:.0}%",
            bench.name(),
            model.comm.shape,
            model.comm.r2,
            model.amdahl.fs_mean(),
            100.0 * model.reducible_fraction
        );
        println!(
            "  hold-out (n={}): time err {:.1}%, energy err {:.1}%",
            held_out.nodes,
            100.0 * ho_time_err,
            100.0 * ho_energy_err
        );
        println!(
            "  Sun validation: shapes {} ({} vs {}), F_s {:.4} vs {:.4}",
            if report.shapes_agree() { "agree" } else { "DISAGREE" },
            report.shape_reference,
            report.shape_validation,
            report.fs_reference,
            report.fs_validation
        );
        println!("{}", ascii_plot(&curves, 70, 16));

        if class == ProblemClass::B {
            claims.push(Claim::boolean(
                format!("{}-holdout-time", bench.name().to_lowercase()),
                "hold-out time prediction within 20 %",
                ho_time_err < 0.20,
            ));
            claims.push(Claim::boolean(
                format!("{}-holdout-energy", bench.name().to_lowercase()),
                "hold-out energy prediction within 20 %",
                ho_energy_err < 0.20,
            ));
            shape_disagreements += usize::from(!report.shapes_agree());
            // "The shapes of the graphs tend to become more 'vertical'
            // when using 16, 25, or 32 nodes; i.e., using lower gears
            // becomes a better idea." Compare the optimal gear at the
            // smallest multi-node measurement vs the 32-node prediction.
            let small = curves.first().unwrap();
            let big = curves.last().unwrap();
            claims.push(Claim::boolean(
                format!("{}-more-vertical", bench.name().to_lowercase()),
                "min-energy gear at 32 nodes ≥ min-energy gear at the smallest config",
                big.min_energy_gear() >= small.min_energy_gear(),
            ));
        }
        all_curves.extend(curves);
    }

    // Paper: "With only 1 exception, [F_p/F_s] was identical; the
    // outlier was CG." And its shape check also found one exception
    // (LU, re-modeled as constant). Mirror both as ≤1-outlier claims.
    if class == ProblemClass::B {
        claims.push(Claim::boolean(
            "sun-shape-agreement",
            "communication shapes identical across clusters (≤1 outlier, as in the paper)",
            shape_disagreements <= 1,
        ));
        let disagreements = Benchmark::NAS
            .iter()
            .filter(|&&b| {
                let d = decompositions(&e, b, class, 9);
                let s = decompositions(&sun, b, class, 32);
                !ValidationReport::compare(b.name(), &d, &s).fractions_agree(0.05)
            })
            .count();
        claims.push(Claim::boolean(
            "sun-fs-agreement",
            "sequential fractions agree across clusters (≤1 outlier, as in the paper)",
            disagreements <= 1,
        ));
    }

    // Where the joules of a representative configuration went:
    // archives a run manifest under results/ alongside the CSV.
    let (attr_table, manifest) = telemetry_snapshot(&e, Benchmark::Mg, class, 8, 3);
    println!("Energy attribution (MG, 8 nodes, gear 3):");
    println!("{attr_table}");
    println!("wrote {}\n", manifest.display());

    let (text, all) = render_claims("Figure 5 claims", &claims);
    println!("{text}");
    let path = write_artifact("fig5.csv", &to_csv(&all_curves));
    write_artifact("fig5_claims.txt", &text);
    println!("wrote {}", path.display());
    finish_sweep(&e, "fig5", timer);
    finish_sweep(&sun, "fig5-sun", timer);
    if !all {
        std::process::exit(1);
    }
}
