//! Figure 4 — "Synthetic benchmark with high memory pressure": models
//! CG's cache miss rate but achieves good speedup; shows the potential
//! of a power-scalable cluster. Headline: gear 5 on 8 nodes uses ~80 %
//! of the energy of gear 1 on 4 nodes and executes in half the time.

use psc_analysis::plot::{ascii_plot, to_csv};
use psc_experiments::harness::{figure_args, finish_sweep, measure_curve, telemetry_snapshot};
use psc_experiments::report::{render_claims, write_artifact, Claim};
use psc_experiments::timing::HostTimer;
use psc_kernels::{Benchmark, ProblemClass};

fn main() {
    let (class, e) = figure_args();
    let timer = HostTimer::start();
    let node_counts = [2usize, 4, 8];

    println!("Figure 4: synthetic high-memory-pressure benchmark on 2, 4, 8 nodes\n");
    let t1_curve = measure_curve(&e, Benchmark::Synthetic, class, 1);
    let curves: Vec<_> =
        node_counts.iter().map(|&n| measure_curve(&e, Benchmark::Synthetic, class, n)).collect();
    println!("{}", ascii_plot(&curves, 70, 16));

    let mut claims = Vec::new();
    if class == ProblemClass::B {
        // "Because the miss rate is high, the execution time penalty for
        // scaling down is low (e.g., 3 % at gear 5), and the
        // corresponding energy savings is large (e.g., 24 % at gear 5)."
        claims.push(Claim::numeric(
            "synthetic-gear5-penalty",
            0.03,
            t1_curve.delay(5).unwrap(),
            1.0,
            0.015,
        ));
        claims.push(Claim::numeric(
            "synthetic-gear5-savings",
            0.24,
            t1_curve.savings(5).unwrap(),
            0.35,
            0.0,
        ));
        // Speedup over 7 on 8 nodes.
        let s8 = t1_curve.fastest().time_s
            / curves.iter().find(|c| c.nodes == 8).unwrap().fastest().time_s;
        claims.push(Claim::boolean("synthetic-speedup8", "speedup on 8 nodes exceeds 7", s8 > 7.0));
        // "Compared to gear 1 on 4 nodes, gear 5 on 8 nodes uses 80 % of
        // the energy and executes in half the time."
        let p4 = curves.iter().find(|c| c.nodes == 4).unwrap().fastest();
        let p8g5 = curves.iter().find(|c| c.nodes == 8).unwrap().at_gear(5).unwrap();
        claims.push(Claim::numeric(
            "synthetic-8g5-energy-ratio",
            0.80,
            p8g5.energy_j / p4.energy_j,
            0.15,
            0.0,
        ));
        claims.push(Claim::numeric(
            "synthetic-8g5-time-ratio",
            0.50,
            p8g5.time_s / p4.time_s,
            0.20,
            0.0,
        ));
        println!(
            "  gear 5 on 8 nodes vs gear 1 on 4 nodes: energy ×{:.2}, time ×{:.2}",
            p8g5.energy_j / p4.energy_j,
            p8g5.time_s / p4.time_s
        );
    }

    // Where the joules of a representative configuration went:
    // archives a run manifest under results/ alongside the CSV.
    let (attr_table, manifest) = telemetry_snapshot(&e, Benchmark::Synthetic, class, 8, 5);
    println!("Energy attribution (Synthetic, 8 nodes, gear 5):");
    println!("{attr_table}");
    println!("wrote {}\n", manifest.display());

    let (text, all) = render_claims("Figure 4 claims", &claims);
    println!("{text}");
    let mut all_curves = vec![t1_curve];
    all_curves.extend(curves);
    let path = write_artifact("fig4.csv", &to_csv(&all_curves));
    write_artifact("fig4_claims.txt", &text);
    println!("wrote {}", path.display());
    finish_sweep(&e, "fig4", timer);
    if !all {
        std::process::exit(1);
    }
}
