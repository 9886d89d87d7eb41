//! Figure 1 — "Energy consumption vs execution time for NAS benchmarks
//! on a single AMD machine": six benchmarks, six gears, one node.

use psc_analysis::plot::{ascii_plot, to_csv};
use psc_experiments::harness::{figure_args, finish_sweep, measure_curve, telemetry_snapshot};
use psc_experiments::report::{render_claims, write_artifact, Claim};
use psc_experiments::timing::HostTimer;
use psc_kernels::{Benchmark, ProblemClass};

fn main() {
    let (class, e) = figure_args();
    let timer = HostTimer::start();

    println!("Figure 1: NAS benchmarks on one Athlon-64 node, gears 1-6\n");
    let mut curves = Vec::new();
    let mut claims = Vec::new();
    for bench in Benchmark::NAS {
        let curve = measure_curve(&e, bench, class, 1);
        println!("{} (1 node):", bench.name());
        println!("{}", ascii_plot(std::slice::from_ref(&curve), 64, 14));
        for gear in 2..=6 {
            println!(
                "  gear {gear}: delay {:+6.2}%  energy savings {:+6.2}%",
                100.0 * curve.delay(gear).unwrap(),
                100.0 * curve.savings(gear).unwrap()
            );
        }
        println!();
        claims.push(Claim::boolean(
            format!("{}-fastest-gear-fastest", bench.name()),
            "fastest gear is the leftmost point",
            curve.fastest_gear_is_fastest_point(),
        ));
        curves.push(curve);
    }

    // Headline single-node claims (§3.1), meaningful at class B only.
    if class == ProblemClass::B {
        let cg = curves.iter().find(|c| c.label == "CG").unwrap();
        claims.push(Claim::numeric("cg-gear2-savings", 0.095, cg.savings(2).unwrap(), 0.5, 0.03));
        claims.push(Claim::boolean(
            "cg-gear2-small-delay",
            "CG gear-2 delay below 3 % (paper: <1 %)",
            cg.delay(2).unwrap() < 0.03,
        ));
        claims.push(Claim::numeric("cg-gear5-savings", 0.20, cg.savings(5).unwrap(), 0.5, 0.04));
        claims.push(Claim::numeric("cg-gear5-delay", 0.10, cg.delay(5).unwrap(), 0.6, 0.03));
        let ep = curves.iter().find(|c| c.label == "EP").unwrap();
        claims.push(Claim::numeric("ep-gear2-delay", 0.11, ep.delay(2).unwrap(), 0.25, 0.0));
        claims.push(Claim::boolean(
            "ep-gear2-tiny-savings",
            "EP gear-2 savings below 6 % (paper: 2 %)",
            ep.savings(2).unwrap() < 0.06,
        ));
    }

    // Where the joules of a representative configuration went:
    // archives a run manifest under results/ alongside the CSV.
    let (attr_table, manifest) = telemetry_snapshot(&e, Benchmark::Cg, class, 1, 2);
    println!("Energy attribution (CG, 1 node, gear 2):");
    println!("{attr_table}");
    println!("wrote {}\n", manifest.display());

    let (text, all) = render_claims("Figure 1 claims", &claims);
    println!("{text}");
    let csv = write_artifact("fig1.csv", &to_csv(&curves));
    write_artifact("fig1_claims.txt", &text);
    println!("wrote {}", csv.display());
    finish_sweep(&e, "fig1", timer);
    if !all {
        std::process::exit(1);
    }
}
