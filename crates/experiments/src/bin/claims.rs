//! Every headline numeric/structural claim of §3, checked end-to-end:
//! the slowdown bound, the UPC effect, single-node savings numbers, and
//! the monotonicity observations the figures rely on.

use psc_experiments::harness::{figure_args, finish_sweep, measure_curve};
use psc_experiments::report::{render_claims, write_artifact, Claim};
use psc_experiments::timing::HostTimer;
use psc_kernels::{Benchmark, ProblemClass};
use psc_runner::RunSpec;

fn main() {
    let (class, e) = figure_args();
    let timer = HostTimer::start();
    let mut claims = Vec::new();

    // ------------------------------------------------------------------
    // The slowdown bound: 1 ≤ T_{i+1}/T_i ≤ f_i/f_{i+1} for every
    // benchmark and every adjacent gear pair (single node).
    // ------------------------------------------------------------------
    for bench in Benchmark::NAS {
        let curve = measure_curve(&e, bench, class, 1);
        let mut ok = true;
        for w in curve.points.windows(2) {
            let ratio = w[1].time_s / w[0].time_s;
            let bound = e.cluster().node.gears.frequency_ratio(w[0].gear, w[1].gear);
            if !(ratio >= 1.0 - 1e-9 && ratio <= bound + 1e-9) {
                ok = false;
            }
        }
        claims.push(Claim::boolean(
            format!("{}-slowdown-bound", bench.name().to_lowercase()),
            "1 ≤ T(i+1)/T(i) ≤ f(i)/f(i+1) at every gear shift",
            ok,
        ));
    }

    // ------------------------------------------------------------------
    // The UPC effect: for memory-bound programs, achieved µops/cycle
    // *increases* as frequency decreases; for CPU-bound EP it does not.
    // ------------------------------------------------------------------
    // Gears 1 and 6 were already measured by the curves above, so both
    // probes are cache hits.
    let upc_of = |bench: Benchmark, gear: usize| -> f64 {
        e.run(&RunSpec::uniform(bench, class, 1, gear)).total_counters().upc()
    };
    let cg_up = upc_of(Benchmark::Cg, 6) / upc_of(Benchmark::Cg, 1);
    claims.push(Claim::boolean(
        "cg-upc-rises",
        "CG's UPC rises at the slowest gear (memory latency costs fewer cycles)",
        cg_up > 1.2,
    ));
    let ep_up = upc_of(Benchmark::Ep, 6) / upc_of(Benchmark::Ep, 1);
    claims.push(Claim::numeric("ep-upc-flat", 1.0, ep_up, 0.05, 0.0));

    // ------------------------------------------------------------------
    // §3.1 headline numbers (class B only — they are statements about
    // the class-B workload).
    // ------------------------------------------------------------------
    if class == ProblemClass::B {
        let cg = measure_curve(&e, Benchmark::Cg, class, 1);
        claims.push(Claim::numeric(
            "cg-best-savings-gear5",
            0.20,
            cg.savings(5).unwrap(),
            0.5,
            0.04,
        ));
        claims.push(Claim::boolean(
            "cg-gear5-delay-under-bound",
            "CG gear-5 delay well below the 67 % frequency-ratio bound (paper: ~10 %)",
            cg.delay(5).unwrap() < 0.20,
        ));
        claims.push(Claim::numeric("cg-gear2-savings", 0.095, cg.savings(2).unwrap(), 0.5, 0.03));

        let ep = measure_curve(&e, Benchmark::Ep, class, 1);
        // "This delay is approximately the same as the increase in CPU
        // clock cycle" (2.0/1.8 − 1 = 11.1 %).
        claims.push(Claim::numeric(
            "ep-delay-tracks-cycle-time",
            0.111,
            ep.delay(2).unwrap(),
            0.15,
            0.0,
        ));

        // Energy at the slowest gear should *exceed* the minimum for
        // CPU-heavy codes (running too slowly wastes base energy) —
        // the mechanism behind EP's positive 2→3 slope.
        claims.push(Claim::boolean(
            "ep-slowest-gear-not-optimal",
            "EP's minimum-energy gear is not the slowest gear",
            ep.min_energy_gear() < 6,
        ));
    }

    let (text, all) = render_claims("Headline claims (paper §3)", &claims);
    println!("{text}");
    write_artifact("claims.txt", &text);
    finish_sweep(&e, "claims", timer);
    if !all {
        std::process::exit(1);
    }
}
