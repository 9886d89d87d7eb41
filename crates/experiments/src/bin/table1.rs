//! Table 1 — "Predicting energy-time tradeoff": UPM (µops per L2 miss)
//! against the normalized energy-time slopes between gears 1→2 and
//! 2→3, sorted by UPM descending. The paper's claim: memory pressure
//! predicts the tradeoff — the slope column comes out (almost) sorted
//! too.

use psc_analysis::table::UpmTable;
use psc_experiments::harness::{figure_args, finish_sweep, measure_curve, measure_upm};
use psc_experiments::report::{render_claims, write_artifact, Claim};
use psc_experiments::timing::HostTimer;
use psc_kernels::{Benchmark, ProblemClass};

/// The paper's Table 1, for reference output.
const PAPER_ROWS: [(&str, f64, f64, f64); 6] = [
    ("EP", 844.0, -0.189, 0.288),
    ("BT", 79.6, -0.811, 0.0510),
    ("LU", 73.5, -1.78, -0.355),
    ("MG", 70.6, -1.11, -0.161),
    ("SP", 49.5, -5.49, -1.52),
    ("CG", 8.60, -11.7, -1.69),
];

fn main() {
    let (class, e) = figure_args();
    let timer = HostTimer::start();

    // The UPM probe is the curve's gear-1 run; with the shared run
    // cache the whole table costs the same runs as fig1.
    let entries: Vec<(String, f64, _)> = Benchmark::NAS
        .iter()
        .map(|&b| {
            let upm = measure_upm(&e, b, class);
            let curve = measure_curve(&e, b, class, 1);
            (b.name().to_string(), upm, curve)
        })
        .collect();
    let table = UpmTable::new(&entries);

    println!("Table 1 (measured):\n{}", table.render());
    println!("Table 1 (paper):");
    println!("{:<10} {:>8} {:>12} {:>12}", "benchmark", "UPM", "slope 1→2", "slope 2→3");
    for (name, upm, s12, s23) in PAPER_ROWS {
        println!("{name:<10} {upm:>8.3} {s12:>12.3} {s23:>12.3}");
    }

    let mut claims = Vec::new();
    // The rows sort by UPM in the paper's order by construction of the
    // calibration; the *slope* ordering is the prediction being tested.
    claims.push(Claim::boolean(
        "upm-order",
        "UPM sorts EP > BT > LU > MG > SP > CG",
        table.rows.iter().map(|r| r.name.as_str()).collect::<Vec<_>>()
            == vec!["EP", "BT", "LU", "MG", "SP", "CG"],
    ));
    claims.push(Claim::boolean(
        "slope-1-2-sorted",
        "slope 1→2 column sorted (≤1 inversion tolerated, as in the paper)",
        table.slope_inversions_1_2() <= 1,
    ));
    claims.push(Claim::boolean(
        "slope-2-3-sorted",
        "slope 2→3 column sorted within 1 inversion (paper's MG outlier)",
        table.slope_inversions_2_3() <= 1,
    ));
    if class == ProblemClass::B {
        let ep = &table.rows[0];
        let cg = table.rows.last().unwrap();
        claims.push(Claim::boolean(
            "ep-flattest",
            "EP has the shallowest 1→2 slope",
            ep.slope_1_2.unwrap()
                >= table.rows.iter().filter_map(|r| r.slope_1_2).fold(f64::NEG_INFINITY, f64::max)
                    - 1e-9,
        ));
        claims.push(Claim::boolean(
            "cg-steepest",
            "CG has the steepest 1→2 slope",
            cg.slope_1_2.unwrap()
                <= table.rows.iter().filter_map(|r| r.slope_1_2).fold(f64::INFINITY, f64::min)
                    + 1e-9,
        ));
        claims.push(Claim::boolean(
            "ep-positive-2-3",
            "EP's slope turns positive from gear 2 to 3 (running slower wastes energy)",
            ep.slope_2_3.unwrap() > 0.0,
        ));
    }

    let (text, all) = render_claims("Table 1 claims", &claims);
    println!("{text}");
    let mut csv = String::from("benchmark,upm,slope_1_2,slope_2_3\n");
    for r in &table.rows {
        csv.push_str(&format!(
            "{},{},{},{}\n",
            r.name,
            r.upm,
            r.slope_1_2.unwrap_or(f64::NAN),
            r.slope_2_3.unwrap_or(f64::NAN)
        ));
    }
    let path = write_artifact("table1.csv", &csv);
    write_artifact("table1.txt", &table.render());
    println!("wrote {}", path.display());
    finish_sweep(&e, "table1", timer);
    if !all {
        std::process::exit(1);
    }
}
