//! One-page digest of a completed reproduction: reads the CSVs the
//! figure binaries wrote into `results/` and prints the cross-cutting
//! numbers (per-benchmark best gears, savings, the case taxonomy, and
//! EDP winners). Run the `fig*` binaries first.

use psc_analysis::cases::classify_pair;
use psc_analysis::curve::EnergyTimeCurve;
use psc_analysis::metrics::{best_ed2p_gear, best_edp_gear};
use psc_analysis::plot::from_csv;
use psc_experiments::args::read_env;
use psc_experiments::report::results_dir;

fn load(name: &str) -> Option<Vec<EnergyTimeCurve>> {
    let path = results_dir().join(name);
    let text = std::fs::read_to_string(&path).ok()?;
    match from_csv(&text) {
        Ok(curves) => Some(curves),
        Err(e) => {
            eprintln!("warning: {} is malformed: {e}", path.display());
            None
        }
    }
}

fn main() {
    read_env(|_| Ok(()));
    let mut found_any = false;

    if let Some(curves) = load("fig1.csv") {
        found_any = true;
        println!("Single-node energy-time tradeoff (from fig1.csv):\n");
        println!(
            "{:<11} {:>9} {:>9} {:>10} {:>9} {:>9}",
            "benchmark", "min-E gear", "savings", "delay", "EDP gear", "ED²P gear"
        );
        for c in &curves {
            let g = c.min_energy_gear();
            println!(
                "{:<11} {:>9} {:>8.1}% {:>9.1}% {:>9} {:>9}",
                c.label,
                g,
                100.0 * c.savings(g).unwrap_or(0.0),
                100.0 * c.delay(g).unwrap_or(0.0),
                best_edp_gear(c),
                best_ed2p_gear(c),
            );
        }
        println!();
    }

    if let Some(curves) = load("fig2.csv") {
        found_any = true;
        println!("Node-scaling cases (from fig2.csv):\n");
        let mut labels: Vec<String> = curves.iter().map(|c| c.label.clone()).collect();
        labels.dedup();
        for label in labels {
            let mut of_label: Vec<&EnergyTimeCurve> =
                curves.iter().filter(|c| c.label == label).collect();
            of_label.sort_by_key(|c| c.nodes);
            for pair in of_label.windows(2) {
                println!(
                    "  {:<10} {:>2} → {:>2} nodes: {:?}",
                    label,
                    pair[0].nodes,
                    pair[1].nodes,
                    classify_pair(pair[0], pair[1])
                );
            }
        }
        println!();
    }

    if let Some(curves) = load("fig5.csv") {
        found_any = true;
        println!("Extrapolated minimum-energy gears (from fig5.csv):\n");
        let mut labels: Vec<String> = curves.iter().map(|c| c.label.clone()).collect();
        labels.sort();
        labels.dedup();
        for label in labels.iter().filter(|l| l.contains("(model)")) {
            let gears: Vec<(usize, usize)> = curves
                .iter()
                .filter(|c| &c.label == label)
                .map(|c| (c.nodes, c.min_energy_gear()))
                .collect();
            println!("  {:<14} {:?}", label, gears);
        }
        println!();
    }

    if !found_any {
        eprintln!(
            "no results found in {} — run the fig1/fig2/fig5 binaries first",
            results_dir().display()
        );
        std::process::exit(1);
    }
}
