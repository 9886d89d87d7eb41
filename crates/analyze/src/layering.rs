//! L family — layering through the crate graph.
//!
//! A layering rule written as a dependency edge is enforced by the
//! compiler: a crate cannot name an item of a crate it does not depend
//! on. What remains to guard is the edge itself. **L001** fails when a
//! `[dependencies]` section (dev-dependencies are test-only and exempt)
//! adds an edge that one of these rules forbids:
//!
//! | from | must not depend on | because |
//! |------|--------------------|---------|
//! | serve | mpi | the job server reaches simulations only through `psc_runner::Engine`, so the cache and in-flight dedupe see every request |
//! | policy | mpi, faults, kernels, runner, metrics | a policy only *returns* a gear; the hook contract lives in psc-policy so the cluster, `Comm::set_gear` and `FaultRng` stay unnameable |
//! | mpi, kernels, machine, model, faults | metrics | metrics are observation-only and integrate solely through the runner's engine |

use crate::modres::CrateDeps;
use crate::report::{Finding, Severity};

/// One forbidden-edge rule: no crate in `from` may depend on a crate
/// in `to`.
struct Layer {
    from: &'static [&'static str],
    to: &'static [&'static str],
    why: &'static str,
}

/// The simulation crates that must not observe themselves: every crate
/// whose code produces results, except the runner — the sanctioned
/// metrics seam.
const UNOBSERVED_SIM: &[&str] = &["mpi", "kernels", "machine", "model", "faults"];

const LAYERS: &[Layer] = &[
    Layer {
        from: &["serve"],
        to: &["mpi"],
        why: "the job server reaches simulations only through psc_runner::Engine, so the \
              cache and in-flight dedupe see every request",
    },
    Layer {
        from: &["policy"],
        to: &["mpi", "faults", "kernels", "runner", "metrics"],
        why: "a policy only returns a gear; the hook contract lives in psc-policy so the \
              cluster, Comm::set_gear and FaultRng stay unnameable there",
    },
    Layer {
        from: UNOBSERVED_SIM,
        to: &["metrics"],
        why: "metrics are observation-only and integrate solely through the runner's engine",
    },
];

/// L001: every forbidden `[dependencies]` edge in `deps`, reported at
/// its manifest line.
pub fn check(deps: &CrateDeps) -> Vec<Finding> {
    let mut out = Vec::new();
    for layer in LAYERS {
        for &from in layer.from {
            let Some(own) = deps.get(from) else { continue };
            for &to in layer.to {
                if let Some(&line) = own.get(to) {
                    out.push(Finding::new(
                        "L001",
                        Severity::Error,
                        &format!("crates/{from}/Cargo.toml"),
                        line,
                        format!("forbidden crate dependency psc-{from} → psc-{to} — {}", layer.why),
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn deps(edges: &[(&str, &str, u32)]) -> CrateDeps {
        let mut d = CrateDeps::new();
        for &(from, to, line) in edges {
            d.entry(from.to_string()).or_insert_with(BTreeMap::new).insert(to.to_string(), line);
        }
        d
    }

    #[test]
    fn forbidden_edges_fire_at_their_manifest_line() {
        let f = check(&deps(&[
            ("serve", "mpi", 9),
            ("serve", "runner", 10),
            ("policy", "mpi", 7),
            ("policy", "machine", 8),
            ("machine", "metrics", 4),
            ("runner", "metrics", 12),
        ]));
        let got: Vec<(&str, u32)> = f.iter().map(|f| (f.file.as_str(), f.line)).collect();
        assert_eq!(
            got,
            vec![
                ("crates/serve/Cargo.toml", 9),
                ("crates/policy/Cargo.toml", 7),
                ("crates/machine/Cargo.toml", 4),
            ]
        );
        assert!(f.iter().all(|f| f.rule == "L001"));
        assert!(f[0].message.contains("psc-serve → psc-mpi"), "{}", f[0].message);
    }
}
