//! R family — transitive purity over the call graph.
//!
//! A per-file ban sees a banned call only *in the file that writes
//! it*, and cannot tell whether a simulation reaches it: a kernel that
//! calls `util::jitter()` in another crate, where `jitter` reads the
//! environment, is clean file by file and still breaks replay. The R
//! rules close that hole with whole-program reachability: any
//! function reachable from the simulation roots must not reach a
//! banned sink, except through the explicitly allowlisted chokepoints,
//! and every finding reports the complete call chain so the laundering
//! path is visible in the diagnostic.
//!
//! | id   | sink class | banned callees |
//! |------|------------|----------------|
//! | R001 | host clock | `Instant::now`, `SystemTime::now` |
//! | R002 | nondeterministic RNG | `thread_rng`, `from_entropy`, `RandomState`, `fastrand::*` |
//! | R003 | environment | `env::var*`, `env::set_var`, `env::remove_var` |
//! | R004 | host concurrency | `thread::spawn`, `thread::scope`, `.spawn` |
//! | R005 | self-observation | any `psc-metrics` function (path-precise edges only) |
//!
//! **Roots** — where purity is load-bearing:
//! * `Engine::execute_spec` (what a run computes),
//! * every function in `psc-kernels` (the nine benchmark programs),
//! * every function in `psc-faults` (the deterministic fault streams).
//!
//! **Chokepoints** — reached but never expanded through, and exempt
//! from sink matching inside them:
//! * `crates/experiments/src/timing.rs` — `HostTimer`, the sanctioned
//!   host-timing seam;
//! * `crates/faults/src/rng.rs` — the counter-keyed fault RNG (F001's
//!   sanctioned module);
//! * `crates/runner/src/metrics.rs` — `EngineMetrics`, the M001
//!   observation boundary;
//! * `Cluster::drive_threaded` — the threaded backend's scoped
//!   fork-join, deterministic by the message-FIFO argument in
//!   DESIGN.md §9 (and byte-compared against the DES backend in CI).
//!
//! Method-call edges are name-resolved without type inference, so they
//! over-approximate. For the distinctively-named sinks (R001–R004)
//! that is harmless; for R005 — where half the workspace has a method
//! named `get` or `set` — sink matching uses path-precise edges only.
//! The method-shaped remainder needs a `psc-metrics` value in hand,
//! which only the runner can hold: L001 keeps every other simulation
//! crate from depending on psc-metrics, and M001 keeps the runner's
//! result paths free of it.

use crate::callgraph::{CallGraph, Target};
use crate::modres::{FnId, WorkspaceIr};
use crate::parse::CallKind;
use crate::report::{Finding, Severity};
use std::collections::BTreeSet;

/// Files whose functions are chokepoints: reached, never expanded.
pub const CHOKEPOINT_FILES: &[&str] = &[
    "crates/experiments/src/timing.rs",
    "crates/faults/src/rng.rs",
    "crates/runner/src/metrics.rs",
];

/// Function-level chokepoints, matched by id suffix.
pub const CHOKEPOINT_FNS: &[&str] = &["Cluster::drive_threaded"];

/// One sink family.
struct SinkFamily {
    rule: &'static str,
    what: &'static str,
    advice: &'static str,
    /// Does this external callee (rendered name) belong to the family?
    matches_external: fn(&str) -> bool,
    /// Are method-shape edges eligible (see module docs)?
    include_methods: bool,
}

fn is_clock_sink(name: &str) -> bool {
    name.ends_with("Instant::now") || name.ends_with("SystemTime::now")
}

fn is_rng_sink(name: &str) -> bool {
    let last = name.rsplit(':').next().unwrap_or(name);
    matches!(last, "thread_rng" | "from_entropy" | "RandomState")
        || name.starts_with("fastrand")
        || name.contains("::fastrand")
}

fn is_env_sink(name: &str) -> bool {
    const FNS: &[&str] = &["var", "var_os", "vars", "vars_os", "set_var", "remove_var"];
    match name.rsplit_once("::") {
        Some((head, last)) => (head == "env" || head.ends_with("::env")) && FNS.contains(&last),
        None => false,
    }
}

fn is_thread_sink(name: &str) -> bool {
    name.ends_with("thread::spawn") || name.ends_with("thread::scope") || name == ".spawn"
}

const FAMILIES: &[SinkFamily] = &[
    SinkFamily {
        rule: "R001",
        what: "host clock read",
        advice: "route host timing through psc_experiments::timing::HostTimer",
        matches_external: is_clock_sink,
        include_methods: true,
    },
    SinkFamily {
        rule: "R002",
        what: "nondeterministically seeded randomness",
        advice: "derive every draw from the counter-keyed psc_faults::rng::FaultRng",
        matches_external: is_rng_sink,
        include_methods: true,
    },
    SinkFamily {
        rule: "R003",
        what: "environment read",
        advice: "thread configuration through RunSpec instead",
        matches_external: is_env_sink,
        include_methods: true,
    },
    SinkFamily {
        rule: "R004",
        what: "host thread spawn",
        advice: "host concurrency belongs in Cluster::drive_threaded or the engine pool, \
                 never below the simulation roots",
        matches_external: is_thread_sink,
        include_methods: true,
    },
    SinkFamily {
        rule: "R005",
        what: "psc-metrics self-observation",
        advice: "metrics integrate solely through EngineMetrics (crates/runner/src/metrics.rs)",
        matches_external: |n| n.starts_with("psc_metrics"),
        include_methods: false,
    },
];

/// Whether a function id is a chokepoint (by defining file or by id).
pub fn is_chokepoint(ir: &WorkspaceIr, id: &FnId) -> bool {
    if CHOKEPOINT_FNS.iter().any(|s| id.ends_with(s)) {
        return true;
    }
    ir.item(id).is_some_and(|(file, _)| CHOKEPOINT_FILES.contains(&file.path.as_str()))
}

/// The R-family roots present in this workspace.
pub fn roots(ir: &WorkspaceIr) -> Vec<FnId> {
    let mut out = Vec::new();
    for (id, r) in &ir.fns {
        let dir = ir.files[r.file].crate_dir.as_str();
        if id.ends_with("Engine::execute_spec") && dir == "runner" {
            out.push(id.clone());
        }
        if dir == "kernels" || dir == "faults" {
            out.push(id.clone());
        }
    }
    out
}

/// Run the R family over the workspace call graph.
pub fn check(ir: &WorkspaceIr, graph: &CallGraph) -> Vec<Finding> {
    let roots = roots(ir);
    let parent = graph.reach(roots.iter(), |id| is_chokepoint(ir, id));
    let mut out = Vec::new();
    let mut seen: BTreeSet<(String, String, u32)> = BTreeSet::new();

    for (id, _) in parent.iter() {
        if is_chokepoint(ir, id) {
            continue; // sinks inside a chokepoint are the sanctioned path
        }
        let Some(edges) = graph.edges.get(id) else { continue };
        for e in edges {
            for fam in FAMILIES {
                if e.kind == CallKind::Method && !fam.include_methods {
                    continue;
                }
                let hit = match &e.target {
                    Target::External(name) => (fam.matches_external)(name),
                    Target::Fn(callee) => {
                        fam.rule == "R005"
                            && e.kind != CallKind::Method
                            && ir.item(callee).is_some_and(|(f, _)| f.crate_dir == "metrics")
                            && !is_chokepoint(ir, callee)
                    }
                };
                if !hit {
                    continue;
                }
                if !seen.insert((fam.rule.to_string(), e.file.clone(), e.line)) {
                    continue;
                }
                let sink = match &e.target {
                    Target::External(name) => name.clone(),
                    Target::Fn(callee) => callee.clone(),
                };
                let chain = CallGraph::chain(&parent, id);
                out.push(Finding::new(
                    fam.rule,
                    Severity::Error,
                    &e.file,
                    e.line,
                    format!(
                        "{} `{}` reachable from simulation root `{}` — {}; call chain: {} → `{}`",
                        fam.what,
                        sink,
                        chain.first().cloned().unwrap_or_default(),
                        fam.advice,
                        CallGraph::render_chain(&chain),
                        sink
                    ),
                ));
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let owned: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        let ir = WorkspaceIr::from_sources(&owned);
        let graph = CallGraph::build(&ir);
        check(&ir, &graph)
    }

    #[test]
    fn laundered_clock_read_fires_with_the_full_chain() {
        // The sink sits two crates away from the root, so the finding
        // must carry the whole laundering chain.
        let f = run(&[
            (
                "crates/kernels/src/jacobi.rs",
                "use psc_machine::util::stamp;\npub fn run_jacobi() { stamp(); }",
            ),
            (
                "crates/machine/src/util.rs",
                "pub fn stamp() { helper_now(); }\nfn helper_now() { let t = Instant::now(); }",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "R001");
        assert!(
            f[0].message.contains(
                "psc_kernels::jacobi::run_jacobi → psc_machine::util::stamp → \
             psc_machine::util::helper_now"
            ),
            "{}",
            f[0].message
        );
        assert_eq!(f[0].file, "crates/machine/src/util.rs");
    }

    #[test]
    fn chokepoints_absorb_their_sinks() {
        let f = run(&[
            ("crates/faults/src/plan.rs", "pub fn apply() { crate::rng::draw(); }"),
            ("crates/faults/src/rng.rs", "pub fn draw() { let r = thread_rng(); }"),
        ]);
        assert!(f.is_empty(), "the sanctioned rng module absorbs the sink: {f:?}");
    }

    #[test]
    fn unreachable_sinks_stay_silent() {
        let f = run(&[
            ("crates/kernels/src/ep.rs", "pub fn run_ep() { pure_math(); }\nfn pure_math() {}"),
            ("crates/cli/src/main.rs", "fn host_only() { let t = Instant::now(); }"),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn env_and_thread_sinks_fire_transitively() {
        let f = run(&[(
            "crates/faults/src/plan.rs",
            "pub fn entry() { helper(); }\n\
             fn helper() { let v = std::env::var(\"X\"); std::thread::spawn(|| {}); }",
        )]);
        let rules: Vec<&str> = f.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"R003"), "{f:?}");
        assert!(rules.contains(&"R004"), "{f:?}");
    }
}
