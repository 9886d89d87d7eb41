//! `psc-analyze` — workspace static analysis for the powerscale
//! reproduction.
//!
//! Every figure, table, and claim in this repository assumes the
//! simulation is a **pure function of (RunSpec, FaultPlan, seed)**: the
//! run cache, the `--jobs 1` vs `--jobs 8` byte-identity gates, and the
//! fault-injection ablations all break silently if a wall-clock read,
//! an unseeded RNG, an unordered iteration, or an unhashed `RunSpec`
//! field sneaks in. Each invariant has one mechanism: `clippy.toml`
//! bans host clocks and hash-ordered collections, the crate graph
//! enforces layering, and this crate covers the rest at CI time with a
//! dependency-light analyzer (no `syn` — a small hand-rolled token
//! scanner, see [`scan`]) and its rule families (see [`rules`],
//! [`reach`], [`layering`] for the crate edges, [`cachekey`] — which
//! also owns the P002 policy-encoding check — and [`metricsrule`] for
//! the metrics observation-only boundary).
//!
//! ## Suppressions
//!
//! * `// psc-analyze: allow(U001)` — suppresses the rule on that line
//!   and the next one (so the pragma can sit above the offending line).
//! * `// psc-analyze: allow-file(U001)` — suppresses the rule for the
//!   whole file.
//! * a committed baseline (`analyze-baseline.json`) grandfathers
//!   individual findings by `(rule, file, line)` without hiding them.
//!
//! Run it as `powerscale analyze [--deny] [--format json] [--baseline
//! <file>]`; the library has no binary of its own ([`cli`] is the
//! driver the `powerscale` CLI calls).

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cachekey;
pub mod callgraph;
pub mod cli;
pub mod layering;
pub mod metricsrule;
pub mod modres;
pub mod parse;
pub mod reach;
pub mod report;
pub mod rules;
pub mod scan;
pub mod suspend;
pub mod unsafety;

pub use report::{Baseline, BaselineEntry, Finding, Report, Severity};
pub use rules::FileCtx;

use std::path::{Path, PathBuf};

/// Collect the per-line and per-file `psc-analyze: allow(...)` pragmas
/// from raw source text.
#[derive(Debug, Default)]
struct Allows {
    /// `(line, rule)` pairs; an allow on line L covers L and L+1.
    lines: Vec<(u32, String)>,
    /// Rules allowed for the whole file.
    file: Vec<String>,
}

impl Allows {
    fn parse(src: &str) -> Self {
        let mut a = Allows::default();
        for (idx, line) in src.lines().enumerate() {
            let lineno = idx as u32 + 1;
            for (marker, file_wide) in
                [("psc-analyze: allow-file(", true), ("psc-analyze: allow(", false)]
            {
                if let Some(pos) = line.find(marker) {
                    let rest = &line[pos + marker.len()..];
                    if let Some(end) = rest.find(')') {
                        for rule in rest[..end].split(',') {
                            let rule = rule.trim().to_string();
                            if file_wide {
                                a.file.push(rule);
                            } else {
                                a.lines.push((lineno, rule));
                            }
                        }
                    }
                }
            }
        }
        a
    }

    fn covers(&self, f: &Finding) -> bool {
        self.file.iter().any(|r| r == &f.rule)
            || self
                .lines
                .iter()
                .any(|(l, r)| r == &f.rule && (*l == f.line || l.wrapping_add(1) == f.line))
    }
}

/// Analyze one file's source text as `rel_path` (workspace-relative).
/// This is the per-file entry point the fixture tests drive directly.
pub fn analyze_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let crate_dir = crate_dir_of(rel_path);
    let ctx = FileCtx { path: rel_path, crate_dir: &crate_dir };
    let toks = scan::strip_cfg_test(&scan::tokenize(src));
    let allows = Allows::parse(src);
    let mut findings = rules::check_tokens(&ctx, &toks);
    findings.extend(unsafety::check(rel_path, src, &toks));
    findings.into_iter().filter(|f| !allows.covers(f)).collect()
}

/// The crate directory a workspace-relative path belongs to: `mpi` for
/// `crates/mpi/src/comm.rs`, `""` for the root package.
fn crate_dir_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(dir)) => dir.to_string(),
        _ => String::new(),
    }
}

/// Find the workspace root: walk upward from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Every analyzable source file of the workspace, as workspace-relative
/// paths: `crates/*/src/**/*.rs` plus the root package's `src/`.
/// Vendored stub crates, tests, benches, and examples are out of scope
/// (they are not part of the simulation's result path).
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<_> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for d in dirs {
            collect_rs(&d.join("src"), root, &mut files)?;
        }
    }
    collect_rs(&root.join("src"), root, &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Run the full analysis over the workspace at `root`: the per-token
/// rules over every source file, the crate-edge rule over every
/// manifest, the structural cache-key checks over the runner and fault
/// crates, and the interprocedural R/X families over the
/// whole-workspace call graph.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut sources: Vec<(String, String)> = Vec::new();
    for rel in workspace_sources(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        findings.extend(analyze_source(&rel, &src));
        sources.push((rel, src));
    }

    // Interprocedural phase: one IR + call graph, two rule families.
    let allows: std::collections::BTreeMap<&str, Allows> =
        sources.iter().map(|(p, s)| (p.as_str(), Allows::parse(s))).collect();
    let ir = modres::WorkspaceIr::build(root)?;
    findings.extend(layering::check(ir.deps()));
    let graph = callgraph::CallGraph::build(&ir);
    let inter = reach::check(&ir, &graph).into_iter().chain(suspend::check(&ir, &graph));
    findings.extend(inter.filter(|f| allows.get(f.file.as_str()).is_none_or(|a| !a.covers(f))));

    // C and M families: structural checks over specific files.
    let read = |rel: &str| std::fs::read_to_string(root.join(rel));
    match (read("crates/runner/src/plan.rs"), read("crates/runner/src/engine.rs")) {
        (Ok(plan), Ok(engine)) => {
            findings.extend(cachekey::check_cache_key(&plan, &engine));
            findings.extend(metricsrule::check_metrics_boundary(&plan, &engine));
        }
        _ => findings.push(Finding::new(
            "C001",
            Severity::Error,
            "crates/runner/src/plan.rs",
            1,
            "runner sources not found — cannot verify cache-key completeness",
        )),
    }
    match read("crates/faults/src/plan.rs") {
        Ok(plan) => findings.extend(cachekey::check_fault_plan_encoding(&plan)),
        Err(_) => findings.push(Finding::new(
            "C002",
            Severity::Error,
            "crates/faults/src/plan.rs",
            1,
            "fault plan source not found — cannot verify cache-key completeness",
        )),
    }
    match read("crates/policy/src/lib.rs") {
        Ok(policy) => findings.extend(cachekey::check_policy_encoding(&policy)),
        Err(_) => findings.push(Finding::new(
            "P002",
            Severity::Error,
            "crates/policy/src/lib.rs",
            1,
            "policy spec source not found — cannot verify cache-key completeness",
        )),
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_allow_covers_same_and_next_line() {
        let src = "pub struct S {\n    // psc-analyze: allow(U001) legacy wire name\n    pub power: f64,\n    pub energy: f64,\n}\n";
        let f = analyze_source("crates/cli/src/main.rs", src);
        assert_eq!(f.len(), 1, "only the unpragma'd field fires: {f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn file_allow_covers_everything() {
        let src = "//! psc-analyze: allow-file(T001)\nuse std::thread;\nfn g() { let t = SystemTime::now(); }\n";
        assert!(analyze_source("crates/mpi/src/des/mod.rs", src).is_empty());
    }

    #[test]
    fn allow_of_one_rule_keeps_the_other() {
        let src =
            "// psc-analyze: allow(T001)\nuse std::thread;\npub fn total_energy() -> f64 { 0.0 }\n";
        let f = analyze_source("crates/mpi/src/des/mod.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "U001");
    }

    #[test]
    fn crate_dir_resolution() {
        assert_eq!(crate_dir_of("crates/mpi/src/comm.rs"), "mpi");
        assert_eq!(crate_dir_of("src/lib.rs"), "");
    }
}
