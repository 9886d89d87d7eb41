//! Integration tests: every seeded analyzer fixture under
//! `tests/fixtures/` must trip its rule (and fail `--deny` through the
//! real CLI driver), the workspace at HEAD must be clean, and deleting
//! a field's contribution from the real cache key must trip C001. (The
//! `d001`/`d004` fixtures are clippy's: CI requires `clippy-driver` to
//! reject them.)

use psc_analyze::cachekey::{check_cache_key, check_fault_plan_encoding, check_policy_encoding};
use psc_analyze::{analyze_source, analyze_workspace, find_workspace_root};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("reading {name}: {e}"))
}

/// The `(rule, line)` pairs a fixture produced.
fn hits(rel_path: &str, src: &str) -> Vec<(String, u32)> {
    analyze_source(rel_path, src).into_iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn u001_fires_on_bare_quantities_not_suffixed_ones() {
    let h = hits("crates/analysis/src/fixture.rs", &fixture("u001_bare_units.rs"));
    let lines: Vec<u32> = h.iter().filter(|(r, _)| r == "U001").map(|&(_, l)| l).collect();
    assert_eq!(lines, vec![5, 6, 11], "findings: {h:?}");
}

#[test]
fn f001_fires_on_rng_outside_the_sanctioned_module() {
    let src = fixture("f001_fault_purity.rs");
    let h = hits("crates/faults/src/inject.rs", &src);
    assert!(h.iter().any(|(r, l)| r == "F001" && *l == 5), "findings: {h:?}");
    // The sanctioned module itself is exempt.
    assert!(hits("crates/faults/src/rng.rs", &src).is_empty());
}

#[test]
fn c001_fires_on_the_incomplete_engine_fixture() {
    let f = check_cache_key(&fixture("c001_runspec.rs"), &fixture("c001_engine_incomplete.rs"));
    assert_eq!(f.len(), 1, "findings: {f:?}");
    assert_eq!(f[0].rule, "C001");
    assert!(f[0].message.contains("`gears`"), "{}", f[0].message);
}

#[test]
fn c002_fires_on_the_skipped_field_fixture() {
    let f = check_fault_plan_encoding(&fixture("c002_skipped_field.rs"));
    assert_eq!(f.len(), 1, "findings: {f:?}");
    assert_eq!(f[0].rule, "C002");
    assert!(f[0].message.contains("`clock_jitter`"), "{}", f[0].message);
}

#[test]
fn p002_fires_on_the_skipped_knob_fixture() {
    let f = check_policy_encoding(&fixture("p002_skipped_knob.rs"));
    assert_eq!(f.len(), 1, "findings: {f:?}");
    assert_eq!(f[0].rule, "P002");
    assert!(f[0].message.contains("`budget_w`"), "{}", f[0].message);
}

#[test]
fn clean_fixture_produces_no_findings() {
    let h = hits("crates/machine/src/fixture.rs", &fixture("clean.rs"));
    assert!(h.is_empty(), "clean fixture must not fire: {h:?}");
}

fn repo_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

/// The gate the CI job relies on: the workspace at HEAD is clean, so
/// `analyze --deny` (empty baseline) exits 0.
#[test]
fn workspace_at_head_is_clean() {
    let findings = analyze_workspace(&repo_root()).expect("analyze workspace");
    assert!(
        findings.is_empty(),
        "the committed workspace must pass its own analyzer:\n{}",
        findings.iter().map(|f| f.render()).collect::<Vec<_>>().join("\n")
    );
}

/// Regression drill for the exact failure C001 exists to catch: delete
/// the `gears` contribution from the *real* engine's cache key (keeping
/// the field on RunSpec) and the completeness rule must fail.
#[test]
fn deleting_gears_from_the_real_cache_key_trips_c001() {
    let root = repo_root();
    let plan = std::fs::read_to_string(root.join("crates/runner/src/plan.rs")).unwrap();
    let engine = std::fs::read_to_string(root.join("crates/runner/src/engine.rs")).unwrap();
    assert!(check_cache_key(&plan, &engine).is_empty(), "real key must be complete");

    let mutilated = engine.replace("resolved_gears", "resolved");
    assert_ne!(mutilated, engine, "engine.rs no longer references resolved_gears");
    let f = check_cache_key(&plan, &mutilated);
    assert!(
        f.iter().any(|f| f.rule == "C001" && f.message.contains("`gears`")),
        "dropping the gears contribution must trip C001: {f:?}"
    );
}

// --------------------------------------------------------------------
// CLI driver: each seeded violation must fail `analyze --deny` end to
// end, through the same entry point `powerscale analyze` uses.
// --------------------------------------------------------------------

fn exit_eq(a: std::process::ExitCode, b: std::process::ExitCode) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn run_deny(root: &Path) -> std::process::ExitCode {
    let opts = psc_analyze::cli::Options {
        deny: true,
        root: Some(root.to_path_buf()),
        ..Default::default()
    };
    psc_analyze::cli::run(&opts).expect("cli::run")
}

#[test]
fn deny_fails_on_each_seeded_fixture_violation() {
    use std::process::ExitCode;
    // A minimal clean workspace: complete cache key, serialized plan.
    let tmp = std::env::temp_dir().join(format!("psc-analyze-deny-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let write = |rel: &str, text: &str| {
        let p = tmp.join(rel);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(p, text).unwrap();
    };
    write("Cargo.toml", "[workspace]\nmembers = []\n");
    write(
        "crates/runner/src/plan.rs",
        "pub struct RunSpec {\n    pub bench: Benchmark,\n    pub nodes: usize,\n    pub gears: GearSelection,\n    pub faults: Option<FaultPlan>,\n}\n",
    );
    let engine_ok = "impl Engine {\n    pub fn cache_key(&self, spec: &RunSpec) -> u64 {\n        let d = format!(\"{}|{}|{:?}\", spec.bench.name(), spec.nodes, spec.resolved_gears());\n        let f = self.effective_faults(spec);\n        fnv1a64(d.as_bytes()) ^ f.map_or(0, |p| fnv1a64(p.to_json().as_bytes()))\n    }\n    fn execute_spec(&self, spec: &RunSpec) -> RunResult {\n        self.cluster.run(&spec.config(), |comm| spec.bench.run(comm))\n    }\n}\n";
    write("crates/runner/src/engine.rs", engine_ok);
    let faults_ok = "#[derive(Debug, Clone, Serialize, Deserialize)]\npub struct FaultPlan {\n    pub seed: u64,\n}\n";
    write("crates/faults/src/plan.rs", faults_ok);
    let policy_ok = "#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]\npub enum PolicySpec {\n    Static { gear: usize },\n}\n";
    write("crates/policy/src/lib.rs", policy_ok);
    assert!(exit_eq(run_deny(&tmp), ExitCode::SUCCESS), "baseline tree must be clean");

    // Each token-rule fixture, dropped into a crate its rule covers.
    let cases = [
        ("u001_bare_units.rs", "crates/analysis/src/bad.rs"),
        ("f001_fault_purity.rs", "crates/faults/src/bad.rs"),
    ];
    for (fix, dest) in cases {
        write(dest, &fixture(fix));
        assert!(
            exit_eq(run_deny(&tmp), ExitCode::FAILURE),
            "--deny must fail with {fix} seeded at {dest}"
        );
        std::fs::remove_file(tmp.join(dest)).unwrap();
    }

    // The structural rules: an incomplete key, then a skipped field.
    write("crates/runner/src/engine.rs", &fixture("c001_engine_incomplete.rs"));
    assert!(exit_eq(run_deny(&tmp), ExitCode::FAILURE), "--deny must fail on incomplete key");
    write("crates/runner/src/engine.rs", engine_ok);

    write("crates/faults/src/plan.rs", &fixture("c002_skipped_field.rs"));
    assert!(exit_eq(run_deny(&tmp), ExitCode::FAILURE), "--deny must fail on serde(skip)");
    write("crates/faults/src/plan.rs", faults_ok);

    write("crates/policy/src/lib.rs", &fixture("p002_skipped_knob.rs"));
    assert!(exit_eq(run_deny(&tmp), ExitCode::FAILURE), "--deny must fail on a skipped knob");
    write("crates/policy/src/lib.rs", policy_ok);

    // The crate-edge rule: serve may use psc-mpi in tests, never in code.
    write("crates/serve/Cargo.toml", "[dev-dependencies]\npsc-mpi = { path = \"../mpi\" }\n");
    assert!(exit_eq(run_deny(&tmp), ExitCode::SUCCESS), "a dev-dependency is no edge");
    write("crates/serve/Cargo.toml", "[dependencies]\npsc-mpi = { path = \"../mpi\" }\n");
    assert!(exit_eq(run_deny(&tmp), ExitCode::FAILURE), "--deny must fail on serve → mpi");
    std::fs::remove_file(tmp.join("crates/serve/Cargo.toml")).unwrap();

    assert!(exit_eq(run_deny(&tmp), ExitCode::SUCCESS), "tree must be clean again");
    let _ = std::fs::remove_dir_all(&tmp);
}
