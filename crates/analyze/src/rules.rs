//! The per-file rule families.
//!
//! | id   | family        | fires on |
//! |------|---------------|----------|
//! | U001 | units         | public scalar field or `f64`-returning `pub fn` named after a quantity without its unit suffix |
//! | F001 | fault purity  | a stochastic construct inside `psc-faults` that bypasses the counter-keyed `rng` module |
//! | T001 | virtual time  | a host-concurrency or host-clock identifier (`thread`, `crossbeam`, `Instant`, `SystemTime`) inside the DES scheduler (`crates/mpi/src/des/`) |
//!
//! Host clocks and hash-ordered collections are banned workspace-wide
//! by `clippy.toml`; entropy-seeded RNGs and environment reads on the
//! result path by the interprocedural R family ([`crate::reach`]); and
//! layering by the crate graph itself, guarded by L001
//! ([`crate::layering`]). The C family — cache-key completeness,
//! including P002 for the `RunSpec::policy` encoding — and M001 are
//! structural rather than per-token and live in [`crate::cachekey`]
//! and [`crate::metricsrule`].

use crate::report::{Finding, Severity};
use crate::scan::Tok;

/// What the analyzer knows about the file being scanned: enough to
/// scope the crate-sensitive rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileCtx<'a> {
    /// Workspace-relative path, e.g. `crates/mpi/src/comm.rs`.
    pub path: &'a str,
    /// The crate directory name under `crates/` (`mpi`, `runner`, ...),
    /// or `""` for the root package.
    pub crate_dir: &'a str,
}

impl FileCtx<'_> {
    /// Whether the file is the fault layer's sanctioned RNG module.
    pub fn is_fault_rng_module(&self) -> bool {
        self.path.ends_with("crates/faults/src/rng.rs") || self.path == "crates/faults/src/rng.rs"
    }
}

/// Run every per-token rule over one file's token stream.
pub fn check_tokens(ctx: &FileCtx<'_>, toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    if ctx.crate_dir == "faults" {
        fault_stream_purity(ctx, toks, &mut out);
    }
    unit_suffixes(ctx, toks, &mut out);
    des_virtual_time_boundary(ctx, toks, &mut out);
    out
}

// --------------------------------------------------------------------
// F001 — fault-stream purity (psc-faults only)
// --------------------------------------------------------------------

/// Stochastic constructs with no place in psc-faults outside its
/// counter-keyed `rng` module: entropy-seeded generators, seeded
/// generators that bypass the keyed streams, and the raw mixer.
const FAULT_RNG_BANNED: &[&str] =
    &["thread_rng", "from_entropy", "RandomState", "fastrand", "splitmix64", "SmallRng", "StdRng"];

fn fault_stream_purity(ctx: &FileCtx<'_>, toks: &[Tok], out: &mut Vec<Finding>) {
    if ctx.is_fault_rng_module() {
        return; // the sanctioned module itself
    }
    for (i, t) in toks.iter().enumerate() {
        let banned = FAULT_RNG_BANNED.contains(&t.text.as_str())
            || (t.text == "rand" && toks.get(i + 1).is_some_and(|n| n.text == ":"));
        if banned {
            out.push(Finding::new(
                "F001",
                Severity::Error,
                ctx.path,
                t.line,
                format!(
                    "stochastic construct `{}` outside the rng module — every draw in psc-faults \
                     must route through the counter-keyed FaultRng::keyed(seed, parts)",
                    t.text
                ),
            ));
        }
    }
}

// --------------------------------------------------------------------
// T001 — the DES scheduler's virtual-time boundary
// --------------------------------------------------------------------

/// Identifiers that have no business inside the discrete-event
/// scheduler: the scheduler advances a *virtual* clock by popping an
/// event heap on one host thread, so any OS-thread primitive, channel,
/// or host-clock read there is a determinism hole by construction.
const DES_BANNED: &[&str] = &["thread", "crossbeam", "Instant", "SystemTime"];

/// The DES scheduler (`crates/mpi/src/des/`) must stay purely
/// virtual-time and single-threaded. `clippy.toml` already bans
/// `Instant::now` everywhere; this rule is stricter on the scheduler
/// path — the bare identifiers are banned outright, so even importing
/// a thread or channel type (without calling it) is a finding. The threaded
/// backend's primitives live above the fabric seam in `comm.rs`, which
/// this rule deliberately does not cover.
fn des_virtual_time_boundary(ctx: &FileCtx<'_>, toks: &[Tok], out: &mut Vec<Finding>) {
    if !ctx.path.contains("crates/mpi/src/des/") {
        return;
    }
    for t in toks.iter().filter(|t| DES_BANNED.contains(&t.text.as_str())) {
        out.push(Finding::new(
            "T001",
            Severity::Error,
            ctx.path,
            t.line,
            format!(
                "host-concurrency identifier `{}` inside the DES scheduler — the scheduler is \
                 single-threaded virtual time; thread/channel/host-clock primitives belong above \
                 the fabric seam (crates/mpi/src/comm.rs), never in crates/mpi/src/des/",
                t.text
            ),
        ));
    }
}

// --------------------------------------------------------------------
// U001 — unit-suffix discipline
// --------------------------------------------------------------------

/// Quantity words that must never terminate a public scalar name: the
/// name should end in the unit instead (`energy_j`, `power_w`, ...).
const BARE_STEMS: &[&str] = &[
    "energy",
    "power",
    "time",
    "freq",
    "frequency",
    "watts",
    "joules",
    "seconds",
    "hertz",
    "latency",
    "duration",
    "volts",
    "wattage",
];

/// The accepted unit suffixes (`crates/machine/src/lib.rs` "Units").
pub const UNIT_SUFFIXES: &[&str] = &["j", "w", "s", "hz", "mhz", "ghz", "v", "ms", "us"];

fn bare_stem(name: &str) -> Option<&'static str> {
    let last = name.rsplit('_').next().unwrap_or(name);
    BARE_STEMS.iter().find(|&&s| s == last).copied()
}

fn unit_suffixes(ctx: &FileCtx<'_>, toks: &[Tok], out: &mut Vec<Finding>) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "pub" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // pub(crate) / pub(in path) restrictions.
        if toks.get(j).is_some_and(|t| t.text == "(") {
            let mut depth = 1;
            j += 1;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        let Some(head) = toks.get(j) else { break };
        match head.text.as_str() {
            "fn" => {
                if let Some(f) = check_pub_fn(ctx, toks, j + 1) {
                    out.push(f);
                }
            }
            // A field: `pub name: f64` (struct context). Skip keywords
            // that introduce non-field items.
            "struct" | "enum" | "mod" | "use" | "const" | "static" | "type" | "trait" | "impl"
            | "unsafe" | "async" | "crate" | "in" => {}
            _ if head.is_ident()
                && toks.get(j + 1).is_some_and(|t| t.text == ":")
                && toks.get(j + 2).is_some_and(|t| t.text != ":") =>
            {
                let ty = &toks[j + 2].text;
                let scalar = ty == "f64" || ty == "f32";
                let terminated = toks.get(j + 3).is_some_and(|t| t.text == "," || t.text == "}");
                if scalar && terminated {
                    if let Some(stem) = bare_stem(&head.text) {
                        out.push(unit_finding(ctx, head, stem, "field"));
                    }
                }
            }
            _ => {}
        }
        i = j + 1;
    }
}

fn check_pub_fn(ctx: &FileCtx<'_>, toks: &[Tok], mut i: usize) -> Option<Finding> {
    let name = toks.get(i)?.clone();
    // Skip generics to the parameter list.
    while i < toks.len() && toks[i].text != "(" {
        if toks[i].text == "{" || toks[i].text == ";" {
            return None;
        }
        i += 1;
    }
    // Skip the parameter list.
    let mut depth = 0;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    // `-> f64` (or f32), directly: a scalar quantity return.
    if toks.get(i).is_some_and(|t| t.text == "-")
        && toks.get(i + 1).is_some_and(|t| t.text == ">")
        && toks.get(i + 2).is_some_and(|t| t.text == "f64" || t.text == "f32")
        && toks.get(i + 3).is_some_and(|t| t.text == "{" || t.text == ";" || t.text == "where")
    {
        if let Some(stem) = bare_stem(&name.text) {
            return Some(unit_finding(ctx, &name, stem, "function"));
        }
    }
    None
}

fn unit_finding(ctx: &FileCtx<'_>, tok: &Tok, stem: &str, kind: &str) -> Finding {
    Finding::new(
        "U001",
        Severity::Warning,
        ctx.path,
        tok.line,
        format!(
            "public {kind} `{}` carries a {stem} value without a unit suffix — name the unit \
             (`_j` joules, `_w` watts, `_s` seconds, `_hz`/`_mhz` frequency, `_v` volts)",
            tok.text
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::tokenize;

    fn ctx<'a>(path: &'a str, crate_dir: &'a str) -> FileCtx<'a> {
        FileCtx { path, crate_dir }
    }

    fn rules_on(src: &str, path: &str, crate_dir: &str) -> Vec<Finding> {
        check_tokens(&ctx(path, crate_dir), &tokenize(src))
    }

    #[test]
    fn rng_rule_is_f001_inside_faults_only() {
        let src = "fn f() { let r = thread_rng(); }";
        assert!(rules_on(src, "crates/model/src/x.rs", "model").is_empty());
        assert_eq!(rules_on(src, "crates/faults/src/plan.rs", "faults")[0].rule, "F001");
        assert!(rules_on(src, "crates/faults/src/rng.rs", "faults").is_empty());
    }

    #[test]
    fn raw_splitmix_outside_rng_module_is_impure() {
        let src = "fn f(s: &mut u64) -> u64 { splitmix64(s) }";
        let f = rules_on(src, "crates/faults/src/plan.rs", "faults");
        assert_eq!(f[0].rule, "F001");
        assert!(rules_on(src, "crates/faults/src/rng.rs", "faults").is_empty());
    }

    #[test]
    fn unit_rule_wants_suffixes_on_quantity_names() {
        let bad = "pub struct S { pub energy: f64, pub power: f64 }";
        let f = rules_on(bad, "crates/machine/src/x.rs", "machine");
        assert_eq!(f.iter().filter(|f| f.rule == "U001").count(), 2);

        let good = "pub struct S { pub energy_j: f64, pub idle_power_w: f64, pub time_scale: f64 }";
        assert!(rules_on(good, "crates/machine/src/x.rs", "machine").is_empty());
    }

    #[test]
    fn unit_rule_checks_scalar_returning_pub_fns() {
        let bad = "impl S { pub fn total_energy(&self) -> f64 { 0.0 } }";
        let f = rules_on(bad, "crates/mpi/src/x.rs", "mpi");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "U001");

        let good = "impl S { pub fn total_energy_j(&self) -> f64 { 0.0 } \
                    pub fn frequency_ratio(&self) -> f64 { 1.0 } }";
        assert!(rules_on(good, "crates/mpi/src/x.rs", "mpi").is_empty());
    }

    #[test]
    fn des_path_bans_thread_channel_and_clock_idents() {
        // Bare identifiers fire — even an unused import is a finding.
        let src = "use std::thread; use crossbeam::channel::Receiver; \
                   fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        let f = rules_on(src, "crates/mpi/src/des/mod.rs", "mpi");
        let t001: Vec<_> = f.iter().filter(|f| f.rule == "T001").map(|f| f.line).collect();
        assert_eq!(t001.len(), 4, "thread, crossbeam, Instant, SystemTime each fire: {f:?}");
        // Identical tokens outside the scheduler path are T001-clean
        // (clippy's disallowed-methods still covers the clock reads).
        let elsewhere = rules_on(src, "crates/mpi/src/comm.rs", "mpi");
        assert!(elsewhere.iter().all(|f| f.rule != "T001"));
        // The scheduler as written is virtual-time only.
        for path in ["crates/mpi/src/des/mod.rs", "crates/mpi/src/des/coro.rs"] {
            let rel = path.strip_prefix("crates/mpi/src/des/").unwrap();
            let src = std::fs::read_to_string(
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../mpi/src/des").join(rel),
            )
            .expect("des sources exist");
            let f = rules_on(&src, path, "mpi");
            assert!(f.iter().all(|f| f.rule != "T001"), "{path} violates its own boundary: {f:?}");
        }
    }

    #[test]
    fn unit_rule_ignores_non_scalar_and_private_items() {
        let src = "struct S { energy: f64 } pub struct T { pub energy: Option<f64> } \
                   pub fn times(&self) -> Vec<f64> { vec![] }";
        assert!(rules_on(src, "crates/mpi/src/x.rs", "mpi").is_empty());
    }
}
