//! Property-based invariants of the reporting layer: baselines survive
//! a serialization round trip, and suppression pragmas cover exactly
//! the lines they are written against.

use proptest::prelude::*;
use psc_analyze::{analyze_source, Baseline, BaselineEntry, Finding, Report, Severity};

fn entry_strategy() -> impl Strategy<Value = BaselineEntry> {
    (
        prop_oneof![Just("U001"), Just("R001"), Just("X003"), Just("W002")],
        prop_oneof![
            Just("crates/mpi/src/des/coro.rs"),
            Just("crates/kernels/src/cg.rs"),
            Just("src/lib.rs"),
        ],
        1u32..5000,
    )
        .prop_map(|(rule, file, line)| BaselineEntry {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `Baseline::to_json` → `Baseline::from_json` is the identity, so
    /// a committed baseline file keeps grandfathering exactly the
    /// findings it was generated from.
    #[test]
    fn baseline_round_trips_through_json(
        entries in proptest::collection::vec(entry_strategy(), 0..12),
    ) {
        let b = Baseline { findings: entries };
        let back = Baseline::from_json(&b.to_json()).unwrap();
        prop_assert_eq!(&b, &back);
        for e in &b.findings {
            let f = Finding::new(&e.rule, Severity::Error, &e.file, e.line, "seeded");
            prop_assert!(back.covers(&f));
        }
    }

    /// Splitting findings against a baseline loses nothing: fresh and
    /// baselined partition the input, and every baselined finding is
    /// covered while no fresh one is.
    #[test]
    fn report_split_is_a_partition(
        entries in proptest::collection::vec(entry_strategy(), 0..8),
        extra_lines in proptest::collection::vec(1u32..5000, 0..8),
    ) {
        let baseline = Baseline { findings: entries.clone() };
        let mut findings: Vec<Finding> = entries
            .iter()
            .map(|e| Finding::new(&e.rule, Severity::Error, &e.file, e.line, "seeded"))
            .collect();
        for l in &extra_lines {
            findings.push(Finding::new("L001", Severity::Error, "crates/mpi/Cargo.toml", *l, "x"));
        }
        let total = findings.len();
        let r = Report::against(findings, &baseline);
        prop_assert_eq!(r.fresh.len() + r.baselined.len(), total);
        prop_assert!(r.baselined.iter().all(|f| baseline.covers(f)));
        prop_assert!(r.fresh.iter().all(|f| !baseline.covers(f)));
    }

    /// Line-pragma suppression: a DES scheduler file of host-clock
    /// reads, a random subset carrying `// psc-analyze: allow(T001)` on
    /// the line above — exactly the unpragma'd reads fire, at their own
    /// lines.
    #[test]
    fn allow_pragmas_cover_exactly_their_lines(
        pattern in proptest::collection::vec(0u32..2, 1..20),
    ) {
        let suppressed: Vec<bool> = pattern.iter().map(|p| *p == 1).collect();
        let mut src = String::from("fn f() {\n");
        let mut expected: Vec<u32> = Vec::new();
        let mut line = 1u32;
        for s in &suppressed {
            if *s {
                src.push_str("    // psc-analyze: allow(T001)\n");
                line += 1;
            }
            src.push_str("    let _t = Instant::now();\n");
            line += 1;
            if !*s {
                expected.push(line);
            }
        }
        src.push_str("}\n");
        let fired: Vec<u32> = analyze_source("crates/mpi/src/des/x.rs", &src)
            .into_iter()
            .filter(|f| f.rule == "T001")
            .map(|f| f.line)
            .collect();
        prop_assert_eq!(fired, expected);
    }
}
