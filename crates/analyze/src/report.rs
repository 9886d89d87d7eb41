//! Findings, severities, baselines, and the two output formats.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a finding is. Both severities fail `--deny`; the split
/// exists so reports can rank hard determinism breaks above
/// conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// A convention or hygiene violation (unit suffixes).
    Warning,
    /// A correctness hazard: nondeterminism or a stale-cache bug.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One diagnostic: a rule violation at a `file:line`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Rule id, e.g. `R001`.
    pub rule: String,
    /// Severity class.
    pub severity: Severity,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable message, including the offending name.
    pub message: String,
}

impl Finding {
    /// Build a finding for `rule` at `file:line`.
    pub fn new(
        rule: &str,
        severity: Severity,
        file: &str,
        line: u32,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            rule: rule.to_string(),
            severity,
            file: file.to_string(),
            line,
            message: message.into(),
        }
    }

    /// The canonical one-line text rendering.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}: {}", self.file, self.line, self.rule, self.severity, self.message)
    }
}

/// A committed set of grandfathered findings. Entries match on
/// `(rule, file, line)`; a matched finding is reported but does not
/// fail `--deny`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Baseline {
    /// The grandfathered findings.
    pub findings: Vec<BaselineEntry>,
}

/// One grandfathered finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineEntry {
    /// Rule id.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

impl Baseline {
    /// Parse a baseline from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde::json::from_str(text).map_err(|e| format!("invalid baseline: {e}"))
    }

    /// Serialize the baseline to pretty JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Whether `f` is grandfathered.
    pub fn covers(&self, f: &Finding) -> bool {
        self.findings.iter().any(|b| b.rule == f.rule && b.file == f.file && b.line == f.line)
    }
}

/// A full report: findings split into fresh and baselined.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Findings not covered by the baseline — these fail `--deny`.
    pub fresh: Vec<Finding>,
    /// Findings the baseline grandfathers.
    pub baselined: Vec<Finding>,
}

impl Report {
    /// Split `findings` against `baseline`.
    pub fn against(mut findings: Vec<Finding>, baseline: &Baseline) -> Self {
        findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        let (baselined, fresh) = findings.into_iter().partition(|f| baseline.covers(f));
        Report { fresh, baselined }
    }

    /// Text rendering: one line per finding plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.fresh {
            out.push_str(&f.render());
            out.push('\n');
        }
        for f in &self.baselined {
            out.push_str(&format!("{} (baselined)\n", f.render()));
        }
        out.push_str(&format!(
            "psc-analyze: {} finding(s), {} baselined\n",
            self.fresh.len(),
            self.baselined.len()
        ));
        out
    }

    /// Machine-readable rendering (`--format json`).
    pub fn render_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_round_trips_and_matches() {
        let b = Baseline {
            findings: vec![BaselineEntry { rule: "U001".into(), file: "a.rs".into(), line: 7 }],
        };
        let back = Baseline::from_json(&b.to_json()).unwrap();
        assert_eq!(b, back);
        let hit = Finding::new("U001", Severity::Warning, "a.rs", 7, "bare unit");
        let miss = Finding::new("U001", Severity::Warning, "a.rs", 8, "bare unit");
        assert!(b.covers(&hit));
        assert!(!b.covers(&miss));
    }

    #[test]
    fn report_splits_and_sorts() {
        let b = Baseline {
            findings: vec![BaselineEntry { rule: "R001".into(), file: "z.rs".into(), line: 1 }],
        };
        let findings = vec![
            Finding::new("R001", Severity::Error, "z.rs", 1, "clock"),
            Finding::new("U001", Severity::Warning, "a.rs", 9, "suffix"),
            Finding::new("L001", Severity::Error, "a.rs", 2, "crate edge"),
        ];
        let r = Report::against(findings, &b);
        assert_eq!(r.fresh.len(), 2);
        assert_eq!(r.baselined.len(), 1);
        assert_eq!(r.fresh[0].line, 2, "sorted by file then line");
        assert!(r.render_text().contains("2 finding(s), 1 baselined"));
    }

    #[test]
    fn finding_renders_file_line_rule() {
        let f = Finding::new(
            "C001",
            Severity::Error,
            "crates/runner/src/engine.rs",
            110,
            "field `x` missing",
        );
        assert_eq!(f.render(), "crates/runner/src/engine.rs:110: [C001] error: field `x` missing");
    }
}
