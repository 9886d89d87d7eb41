//! The analyzer's driver behind `powerscale analyze`: the command line
//! is parsed by the caller into [`Options`].

use crate::{analyze_workspace, find_workspace_root, Baseline, Report};
use std::path::PathBuf;
use std::process::ExitCode;

/// What to analyze and how to report it.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Fail (exit 1) on any finding not in the baseline.
    pub deny: bool,
    /// Render the report as JSON instead of text.
    pub json: bool,
    /// Findings to grandfather; a relative path resolves against the root.
    pub baseline: Option<PathBuf>,
    /// Workspace root; discovered from the current directory when unset.
    pub root: Option<PathBuf>,
    /// Fail when the whole analysis takes longer than this.
    pub time_budget_ms: Option<u64>,
}

/// Run the analysis and render the report; returns the process exit
/// code (0 clean, 1 fresh findings under `deny` or over the budget).
pub fn run(opts: &Options) -> Result<ExitCode, String> {
    let root = match &opts.root {
        Some(dir) => dir.clone(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no workspace root found above the current directory")?
        }
    };
    let baseline = match &opts.baseline {
        Some(path) => {
            let resolved = root.join(path);
            let text = std::fs::read_to_string(&resolved)
                .map_err(|e| format!("reading baseline {}: {e}", resolved.display()))?;
            Baseline::from_json(&text)?
        }
        None => Baseline::default(),
    };

    // The analyzer is a host tool: timing its own wall clock is the
    // one sanctioned self-measurement (it never touches results).
    #[allow(clippy::disallowed_methods)]
    let t0 = std::time::Instant::now();
    let findings = analyze_workspace(&root).map_err(|e| format!("analyzing workspace: {e}"))?;
    let elapsed_ms = t0.elapsed().as_millis() as u64;
    let report = Report::against(findings, &baseline);
    if opts.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if let Some(budget) = opts.time_budget_ms {
        if elapsed_ms > budget {
            eprintln!("analysis wall time {elapsed_ms} ms exceeds the budget of {budget} ms");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("analysis wall time: {elapsed_ms} ms (budget {budget} ms)");
    }
    if opts.deny && !report.fresh.is_empty() {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
