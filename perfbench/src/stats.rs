//! Sample statistics, host facts and the result line.

use std::fmt::Write as _;

/// Quantile `q` of `samples` by linear interpolation between order
/// statistics (Python's `statistics.quantiles(method="inclusive")`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Record the 50th and 99th percentile of one pass's request latencies.
pub fn push_latency(m: &mut crate::Measured, latency_s: &[f64]) {
    m.latency_p50_s.push(quantile(latency_s, 0.5));
    m.latency_p99_s.push(quantile(latency_s, 0.99));
    m.latency_samples += latency_s.len();
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Restart the process's peak-RSS count (`VmHWM`) from its current
/// resident size, so each pass's peak is measured on its own.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`], MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Total size of the regular files under `dir`, MiB.
pub fn dir_mb(dir: &std::path::Path) -> f64 {
    fn walk(p: &std::path::Path) -> u64 {
        let Ok(rd) = std::fs::read_dir(p) else { return 0 };
        rd.flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => walk(&e.path()),
                Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
                _ => 0,
            })
            .sum()
    }
    walk(dir) as f64 / (1024.0 * 1024.0)
}

/// The commit of the checkout, read from `.git` in the working
/// directory only (the benchmark reads nothing outside its checkout).
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok().or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed.lines().find(|l| l.ends_with(r)).map(|l| l[..40.min(l.len())].to_owned())
        }),
        None if !head.is_empty() => Some(head.to_owned()),
        None => None,
    };
    sha.map_or_else(|| "unknown".to_owned(), |s| s.trim().chars().take(12).collect())
}

/// Host facts printed beside every result.
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!("host: nproc={nproc} profile={profile} commit={}", commit())
}

/// One reported metric.
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Render a number for JSON; non-finite values (which no metric should
/// produce) become `null` so the line stays parseable.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The result object, printed as the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(m, r#"{sep}"{}": {{"value": {}, "unit": "{}"}}"#, x.name, num(x.value), x.unit);
    }
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{m}}}}}"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }

    #[test]
    fn result_line_is_json() {
        let line = result_line(true, 3, 0, &[Metric { name: "wall_s", unit: "s", value: 1.25 }]);
        let v = serde::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(serde::Value::as_u64), Some(3));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).expect("metric");
        assert_eq!(wall.get("value").and_then(serde::Value::as_f64), Some(1.25));
    }
}
