//! Fixture: every wall-clock read below must fail clippy's
//! `disallowed-methods` (CI compiles this file with `clippy-driver`
//! against the workspace `clippy.toml` and requires the failure).

pub fn elapsed_s() -> f64 {
    let started = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
    started.elapsed().as_secs_f64()
}
