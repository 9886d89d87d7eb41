//! Fixture: hash-ordered collections must fail clippy's
//! `disallowed-types` (CI compiles this file with `clippy-driver`
//! against the workspace `clippy.toml` and requires the failure).

use std::collections::HashMap;

pub struct Registry {
    pub by_rank: HashMap<usize, f64>,
}
