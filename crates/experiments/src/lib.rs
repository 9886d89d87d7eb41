//! # psc-experiments
//!
//! The reproduction harness: one binary per table/figure in the paper,
//! all built on a shared measurement library so the test suite and the
//! Criterion benches exercise the exact same code paths.
//!
//! | binary      | paper artifact | what it does |
//! |-------------|----------------|--------------|
//! | `fig1`      | Figure 1       | 6 NAS benchmarks × 6 gears on one node |
//! | `table1`    | Table 1        | UPM + energy-time slopes, sorted |
//! | `fig2`      | Figure 2       | NAS suite on 2/4/8 (BT/SP 4/9) nodes, case taxonomy |
//! | `fig3`      | Figure 3       | Jacobi on 2/4/6/8/10 nodes |
//! | `fig4`      | Figure 4       | synthetic high-memory-pressure benchmark |
//! | `fig5`      | Figure 5       | model fit ≤9 nodes → extrapolation to 16/25/32 |
//! | `claims`    | §3 narrative   | every headline numeric claim, paper vs measured |
//! | `ablations` | DESIGN.md §6   | naive/refined model (3 workload shapes), shape misclassification, base-power sensitivity, switch contention |
//! | `summary`   | —              | one-page digest of the results CSVs |
//!
//! Binaries print ASCII plots/tables and write CSVs into `./results`
//! (override with the `RESULTS_DIR` environment variable).

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod harness;
pub mod report;
pub mod timing;
