//! # psc-serve
//!
//! Sweep-as-a-service: a long-running job server over the memoizing
//! run engine, plus the deterministic replay harness that proves it.
//!
//! The paper's measurement campaigns are batches of independent
//! `(benchmark, class, nodes, gears)` points. Batch-mode `powerscale
//! sweep` already executes one such plan; this crate turns the same
//! engine into a *service*: many concurrent clients stream
//! [`proto`]-format JSONL requests, the server schedules the union of
//! their specs over a bounded two-lane queue ([`queue`]), and the
//! engine's content-addressed cache and in-flight table collapse
//! duplicate work across clients — two clients asking for the same
//! uncached spec at the same instant trigger exactly one simulation.
//!
//! Layering rule (enforced by the crate graph): nothing in this crate
//! touches the simulator directly — no cluster construction, no rank
//! execution. `psc-mpi` is a dev-dependency only, so `Cluster` and
//! `Comm` are unnameable here, and `psc-analyze` rule L001 keeps that
//! edge out of `[dependencies]`. Every result is obtained through
//! [`psc_runner::Engine`], so the server can never bypass the
//! memoization, dedup, or accounting the engine guarantees.
//!
//! [`replay`] is the proof harness: seeded Zipf-skewed client streams,
//! byte-compared against direct serial engine execution.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod proto;
pub mod queue;
pub mod replay;
pub mod server;

pub use proto::{Lane, ProtoLimits};
pub use replay::{replay, ReplayConfig, ReplayReport};
pub use server::{Server, ServerConfig, SessionEnd, MAX_FRAME_BYTES};
