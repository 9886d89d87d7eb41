//! The correctness gate: every simulated statistic a workload receives
//! is hashed, as exact bits, and compared with a committed reference
//! computed by direct serial execution. Host timings never enter it.

use crate::gen::Entry;
use psc_mpi::RunResult;
use psc_runner::cache::fnv1a64;
use std::collections::BTreeMap;

/// The committed reference: `label<TAB>digest` per line.
const REFERENCE: &str = include_str!("../reference.tsv");

/// Where `--bless` writes the reference.
pub const REFERENCE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.tsv");

/// Exact-bit digest of a run's simulated statistics: time, exact and
/// wattmeter energy, and every rank's final gear and counters.
pub fn digest(run: &RunResult) -> u64 {
    let mut bytes = Vec::with_capacity(24 + run.ranks.len() * 64);
    for x in [run.time_s, run.energy_j, run.measured_energy_j] {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    for r in &run.ranks {
        let c = &r.counters;
        for x in [r.rank as u64, r.gear_index as u64, c.bytes_sent, c.mpi_calls] {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        for x in [c.uops, c.active_cycles, c.active_s, c.idle_s] {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// The committed reference digests, by entry label.
pub fn reference() -> BTreeMap<String, u64> {
    REFERENCE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, hex) = l.split_once('\t').expect("reference line is label<TAB>digest");
            let d = u64::from_str_radix(hex, 16).expect("reference digest is 16 hex digits");
            (label.to_owned(), d)
        })
        .collect()
}

/// Tallies of checked operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
}

impl Tally {
    /// Count one operation, failed unless `ok`; report the first few
    /// failures on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("MISMATCH: {}", what());
            }
        }
    }

    /// Merge another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Check one received result against the reference digest of its entry.
pub fn check_entry(
    tally: &mut Tally,
    reference: &BTreeMap<String, u64>,
    entry: &Entry,
    run: &RunResult,
) {
    let got = digest(run);
    let want = reference.get(&entry.label).copied();
    tally.check(want == Some(got), || match want {
        Some(w) => format!("{}: digest {got:016x}, reference {w:016x}", entry.label),
        None => format!("{}: no reference digest (re-bless?)", entry.label),
    });
}
