//! R-family firing fixture: the kernel itself is token-clean — every
//! banned sink is laundered through a helper in another crate, which
//! only the call-graph rules can see. (The metrics call is left
//! undeclared in the manifest, where L001 would reject the edge; R005
//! matches it by path.)
use psc_machine::util::{draw, stamp};

pub fn run_jacobi() {
    stamp();
    draw();
    psc_metrics::counter_inc();
}
