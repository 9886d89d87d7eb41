//! Seeded input generators. Every workload's inputs are a pure function
//! of `--seed`: the plans a sweep executes, the fault seeds it draws,
//! and the frame streams the serve clients send. The simulator only
//! ever sees the generated inputs.

use psc_faults::{FaultPlan, DEFAULT_NOISE_LEVEL};
use psc_kernels::{Benchmark, ProblemClass};
use psc_machine::NodeSpec;
use psc_policy::PolicySpec;
use psc_runner::RunSpec;

/// The kernels every workload draws from: the paper's NAS six plus
/// Jacobi (Figure 3).
pub const KERNELS: [Benchmark; 7] = [
    Benchmark::Bt,
    Benchmark::Cg,
    Benchmark::Ep,
    Benchmark::Lu,
    Benchmark::Mg,
    Benchmark::Sp,
    Benchmark::Jacobi,
];

/// Gears on the modelled node (Athlon-64: 6).
pub const GEARS: usize = 6;

/// `gear_campaign` draws its two fault seeds from this pool.
pub const FAULT_SEED_POOL: [u64; 4] = [11, 42, 1337, 2005];

/// Node count of every `gear_campaign` spec.
pub const CAMPAIGN_NODES: usize = 4;

/// Largest node count `node_scaling` visits.
pub const SCALING_MAX_NODES: usize = 9;

/// Seeded LCG (Numerical Recipes constants), the benchmark's only
/// source of randomness.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    /// A generator for one seed and one stream (the stream separates
    /// draws that must not depend on each other).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = Lcg(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        g.next();
        g
    }

    /// The next 31 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() % (1 << 24)) as f64 / (1u64 << 24) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One spec together with its wire form (a `run` frame's spec object)
/// and a stable label that keys the committed reference digests. The
/// label names only the inputs, so it survives cache-schema changes.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The spec the engine executes.
    pub spec: RunSpec,
    /// The same spec as the serve protocol spells it.
    pub wire: String,
    /// `bench/class/nNODES/gGEAR[/fSEED][/pPOLICY]`.
    pub label: String,
}

impl Entry {
    /// A uniform-gear spec, optionally under the standard noise fault
    /// plan and an online policy.
    pub fn new(
        bench: Benchmark,
        class: ProblemClass,
        nodes: usize,
        gear: usize,
        fault_seed: Option<u64>,
        policy: Option<PolicySpec>,
    ) -> Self {
        let class_wire = match class {
            ProblemClass::Test => "test",
            ProblemClass::B => "B",
        };
        let mut spec = RunSpec::uniform(bench, class, nodes, gear);
        let mut wire = format!(
            r#"{{"bench":"{}","class":"{class_wire}","nodes":{nodes},"gears":{gear}"#,
            bench.name()
        );
        let mut label = format!("{}/{class_wire}/n{nodes}/g{gear}", bench.name());
        if let Some(seed) = fault_seed {
            spec = spec.with_faults(FaultPlan::noise(seed, DEFAULT_NOISE_LEVEL));
            wire.push_str(&format!(r#","fault_seed":{seed}"#));
            label.push_str(&format!("/f{seed}"));
        }
        if let Some(policy) = policy {
            let short = policy.shorthand();
            wire.push_str(&format!(r#","policy":"{short}""#));
            label.push_str(&format!("/p{short}"));
            spec = spec.with_policy(policy);
        }
        wire.push('}');
        Entry { spec, wire, label }
    }
}

/// A sweep: requests (each one `Engine::execute` call, the way a figure
/// binary submits one curve) of entries.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// One plan per request, in submission order.
    pub requests: Vec<Vec<Entry>>,
}

impl Sweep {
    /// Every entry, in submission order.
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.requests.iter().flatten()
    }

    /// Number of specs over all requests.
    pub fn len(&self) -> usize {
        self.requests.iter().map(Vec::len).sum()
    }
}

/// The power-cap budget the campaign uses at `nodes` nodes: 85% of the
/// cluster's fastest-gear busy draw (the `fig_policy` operating point).
pub fn cap_budget_w(node: &NodeSpec, nodes: usize) -> f64 {
    0.85 * nodes as f64 * node.power.busy_w(node.gears.fastest())
}

/// The two online policies of the campaign at `nodes` nodes.
pub fn campaign_policies(node: &NodeSpec, nodes: usize) -> [PolicySpec; 2] {
    [
        PolicySpec::PhaseAdaptive { slowdown_limit: 1.2 },
        PolicySpec::PowerCap { budget_w: cap_budget_w(node, nodes) },
    ]
}

/// One kernel's ten `gear_campaign` specs: gears 1–6, both policies,
/// and gear 1 under each of the two fault seeds.
fn campaign_entries(bench: Benchmark, node: &NodeSpec, fault_seeds: [u64; 2]) -> Vec<Entry> {
    let n = CAMPAIGN_NODES;
    let mut out: Vec<Entry> =
        (1..=GEARS).map(|g| Entry::new(bench, ProblemClass::B, n, g, None, None)).collect();
    for p in campaign_policies(node, n) {
        out.push(Entry::new(bench, ProblemClass::B, n, 1, None, Some(p)));
    }
    for fs in fault_seeds {
        out.push(Entry::new(bench, ProblemClass::B, n, 1, Some(fs), None));
    }
    out
}

/// The generator stream of one workload's `pass`-th pass or round: each
/// pass draws fresh inputs, so a run's median covers many draws.
fn stream(workload: u64, pass: u64) -> u64 {
    workload << 32 | pass
}

/// `gear_campaign`'s `pass`-th pass: one request per kernel (its
/// energy-time curve, both policies and two faulted runs), kernels in
/// seeded order, two distinct fault seeds drawn from [`FAULT_SEED_POOL`].
pub fn gear_campaign(seed: u64, pass: u64, node: &NodeSpec) -> Sweep {
    let mut rng = Lcg::new(seed, stream(1, pass));
    let mut pool = FAULT_SEED_POOL;
    rng.shuffle(&mut pool);
    let fault_seeds = [pool[0], pool[1]];
    let mut kernels = KERNELS;
    rng.shuffle(&mut kernels);
    let requests = kernels.iter().map(|&b| campaign_entries(b, node, fault_seeds)).collect();
    Sweep { requests }
}

/// `node_scaling`'s `pass`-th pass: one request per kernel (its
/// fastest-gear node sweep over every valid count up to
/// [`SCALING_MAX_NODES`], ascending), kernels in seeded order.
pub fn node_scaling(seed: u64, pass: u64) -> Sweep {
    let mut rng = Lcg::new(seed, stream(2, pass));
    let mut kernels = KERNELS;
    rng.shuffle(&mut kernels);
    let requests = kernels
        .iter()
        .map(|&b| {
            let nodes = b.valid_nodes(SCALING_MAX_NODES).into_iter();
            nodes.map(|n| Entry::new(b, ProblemClass::B, n, 1, None, None)).collect()
        })
        .collect();
    Sweep { requests }
}

/// Every spec `gear_campaign` can draw, whatever the seed.
pub fn gear_campaign_universe(node: &NodeSpec) -> Vec<Entry> {
    let mut out = Vec::new();
    for b in KERNELS {
        out.extend(campaign_entries(b, node, [FAULT_SEED_POOL[0], FAULT_SEED_POOL[1]]));
        for &fs in &FAULT_SEED_POOL[2..] {
            out.push(Entry::new(b, ProblemClass::B, CAMPAIGN_NODES, 1, Some(fs), None));
        }
    }
    out
}

/// Clients of `serve_zipf`, each with one connection.
pub const SERVE_CLIENTS: usize = 2;
/// Frames each client sends per round.
pub const SERVE_FRAMES: usize = 50;
/// Specs per frame (the opening frames carry one spec each).
pub const SERVE_BATCH: usize = 2;
/// Zipf exponent over the universe ranks.
pub const SERVE_ZIPF: f64 = 1.1;
/// Universe indices every client asks for in its first frames, one per
/// frame, at the same moment: three uncached Jacobi runs (one client
/// simulates each, the other joins the in-flight run), then the
/// pre-warmed LU 8-node entry (the first touch reads and parses the
/// largest disk entry). These are the heaviest requests, so these frames
/// are each round's slowest and set its 99th percentile; and the LU
/// entry's large parse happens at the same point of every round, alone.
pub const SERVE_OPENING: [usize; 4] = [0, 1, 2, 3];
/// Universe indices written to the disk cache before each round.
pub const SERVE_PREWARM: [usize; 2] = [3, 5];

/// The fixed `serve_zipf` universe, in Zipf rank order: ten class-B
/// specs at the head (so every round simulates them), then a class-test
/// tail across kernels, node counts, gears, fault seeds and a policy.
pub fn serve_universe(node: &NodeSpec) -> Vec<Entry> {
    use Benchmark::*;
    use ProblemClass::{Test, B};
    let adaptive = || Some(PolicySpec::PhaseAdaptive { slowdown_limit: 1.2 });
    let mut out = vec![
        Entry::new(Jacobi, B, 4, 4, None, None),
        Entry::new(Jacobi, B, 8, 1, None, None),
        Entry::new(Jacobi, B, 6, 2, None, None),
        Entry::new(Lu, B, 8, 1, None, None),
        Entry::new(Cg, B, 8, 2, None, None),
        Entry::new(Mg, B, 8, 1, Some(7), None),
        Entry::new(Sp, B, 4, 1, None, adaptive()),
        Entry::new(Bt, B, 4, 3, None, None),
        Entry::new(Ep, B, 8, 5, None, None),
        Entry::new(Lu, B, 4, 2, Some(9), None),
    ];
    let mut i = 0usize;
    for round in 0..2 {
        for b in KERNELS {
            for n in b.valid_nodes(8) {
                let gear = 1 + (i + round) % GEARS;
                let fault = (i % 5 == 2).then_some(i as u64);
                let policy = if i % 7 == 3 {
                    adaptive()
                } else if i % 11 == 6 {
                    Some(PolicySpec::PowerCap { budget_w: cap_budget_w(node, n) })
                } else {
                    None
                };
                out.push(Entry::new(b, Test, n, gear, fault, policy));
                i += 1;
            }
        }
    }
    out
}

/// Precomputed Zipf CDF over `n` ranks.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        cdf.iter_mut().for_each(|c| *c /= total);
        Zipf(cdf)
    }

    fn sample(&self, rng: &mut Lcg) -> usize {
        let u = rng.unit();
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}

/// One `run` frame: its id, the universe indices it asks for, and the
/// exact line a client writes.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Request id, unique within a round.
    pub id: String,
    /// Universe indices, in `seq` order.
    pub picks: Vec<usize>,
    /// The JSONL frame (no trailing newline).
    pub line: String,
}

/// The frame streams of every client in the `round`-th round (closed
/// loop: a client sends its next frame after the previous one's `done`
/// line).
pub fn serve_streams(seed: u64, round: u64, universe: &[Entry]) -> Vec<Vec<Frame>> {
    let zipf = Zipf::new(universe.len(), SERVE_ZIPF);
    (0..SERVE_CLIENTS)
        .map(|c| {
            let mut rng = Lcg::new(seed, stream(3 + c as u64, round));
            (0..SERVE_FRAMES)
                .map(|f| {
                    let picks: Vec<usize> = if f < SERVE_OPENING.len() {
                        vec![SERVE_OPENING[f]]
                    } else {
                        (0..SERVE_BATCH).map(|_| zipf.sample(&mut rng)).collect()
                    };
                    let id = format!("c{c}-f{f}");
                    let specs: Vec<&str> =
                        picks.iter().map(|&i| universe[i].wire.as_str()).collect();
                    let line = format!(
                        r#"{{"id":"{id}","cmd":"run","lane":"interactive","specs":[{}]}}"#,
                        specs.join(",")
                    );
                    Frame { id, picks, line }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_mpi::Cluster;
    use psc_serve::proto::parse_request;
    use psc_serve::ProtoLimits;

    fn node() -> NodeSpec {
        Cluster::athlon_fast_ethernet().node
    }

    fn labels(s: &Sweep) -> Vec<String> {
        s.entries().map(|e| e.wire.clone()).collect()
    }

    fn assert_valid(e: &Entry, node: &NodeSpec) {
        let s = &e.spec;
        assert!(s.bench.supports_nodes(s.nodes), "{}", e.label);
        assert!(
            s.resolved_gears().iter().all(|g| (1..=node.gears.len()).contains(g)),
            "{}",
            e.label
        );
        if let Some(p) = &s.policy {
            p.validate(node, s.nodes).unwrap_or_else(|err| panic!("{}: {err}", e.label));
        }
        if let Some(f) = &s.faults {
            f.validate().unwrap_or_else(|err| panic!("{}: {err}", e.label));
        }
    }

    /// The wire form must parse back to exactly the spec the benchmark
    /// executes directly, or serve replies could not match direct runs.
    fn assert_wire_roundtrips(e: &Entry) {
        let line = format!(r#"{{"id":"x","cmd":"run","specs":[{}]}}"#, e.wire);
        let req = parse_request(&line, ProtoLimits { gear_count: GEARS, max_batch: 8 })
            .unwrap_or_else(|err| panic!("{}: {}", e.label, err.message));
        match req.cmd {
            psc_serve::proto::Command::Run { specs, .. } => assert_eq!(specs, vec![e.spec.clone()]),
            other => panic!("{}: parsed as {other:?}", e.label),
        }
    }

    #[test]
    fn same_seed_same_plans_and_streams() {
        let n = node();
        assert_eq!(labels(&gear_campaign(5, 0, &n)), labels(&gear_campaign(5, 0, &n)));
        assert_eq!(labels(&node_scaling(5, 0)), labels(&node_scaling(5, 0)));
        let u = serve_universe(&n);
        assert_eq!(serve_streams(5, 0, &u), serve_streams(5, 0, &u));
    }

    #[test]
    fn different_seed_different_plans_and_streams() {
        let n = node();
        assert_ne!(labels(&gear_campaign(5, 0, &n)), labels(&gear_campaign(6, 0, &n)));
        assert_ne!(labels(&node_scaling(5, 0)), labels(&node_scaling(6, 0)));
        let u = serve_universe(&n);
        assert_ne!(serve_streams(5, 0, &u), serve_streams(6, 0, &u));
        // Later passes of one seed draw afresh too.
        assert_ne!(labels(&gear_campaign(5, 0, &n)), labels(&gear_campaign(5, 1, &n)));
        assert_ne!(serve_streams(5, 0, &u), serve_streams(5, 1, &u));
    }

    #[test]
    fn seeds_change_order_not_size() {
        let n = node();
        for seed in 0..20 {
            let g = gear_campaign(seed, seed % 3, &n);
            assert_eq!(g.requests.len(), KERNELS.len());
            assert!(g.requests.iter().all(|r| r.len() == 10));
            assert_eq!(node_scaling(seed, seed % 3).len(), 31);
        }
    }

    #[test]
    fn every_generated_spec_is_valid_and_wire_exact() {
        let n = node();
        let mut all: Vec<Entry> = gear_campaign_universe(&n);
        all.extend(node_scaling(1, 0).entries().cloned());
        all.extend(serve_universe(&n));
        for e in &all {
            assert_valid(e, &n);
            assert_wire_roundtrips(e);
        }
    }

    #[test]
    fn campaign_draws_stay_inside_its_universe() {
        let n = node();
        let universe: Vec<String> =
            gear_campaign_universe(&n).into_iter().map(|e| e.label).collect();
        for seed in 0..50 {
            for e in gear_campaign(seed, seed % 7, &n).entries() {
                assert!(universe.contains(&e.label), "{} not in the universe", e.label);
            }
        }
    }

    #[test]
    fn labels_are_unique_within_each_universe() {
        let n = node();
        for set in [gear_campaign_universe(&n), serve_universe(&n)] {
            let mut l: Vec<&str> = set.iter().map(|e| e.label.as_str()).collect();
            l.sort_unstable();
            let len = l.len();
            l.dedup();
            assert_eq!(l.len(), len);
        }
    }

    #[test]
    fn streams_are_well_formed_frames() {
        let n = node();
        let u = serve_universe(&n);
        let streams = serve_streams(3, 0, &u);
        assert_eq!(streams.len(), SERVE_CLIENTS);
        for s in &streams {
            assert_eq!(s.len(), SERVE_FRAMES);
            for (f, &j) in SERVE_OPENING.iter().enumerate() {
                assert_eq!(s[f].picks, vec![j]);
            }
            for f in s {
                let req = parse_request(&f.line, ProtoLimits { gear_count: GEARS, max_batch: 8 })
                    .unwrap_or_else(|err| panic!("{}: {}", f.id, err.message));
                assert_eq!(req.id, f.id);
            }
        }
    }
}
