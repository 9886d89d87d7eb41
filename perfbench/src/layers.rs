//! The traced run's per-layer split. Spans are recorded from outside
//! the program, around calls into each crate's public functions: a
//! replica of the engine's per-spec path (key, lookup, simulate,
//! insert, and for serve frames parse and encode) on the workload's own
//! inputs, plus per-call pricing of each layer on the same results.

use crate::check::{self, Tally};
use crate::stats::median;
use crate::{CacheKind, Measured, JOBS};
use psc_kernels::ProblemClass;
use psc_machine::WorkBlock;
use psc_mpi::{Cluster, ClusterConfig, ReduceOp, RunResult};
use psc_runner::{Engine, RunCache, RunOutcome, RunSpec};
use psc_serve::proto::{self, Lane};
use psc_serve::ProtoLimits;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::Instant;

/// Host seconds one replica pass spent in each layer, summed over
/// worker threads.
#[derive(Debug, Default, Clone)]
pub struct Replica {
    /// Pass wall time.
    pub wall_s: f64,
    /// Worker time not spent waiting on another worker's simulation.
    pub busy_s: f64,
    /// `Engine::cache_key`.
    pub key_s: f64,
    /// `RunCache::lookup`.
    pub lookup_s: f64,
    /// `Cluster::run_with_policy_stats`.
    pub sim_s: f64,
    /// `RunCache::insert`.
    pub insert_s: f64,
    /// `proto::parse_request`.
    pub parse_s: f64,
    /// `proto::result_value`, `result_line` and `done_line`.
    pub encode_s: f64,
    /// DES dispatches (`BackendStats::events_processed`).
    pub des_events: f64,
    /// Peak coroutine stack use, bytes.
    pub stack_high_water: f64,
    /// Per node count: (simulate, insert) seconds.
    pub by_nodes: BTreeMap<usize, (f64, f64)>,
}

impl Replica {
    fn add(&mut self, o: &Replica) {
        self.busy_s += o.busy_s;
        self.key_s += o.key_s;
        self.lookup_s += o.lookup_s;
        self.sim_s += o.sim_s;
        self.insert_s += o.insert_s;
        self.parse_s += o.parse_s;
        self.encode_s += o.encode_s;
        self.des_events += o.des_events;
        self.stack_high_water = self.stack_high_water.max(o.stack_high_water);
        for (n, (s, i)) in &o.by_nodes {
            let e = self.by_nodes.entry(*n).or_default();
            e.0 += s;
            e.1 += i;
        }
    }

    /// Time inside some layer span.
    pub fn spans_s(&self) -> f64 {
        self.key_s + self.lookup_s + self.sim_s + self.insert_s + self.parse_s + self.encode_s
    }
}

/// Seconds spent in `f`, added to `acc`.
fn span<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

/// [`span`] when `on`; otherwise just `f` (the untraced replica).
fn span_if<R>(on: bool, acc: &mut f64, f: impl FnOnce() -> R) -> R {
    if on {
        span(acc, f)
    } else {
        f()
    }
}

/// Simulate a spec exactly as the engine does.
fn simulate(cluster: &Cluster, spec: &RunSpec) -> (RunResult, psc_mpi::BackendStats) {
    let policy = spec.policy.as_ref().map(|p| p as &dyn psc_mpi::ClusterPolicy);
    let (run, _, stats) =
        cluster.run_with_policy_stats(&spec.config(), spec.faults.as_ref(), policy, |comm| {
            spec.bench.run(comm, spec.class)
        });
    (run, stats)
}

/// One replica pass over the workload's work items with `JOBS` workers,
/// with layer spans when `timed` (the untimed pass is the base of the
/// tracing overhead). Every simulated result is checked against the
/// reference digests.
pub fn replica_pass(
    cluster: &Cluster,
    m: &Measured,
    dir: &Path,
    timed: bool,
    tally: &mut Tally,
) -> Replica {
    let keyer = Engine::serial(cluster.clone());
    let cache = match &m.cache {
        CacheKind::Memory => RunCache::in_memory(),
        CacheKind::Disk(pre) => {
            crate::serve::prewarm(cluster, dir, pre);
            RunCache::with_disk(dir)
        }
    };
    let limits = ProtoLimits { gear_count: keyer.gear_count(), max_batch: 64 };
    let slots: Vec<OnceLock<Arc<RunResult>>> = m.distinct.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let total = Mutex::new(Replica::default());
    let reference = check::reference();
    let shared_tally = Mutex::new(Tally::default());
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..JOBS {
            s.spawn(|| {
                let mut acc = Replica::default();
                let mut local = Tally::default();
                let mut waited_s = 0.0;
                let started = Instant::now();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((frame, picks)) = m.replica.get(i) else { break };
                    let id = frame.as_ref().map(|line| {
                        let req =
                            span_if(timed, &mut acc.parse_s, || proto::parse_request(line, limits));
                        req.map(|r| r.id).unwrap_or_default()
                    });
                    let (mut executed, mut hits, mut joins) = (0, 0, 0);
                    for (seq, &d) in picks.iter().enumerate() {
                        let entry = &m.distinct[d].0;
                        let key = span_if(timed, &mut acc.key_s, || keyer.cache_key(&entry.spec));
                        let (run, outcome) = match span_if(timed, &mut acc.lookup_s, || {
                            cache.lookup(key)
                        }) {
                            Some(run) => (run, RunOutcome::CacheHit),
                            None => {
                                let mut owner = false;
                                let w = Instant::now();
                                let run = slots[d].get_or_init(|| {
                                    owner = true;
                                    let mut sim = 0.0;
                                    let (run, stats) =
                                        span_if(timed, &mut sim, || simulate(cluster, &entry.spec));
                                    check::check_entry(&mut local, &reference, entry, &run);
                                    acc.sim_s += sim;
                                    acc.des_events += stats.events_processed as f64;
                                    acc.stack_high_water = acc
                                        .stack_high_water
                                        .max(stats.stack_high_water_bytes as f64);
                                    let run = Arc::new(run);
                                    let mut ins = 0.0;
                                    span_if(timed, &mut ins, || {
                                        cache.insert(key, Arc::clone(&run))
                                    });
                                    acc.insert_s += ins;
                                    let e = acc.by_nodes.entry(entry.spec.nodes).or_default();
                                    e.0 += sim;
                                    e.1 += ins;
                                    run
                                });
                                if owner {
                                    (Arc::clone(run), RunOutcome::Executed)
                                } else {
                                    waited_s += w.elapsed().as_secs_f64();
                                    (Arc::clone(run), RunOutcome::InflightJoin)
                                }
                            }
                        };
                        match outcome {
                            RunOutcome::Executed => executed += 1,
                            RunOutcome::CacheHit => hits += 1,
                            RunOutcome::InflightJoin => joins += 1,
                        }
                        if let Some(id) = &id {
                            span_if(timed, &mut acc.encode_s, || {
                                let v = proto::result_value(&entry.spec, key, &run);
                                black_box(proto::result_line(id, seq, outcome, &v))
                            });
                        }
                    }
                    if let Some(id) = &id {
                        span_if(timed, &mut acc.encode_s, || {
                            black_box(proto::done_line(
                                id,
                                Lane::Interactive,
                                picks.len(),
                                executed,
                                hits,
                                joins,
                            ))
                        });
                    }
                }
                acc.busy_s = started.elapsed().as_secs_f64() - waited_s;
                total.lock().expect("replica total").add(&acc);
                shared_tally.lock().expect("replica tally").add(local);
            });
        }
    });
    let mut r = total.into_inner().expect("replica total");
    r.wall_s = t.elapsed().as_secs_f64();
    tally.add(shared_tally.into_inner().expect("replica tally"));
    let _ = std::fs::remove_dir_all(dir);
    r
}

/// Per-call host time of `f` over `items`, as the median over repeated
/// batches (one batch = every item once), seconds.
fn per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < 5 || (t0.elapsed().as_secs_f64() < 0.2 && samples.len() < 1000) {
        let t = Instant::now();
        items.iter().for_each(&mut f);
        samples.push(t.elapsed().as_secs_f64() / items.len().max(1) as f64);
    }
    median(&samples)
}

/// Median of three timings of `f`, seconds.
fn median3(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let mut t = 0.0;
            span(&mut t, &mut f);
            t
        })
        .collect();
    median(&times)
}

/// Layer costs priced call by call on the workload's own results.
#[derive(Debug, Default)]
pub struct Pricing {
    pub serialize_s: f64,
    pub serialize_mb: f64,
    pub deserialize_s: f64,
    pub disk_write_s: f64,
    pub disk_read_s: f64,
    pub mem_hit_us: f64,
    pub cache_key_us: f64,
    pub wattmeter_ms: f64,
    pub parse_us: f64,
    pub encode_us: f64,
    pub sim_1node_s: f64,
    pub p2p_roundtrip_us: f64,
    pub compute_call_ns: f64,
    pub allreduce_us: f64,
    /// Median ms per outcome: executed, cache hit, in-flight join.
    pub reply_ms: [f64; 3],
}

/// Price each layer on the workload's distinct results.
pub fn price(cluster: &Cluster, m: &Measured, dir: &Path, tally: &mut Tally) -> Pricing {
    let mut p = Pricing::default();
    let keyer = Engine::serial(cluster.clone());
    let keys: Vec<u64> = m.distinct.iter().map(|(e, _)| keyer.cache_key(&e.spec)).collect();

    // Runner: serialization and the disk layer.
    let mut texts = Vec::with_capacity(m.distinct.len());
    for (_, run) in &m.distinct {
        let text = span(&mut p.serialize_s, || serde::json::to_string(&**run));
        p.serialize_mb += text.len() as f64 / (1024.0 * 1024.0);
        texts.push(text);
    }
    for ((entry, run), text) in m.distinct.iter().zip(&texts) {
        let back: RunResult = span(&mut p.deserialize_s, || serde::json::from_str(text))
            .expect("a serialized result parses back");
        tally.check(back == **run, || {
            format!("{}: JSON round trip changed the result", entry.label)
        });
    }
    drop(texts);
    let _ = std::fs::remove_dir_all(dir);
    let writer = RunCache::with_disk(dir);
    for (key, (_, run)) in keys.iter().zip(&m.distinct) {
        span(&mut p.disk_write_s, || writer.insert(*key, Arc::clone(run)));
    }
    drop(writer);
    let reader = RunCache::with_disk(dir);
    for (key, (entry, run)) in keys.iter().zip(&m.distinct) {
        let got = span(&mut p.disk_read_s, || reader.lookup(*key));
        tally.check(got.is_some_and(|g| *g == **run), || {
            format!("{}: disk read differs", entry.label)
        });
    }
    p.mem_hit_us = per_call(&keys, |k| {
        black_box(reader.lookup(*k));
    }) * 1e6;
    drop(reader);
    let _ = std::fs::remove_dir_all(dir);
    p.cache_key_us = per_call(&m.distinct, |(e, _)| {
        black_box(keyer.cache_key(&e.spec));
    }) * 1e6;

    // Machine: the sampling wattmeter over every rank's power trace.
    for (_, run) in &m.distinct {
        for r in &run.ranks {
            span(&mut p.wattmeter_ms, || black_box(cluster.wattmeter.measure_energy_j(&r.power)));
        }
    }
    p.wattmeter_ms *= 1e3;

    // Serve: protocol parsing and reply encoding.
    let limits = ProtoLimits { gear_count: keyer.gear_count(), max_batch: 64 };
    p.parse_us = per_call(&m.frames, |line| {
        black_box(proto::parse_request(line, limits).is_ok());
    }) * 1e6;
    let replies: Vec<_> = m.distinct.iter().zip(&keys).collect();
    p.encode_us = per_call(&replies, |((e, run), key)| {
        let v = proto::result_value(&e.spec, **key, run);
        black_box(proto::result_line("r", 0, RunOutcome::Executed, &v));
        black_box(proto::done_line("r", Lane::Interactive, 1, 1, 0, 0));
    }) * 1e6;

    // Kernels: every distinct (kernel, class) alone on one node, gear 1.
    let mut solo: Vec<(psc_kernels::Benchmark, ProblemClass)> =
        m.distinct.iter().map(|(e, _)| (e.spec.bench, e.spec.class)).collect();
    solo.sort_by_key(|(b, c)| (b.name(), *c == ProblemClass::B));
    solo.dedup();
    for (b, c) in solo {
        span(&mut p.sim_1node_s, || black_box(simulate(cluster, &RunSpec::uniform(b, c, 1, 1))));
    }

    // MPI: microprograms through `Cluster::run`.
    const ROUNDTRIPS: usize = 20_000;
    p.p2p_roundtrip_us = median3(|| {
        cluster.run(&ClusterConfig::uniform(2, 1), |comm| {
            for _ in 0..ROUNDTRIPS {
                if comm.rank() == 0 {
                    comm.send(1, 0, 1.0f64);
                    black_box(comm.recv::<f64>(1, 0));
                } else {
                    let x: f64 = comm.recv(0, 0);
                    comm.send(0, 0, x);
                }
            }
        });
    }) / ROUNDTRIPS as f64
        * 1e6;
    const COMPUTES: usize = 200_000;
    let block = WorkBlock::with_upm(1.0e3, 70.0);
    p.compute_call_ns = median3(|| {
        cluster.run(&ClusterConfig::uniform(1, 1), |comm| {
            for _ in 0..COMPUTES {
                comm.compute(&block);
            }
        });
    }) / COMPUTES as f64
        * 1e9;
    const ALLREDUCES: usize = 5_000;
    p.allreduce_us = median3(|| {
        cluster.run(&ClusterConfig::uniform(4, 1), |comm| {
            for _ in 0..ALLREDUCES {
                black_box(comm.allreduce_scalar(1.0, ReduceOp::Sum));
            }
        });
    }) / ALLREDUCES as f64
        * 1e6;

    p.reply_ms = match m.reply_ms {
        Some(r) => r,
        None => outcome_probe(cluster, m),
    };
    p
}

/// The sweeps have no client: price the engine's three outcomes with
/// two callers asking `Engine::run_traced` for the same spec at once
/// (one simulates, one joins), then a third call (a memory hit), on
/// four distinct specs spread over the workload.
fn outcome_probe(cluster: &Cluster, m: &Measured) -> [f64; 3] {
    let e = Engine::new(cluster.clone()).with_jobs(JOBS).with_cache(RunCache::in_memory());
    let mut labels: Vec<&crate::gen::Entry> = m.distinct.iter().map(|(e, _)| e).collect();
    labels.sort_by(|a, b| a.label.cmp(&b.label));
    let picks: Vec<&crate::gen::Entry> = (0..4).map(|k| labels[k * labels.len() / 4]).collect();
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for entry in picks {
        let barrier = Barrier::new(2);
        let both: Vec<(RunOutcome, f64)> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let t = Instant::now();
                        let (_, o) = e.run_traced(&entry.spec);
                        (o, t.elapsed().as_secs_f64())
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().expect("probe caller")).collect()
        });
        let t = Instant::now();
        let (_, o) = e.run_traced(&entry.spec);
        for (o, secs) in both.into_iter().chain([(o, t.elapsed().as_secs_f64())]) {
            by.entry(o.label()).or_default().push(secs * 1e3);
        }
    }
    let med = |k: &str| by.get(k).map_or(0.0, |v| median(v));
    [med("executed"), med("cache_hit"), med("inflight_join")]
}
