//! The job server: sessions parse JSONL frames into jobs, a bounded
//! two-lane queue feeds a worker pool, and every worker funnels through
//! one shared [`Engine`] — whose content-addressed cache and in-flight
//! table provide all cross-client dedup. The server never touches the
//! simulator directly; if two clients ask for the same uncached spec
//! concurrently, the engine runs it once and both answers are carved
//! from the same result.
//!
//! Concurrency shape:
//!
//! * one session thread per client connection (or the caller's thread
//!   for stdio), which *blocks* on [`crate::queue::JobQueue::push`]
//!   when its lane is full — backpressure reaches the client as an
//!   unread socket;
//! * `workers` pool threads popping jobs (interactive lane first) and
//!   writing replies straight to the owning client's writer;
//! * replies to one client interleave across its in-flight requests;
//!   `seq` and `id` let the client reassemble. The `done` line for a
//!   request is written strictly after all of its spec replies.
//!
//! A disconnected client is a *clean cancellation*: its queued jobs
//! still execute (they may be joined by other clients), and writes to
//! the dead connection are ignored.

use crate::proto::{self, Command, Lane, ProtoLimits};
use crate::queue::JobQueue;
use psc_metrics::Stopwatch;
use psc_runner::{Engine, RunCache, RunOutcome};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Tunables for a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker pool size (simulations in flight), at least 1.
    pub workers: usize,
    /// Bounded queue capacity *per lane*; a full lane blocks producers.
    pub queue_capacity: usize,
    /// Maximum specs per `run` frame.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 4, queue_capacity: 64, max_batch: 1024 }
    }
}

/// How a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client sent `shutdown`; the whole server should wind down.
    Shutdown,
    /// The client reached EOF or the connection dropped.
    Disconnected,
}

/// A client's reply channel: one writer shared by every worker that
/// holds one of the client's jobs. Write failures (disconnects) are
/// deliberately swallowed — the work itself is still useful (it warms
/// the cache for everyone else).
struct ClientWriter {
    sink: Mutex<Box<dyn Write + Send>>,
}

impl ClientWriter {
    fn send(&self, line: &str) {
        let mut w = self.sink.lock().expect("writer lock");
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

/// Per-request bookkeeping shared by the request's jobs.
struct RequestState {
    id: String,
    lane: Lane,
    specs: usize,
    remaining: AtomicUsize,
    executed: AtomicU64,
    cache_hits: AtomicU64,
    inflight_joins: AtomicU64,
    writer: Arc<ClientWriter>,
    sw: Stopwatch,
}

struct Job {
    request: Arc<RequestState>,
    seq: usize,
    spec: psc_runner::RunSpec,
    enqueued: Stopwatch,
}

struct ServerInner {
    engine: Arc<Engine>,
    config: ServerConfig,
    queue: JobQueue<Job>,
    shutdown: AtomicBool,
}

/// The longest frame a session accepts, newline excluded. A
/// longer frame is skipped up to its newline without being buffered and
/// answered with one error reply, so no client can grow the server's
/// memory by sending one huge line.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// The long-running job server. See the module docs for the shape.
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Spawn the worker pool over a shared engine.
    pub fn new(engine: Arc<Engine>, config: ServerConfig) -> Self {
        let inner = Arc::new(ServerInner {
            engine,
            config,
            queue: JobQueue::new(config.queue_capacity.max(1)),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Server { inner, workers: Mutex::new(workers) }
    }

    /// The engine every job funnels through.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.inner.engine
    }

    /// Run one session over arbitrary byte streams (stdin/stdout, a
    /// TCP socket, or an in-memory pipe in tests). Returns how the
    /// session ended; accepted jobs may still be executing — call
    /// [`Server::drain`] to wait for them.
    pub fn session<R: BufRead>(&self, mut reader: R, writer: Box<dyn Write + Send>) -> SessionEnd {
        let writer = Arc::new(ClientWriter { sink: Mutex::new(writer) });
        let limits = ProtoLimits {
            gear_count: self.inner.engine.gear_count(),
            max_batch: self.inner.config.max_batch,
        };
        let registry = self.inner.engine.metrics().registry();
        let reject = |id: Option<&str>, message: &str| {
            registry
                .counter(
                    "serve_errors_total",
                    "Rejected protocol frames (the session survives each one).",
                    &[],
                )
                .inc();
            writer.send(&proto::error_line(id, message));
        };

        let mut frame = Vec::new();
        loop {
            frame.clear();
            let cap = MAX_FRAME_BYTES as u64 + 1; // the frame plus its newline
            match reader.by_ref().take(cap).read_until(b'\n', &mut frame) {
                Ok(0) | Err(_) => return SessionEnd::Disconnected,
                Ok(_) => {}
            }
            if frame.len() > MAX_FRAME_BYTES && frame.last() != Some(&b'\n') {
                if reader.skip_until(b'\n').is_err() {
                    return SessionEnd::Disconnected;
                }
                reject(None, &format!("frame exceeds {MAX_FRAME_BYTES} bytes"));
                continue;
            }
            let Ok(line) = std::str::from_utf8(&frame) else {
                reject(None, "frame is not valid UTF-8");
                continue;
            };
            if line.trim().is_empty() {
                continue; // blank keep-alives are not frames
            }
            let request = match proto::parse_request(line, limits) {
                Ok(r) => r,
                Err(e) => {
                    reject(e.id.as_deref(), &e.message);
                    continue; // a bad frame never poisons the loop
                }
            };
            match request.cmd {
                Command::Ping => writer.send(&proto::pong_line(&request.id)),
                Command::Stats => writer.send(&proto::stats_line(&request.id, self.stats_value())),
                Command::Shutdown => {
                    self.inner.shutdown.store(true, Ordering::SeqCst);
                    writer.send(&proto::bye_line(&request.id));
                    return SessionEnd::Shutdown;
                }
                Command::Run { lane, specs } => {
                    registry
                        .counter(
                            "serve_requests_total",
                            "Accepted run requests per lane.",
                            &[("lane", lane.label())],
                        )
                        .inc();
                    registry
                        .counter(
                            "serve_specs_total",
                            "Specs accepted for scheduling per lane.",
                            &[("lane", lane.label())],
                        )
                        .add(specs.len() as u64);
                    let state = Arc::new(RequestState {
                        id: request.id,
                        lane,
                        specs: specs.len(),
                        remaining: AtomicUsize::new(specs.len()),
                        executed: AtomicU64::new(0),
                        cache_hits: AtomicU64::new(0),
                        inflight_joins: AtomicU64::new(0),
                        writer: Arc::clone(&writer),
                        sw: Stopwatch::start(),
                    });
                    for (seq, spec) in specs.into_iter().enumerate() {
                        let job = Job {
                            request: Arc::clone(&state),
                            seq,
                            spec,
                            enqueued: Stopwatch::start(),
                        };
                        if self.inner.queue.push(lane, job).is_err() {
                            writer.send(&proto::error_line(
                                Some(&state.id),
                                "server is shutting down",
                            ));
                            return SessionEnd::Shutdown;
                        }
                    }
                }
            }
        }
    }

    /// Serve stdio: one session over the given streams, then drain.
    pub fn run_stdio<R: BufRead>(&self, reader: R, writer: Box<dyn Write + Send>) -> SessionEnd {
        let end = self.session(reader, writer);
        self.drain();
        end
    }

    /// Accept TCP connections (one session thread each) until a client
    /// sends `shutdown`, then drain. The bound address is the caller's
    /// business (print it before calling).
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        let addr = listener.local_addr()?;
        std::thread::scope(|scope| {
            for conn in listener.incoming() {
                if self.inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let Ok(read_half) = stream.try_clone() else { continue };
                scope.spawn(move || {
                    let end = self.session(BufReader::new(read_half), Box::new(stream));
                    if end == SessionEnd::Shutdown {
                        // Unblock the accept loop so it observes the flag.
                        let _ = std::net::TcpStream::connect(addr);
                    }
                });
            }
        });
        self.drain();
        Ok(())
    }

    /// Close the queue, finish every accepted job, and join the pool.
    /// Idempotent; the server accepts no work afterwards.
    pub fn drain(&self) {
        self.inner.queue.close();
        for handle in self.workers.lock().expect("workers lock").drain(..) {
            let _ = handle.join();
        }
    }

    /// The cumulative service stats object used by the `stats` command
    /// (and by `powerscale stats` via the registry): per-lane request /
    /// spec / outcome counters plus process-wide cache counters. All of
    /// it survives [`Engine::reset_cache_stats`], which only clears the
    /// engine-instance window.
    pub fn stats_value(&self) -> Value {
        let snap = self.inner.engine.metrics().snapshot();
        let counter = |name: &str, labels: &[(&str, &str)]| -> Value {
            Value::U64(snap.get(name, labels).map_or(0, |s| s.scalar() as u64))
        };
        let lane_stats = |lane: Lane| -> Value {
            let l = lane.label();
            Value::Map(vec![
                ("requests".into(), counter("serve_requests_total", &[("lane", l)])),
                ("specs".into(), counter("serve_specs_total", &[("lane", l)])),
                (
                    "executed".into(),
                    counter("serve_results_total", &[("lane", l), ("outcome", "executed")]),
                ),
                (
                    "cache_hits".into(),
                    counter("serve_results_total", &[("lane", l), ("outcome", "cache_hit")]),
                ),
                (
                    "inflight_joins".into(),
                    counter("serve_results_total", &[("lane", l), ("outcome", "inflight_join")]),
                ),
                ("queue_depth".into(), Value::U64(self.inner.queue.depth(lane) as u64)),
            ])
        };
        let process = RunCache::process_stats();
        Value::Map(vec![
            (
                "lanes".into(),
                Value::Map(vec![
                    ("interactive".into(), lane_stats(Lane::Interactive)),
                    ("batch".into(), lane_stats(Lane::Batch)),
                ]),
            ),
            (
                "process_cache".into(),
                Value::Map(vec![
                    ("hits".into(), Value::U64(process.hits)),
                    ("misses".into(), Value::U64(process.misses)),
                    ("disk_hits".into(), Value::U64(process.disk_hits)),
                    ("shared_hits".into(), Value::U64(process.shared_hits)),
                    ("inflight_joins".into(), Value::U64(process.inflight_joins)),
                    ("disk_corrupt".into(), Value::U64(process.disk_corrupt)),
                ]),
            ),
            ("errors".into(), counter("serve_errors_total", &[])),
            ("runs_simulated".into(), counter("engine_runs_simulated", &[])),
        ])
    }
}

fn worker_loop(inner: &ServerInner) {
    let registry = inner.engine.metrics().registry();
    while let Some((lane, job)) = inner.queue.pop() {
        registry
            .time_histogram(
                "serve_queue_wait_seconds",
                "Host seconds a job waited in its lane before a worker picked it up.",
                &[("lane", lane.label())],
            )
            .observe(job.enqueued.elapsed_s());

        let key = inner.engine.cache_key(&job.spec);
        let (run, outcome) = inner.engine.run_traced(&job.spec);
        registry
            .counter(
                "serve_results_total",
                "Per-spec replies by lane and dedup outcome.",
                &[("lane", lane.label()), ("outcome", outcome.label())],
            )
            .inc();

        let state = &job.request;
        match outcome {
            RunOutcome::Executed => state.executed.fetch_add(1, Ordering::Relaxed),
            RunOutcome::CacheHit => state.cache_hits.fetch_add(1, Ordering::Relaxed),
            RunOutcome::InflightJoin => state.inflight_joins.fetch_add(1, Ordering::Relaxed),
        };
        let result = proto::result_value(&job.spec, key, &run);
        state.writer.send(&proto::result_line(&state.id, job.seq, outcome, &result));

        if state.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            state.writer.send(&proto::done_line(
                &state.id,
                state.lane,
                state.specs,
                state.executed.load(Ordering::Relaxed),
                state.cache_hits.load(Ordering::Relaxed),
                state.inflight_joins.load(Ordering::Relaxed),
            ));
            registry
                .time_histogram(
                    "serve_request_seconds",
                    "Host seconds from request acceptance to its done line.",
                    &[("lane", state.lane.label())],
                )
                .observe(state.sw.elapsed_s());
        }
    }
}
