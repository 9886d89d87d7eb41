//! The `serve_zipf` workload: two closed-loop clients over TCP loopback
//! against `Server::serve_tcp`, rounds of a cold stream followed by the
//! same stream against the now-warm server.

use crate::check::{self, Tally};
use crate::gen::{self, Entry, Frame};
use crate::{CacheKind, Measured, JOBS};
use psc_mpi::Cluster;
use psc_runner::{Engine, RunCache, RunPlan};
use psc_serve::proto;
use psc_serve::{Server, ServerConfig};
use serde::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Rounds that replay their stream against the warm server; the warm
/// replay is timer-bound and repeats within 1%, so later rounds skip it
/// and spend the run on cold rounds.
const WARM_ROUNDS: usize = 2;

/// A reply that takes longer than this fails the run instead of hanging.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// What a client saw for one frame: the `done` latency and every reply
/// line with its arrival time, both from the moment the frame was sent.
struct FrameLog {
    latency_s: f64,
    lines: Vec<(f64, String)>,
}

/// One client's view of a round: its cold and warm streams and when
/// each began and ended.
struct ClientLog {
    cold: Vec<FrameLog>,
    warm: Vec<FrameLog>,
    cold_span: (Instant, Instant),
    warm_span: (Instant, Instant),
}

/// Send each frame, then read until its `done` (or an error) line. After
/// a closed or timed-out connection the rest of the stream is not sent;
/// the checker counts those frames failed.
fn stream(
    conn: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    frames: &[Frame],
) -> Vec<FrameLog> {
    let mut out = Vec::with_capacity(frames.len());
    let mut alive = true;
    for f in frames {
        let t = Instant::now();
        let mut lines = Vec::new();
        alive = alive && conn.write_all(format!("{}\n", f.line).as_bytes()).is_ok();
        while alive {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    let end = line.contains(r#""done":true"#) || line.contains(r#""ok":false"#);
                    lines.push((t.elapsed().as_secs_f64(), line));
                    if end {
                        break;
                    }
                }
                _ => alive = false,
            }
        }
        out.push(FrameLog { latency_s: t.elapsed().as_secs_f64(), lines });
    }
    out
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let conn = TcpStream::connect(addr).expect("connect to the loopback server");
    conn.set_nodelay(true).expect("set TCP_NODELAY");
    conn.set_read_timeout(Some(READ_TIMEOUT)).expect("set read timeout");
    let reader = BufReader::new(conn.try_clone().expect("clone client socket"));
    (conn, reader)
}

/// Write the pre-warm entries into a fresh disk cache at `dir`.
pub fn prewarm(cluster: &Cluster, dir: &Path, entries: &[Entry]) {
    let _ = std::fs::remove_dir_all(dir);
    let e = Engine::new(cluster.clone()).with_jobs(JOBS).with_cache(RunCache::with_disk(dir));
    let plan: RunPlan = entries.iter().map(|x| x.spec.clone()).collect();
    e.execute(&plan);
}

struct Round {
    setup_s: f64,
    clients: Vec<ClientLog>,
    disk_mb: f64,
}

fn round(
    cluster: &Cluster,
    streams: &[Vec<Frame>],
    prewarm_set: &[Entry],
    dir: &Path,
    warm_replay: bool,
) -> Round {
    let t0 = Instant::now();
    crate::sweep::warm_up(cluster);
    prewarm(cluster, dir, prewarm_set);
    let engine = Engine::new(cluster.clone()).with_jobs(JOBS).with_cache(RunCache::with_disk(dir));
    let server = Server::new(
        std::sync::Arc::new(engine),
        ServerConfig { workers: JOBS, queue_capacity: 64, max_batch: gen::SERVE_BATCH },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    std::thread::scope(|s| {
        let srv = s.spawn(|| server.serve_tcp(listener));
        let mut conns: Vec<_> = streams.iter().map(|_| connect(addr)).collect();
        let setup_s = t0.elapsed().as_secs_f64();

        let start = Barrier::new(streams.len());
        let disk_mb = std::sync::Mutex::new(0.0);
        let between = Barrier::new(streams.len());
        let clients: Vec<ClientLog> = std::thread::scope(|cs| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(streams)
                .map(|((conn, reader), frames)| {
                    let (start, between, disk_mb) = (&start, &between, &disk_mb);
                    cs.spawn(move || {
                        start.wait();
                        let c0 = Instant::now();
                        let cold = stream(conn, reader, frames);
                        let c1 = Instant::now();
                        if between.wait().is_leader() {
                            *disk_mb.lock().expect("disk size lock") = crate::stats::dir_mb(dir);
                        }
                        between.wait();
                        let w0 = Instant::now();
                        let warm =
                            if warm_replay { stream(conn, reader, frames) } else { Vec::new() };
                        let w1 = Instant::now();
                        ClientLog { cold, warm, cold_span: (c0, c1), warm_span: (w0, w1) }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        drop(conns);

        // Stop the server: the shutdown reply arrives before it drains.
        let (mut conn, mut reader) = connect(addr);
        let _ = conn.write_all(b"{\"id\":\"stop\",\"cmd\":\"shutdown\"}\n");
        let mut bye = String::new();
        let _ = reader.read_line(&mut bye);
        drop((conn, reader));
        srv.join().expect("server thread").expect("serve_tcp");
        let disk_mb = *disk_mb.lock().expect("disk size lock");
        Round { setup_s, clients, disk_mb }
    })
}

fn span_s(spans: impl Iterator<Item = (Instant, Instant)>) -> f64 {
    let spans: Vec<_> = spans.collect();
    let start = spans.iter().map(|s| s.0).min().expect("at least one client");
    let end = spans.iter().map(|s| s.1).max().expect("at least one client");
    (end - start).as_secs_f64()
}

/// Check one frame's reply lines against the serial reference bytes.
/// Returns the outcome and arrival time of every reply when it passed.
fn check_frame(
    frame: &Frame,
    log: &FrameLog,
    expected: &BTreeMap<usize, String>,
) -> Result<Vec<(String, f64)>, String> {
    let mut seen = vec![false; frame.picks.len()];
    let mut done = false;
    let mut replies = Vec::new();
    for (at, line) in &log.lines {
        let v = serde::json::parse(line).map_err(|e| format!("unparseable reply {e}"))?;
        if v.get("ok") != Some(&Value::Bool(true))
            || v.get("id").and_then(Value::as_str) != Some(&frame.id)
        {
            return Err(format!("bad reply {}", line.trim()));
        }
        if v.get("done").is_some() {
            let manifest = v.get("manifest");
            let count =
                |k: &str| manifest.and_then(|m| m.get(k)).and_then(Value::as_u64).unwrap_or(0);
            let total = count("executed") + count("cache_hits") + count("inflight_joins");
            if count("specs") != frame.picks.len() as u64 || total != count("specs") {
                return Err(format!("inconsistent manifest {}", line.trim()));
            }
            done = true;
            continue;
        }
        let seq = v.get("seq").and_then(Value::as_u64).map(|s| s as usize);
        let Some(seq) = seq.filter(|&s| s < seen.len() && !seen[s]) else {
            return Err(format!("bad or repeated seq {}", line.trim()));
        };
        seen[seq] = true;
        let got = v.get("result").map(serde::json::to_string).unwrap_or_default();
        if got != expected[&frame.picks[seq]] {
            return Err(format!("result differs from direct execution: {}", line.trim()));
        }
        let outcome = v.get("outcome").and_then(Value::as_str).unwrap_or("").to_owned();
        if !["executed", "cache_hit", "inflight_join"].contains(&outcome.as_str()) {
            return Err(format!("unknown outcome {outcome:?}"));
        }
        replies.push((outcome, *at));
    }
    if !done || !seen.iter().all(|&s| s) {
        return Err("missing replies or done line".to_owned());
    }
    Ok(replies)
}

/// Frames in arrival order: the clients' streams interleaved.
fn interleave(streams: &[Vec<Frame>]) -> Vec<&Frame> {
    (0..gen::SERVE_FRAMES).flat_map(|f| streams.iter().map(move |s| &s[f])).collect()
}

/// Run `serve_zipf` for `seconds`: rounds of fresh streams, each on a
/// fresh server over a freshly pre-warmed disk cache.
pub fn run(seed: u64, seconds: f64, cluster: &Cluster, work_dir: &Path) -> Measured {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let universe = gen::serve_universe(&cluster.node);
    let prewarm_set: Vec<Entry> = gen::SERVE_PREWARM.iter().map(|&i| universe[i].clone()).collect();
    let dir = work_dir.join("serve_zipf");

    let mut m = Measured::default();
    let mut rounds = Vec::new();
    let mut disk_mb = Vec::new();
    loop {
        let streams = gen::serve_streams(seed, rounds.len() as u64, &universe);
        let warm_replay = rounds.len() < WARM_ROUNDS;
        crate::stats::reset_peak_rss();
        let r = round(cluster, &streams, &prewarm_set, &dir, warm_replay);
        m.peak_rss_mb.push(crate::stats::peak_rss_mb());
        m.setup_s.push(r.setup_s);
        let cold_wall = span_s(r.clients.iter().map(|c| c.cold_span));
        m.wall_s.push(cold_wall);
        if warm_replay {
            m.warm_wall_s.push(span_s(r.clients.iter().map(|c| c.warm_span)));
        }
        let specs: usize = streams.iter().flatten().map(|f| f.picks.len()).sum();
        m.specs_per_s.push(specs as f64 / cold_wall);
        let latency: Vec<f64> =
            r.clients.iter().flat_map(|c| c.cold.iter().map(|f| f.latency_s)).collect();
        crate::stats::push_latency(&mut m, &latency);
        disk_mb.push(r.disk_mb);
        rounds.push((streams, r));
        if Instant::now() >= deadline && rounds.len() >= WARM_ROUNDS {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    m.cache_disk_mb = crate::stats::median(&disk_mb);

    // Serial reference: a direct `Engine::run` of every requested entry,
    // its digest checked against the committed reference.
    let reference = check::reference();
    let serial = Engine::serial(cluster.clone());
    let mut tally = Tally::default();
    let mut direct = BTreeMap::new();
    let mut expected = BTreeMap::new();
    for (streams, _) in &rounds {
        for &p in interleave(streams).iter().flat_map(|f| &f.picks) {
            if direct.contains_key(&p) {
                continue;
            }
            let spec = &universe[p].spec;
            let run = serial.run(spec);
            check::check_entry(&mut tally, &reference, &universe[p], &run);
            expected.insert(
                p,
                serde::json::to_string(&proto::result_value(spec, serial.cache_key(spec), &run)),
            );
            direct.insert(p, run);
        }
    }

    // Every reply of every round, cold and warm.
    let mut by_outcome: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut cold_replies = 0usize;
    for (streams, r) in &rounds {
        for (client, frames) in r.clients.iter().zip(streams) {
            for (phase, logs) in [("cold", &client.cold), ("warm", &client.warm)] {
                for (frame, log) in frames.iter().zip(logs) {
                    match check_frame(frame, log, &expected) {
                        Ok(replies) => {
                            tally.check(true, String::new);
                            if phase == "cold" {
                                cold_replies += replies.len();
                                for (outcome, at) in replies {
                                    by_outcome.entry(outcome).or_default().push(at);
                                }
                            }
                        }
                        Err(e) => tally.check(false, || format!("{phase} frame {}: {e}", frame.id)),
                    }
                }
            }
        }
    }
    let rounds_n = rounds.len() as f64;
    let count = |k: &str| by_outcome.get(k).map_or(0, Vec::len) as f64;
    m.outcomes = [
        count("executed") / rounds_n,
        count("cache_hit") / rounds_n,
        count("inflight_join") / rounds_n,
    ];
    m.dedup_rate = 1.0 - count("executed") / cold_replies.max(1) as f64;
    let reply_ms = |k: &str| by_outcome.get(k).map_or(0.0, |v| crate::stats::median(v) * 1e3);
    m.reply_ms = Some([reply_ms("executed"), reply_ms("cache_hit"), reply_ms("inflight_join")]);

    // The traced replica replays the first round: its distinct entries
    // in first-request order, and its frames in arrival order.
    let order = interleave(&rounds[0].0);
    let mut index: BTreeMap<usize, usize> = BTreeMap::new();
    for &p in order.iter().flat_map(|f| &f.picks) {
        if let std::collections::btree_map::Entry::Vacant(slot) = index.entry(p) {
            slot.insert(m.distinct.len());
            m.distinct.push((universe[p].clone(), std::sync::Arc::clone(&direct[&p])));
        }
    }
    let entries: Vec<Entry> = m.distinct.iter().map(|d| d.0.clone()).collect();
    m.repeat_frac = crate::sweep::repeat_frac(&entries);
    m.replica = order
        .iter()
        .map(|f| (Some(f.line.clone()), f.picks.iter().map(|p| index[p]).collect()))
        .collect();
    m.frames = order.iter().map(|f| f.line.clone()).collect();
    m.cache = CacheKind::Disk(prewarm_set);
    m.tally = tally;
    m
}
