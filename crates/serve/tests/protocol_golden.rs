//! Golden tests for the JSONL wire protocol: exact reply bytes for
//! every rejection path, and loop-survival for the ugly cases —
//! malformed frames, unknown fields, oversized batches, mid-stream
//! disconnects, and dead client writers. A bad frame (or a bad client)
//! must never poison the session loop or the server.

use psc_mpi::Cluster;
use psc_runner::{Engine, RunCache};
use psc_serve::{Server, ServerConfig, SessionEnd, MAX_FRAME_BYTES};
use std::io::{BufReader, Cursor, Read, Write};
use std::sync::{Arc, Mutex};

fn server(config: ServerConfig) -> Server {
    let engine =
        Arc::new(Engine::serial(Cluster::athlon_fast_ethernet()).with_cache(RunCache::in_memory()));
    Server::new(engine, config)
}

/// A capture buffer standing in for the client's socket.
#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Capture {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Feed frames through one session and return the reply lines.
fn exchange(server: &Server, input: &str) -> Vec<String> {
    let out = Capture::default();
    server.session(Cursor::new(input.as_bytes()), Box::new(out.clone()));
    server.drain();
    out.text().lines().map(str::to_owned).collect()
}

#[test]
fn rejection_replies_are_exact_bytes() {
    let srv = server(ServerConfig { max_batch: 2, ..ServerConfig::default() });
    let input = concat!(
        "{not json\n",
        "[1,2]\n",
        "{\"cmd\":\"ping\"}\n",
        "{\"id\":\"a\",\"cmd\":\"ping\",\"extra\":true}\n",
        "{\"id\":\"b\",\"cmd\":\"fly\"}\n",
        "{\"id\":\"c\",\"cmd\":\"run\",\"specs\":[{\"bench\":\"EP\"},{\"bench\":\"EP\"},{\"bench\":\"EP\"}]}\n",
        "{\"id\":\"d\",\"cmd\":\"run\",\"specs\":[{\"bench\":\"EP\",\"nodes\":3}]}\n",
        "{\"id\":\"e\",\"cmd\":\"ping\"}\n",
    );
    let lines = exchange(&srv, input);
    assert_eq!(
        lines,
        vec![
            "{\"id\":null,\"ok\":false,\"error\":\"malformed frame: serde error: expected `\\\"` at byte 1\"}"
                .to_owned(),
            "{\"id\":null,\"ok\":false,\"error\":\"frame must be an object, got sequence\"}".to_owned(),
            "{\"id\":null,\"ok\":false,\"error\":\"missing required field \\\"id\\\"\"}".to_owned(),
            "{\"id\":\"a\",\"ok\":false,\"error\":\"unknown field \\\"extra\\\" in request (allowed: id, cmd, lane, specs)\"}".to_owned(),
            "{\"id\":\"b\",\"ok\":false,\"error\":\"unknown cmd \\\"fly\\\" (run, stats, ping, shutdown)\"}".to_owned(),
            "{\"id\":\"c\",\"ok\":false,\"error\":\"oversized batch: 3 specs exceeds the limit of 2\"}".to_owned(),
            "{\"id\":\"d\",\"ok\":false,\"error\":\"specs[0]: EP does not support 3 node(s)\"}".to_owned(),
            // The session survived every rejection and still answers.
            "{\"id\":\"e\",\"ok\":true,\"pong\":true}".to_owned(),
        ]
    );
}

#[test]
fn run_and_shutdown_replies_are_stable() {
    let srv = server(ServerConfig { workers: 1, ..ServerConfig::default() });
    // The run reply's floats come from the deterministic simulator, so
    // the whole exchange is reproducible; snapshot it against the
    // shared encoder fed by a direct engine execution.
    let engine = Arc::clone(srv.engine());
    let spec = psc_runner::RunSpec::uniform(
        psc_kernels::Benchmark::Ep,
        psc_kernels::ProblemClass::Test,
        2,
        3,
    );
    let reference =
        Engine::serial(Cluster::athlon_fast_ethernet()).with_cache(RunCache::in_memory());
    let expected_result =
        psc_serve::proto::result_value(&spec, engine.cache_key(&spec), &reference.run(&spec));

    let input = concat!(
        "{\"id\":\"r1\",\"cmd\":\"run\",\"lane\":\"interactive\",\"specs\":[{\"bench\":\"EP\",\"nodes\":2,\"gears\":3}]}\n",
        "{\"id\":\"q\",\"cmd\":\"shutdown\"}\n",
    );
    let out = Capture::default();
    let end = srv.session(Cursor::new(input.as_bytes()), Box::new(out.clone()));
    assert_eq!(end, SessionEnd::Shutdown);
    srv.drain();
    let lines: Vec<String> = out.text().lines().map(str::to_owned).collect();

    // Replies to in-flight work interleave with the shutdown ack, so
    // compare as sets of exact lines.
    let expected_run = format!(
        "{{\"id\":\"r1\",\"seq\":0,\"ok\":true,\"outcome\":\"executed\",\"result\":{}}}",
        serde::json::to_string(&expected_result)
    );
    let expected_done = "{\"id\":\"r1\",\"done\":true,\"ok\":true,\"manifest\":{\"lane\":\"interactive\",\"specs\":1,\"executed\":1,\"cache_hits\":0,\"inflight_joins\":0}}";
    let expected_bye = "{\"id\":\"q\",\"ok\":true,\"bye\":true}";
    assert_eq!(lines.len(), 3, "run reply, done line, bye: {lines:?}");
    for want in [expected_run.as_str(), expected_done, expected_bye] {
        assert!(lines.iter().any(|l| l == want), "missing {want} in {lines:?}");
    }
    // The done line follows the spec reply.
    let pos = |needle: &str| lines.iter().position(|l| l == needle).unwrap();
    assert!(pos(&expected_run) < pos(expected_done));
}

/// A reader that yields some valid frames and then fails mid-stream,
/// as a reset TCP connection would.
struct DroppingReader {
    data: Cursor<Vec<u8>>,
    dropped: bool,
}

impl Read for DroppingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.data.read(buf)?;
        if n == 0 {
            if self.dropped {
                return Err(std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer reset"));
            }
            self.dropped = true;
            return Err(std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer reset"));
        }
        Ok(n)
    }
}

#[test]
fn mid_stream_disconnect_is_a_clean_cancellation() {
    // One worker runs jobs in arrival order, so the orphaned job is
    // resolved before the second client's; with several, the second can
    // overtake it on a loaded host and execute first.
    let srv = server(ServerConfig { workers: 1, ..ServerConfig::default() });

    // Client 1 submits work, then the connection dies before it reads
    // a single reply.
    let reader = DroppingReader {
        data: Cursor::new(
            b"{\"id\":\"gone\",\"cmd\":\"run\",\"specs\":[{\"bench\":\"EP\",\"nodes\":2,\"gears\":2}]}\n".to_vec(),
        ),
        dropped: false,
    };
    let out1 = Capture::default();
    let end = srv.session(BufReader::new(reader), Box::new(out1.clone()));
    assert_eq!(end, SessionEnd::Disconnected);

    // The server is not poisoned: a second client gets full service,
    // and the orphaned job still executed (it warms the cache — the
    // same spec now answers as a hit, not a fresh execution).
    let out2 = Capture::default();
    let end = srv.session(
        Cursor::new(
            b"{\"id\":\"next\",\"cmd\":\"run\",\"specs\":[{\"bench\":\"EP\",\"nodes\":2,\"gears\":2}]}\n".to_vec(),
        ),
        Box::new(out2.clone()),
    );
    assert_eq!(end, SessionEnd::Disconnected);
    srv.drain();
    let text = out2.text();
    assert!(
        text.contains("\"outcome\":\"cache_hit\"")
            || text.contains("\"outcome\":\"inflight_join\""),
        "orphaned work must have warmed the cache: {text}"
    );
    assert!(text.contains("\"done\":true"));
}

/// A writer that always fails, as a closed socket would.
struct DeadWriter;

impl Write for DeadWriter {
    fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
        Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
    }
}

#[test]
fn dead_writer_never_panics_the_workers() {
    let srv = server(ServerConfig::default());
    let end = srv.session(
        Cursor::new(
            b"{\"id\":\"w\",\"cmd\":\"run\",\"specs\":[{\"bench\":\"CG\",\"nodes\":2,\"gears\":1}]}\n{\"id\":\"p\",\"cmd\":\"ping\"}\n".to_vec(),
        ),
        Box::new(DeadWriter),
    );
    assert_eq!(end, SessionEnd::Disconnected);
    srv.drain();
    // Work happened despite the dead client.
    let snap = srv.engine().metrics().snapshot();
    assert_eq!(snap.get("engine_runs_simulated", &[]).unwrap().scalar(), 1.0);
}

#[test]
fn blank_lines_are_ignored_keepalives() {
    let srv = server(ServerConfig::default());
    let lines = exchange(&srv, "\n   \n{\"id\":\"k\",\"cmd\":\"ping\"}\n\n");
    assert_eq!(lines, vec!["{\"id\":\"k\",\"ok\":true,\"pong\":true}".to_owned()]);
}

/// One frame of 200,000 `[` used to overflow the JSON parser's stack
/// and abort the whole server. It is now an ordinary malformed frame:
/// an error reply, and the session keeps serving.
#[test]
fn deeply_nested_frame_is_rejected_and_the_session_survives() {
    let srv = server(ServerConfig::default());
    let input = format!("{}\n{{\"id\":\"n\",\"cmd\":\"ping\"}}\n", "[".repeat(200_000));
    let lines = exchange(&srv, &input);
    assert_eq!(
        lines,
        vec![
            "{\"id\":null,\"ok\":false,\"error\":\"malformed frame: serde error: nesting deeper than 128 at byte 128\"}"
                .to_owned(),
            "{\"id\":\"n\",\"ok\":true,\"pong\":true}".to_owned(),
        ]
    );
}

/// Feed raw bytes through one session and return the reply lines.
fn exchange_bytes(server: &Server, input: impl Read) -> Vec<String> {
    let out = Capture::default();
    server.session(BufReader::new(input), Box::new(out.clone()));
    server.drain();
    out.text().lines().map(str::to_owned).collect()
}

const PING: &[u8] = b"{\"id\":\"p\",\"cmd\":\"ping\"}\n";
const PONG: &str = "{\"id\":\"p\",\"ok\":true,\"pong\":true}";

/// A 100 MB frame streams past the session in bounded memory: one
/// error reply, and the next frame on the same session is served.
#[test]
fn oversize_frame_is_skipped_and_the_session_survives() {
    let srv = server(ServerConfig::default());
    let huge = std::io::repeat(b'[').take(100 << 20);
    let lines = exchange_bytes(&srv, huge.chain(&b"\n"[..]).chain(PING));
    assert_eq!(
        lines,
        vec![
            "{\"id\":null,\"ok\":false,\"error\":\"frame exceeds 1048576 bytes\"}".to_owned(),
            PONG.to_owned(),
        ]
    );
}

/// The cap is exact: a frame of `MAX_FRAME_BYTES` is parsed, one byte
/// more is refused.
#[test]
fn frame_cap_boundary_is_exact() {
    let srv = server(ServerConfig::default());
    let padded = |len: usize| {
        let mut frame = PING[..PING.len() - 1].to_vec();
        frame.resize(len, b' ');
        frame.push(b'\n');
        frame
    };
    let input = [padded(MAX_FRAME_BYTES), padded(MAX_FRAME_BYTES + 1), PING.to_vec()].concat();
    let lines = exchange_bytes(&srv, Cursor::new(input));
    assert_eq!(
        lines,
        vec![
            PONG.to_owned(),
            "{\"id\":null,\"ok\":false,\"error\":\"frame exceeds 1048576 bytes\"}".to_owned(),
            PONG.to_owned(),
        ]
    );
}

/// A frame that is not UTF-8 is an ordinary bad frame, not a
/// disconnect.
#[test]
fn non_utf8_frame_is_rejected_and_the_session_survives() {
    let srv = server(ServerConfig::default());
    let lines = exchange_bytes(&srv, Cursor::new([&b"{\"id\":\"\xff\"}\n"[..], PING].concat()));
    assert_eq!(
        lines,
        vec![
            "{\"id\":null,\"ok\":false,\"error\":\"frame is not valid UTF-8\"}".to_owned(),
            PONG.to_owned(),
        ]
    );
}
