//! The single-threaded reactor: readiness loop, framing, backpressure,
//! size-or-deadline draining, and the JSONL window feed.
//!
//! One thread multiplexes every source over [`polling::Poller`] (the
//! vendored `poll(2)` shim). Each iteration: wait for readiness, accept
//! new connections, read and frame what arrived (parking readers when
//! the global budget fills), answer control requests, and drain the
//! accumulated records into [`Engine::ingest_batch`] once the batch is
//! big enough *or* the flush deadline passes — whichever comes first.
//! Completed windows stream to the JSONL sink (stdout under the CLI)
//! and to every subscribed control connection.
//!
//! Batch *boundaries* depend on arrival timing; per-stream window
//! contents and reports do not (windows are record-counted), which is
//! why serve's per-stream output is bit-identical to
//! `khist watch --key-field` over the same per-stream records.

use std::io::Write;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use khist_core::api::{Engine, WindowReport};
use polling::{PollFd, Poller};
use serde::Value;

use crate::conn::{Conn, ReadStatus, Role};
use crate::protocol::{self, ControlRequest, DataLine, Pending};

/// Everything `run` needs beyond the engine itself.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Data-plane Unix socket path (`None` = no socket listener).
    pub socket: Option<PathBuf>,
    /// Control-plane Unix socket path (`None` = no control listener).
    pub control: Option<PathBuf>,
    /// Read stdin as a data-plane source.
    pub stdin: bool,
    /// Which of the two whitespace-separated fields is the stream key.
    pub key_field: usize,
    /// Drain into the engine once this many records accumulated.
    pub batch_records: usize,
    /// … or once this many milliseconds passed since the last drain.
    pub flush_ms: u64,
    /// Per-connection unframed-input budget in bytes; one line longer
    /// than this is a protocol error (the connection is poisoned).
    pub conn_buffer: usize,
    /// Global parsed-but-uningested budget in bytes; when it fills, the
    /// reactor parks remaining data readers and drains first.
    pub global_budget: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            socket: None,
            control: None,
            stdin: true,
            key_field: 0,
            batch_records: 4096,
            flush_ms: 50,
            conn_buffer: 64 * 1024,
            global_budget: 4 * 1024 * 1024,
        }
    }
}

/// What a finished serve run amounted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerSummary {
    /// Records ingested across all streams.
    pub records: u64,
    /// Distinct stream keys seen.
    pub streams: usize,
    /// Window reports emitted (completed windows plus flushed tails).
    pub windows: u64,
    /// Worker shards the engine ran on.
    pub shards: usize,
}

/// The reactor's only wall-clock read. khist-lint's `wall-clock` rule
/// budgets `crates/serve` exactly one `Instant::now` call site — this
/// function — so every deadline in the server traces back to a single
/// reviewable clock; all other code passes `Instant` values around.
fn clock() -> Instant {
    Instant::now()
}

/// Binds a nonblocking Unix listener, clearing a stale socket file left
/// by a previous run (only a file that *is* a socket is ever removed).
fn bind_listener(path: &Path) -> Result<UnixListener, String> {
    if let Ok(meta) = std::fs::metadata(path) {
        use std::os::unix::fs::FileTypeExt;
        if meta.file_type().is_socket() {
            let _ = std::fs::remove_file(path);
        }
    }
    let listener =
        UnixListener::bind(path).map_err(|e| format!("bind {}: {e}", path.display()))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking {}: {e}", path.display()))?;
    Ok(listener)
}

/// Frames and handles every line in `buf` for one connection. Returns
/// `false` when a bad line poisoned the connection (reply queued, read
/// side closed).
fn process_lines(
    conn: &mut Conn,
    buf: &[u8],
    cfg: &ServerConfig,
    n: usize,
    engine: &mut Engine,
    pending: &mut Pending,
    shutdown: &mut bool,
) -> bool {
    let mut pieces: Vec<&[u8]> = buf.split(|&b| b == b'\n').collect();
    if buf.ends_with(b"\n") {
        pieces.pop();
    }
    for piece in pieces {
        conn.lineno += 1;
        let lineno = conn.lineno;
        let outcome: Result<(), String> = match std::str::from_utf8(piece) {
            Err(_) => Err(format!("line {lineno}: invalid UTF-8")),
            Ok(line) => match conn.role {
                Role::Data => match protocol::parse_data_line(line, lineno, cfg.key_field, n)
                {
                    Ok(DataLine::Record { key, value }) => {
                        pending.push(key, value);
                        Ok(())
                    }
                    Ok(DataLine::Skip) => Ok(()),
                    Err(msg) => Err(msg),
                },
                Role::Control => match protocol::parse_control_line(line, lineno) {
                    Ok(None) => Ok(()),
                    Ok(Some(ControlRequest::Stats)) => {
                        let reply = protocol::stats_summary(engine);
                        conn.push_reply(&reply);
                        Ok(())
                    }
                    Ok(Some(ControlRequest::StatsKey(key))) => {
                        let reply = protocol::stats_key(engine, key);
                        conn.push_reply(&reply);
                        Ok(())
                    }
                    Ok(Some(ControlRequest::Subscribe)) => {
                        conn.subscribed = true;
                        conn.push_reply("{\"subscribed\":true}\n");
                        Ok(())
                    }
                    Ok(Some(ControlRequest::Fleet)) => {
                        let reply = protocol::fleet(engine);
                        conn.push_reply(&reply);
                        Ok(())
                    }
                    Ok(Some(ControlRequest::Shutdown)) => {
                        *shutdown = true;
                        conn.push_reply("{\"shutting_down\":true}\n");
                        Ok(())
                    }
                    Err(msg) => Err(msg),
                },
            },
        };
        if let Err(msg) = outcome {
            conn.push_reply(&format!("ERR {msg}\n"));
            conn.eof = true;
            conn.inbuf.clear();
            return false;
        }
    }
    true
}

/// Emits window reports: one JSONL line each to the main sink and to
/// every subscribed control connection. A broken-pipe sink flips
/// `out_ok` (the caller decides to shut down); a subscriber whose
/// buffer exceeds `sub_cap` is dropped as a slow consumer.
fn emit_reports<W: Write>(
    reports: &[WindowReport],
    out: &mut W,
    out_ok: &mut bool,
    conns: &mut [Conn],
    sub_cap: usize,
    windows: &mut u64,
) -> Result<(), String> {
    for report in reports {
        let line = format!("{}\n", report.to_json());
        if *out_ok {
            let write = out
                .write_all(line.as_bytes())
                .and_then(|()| out.flush());
            match write {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => *out_ok = false,
                Err(e) => return Err(format!("write to sink failed: {e}")),
            }
        }
        broadcast(&line, conns, sub_cap);
        *windows += 1;
    }
    Ok(())
}

/// Queues one feed line on every subscribed control connection. A
/// subscriber whose buffer then exceeds `sub_cap` is dropped as a slow
/// consumer: dropping it is the bounded-memory answer, and the main sink
/// never loses lines.
fn broadcast(line: &str, conns: &mut [Conn], sub_cap: usize) {
    for conn in conns.iter_mut().filter(|c| c.subscribed) {
        conn.outbuf.extend_from_slice(line.as_bytes());
        if conn.outbuf.len() > sub_cap {
            conn.subscribed = false;
            conn.eof = true;
            conn.outbuf.clear();
            conn.inbuf.clear();
        }
    }
}

/// Pushes the current fleet rollup line to every subscribed control
/// connection — `khist watch --fleet`'s interleaved rollup, serve-side.
/// The line never touches the main JSONL sink: serve's stdout stays a
/// pure per-stream window feed (bit-compatible with
/// `khist watch --key-field --json`); subscribers opt into the rollup
/// the way `watch --fleet` users do, and one-shot readers poll the
/// `FLEET` verb instead.
fn emit_fleet_line(engine: &Engine, conns: &mut [Conn], sub_cap: usize) {
    if conns.iter().any(|c| c.subscribed) {
        broadcast(&protocol::fleet(engine), conns, sub_cap);
    }
}

/// One engine-ingest failure as a JSONL error line (the feed carries
/// the error; the reactor keeps serving — with parse-time domain
/// validation these are unexpected, e.g. an analysis rejecting its
/// window).
fn error_line(msg: &str) -> String {
    let rendered =
        serde::json::to_string(&Value::map([("error", Value::Str(msg.to_string()))]))
            .unwrap_or_else(|_| "{\"error\":\"unserializable error\"}".to_string());
    format!("{rendered}\n")
}

/// Runs the serve reactor until its sources finish (stdin-only mode) or
/// a `SHUTDOWN` control request arrives, then flushes every stream's
/// partial tail in debut order. See the [crate docs](crate) for the
/// protocol, isolation, and backpressure contracts.
pub fn run<W: Write>(
    mut engine: Engine,
    cfg: ServerConfig,
    out: &mut W,
) -> Result<ServerSummary, String> {
    let n = engine.domain_size();
    let data_listener = match &cfg.socket {
        Some(path) => Some(bind_listener(path)?),
        None => None,
    };
    let control_listener = match &cfg.control {
        Some(path) => Some(bind_listener(path)?),
        None => None,
    };
    let mut conns: Vec<Conn> = Vec::new();
    if cfg.stdin {
        polling::set_nonblocking(0, true)
            .map_err(|e| format!("set stdin nonblocking: {e}"))?;
        conns.push(Conn::stdin());
    }
    if data_listener.is_none() && control_listener.is_none() && conns.is_empty() {
        return Err("serve needs at least one source: --socket, --control, or stdin".into());
    }

    let flush_every = Duration::from_millis(cfg.flush_ms);
    let sub_cap = cfg.conn_buffer.saturating_mul(4);
    let mut poller = Poller::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let mut pending = Pending::default();
    let mut last_drain = clock();
    let mut shutdown = false;
    let mut out_ok = true;
    let mut windows = 0u64;

    loop {
        conns.retain(|c| !c.done());
        if shutdown {
            break;
        }
        if data_listener.is_none() && control_listener.is_none() && conns.is_empty() {
            // Every source finished (stdin-only mode): fall through to
            // the tail flush.
            break;
        }

        // Interest set: listeners first, then connections in order.
        fds.clear();
        if let Some(l) = &data_listener {
            fds.push(PollFd::read(l.as_raw_fd()));
        }
        if let Some(l) = &control_listener {
            fds.push(PollFd::read(l.as_raw_fd()));
        }
        let base = fds.len();
        let parked = pending.bytes() >= cfg.global_budget;
        for conn in &conns {
            fds.push(PollFd {
                fd: conn.fd(),
                read: !(conn.eof || (parked && conn.role == Role::Data)),
                write: !conn.outbuf.is_empty(),
                ..PollFd::default()
            });
        }

        let timeout_ms: i32 = if pending.is_empty() {
            -1
        } else {
            let elapsed = clock().duration_since(last_drain);
            let left = flush_every.saturating_sub(elapsed);
            i32::try_from(left.as_millis()).unwrap_or(i32::MAX)
        };
        poller
            .wait(&mut fds, timeout_ms)
            .map_err(|e| format!("poll failed: {e}"))?;

        // Accept everything queued on the listeners.
        for (listener, role) in [
            (&data_listener, Role::Data),
            (&control_listener, Role::Control),
        ] {
            let Some(listener) = listener else { continue };
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_ok() {
                            conns.push(Conn::socket(stream, role));
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // Connection I/O. `fds` only covers conns that existed before the
        // accepts above; freshly accepted ones wait for the next round.
        for i in 0..conns.len() {
            let Some(&ready) = fds.get(base + i) else { break };
            let Some(conn) = conns.get_mut(i) else { break };
            if ready.invalid {
                conn.eof = true;
                conn.outbuf.clear();
                continue;
            }
            if ready.writable && conn.flush_out().is_err() {
                conn.eof = true;
                conn.outbuf.clear();
                conn.inbuf.clear();
                continue;
            }
            if !(ready.readable || ready.hangup) || conn.eof {
                continue;
            }
            let mut saw_eof = false;
            loop {
                if conn.role == Role::Data && pending.bytes() >= cfg.global_budget {
                    // Budget full mid-iteration: park this reader (and
                    // the rest); the drain below frees the budget.
                    break;
                }
                match conn.read_some(&mut scratch) {
                    Ok(ReadStatus::Data(_)) => {
                        if let Some(buf) = conn.take_complete_lines() {
                            if !process_lines(
                                conn, &buf, &cfg, n, &mut engine, &mut pending, &mut shutdown,
                            ) {
                                break;
                            }
                        }
                        if conn.inbuf.len() > cfg.conn_buffer {
                            conn.push_reply(&format!(
                                "ERR line {}: line exceeds the {}-byte connection buffer\n",
                                conn.lineno + 1,
                                cfg.conn_buffer
                            ));
                            conn.eof = true;
                            conn.inbuf.clear();
                            break;
                        }
                    }
                    Ok(ReadStatus::Blocked) => {
                        if ready.hangup {
                            saw_eof = true;
                        }
                        break;
                    }
                    Ok(ReadStatus::Eof) => {
                        saw_eof = true;
                        break;
                    }
                    Err(_) => {
                        saw_eof = true;
                        break;
                    }
                }
            }
            if saw_eof && !conn.eof {
                conn.eof = true;
                // The final line may lack a trailing newline — frame it
                // the way `read_line` would.
                if !conn.inbuf.is_empty() {
                    let buf = conn.take_tail();
                    process_lines(
                        conn, &buf, &cfg, n, &mut engine, &mut pending, &mut shutdown,
                    );
                }
            }
        }

        // Size-or-deadline drain.
        let due = !pending.is_empty()
            && clock().duration_since(last_drain) >= flush_every;
        if pending.len() >= cfg.batch_records
            || pending.bytes() >= cfg.global_budget
            || due
            || (shutdown && !pending.is_empty())
        {
            match pending.drain_into(&mut engine) {
                Ok(reports) => {
                    emit_reports(
                        &reports, out, &mut out_ok, &mut conns, sub_cap, &mut windows,
                    )?;
                    if !reports.is_empty() {
                        emit_fleet_line(&engine, &mut conns, sub_cap);
                    }
                }
                Err(msg) => {
                    let line = error_line(&msg);
                    if out_ok && out.write_all(line.as_bytes()).is_err() {
                        out_ok = false;
                    }
                }
            }
            last_drain = clock();
        }
        if !out_ok {
            // The JSONL sink hung up: finish cleanly.
            shutdown = true;
        }
    }

    // Finish: drain what's buffered, then flush every stream's partial
    // tail in debut order (the same order `watch --key-field` emits).
    if !pending.is_empty() {
        let reports = pending.drain_into(&mut engine)?;
        emit_reports(&reports, out, &mut out_ok, &mut conns, sub_cap, &mut windows)?;
        if !reports.is_empty() {
            emit_fleet_line(&engine, &mut conns, sub_cap);
        }
    }
    let tails = engine
        .flush_debut_ordered()
        .map_err(|e| format!("tail flush failed: {e}"))?;
    emit_reports(&tails, out, &mut out_ok, &mut conns, sub_cap, &mut windows)?;
    // Closing rollup: subscribers get the same final fleet line a
    // `FLEET` poll (or `watch --fleet`'s last line) would show.
    emit_fleet_line(&engine, &mut conns, sub_cap);

    // Best-effort delivery of buffered replies/feed lines: switch the
    // sockets back to blocking and drain.
    for conn in &mut conns {
        if let crate::conn::Transport::Socket(s) = &conn.transport {
            let _ = s.set_nonblocking(false);
        }
        let _ = conn.flush_out();
    }
    if cfg.stdin {
        let _ = polling::set_nonblocking(0, false);
    }
    drop(conns);
    for path in [&cfg.socket, &cfg.control].into_iter().flatten() {
        let _ = std::fs::remove_file(path);
    }

    Ok(ServerSummary {
        records: engine.seen(),
        streams: engine.streams(),
        windows,
        shards: engine.shards(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use khist_core::api::Uniformity;
    use std::io::{BufRead, BufReader, Read};
    use std::os::unix::net::UnixStream;

    fn test_engine(shards: usize) -> Engine {
        Engine::builder(64)
            .seed(7)
            .shards(shards)
            .tumbling(40)
            .analysis(Uniformity::eps(0.3))
            .build()
            .unwrap()
    }

    fn tmp_path(tag: &str) -> PathBuf {
        let pid = std::process::id();
        std::env::temp_dir().join(format!("khist-serve-unit-{pid}-{tag}.sock"))
    }

    /// Drives `run` on the current thread while a scoped producer thread
    /// plays the client side (threads are fine in tests; the server
    /// itself stays single-threaded).
    fn drive<F>(cfg: ServerConfig, shards: usize, client: F) -> (ServerSummary, String)
    where
        F: FnOnce() + Send,
    {
        let engine = test_engine(shards);
        let mut sink: Vec<u8> = Vec::new();
        let mut summary = None;
        crossbeam::scope(|scope| {
            let handle = scope.spawn(|_| client());
            summary = Some(run(engine, cfg, &mut sink).unwrap());
            handle.join().unwrap();
        })
        .unwrap();
        (summary.unwrap(), String::from_utf8(sink).unwrap())
    }

    #[test]
    fn socket_records_flow_to_jsonl_and_tails_flush_on_shutdown() {
        let socket = tmp_path("data-a");
        let control = tmp_path("ctl-a");
        let cfg = ServerConfig {
            socket: Some(socket.clone()),
            control: Some(control.clone()),
            stdin: false,
            flush_ms: 5,
            ..ServerConfig::default()
        };
        let (summary, jsonl) = drive(cfg, 2, || {
            let mut data = loop {
                match UnixStream::connect(&socket) {
                    Ok(s) => break s,
                    Err(_) => std::thread::yield_now(),
                }
            };
            for i in 0..100u32 {
                writeln!(data, "api {}", i % 64).unwrap();
                writeln!(data, "web {}", (i * 3) % 64).unwrap();
            }
            drop(data);
            let mut ctl = UnixStream::connect(&control).unwrap();
            writeln!(ctl, "STATS").unwrap();
            let mut reader = BufReader::new(ctl.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"records\""), "{line}");
            writeln!(ctl, "SHUTDOWN").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("shutting_down"), "{line}");
        });
        assert_eq!(summary.records, 200);
        assert_eq!(summary.streams, 2);
        // 100 records per stream over span-40 windows: 2 complete
        // windows each plus a 20-record tail each.
        assert_eq!(summary.windows, 6);
        let tails: Vec<&str> = jsonl
            .lines()
            .filter(|l| l.contains("\"complete\":false"))
            .collect();
        assert_eq!(tails.len(), 2);
        // Tails come out in debut order: api first, then web.
        assert!(tails[0].contains("\"stream\":\"api\""), "{}", tails[0]);
        assert!(tails[1].contains("\"stream\":\"web\""), "{}", tails[1]);
    }

    #[test]
    fn garbage_poisons_only_its_own_connection() {
        let socket = tmp_path("data-b");
        let control = tmp_path("ctl-b");
        let cfg = ServerConfig {
            socket: Some(socket.clone()),
            control: Some(control.clone()),
            stdin: false,
            flush_ms: 5,
            ..ServerConfig::default()
        };
        let (summary, _jsonl) = drive(cfg, 1, || {
            let mut good = loop {
                match UnixStream::connect(&socket) {
                    Ok(s) => break s,
                    Err(_) => std::thread::yield_now(),
                }
            };
            let mut bad = UnixStream::connect(&socket).unwrap();
            writeln!(bad, "api 1").unwrap();
            writeln!(bad, "this is not a record at all").unwrap();
            let mut reply = String::new();
            BufReader::new(bad.try_clone().unwrap())
                .read_line(&mut reply)
                .unwrap();
            assert!(reply.starts_with("ERR line 2:"), "{reply}");
            // The poisoned peer's socket closes; the healthy one keeps
            // streaming afterwards.
            let mut end = Vec::new();
            bad.read_to_end(&mut end).unwrap();
            for i in 0..50u32 {
                writeln!(good, "web {}", i % 64).unwrap();
            }
            drop(good);
            let mut ctl = UnixStream::connect(&control).unwrap();
            writeln!(ctl, "SHUTDOWN").unwrap();
        });
        // One record from the poisoned connection (line 1 was fine) plus
        // fifty from the healthy one.
        assert_eq!(summary.records, 51);
        assert_eq!(summary.streams, 2);
    }

    #[test]
    fn fleet_verb_and_subscribers_share_the_rollup_off_the_main_sink() {
        use khist_core::api::FleetReport;
        let socket = tmp_path("data-c");
        let control = tmp_path("ctl-c");
        let cfg = ServerConfig {
            socket: Some(socket.clone()),
            control: Some(control.clone()),
            stdin: false,
            flush_ms: 5,
            ..ServerConfig::default()
        };
        let mut feed: Vec<String> = Vec::new();
        let (summary, jsonl) = drive(cfg, 2, || {
            let mut ctl = loop {
                match UnixStream::connect(&control) {
                    Ok(s) => break s,
                    Err(_) => std::thread::yield_now(),
                }
            };
            let mut reader = BufReader::new(ctl.try_clone().unwrap());
            writeln!(ctl, "SUB").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("subscribed"), "{line}");
            // 80 records per stream over span-40 windows: 2 complete
            // windows each and no tails, so the FLEET poll below sees
            // the same state as the post-shutdown closing rollup.
            let mut data = UnixStream::connect(&socket).unwrap();
            for i in 0..80u32 {
                writeln!(data, "api {}", i % 64).unwrap();
                writeln!(data, "web {}", (i * 3) % 64).unwrap();
            }
            drop(data);
            // Wait until the drain landed, keeping every feed line the
            // polling reads (window lines interleave with the replies).
            loop {
                writeln!(ctl, "STATS").unwrap();
                line.clear();
                reader.read_line(&mut line).unwrap();
                let done = line.contains("\"records\":160");
                feed.push(line.trim_end().to_string());
                if done {
                    break;
                }
                std::thread::yield_now();
            }
            writeln!(ctl, "FLEET").unwrap();
            writeln!(ctl, "SHUTDOWN").unwrap();
            line.clear();
            while reader.read_line(&mut line).unwrap() > 0 {
                feed.push(line.trim_end().to_string());
                line.clear();
            }
        });
        assert_eq!(summary.records, 160);
        assert_eq!(summary.windows, 4);
        // The main sink stays a pure per-stream window feed.
        assert!(
            jsonl.lines().all(|l| !FleetReport::is_fleet_line(l)),
            "no fleet line may reach the main JSONL sink"
        );
        let fleet_lines: Vec<&String> = feed
            .iter()
            .filter(|l| FleetReport::is_fleet_line(l))
            .collect();
        assert!(
            fleet_lines.len() >= 2,
            "a FLEET reply plus at least one feed rollup: {feed:?}"
        );
        // No tails pending at poll time, so the FLEET reply (second to
        // last) and the post-shutdown closing rollup (last) describe the
        // same state — byte for byte (fleet lines carry no wall time).
        let last = fleet_lines.last().unwrap().as_str();
        assert_eq!(fleet_lines[fleet_lines.len() - 2].as_str(), last);
        let report = FleetReport::from_json(last).unwrap();
        assert_eq!(report.streams, 2);
        assert_eq!(report.windows_complete, 4);
        assert_eq!(report.records_seen, 160);
        // The subscription feed carries the window lines too (only
        // `WindowReport` lines have a top-level `"complete":` field).
        let windows = feed
            .iter()
            .filter(|l| l.contains("\"complete\":"))
            .count();
        assert_eq!(windows, 4, "{feed:?}");
    }

    #[test]
    fn stdin_only_mode_exits_at_eof() {
        // No listeners, stdin disabled, no sources: a config error.
        let engine = test_engine(1);
        let cfg = ServerConfig {
            stdin: false,
            ..ServerConfig::default()
        };
        let mut sink = Vec::new();
        let err = run(engine, cfg, &mut sink).unwrap_err();
        assert!(err.contains("at least one source"), "{err}");
    }
}
