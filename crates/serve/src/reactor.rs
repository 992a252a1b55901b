//! The single-threaded reactor: readiness loop, framing, backpressure,
//! size-or-deadline draining, and the JSONL window feed.
//!
//! One thread multiplexes every source over [`polling::Poller`] (the
//! vendored `poll(2)` shim). Each iteration: wait for readiness, accept
//! on the listeners that have connections queued, read and frame what
//! arrived (parking readers when the global budget fills), answer
//! control requests, and drain the accumulated records into
//! [`Engine::ingest_batch`] once the batch is big enough *or* the flush
//! deadline passes — whichever comes first. Completed windows stream to
//! the JSONL sink (stdout under the CLI) and to every subscribed control
//! connection.
//!
//! The reactor sleeps until there is work. Its `poll` timeout rounds
//! *up* to whole milliseconds, so it never wakes just short of a deadline
//! with nothing to do. Records reach the engine only at a drain, so
//! reading each one the moment it lands buys nothing: after a read that
//! found records, data connections leave the read interest for about the
//! time `HOLD_RECORDS` (64) more take to arrive at the rate just seen, at
//! most `MAX_HOLD` (20 ms), none when that is under a millisecond, and
//! never past the flush deadline. A trickle costs a few wakeups per flush
//! period, not one per record, and a hold ends long before a steady
//! producer could fill its socket buffer. When a hold runs out every data
//! connection is read until it would block, so a deadline drain takes
//! all they delivered by then; `SHUTDOWN` reads them all before the final
//! drain.
//! Listeners, control connections and pending writes stay polled
//! throughout. The final flush of replies and feed lines is bounded: a
//! connection that accepts no bytes for a second is dropped.
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

use khist_core::api::Engine;
use polling::{PollFd, Poller};

use crate::conn::{Conn, ReadStatus, Role};
use crate::protocol::{self, ControlRequest, DataLine, Driver, Line, Sink};

/// Everything `run` needs beyond the engine itself.
#[derive(Debug, Clone, PartialEq)]
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
    /// `poll(2)` calls the reactor made, the final flush's included: how
    /// often it woke up.
    pub polls: u64,
}

/// How long the final flush waits on a connection that accepts no bytes
/// before dropping it, so a subscriber that stopped reading cannot hold
/// up shutdown.
const FINAL_FLUSH_STALL: Duration = Duration::from_secs(1);

/// The reactor's only wall-clock read. khist-lint's `wall-clock` rule
/// budgets `crates/serve` exactly one `Instant::now` call site — this
/// function — so every deadline in the server traces back to a single
/// reviewable clock; all other code passes `Instant` values around.
fn clock() -> Instant {
    Instant::now()
}

/// The `poll(2)` timeout for a wait of `left`: whole milliseconds rounded
/// *up*, saturating at `i32::MAX`. Truncating would wake the reactor
/// before its deadline, with nothing to do, for the last millisecond of
/// every wait.
fn timeout_ms(left: Duration) -> i32 {
    i32::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
}

/// How many records a read hold lets arrive, at the rate last seen,
/// before the next read. Far fewer than a socket buffer takes even one
/// record per `send` (a few hundred such sends on Linux's defaults), so a
/// hold ends before a steady producer could block on it; a faster
/// producer gets proportionally shorter holds.
const HOLD_RECORDS: u32 = 64;

/// The longest read hold. The rate seen after a quiet spell says nothing
/// about a burst that may follow, so this bounds how long such a burst
/// can wait, whatever `--flush-ms` is.
const MAX_HOLD: Duration = Duration::from_millis(20);

/// How long data reads wait after a read that found `records` records,
/// `gap` after the previous one: `gap × HOLD_RECORDS / records`, at most
/// [`MAX_HOLD`], or no wait when that is under `poll`'s one-millisecond
/// resolution (a hold rounded up to 1 ms would let more than
/// `HOLD_RECORDS` pile up).
fn hold_for(gap: Duration, records: usize) -> Duration {
    let records = u32::try_from(records).unwrap_or(u32::MAX).max(1);
    let hold = (gap.saturating_mul(HOLD_RECORDS) / records).min(MAX_HOLD);
    if hold < Duration::from_millis(1) {
        Duration::ZERO
    } else {
        hold
    }
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
    let listener = UnixListener::bind(path).map_err(|e| format!("bind {}: {e}", path.display()))?;
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
    driver: &mut Driver,
    shutdown: &mut bool,
) -> bool {
    let mut pieces: Vec<&[u8]> = buf.split(|&b| b == b'\n').collect();
    if buf.ends_with(b"\n") {
        pieces.pop();
    }
    for piece in pieces {
        conn.lineno += 1;
        let lineno = conn.lineno;
        let outcome = match std::str::from_utf8(piece) {
            Err(_) => Err(format!("line {lineno}: invalid UTF-8")),
            Ok(line) => handle_line(conn, line, lineno, cfg, driver, shutdown),
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

/// Handles one framed line: a data record joins the driver's pending
/// buffer, a control request queues its reply. An error is the line's
/// `ERR` reply.
fn handle_line(
    conn: &mut Conn,
    line: &str,
    lineno: usize,
    cfg: &ServerConfig,
    driver: &mut Driver,
    shutdown: &mut bool,
) -> Result<(), String> {
    if conn.role == Role::Data {
        let n = driver.engine().domain_size();
        if let DataLine::Record { key, value } =
            protocol::parse_data_line(line, lineno, cfg.key_field, n)?
        {
            driver.pending.push(key, value);
        }
        return Ok(());
    }
    let reply = match protocol::parse_control_line(line, lineno)? {
        None => return Ok(()),
        Some(ControlRequest::Stats) => protocol::stats_summary(driver.engine()),
        Some(ControlRequest::StatsKey(key)) => protocol::stats_key(driver.engine_mut(), key),
        Some(ControlRequest::Subscribe) => {
            conn.subscribed = true;
            "{\"subscribed\":true}\n".into()
        }
        Some(ControlRequest::Fleet) => driver.fleet_line().into(),
        Some(ControlRequest::Shutdown) => {
            *shutdown = true;
            "{\"shutting_down\":true}\n".into()
        }
    };
    conn.push_reply(&reply);
    Ok(())
}

/// Reads one connection until it would block, ends, or — for a data
/// connection — the global budget fills, framing and handling every
/// complete line. With `hangup` (the peer closed) a would-block read
/// ends the connection.
fn read_conn(
    conn: &mut Conn,
    hangup: bool,
    scratch: &mut [u8],
    cfg: &ServerConfig,
    driver: &mut Driver,
    shutdown: &mut bool,
) {
    let mut saw_eof = false;
    loop {
        if conn.role == Role::Data && driver.pending.bytes() >= cfg.global_budget {
            // Budget full: park this reader (and the rest); the next
            // drain frees the budget.
            break;
        }
        match conn.read_some(scratch) {
            Ok(ReadStatus::Data(_)) => {
                if let Some(buf) = conn.take_complete_lines() {
                    if !process_lines(conn, &buf, cfg, driver, shutdown) {
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
                saw_eof = hangup;
                break;
            }
            Ok(ReadStatus::Eof) | Err(_) => {
                saw_eof = true;
                break;
            }
        }
    }
    if saw_eof && !conn.eof {
        conn.eof = true;
        // The final line may lack a trailing newline — frame it the way
        // `read_line` would.
        if !conn.inbuf.is_empty() {
            let buf = conn.take_tail();
            process_lines(conn, &buf, cfg, driver, shutdown);
        }
    }
}

/// Serve's [`Sink`]: the main JSONL sink plus the open connections.
/// JSON lines go to the main sink and to every `SUB` subscriber, so a
/// feed carries exactly the sink's lines; fleet rollups go to
/// subscribers only. Stdout stays a pure per-stream window feed,
/// bit-compatible with `khist watch --key-field --json`; subscribers opt
/// into the rollup the way `watch --fleet` users do, and one-shot readers
/// poll the `FLEET` verb instead.
struct Feed<'a, W> {
    out: &'a mut W,
    /// Cleared when the main sink hangs up (the reactor then shuts down).
    out_ok: bool,
    conns: Vec<Conn>,
    /// A subscriber whose backlog passes this many bytes is dropped.
    sub_cap: usize,
}

impl<W: Write> Sink for Feed<'_, W> {
    fn emit(&mut self, line: Line<'_>) -> Result<(), String> {
        if let Line::Rollup(_, rollup) = line {
            broadcast(rollup, &mut self.conns, self.sub_cap);
            return Ok(());
        }
        let line = line.to_json();
        if self.out_ok {
            self.out_ok = protocol::write_line(self.out, &line)
                .map_err(|e| format!("write to sink failed: {e}"))?;
        }
        broadcast(&line, &mut self.conns, self.sub_cap);
        Ok(())
    }

    fn wants_rollup(&self) -> bool {
        self.conns.iter().any(|c| c.subscribed)
    }
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

/// Delivers the replies and feed lines still buffered at shutdown,
/// without blocking: a `poll`-driven loop that ends when every buffer is
/// empty and drops a connection once it has accepted no bytes for
/// [`FINAL_FLUSH_STALL`]. Returns the number of `poll` calls it made.
fn flush_final(conns: Vec<Conn>, poller: &mut Poller, fds: &mut Vec<PollFd>) -> u64 {
    let start = clock();
    let mut waiting: Vec<(Conn, Instant)> = conns
        .into_iter()
        .filter(|c| !c.outbuf.is_empty())
        .map(|c| (c, start))
        .collect();
    let mut polls = 0;
    loop {
        let now = clock();
        waiting.retain(|(conn, progress)| {
            !conn.outbuf.is_empty() && now.duration_since(*progress) < FINAL_FLUSH_STALL
        });
        let Some(oldest) = waiting.iter().map(|&(_, progress)| progress).min() else {
            return polls;
        };
        fds.clear();
        fds.extend(waiting.iter().map(|(conn, _)| PollFd::write(conn.fd())));
        let left = FINAL_FLUSH_STALL.saturating_sub(now.duration_since(oldest));
        polls += 1;
        if poller.wait(fds, timeout_ms(left)).is_err() {
            return polls;
        }
        let now = clock();
        for ((conn, progress), ready) in waiting.iter_mut().zip(fds.iter()) {
            if !(ready.writable || ready.hangup || ready.invalid) {
                continue;
            }
            let before = conn.outbuf.len();
            if ready.invalid || conn.flush_out().is_err() {
                conn.outbuf.clear();
            } else if conn.outbuf.len() < before {
                *progress = now;
            }
        }
    }
}

/// What `run` undoes however it returns: the socket files it bound, and
/// stdin's nonblocking mode once it set it.
#[derive(Default)]
struct Cleanup {
    sockets: Vec<PathBuf>,
    stdin: bool,
}

impl Drop for Cleanup {
    fn drop(&mut self) {
        if self.stdin {
            let _ = polling::set_nonblocking(0, false);
        }
        for path in &self.sockets {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Runs the serve reactor until its sources finish (stdin-only mode) or
/// a `SHUTDOWN` control request arrives, then flushes every stream's
/// partial tail in debut order. On every return, an error included, it
/// removes the socket files it bound and puts stdin back in blocking
/// mode. See the [crate docs](crate) for the protocol, isolation, and
/// backpressure contracts.
pub fn run<W: Write>(
    engine: Engine,
    cfg: ServerConfig,
    out: &mut W,
) -> Result<ServerSummary, String> {
    let mut cleanup = Cleanup::default();
    let mut listeners: Vec<(UnixListener, Role)> = Vec::new();
    for (path, role) in [(&cfg.socket, Role::Data), (&cfg.control, Role::Control)] {
        if let Some(path) = path {
            listeners.push((bind_listener(path)?, role));
            cleanup.sockets.push(path.clone());
        }
    }
    let mut feed = Feed {
        out,
        out_ok: true,
        conns: Vec::new(),
        sub_cap: cfg.conn_buffer.saturating_mul(4),
    };
    if cfg.stdin {
        polling::set_nonblocking(0, true).map_err(|e| format!("set stdin nonblocking: {e}"))?;
        cleanup.stdin = true;
        feed.conns.push(Conn::stdin());
    }
    if listeners.is_empty() && feed.conns.is_empty() {
        return Err("serve needs at least one source: --socket, --control, or stdin".into());
    }

    let flush_every = Duration::from_millis(cfg.flush_ms);
    let mut poller = Poller::new();
    let mut polls = 0u64;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let mut driver = Driver::new(engine);
    let mut last_drain = clock();
    // Data connections are out of the read interest until `hold_until`;
    // `last_read` is when the last read that found records ended.
    let mut hold_until = last_drain;
    let mut last_read = last_drain;
    let mut shutdown = false;

    loop {
        feed.conns.retain(|c| !c.done());
        if shutdown || (listeners.is_empty() && feed.conns.is_empty()) {
            // SHUTDOWN, a closed sink, or every source finished
            // (stdin-only mode): fall through to the tail flush.
            break;
        }

        // Interest set: listeners first, then connections in order. Data
        // readers need no parking for the budget here: each iteration ends
        // with a drain once `pending` reaches the batch or the budget.
        let now = clock();
        let held = now < hold_until;
        fds.clear();
        fds.extend(listeners.iter().map(|(l, _)| PollFd::read(l.as_raw_fd())));
        let base = fds.len();
        for conn in &feed.conns {
            fds.push(PollFd {
                fd: conn.fd(),
                read: !(conn.eof || (held && conn.role == Role::Data)),
                write: !conn.outbuf.is_empty(),
                ..PollFd::default()
            });
        }

        let timeout = if held {
            timeout_ms(hold_until - now)
        } else if driver.pending.is_empty() {
            -1
        } else {
            timeout_ms(flush_every.saturating_sub(now.duration_since(last_drain)))
        };
        polls += 1;
        poller
            .wait(&mut fds, timeout)
            .map_err(|e| format!("poll failed: {e}"))?;

        // Accept everything queued on a readable listener.
        for ((listener, role), ready) in listeners.iter().zip(&fds) {
            if !ready.readable {
                continue;
            }
            while let Ok((stream, _)) = listener.accept() {
                if stream.set_nonblocking(true).is_ok() {
                    feed.conns.push(Conn::socket(stream, *role));
                }
            }
        }

        // Connection I/O. `fds` only covers conns that existed before the
        // accepts above; freshly accepted ones wait for the next round. A
        // hold that ran out ends with a read of every data connection, so
        // a deadline drain takes all they delivered by then; a held
        // connection that hung up is read to its end, or `poll` would
        // keep reporting it.
        let hold_over = held && clock() >= hold_until;
        let before = driver.pending.len();
        for (i, conn) in feed.conns.iter_mut().enumerate() {
            let Some(&ready) = fds.get(base + i) else {
                break;
            };
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
            let read = ready.readable || ready.hangup || (hold_over && conn.role == Role::Data);
            if read && !conn.eof {
                read_conn(
                    conn,
                    ready.hangup,
                    &mut scratch,
                    &cfg,
                    &mut driver,
                    &mut shutdown,
                );
            }
        }
        let found = driver.pending.len() - before;
        if found > 0 {
            let now = clock();
            // A hold never outlasts the flush deadline.
            let to_deadline = flush_every.saturating_sub(now.duration_since(last_drain));
            hold_until = now + hold_for(now.duration_since(last_read), found).min(to_deadline);
            last_read = now;
        }

        // Size-or-deadline drain.
        let pending = &driver.pending;
        let due = !pending.is_empty() && clock().duration_since(last_drain) >= flush_every;
        if pending.len() >= cfg.batch_records
            || pending.bytes() >= cfg.global_budget
            || due
            || (shutdown && !pending.is_empty())
        {
            driver.drain(&mut feed)?;
            last_drain = clock();
        }
        if !feed.out_ok {
            // The JSONL sink hung up: finish cleanly.
            shutdown = true;
        }
    }

    // Finish: read what the data connections already delivered (a hold
    // may have left some unread), then the driver's end of run: the last
    // drain, every stream's tail in debut order, and the closing rollup.
    for conn in feed
        .conns
        .iter_mut()
        .filter(|c| c.role == Role::Data && !c.eof)
    {
        read_conn(conn, false, &mut scratch, &cfg, &mut driver, &mut shutdown);
    }
    driver.finish(&mut feed)?;

    polls += flush_final(feed.conns, &mut poller, &mut fds);

    let engine = driver.engine();
    Ok(ServerSummary {
        records: engine.seen(),
        streams: engine.streams(),
        windows: driver.windows(),
        shards: engine.shards(),
        polls,
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
    fn drive<F>(engine: Engine, cfg: ServerConfig, client: F) -> (ServerSummary, String)
    where
        F: FnOnce() + Send,
    {
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

    /// Connects to a listener, retrying until the server has bound it.
    fn connect(path: &Path) -> UnixStream {
        loop {
            match UnixStream::connect(path) {
                Ok(s) => break s,
                Err(_) => std::thread::yield_now(),
            }
        }
    }

    /// Fresh data and control socket paths, and a stdin-less config
    /// listening on them.
    fn sockets(tag: &str, flush_ms: u64) -> (PathBuf, PathBuf, ServerConfig) {
        let socket = tmp_path(&format!("data-{tag}"));
        let control = tmp_path(&format!("ctl-{tag}"));
        let cfg = ServerConfig {
            socket: Some(socket.clone()),
            control: Some(control.clone()),
            stdin: false,
            flush_ms,
            ..ServerConfig::default()
        };
        (socket, control, cfg)
    }

    /// Sends `SHUTDOWN` on a new control connection and waits for its
    /// acknowledgement.
    fn shut_down(control: &Path) {
        let ctl = connect(control);
        writeln!(&ctl, "SHUTDOWN").unwrap();
        let mut reply = String::new();
        BufReader::new(&ctl).read_line(&mut reply).unwrap();
        assert!(reply.contains("shutting_down"), "{reply}");
    }

    /// `jsonl` with every `"wall_seconds"` value blanked (the one field
    /// that varies between runs over the same records).
    fn mask_wall(jsonl: &str) -> String {
        const FIELD: &str = "\"wall_seconds\":";
        let mut masked = String::new();
        let mut rest = jsonl;
        while let Some(at) = rest.find(FIELD) {
            let (head, tail) = rest.split_at(at + FIELD.len());
            masked.push_str(head);
            masked.push('_');
            rest = tail
                .get(tail.find([',', '}']).unwrap_or(tail.len())..)
                .unwrap();
        }
        masked.push_str(rest);
        masked
    }

    #[test]
    fn poll_timeouts_round_up_to_the_next_millisecond() {
        assert_eq!(timeout_ms(Duration::ZERO), 0);
        assert_eq!(timeout_ms(Duration::from_nanos(1)), 1);
        assert_eq!(timeout_ms(Duration::from_micros(49_200)), 50);
        assert_eq!(timeout_ms(Duration::from_millis(50)), 50);
        assert_eq!(timeout_ms(Duration::MAX), i32::MAX);
    }

    #[test]
    fn holds_last_while_hold_records_more_arrive_at_the_rate_seen() {
        let ms = Duration::from_millis;
        assert_eq!(hold_for(ms(16), 256), ms(4));
        assert_eq!(hold_for(ms(1), 16), ms(4));
        assert_eq!(hold_for(ms(1), 1), MAX_HOLD);
        assert_eq!(hold_for(ms(1), 64), ms(1));
        // Under a millisecond (poll's resolution): no hold.
        assert_eq!(hold_for(ms(1), 65), Duration::ZERO);
        assert_eq!(hold_for(ms(1), usize::MAX), Duration::ZERO);
        assert_eq!(hold_for(Duration::MAX, 1), MAX_HOLD);
    }

    #[test]
    fn a_trickle_wakes_the_reactor_per_hold_not_per_record() {
        // About one record per millisecond for half a second, at the
        // default 50 ms flush: ten periods of ~50 records each.
        let lines: Vec<String> = (0..500u32)
            .map(|i| format!("api {}\n", (i * 7) % 64))
            .collect();
        let (socket, control, cfg) = sockets("trickle", 50);
        let (trickled, jsonl) = drive(test_engine(1), cfg, || {
            let mut data = connect(&socket);
            for line in &lines {
                data.write_all(line.as_bytes()).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(data);
            shut_down(&control);
        });
        let (socket, control, cfg) = sockets("trickle-bulk", 50);
        let (_, at_once) = drive(test_engine(1), cfg, || {
            connect(&socket)
                .write_all(lines.concat().as_bytes())
                .unwrap();
            shut_down(&control);
        });
        assert_eq!(trickled.records, 500);
        // A hold per read: at the ~1 record/ms seen, each lasts MAX_HOLD.
        // Waking per arrival would cost a poll per record, and a truncated
        // timeout spun through the last millisecond of every period on top
        // of that.
        assert!(
            trickled.polls <= 500 / 4,
            "{} polls for 500 records",
            trickled.polls
        );
        assert_eq!(mask_wall(&jsonl), mask_wall(&at_once));
    }

    /// The `"records"` count in a `STATS` reply.
    fn records_in(reply: &str) -> u64 {
        let at = reply.find("\"records\":").unwrap() + "\"records\":".len();
        let digits = reply[at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap();
        digits.parse().unwrap()
    }

    /// After a quiet 100 ms, sends `records` lines at one `write` each, as
    /// fast as the server takes them, then asks `STATS` every 10 ms until
    /// it counts at least `settled` of them. Returns the time from the
    /// first write until then; `SHUTDOWN` then drains the rest.
    fn ingest(
        tag: &str,
        batch_records: usize,
        flush_ms: u64,
        records: u32,
        settled: u32,
    ) -> Duration {
        let (socket, control, cfg) = sockets(tag, flush_ms);
        let cfg = ServerConfig {
            batch_records,
            ..cfg
        };
        let lines: Vec<String> = (0..records).map(|i| format!("api {}\n", i % 64)).collect();
        let mut took = Duration::ZERO;
        let (summary, _) = drive(test_engine(1), cfg, || {
            let mut data = connect(&socket);
            let ctl = connect(&control);
            let mut replies = BufReader::new(&ctl);
            std::thread::sleep(Duration::from_millis(100));
            let start = Instant::now();
            for line in &lines {
                data.write_all(line.as_bytes()).unwrap();
            }
            // Bounded, so lost records fail the summary check, not hang.
            let mut counted = 0;
            while counted < u64::from(settled) && start.elapsed() < Duration::from_secs(60) {
                std::thread::sleep(Duration::from_millis(10));
                writeln!(&ctl, "STATS").unwrap();
                let mut reply = String::new();
                replies.read_line(&mut reply).unwrap();
                counted = records_in(&reply);
            }
            took = start.elapsed();
            drop(data);
            shut_down(&control);
        });
        assert_eq!(summary.records, u64::from(records));
        took
    }

    #[test]
    fn per_record_sends_are_ingested_within_about_one_period() {
        // Far more one-record sends than a socket buffer takes (a few
        // hundred on Linux's defaults), at a one-second flush: size drains
        // take the first 16,384 and the first deadline drain the rest.
        // Holding the connection until the deadline after a read would
        // let about one socket buffer through per period.
        let took = ingest("sends", 4096, 1_000, 20_000, 20_000);
        assert!(took < Duration::from_secs(3), "ingesting took {took:?}");
    }

    #[test]
    fn per_record_sends_past_a_batch_drain_at_the_size_trigger() {
        // 24 batches' worth at a 10 s flush: size drains ingest all but
        // the last partial batch long before the deadline, even though the
        // first read follows a quiet spell (no rate to go by). A read can
        // take several one-record sends, so a size drain can take more than
        // one batch and leave up to `batch - 1` records, which wait for the
        // deadline as they should; SHUTDOWN drains them.
        let took = ingest("sends-past", 128, 10_000, 24 * 128, 24 * 128 - 127);
        assert!(took < Duration::from_secs(5), "ingesting took {took:?}");
    }

    #[test]
    fn shutdown_reads_what_a_hold_left_unread() {
        // A 10 s flush, so only SHUTDOWN drains. The first record follows
        // a quiet spell, so its read starts a MAX_HOLD hold; the other 99
        // and SHUTDOWN land inside it, with the data connection still
        // open.
        let (socket, control, cfg) = sockets("held", 10_000);
        let (summary, _) = drive(test_engine(1), cfg, || {
            let mut data = connect(&socket);
            std::thread::sleep(Duration::from_millis(100));
            data.write_all(b"api 0\n").unwrap();
            std::thread::sleep(Duration::from_millis(2));
            let rest: String = (1..100u32).map(|i| format!("api {}\n", i % 64)).collect();
            data.write_all(rest.as_bytes()).unwrap();
            shut_down(&control);
            drop(data);
        });
        assert_eq!(summary.records, 100);
    }

    /// Subscribes a control connection, sends 40,000 records (1,000
    /// window lines: far more feed than a socket buffer holds) while the
    /// subscriber does not read, waits until every record is ingested,
    /// then sends `SHUTDOWN`. With `reads` the subscriber starts reading
    /// right after; without it, it never reads again. Returns the summary,
    /// the main sink, the subscriber's window lines, and the time from
    /// `SHUTDOWN` until the server removed its sockets.
    fn shutdown_behind_a_subscriber(
        tag: &str,
        reads: bool,
    ) -> (ServerSummary, String, Vec<String>, Duration) {
        let (socket, control, cfg) = sockets(tag, 5);
        // Subscribers are dropped past 4 × conn_buffer of backlog; keep
        // this one through the run.
        let cfg = ServerConfig {
            conn_buffer: 1 << 20,
            ..cfg
        };
        let records: String = (0..40_000u32)
            .map(|i| format!("api {}\n", (i * 7) % 64))
            .collect();
        let mut feed = Vec::new();
        let mut took = Duration::ZERO;
        let (summary, jsonl) = drive(test_engine(1), cfg, || {
            let sub = connect(&control);
            writeln!(&sub, "SUB").unwrap();
            connect(&socket).write_all(records.as_bytes()).unwrap();
            let ctl = connect(&control);
            let mut replies = BufReader::new(&ctl);
            let mut line = String::new();
            // Bounded, so lost records fail the summary check, not hang.
            let give_up = Instant::now() + Duration::from_secs(30);
            while !line.contains("\"records\":40000") && Instant::now() < give_up {
                writeln!(&ctl, "STATS").unwrap();
                line.clear();
                replies.read_line(&mut line).unwrap();
            }
            let start = Instant::now();
            writeln!(&ctl, "SHUTDOWN").unwrap();
            if reads {
                feed = BufReader::new(&sub)
                    .lines()
                    .map(Result::unwrap)
                    .filter(|l| l.contains("\"complete\":"))
                    .collect();
            }
            // The server removes its socket files on its way out.
            while control.exists() {
                std::thread::sleep(Duration::from_millis(1));
            }
            took = start.elapsed();
        });
        (summary, jsonl, feed, took)
    }

    #[test]
    fn shutdown_drops_a_subscriber_that_stopped_reading() {
        let (summary, jsonl, _, took) = shutdown_behind_a_subscriber("stalled", false);
        assert_eq!(summary.records, 40_000);
        assert_eq!(jsonl.lines().count(), 1_000);
        assert!(
            took < FINAL_FLUSH_STALL + Duration::from_secs(1),
            "shutdown took {took:?}"
        );
    }

    #[test]
    fn shutdown_delivers_every_line_to_a_subscriber_that_reads() {
        let (summary, jsonl, feed, _) = shutdown_behind_a_subscriber("reading", true);
        assert_eq!(summary.records, 40_000);
        assert_eq!(feed.len(), 1_000);
        assert_eq!(feed, jsonl.lines().collect::<Vec<_>>());
    }

    #[test]
    fn a_failed_window_line_reaches_subscribers_too() {
        use khist_core::api::{FleetReport, TestL2, WindowReport};
        // More collision lanes than a window has records: the window
        // fails with "need non-empty sample sets".
        let engine = Engine::builder(64)
            .seed(7)
            .tumbling(4)
            .analysis(TestL2::k(2).eps(0.3).scale(0.001))
            .build()
            .unwrap();
        let (socket, control, cfg) = sockets("failed-window", 5);
        let mut feed = Vec::new();
        let (summary, jsonl) = drive(engine, cfg, || {
            let sub = connect(&control);
            let mut sub_lines = BufReader::new(&sub);
            writeln!(&sub, "SUB").unwrap();
            let mut ack = String::new();
            sub_lines.read_line(&mut ack).unwrap();
            assert!(ack.contains("subscribed"), "{ack}");
            connect(&socket)
                .write_all(b"api 0\napi 1\napi 2\napi 3\n")
                .unwrap();
            // STATS counts the records once the drain that reported ran.
            let ctl = connect(&control);
            let mut replies = BufReader::new(&ctl);
            let mut reply = String::new();
            while !reply.contains("\"records\":4") {
                writeln!(&ctl, "STATS").unwrap();
                reply.clear();
                replies.read_line(&mut reply).unwrap();
            }
            shut_down(&control);
            feed = sub_lines
                .lines()
                .map(Result::unwrap)
                .filter(|l| !FleetReport::is_fleet_line(l))
                .collect();
        });
        let failed = WindowReport::from_json(jsonl.trim_end()).unwrap();
        assert_eq!((failed.window, failed.seen, failed.complete), (0, 4, true));
        assert!(failed.reports.is_empty() && failed.drift.is_none());
        assert_eq!(
            failed.error.as_deref(),
            Some("bad parameter: need non-empty sample sets")
        );
        assert_eq!(summary.windows, 1, "{jsonl}");
        assert_eq!(feed, jsonl.lines().collect::<Vec<_>>());
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
        let (summary, jsonl) = drive(test_engine(2), cfg, || {
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
        let (summary, _jsonl) = drive(test_engine(1), cfg, || {
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
    fn non_utf8_and_nul_lines_poison_only_their_own_connections() {
        let (socket, control, cfg) = sockets("bytes", 5);
        let mut replies = Vec::new();
        let (summary, _) = drive(test_engine(1), cfg, || {
            let mut good = connect(&socket);
            let bad_utf8 = connect(&socket);
            let nul = connect(&socket);
            (&bad_utf8).write_all(b"api 1\napi \xff\xfe\n").unwrap();
            (&nul).write_all(b"api 2\nweb 3\0\n").unwrap();
            for conn in [&bad_utf8, &nul] {
                // The one reply, then the server closes the connection.
                let mut reply = String::new();
                BufReader::new(conn).read_to_string(&mut reply).unwrap();
                replies.push(reply);
            }
            for i in 0..50u32 {
                writeln!(good, "web {}", i % 64).unwrap();
            }
            drop(good);
            shut_down(&control);
        });
        assert_eq!(replies[0], "ERR line 2: invalid UTF-8\n");
        assert!(
            replies[1].starts_with("ERR line 2: not an integer record"),
            "{}",
            replies[1]
        );
        // Line 1 of each poisoned connection, plus fifty healthy records.
        assert_eq!(summary.records, 52);
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
        let (summary, jsonl) = drive(test_engine(2), cfg, || {
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
        let windows = feed.iter().filter(|l| l.contains("\"complete\":")).count();
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
