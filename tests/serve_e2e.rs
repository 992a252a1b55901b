//! End-to-end acceptance for `khist serve`: the real binary, real Unix
//! sockets, concurrent producers, a live control plane, and the
//! serve ≡ watch bit-identity contract.
//!
//! Seven scenarios:
//!
//! 1. **Throughput + identity** — two concurrent writers push 50 000
//!    keyed records over one data socket (disjoint key sets, so each
//!    stream's arrival order is well defined); `STATS` is polled
//!    mid-stream on the control socket; after `SHUTDOWN`, the per-stream
//!    JSONL is bit-identical (modulo `wall_seconds`, which is wall time)
//!    to `khist watch --key-field` over the same records — with the
//!    server sharded and the watch single-threaded, exercising the
//!    routing-is-invisible guarantee across the process boundary.
//! 2. **Error isolation** — one connection sends garbage and gets an
//!    `ERR line <n>` reply that poisons only itself; another disconnects
//!    mid-stream; a third keeps streaming unaffected and every record
//!    that made it through is accounted for.
//! 3. **Fleet rollup** — `FLEET` polled mid-stream answers one
//!    `{"fleet":true,…}` line; `SUB` receives interleaved fleet lines;
//!    the final poll is byte-identical to `khist watch --fleet`'s
//!    closing rollup over the same records; stdout never carries a
//!    fleet line.
//! 4. **A failing window at end of input** — in stdin mode with input
//!    under `--batch` and `--flush-ms`, the drain after EOF is the only
//!    one; a window whose analysis fails there is a window line with its
//!    `error`, as it is mid-stream, and so is a tail too thin to analyze.
//! 5. **A window too large to reserve** — lanes no address space can
//!    hold are an error on the first record: `watch` and `serve` both
//!    exit 1 with an `error:` line on stderr, and neither aborts.
//! 6. **A starved window** — a window that leaves a tester lane empty is
//!    one window line with its `error` under keyed `watch --json` and
//!    `serve` alike, wherever their batches break: every stream's lines
//!    equal a dedicated monitor's, fed one window per call.
//! 7. **Cleanup on an error** — `serve` that stops because its stdout
//!    is full still removes its socket files.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use khist::prelude::*;

const N: usize = 64;

/// A running `khist serve` child and its socket paths.
struct Server {
    child: Child,
    data: PathBuf,
    control: PathBuf,
}

impl Server {
    /// Spawns `khist serve` with uniformity analysis on `shards` shards,
    /// its JSONL on `stdout`, and waits until both sockets accept
    /// connections.
    fn start(tag: &str, every: u64, shards: usize, stdout: Stdio) -> Server {
        let dir = std::env::temp_dir();
        let unique = format!("khist-e2e-{}-{tag}", std::process::id());
        let data = dir.join(format!("{unique}.sock"));
        let control = dir.join(format!("{unique}-ctl.sock"));
        let child = Command::new(env!("CARGO_BIN_EXE_khist"))
            .args([
                "serve",
                "--socket",
                data.to_str().unwrap(),
                "--control",
                control.to_str().unwrap(),
                "--n",
                &N.to_string(),
                "--every",
                &every.to_string(),
                "--run",
                "uniformity",
                "--seed",
                "7",
                "--shards",
                &shards.to_string(),
                "--flush-ms",
                "20",
            ])
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn khist serve");
        let server = Server {
            child,
            data,
            control,
        };
        // The first connect doubles as the readiness probe.
        drop(server.connect_data());
        server
    }

    fn connect(path: &Path) -> UnixStream {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(path) {
                Ok(stream) => return stream,
                Err(e) if Instant::now() > deadline => {
                    panic!("connect {}: {e}", path.display())
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    fn connect_data(&self) -> UnixStream {
        Server::connect(&self.data)
    }

    fn connect_control(&self) -> UnixStream {
        Server::connect(&self.control)
    }

    /// Sends `SHUTDOWN`, waits for a clean exit, and returns the JSONL
    /// stdout. Also asserts the socket files were removed.
    fn shutdown(mut self, control: &mut Control) -> String {
        control.send("SHUTDOWN");
        let status = self.child.wait().expect("server exit");
        assert!(status.success(), "serve exited {status:?}");
        let mut out = String::new();
        self.child
            .stdout
            .take()
            .unwrap()
            .read_to_string(&mut out)
            .unwrap();
        assert!(!self.data.exists(), "data socket file removed on exit");
        assert!(
            !self.control.exists(),
            "control socket file removed on exit"
        );
        out
    }
}

/// A control-plane connection: line-oriented request/reply.
struct Control {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Control {
    fn new(stream: UnixStream) -> Control {
        let reader = BufReader::new(stream.try_clone().unwrap());
        Control {
            writer: stream,
            reader,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
    }

    fn request(&mut self, line: &str) -> String {
        self.send(line);
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        assert!(reply.ends_with('\n'), "truncated reply to {line}: {reply}");
        reply
    }

    /// Polls `STATS` until `pred` accepts the reply (drains are
    /// deadline-driven, so totals are eventually consistent).
    fn stats_until(&mut self, pred: impl Fn(&str) -> bool) -> String {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let reply = self.request("STATS");
            if pred(&reply) {
                return reply;
            }
            assert!(Instant::now() < deadline, "STATS never settled: {reply}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// Pulls `"field":<integer>` out of a one-line JSON reply.
fn json_u64(reply: &str, field: &str) -> Option<u64> {
    let pat = format!("\"{field}\":");
    let rest = &reply[reply.find(&pat)? + pat.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Parses JSONL into per-stream report sequences with `wall_seconds`
/// zeroed — everything else must match bit for bit, so the comparison
/// re-serializes and compares strings.
fn per_stream_jsonl(jsonl: &str) -> Vec<(String, Vec<String>)> {
    let mut grouped: Vec<(String, Vec<String>)> = Vec::new();
    for line in jsonl.lines() {
        let mut report = WindowReport::from_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        for r in report.reports.iter_mut().chain(report.drift.iter_mut()) {
            r.wall_seconds = 0.0;
        }
        let key = report.stream.clone().expect("keyed reports carry a stream");
        let normalized = report.to_json();
        match grouped.iter_mut().find(|(k, _)| *k == key) {
            Some((_, lines)) => lines.push(normalized),
            None => grouped.push((key, vec![normalized])),
        }
    }
    grouped.sort_by(|a, b| a.0.cmp(&b.0));
    grouped
}

/// The records one writer sends: 25 000 lines round-robining over three
/// keys with the given prefix, values deterministic in the line index.
fn writer_lines(prefix: &str, mul: usize) -> String {
    let mut text = String::new();
    for i in 0..25_000 {
        text.push_str(&format!("{prefix}{} {}\n", i % 3, (i * mul + 1) % N));
    }
    text
}

#[test]
fn fifty_thousand_records_from_two_writers_match_watch_bit_for_bit() {
    let server = Server::start("identity", 2_000, 3, Stdio::piped());
    let mut control = Control::new(server.connect_control());

    let alpha = writer_lines("alpha", 7);
    let beta = writer_lines("beta", 11);
    std::thread::scope(|scope| {
        for text in [&alpha, &beta] {
            scope.spawn(|| {
                let mut conn = server.connect_data();
                // Write in awkward chunk sizes so record frames straddle
                // socket reads.
                for chunk in text.as_bytes().chunks(1_777) {
                    conn.write_all(chunk).unwrap();
                }
            });
        }
        // Mid-stream control plane: totals while both writers are live.
        let reply = control.stats_until(|r| json_u64(r, "records").unwrap_or(0) > 0);
        assert_eq!(json_u64(&reply, "shards"), Some(3), "{reply}");
    });

    // Writers are done; wait for every record to drain, then inspect one
    // stream mid-window before shutting down.
    let reply = control.stats_until(|r| json_u64(r, "records") == Some(50_000));
    assert_eq!(json_u64(&reply, "streams"), Some(6), "{reply}");
    let keyed = control.request("STATS alpha0");
    assert!(keyed.contains("\"key\":\"alpha0\""), "{keyed}");
    assert_eq!(json_u64(&keyed, "seen"), Some(8_334), "{keyed}");
    assert!(keyed.contains("\"ledger\":["), "{keyed}");

    let served = server.shutdown(&mut control);

    // The reference: the same records through `khist watch --key-field`,
    // single-threaded, concatenated writer-by-writer (per-stream order is
    // what matters, and the key sets are disjoint).
    let mut watch = Command::new(env!("CARGO_BIN_EXE_khist"))
        .args([
            "watch",
            "-",
            "--key-field",
            "0",
            "--n",
            &N.to_string(),
            "--every",
            "2000",
            "--run",
            "uniformity",
            "--seed",
            "7",
            "--json",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn khist watch");
    let mut stdin = watch.stdin.take().unwrap();
    stdin.write_all(alpha.as_bytes()).unwrap();
    stdin.write_all(beta.as_bytes()).unwrap();
    drop(stdin);
    let watched = watch.wait_with_output().expect("watch exit");
    assert!(watched.status.success());

    let served = per_stream_jsonl(&served);
    let watched = per_stream_jsonl(&String::from_utf8(watched.stdout).unwrap());
    assert_eq!(
        served.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        ["alpha0", "alpha1", "alpha2", "beta0", "beta1", "beta2"],
    );
    for ((key, serve_lines), (_, watch_lines)) in served.iter().zip(&watched) {
        // 8 333–8 334 records per stream at every=2000: four complete
        // windows plus the flushed partial tail.
        assert_eq!(serve_lines.len(), 5, "stream {key}");
        assert_eq!(serve_lines, watch_lines, "stream {key} serve ≡ watch");
    }
}

#[test]
fn fleet_verb_matches_watch_fleet_byte_for_byte() {
    // 3 streams × 2 000 records at every=500: window boundaries land
    // exactly on the two write phases (2 then 4 complete windows per
    // stream, no partial tails), so both FLEET polls read a settled
    // rollup and the final one must equal watch --fleet's closing line.
    let keys = ["api", "web", "edge"];
    let mut phase1 = String::new();
    let mut phase2 = String::new();
    for i in 0..3_000usize {
        phase1.push_str(&format!("{} {}\n", keys[i % 3], (i * 7 + 1) % N));
        phase2.push_str(&format!("{} {}\n", keys[i % 3], (i * 11 + 2) % N));
    }

    let server = Server::start("fleet", 500, 3, Stdio::piped());
    let mut sub = Control::new(server.connect_control());
    let mut control = Control::new(server.connect_control());
    let ack = sub.request("SUB");
    assert!(ack.contains("\"subscribed\":true"), "{ack}");

    let mut data = server.connect_data();
    data.write_all(phase1.as_bytes()).unwrap();
    control.stats_until(|r| json_u64(r, "records") == Some(3_000));
    let mid = control.request("FLEET");
    assert!(FleetReport::is_fleet_line(&mid), "{mid}");
    let mid_report = FleetReport::from_json(mid.trim()).unwrap();
    assert_eq!(mid_report.streams, 3, "{mid}");
    assert_eq!(
        mid_report.windows_complete, 6,
        "2 windows per stream so far"
    );
    assert_eq!(mid_report.records_seen, 3_000);
    assert_eq!(
        mid_report.windows_partial, 0,
        "mid-windows are not rolled up"
    );

    data.write_all(phase2.as_bytes()).unwrap();
    drop(data);
    control.stats_until(|r| json_u64(r, "records") == Some(6_000));
    let fin = control.request("FLEET");
    let fin_report = FleetReport::from_json(fin.trim()).unwrap();
    assert_eq!(fin_report.windows_complete, 12);
    assert_eq!(fin_report.records_seen, 6_000);
    assert_ne!(fin.trim(), mid.trim(), "the rollup advanced between polls");

    // Shut down, then drain the subscription feed to EOF.
    let jsonl = server.shutdown(&mut control);
    let mut feed = String::new();
    sub.reader.read_to_string(&mut feed).unwrap();

    // stdout stays a pure per-stream window feed (per_stream_jsonl would
    // reject a fleet line; the explicit check makes the contract loud).
    assert!(jsonl.lines().all(|l| !FleetReport::is_fleet_line(l)));
    assert_eq!(per_stream_jsonl(&jsonl).len(), 3);

    // The subscriber saw interleaved fleet lines; the closing one is the
    // final poll, byte for byte (fleet lines carry no wall time).
    let fleet_lines: Vec<&str> = feed
        .lines()
        .filter(|l| FleetReport::is_fleet_line(l))
        .collect();
    assert!(fleet_lines.len() >= 2, "{feed}");
    assert_eq!(*fleet_lines.last().unwrap(), fin.trim());
    let windows = feed
        .lines()
        .filter(|l| !FleetReport::is_fleet_line(l))
        .filter(|l| l.contains("\"complete\":"))
        .count();
    assert_eq!(windows, 12, "the feed still carries every window line");

    // The reference: the same records through `khist watch --fleet`; its
    // closing rollup line must equal the server's final FLEET reply.
    let mut watch = Command::new(env!("CARGO_BIN_EXE_khist"))
        .args([
            "watch",
            "-",
            "--key-field",
            "0",
            "--n",
            &N.to_string(),
            "--every",
            "500",
            "--run",
            "uniformity",
            "--seed",
            "7",
            "--json",
            "--fleet",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn khist watch");
    let mut stdin = watch.stdin.take().unwrap();
    stdin.write_all(phase1.as_bytes()).unwrap();
    stdin.write_all(phase2.as_bytes()).unwrap();
    drop(stdin);
    let watched = watch.wait_with_output().expect("watch exit");
    assert!(watched.status.success());
    let watched = String::from_utf8(watched.stdout).unwrap();
    let closing = watched
        .lines()
        .rfind(|l| FleetReport::is_fleet_line(l))
        .expect("watch --fleet emits a closing rollup");
    assert_eq!(
        closing,
        fin.trim(),
        "serve FLEET ≡ watch --fleet, bit for bit"
    );
}

#[test]
fn bad_lines_and_disconnects_poison_only_their_own_connection() {
    let server = Server::start("isolation", 100, 2, Stdio::piped());
    let mut control = Control::new(server.connect_control());

    // A healthy long-lived producer.
    let mut good = server.connect_data();
    for i in 0..230usize {
        good.write_all(format!("good {}\n", (i * 3) % N).as_bytes())
            .unwrap();
    }

    // A connection that sends one valid record, then garbage: the reply
    // names the offending line, the connection is closed, the record
    // before the garbage survives.
    let mut bad = server.connect_data();
    bad.write_all(b"evil 5\nthis is not a record\n").unwrap();
    let mut reply = String::new();
    BufReader::new(bad.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    assert!(reply.starts_with("ERR line 2:"), "{reply}");
    let mut rest = Vec::new();
    bad.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server closes the poisoned connection");

    // A producer that disconnects mid-stream without ceremony.
    {
        let mut dropped = server.connect_data();
        for i in 0..150usize {
            dropped
                .write_all(format!("drop {}\n", (i * 5) % N).as_bytes())
                .unwrap();
        }
    }

    // Neither neighbor affects the healthy stream: it keeps writing and
    // everything that reached the engine is accounted for.
    control.stats_until(|r| json_u64(r, "records") == Some(381));
    for i in 0..50usize {
        good.write_all(format!("good {}\n", (i * 7) % N).as_bytes())
            .unwrap();
    }
    let reply = control.stats_until(|r| json_u64(r, "records") == Some(431));
    assert_eq!(json_u64(&reply, "streams"), Some(3), "{reply}");
    drop(good);

    let jsonl = server.shutdown(&mut control);
    let streams = per_stream_jsonl(&jsonl);
    let of = |key: &str| -> Vec<WindowReport> {
        jsonl
            .lines()
            .map(|l| WindowReport::from_json(l).unwrap())
            .filter(|w| w.stream.as_deref() == Some(key))
            .collect()
    };
    assert_eq!(
        streams.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        ["drop", "evil", "good"],
    );
    let good_windows = of("good");
    assert_eq!(good_windows.len(), 3, "280 records at every=100");
    assert!(good_windows[0].complete && good_windows[1].complete);
    assert_eq!(good_windows[2].seen, 80, "flushed tail");
    let drop_windows = of("drop");
    assert_eq!(drop_windows.len(), 2, "disconnected stream still reported");
    assert_eq!(
        drop_windows[1].seen, 50,
        "records up to the disconnect kept"
    );
    assert_eq!(
        of("evil").len(),
        1,
        "the record before the garbage survives"
    );
    assert_eq!(of("evil")[0].seen, 1);
}

#[test]
fn a_window_failing_in_the_final_drain_is_a_window_line_not_an_exit() {
    // Eight records of `a` complete one window whose eight records
    // cannot fill every lane of the l2 tester, so its analysis fails;
    // `b`'s one record is a partial tail too thin to analyze. The flush
    // deadline is out of reach, so the only drain is the one after EOF.
    let mut child = Command::new(env!("CARGO_BIN_EXE_khist"))
        .args(["serve", "--stdin", "--n", "16", "--every", "8"])
        .args([
            "--run",
            "l2,uniformity",
            "--seed",
            "0",
            "--flush-ms",
            "600000",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn khist serve");
    let input = "a 1\na 2\na 3\na 4\na 5\na 6\na 7\na 8\nb 3\n";
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(input.as_bytes()).unwrap();
    drop(stdin);
    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(output.status.success(), "serve exited: {stderr}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let windows: Vec<WindowReport> = stdout
        .lines()
        .map(|l| WindowReport::from_json(l).unwrap())
        .collect();
    let counts = |w: &WindowReport| (w.stream.clone().unwrap(), w.seen, w.complete);
    assert_eq!(
        windows.iter().map(counts).collect::<Vec<_>>(),
        [("a".into(), 8, true), ("b".into(), 1, false)],
        "{stdout}"
    );
    for window in &windows {
        assert!(window.reports.is_empty(), "{stdout}");
        assert_eq!(
            window.error.as_deref(),
            Some("bad parameter: need non-empty sample sets")
        );
    }
    assert_eq!(
        stderr,
        "served 9 records from 2 streams over 2 windows on 1 shard\n"
    );
}

#[test]
fn a_window_too_large_to_reserve_is_an_error_not_an_abort() {
    // At this span the testers' lanes need petabytes: more than any
    // 64-bit address space maps, whatever the host's overcommit policy.
    let every = ["--n", "256", "--every", "1000000000000000"];
    let run = |args: &[&str], input: &str| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_khist"))
            .args(args)
            .args(every)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn khist");
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(input.as_bytes()).unwrap();
        drop(stdin);
        let output = child.wait_with_output().unwrap();
        let text = |bytes: Vec<u8>| String::from_utf8(bytes).unwrap();
        (output.status, text(output.stdout), text(output.stderr))
    };
    let refused = "bad parameter: cannot reserve ";

    let (status, stdout, stderr) = run(&["watch", "-", "--json"], "1\n2\n3\n");
    assert_eq!(status.code(), Some(1), "watch: {status} {stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.starts_with(&format!("error: {refused}")), "{stderr}");

    // Both streams are refused; the error names the smaller key, and the
    // run stops there, as it does on a failed write.
    let (status, stdout, stderr) =
        run(&["serve", "--stdin", "--key-field", "0"], "a 1\nb 2\na 3\n");
    assert_eq!(status.code(), Some(1), "serve: {status} {stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert_eq!(
        stderr,
        format!(
            "error: stream 'a': {refused}7428571438811384 bytes for 14 sample lanes; shrink \
             the window or the sample budget\n"
        )
    );
}

/// `records` lines of key `key` with values from a 64-bit LCG, uniform on
/// `[0, 16)`.
fn lcg_lines(key: &str, records: usize) -> String {
    let mut state = 1u64;
    let mut text = String::new();
    for _ in 0..records {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        text.push_str(&format!("{key} {}\n", state >> 60));
    }
    text
}

#[test]
fn a_starved_window_is_one_window_line_wherever_batches_break() {
    // At these flags a window leaves an l2 lane empty about once in fifty,
    // whatever its values: stream `m`'s first window does, `a`'s does not
    // (its six-record tail is too thin), and two of `e`'s hundred do.
    // `watch` reads 4,096-record chunks and `serve` drains what each read
    // brought; either way every stream's lines equal those of a dedicated
    // monitor fed one window per call, and a window that fails there is a
    // window line with its `error`.
    let flags = "--key-field 0 --n 16 --every 64 --run l2,uniformity --seed 0";
    let run = |command: &[&str], input: &str| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_khist"))
            .args(command)
            .args(flags.split(' '))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn khist");
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(input.as_bytes()).unwrap();
        drop(stdin);
        let output = child.wait_with_output().unwrap();
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(output.status.success(), "{command:?}: {stderr}");
        String::from_utf8(output.stdout).unwrap()
    };
    // The standing batch those flags build.
    let batch = || -> Vec<Analysis> {
        vec![
            TestL2::k(8)
                .eps(0.1)
                .budget(L2TesterBudget { r: 7, m: 9 })
                .into(),
            Uniformity::eps(0.1)
                .budget(UniformityBudget { m: 64 })
                .into(),
        ]
    };
    // Every stream of `input` through a dedicated monitor, a window a call.
    let alone = |input: &str| {
        let mut streams: Vec<(&str, Vec<usize>)> = Vec::new();
        for (key, value) in input.lines().filter_map(|l| l.split_once(' ')) {
            let value = value.parse().unwrap();
            match streams.iter_mut().find(|(k, _)| *k == key) {
                Some((_, values)) => values.push(value),
                None => streams.push((key, vec![value])),
            }
        }
        let mut lines = Vec::new();
        for (key, values) in streams {
            let mut monitor = Monitor::builder(16)
                .seed(Engine::stream_seed(0, key))
                .stream(key)
                .tumbling(64)
                .analyses(batch())
                .build()
                .unwrap();
            for window in values.chunks(64) {
                lines.extend(monitor.ingest(window).unwrap());
            }
            lines.extend(monitor.flush());
        }
        let lines: Vec<String> = lines.iter().map(WindowReport::to_json).collect();
        per_stream_jsonl(&lines.join("\n"))
    };

    let mut starving = String::new();
    for i in 0..70 {
        starving.push_str(&format!("a {}\n", (i * 7) % 16));
        if i < 64 {
            starving.push_str(&format!("m {}\n", (i * 5) % 16));
        }
    }
    let found = lcg_lines("e", 6_400);
    for (input, streams, windows, failures) in [(&starving, 2, 3, 2), (&found, 1, 100, 2)] {
        let watched = run(&["watch", "-", "--json"], input);
        let served = run(&["serve", "--stdin"], input);
        assert_eq!(watched.lines().count(), windows, "{watched}");
        let want = alone(input);
        assert_eq!(per_stream_jsonl(&watched), want, "watch");
        assert_eq!(per_stream_jsonl(&served), want, "serve");
        assert_eq!(want.len(), streams);
        let failed: Vec<&String> = want
            .iter()
            .flat_map(|(_, lines)| lines)
            .filter(|l| l.contains(r#""error":"#))
            .collect();
        assert_eq!(failed.len(), failures, "{failed:?}");
        let reason =
            r#","reports":[],"drift":null,"error":"bad parameter: need non-empty sample sets"}"#;
        assert!(failed.iter().all(|l| l.ends_with(reason)), "{failed:?}");
    }
}

#[test]
fn serve_removes_its_sockets_when_it_stops_on_an_error() {
    // Stdout is a full device, so the first window line fails to write and
    // serve stops with exit 1; its socket files go with it all the same.
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .unwrap();
    let mut server = Server::start("full", 2, 1, full.into());
    server.connect_data().write_all(b"a 1\na 2\na 3\n").unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.child.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < deadline, "serve never stopped");
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    let mut pipe = server.child.stderr.take().unwrap();
    pipe.read_to_string(&mut stderr).unwrap();
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: write to sink failed: "),
        "{stderr}"
    );
    assert!(!server.data.exists(), "data socket file left behind");
    assert!(!server.control.exists(), "control socket file left behind");
}
