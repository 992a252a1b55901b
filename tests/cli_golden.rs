//! Pins the `khist` binary's bytes: exit code, stdout and stderr of a
//! fixed table of invocations, compared against `tests/golden/<case>.txt`.
//!
//! The inputs are written to a fresh temp directory by an inline LCG, so
//! they never change, and every invocation runs inside that directory with
//! relative paths, so no temp path reaches the output. Two things vary run
//! to run and are masked before comparing: the `"wall_seconds"` value of
//! every JSON report, and the seconds column of `analyze`'s ledger.
//!
//! The table covers every subcommand in human and `--json` form, both
//! un-keyed watch modes, keyed `watch --fleet` at one and three shards,
//! `serve --stdin`, every flag rejection the parser and `dispatch`
//! make, and a keyed stream failing mid-input (human and JSON).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// One invocation: golden file stem, whitespace-separated arguments, and
/// the input file (if any) piped to stdin.
struct Case {
    name: &'static str,
    args: &'static str,
    stdin: Option<&'static str>,
}

const fn case(name: &'static str, args: &'static str) -> Case {
    Case {
        name,
        args,
        stdin: None,
    }
}

const fn piped(name: &'static str, args: &'static str, input: &'static str) -> Case {
    Case {
        name,
        args,
        stdin: Some(input),
    }
}

#[rustfmt::skip]
const CASES: &[Case] = &[
    case("help", "help"),
    case("no_args", ""),
    case("learn", "learn records.txt --k 2 --eps 0.15 --n 64 --seed 7"),
    case("learn_json", "learn records.txt --k 2 --eps 0.15 --n 64 --seed 7 --json"),
    case("learn_defaults", "learn records.txt --k 2 --eps 0.2"),
    case("test_l2", "test records.txt --k 2 --eps 0.3 --n 64 --seed 7"),
    case("test_l2_json", "test records.txt --k 2 --eps 0.3 --n 64 --seed 7 --json"),
    case("test_l1", "test records.txt --norm l1 --k 2 --eps 0.3 --n 64 --seed 7"),
    case("test_l1_json", "test records.txt --norm l1 --k 2 --eps 0.3 --n 64 --seed 7 --json"),
    case("analyze", "analyze records.txt --k 2 --eps 0.2 --n 64 --seed 7"),
    case("analyze_json", "analyze records.txt --k 2 --eps 0.2 --n 64 --seed 7 --json"),
    case("analyze_runs", "analyze records.txt --k 2 --eps 0.3 --run L1,monotone,uniformity"),
    case("analyze_learn", "analyze records.txt --k 2 --eps 0.15 --n 64 --seed 7 --run learn"),
    case("analyze_l1_json", "analyze records.txt --k 2 --eps 0.3 --n 64 --seed 7 --run l1 --json"),
    case("summarize", "summarize records.txt"),
    case("summarize_json", "summarize records.txt --n 80 --json"),
    case("watch_tumbling", "watch records.txt --every 5000 --k 2 --eps 0.25 --seed 7"),
    case(
        "watch_tumbling_json",
        "watch records.txt --every 5000 --k 2 --eps 0.25 --n 64 --seed 7 --json",
    ),
    case(
        "watch_sliding_json",
        "watch records.txt --window Sliding --every 2500 --k 2 --eps 0.25 --n 64 --seed 7 --json",
    ),
    piped(
        "watch_stdin",
        "watch - --every 4000 --n 64 --k 2 --eps 0.25 --run l2,uniformity",
        "records.txt",
    ),
    case(
        "watch_keyed_human",
        "watch keyed.txt --key-field 0 --every 2000 --n 64 --k 2 --eps 0.25 --seed 7",
    ),
    case(
        "watch_fleet_shards1_json",
        "watch keyed.txt --key-field 0 --shards 1 --fleet --every 2000 --n 64 --k 2 --eps 0.25 \
         --seed 7 --json",
    ),
    case(
        "watch_fleet_shards3_json",
        "watch keyed.txt --key-field 0 --shards 3 --fleet --every 2000 --n 64 --k 2 --eps 0.25 \
         --seed 7 --json",
    ),
    case(
        "watch_fleet_shards3_human",
        "watch keyed.txt --key-field 0 --shards 3 --fleet --every 2000 --n 64 --k 2 --eps 0.25 \
         --seed 7",
    ),
    // Stream `a`'s first window starves an l2 lane: it is reported with
    // its counts and the reason, as is `b`'s too-thin tail, no usage text
    // follows, and the run exits 0.
    piped(
        "watch_keyed_stream_error",
        "watch - --key-field 0 --n 16 --every 8 --run l2,uniformity --seed 0",
        "failing.txt",
    ),
    // The same in JSON: byte for byte what `serve --stdin` prints for it.
    piped(
        "watch_keyed_stream_error_json",
        "watch - --key-field 0 --n 16 --every 8 --run l2,uniformity --seed 0 --json",
        "failing.txt",
    ),
    // One drain at EOF (the batch and the flush timer both exceed the
    // input), so the window interleaving does not depend on pipe timing.
    piped(
        "serve_stdin",
        "serve --stdin --n 64 --every 2000 --k 2 --eps 0.25 --seed 7 --batch 1000000 \
         --flush-ms 600000",
        "keyed.txt",
    ),
    case("reject_unknown_subcommand", "frobnicate records.txt"),
    case("reject_missing_path", "learn --k 2"),
    case("reject_extra_path", "learn records.txt keyed.txt"),
    case("reject_bad_k", "learn records.txt --k two"),
    case("reject_missing_k_value", "learn records.txt --k"),
    case("reject_unknown_flag", "learn records.txt --bogus 1"),
    case("reject_norm_l3", "test records.txt --norm l3"),
    case("reject_bad_run", "analyze records.txt --run learn,bogus"),
    case("reject_window_diagonal", "watch records.txt --window diagonal"),
    case("reject_every_zero", "watch records.txt --every 0"),
    case("reject_unkeyed_shards", "watch records.txt --shards 2 --n 64"),
    case("reject_unkeyed_fleet", "watch records.txt --fleet --n 64"),
    case("reject_shards_zero", "watch keyed.txt --key-field 0 --shards 0"),
    case("reject_key_field_two", "watch keyed.txt --key-field 2 --n 64"),
    case("reject_keyed_watch_without_n", "watch keyed.txt --key-field 0"),
    case("reject_stdin_watch_without_n", "watch -"),
    case("reject_keyed_input_unkeyed", "watch keyed.txt --n 64"),
    case("reject_unkeyed_input_keyed", "watch records.txt --key-field 0 --n 64"),
    case("reject_serve_path", "serve records.txt --n 64"),
    case("reject_serve_n_zero", "serve --n 0"),
    case("reject_serve_without_n", "serve"),
    case("reject_batch_zero", "serve --n 64 --batch 0"),
    case("reject_conn_buffer_zero", "serve --n 64 --conn-buffer 0"),
    case("reject_budget_zero", "serve --n 64 --budget 0"),
    case("reject_out_of_domain", "learn records.txt --n 32"),
    case("reject_missing_file", "learn missing.txt"),
];

/// The golden files' directory.
fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// A 64-bit LCG (Knuth's MMIX constants); `next` returns its top 32 bits.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 32
    }
}

/// Writes the three inputs: `records.txt` (20 000 un-keyed records over
/// `[0, 64)`, three quarters in `[0, 16)`, after a comment and a blank
/// line), `keyed.txt` (12 000 `key value` lines over three keys) and
/// `failing.txt` (eight records of stream `a`, a window too small for the
/// testers' lanes at `--every 8`, then one record of stream `b`).
fn write_inputs(dir: &Path) {
    let mut lcg = Lcg(17);
    let mut records = String::from("# golden input\n\n");
    for _ in 0..20_000 {
        let value = if lcg.next() % 4 < 3 {
            lcg.next() % 16
        } else {
            16 + lcg.next() % 48
        };
        records.push_str(&format!("{value}\n"));
    }
    std::fs::write(dir.join("records.txt"), records).unwrap();
    let keys = ["api", "web", "batch"];
    let mut keyed = String::new();
    for _ in 0..12_000 {
        let key = keys[(lcg.next() % 3) as usize];
        keyed.push_str(&format!("{key} {}\n", lcg.next() % 64));
    }
    std::fs::write(dir.join("keyed.txt"), keyed).unwrap();
    let failing = "a 1\na 2\na 3\na 4\na 5\na 6\na 7\na 8\nb 3\n";
    std::fs::write(dir.join("failing.txt"), failing).unwrap();
}

/// Runs one case in `dir` and renders its exit code, stdout and stderr.
fn run(dir: &Path, case: &Case) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_khist"))
        .args(case.args.split_whitespace())
        .current_dir(dir)
        .stdin(if case.stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn khist");
    let feeder = case.stdin.map(|input| {
        let bytes = std::fs::read(dir.join(input)).unwrap();
        let mut stdin = child.stdin.take().unwrap();
        // A consumer that exits early closes the pipe; that is its output
        // to pin, not a test failure.
        std::thread::spawn(move || drop(stdin.write_all(&bytes)))
    });
    let output = child.wait_with_output().expect("khist runs");
    if let Some(feeder) = feeder {
        feeder.join().unwrap();
    }
    let code = output
        .status
        .code()
        .map_or_else(|| "signal".to_string(), |c| c.to_string());
    format!(
        "exit: {code}\n--- stdout\n{}--- stderr\n{}",
        mask(&String::from_utf8(output.stdout).unwrap()),
        mask(&String::from_utf8(output.stderr).unwrap()),
    )
}

/// Masks the two timing fields: each `"wall_seconds":<number>` value and
/// the trailing `<seconds>s` of an `analyze` ledger line.
fn mask(text: &str) -> String {
    const WALL: &str = "\"wall_seconds\":";
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(WALL) {
        let (head, tail) = rest.split_at(at + WALL.len());
        out.push_str(head);
        out.push('_');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit() || "+-.eE".contains(c));
    }
    out.push_str(rest);
    out.split_inclusive('\n')
        .map(|line| {
            const LEDGER: &str = " samples  ";
            match line.rfind(LEDGER) {
                Some(at) if line.trim_end().ends_with('s') => {
                    let seconds = line[at + LEDGER.len()..].trim_end().trim_end_matches('s');
                    if seconds.parse::<f64>().is_ok() {
                        let newline = if line.ends_with('\n') { "\n" } else { "" };
                        format!("{}_s{newline}", &line[..at + LEDGER.len()])
                    } else {
                        line.to_string()
                    }
                }
                _ => line.to_string(),
            }
        })
        .collect()
}

/// The first line where `expected` and `actual` differ, for the failure
/// message.
fn first_difference(expected: &str, actual: &str) -> String {
    let mut lines = expected.lines().zip(actual.lines()).enumerate();
    match lines.find(|(_, (e, a))| e != a) {
        Some((i, (e, a))) => format!("line {}:\n  expected: {e}\n  actual:   {a}", i + 1),
        None => format!(
            "line counts differ: expected {}, actual {}",
            expected.lines().count(),
            actual.lines().count()
        ),
    }
}

#[test]
fn cli_bytes_match_golden_files() {
    let dir = std::env::temp_dir().join(format!("khist-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    write_inputs(&dir);
    let mut failures = Vec::new();
    for case in CASES {
        let actual = run(&dir, case);
        let path = golden_dir().join(format!("{}.txt", case.name));
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == actual => {}
            Ok(expected) => failures.push(format!(
                "{}: {}",
                case.name,
                first_difference(&expected, &actual)
            )),
            Err(e) => failures.push(format!("{}: {}: {e}", case.name, path.display())),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        failures.is_empty(),
        "{} of {} cases differ from tests/golden:\n{}",
        failures.len(),
        CASES.len(),
        failures.join("\n")
    );
}

#[test]
fn every_golden_file_has_a_case() {
    let mut names: Vec<String> = std::fs::read_dir(golden_dir())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut expected: Vec<String> = CASES.iter().map(|c| format!("{}.txt", c.name)).collect();
    expected.sort();
    assert_eq!(names, expected);
}
