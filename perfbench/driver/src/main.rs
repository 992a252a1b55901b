//! `perfbench-driver`: the compiled half of the khist end-to-end benchmark.
//!
//! `perfbench/run.py` runs the `khist` binary as a separate process and
//! calls this driver for the work that needs the repository's own types:
//!
//! ```text
//! perfbench-driver gen   --seed S --records R --n N --every E --keys SPEC --out FILE --meta FILE
//! perfbench-driver check --jsonl FILE
//! perfbench-driver trace --input FILE --cli FILE --sink FILE --n N --every E --shards S
//!                        --chunk C --seed S [--fleet]
//! ```
//!
//! * `gen` writes a workload's seeded input and its sidecar ([`gen`]);
//! * `check` parses a JSONL capture with the program's parsers ([`check`]);
//! * `trace` times a replay of the input through each layer ([`trace`]).
//!
//! Each command prints one JSON object on stdout.

#![forbid(unsafe_code)]

mod check;
mod gen;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::str::FromStr;

use serde::{Serialize, Value};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((command, rest)) => Flags::parse(rest).and_then(|flags| match command.as_str() {
            "gen" => gen::run(&flags),
            "check" => check::run(&flags),
            "trace" => trace::run(&flags),
            other => Err(format!("unknown command {other}")),
        }),
        None => Err("usage: perfbench-driver gen|check|trace [--name value ...]".into()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench-driver: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `--name value` options and bare `--name` switches.
pub struct Flags(BTreeMap<String, Option<String>>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = BTreeMap::new();
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --name, got {arg}"))?;
            let value = args.next_if(|next| !next.starts_with("--")).cloned();
            flags.insert(name.to_string(), value);
        }
        Ok(Flags(flags))
    }

    /// The text of `--name`.
    pub fn text(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .and_then(|value| value.as_deref())
            .ok_or_else(|| format!("missing --{name}"))
    }

    /// The value of `--name`, parsed.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.text(name)?
            .parse()
            .map_err(|_| format!("bad value for --{name}"))
    }

    /// Whether the switch `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// A JSON number, or `null` for a missing or non-finite value (the JSON
/// writer refuses non-finite floats).
pub fn number(value: Option<f64>) -> Value {
    match value {
        Some(x) if x.is_finite() => x.serialize(),
        _ => Value::Null,
    }
}

/// Renders a JSON value as one line.
pub fn to_json(value: &Value) -> Result<String, String> {
    serde::json::to_string(value).map_err(|e| e.to_string())
}
