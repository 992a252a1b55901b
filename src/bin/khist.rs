//! `khist` — command-line k-histogram learning/testing from record files.
//!
//! ```text
//! khist learn     records.txt --k 8 --eps 0.1 --seed 7 [--json]
//! khist test      records.txt --k 8 --eps 0.2 --norm l1 [--json]
//! khist analyze   records.txt --k 8 --run learn,l2,uniformity [--json]
//! khist watch     -           --every 100000 --n 1024 [--window sliding] [--json]
//! khist serve     --n 1024 --socket /run/khist.sock --control /run/khist-ctl.sock
//! khist summarize records.txt
//! ```
//!
//! `learn`/`test`/`analyze` stream the file through a `RecordFileOracle`
//! (constant memory in the file length); `--seed` fixes the reservoir
//! subsample so runs are reproducible. `analyze` serves its whole batch
//! from ONE shared sample draw — a single pass over the file — and
//! `--json` emits the structured serde `Report`(s). `watch` is the
//! push-based dual: it ingests an unbounded stream (`-` = stdin) into a
//! windowed `Monitor` and emits a report — the analysis batch plus an
//! `ℓ₂` drift check against the previous window — every `--every`
//! records, in bounded memory. `serve` runs keyed watch as a long-lived
//! process: a single-threaded reactor multiplexes Unix-socket and stdin
//! producers into the sharded engine and serves `STATS` snapshot/ledger
//! queries on a control socket, with per-window JSONL on stdout. All
//! logic lives (and is tested) in [`khist::app`] and `khist_serve`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match khist::app::parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            // A flag error: show how the command line should look.
            eprintln!("error: {message}");
            eprintln!("{}", khist::app::usage());
            return ExitCode::FAILURE;
        }
    };
    match khist::app::dispatch(command) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
