#![forbid(unsafe_code)]
//! `khist serve`: a single-threaded async keyed-ingest server over the
//! [`Engine`](khist_core::api::Engine).
//!
//! The library crates compute per-window verdicts from sub-linear
//! samples; this crate turns them into a *process you point traffic at*.
//! One reactor thread multiplexes every source — Unix-socket connections
//! and stdin — over the vendored [`polling`] readiness shim (`poll(2)`;
//! no network crates, no thread-per-connection), frames `key value`
//! lines, and drains accumulated records into
//! [`Engine::ingest_batch`](khist_core::api::Engine::ingest_batch) on a
//! size-or-deadline trigger. Completed windows stream out as JSONL — the
//! same lines `khist watch --key-field --json` emits, bit for bit per
//! stream: both front ends run the one keyed
//! [`Driver`](protocol::Driver), and differ only in their input loop and
//! in where lines go.
//!
//! # Error isolation
//!
//! A malformed line (wrong field count, non-integer value, a record
//! outside the declared domain) poisons **only its own connection**: the
//! producer gets one `ERR line <n>: …` reply and the connection closes;
//! every other connection's streams are untouched. A mid-stream
//! disconnect keeps everything the connection already delivered.
//!
//! A failing window is a window, under the driver shared with keyed
//! `khist watch`: a window whose analysis fails (a tester lane its
//! sub-linear sample left empty, say) is a window line like any other,
//! with its counts and the reason in `error`, on the feed and to
//! subscribers. It costs its stream that window and nothing more,
//! whichever drain it lands in. An engine error (a pane whose lane
//! reservation the allocator refuses) delivers none of its call's windows,
//! so it stops the server with exit 1, as a failed write to the main
//! sink does; on every way out, the server removes its socket files and
//! puts stdin back in blocking mode.
//!
//! # Backpressure
//!
//! Buffering is bounded in two places. Each connection may hold at most
//! [`ServerConfig::conn_buffer`] bytes of unframed input (a longer line
//! is a protocol error). Across connections, at most
//! [`ServerConfig::global_budget`] bytes of parsed-but-uningested
//! records accumulate; when the budget fills mid-iteration the reactor
//! parks the remaining readable connections (stops reading them — the
//! kernel socket buffer, and eventually the producer's `write`, absorb
//! the stall) and drains into the engine before reading on.
//!
//! Records reach the engine only at a drain, so the reactor does not
//! wake for each one. After a read that found records, data connections
//! are not read again for about the time 64 more records take to arrive
//! at the rate just seen: at most 20 ms, none under a millisecond, and
//! never past the flush deadline. When a hold ends each is read until it
//! would block, so a deadline drain takes everything delivered by then.
//! A trickle costs a few wakeups per flush period rather than one per
//! record, and a hold ends long before a steady producer could fill its
//! socket buffer. `SHUTDOWN` reads every open data connection first,
//! then drains and flushes the tails. The final flush of replies and
//! feed lines is bounded: it never blocks, and it drops a connection
//! that accepts no bytes for one second.
//!
//! # Control plane
//!
//! A second Unix socket accepts line-oriented control requests:
//!
//! | request | reply |
//! |---------|-------|
//! | `STATS` | one JSON line: fleet totals + per-stream `seen` in debut order |
//! | `STATS <key>` | one JSON line: a mid-window snapshot (the standing batch run on the partial window) + the stream's sample ledger |
//! | `SUB` | subscribes the connection to the JSONL window feed, fleet rollup lines included |
//! | `FLEET` | one `{"fleet":true,…}` JSON line: the mergeable fleet rollup (`khist watch --fleet`'s closing line, byte for byte) |
//! | `SHUTDOWN` | reads what the data connections already delivered, flushes every stream's partial tail (debut order), then exits |
//!
//! The fleet rollup never appears on the main JSONL sink — stdout stays
//! a pure per-stream window feed. Subscribers receive a fleet line after
//! every drain that completed windows and one closing line after the
//! tail flush; one-shot readers poll `FLEET` instead.
//!
//! # Threading and clocks
//!
//! The reactor is one thread and owns the crate's **only** wall-clock
//! read ([`reactor`]'s `clock` fn) — khist-lint's `wall-clock` rule
//! budgets `crates/serve` exactly that one `Instant::now` call site, and
//! its `thread-discipline` rule keeps the crate free of `thread::spawn`.
//! Determinism therefore degrades gracefully: batch *boundaries* depend
//! on arrival timing, but per-stream window contents and reports do not
//! (windows are record-counted, never timed).

mod conn;
pub mod protocol;
pub mod reactor;

pub use reactor::{run, ServerConfig, ServerSummary};
