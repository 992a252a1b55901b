"""Pure helpers of the khist end-to-end benchmark: the workload table,
the percentile rules, window arithmetic, report normalization, and the
clocks that turn raw timestamps into latencies.

Nothing here starts a process, so all of it is unit-tested:

    python3 -m unittest discover -s perfbench/tests
"""

import hashlib
import math
import re
import statistics

#: Domain size of every workload (`--n 256`). Values are uniform over it,
#: so every tester reject is a false alarm.
N = 256
#: Key specs are the driver's `gen --keys`: `even:COUNT` draws each
#: record's key uniformly; `zipf:START:TOTAL:S` draws Zipf(S) ranks from a
#: universe that grows from START to TOTAL keys over the input, so new keys
#: keep debuting. `claims` are the shares of traced wall time a workload
#: exists to show, which its traced run checks. See README.md for why each
#: workload exists.
WORKLOADS = {
    "watch-default": dict(
        mode="watch", every=1000, shards=1, runs=None, fleet=False,
        keys="even:24", records=60_000, claims={"greedy.share": (0.9, 1.0)},
    ),
    "watch-testers": dict(
        mode="watch", every=200, shards=2, runs="l2,uniformity", fleet=True,
        keys="zipf:4000:16000:1.0", records=2_000_000, claims={"analyses.share": (0.0, 0.1)},
        sibling="watch-testers-1shard",
    ),
    "watch-testers-1shard": dict(
        mode="watch", every=200, shards=1, runs="l2,uniformity", fleet=True,
        keys="zipf:4000:16000:1.0", records=2_000_000, claims={"analyses.share": (0.0, 0.1)},
        sibling="watch-testers",
    ),
    # The load sends `rate * --seconds` records. A p90 needs at least 100
    # complete windows, which at this rate takes 40 seconds.
    "serve-default": dict(
        mode="serve", every=1000, shards=1, runs=None, fleet=False,
        keys="zipf:100:100:1.0", rate=3_900, flush_ms=50, poll_hz=47,
        claims={"greedy.share": (0.9, 1.0)},
    ),
}

#: Units of every metric the benchmark prints. BENCHMARK.json declares a
#: subset; a test keeps the two in agreement.
UNITS = {
    "records_per_s": "rec/s",
    "cpu_s_per_mrec": "s/Mrec",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "window_latency_p50_ms": "ms",
    "window_latency_p90_ms": "ms",
    "control_rtt_p50_ms": "ms",
    "control_rtt_p90_ms": "ms",
    "shutdown_s": "s",
    "failed_ops_frac": "ratio",
    "window_latency_samples": "count",
    "control_rtt_samples": "count",
    "app.read_ns_per_rec": "ns",
    "app.parse_ns_per_rec": "ns",
    "app.render_us_per_window": "us",
    "app.write_us_per_window": "us",
    "engine.ingest_batch_ms_p50": "ms",
    "engine.ingest_batch_ms_p90": "ms",
    "engine.self_ns_per_rec": "ns",
    "engine.flush_ms": "ms",
    "engine.debuts": "count",
    "engine.calls": "count",
    "engine.windows_complete": "count",
    "engine.windows_partial": "count",
    "oracle.push_ns_per_rec": "ns",
    "oracle.freeze_us_per_window": "us",
    "api.batch_ms_per_window": "ms",
    "greedy.learn_ms_p50": "ms",
    "greedy.learn_ms_p90": "ms",
    "greedy.candidates_per_window": "count",
    "greedy.ns_per_candidate": "ns",
    "greedy.compress_us_per_window": "us",
    "tester.l2_us_per_window": "us",
    "tester.l2_probes_per_window": "count",
    "uniformity.us_per_window": "us",
    "drift.us_per_window": "us",
    "fleet.report_us": "us",
    "uniformity.reject_frac": "ratio",
    "tester.l2_reject_frac": "ratio",
    "drift.alarm_frac": "ratio",
    "greedy.share": "ratio",
    "analyses.share": "ratio",
    "serve.windows_per_drain_p90": "count",
    "serve.backlog_records_p90": "count",
    "serve.generator_lag_p90_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


#: The program's own `--seed` (its default). The workload seed draws only
#: the input values, which the program receives, as a user's would be.
#: The program seed picks which reservoir lane each record of a stream
#: goes to, whatever the values; some seeds leave a lane of an l2 window
#: empty and stop `watch` with "need non-empty sample sets" (1002 does on
#: `watch-testers`). With this one fixed, no workload seed can fail so.
PROGRAM_SEED = 0


def khist_flags(spec):
    """The analysis flags `watch --key-field` and `serve` share."""
    flags = [
        "--key-field", "0", "--n", str(N), "--every", str(spec["every"]),
        "--shards", str(spec["shards"]), "--seed", str(PROGRAM_SEED),
    ]
    if spec["runs"]:
        flags += ["--run", spec["runs"]]
    return flags


def percentile(values, p):
    """Nearest-rank percentile `p` (0-100) of `values`; None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values):
    """The median of `values`; None when empty."""
    return statistics.median(values) if values else None


def tail_percentile(samples):
    """The highest whole percentile with at least ten of `samples` beyond
    it (None below eleven samples). A p90 needs at least 100 samples."""
    best = None
    for p in range(1, 100):
        if samples * (100 - p) >= 1000:
            best = p
    return best


def grouped_percentiles(runs, percentiles, least=100):
    """`({p: value}, smallest group)` over the samples of repeated runs of
    one input: consecutive runs are pooled into groups of at least `least`
    samples (a short remainder joins the last group), and each percentile
    is the median of the groups' nearest-rank percentiles. A run slowed by
    another tenant then moves one group's tail, not the reported tail."""
    groups, pending = [], []
    for samples in runs:
        pending += samples
        if len(pending) >= least:
            groups.append(pending)
            pending = []
    if pending:
        if groups:
            groups[-1] += pending
        else:
            groups.append(pending)
    if not groups or not groups[0]:
        return {p: None for p in percentiles}, 0
    values = {p: median([percentile(group, p) for group in groups]) for p in percentiles}
    return values, min(len(group) for group in groups)


def expected_windows(streams, every):
    """`{key: (complete, partial)}` windows each stream must report, from
    the generator's `[key, records]` pairs."""
    return {key: (count // every, int(count % every > 0)) for key, count in streams}


def completions(meta, field):
    """`{(key, window): value}` over the sidecar's completions, `field`
    being `"record"` (its index) or `"byte_end"` (offset past its line)."""
    column = {"record": 0, "byte_end": 1}[field]
    keys = [key for key, _ in meta["streams"]]
    return {(keys[row[2]], row[3]): row[column] for row in meta["completions"]}


WALL = re.compile(rb',"wall_seconds":[^,}\]]*')
WINDOW = re.compile(rb'^\{"stream":"((?:[^"\\]|\\.)*)","window":(\d+),')


def normalize(line):
    """A report line without its `wall_seconds` fields, the one thing
    that differs between equal reports."""
    return WALL.sub(b"", line)


def window_key(line):
    """`(stream, window, complete)` of a window line; None for any other
    line (fleet rollups, replies)."""
    match = WINDOW.match(line)
    if not match:
        return None
    head = line[match.end():match.end() + 160]
    return match.group(1).decode(), int(match.group(2)), b'"complete":true' in head


def per_stream(lines):
    """Normalized window lines per stream, each stream in window order."""
    streams = {}
    for line in lines:
        key = window_key(line)
        if key:
            streams.setdefault(key[0], []).append(normalize(line))
    return streams


def report_digest(lines):
    """sha256 of every window report without `wall_seconds`, streams in
    key order and each stream's windows in order: the same for any
    interleaving of the same per-stream reports (any shard count, any
    serve batching)."""
    digest = hashlib.sha256()
    for _, rows in sorted(per_stream(lines).items()):
        for row in rows:
            digest.update(row)
            digest.update(b"\n")
    return digest.hexdigest()


def split_lines(chunks):
    """`[(arrival, line)]` from `[(arrival, bytes)]` reads: a line arrives
    with the read that completes it."""
    lines, partial = [], b""
    for arrival, chunk in chunks:
        *complete, partial = (partial + chunk).split(b"\n")
        lines += [(arrival, line) for line in complete]
    return lines


def watch_latencies(lines, writes, block, byte_ends):
    """Window latencies of one piped `watch` run: from the end of the
    stdin write that handed over the window's completing record to the
    arrival of the window's line. `writes[j]` is the `(start, end)` of the
    write of bytes `[j * block, (j + 1) * block)`."""
    latencies = []
    for arrival, line in lines:
        key = window_key(line)
        if key and key[2]:
            end = byte_ends[(key[0], key[1])]
            latencies.append(arrival - writes[(end - 1) // block][1])
    return latencies


def residual_waits(writes, start, stop, period):
    """Input round trips of a piped `watch` run, probed every `period`
    seconds from `start` to `stop`: a probe at t waits until the next
    stdin write completes, which is how long a producer arriving at t
    waits for watch to take input. `writes` are the feeder's consecutive
    `(start, end)` write times."""
    waits, j, t = [], 0, start
    while t < stop:
        while j < len(writes) and writes[j][1] <= t:
            j += 1
        if j == len(writes):
            break
        waits.append(writes[j][1] - t)
        t += period
    return waits


def classify(line, after_window):
    """What a line on serve's control connection is: `window`; `rollup`
    (the fleet line SUB pushes after each drain that completed windows);
    `stats` or `fleet` (poll replies); `ack` (SUB and SHUTDOWN
    acknowledgements); or `error`.

    A FLEET reply and a rollup are the same bytes; position tells them
    apart. Serve queues a reply when it reads the request, before any
    drain of that reactor turn, and pushes a rollup right after each
    drain's window lines, so a fleet line right after a window line is a
    rollup."""
    if line.startswith(b'{"stream":'):
        return "window"
    if line.startswith(b'{"fleet":true'):
        return "rollup" if after_window else "fleet"
    if line.startswith(b'{"streams":'):
        return "stats"
    if line.startswith((b'{"subscribed":', b'{"shutting_down":')):
        return "ack"
    return "error"
