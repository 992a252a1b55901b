#!/usr/bin/env python3
"""End-to-end benchmark of keyed `khist watch` and `khist serve`.

Run from the repository root:

    python3 perfbench/run.py --workload watch-default --seed 1 --seconds 40 --trace 0

It builds the release `khist` binary and the benchmark's driver
(`perfbench/driver`), generates the workload's input from the seed before
any timing starts, runs `khist` as a separate process, checks its outputs,
and prints every metric by name with its unit. The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics BENCHMARK.json declares with
`--trace 0`, its per-layer metrics with `--trace 1` (a separate run that
replays the input through each layer's public functions). See
perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import benchlib
import loadgen

HERE = os.path.dirname(os.path.abspath(__file__))

#: Spawns whose median is `setup_s`: before each `watch` invocation, and
#: before and again after a serve load, so that they span the run rather
#: than one moment of it.
WATCH_SETUPS, SERVE_SETUPS = 8, 5
#: Fewest `watch` invocations a run takes medians over.
MIN_INVOCATIONS = 3
#: Seconds any one process may run before it is killed (and fails).
TIMEOUT = 150
#: A serve run whose generator ran later than this (p90, seconds) is
#: invalid: it is discarded and measured once more.
LAG_BOUND = 0.02
#: Per-layer self times must cover this share of the traced wall time.
COVERAGE_FLOOR = 0.9


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Ops:
    """Attempted and failed operations. A failure is a record not
    acknowledged, an ERR reply, an unanswered control request, a missing
    or malformed window, a non-zero exit, or a timeout."""

    def __init__(self):
        self.attempted = self.failed = 0

    def add(self, attempted, failed=0):
        self.attempted += attempted
        self.failed += min(failed, attempted)


class Run:
    """One benchmark run: its workload, binaries, and scratch directory."""

    def __init__(self, args, khist, driver, work):
        self.args, self.khist, self.driver, self.work = args, khist, driver, work
        self.spec = benchlib.WORKLOADS[args.workload]
        self.seed = args.seed
        self.ops, self.checks, self.values, self.notes = Ops(), {}, {}, []

    def path(self, name):
        return os.path.join(self.work, name)

    def call_driver(self, command, *args):
        proc = subprocess.run([self.driver, command, *map(str, args)], capture_output=True,
                              timeout=TIMEOUT, check=False)
        if proc.returncode:
            raise BenchError(f"driver {command} failed: {proc.stderr.decode().strip()}")
        return json.loads(proc.stdout)

    def generate(self, records):
        """Writes the workload's input; returns `(path, bytes, sidecar)`."""
        spec = self.spec
        path, meta = self.path("input.txt"), self.path("input.meta.json")
        self.call_driver("gen", "--seed", self.seed, "--records", records, "--n", benchlib.N,
                         "--every", spec["every"], "--keys", spec["keys"],
                         "--out", path, "--meta", meta)
        with open(path, "rb") as f:
            data = f.read()
        with open(meta) as f:
            return path, data, json.load(f)

    def check_capture(self, lines, meta, name):
        """The driver's parse check plus the window counts the generator's
        per-stream record counts imply. Returns the failed windows."""
        capture = self.path(name)
        with open(capture, "wb") as f:
            f.writelines(line + b"\n" for line in lines)
        summary = self.call_driver("check", "--jsonl", capture)
        expected = benchlib.expected_windows(meta["streams"], self.spec["every"])
        found = {key: (complete, partial) for key, complete, partial in summary["streams"]}
        self.checks["windows_parse"] = summary["errors"] == 0
        self.checks["window_counts"] = found == expected
        self.notes += [f"check: {m}" for m in summary["messages"]]
        missing = sum(c + p for c, p in expected.values()) - sum(c + p for c, p in found.values())
        return summary["errors"] + abs(missing), summary

    def watch_cmd(self, source, shards=None):
        spec = dict(self.spec, shards=shards or self.spec["shards"])
        cmd = [self.khist, "watch", source, "--json", *benchlib.khist_flags(spec)]
        return cmd + (["--fleet"] if spec["fleet"] else [])

    def serve_flags(self):
        return [*benchlib.khist_flags(self.spec), "--flush-ms", str(self.spec["flush_ms"])]


def watch_end_to_end(run):
    """Piped `watch` invocations for the run's seconds (at least
    MIN_INVOCATIONS), each after spawn-to-exit setups, then the output
    checks."""
    spec = run.spec
    _, data, meta = run.generate(spec["records"])
    cmd = run.watch_cmd("-")
    records = meta["records"]
    windows = sum(c + p for c, p in benchlib.expected_windows(meta["streams"], spec["every"]).values())
    invocations, setups, started = [], [], time.perf_counter()
    while len(invocations) < MIN_INVOCATIONS or time.perf_counter() - started < run.args.seconds:
        for _ in range(WATCH_SETUPS):
            seconds, ok = loadgen.watch_setup(cmd, TIMEOUT)
            setups.append(seconds)
            run.ops.add(1, not ok)
        invocations.append(loadgen.watch_piped(cmd, data, TIMEOUT))
    byte_ends = benchlib.completions(meta, "byte_end")
    latency, waits, digests = [], [], []
    for inv in invocations:
        lines = [line for _, line in inv["lines"]]
        digests.append(benchlib.report_digest(lines))
        run.ops.add(records + 1, 0 if inv["ok"] else records + 1)
        latency.append(benchlib.watch_latencies(inv["lines"], inv["writes"], loadgen.BLOCK,
                                                byte_ends))
        waits.append(benchlib.residual_waits(inv["writes"], inv["writes"][0][0], inv["t_eof"],
                                             loadgen.PROBE_PERIOD))
    failed_windows, _ = run.check_capture([l for _, l in invocations[0]["lines"]], meta, "watch.jsonl")
    run.ops.add(windows * len(invocations), failed_windows * len(invocations))
    run.checks["invocations_ok"] = all(inv["ok"] for inv in invocations)
    run.checks["deterministic"] = len(set(digests)) == 1
    if "sibling" in spec:
        sibling = benchlib.WORKLOADS[spec["sibling"]]
        ok, _ = loadgen.run_to_file(run.watch_cmd(run.path("input.txt"), sibling["shards"]),
                                    run.path("sibling.jsonl"), TIMEOUT)
        with open(run.path("sibling.jsonl"), "rb") as f:
            same = benchlib.report_digest(f.read().splitlines()) == digests[0]
        run.checks[f"same_as_{spec['sibling']}"] = ok and same
    run.notes.append(f"report_digest: {digests[0]}")
    # Other tenants of a shared host slow the cores down by up to half for
    # seconds to minutes at a time. Totals over the whole run average the
    # stretches it spans; the best or the median invocation snaps to one
    # of them, which spreads runs further apart.
    total_records = records * len(invocations)
    run.values.update(
        records_per_s=total_records / sum(inv["wall"] for inv in invocations),
        cpu_s_per_mrec=sum(inv["cpu"] for inv in invocations) / total_records * 1e6,
        peak_rss_mb=benchlib.median([inv["rss_mb"] for inv in invocations]),
        setup_s=benchlib.median(setups),
        shutdown_s=benchlib.median([inv["t_exit"] - inv["t_eof"] for inv in invocations]),
    )
    latency_metrics(run, "window_latency", latency)
    latency_metrics(run, "control_rtt", waits)
    run.notes.append(f"invocations: {len(invocations)}")


def latency_metrics(run, name, runs):
    """p50 and p90 in ms over the samples of each of `runs`, repeated runs
    of one input (`benchlib.grouped_percentiles`), with the sample count;
    a p90 needs at least 100 samples (ten beyond it) in every group."""
    values, smallest = benchlib.grouped_percentiles(runs, (50, 90))
    run.values[f"{name}_samples"] = sum(map(len, runs))
    run.checks[f"{name}_p90_has_10_beyond"] = (benchlib.tail_percentile(smallest) or 0) >= 90
    for p, value in values.items():
        run.values[f"{name}_p{p}_ms"] = None if value is None else value * 1e3


def serve_load(run, data, meta, verify_shards):
    """An open-loop serve run, measured once more if its generator lagged,
    then checked against `watch` on `verify_shards` shards."""
    offsets = [0]
    position = data.find(b"\n")
    while position >= 0:
        offsets.append(position + 1)
        position = data.find(b"\n", position + 1)
    due = benchlib.completions(meta, "record")
    for attempt in range(2):
        load = loadgen.ServeLoad(data, offsets, due, run.spec["rate"], run.spec["poll_hz"])
        load.run(run.khist, run.serve_flags(), run.path("serve.jsonl"), TIMEOUT)
        lag = benchlib.percentile(load.lag, 90) or 0.0
        if lag <= LAG_BOUND:
            break
        run.notes.append(f"serve run {attempt} invalid: generator lag p90 {lag * 1e3:.1f} ms")
    run.checks["generator_lag_within_bound"] = lag <= LAG_BOUND
    run.values["serve.generator_lag_p90_ms"] = lag * 1e3
    with open(run.path("serve.jsonl"), "rb") as f:
        stdout = f.read().splitlines()
    records = meta["records"]
    polls = len(load.rtt) + len(load.outstanding)
    run.ops.add(1, not load.ok)
    run.ops.add(records, records - load.acked)
    run.ops.add(polls + 3, len(load.outstanding) + load.errors)
    failed_windows, _ = run.check_capture(stdout, meta, "serve-check.jsonl")
    run.checks["sub_feed_equals_stdout"] = load.feed == stdout
    # serve ≡ watch, per stream, over the records the generator sent.
    ok, watch_wall = loadgen.run_to_file(run.watch_cmd(run.path("input.txt"), verify_shards),
                                         run.path("watch.jsonl"), TIMEOUT)
    with open(run.path("watch.jsonl"), "rb") as f:
        same = benchlib.per_stream(f.read().splitlines()) == benchlib.per_stream(stdout)
    run.checks["serve_equals_watch"] = ok and same
    windows = sum(c + p for c, p in benchlib.expected_windows(meta["streams"], run.spec["every"]).values())
    run.ops.add(windows, failed_windows + (0 if same else windows))
    run.notes.append(f"report_digest: {benchlib.report_digest(stdout)}")
    return load, stdout, watch_wall


def serve_end_to_end(run):
    spec = run.spec
    _, data, meta = run.generate(int(spec["rate"] * run.args.seconds))
    setups = []

    def set_up():
        for _ in range(SERVE_SETUPS):
            seconds, ok = loadgen.serve_setup(run.khist, run.serve_flags(), TIMEOUT)
            run.ops.add(1, not ok)
            if seconds is not None:
                setups.append(seconds)

    set_up()
    # Per-stream reports are the same at any shard count; two shards
    # check serve against watch in half the time.
    load, _, _ = serve_load(run, data, meta, 2)
    set_up()
    if load.setup is not None:
        setups.append(load.setup)
    records = meta["records"]
    run.values.update(
        records_per_s=load.acked / (load.t_ack - load.t0) if load.t_ack else None,
        cpu_s_per_mrec=load.cpu / records * 1e6,
        peak_rss_mb=load.rss_mb,
        setup_s=benchlib.median(setups),
        shutdown_s=load.shutdown_s,
    )
    latency_metrics(run, "window_latency", [load.window_latency])
    latency_metrics(run, "control_rtt", [load.rtt])
    run.values["serve.backlog_records_p90"] = benchlib.percentile(load.backlog, 90)
    run.values["serve.windows_per_drain_p90"] = benchlib.percentile(load.per_drain, 90)


def trace(run, capture, chunk, untraced_wall, meta):
    """The driver's traced replay of the input, checked against `capture`."""
    spec = run.spec
    result = run.call_driver(
        "trace", "--input", run.path("input.txt"), "--cli", capture,
        "--sink", run.path("trace.jsonl"), "--n", benchlib.N, "--every", spec["every"],
        "--shards", spec["shards"], "--chunk", chunk, "--seed", benchlib.PROGRAM_SEED,
        # Serve computes a rollup after each drain for its subscriber.
        *(["--fleet"] if spec["fleet"] or spec["mode"] == "serve" else []))
    checks, metrics = result["checks"], result["metrics"]
    run.values.update({name: value for name, value in metrics.items() if name not in run.values})
    run.values["trace.overhead_s"] = result["wall_s"] - untraced_wall
    run.checks["trace_reproduces_reports"] = checks["streams_mismatched"] == 0
    run.checks["kernels_reproduce_reports"] = checks["kernel_mismatches"] == 0
    run.checks["self_times_cover_wall"] = metrics["trace.coverage"] >= COVERAGE_FLOOR
    for name, (low, high) in spec.get("claims", {}).items():
        run.checks[f"claimed_{name}"] = low <= metrics[name] <= high
    expected = benchlib.expected_windows(meta["streams"], spec["every"])
    run.checks["trace_window_counts"] = (
        metrics["engine.windows_complete"] == sum(c for c, _ in expected.values())
        and metrics["engine.windows_partial"] == sum(p for _, p in expected.values()))
    run.ops.add(checks["kernel_windows"] + 1, checks["kernel_mismatches"] + checks["streams_mismatched"])
    run.notes += [f"trace: {m}" for m in checks["messages"]]
    run.notes.append("self seconds: " + ", ".join(f"{k}={v:.3f}" for k, v in result["self_s"].items()))
    run.notes.append(f"traced wall {result['wall_s']:.3f} s, untraced {untraced_wall:.3f} s, "
                     f"kernel pass {result['kernel_wall_s']:.3f} s")


def watch_trace(run):
    _, _, meta = run.generate(run.spec["records"])
    capture = run.path("cli.jsonl")
    ok, wall = loadgen.run_to_file(run.watch_cmd(run.path("input.txt")), capture, TIMEOUT)
    run.ops.add(1, not ok)
    with open(capture, "rb") as f:
        failed, _ = run.check_capture(f.read().splitlines(), meta, "cli-check.jsonl")
    run.ops.add(meta["records"], failed)
    trace(run, capture, 4096 * run.spec["shards"], wall, meta)


def serve_trace(run):
    spec = run.spec
    _, data, meta = run.generate(int(spec["rate"] * run.args.seconds))
    # At serve's own shard count the check's wall time is the untraced
    # baseline of the tracing overhead.
    load, _, watch_wall = serve_load(run, data, meta, spec["shards"])
    # The engine pass drains what serve drains at this rate: one flush
    # period of records per ingest_batch call.
    chunk = max(1, int(spec["rate"] * spec["flush_ms"] / 1000))
    client_side = benchlib.percentile(load.per_drain, 90)
    trace(run, run.path("serve.jsonl"), chunk, watch_wall, meta)
    run.values["serve.windows_per_drain_p90"] = client_side
    run.values["serve.backlog_records_p90"] = benchlib.percentile(load.backlog, 90)


def build(root, target):
    """Builds the release `khist` binary and the driver into `target`."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "driver", "Cargo.toml")
    for cmd in (["cargo", "build", "--release", "--offline", "--bin", "khist"],
                ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]):
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, check=False)
        if proc.returncode:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "khist"), os.path.join(release, "perfbench-driver")


def host_context(root):
    """nproc, CPU model, load average before the run, and the commit (or,
    outside git, a digest of the sources)."""
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with open("/proc/loadavg") as f:
        load = " ".join(f.read().split()[:3])
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, check=False)
    if git.returncode == 0:
        commit = git.stdout.decode().strip()
    else:
        digest = hashlib.sha256()
        for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor"):
            top = os.path.join(root, top)
            paths = [top] if os.path.isfile(top) else sorted(
                os.path.join(base, name) for base, _, names in os.walk(top) for name in names)
            for path in paths:
                with open(path, "rb") as f:
                    digest.update(os.path.relpath(path, root).encode() + b"\0" + f.read())
        commit = "tree:" + digest.hexdigest()[:16]
    return f"nproc={len(os.sched_getaffinity(0))} cpu=\"{cpu}\" loadavg={load} commit={commit}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(benchlib.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
        host = host_context(root)
        target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        khist, driver = build(root, target)
        work = os.path.join(target, "perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
        os.makedirs(work)
        run = Run(args, khist, driver, work)
        measure = {("watch", 0): watch_end_to_end, ("serve", 0): serve_end_to_end,
                   ("watch", 1): watch_trace, ("serve", 1): serve_trace}[(run.spec["mode"], args.trace)]
        # Serve's sockets are relative to the scratch directory.
        os.chdir(work)
        try:
            measure(run)
        finally:
            os.chdir(root)
            shutil.rmtree(work, ignore_errors=True)
        missing = [m["name"] for m in declared if run.values.get(m["name"]) is None]
        if missing:
            raise BenchError(f"not measured: {', '.join(missing)}")
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"host: {host} seed={args.seed}")
    for note in run.notes:
        print(note)
    for name, ok in sorted(run.checks.items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    run.values["failed_ops_frac"] = run.ops.failed / max(1, run.ops.attempted)
    for name, value in sorted(run.values.items()):
        if value is not None:
            print(f"metric {name} = {value:.6g} {benchlib.UNITS.get(name, '')}")
    print(json.dumps({
        "correct": all(run.checks.values()),
        "attempted": max(1, run.ops.attempted),
        "failed": run.ops.failed,
        "metrics": {m["name"]: {"value": run.values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
