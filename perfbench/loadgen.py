"""The processes of the khist end-to-end benchmark: `khist watch` fed
through its stdin at full speed, and `khist serve` under open-loop load.

Every process started here is reaped (and killed past its timeout)
before the function that started it returns. Children are reaped with
`wait4`, so their CPU time is their own.
"""

import collections
import json
import os
import selectors
import socket
import subprocess
import threading
import time

import benchlib

#: Bytes per blocking write into `watch`'s stdin.
BLOCK = 8192
#: Period of the input probes of a piped `watch` run (seconds).
PROBE_PERIOD = 0.002
#: How long to wait for serve's sockets, its final acknowledgement, and
#: its exit after SHUTDOWN (seconds).
CONNECT_WAIT, ACK_WAIT, EXIT_WAIT = 10, 30, 60


def exit_code(status):
    """A `wait4` status as Popen reports it (negative: killed by signal)."""
    if os.WIFEXITED(status):
        return os.WEXITSTATUS(status)
    return -os.WTERMSIG(status) if os.WIFSIGNALED(status) else -1


class Child:
    """A child process, killed if it outlives `timeout` seconds, whose peak
    RSS is tracked from its own `VmHWM`: `ru_maxrss` cannot tell it, since
    exec carries the spawning process's RSS into the child's maximum."""

    def __init__(self, cmd, timeout, **popen):
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(cmd, **popen)
        self.timed_out, self.peak_rss_mb = False, None
        self._reaped = threading.Event()
        self._timer = threading.Timer(timeout, self._kill)
        self._timer.start()
        self._rss = threading.Thread(target=self._track_rss)
        self._rss.start()

    def _kill(self):
        self.timed_out = True
        self.proc.kill()

    def _track_rss(self):
        path = f"/proc/{self.proc.pid}/status"
        while not self._reaped.wait(0.01):
            try:
                with open(path) as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            self.peak_rss_mb = int(line.split()[1]) / 1024
            except OSError:
                pass

    def reap(self):
        """Waits for the exit: `(ok, CPU seconds, peak RSS in MB, exit time)`."""
        _, status, usage = os.wait4(self.proc.pid, 0)
        t_exit = time.perf_counter()
        self._reaped.set()
        self.proc.returncode = exit_code(status)
        self._timer.cancel()
        self._timer.join()
        self._rss.join()
        ok = self.proc.returncode == 0 and not self.timed_out
        return ok, usage.ru_utime + usage.ru_stime, self.peak_rss_mb, t_exit


def watch_setup(cmd, timeout):
    """`(seconds, ok)` from spawn to exit of `watch` on an empty input."""
    child = Child(cmd, timeout, stdin=subprocess.DEVNULL,
                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    ok, _, _, t_exit = child.reap()
    return t_exit - child.t_spawn, ok


def run_to_file(cmd, out_path, timeout):
    """Runs `cmd` with its stdout in `out_path`: `(ok, wall seconds)`."""
    with open(out_path, "wb") as out:
        child = Child(cmd, timeout, stdin=subprocess.DEVNULL, stdout=out,
                      stderr=subprocess.DEVNULL)
    ok, _, _, t_exit = child.reap()
    return ok, t_exit - child.t_spawn


def watch_piped(cmd, data, timeout):
    """One `watch -` run over `data`, written into its stdin at full speed
    in blocking BLOCK-byte writes while a thread reads its stdout.

    Returns a dict: `ok`, `wall`, `cpu`, `rss_mb`, `writes` (the `(start,
    end)` of each write), `t_eof` (stdin closed), `t_exit`, and `lines`
    (`(arrival, line)` of stdout)."""
    child = Child(cmd, timeout, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                  stderr=subprocess.DEVNULL)
    proc = child.proc
    chunks = []

    def drain():
        fd = proc.stdout.fileno()
        while True:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return
            chunks.append((time.perf_counter(), chunk))

    reader = threading.Thread(target=drain)
    reader.start()
    writes, broken = [], False
    fd, view = proc.stdin.fileno(), memoryview(data)
    try:
        for offset in range(0, len(data), BLOCK):
            block, t = view[offset:offset + BLOCK], time.perf_counter()
            while block:
                block = block[os.write(fd, block):]
            writes.append((t, time.perf_counter()))
        t_eof = time.perf_counter()
        proc.stdin.close()
    except BrokenPipeError:
        broken, t_eof = True, time.perf_counter()
    except BaseException:
        proc.kill()
        raise
    finally:
        ok, cpu, rss_mb, t_exit = child.reap()
        reader.join()
        proc.stdout.close()
    return dict(ok=ok and not broken, wall=t_exit - child.t_spawn, cpu=cpu, rss_mb=rss_mb,
                writes=writes, t_eof=t_eof, t_exit=t_exit, lines=benchlib.split_lines(chunks))


class LineReader:
    """Newline-framed reads from a socket."""

    def __init__(self, sock):
        self.sock, self.buf, self.eof = sock, b"", False

    def read_available(self):
        """Reads once (without blocking a nonblocking socket) and returns
        the lines that completed."""
        try:
            data = self.sock.recv(1 << 16)
        except BlockingIOError:
            return []
        if not data:
            self.eof = True
        *lines, self.buf = (self.buf + data).split(b"\n")
        return lines

    def read_line(self):
        """Blocks for the next line."""
        while b"\n" not in self.buf:
            data = self.sock.recv(4096)
            if not data:
                raise ConnectionError("connection closed before a reply")
            self.buf += data
        line, self.buf = self.buf.split(b"\n", 1)
        return line


SOCKETS = iter(range(1 << 30))


def fresh_sockets():
    """New data and control socket paths, relative to the working
    directory (short, whatever the checkout's path length)."""
    n = next(SOCKETS)
    return f"d{os.getpid()}-{n}.sock", f"c{os.getpid()}-{n}.sock"


def connect(path, deadline):
    """Connects to a Unix socket, retrying until it exists or `deadline`."""
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except (FileNotFoundError, ConnectionRefusedError):
            sock.close()
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.0005)


def serve_cmd(khist, flags):
    data, control = fresh_sockets()
    return [khist, "serve", "--socket", data, "--control", control, *flags], data, control


def serve_setup(khist, flags, timeout):
    """`(seconds, ok)` from spawn until `serve` answers its first STATS;
    then shuts it down and reaps it."""
    cmd, _, control = serve_cmd(khist, flags)
    child = Child(cmd, timeout, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                  stderr=subprocess.DEVNULL)
    setup, answered = None, False
    try:
        with connect(control, child.t_spawn + CONNECT_WAIT) as ctl:
            reader = LineReader(ctl)
            ctl.sendall(b"STATS\n")
            answered = reader.read_line().startswith(b'{"streams":')
            setup = time.perf_counter() - child.t_spawn
            ctl.sendall(b"SHUTDOWN\n")
            while not reader.eof:
                reader.read_available()
    except Exception:  # any failure still kills and reaps the child
        child.proc.kill()
    ok = child.reap()[0]
    return setup, ok and answered


class ServeLoad:
    """One open-loop `serve` run: records go out on a data connection at
    a fixed `rate` whatever serve does, while a control connection carries
    SUB and STATS/FLEET polls at `poll_hz`. The run ends with SHUTDOWN,
    and the control connection is read until serve exits.

    `data` is the input, `offsets[i]` the byte offset of record i (one
    entry past the last record), `due` maps `(key, window)` to the index of
    the record completing that window."""

    def __init__(self, data, offsets, due, rate, poll_hz):
        self.data, self.offsets, self.due = data, offsets, due
        self.rate, self.period = rate, 1.0 / poll_hz
        self.total = len(offsets) - 1
        self.window_latency, self.rtt, self.backlog, self.lag = [], [], [], []
        self.per_drain, self.feed = [], []
        self.errors, self.acked, self.t_ack, self.setup = 0, 0, None, None
        self.outstanding = collections.deque()
        self.after_window, self.since_rollup, self.shutting_down = False, 0, False

    def handle(self, line, arrival):
        """Accounts one line of the control connection."""
        kind = benchlib.classify(line, self.after_window)
        self.after_window = kind == "window"
        if kind == "fleet" and self.shutting_down and not (
                self.outstanding and self.outstanding[0][0] == "fleet"):
            kind = "rollup"  # the closing rollup after the tails
        if kind == "window":
            self.feed.append(line)
            self.since_rollup += 1
            key = benchlib.window_key(line)
            if key and key[2]:
                record = self.due.get(key[:2])
                if record is None:
                    self.errors += 1
                else:
                    self.window_latency.append(arrival - (self.t0 + record / self.rate))
        elif kind == "rollup":
            self.per_drain.append(self.since_rollup)
            self.since_rollup = 0
        elif kind in ("stats", "fleet"):
            if not self.outstanding or self.outstanding[0][0] != kind:
                self.errors += 1
                return
            _, sent, offered, during_load = self.outstanding.popleft()
            if kind == "stats":
                self.acked = json.loads(line)["records"]
                if self.acked >= self.total and self.t_ack is None:
                    self.t_ack = arrival
            if during_load:
                self.rtt.append(arrival - sent)
                if kind == "stats":
                    self.backlog.append(offered - self.acked)
        elif kind == "error":
            self.errors += 1

    def poll(self, ctl, verb, offered, during_load):
        ctl.sendall(verb.upper().encode() + b"\n")
        self.outstanding.append((verb, time.perf_counter(), offered, during_load))

    def pump(self, sel, reader, timeout):
        """Waits up to `timeout` for the control connection and handles
        what arrived."""
        for key, _ in sel.select(max(0.0, timeout)):
            if key.fileobj is reader.sock:
                arrival = time.perf_counter()
                for line in reader.read_available():
                    self.handle(line, arrival)

    def run(self, khist, flags, out_path, timeout):
        cmd, data_path, control_path = serve_cmd(khist, flags)
        with open(out_path, "wb") as out:
            child = Child(cmd, timeout, stdin=subprocess.DEVNULL, stdout=out,
                          stderr=subprocess.DEVNULL)
        try:
            self._drive(child, data_path, control_path)
        except Exception:  # any failure still kills and reaps the child
            self.errors += 1
            child.proc.kill()
        self.ok, self.cpu, self.rss_mb, t_exit = child.reap()
        self.shutdown_s = t_exit - self.t_shutdown if self.ok else None
        return self

    def _drive(self, child, data_path, control_path):
        ctl = connect(control_path, child.t_spawn + CONNECT_WAIT)
        with ctl:
            reader = LineReader(ctl)
            ctl.sendall(b"STATS\n")
            if not reader.read_line().startswith(b'{"streams":'):
                self.errors += 1
            self.setup = time.perf_counter() - child.t_spawn
            ctl.sendall(b"SUB\n")
            if not reader.read_line().startswith(b'{"subscribed":'):
                self.errors += 1
            with connect(data_path, child.t_spawn + CONNECT_WAIT) as dat:
                self._load(ctl, dat, reader)
            self._finish(ctl, reader)

    def _load(self, ctl, dat, reader):
        """Sends every record when it is due, polling on the way."""
        ctl.setblocking(False)
        dat.setblocking(False)
        sel = selectors.DefaultSelector()
        sel.register(ctl, selectors.EVENT_READ)
        view, offsets, end = memoryview(self.data), self.offsets, self.offsets[-1]
        self.t0 = time.perf_counter()
        next_poll, polls, queued, sent = self.t0 + self.period, 0, 0, 0
        watching = False
        while sent < end:
            now = time.perf_counter()
            due = min(self.total, int((now - self.t0) * self.rate) + 1)
            if due > queued:
                self.lag.append(now - (self.t0 + queued / self.rate))
                queued = due
            if sent < offsets[queued]:
                try:
                    sent += dat.send(view[sent:offsets[queued]])
                except BlockingIOError:
                    pass
            if now >= next_poll:
                self.poll(ctl, ("stats", "fleet")[polls % 2], queued, True)
                polls, next_poll = polls + 1, next_poll + self.period
            backed_up = sent < offsets[queued]
            if backed_up != watching:
                if backed_up:
                    sel.register(dat, selectors.EVENT_WRITE)
                else:
                    sel.unregister(dat)
                watching = backed_up
            next_due = self.t0 + queued / self.rate if queued < self.total else next_poll
            self.pump(sel, reader, min(next_due, next_poll) - time.perf_counter())
        sel.close()

    def _finish(self, ctl, reader):
        """Waits until serve acknowledges every record, then shuts it down
        and reads the control connection until serve closes it."""
        sel = selectors.DefaultSelector()
        sel.register(ctl, selectors.EVENT_READ)
        deadline = time.perf_counter() + ACK_WAIT
        while self.t_ack is None and time.perf_counter() < deadline and not reader.eof:
            if not self.outstanding:
                self.poll(ctl, "stats", self.total, False)
            self.pump(sel, reader, 0.01)
        self.shutting_down = True
        self.t_shutdown = time.perf_counter()
        ctl.sendall(b"SHUTDOWN\n")
        deadline = self.t_shutdown + EXIT_WAIT
        while not reader.eof and time.perf_counter() < deadline:
            self.pump(sel, reader, 0.05)
        if not reader.eof:
            raise TimeoutError("serve did not close the control connection")
        sel.close()
