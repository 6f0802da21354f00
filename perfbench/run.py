#!/usr/bin/env python3
"""End-to-end serving benchmark for nbti_tool `serve` and `route`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds `nbti_tool` and the benchmark's
OCaml helper (perfbench/perfbench.exe) with dune, then for the workload:

1. set-up, repeated SETUPS times: spawn the server processes on private
   Unix sockets under .perfbench/, wait until they answer `health`, and
   send the workload's prewarm requests. `setup_s` is the median; the last
   set-up stays up for the timed phase. `server_rss_mb` is the median of
   the servers' summed peak RSS (VmHWM) at the end of each set-up. The
   peak after the timed phase is shown in the table only: it depends on
   when the garbage collector grows the heap, and moved by a third
   between otherwise alike runs.
2. timed phase (tracing off): one client connection per generated
   sequence (one, or two for fleet_mix), each a closed loop over its own
   seeded request sequence, for S seconds. Every request is timed from
   client write to response read. The servers run on one core and the
   client on another.
3. host-speed probes: a shared host runs tens of percent faster or slower
   from minute to minute. A fixed reference kernel (perfbench/probe.ml)
   runs on the servers' core before each set-up and, in the timed phase,
   every few requests while the servers are idle. Every reported time is
   scaled by PROBE_NOMINAL_MS / (the probe's median over the same stretch),
   i.e. given in milliseconds of a host on which the probe takes
   PROBE_NOMINAL_MS; throughput excludes the time spent in probes. The
   table shows the raw figures next to the scaled ones.
4. `stats` is scraped from every server process before and after the
   timed phase, so cache, pool, admission and router counters come from
   the program's own counters.
5. the response oracle (outside the timed window): every distinct
   (request, response) pair seen on the wire is compared, with `id` and
   `cached` stripped, against Server.Service.handle_line on a fresh
   in-process service. Routed answers must therefore equal direct ones.
   A mismatch counts as a failure.
6. with --trace 1, the helper's traced in-process replay of the same
   sequence splits request time across the program's layers (see
   perfbench/replay.ml) and writes a Chrome trace that `nbti_tool trace`
   must accept.

Workloads (perfbench/workload.ml generates their requests from the seed):
  warm_hits     one serve; Zipf(1.1) over 64 prewarmed result keys, so
                every request is a cache hit and the front end does all work
  cold_compute  one serve; every request a new result key on small
                circuits, so the analysis layers do the work and the LRUs evict
  fleet_mix     route over two serves; 60% hits, 30% cold, and every 10th
                step both connections send one new key together (singleflight)

Every server runs with NBTI_JOBS=1 (a 2-core host: one core for the
servers, the other for this client) and the default cache capacities
(256 results within 64 MiB, 32 prepared pipelines). The last stdout line
is the JSON result; the lines before it are a human-readable table.
"""

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".perfbench"
TOOL = "_build/default/bin/nbti_tool.exe"
HELPER = "_build/default/perfbench/perfbench.exe"

NBTI_JOBS = "1"
SETUPS = 5
REQUEST_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 60.0
STATS_LINE = b'{"v":1,"op":"stats"}'
HEALTH_LINE = b'{"v":1,"op":"health"}'

# workload -> (serve backends, routed?, requests in the traced replay)
WORKLOADS = {
    "warm_hits": (1, False, 160),
    "cold_compute": (1, False, 100),
    "fleet_mix": (2, True, 160),
}

# Figures are medians over consecutive chunks of completed requests; a
# chunk of CHUNK_MIN leaves 10 samples beyond its p95.
CHUNK_MIN = 200
MAX_CHUNKS = 10

# Host-speed probe: one kernel repetition takes about PROBE_NOMINAL_MS on
# an idle 2-vCPU VM. A single-connection run probes before every
# PROBE_EVERY-th request; fleet_mix probes at every PROBE_SYNC_EVERY-th
# meeting of its connections. PROBES_PER_SETUP probes precede each set-up.
PROBE_NOMINAL_MS = 2.0
PROBE_EVERY = 8
PROBE_SYNC_EVERY = 2
PROBES_PER_SETUP = 5

# Servers (and the probe) on the first allowed core, the client on the next.
CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU = CPUS[0]
CLIENT_CPU = CPUS[1] if len(CPUS) > 1 else CPUS[0]


def on_server_cpu():
    os.sched_setaffinity(0, {SERVER_CPU})


COMPUTE_OPS = ("analyze", "ivc_search", "sleep_sizing", "batch", "calibrate")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --- build -------------------------------------------------------------------


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    opam = os.path.expanduser("~/.opam")
    if os.path.isdir(opam):
        candidates += [os.path.join(opam, s, "bin", "dune") for s in sorted(os.listdir(opam))]
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    raise BenchError("dune not found on PATH")


def build():
    for f in ("dune-project", "bin/nbti_tool.ml", "lib/server/service.ml", "perfbench/dune"):
        if not os.path.exists(f):
            raise BenchError(f"{f} missing: run from the root of a full nbti checkout")
    cmd = [find_dune(), "build", "--root", ".", "--display", "quiet",
           "./bin/nbti_tool.exe", "./perfbench/perfbench.exe"]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout + r.stderr)


# --- workload sequences --------------------------------------------------------


def helper_env():
    return dict(os.environ, NBTI_JOBS=NBTI_JOBS)


def helper(args, timeout=170):
    r = subprocess.run([HELPER] + args, capture_output=True, timeout=timeout, env=helper_env())
    if r.returncode != 0:
        raise BenchError(f"perfbench {args[0]} failed: {r.stderr.decode(errors='replace')}")
    return r.stdout


class Workload:
    """The generated request table and per-connection sequences."""

    def __init__(self, raw):
        header, _, body = raw.partition(b"\n")
        h = json.loads(header)
        self.ops = h["ops"]
        self.lines = body.split(b"\n")[: len(self.ops)]
        self.prewarm = h["prewarm"]
        self.conns = h["conns"]
        self.sync = set(h["sync"])
        if len(self.lines) != len(self.ops):
            raise BenchError("truncated workload table")


def generate(name, seed, seconds):
    return Workload(helper(["gen", "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]))


class Probe:
    """The reference kernel (`perfbench probe`) on the servers' core.
    `samples` holds (end time, ms per repetition, wall seconds taken)."""

    def __init__(self):
        self.samples = []
        self.proc = subprocess.Popen([HELPER, "probe"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, preexec_fn=on_server_cpu)
        try:
            if self.proc.stdout.readline().strip() != "ready":
                raise BenchError("probe failed to start")
        except BaseException:
            self.close()
            raise

    def measure(self):
        t0 = time.perf_counter()
        self.proc.stdin.write("1\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("probe exited")
        t1 = time.perf_counter()
        self.samples.append((t1, float(reply), t1 - t0))

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def slowdown(probes, lo=-math.inf, hi=math.inf):
    """Median probe time over (lo, hi] against PROBE_NOMINAL_MS, or 1.0
    without probes; over the whole run when none falls in the window."""
    inside = [ms for t, ms, _ in probes if lo < t <= hi] or [ms for _, ms, _ in probes]
    return statistics.median(inside) / PROBE_NOMINAL_MS if inside else 1.0


# --- client --------------------------------------------------------------------


class Conn:
    """One newline-delimited JSON connection."""

    def __init__(self, path, timeout=REQUEST_TIMEOUT_S):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.settimeout(timeout)
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.rfile = self.sock.makefile("rb")

    def call(self, line):
        self.sock.sendall(line + b"\n")
        resp = self.rfile.readline()
        if not resp.endswith(b"\n"):
            raise ConnectionError("connection closed mid-response")
        return resp[:-1]

    def close(self):
        try:
            self.rfile.close()
        finally:
            self.sock.close()


def call_once(path, line, timeout=REQUEST_TIMEOUT_S):
    c = Conn(path, timeout)
    try:
        return c.call(line)
    finally:
        c.close()


def response_failed(resp):
    """True unless the response is ok with no failed job inside a batch."""
    try:
        obj = json.loads(resp)
    except ValueError:
        return True
    if obj.get("ok") is not True:
        return True
    result = obj.get("result") or {}
    if result.get("kind") == "batch":
        return any(r.get("kind") == "error" for r in result.get("results", []))
    return False


def drive(path, lines, seq, deadline, sync=(), barrier=None, timeout=REQUEST_TIMEOUT_S, conn=None,
          probe=None):
    """One connection's closed loop until `deadline` (perf_counter seconds).

    Returns records (request index, send time, receive time, status,
    response bytes or None). Status is "ok" (a response line arrived; it
    is judged after the timed phase, in `summarize`), "refused" (no
    connection) or "timeout". At a step in `sync` the connection first
    meets its peers at `barrier`, so they send the same request at the
    same time. `probe` (a lone connection's) runs before every
    PROBE_EVERY-th step."""
    records = []
    step = 0
    try:
        while time.perf_counter() < deadline:
            k = step % len(seq)
            if probe is not None and step % PROBE_EVERY == 0:
                probe.measure()
            step += 1
            if barrier is not None and k in sync:
                try:
                    barrier.wait(timeout=max(0.001, deadline - time.perf_counter()))
                except threading.BrokenBarrierError:
                    break
            idx = seq[k]
            t0 = time.perf_counter()
            resp = None
            try:
                if conn is None:
                    conn = Conn(path, timeout)
                resp = conn.call(lines[idx])
                status = "ok"
            except socket.timeout:
                status = "timeout"
            except OSError:
                status = "refused"
            if status in ("timeout", "refused") and conn is not None:
                conn.close()
                conn = None
            records.append((idx, t0, time.perf_counter(), status, resp))
            if status == "refused":
                time.sleep(0.01)
    finally:
        if barrier is not None:
            barrier.abort()
        if conn is not None:
            conn.close()
    return records


def percentile(values, q):
    """Nearest-rank percentile as (value, samples, samples beyond it).

    The value is None when fewer than 10 samples lie beyond it: a
    percentile is reported only where the sample supports it."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if n == 0 or beyond < 10:
        return None, n, beyond
    return sorted(values)[rank - 1], n, beyond


def succeeded(record):
    return record[3] == "ok" and not response_failed(record[4])


def summarize(records, ops, start, mismatched=frozenset(), probes=()):
    """End-to-end figures of a timed phase that began at `start`.

    Completed requests, in completion order, are cut into 1 to MAX_CHUNKS
    consecutive chunks of at least CHUNK_MIN. Each chunk's times are
    divided by the host's slowdown over that chunk (see `slowdown`), and
    the time spent in `probes` is left out. Each percentile is the median
    of its per-chunk values: a host slowdown during part of a run moves it
    less than a whole-run figure. Throughput is every completed request
    over the sum of the chunks' scaled times: a chunk holds a seed-dependent
    share of the expensive requests, so a median over chunks would move
    with the seed. Percentiles come as (value, samples, fewest samples
    beyond it in any chunk); the value is None when some chunk cannot
    support it. A request fails when refused, timed out, answered with an
    error, or (`mismatched`, positions in `records`) answered differently
    from the oracle."""
    good = sorted((r for i, r in enumerate(records) if succeeded(r) and i not in mismatched),
                  key=lambda r: r[2])
    attempted = len(records)
    failed = attempted - len(good)
    k = max(1, min(MAX_CHUNKS, len(good) // CHUNK_MIN))
    cuts = [len(good) * i // k for i in range(k + 1)]
    scaled_s, p50, p95, an50 = 0.0, [], [], []
    t_prev = start
    for a, b in zip(cuts, cuts[1:]):
        chunk = good[a:b]
        t_end = chunk[-1][2] if chunk else t_prev
        slow = slowdown(probes, t_prev, t_end)
        lat = [(r[2] - r[1]) * 1e3 / slow for r in chunk]
        probing = sum(wall for t, _, wall in probes if t_prev < t <= t_end)
        scaled_s += (t_end - t_prev - probing) / slow
        t_prev = t_end
        p50.append(percentile(lat, 0.5))
        p95.append(percentile(lat, 0.95))
        an50.append(percentile([x for x, r in zip(lat, chunk) if ops[r[0]] == "analyze"], 0.5))

    def combine(per_chunk):
        values = [v for v, _, _ in per_chunk]
        value = None if None in values else statistics.median(values)
        return value, sum(n for _, n, _ in per_chunk), min(b for _, _, b in per_chunk)

    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "completed": len(good),
        "chunks": k,
        "throughput": len(good) / scaled_s if scaled_s > 0 else 0.0,
        "p50": combine(p50),
        "p95": combine(p95),
        "analyze_p50": combine(an50),
    }


# --- server processes ------------------------------------------------------------


class Servers:
    """The serve children (and the route child, when routed) of one set-up."""

    def __init__(self, workdir, backends, routed):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.procs = []
        self.logs = []
        self.backends = [os.path.join(workdir, f"b{i}.sock") for i in range(backends)]
        self.router = os.path.join(workdir, "r.sock") if routed else None
        env = dict(os.environ, NBTI_JOBS=NBTI_JOBS)
        for i, sock in enumerate(self.backends):
            self.spawn([TOOL, "serve", "-s", sock], f"b{i}", env)
        if routed:
            args = [TOOL, "route", "-s", self.router]
            for sock in self.backends:
                args += ["-b", sock]
            self.spawn(args, "r", env)

    @property
    def front(self):
        return self.router or self.backends[0]

    @property
    def sockets(self):
        return self.backends + ([self.router] if self.router else [])

    def spawn(self, args, name, env):
        logf = open(os.path.join(self.workdir, name + ".log"), "wb")
        self.logs.append(logf)
        self.procs.append(subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=logf,
                                           stderr=subprocess.STDOUT, env=env,
                                           preexec_fn=on_server_cpu))

    def wait_ready(self):
        deadline = time.perf_counter() + READY_TIMEOUT_S
        for sock in self.sockets:
            while True:
                try:
                    if not response_failed(call_once(sock, HEALTH_LINE, timeout=5.0)):
                        break
                except OSError:
                    pass
                if any(p.poll() is not None for p in self.procs):
                    raise BenchError(f"a server exited during start-up (logs in {self.workdir})")
                if time.perf_counter() > deadline:
                    raise BenchError(f"{sock} not ready after {READY_TIMEOUT_S:.0f} s")
                time.sleep(0.002)

    def peak_rss_mb(self):
        total = 0
        for p in self.procs:
            with open(f"/proc/{p.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        return total / 1024.0

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGINT)
        for p in self.procs:
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        for f in self.logs:
            f.close()
        self.procs = []
        self.logs = []


def set_up(wl, workdir, backends, routed, probe):
    """Probe, then spawn, wait until every socket answers, prewarm.
    Returns the servers, the seconds that took, divided by the host's
    slowdown over the probes just before, and the servers' peak RSS."""
    for _ in range(PROBES_PER_SETUP):
        probe.measure()
    slow = slowdown(probe.samples[-PROBES_PER_SETUP:])
    t0 = time.perf_counter()
    servers = Servers(workdir, backends, routed)
    try:
        servers.wait_ready()
        c = Conn(servers.front)
        try:
            for idx in wl.prewarm:
                if response_failed(c.call(wl.lines[idx])):
                    raise BenchError(f"prewarm request {idx} failed")
        finally:
            c.close()
        elapsed = time.perf_counter() - t0
        rss = servers.peak_rss_mb()
    except BaseException:
        servers.stop()
        raise
    return servers, elapsed / slow, rss


def scrape(servers):
    return {sock: json.loads(call_once(sock, STATS_LINE))["result"] for sock in servers.sockets}


def timed_phase(servers, wl, seconds, probe):
    """Drives every connection from the client core. A lone connection
    probes every PROBE_EVERY steps; several probe while they all wait at
    every PROBE_SYNC_EVERY-th sync step, so the servers are idle then."""
    n = len(wl.conns)
    if n > 1 and not wl.sync:
        raise BenchError("several connections need sync steps to probe at")
    meetings = itertools.count()

    def at_meeting():
        if next(meetings) % PROBE_SYNC_EVERY == 0:
            probe.measure()

    conns = [Conn(servers.front) for _ in range(n)]
    barrier = threading.Barrier(n, action=at_meeting) if wl.sync else None
    start = time.perf_counter() + 0.05
    deadline = start + seconds
    results = [[] for _ in range(n)]
    errors = []

    def worker(c):
        time.sleep(max(0.0, start - time.perf_counter()))
        try:
            results[c] = drive(servers.front, wl.lines, wl.conns[c], deadline, sync=wl.sync,
                               barrier=barrier, conn=conns[c], probe=probe if n == 1 else None)
        except BenchError as e:
            errors.append(e)
            if barrier is not None:
                barrier.abort()

    os.sched_setaffinity(0, {CLIENT_CPU})
    try:
        threads = [threading.Thread(target=worker, args=(c,)) for c in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        os.sched_setaffinity(0, CPUS)
    if errors:
        raise errors[0]
    for c in range(n):
        if len(results[c]) > len(wl.conns[c]):
            log(f"warning: connection {c} wrapped its {len(wl.conns[c])}-step sequence")
    return [r for rs in results for r in rs], start


def oracle(name, seed, seconds, records, workdir):
    """Positions of records whose response differs from the oracle's, and
    the number of distinct pairs checked. The pairs are split across one
    helper process per core, each with its own fresh service."""
    pairs = {}
    for pos, r in enumerate(records):
        if succeeded(r):
            pairs.setdefault((r[0], r[4]), []).append(pos)
    keys = list(pairs)
    parts = max(1, os.cpu_count() or 1)
    procs = []
    try:
        for k in range(parts):
            path = os.path.join(workdir, f"pairs{k}.txt")
            with open(path, "wb") as f:
                for idx, resp in keys[k::parts]:
                    f.write(b"%d\t%s\n" % (idx, resp))
            procs.append(subprocess.Popen(
                [HELPER, "oracle", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                 path], stdout=subprocess.PIPE, env=helper_env()))
        mismatched = set()
        for k, p in enumerate(procs):
            out, _ = p.communicate(timeout=170)
            if p.returncode != 0:
                raise BenchError("perfbench oracle failed")
            for i in json.loads(out)["mismatches"]:
                mismatched.update(pairs[keys[k + i * parts]])
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    return mismatched, len(keys)


# --- per-layer metrics ----------------------------------------------------------------


def traced_replay(name, seed, seconds, count, backends):
    """The three replay variants (perfbench/replay.ml), each in its own
    process, stepped through the same `count` requests in lock-step with
    the first mover rotating; their spans merged into one Chrome trace
    that `nbti_tool trace` must accept."""
    variants = ("plain", "traced", "layers")
    procs = {}
    try:
        for v in variants:
            args = [HELPER, "replay", "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--variant", v,
                    "--trace-out", os.path.join(WORK, f"{name}.{v}.json")]
            if v == "layers":
                for b in backends:
                    args += ["--backend", b]
            procs[v] = subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        env=helper_env(), text=True)

        def ask(v, msg):
            procs[v].stdin.write(msg + "\n")
            procs[v].stdin.flush()
            reply = procs[v].stdout.readline()
            if not reply:
                raise BenchError(f"replay variant {v} exited")
            return reply

        for v in variants:
            if procs[v].stdout.readline().strip() != "ready":
                raise BenchError(f"replay variant {v} failed to start")
        ms = {v: [] for v in variants}
        for i in range(count):
            for k in range(len(variants)):
                v = variants[(i + k) % len(variants)]
                ms[v].append(float(ask(v, str(i))))
        out = {v: json.loads(ask(v, "end")) for v in variants}
        for p in procs.values():
            p.wait(timeout=30)
    finally:
        for p in procs.values():
            if p.poll() is None:
                p.kill()
                p.wait()
    parts = [os.path.join(WORK, f"{name}.{v}.json") for v in ("traced", "layers")]
    r = subprocess.run([TOOL, "trace", "--merge", os.path.join(WORK, f"{name}.trace.json")] + parts,
                       capture_output=True)
    if r.returncode != 0:
        raise BenchError("nbti_tool trace rejected the replay trace: " + r.stderr.decode())
    for p in parts:
        os.unlink(p)
    layers = out["layers"]
    traced_mean = statistics.fmean(ms["traced"])
    return {
        "requests": count,
        "handle_p50_ms": statistics.median(ms["plain"]),
        "trace_overhead_ms": traced_mean - statistics.fmean(ms["plain"]),
        "unattributed_ms": traced_mean - sum(l["ms"] for l in layers["layers"].values()),
        "layers": layers["layers"],
        "hop": layers["hop"],
        "spans": out["traced"]["spans"] + layers["spans"],
        "dropped_spans": out["traced"]["dropped_spans"] + layers["dropped_spans"],
        "pipeline_agrees": len({o["responses_md5"] for o in out.values()}) == 1,
    }


def delta(before, after, *path):
    def get(d):
        for k in path:
            d = (d or {}).get(k)
        return d or 0
    return get(after) - get(before)


def layer_metrics(backends, router, before, after, replay, e2e_p50):
    hits = {c: sum(delta(before[b], after[b], "cache", c, "hits") for b in backends)
            for c in ("results", "prepared")}
    misses = {c: sum(delta(before[b], after[b], "cache", c, "misses") for b in backends)
              for c in ("results", "prepared")}

    def ratio(c):
        total = hits[c] + misses[c]
        return hits[c] / total if total else 0.0

    busy = sum(delta(before[b], after[b], "pool", "busy_s") for b in backends)
    wall = sum(delta(before[b], after[b], "pool", "wall_s") * after[b]["pool"]["domains"]
               for b in backends)
    served = [sum(delta(before[b], after[b], "endpoints", op, "requests") for op in COMPUTE_OPS)
              for b in backends]
    coalesced = delta(before[router], after[router], "counters", "coalesced") if router else 0
    forwards = delta(before[router], after[router], "counters", "forward_attempts") if router else 0
    failovers = delta(before[router], after[router], "counters", "failovers") if router else 0
    layers = replay["layers"]
    hop = replay["hop"]["routed_p50_ms"] - replay["hop"]["direct_p50_ms"]
    m = {
        "circuit.resolve_ms": (layers["circuit.resolve"]["ms"], "ms"),
        "circuit.resolve.minor_words": (layers["circuit.resolve"]["minor_words"], "words"),
        "json.decode_ms": (layers["json.decode"]["ms"], "ms"),
        "protocol.encode_ms": (layers["protocol.encode"]["ms"], "ms"),
        "netlist.digest_ms": (layers["netlist.digest"]["ms"], "ms"),
        "cache.lookup_ms": (layers["cache.lookup"]["ms"], "ms"),
        "service.handle_ms": (replay["handle_p50_ms"], "ms"),
        "netline.wire_ms": (e2e_p50 - replay["handle_p50_ms"] - (hop if router else 0.0), "ms"),
        "cache.result_hit_ratio": (ratio("results"), "ratio"),
        "cache.prepared_hit_ratio": (ratio("prepared"), "ratio"),
        "cache.result_evictions": (sum(delta(before[b], after[b], "cache", "results", "evictions")
                                       for b in backends), "count"),
        "cache.prepared_evictions": (sum(delta(before[b], after[b], "cache", "prepared", "evictions")
                                         for b in backends), "count"),
        "platform.prepare_ms": (layers["platform.prepare"]["ms"], "ms"),
        "platform.prepare_calls": (layers["platform.prepare"]["calls"], "count"),
        "platform.prepare.minor_words": (layers["platform.prepare"]["minor_words"], "words"),
        "platform.analyze_ms": (layers["platform.analyze"]["ms"], "ms"),
        "platform.analyze.minor_words": (layers["platform.analyze"]["minor_words"], "words"),
        "platform.optimize_ivc_ms": (layers["platform.optimize_ivc"]["ms"], "ms"),
        "platform.optimize_ivc.minor_words": (layers["platform.optimize_ivc"]["minor_words"], "words"),
        "platform.optimize_st_ms": (layers["platform.optimize_st"]["ms"], "ms"),
        "calibrate.run_ms": (layers["calibrate.run"]["ms"], "ms"),
        "calibrate.run.minor_words": (layers["calibrate.run"]["minor_words"], "words"),
        "pool.utilization": (busy / wall if wall > 0 else 0.0, "ratio"),
        "admission.shed": (sum(delta(before[b], after[b], "counters", "shed") for b in backends),
                           "count"),
        "router.hop_ms": (hop, "ms"),
        "router.coalesced_ratio": (coalesced / forwards if forwards else 0.0, "ratio"),
        "router.failovers": (failovers, "count"),
        "router.backend_share_max": (max(served) / sum(served) if sum(served) else 0.0, "share"),
        "layer.unattributed_ms": (replay["unattributed_ms"], "ms"),
        "trace.overhead_ms": (replay["trace_overhead_ms"], "ms"),
    }
    bases = {
        "cache.result_hit_ratio": f"{hits['results']}/{hits['results'] + misses['results']} lookups",
        "cache.prepared_hit_ratio": f"{hits['prepared']}/{hits['prepared'] + misses['prepared']} lookups",
        "router.coalesced_ratio": f"{coalesced}/{forwards} forward attempts",
        "router.backend_share_max": f"{max(served)}/{sum(served)} compute requests",
        "router.hop_ms": f"{replay['hop']['samples']} samples",
        "service.handle_ms": f"p50 of {replay['requests']} replayed",
    }
    return m, bases


def check_exercised(name, m):
    """Each workload must exercise the layer it claims to."""
    checks = {
        "warm_hits": ("cache.result_hit_ratio", lambda v: v >= 0.99, ">= 0.99"),
        "cold_compute": ("cache.result_hit_ratio", lambda v: v <= 0.01, "<= 0.01"),
        "fleet_mix": ("router.coalesced_ratio", lambda v: v > 0, "> 0"),
    }
    metric, ok, want = checks[name]
    if not ok(m[metric][0]):
        log(f"warning: {name}: {metric} = {m[metric][0]:.4f}, expected {want}")


# --- main ----------------------------------------------------------------------------


def run(name, seed, seconds, trace):
    backends, routed, replay_count = WORKLOADS[name]
    build()
    wl = generate(name, seed, seconds)
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    setups, rss = [], []
    servers = None
    probe = Probe()
    try:
        for i in range(SETUPS):
            if servers is not None:
                servers.stop()
            servers, s, r = set_up(wl, os.path.join(workdir, str(i)), backends, routed, probe)
            setups.append(s)
            rss.append(r)
        before = scrape(servers)
        sockets = (servers.backends, servers.router)
        records, start = timed_phase(servers, wl, seconds, probe)
        timed_rss = servers.peak_rss_mb()
        after = scrape(servers)
        probe.close()
        replay = traced_replay(name, seed, seconds, replay_count, servers.backends) if trace else None
        servers.stop()
        servers = None
        mismatched, checked = oracle(name, seed, seconds, records, workdir)
    finally:
        probe.close()
        if servers is not None:
            servers.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    raw = summarize(records, wl.ops, start, mismatched)
    timed_probes = [p for p in probe.samples if p[0] > start]
    s = summarize(records, wl.ops, start, mismatched, timed_probes)
    p50, p95, an50 = s["p50"], s["p95"], s["analyze_p50"]
    for label, (v, n, beyond) in (("latency_p50_ms", p50), ("latency_p95_ms", p95),
                                  ("analyze_p50_ms", an50)):
        if v is None:
            raise BenchError(f"{label}: {n} samples leave {beyond} beyond it (need >= 10); "
                             "run longer")
    e2e = {
        "throughput_rps": (s["throughput"], "1/s",
                           f"{s['completed']} completed; raw {raw['throughput']:.4f}"),
        "latency_p50_ms": (p50[0], "ms", f"n={p50[1]}; raw {raw['p50'][0]:.4f}"),
        "latency_p95_ms": (p95[0], "ms", f"n={p95[1]}, >= {p95[2]} beyond per chunk; "
                           f"raw {raw['p95'][0]:.4f}"),
        "analyze_p50_ms": (an50[0], "ms", f"n={an50[1]}; raw {raw['analyze_p50'][0]:.4f}"),
        "failed_frac": (s["failed_frac"], "ratio", f"{s['failed']}/{s['attempted']}, "
                        f"{len(mismatched)} oracle mismatches in {checked} pairs"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)}"),
        "server_rss_mb": (statistics.median(rss), "MB",
                          f"VmHWM over {backends + routed} processes through set-up, median of "
                          f"{len(rss)}; {timed_rss:.1f} after the timed phase"),
    }
    print(f"# {name} seed={seed} seconds={seconds} connections={len(wl.conns)} closed-loop "
          f"NBTI_JOBS={NBTI_JOBS} nproc={os.cpu_count()}; medians over {s['chunks']} chunks")
    print(f"# host speed: probe median {slowdown(timed_probes) * PROBE_NOMINAL_MS:.4f} ms over "
          f"{len(timed_probes)} probes (nominal {PROBE_NOMINAL_MS} ms); times below are scaled to "
          "the nominal host")
    for k, (v, unit, note) in e2e.items():
        print(f"{k:34s} {v:12.4f} {unit:6s} {note}")
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit, _) in e2e.items() if k != "failed_frac"}
    if trace:
        m, bases = layer_metrics(*sockets, before, after, replay, raw["p50"][0])
        for k, (v, unit) in m.items():
            print(f"{k:34s} {v:12.4f} {unit:6s} {bases.get(k, '')}")
        print(f"# replay: {replay['requests']} requests, {replay['spans']} spans "
              f"({replay['dropped_spans']} dropped); layer pipeline answers like handle_line: "
              f"{replay['pipeline_agrees']}")
        check_exercised(name, m)
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in m.items()}
    return {"correct": not mismatched, "attempted": s["attempted"], "failed": s["failed"],
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
