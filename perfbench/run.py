#!/usr/bin/env python3
"""End-to-end benchmark of the shipped `iolb` CLI and `iolbd` daemon.

    python3 perfbench/run.py --workload batch|regime|serve --seed N \\
        --seconds S --trace 0|1

Run from the repository root. Builds `iolb` and `iolbd` from source
(`cargo build --release`, into $CARGO_TARGET_DIR or `.bench_build`), runs
one seeded closed-loop workload with every program
process pinned to one rayon worker (RAYON_NUM_THREADS=1), checks every op's
output against the reference-simulator oracle in
perfbench/expected_loads.txt, and prints one JSON result object as the last
stdout line; times are scaled to the probe's reference speed (see Probe).
`--trace 1` instead builds the traced runner (perfbench/src/bin/trace.rs)
and prints the per-layer split.

Other modes:
    --steadiness N   repeat the run N times per workload (seeds 1..N) and
                     print each metric's median, quartiles and spread
    --regen-expected rewrite perfbench/expected_loads.txt from the
                     reference simulators

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib as bl  # noqa: E402

RUN_DIR = ".perfbench-run"
EXPECTED = os.path.join("perfbench", "expected_loads.txt")
WORKLOADS = ("batch", "regime", "serve")
WORKERS = "1"
CLI_SETUP_REPS = 5
SERVE_SETUP_REPS = 5
# Probe samples per scaling window: per `batch` / `regime` pass, spread
# before its ops; per `serve` cycle, one before every SERVE_PROBE_EVERY
# requests (220 / 40 rounds up to 6).
PROBES_PER_PASS = 6
SERVE_PROBE_EVERY = 2 * bl.SERVE_BLOCK
# The daemon's peak RSS grows with the reports it holds, so it is read after
# a fixed number of request cycles, not after however many a run completes.
SERVE_RSS_CYCLES = 5
DENSE_ROWS = 2 * len(bl.DENSE)
SERVE_ROWS = 2 * bl.SERVE_GRID_POINTS


class BenchError(Exception):
    """A condition under which no result may be printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    env["RAYON_NUM_THREADS"] = WORKERS
    return env


def _cpus():
    """(client CPU, program CPU): two distinct allowed CPUs when there are
    at least two, so the client and the analysing process never share or
    trade a core; None when pinning is impossible."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None
    return (allowed[0], allowed[1]) if len(allowed) >= 2 else None


CPUS = _cpus()


def pin_client():
    if CPUS:
        os.sched_setaffinity(0, {CPUS[0]})


def pin_child():
    """preexec_fn of every program process the benchmark starts."""
    if CPUS:
        os.sched_setaffinity(0, {CPUS[1]})


# Busy loop at SCHED_IDLE priority on one CPU; it ends when its parent does.
POLLER = """
import os
os.sched_setaffinity(0, {%d})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


class Pollers:
    """One POLLER on each pinned CPU for the whole run. A SCHED_IDLE task
    yields the CPU at once to any other task, so it takes no time from the
    client or the programs; it only keeps an idle virtual CPU from halting.
    Without it, every wait for a reply (a `serve` request, an `iolb` exit)
    paid a halt-and-wake of the virtual CPU whose cost the host sets: hit
    latency read 0.21-0.24 ms without pollers and 0.14-0.16 ms with them on
    alternating runs of the same seeds."""

    def __enter__(self):
        self.procs = [subprocess.Popen([sys.executable, "-c", POLLER % cpu])
                      for cpu in (CPUS or ())]
        return self

    def __exit__(self, *exc):
        for p in self.procs:
            p.kill()
        for p in self.procs:
            p.wait()


# The host-speed probe: a fresh interpreter process doing a fixed amount of
# allocation and pointer-chasing work. It shares no code with the programs.
PROBE = """
a = list(range(1 << 19))
j = s = 0
for _ in range(1 << 16):
    j = (j * 1103515245 + 12345) & ((1 << 19) - 1)
    s += a[j]
"""
# Median probe time of a window that is reported as measured (the probe's
# typical time on an uncontended host); see Probe.
REFERENCE_PROBE_S = 0.065


class Probe:
    """Samples PROBE, spawned on the programs' CPU and timed from spawn to
    exit, as the `iolb` ops are.

    The virtual CPUs this runs on change speed by up to 2x within seconds,
    for every process alike (user time doubles with it). So every timed
    window of ops (a pass, a request cycle, the set-ups) also samples the
    probe, and the window's times are scaled by
    REFERENCE_PROBE_S / (median probe time in the window): the reported
    times are what the host would have measured at its reference speed.
    Probe time is never inside a timed op. The unscaled figures go to
    stderr. Of the probes tried, this one tracked the ops best
    (perfbench/README.md has the figures)."""

    def __init__(self):
        self.window = []

    def sample(self):
        t0 = time.perf_counter()
        r = subprocess.run([sys.executable, "-S", "-E", "-c", PROBE], preexec_fn=pin_child)
        if r.returncode != 0:
            raise BenchError("probe exited %d" % r.returncode)
        self.window.append(time.perf_counter() - t0)

    def scale(self):
        """Scale factor of the window sampled since the last call."""
        factor = REFERENCE_PROBE_S / statistics.median(self.window)
        self.window = []
        return factor


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def cargo(args):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(target_dir()))
    r = subprocess.run(["cargo", "build", "--release", "--offline"] + args,
                       stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        raise BenchError("cargo build %s failed (exit %d)" % (" ".join(args), r.returncode))


def binary(name):
    return os.path.join(target_dir(), "release", name)


def build(trace):
    for need in ("Cargo.toml", "Cargo.lock", "crates", "kernels"):
        if not os.path.exists(need):
            raise BenchError("%s not found: run from the repository root" % need)
    cargo(["--locked", "-p", "iolb-cli", "-p", "iolbd"])
    if trace:
        # Not --locked: the library crates' own dependencies may change.
        cargo(["--manifest-path", os.path.join("perfbench", "Cargo.toml")])


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def load_inputs():
    """Kernel sources and the oracle table (read on every setup)."""
    with open(EXPECTED) as f:
        expected = bl.parse_expected(f.read())
    sources = {}
    for k in bl.KERNELS:
        with open(bl.kernel_path(k)) as f:
            sources[k] = f.read()
    return sources, expected


def fresh_run_dir():
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)


# ---------------------------------------------------------------------------
# batch / regime: one `iolb` process per op
# ---------------------------------------------------------------------------

def cli_op(op, expected):
    """Runs one `iolb` process. Returns (latency_s, peak_rss_kb, problems)."""
    kernel, params, tightness = op
    out_json = os.path.join(RUN_DIR, "report.json")
    out_tight = os.path.join(RUN_DIR, "tightness.json")
    for p in (out_json, out_tight):
        if os.path.exists(p):
            os.remove(p)
    argv = [binary("iolb"), bl.kernel_path(kernel), "--json", out_json]
    if params:
        argv += ["--params", params]
    if tightness:
        argv += ["--tightness-json", out_tight]
    else:
        argv.append("--no-tightness")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            env=child_env(), preexec_fn=pin_child)
    _, status, usage = os.wait4(proc.pid, 0)
    latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = []
    if proc.returncode != 0:
        problems.append("iolb exited %d" % proc.returncode)
    else:
        try:
            with open(out_json) as f:
                report = json.load(f)
            if report.get("failures"):
                problems.append("failure rows: %r" % report["failures"])
            problems += bl.check_rows(report["rows"], expected, DENSE_ROWS)
            if tightness:
                with open(out_tight) as f:
                    problems += bl.check_tightness(json.load(f)["kernels"], len(bl.DENSE))
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems.append("unreadable output: %s" % e)
    return latency, usage.ru_maxrss, problems


def cli_setup(workload):
    """Reads the inputs and runs one untimed warm-up op (the workload's
    cheapest kind of `iolb` call, at a default size)."""
    sources, expected = load_inputs()
    warm = ("qr_hh_a2v", None, workload == "batch")
    _, _, problems = cli_op(warm, expected)
    if problems:
        raise BenchError("warm-up op failed: %s" % problems[0])
    return expected


def timed_setups(probe, reps, setup):
    """Runs `setup` `reps` times, each after a probe sample. Returns the
    last set-up's result and the raw and scaled median set-up seconds."""
    setups = []
    for _ in range(reps):
        probe.sample()
        t0 = time.perf_counter()
        out = setup()
        setups.append(time.perf_counter() - t0)
    raw = statistics.median(setups)
    return out, raw, raw * probe.scale()


def log_raw(workload, metrics, raw):
    log("%s unscaled: %s" % (workload, " ".join(
        "%s=%.6g" % (k, raw[k]) for k in metrics if k in raw)))


def run_cli(workload, seed, seconds, probe, passes=None):
    """Whole passes while the next one is expected to end within `seconds`
    (at least one), or exactly `passes` passes. Every op is preceded by
    probe samples; a pass is one scaling window."""
    expected, raw_setup, setup_s = timed_setups(
        probe, CLI_SETUP_REPS if passes is None else 1, lambda: cli_setup(workload))
    pass_ms, raw_pass_ms, rss, failed, by_op = [], [], 0, 0, {}
    busy, raw_busy = 0.0, 0.0
    plan = bl.cli_passes(workload, seed)
    t0 = time.perf_counter()
    while True:
        lat, pass_busy = [], 0.0
        order = next(plan)
        for op, samples in zip(order, bl.probe_counts(len(order), PROBES_PER_PASS)):
            for _ in range(samples):
                probe.sample()
            t = time.perf_counter()
            latency, peak_kb, problems = cli_op(op, expected)
            pass_busy += time.perf_counter() - t
            lat.append(latency * 1e3)
            rss = max(rss, peak_kb)
            by_op.setdefault(op, []).append(latency)
            if problems:
                failed += 1
                log("FAIL %s: %s" % (op, "; ".join(problems[:3])))
        factor = probe.scale()
        pass_ms.append([x * factor for x in lat])
        raw_pass_ms.append(lat)
        busy += pass_busy * factor
        raw_busy += pass_busy
        elapsed = time.perf_counter() - t0
        if passes is not None:
            if len(pass_ms) >= passes:
                break
        elif elapsed * (len(pass_ms) + 1) / len(pass_ms) > seconds:
            break
    ops = sum(len(p) for p in pass_ms)
    log("%s: %d ops in %d passes, %.1f s" % (workload, ops, len(pass_ms), elapsed))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / busy, "1/s"),
        "op_p50_ms": (bl.pass_percentile(pass_ms, 50), "ms"),
        "op_p90_ms": (bl.pass_percentile(pass_ms, 90), "ms"),
        "peak_rss_mb": (rss / 1024.0, "MB"),
    }
    log_raw(workload, metrics, {
        "setup_s": raw_setup, "ops_per_s": ops / raw_busy,
        "op_p50_ms": bl.pass_percentile(raw_pass_ms, 50),
        "op_p90_ms": bl.pass_percentile(raw_pass_ms, 90)})
    return metrics, ops, failed, by_op


# ---------------------------------------------------------------------------
# serve: one `iolbd` daemon, one keep-alive client connection
# ---------------------------------------------------------------------------

class Client:
    """Minimal HTTP/1.1 keep-alive client on one socket."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def request(self, method, path, body=b""):
        """Returns (status, headers, body, seconds from send to last byte)."""
        msg = ("%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
               "Content-Length: %d\r\n\r\n" % (method, path, len(body))).encode() + body
        t0 = time.perf_counter()
        self.sock.sendall(msg)
        while b"\r\n\r\n" not in self.buf:
            self._recv()
        head, self.buf = self.buf.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            k, _, v = line.partition(":")
            headers[k.strip().lower()] = v.strip()
        n = int(headers.get("content-length", "0"))
        while len(self.buf) < n:
            self._recv()
        data, self.buf = self.buf[:n], self.buf[n:]
        return status, headers, data, time.perf_counter() - t0

    def _recv(self):
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise BenchError("daemon closed the connection")
        self.buf += chunk

    def close(self):
        self.sock.close()


class Daemon:
    def __init__(self, store):
        shutil.rmtree(store, ignore_errors=True)
        self.proc = subprocess.Popen(
            [binary("iolbd"), "--addr", "127.0.0.1:0", "--store", store],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(),
            preexec_fn=pin_child)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening on "):
            self.stop()
            raise BenchError("iolbd did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])
        self.client = Client(self.port)
        deadline = time.monotonic() + 30
        while self.client.request("GET", "/healthz")[0] != 200:
            if time.monotonic() > deadline:
                raise BenchError("iolbd /healthz never returned 200")
            time.sleep(0.01)

    def peak_rss_kb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for iolbd")

    def stop(self):
        try:
            if getattr(self, "client", None):
                try:
                    self.client.request("POST", "/shutdown")
                except (OSError, BenchError):
                    pass
                self.client.close()
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def serve_request(daemon, sources, req):
    kind, kernel, grid = req
    body = bl.serve_body(sources[kernel], grid).encode()
    status, headers, data, dt = daemon.client.request("POST", "/analyze", body)
    problems = []
    if status != 200:
        problems.append("status %d" % status)
    if headers.get("x-iolb-cache") != kind:
        problems.append("X-Iolb-Cache %r, planned %s" % (headers.get("x-iolb-cache"), kind))
    return data, dt, problems


def check_serve_body(data, expected):
    try:
        doc = json.loads(data)
        return bl.check_rows(doc["sweep"]["rows"], expected, SERVE_ROWS)
    except (ValueError, KeyError, TypeError) as e:
        return ["unreadable body: %s" % e]


def serve_setup():
    """Reads the inputs, starts a daemon on a fresh store, and answers the
    warm-up key once (miss) and again (hit)."""
    sources, expected = load_inputs()
    daemon = Daemon(os.path.join(RUN_DIR, "store"))
    try:
        bodies = {}
        for kind in ("miss", "hit"):
            req = (kind,) + bl.SERVE_WARM_KEY
            data, _, problems = serve_request(daemon, sources, req)
            if kind == "miss":
                problems += check_serve_body(data, expected)
                bodies[bl.SERVE_WARM_KEY] = data
            elif data != bodies[bl.SERVE_WARM_KEY]:
                problems.append("warm-up hit body differs from its miss body")
            if problems:
                raise BenchError("warm-up %s failed: %s" % (kind, problems[0]))
    except BaseException:
        daemon.stop()
        raise
    return sources, expected, daemon, bodies


def run_serve(seed, seconds, probe):
    """Whole request cycles until `seconds` have elapsed. A probe sample
    precedes every SERVE_PROBE_EVERY requests; a cycle is one scaling
    window."""
    daemons = []

    def setup():
        if daemons:
            daemons.pop().stop()
        out = serve_setup()
        daemons.append(out[2])
        return out

    try:
        (sources, expected, daemon, bodies), raw_setup, setup_s = timed_setups(
            probe, SERVE_SETUP_REPS, setup)
        lat = {"hit": [], "miss": []}
        raw = {"hit": [], "miss": []}
        failed, busy, raw_busy = 0, 0.0, 0.0
        plan = bl.serve_cycles(seed)
        t0 = time.perf_counter()
        cycles = 0
        while True:
            cycle_lat = []
            for i, req in enumerate(next(plan)):
                if i % SERVE_PROBE_EVERY == 0:
                    probe.sample()
                kind, key = req[0], req[1:]
                t = time.perf_counter()
                data, dt, problems = serve_request(daemon, sources, req)
                if kind == "miss":
                    problems += check_serve_body(data, expected)
                    bodies[key] = data
                elif data != bodies.get(key):
                    problems.append("hit body differs from the miss body of its key")
                cycle_lat.append((kind, dt * 1e3, time.perf_counter() - t))
                if problems:
                    failed += 1
                    log("FAIL %s %s: %s" % (kind, key[0], "; ".join(problems[:3])))
            factor = probe.scale()
            for kind, ms, spent in cycle_lat:
                lat[kind].append(ms * factor)
                raw[kind].append(ms)
                busy += spent * factor
                raw_busy += spent
            cycles += 1
            if cycles == SERVE_RSS_CYCLES:
                rss_kb = daemon.peak_rss_kb()
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                break
        if cycles < SERVE_RSS_CYCLES:
            rss_kb = daemon.peak_rss_kb()
    finally:
        for d in daemons:
            d.stop()
    every = lat["hit"] + lat["miss"]
    log("serve: %d requests (%d hits, %d misses) in %d cycles, %.1f s; "
        "hit p50 %.4f ms, hit p99 %.4f ms (%d beyond), miss p50 %.2f ms"
        % (len(every), len(lat["hit"]), len(lat["miss"]), cycles, elapsed,
           bl.percentile(lat["hit"], 50), bl.percentile(lat["hit"], 99),
           bl.beyond(lat["hit"], 99), bl.percentile(lat["miss"], 50)))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(every) / busy, "1/s"),
        "op_p50_ms": (bl.percentile(every, 50), "ms"),
        "op_p90_ms": (bl.percentile(every, 90), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    raw_every = raw["hit"] + raw["miss"]
    log_raw("serve", metrics, {
        "setup_s": raw_setup, "ops_per_s": len(every) / raw_busy,
        "op_p50_ms": bl.percentile(raw_every, 50), "op_p90_ms": bl.percentile(raw_every, 90)})
    return metrics, len(every), failed, raw


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def per_layer_units():
    """Name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def write_plan(workload, seed, path, ops_wanted):
    """The traced run's op plan: the same seeded sequence the end-to-end
    run issues, with `pass` lines at whole-pass boundaries."""
    lines = []
    if workload == "serve":
        kind, kernel, grid = ("miss",) + bl.SERVE_WARM_KEY
        lines.append("serve\tmiss\t%s\t%s" % (bl.kernel_path(kernel), ",".join(map(str, grid))))
        lines.append("serve\thit\t%s\t%s" % (bl.kernel_path(kernel), ",".join(map(str, grid))))
        planned = ["miss", "hit"]
        for cycle in bl.take(bl.serve_cycles(seed), ops_wanted):
            for kind, kernel, grid in cycle:
                lines.append("serve\t%s\t%s\t%s"
                             % (kind, bl.kernel_path(kernel), ",".join(map(str, grid))))
                planned.append(kind)
            lines.append("pass")
    else:
        planned = []
        for order in bl.take(bl.cli_passes(workload, seed), ops_wanted):
            for kernel, params, tightness in order:
                lines.append("cli\t%s\t%s\t%d"
                             % (bl.kernel_path(kernel), params or "-", int(tightness)))
            lines.append("pass")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return planned


def run_traced(workload, seed, seconds, probe):
    """End-to-end reference phase (tracing off, outputs checked), then the
    traced runner on the same seeded ops. Per-layer times are unscaled.
    Returns (metrics, attempted, failed)."""
    t_start = time.perf_counter()
    fresh_run_dir()
    if workload == "serve":
        _, attempted, failed, lat = run_serve(seed, seconds / 2.0, probe)
        e2e_hit_ms = sum(lat["hit"]) / len(lat["hit"])
    else:
        _, attempted, failed, _ = run_cli(workload, seed, seconds, probe, passes=1)
    plan_path = os.path.join(RUN_DIR, "plan.tsv")
    planned = write_plan(workload, seed, plan_path, 40)
    remaining = max(1.0, seconds - (time.perf_counter() - t_start))
    r = subprocess.run(
        [binary("perfbench-trace"), "--plan", plan_path,
         "--spans", os.path.join(RUN_DIR, "spans-%s-%d.tsv" % (workload, seed)),
         "--store", os.path.join(RUN_DIR, "trace-store"), "--iolb", binary("iolb"),
         "--seconds", "%.3f" % remaining],
        stdout=subprocess.PIPE, stderr=sys.stderr, env=child_env(), preexec_fn=pin_child)
    if r.returncode != 0:
        raise BenchError("traced runner exited %d" % r.returncode)
    out = json.loads(r.stdout.decode().strip().splitlines()[-1])
    m = dict(out["metrics"])
    ops = int(m["trace.ops"])
    attempted += ops
    m["iolbd.http_ms"] = 0.0
    if workload == "serve":
        kinds = planned[:ops]
        want_ratio = kinds.count("hit") / float(len(kinds))
        if m["service.hit_ratio"] != want_ratio:
            failed += 1
            log("FAIL traced hit ratio %r, planned %r" % (m["service.hit_ratio"], want_ratio))
        m["iolbd.http_ms"] = e2e_hit_ms - out["hit_span_ms"]
    layers = sorted((v, k) for k, v in m.items()
                    if k.endswith("_ms") and not k.startswith("trace.")
                    and k not in ("iolbd.http_ms", "cli.overhead_ms"))
    log("%s traced: %d ops, op %.2f ms = layers + unattributed %.2f ms; overhead %.3f ms; "
        "cli.overhead_ms %.2f; iolbd.http_ms %.4f"
        % (workload, ops, m["trace.op_ms"], m["trace.unattributed_ms"], m["trace.overhead_ms"],
           m["cli.overhead_ms"], m["iolbd.http_ms"]))
    for v, k in reversed(layers):
        if v:
            log("  %-26s %12.3f ms/op (self)" % (k, v))
    for k in ("memsim.lru_ns_per_access", "memsim.opt_ns_per_access"):
        if m[k]:
            log("  %-26s %12.3f ns/access (self, %.3f ms/op)"
                % (k, m[k], m[k] * m["cdag.trace_events"] / 1e6))
    metrics = {k: (m[k], unit) for k, unit in per_layer_units().items()}
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def run_once(args):
    build(args.trace)
    pin_client()
    fresh_run_dir()
    with Pollers():
        probe = Probe()
        if args.trace:
            metrics, attempted, failed = run_traced(args.workload, args.seed, args.seconds,
                                                    probe)
        elif args.workload == "serve":
            metrics, attempted, failed, _ = run_serve(args.seed, args.seconds, probe)
        else:
            metrics, attempted, failed, _ = run_cli(args.workload, args.seed, args.seconds,
                                                    probe)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def run_steadiness(args):
    """Repeats each workload with seeds 1..N through this script and prints
    every metric's median, quartiles and spread."""
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    for w in workloads:
        runs, unscaled = [], []
        for seed in range(1, args.steadiness + 1):
            r = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                                "--seed", str(seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)],
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            if r.returncode != 0:
                raise BenchError("%s seed %d exited %d" % (w, seed, r.returncode))
            res = json.loads(r.stdout.decode().strip().splitlines()[-1])
            if not res["correct"]:
                raise BenchError("%s seed %d: %d of %d ops failed"
                                 % (w, seed, res["failed"], res["attempted"]))
            runs.append(res["metrics"])
            for line in r.stderr.decode().splitlines():
                if line.startswith(w + " unscaled: "):
                    unscaled.append(dict((kv.split("=")[0], float(kv.split("=")[1]))
                                         for kv in line.split(": ", 1)[1].split()))
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items())), flush=True)
        print("%s (%d runs, seeds 1..%d)" % (w, len(runs), len(runs)))
        print("  %-26s %12s %12s %12s %9s %9s %13s"
              % ("metric", "median", "q1", "q3", "iqr/med", "range/med", "unscaled iqr"))
        for name in runs[0]:
            st = bl.steadiness([r[name]["value"] for r in runs])
            raw = ("%13.4f" % bl.steadiness([u[name] for u in unscaled])["iqr_share"]
                   if len(unscaled) == len(runs) and name in unscaled[0] else "")
            print("  %-26s %12.4f %12.4f %12.4f %9.4f %9.4f %s"
                  % (name, st["median"], st["q1"], st["q3"], st["iqr_share"],
                     st["range_share"], raw))
        sys.stdout.flush()


def regen_expected():
    """Rewrites perfbench/expected_loads.txt from the reference simulators
    for every (kernel, params) configuration the workloads reach."""
    build(True)
    configs = [bl.kernel_path(k) for k in bl.KERNELS]
    configs += ["%s:%s" % (bl.kernel_path(k), p) for k, p in bl.REGIME]
    r = subprocess.run([binary("perfbench-expected")] + configs,
                       stdout=subprocess.PIPE, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("perfbench-expected exited %d" % r.returncode)
    header = ("# Expected loads per (kernel, params, S, policy): LruSim / BeladySim\n"
              "# replays of each program-order trace. Regenerate with\n"
              "#   python3 perfbench/run.py --regen-expected\n")
    with open(EXPECTED, "w") as f:
        f.write(header + r.stdout.decode())
    bl.parse_expected(header + r.stdout.decode())
    log("wrote %s" % EXPECTED)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="N")
    ap.add_argument("--regen-expected", action="store_true")
    args = ap.parse_args()
    try:
        if args.regen_expected:
            regen_expected()
        elif args.steadiness:
            run_steadiness(args)
        elif args.workload:
            run_once(args)
        else:
            ap.error("--workload is required")
    except (BenchError, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)


if __name__ == "__main__":
    main()
