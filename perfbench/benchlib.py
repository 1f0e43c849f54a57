"""Pure helpers of the benchmark: statistics, seeded op plans, the
expected-loads oracle and the output checks. Nothing here starts a process
or reads a clock, so all of it is unit-tested (test_benchlib.py)."""

import json
import random
import statistics

# The 11 shipped kernels the `batch` and `serve` workloads draw from. Fixed
# here, not globbed, so a kernel added later does not change the workload.
KERNELS = [
    "cholesky", "gebd2", "gehd2", "gemm", "gemm_tiled", "jacobi2d",
    "lu_nopiv", "mgs", "qr_hh_a2v", "qr_hh_v2q", "syrk",
]

# The paper kernels at sizes where the hourglass bound beats the classical
# one (S << M), run without the tightness tuner.
REGIME = [
    ("mgs", "M=512,N=32"),
    ("qr_hh_a2v", "M=256,N=32"),
    ("qr_hh_v2q", "M=256,N=32"),
    ("gebd2", "M=128,N=32"),
]

# The analysis's default dense S grid (offsets above each kernel's minimum
# feasible S); `serve` requests seed-drawn subsets of it.
DENSE = [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 13, 16, 19, 23, 27, 32, 38, 45,
         54, 64, 76, 91, 108, 128, 139, 152, 166, 181, 197, 215, 256]

SERVE_BLOCK = 20        # one fresh key per block of 20 requests: 95% hits
SERVE_GRID_POINTS = 16  # S points of every served request, grid ends included
SERVE_WARM_KEY = ("qr_hh_a2v", tuple(DENSE[:SERVE_GRID_POINTS - 1] + DENSE[-1:]))


def serve_grid(rng):
    """A seed-drawn SERVE_GRID_POINTS-point subset of the dense grid that
    always holds its two ends, so every request prices its curves up to the
    same horizon and does the same amount of work."""
    inner = rng.sample(DENSE[1:-1], SERVE_GRID_POINTS - 2)
    return tuple([DENSE[0]] + sorted(inner) + [DENSE[-1]])


def kernel_path(name):
    return "kernels/%s.iolb" % name


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values, p):
    """Linear-interpolation percentile (0 <= p <= 100) of a non-empty list:
    position p/100 * (n - 1) in sorted order, so p0 is the minimum and p100
    the maximum."""
    if not values:
        raise ValueError("percentile of an empty list")
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(values, p):
    """How many samples lie strictly above the p-th percentile."""
    cut = percentile(values, p)
    return sum(1 for v in values if v > cut)


def pass_percentile(passes, p):
    """Median over whole passes of each pass's p-th percentile. Every pass
    holds each op once, so this stays at one op kind's typical latency,
    where a percentile of the pooled samples can sit on the tail of one
    kind's block and follow its most extreme sample."""
    return statistics.median(percentile(ops, p) for ops in passes)


def probe_counts(n_ops, per_window):
    """How many probe samples to take before each of `n_ops` ops so that
    their window gets `per_window` samples, spread as evenly as whole
    numbers allow."""
    return [(i + 1) * per_window // n_ops - i * per_window // n_ops for i in range(n_ops)]


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them —
    the method the run-to-run spread in perfbench/README.md is computed with."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(values):
    """Summary of one metric over repeated runs: median, quartiles, the
    inter-quartile distance and the full range, both as shares of the
    median."""
    q1, med, q3 = quartiles(values)
    scale = abs(med) if med else 1.0
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "range_share": (max(values) - min(values)) / scale,
    }


# ---------------------------------------------------------------------------
# seeded plans
# ---------------------------------------------------------------------------

def cli_passes(workload, seed):
    """Endless whole passes of a `batch` or `regime` run. Every pass holds
    each op of the workload once, in a seed-drawn order; an op is
    (kernel, params or None, tightness)."""
    if workload == "batch":
        ops = [(k, None, True) for k in KERNELS]
    elif workload == "regime":
        ops = [(k, p, False) for k, p in REGIME]
    else:
        raise ValueError("not a cli workload: %s" % workload)
    rng = random.Random("%s/%d" % (workload, seed))
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order


def serve_cycles(seed):
    """Endless whole cycles of the `serve` request sequence. A cycle holds
    one block of SERVE_BLOCK requests per kernel (kernel order seed-drawn);
    each block has one fresh key (that kernel at its defaults on a
    `serve_grid`) at a
    seed-drawn position, and the other requests repeat a uniformly drawn
    key already answered. A request is (kind, kernel, grid) with kind
    "miss" or "hit". The warm-up key counts as answered from the start."""
    rng = random.Random("serve/%d" % seed)
    answered = [SERVE_WARM_KEY]
    seen = {SERVE_WARM_KEY}
    while True:
        order = list(KERNELS)
        rng.shuffle(order)
        cycle = []
        for kernel in order:
            miss_at = rng.randrange(SERVE_BLOCK)
            for i in range(SERVE_BLOCK):
                if i == miss_at:
                    while True:
                        grid = serve_grid(rng)
                        key = (kernel, grid)
                        if key not in seen:
                            break
                    seen.add(key)
                    answered.append(key)
                    cycle.append(("miss",) + key)
                else:
                    cycle.append(("hit",) + answered[rng.randrange(len(answered))])
        yield cycle


def take(gen, n):
    """First n whole items of a plan generator."""
    return [next(gen) for _ in range(n)]


def serve_body(source, grid):
    """Typed-JSON `POST /analyze` body of one serve request."""
    return json.dumps({
        "source": source,
        "options": {"no-tightness": True, "s-grid": list(grid)},
    })


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def parse_expected(text):
    """Parses the expected-loads file: `kernel params s policy loads` per
    line, `#` comments and blank lines ignored. Returns
    {(kernel, params, s, policy): loads}. Raises ValueError on a malformed
    or duplicated entry."""
    table = {}
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        f = line.split()
        if len(f) != 5:
            raise ValueError("line %d: want 5 fields, got %d" % (n, len(f)))
        kernel, params, s, policy, loads = f
        if policy not in ("lru", "min_next_use"):
            raise ValueError("line %d: unknown policy %r" % (n, policy))
        key = (kernel, params, int(s), policy)
        if key in table:
            raise ValueError("line %d: duplicate entry %r" % (n, key))
        table[key] = int(loads)
    return table


def row_key(row):
    return (row["kernel"], ",".join(str(p) for p in row["params"]),
            row["s"], row["policy"])


def check_rows(rows, expected, want_rows):
    """Problems with one report's sweep rows: each row's loads must equal
    the reference simulators' value and its bound must be sound; the row
    count must be `want_rows`."""
    problems = []
    if len(rows) != want_rows:
        problems.append("got %d rows, want %d" % (len(rows), want_rows))
    for row in rows:
        key = row_key(row)
        want = expected.get(key)
        if want is None:
            problems.append("no expected loads for %r" % (key,))
        elif row["loads"] != want:
            problems.append("%r: loads %d, expected %d" % (key, row["loads"], want))
        if row.get("sound") is not True:
            problems.append("%r: unsound row" % (key,))
    return problems


def check_tightness(kernels, want_points):
    """Problems with a tightness report: every point must satisfy
    lower_bound <= upper_loads <= program_order_loads."""
    problems = []
    points = [p for k in kernels for p in k["points"]]
    if len(points) != want_points:
        problems.append("got %d tightness points, want %d" % (len(points), want_points))
    for p in points:
        if not p["lower_bound"] <= p["upper_loads"] <= p["program_order_loads"]:
            problems.append("s=%s: lower_bound %s, upper_loads %s, program_order_loads %s"
                            % (p["s"], p["lower_bound"], p["upper_loads"],
                               p["program_order_loads"]))
    return problems
