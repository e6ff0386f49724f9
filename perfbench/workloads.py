"""Workload inputs, one timed pass of each workload, and the output checks.

Inputs depend only on ``(seed, size)``; the program sees only the generated
inputs.  ``size`` is ``"full"`` for measurement and ``"tiny"`` for the
self-test.  Every public function here is called from ``worker.py`` after
``reinhardt`` has been imported, and reaches the program through module
attributes at call time, so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import reinhardt.cli
import reinhardt.domains
import reinhardt.kernels
import reinhardt.norms
import reinhardt.sampling
import reinhardt.series
import reinhardt.shadow
import reinhardt.verify

#: The seed whose inputs are the ones the benchmark was defined with and
#: whose outputs are recorded in reference.json.
DEFAULT_SEED = 20260818

WORKLOADS = ("verify-all", "series-routes", "norm-queries")
ROUTES = ("closed_form", "model", "oracle")

#: A Monte-Carlo estimate of a finite norm with finite variance must lie
#: within this many standard errors of the exact value.
MC_Z_LIMIT = 6.0
#: Closed-form windows are compared with the shadow oracle on a random
#: sub-box this wide in each coordinate.
SUBBOX_WIDTH = 4
#: Exact norm queries re-asked with coordinates permuted inside their sign
#: blocks, on seeds without recorded outputs.
SYMMETRY_QUERIES = 50

KNOWN_DEFECT = "finite Monte-Carlo estimate for an infinite norm"


def verify_seed(seed: int) -> int:
    return seed % (1 << 32)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """What one pass measured, plus what the checks found.

    ``intervals`` maps each timed quantity to its ``perf_counter_ns``
    intervals; :func:`summarize` turns them into metrics with a function
    that converts intervals to seconds.
    """

    workload: str
    intervals: dict        # name -> [(start_ns, end_ns), ...]
    counts: dict           # work done, e.g. points per route
    records: list          # per-request outputs in recorded form
    attempted: int = 0
    failures: list = field(default_factory=list)  # human-readable descriptions
    known_defects: int = 0


def summarize(outcome: Outcome, seconds) -> tuple[float, dict, dict]:
    """``(wall_s, parts, named)`` of one pass.

    ``seconds(intervals, kind)`` gives the time the intervals took, where
    ``kind`` is ``"numpy"`` for Monte-Carlo work and ``"exact"`` otherwise.
    ``parts`` are the gated ``part1_s``..``part3_s``; ``named`` holds the
    workload's own metrics as ``name -> (value, unit)``.
    """
    iv, counts = outcome.intervals, outcome.counts
    if outcome.workload == "verify-all":
        times = [seconds(iv.get(f"suite:{name}", []), "numpy" if name == "reproducing" else "exact")
                 for name in VERIFY_PARTS]
        named = {f"suite.{name}_s": (t, "s") for name, t in zip(VERIFY_PARTS, times)}
        wall = seconds(iv["wall"], "exact")
    elif outcome.workload == "series-routes":
        times = [seconds(iv[route], "exact") for route in ROUTES]
        named = {f"series.{route}.coeffs_per_s": (counts[route] / t, "1/s") for route, t in zip(ROUTES, times)}
        wall = sum(times)
    else:
        exact = sorted(seconds([one], "exact") for one in iv["exact"])
        p50, _ = _quantile(exact, 0.50)
        p99, beyond = _quantile(exact, 0.99)
        mc = seconds(iv["mc"], "numpy")
        rate = counts["mc_samples"] / mc
        wall = sum(exact) + mc
        times = [p50, p99, 1e6 / rate]
        named = {
            "norm.exact.p50_ms": (1e3 * p50, "ms"),
            "norm.exact.p99_ms": (1e3 * p99, "ms"),
            "norm.exact.samples": (len(exact), "count"),
            "norm.exact.beyond_p99": (beyond, "count"),
            "norm.mc.samples_per_s": (rate, "1/s"),
        }
    parts = {f"part{i + 1}_s": t for i, t in enumerate(times)}
    return wall, parts, named


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

#: Suites whose times are the gated parts, in part order.
VERIFY_PARTS = ("norms", "coefficient-match", "reproducing")


def run_verify(seed: int, size: str, scratch: Path, new_request) -> Outcome:
    verify = reinhardt.verify
    intervals = {}

    def timed(name, fn):
        def run(suite_seed):
            new_request()
            t0 = perf_counter_ns()
            try:
                return fn(suite_seed)
            finally:
                intervals[f"suite:{name}"] = [(t0, perf_counter_ns())]
        return run

    for name, fn in list(verify.SUITES.items()):
        verify.SUITES[name] = timed(name, fn)
    suite = "all" if size == "full" else "combinatorics"
    report_path = scratch / f"verify-report-{os.getpid()}.json"
    argv = ["verify", "--suite", suite, "--seed", str(verify_seed(seed)), "--report", str(report_path)]
    captured = io.StringIO()
    t0 = perf_counter_ns()
    with redirect_stdout(captured):
        code = reinhardt.cli.main(argv)
    intervals["wall"] = [(t0, perf_counter_ns())]
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report_path.unlink()
    records = [
        [s["name"], c["name"], c["passed"], c["detail"]]
        for s in report["suites"] for c in s["checks"]
    ]
    records.append(["cli", "exit-code", code == 0, str(code)])
    return Outcome("verify-all", intervals, {}, records)


def check_verify(outcome: Outcome, reference: list, details: bool) -> None:
    """Every recorded check is present and passed; with ``details``, its detail matches too.

    Only the name, pass flag and detail of each check are compared, so
    report keys added later do not count as differences.
    """
    got = {(r[0], r[1]): r for r in outcome.records}
    failures = []
    for want in reference:
        have = got.get((want[0], want[1]))
        if have is None:
            failures.append(f"{want[0]}/{want[1]}: missing from the report")
        elif not have[2]:
            failures.append(f"{want[0]}/{want[1]}: failed: {have[3]}")
        elif details and have[3] != want[3]:
            failures.append(f"{want[0]}/{want[1]}: detail {have[3]!r} != recorded {want[3]!r}")
    outcome.attempted = len(reference)
    outcome.failures = failures


# ---------------------------------------------------------------------------
# series-routes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    route: str
    k: tuple            # normalized exponent vector
    box: tuple          # ((lo, hi), ...) in the coordinates of ``k``
    perm: tuple         # coordinate i of this window is coordinate perm[i] of the default window


#: The default windows: (route, k, box) at full and at tiny size.
SERIES_WINDOWS = {
    "full": (
        ("closed_form", (1, -1), ((0, 300), (-300, 300))),
        ("closed_form", (3, -4, -5), ((0, 24), (-12, 12), (-12, 12))),
        ("model", (1, 1, -1, -1), ((-6, 6),) * 4),
        ("model", (1, 1, 1, -1, -1), ((-3, 3),) * 5),
        ("oracle", (2, 1, -1, -3), ((0, 3), (0, 3), (-3, 3), (-3, 3))),
        ("oracle", (3, 1, -2, -5), ((0, 4), (0, 4), (-4, 4), (-4, 4))),
        ("oracle", (2, 3, -4), ((0, 8), (0, 8), (-8, 8))),
    ),
    "tiny": (
        ("closed_form", (1, -1), ((0, 12), (-12, 12))),
        ("closed_form", (3, -4, -5), ((0, 3), (-2, 2), (-2, 2))),
        ("model", (1, 1, -1, -1), ((-1, 1),) * 4),
        ("model", (1, 1, 1, -1, -1), ((-1, 0),) * 5),
        ("oracle", (2, 1, -1, -3), ((0, 1), (0, 1), (-1, 1), (-1, 1))),
        ("oracle", (3, 1, -2, -5), ((0, 1), (0, 1), (-1, 1), (-1, 1))),
        ("oracle", (2, 3, -4), ((0, 2), (0, 2), (-2, 2))),
    ),
}


def series_windows(seed: int, size: str) -> list[Window]:
    """The default windows, each relabelled by a seeded permutation of its sign blocks.

    Permuting coordinates inside a sign block gives another domain of the
    same family whose kernel coefficients are the default ones relabelled,
    so the program sees different specs while the work per window stays
    close to the same (the oracle integrates in coordinate order, so its
    route time moves by a few percent).  The default seed keeps every
    window as listed.
    """
    rng = random.Random(f"series:{seed}")
    out = []
    for route, k, box in SERIES_WINDOWS[size]:
        s = sum(1 for e in k if e > 0)
        pos, neg = list(range(s)), list(range(s, len(k)))
        if seed != DEFAULT_SEED:
            rng.shuffle(pos)
            rng.shuffle(neg)
        perm = tuple(pos + neg)
        out.append(Window(route, tuple(k[p] for p in perm), tuple(box[p] for p in perm), perm))
    return out


def _default_rows(window: Window, rows: list[str]) -> str:
    """The window's CSV text with coordinates put back in default order."""
    if window.perm == tuple(range(len(window.perm))):
        return "\n".join(rows)
    n = len(window.perm)
    keyed = []
    for row in rows:
        fields = row.split(",")
        alpha = [0] * n
        for i, p in enumerate(window.perm):
            alpha[p] = int(fields[i])
        keyed.append((alpha, fields[n]))
    keyed.sort()
    return "\n".join(",".join(map(str, a)) + "," + c for a, c in keyed)


def _subbox(window: Window, seed: int, index: int) -> tuple:
    rng = random.Random(f"subbox:{seed}:{index}")
    out = []
    for lo, hi in window.box:
        width = min(SUBBOX_WIDTH, hi - lo + 1)
        start = rng.randint(lo, hi - width + 1)
        out.append((start, start + width - 1))
    return tuple(out)


def run_series(seed: int, size: str, new_request) -> Outcome:
    series, kernels, domains = reinhardt.series, reinhardt.kernels, reinhardt.domains
    intervals = {route: [] for route in ROUTES}
    points = dict.fromkeys(ROUTES, 0)
    records = []
    for index, w in enumerate(series_windows(seed, size)):
        new_request()
        t0 = perf_counter_ns()
        if w.route == "closed_form":
            chunk = series.expand_closed_form(kernels.kernel_signature_one(domains.normalize_spec(w.k)), w.box)
        elif w.route == "model":
            s = sum(1 for e in w.k if e > 0)
            chunk = series.series_coefficients_model(len(w.k), s, w.box)
        else:
            chunk = series.series_coefficients_oracle(domains.normalize_spec(w.k), w.box)
        rows = list(chunk.csv_rows())
        intervals[w.route].append((t0, perf_counter_ns()))
        points[w.route] += len(rows)
        # Outside the clock: keep only what the checks need.
        sample = None
        if w.route == "closed_form":
            sub = _subbox(w, seed, index)
            in_sub = itertools.product(*(range(lo, hi + 1) for lo, hi in sub))
            sample = (sub, chunk.pi_power, {a: chunk.terms.get(a, 0) for a in in_sub})
        records.append({
            "window": w,
            "digest": _digest(_default_rows(w, rows)),
            "sample": sample,
        })
        del chunk, rows
    return Outcome("series-routes", intervals, points, records)


def check_series(outcome: Outcome, reference: list | None) -> None:
    """Recorded CSV digests, and closed-form windows against the shadow oracle on a sub-box.

    Every seed's windows relabel the default ones, so the recorded digests
    of the default windows apply to every seed.
    """
    failures = []
    for index, rec in enumerate(outcome.records):
        w = rec["window"]
        label = f"{w.route} {w.k} box {w.box}"
        if reference is not None and rec["digest"] != reference[index]:
            failures.append(f"{label}: CSV digest {rec['digest']} != recorded {reference[index]}")
            continue
        if rec["sample"] is not None:
            sub, pi_power, got = rec["sample"]
            oracle = reinhardt.series.series_coefficients_oracle(reinhardt.domains.normalize_spec(w.k), sub)
            bad = [a for a, c in got.items() if oracle.coefficient(a) != c]
            if bad or oracle.pi_power != pi_power:
                failures.append(f"{label}: {len(bad)} of {len(got)} coefficients differ from the oracle on {sub}")
    outcome.attempted = len(outcome.records)
    outcome.failures = failures


def series_reference(outcome: Outcome) -> list:
    return [rec["digest"] for rec in outcome.records]


# ---------------------------------------------------------------------------
# norm-queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    k: tuple
    alpha: tuple
    samples: int = 0    # 0 for an exact query
    mc_seed: int = 0


#: Per n in {2, 3, 4}: exact queries, Monte-Carlo queries, samples per MC query.
NORM_SIZES = {"full": (1000, 8, 10 ** 6), "tiny": (10, 1, 10 ** 4)}


def _draw_spec(rng: random.Random, n: int) -> tuple:
    while True:
        s = rng.randint(1, n - 1)
        k = tuple(rng.randint(1, 7) for _ in range(s)) + tuple(-rng.randint(1, 7) for _ in range(n - s))
        if math.gcd(*k) == 1:
            return k


def norm_queries(seed: int, size: str) -> list[Query]:
    """A shuffled stream of single queries, each on a freshly drawn spec.

    The same number of queries is drawn for each n, so the mix of costs
    is the same on every seed.  Divergent exponents are kept.
    """
    exact_per_n, mc_per_n, samples = NORM_SIZES[size]
    rng = random.Random(f"norm:{seed}")
    out = []
    for n in (2, 3, 4):
        for i in range(exact_per_n + mc_per_n):
            k = _draw_spec(rng, n)
            alpha = tuple(rng.randint(-2, 8) for _ in range(n))
            if i < exact_per_n:
                out.append(Query(k, alpha))
            else:
                out.append(Query(k, alpha, samples, rng.getrandbits(32)))
    rng.shuffle(out)
    return out


def _norm_key(value) -> str:
    if not value.finite:
        return "inf"
    c = value.coefficient
    return f"{c.numerator}/{c.denominator}:pi^{value.pi_power}"


def _quantile(sorted_values: list, q: float) -> tuple[float, int]:
    """The q-quantile (nearest rank) and how many samples lie above it."""
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx], len(sorted_values) - idx - 1


def run_norms(seed: int, size: str, new_request) -> Outcome:
    domains, shadow, sampling = reinhardt.domains, reinhardt.shadow, reinhardt.sampling
    queries = norm_queries(seed, size)
    results = []
    intervals = {"exact": [], "mc": []}
    for q in queries:
        new_request()
        t0 = perf_counter_ns()
        try:
            spec = domains.normalize_spec(q.k)
            if q.samples:
                value = sampling.mc_norm_estimate(q.alpha, spec, q.samples, q.mc_seed)
            else:
                value = shadow.monomial_norm_oracle(q.alpha, spec)
        except Exception as err:  # counted by the checks; refusing a divergent estimate is one way to pass
            value = err
        intervals["mc" if q.samples else "exact"].append((t0, perf_counter_ns()))
        results.append(value)
    counts = {"mc_samples": sum(q.samples for q in queries)}
    return Outcome("norm-queries", intervals, counts, list(zip(queries, results)))


def _record_key(q: Query, value) -> str:
    if isinstance(value, Exception):
        return f"error:{type(value).__name__}"
    if not q.samples:
        return _digest(_norm_key(value))
    return float.hex(value.estimate)


def norm_reference(outcome: Outcome) -> list:
    return [_record_key(q, v) for q, v in outcome.records]


def check_norms(outcome: Outcome, reference: list | None, seed: int) -> None:
    """Recorded values where they exist, else seed-independent checks.

    A Monte-Carlo query on an exponent with infinite norm passes only if
    the estimate is refused (an error or a non-finite value).
    """
    domains, shadow, norms = reinhardt.domains, reinhardt.shadow, reinhardt.norms
    failures = []
    known = 0
    exact_cache = {}

    def exact(k, alpha):
        key = (k, alpha)
        if key not in exact_cache:
            exact_cache[key] = shadow.monomial_norm_oracle(alpha, domains.normalize_spec(k))
        return exact_cache[key]

    for index, (q, value) in enumerate(outcome.records):
        label = f"{'mc' if q.samples else 'exact'} k={q.k} alpha={q.alpha}"
        if not q.samples:
            if isinstance(value, Exception):
                failures.append(f"{label}: raised {value!r}")
            elif reference is not None:
                if _record_key(q, value) != reference[index]:
                    failures.append(f"{label}: {value} differs from the recorded value")
            elif value.finite and value.pi_power != len(q.k):
                failures.append(f"{label}: pi power {value.pi_power}")
            elif all(abs(e) == 1 for e in q.k):
                s = sum(1 for e in q.k if e > 0)
                if norms.monomial_norm_model(q.alpha, len(q.k), s) != value:
                    failures.append(f"{label}: {value} differs from the model formula")
            continue
        true = exact(q.k, q.alpha)
        if not true.finite:
            if not isinstance(value, Exception) and math.isfinite(value.estimate):
                failures.append(f"{label}: {KNOWN_DEFECT} ({value.estimate:.6g})")
                known += 1
            continue
        if isinstance(value, Exception):
            failures.append(f"{label}: estimate refused for a finite norm: {value!r}")
        elif reference is not None:
            if _record_key(q, value) != reference[index]:
                failures.append(f"{label}: estimate {float.hex(value.estimate)} != recorded {reference[index]}")
        elif not (math.isfinite(value.estimate) and value.estimate > 0):
            failures.append(f"{label}: estimate {value.estimate}")
        elif exact(q.k, tuple(2 * a for a in q.alpha)).finite:
            z = abs(value.estimate - float(true)) / value.std_error
            if z > MC_Z_LIMIT:
                failures.append(f"{label}: estimate {value.estimate:.6g} is {z:.1f} standard errors from {float(true):.6g}")
    if reference is None:
        failures += _symmetry_failures(outcome, seed, exact)
    outcome.attempted = len(outcome.records)
    outcome.failures = failures
    outcome.known_defects = known


def _symmetry_failures(outcome: Outcome, seed: int, exact) -> list:
    """Exact norms must not change when coordinates are permuted inside a sign block."""
    rng = random.Random(f"symmetry:{seed}")
    picks = [(q, v) for q, v in outcome.records if not q.samples]
    failures = []
    for q, value in rng.sample(picks, min(SYMMETRY_QUERIES, len(picks))):
        s = sum(1 for e in q.k if e > 0)
        pos, neg = list(range(s)), list(range(s, len(q.k)))
        rng.shuffle(pos)
        rng.shuffle(neg)
        perm = pos + neg
        k2 = tuple(q.k[p] for p in perm)
        a2 = tuple(q.alpha[p] for p in perm)
        if exact(k2, a2) != value:
            failures.append(f"exact k={q.k} alpha={q.alpha}: permuted to k={k2} gives {exact(k2, a2)}, not {value}")
    return failures
