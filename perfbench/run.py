"""The reinhardt benchmark: cold passes of one workload, medians, checked outputs.

    python3 perfbench/run.py --workload verify-all --seed 20260818 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, not from an installed copy.  Each pass is a fresh interpreter
(perfbench/worker.py) that imports the package, runs the workload once in
one thread and checks every output, so nothing cached in a process carries
from one pass to the next.  Passes repeat while another fits in
``--seconds`` (at least one runs).  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics instead.

Lines before the last describe the run (environment, the workload's
named metrics, failures); the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify-all", "series-routes", "norm-queries")
#: Import-only interpreters started before the passes, and as many after;
#: their set-up times join those of the passes in the median.
SETUP_PROBES = 6
#: No pass starts if it could end later than this after the run started.
HARD_LIMIT_S = 165.0

#: What part1_s..part3_s measure on each workload, by the workload's own metric names.
PARTS = {
    "verify-all": ("suite.norms_s", "suite.coefficient-match_s", "suite.reproducing_s"),
    "series-routes": ("1 / series.closed_form.coeffs_per_s * points",
                      "1 / series.model.coeffs_per_s * points",
                      "1 / series.oracle.coeffs_per_s * points"),
    "norm-queries": ("norm.exact.p50_ms / 1000", "norm.exact.p99_ms / 1000",
                     "1e6 / norm.mc.samples_per_s"),
}


class PassFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "REINHARDT_THREADS"}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_worker(argv: list[str], env: dict, deadline: float) -> tuple[dict, float, float]:
    """Start one worker; returns its JSON result and its set-up time, raw and scaled."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed("out of time before a pass could start")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"worker {argv} did not finish in {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"worker {argv} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = result["ready"] - t0
    return result, raw, raw * result["setup_scale"]


def source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "reinhardt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description="reinhardt benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--inject", choices=("coefficient", "norm"),
                        help="make the program return one wrong value (self-test)")
    args = parser.parse_args()

    if not (ROOT / "src" / "reinhardt" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'reinhardt'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    env = worker_env()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    if args.inject:
        common += ["--inject", args.inject]

    try:
        def probe_setup():
            return [run_worker(["--setup-only"], env, deadline)[1:] for _ in range(SETUP_PROBES)]

        setups = probe_setup()
        plain, traced = [], []
        longest = 0.0
        t_passes = time.monotonic()
        while True:
            want_traced = args.trace and len(traced) < len(plain)
            t0 = time.monotonic()
            result, *setup = run_worker(common + ["--trace", "1" if want_traced else "0"], env, deadline)
            longest = max(longest, time.monotonic() - t0)
            (traced if want_traced else plain).append(result)
            setups.append(setup)
            now = time.monotonic()
            done = bool(plain) and (bool(traced) or not args.trace)
            if done and (now - t_passes + longest > args.seconds or now + longest > deadline):
                break
        setups += probe_setup()
    except PassFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    passes = plain + traced
    med = statistics.median
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = all(p["failed"] == p["known_defects"] for p in passes)
    env_record = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "passes": len(plain), "traced_passes": len(traced),
        "nproc": os.cpu_count(), "python": passes[0]["python"], "numpy": passes[0]["numpy"],
        **source_record(),
    }

    wall = med(p["wall_s"] for p in plain)
    named = {
        "setup_s": (med(s for _, s in setups), "s"),
        "raw_setup_s": (med(r for r, _ in setups), "s"),
        "wall_s": (wall, "s"),
        "raw_wall_s": (med(p["raw_wall_s"] for p in plain), "s"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in plain), "MiB"),
        "failed_ratio": (failed / attempted, "ratio"),
    }
    for key, (_, unit) in plain[0]["named"].items():
        named[key] = (med(p["named"][key][0] for p in plain), unit)

    if args.trace:
        import tracer

        metrics = {}
        for name, unit in tracer.per_layer():
            if name == "trace.spans":
                value = traced[0]["spans"]
            elif name == "trace.wall_s":  # raw, like the span times it frames
                value = med(p["raw_wall_s"] for p in traced)
            elif name == "trace.overhead_s":
                value = med(p["wall_s"] for p in traced) - wall
            else:
                value = med(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": named["setup_s"][0], "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": named["peak_rss_mb"][0], "unit": "MiB"},
            "ok_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
        for part in ("part1_s", "part2_s", "part3_s"):
            metrics[part] = {"value": med(p["parts"][part] for p in plain), "unit": "s"}

    print("env " + json.dumps(env_record))
    for name, (value, unit) in named.items():
        print(f"metric {name} {value:.6g} {unit}")
    for i, meaning in enumerate(PARTS[args.workload]):
        print(f"part part{i + 1}_s = {meaning}")
    seen = set()
    for p in passes:
        for failure in p["failures"]:
            if failure not in seen:
                seen.add(failure)
                print(f"failure {failure}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({**env_record, "named": named, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
