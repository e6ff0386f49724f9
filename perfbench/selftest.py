"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

For every workload, untraced and traced: the run exits 0; its last line is
a JSON result with exactly ``correct``, ``attempted``, ``failed`` and
``metrics``; every metric name matches ``[A-Za-z0-9_.-]+`` and carries the
unit BENCHMARK.json gives it, and the names are exactly BENCHMARK.json's
``end_to_end`` (untraced) or ``per_layer`` (traced) list.  Outputs must be
correct at the default seed and at another seed.  An injected wrong series
coefficient and an injected wrong norm must each raise the failed ratio
above 0 and make the result incorrect.  Exits 1 on the first failed
expectation, 0 when all hold.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402


def run(workload: str, seed: int, trace: int = 0, inject: str | None = None) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if inject:
        argv += ["--inject", inject]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"{argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    for name in ("setup_s", "wall_s", "peak_rss_mb", "failed_ratio"):
        expect(any(re.fullmatch(rf"metric {re.escape(name)} \S+ \S+", line) for line in lines),
               f"{workload}: no '{name}' line with a value and a unit")
    return json.loads(lines[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_shape(result: dict, declared: dict, what: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys {sorted(result)}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what}: attempted")
    expect(isinstance(result["failed"], int), f"{what}: failed")
    expect(set(result["metrics"]) == set(declared),
           f"{what}: metric names differ from BENCHMARK.json: "
           f"{sorted(set(result['metrics']) ^ set(declared))}")
    for name, metric in result["metrics"].items():
        expect(NAME.fullmatch(name) is not None and len(name) <= 64, f"{what}: bad metric name {name!r}")
        expect(set(metric) == {"value", "unit"}, f"{what}: {name} has keys {sorted(metric)}")
        expect(isinstance(metric["value"], (int, float)), f"{what}: {name} value {metric['value']!r}")
        expect(metric["unit"] == declared[name], f"{what}: {name} unit {metric['unit']} != {declared[name]}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS), "workload list")

    for workload in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, 7):
            result = run(workload, seed)
            check_shape(result, end_to_end, f"{workload} seed {seed}")
            expect(result["correct"], f"{workload} seed {seed}: outputs incorrect")
        result = run(workload, workloads.DEFAULT_SEED, trace=1)
        check_shape(result, per_layer, f"{workload} traced")
        expect(result["correct"], f"{workload} traced: outputs incorrect")
        print(f"ok {workload}")

    for workload, inject in (("series-routes", "coefficient"), ("norm-queries", "norm")):
        result = run(workload, workloads.DEFAULT_SEED, inject=inject)
        ratio = result["failed"] / result["attempted"]
        expect(ratio > 0 and not result["correct"],
               f"injected wrong {inject}: failed ratio {ratio}, correct {result['correct']}")
        print(f"ok injected wrong {inject}: failed ratio {ratio:.3f}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
