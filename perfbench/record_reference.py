"""Record the reference outputs of every workload at the default seed.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: for each size (``full``, ``tiny``),
the name, pass flag and detail of every ``verify`` check; a digest of the
CSV rows of each series window; a digest of each exact ``NormValue``; and
the exact float of each Monte-Carlo estimate.  Run it only on a commit
whose outputs are known to be right: the benchmark counts any later
difference as a failure.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)
    seed = workloads.DEFAULT_SEED
    reference = {"seed": seed}
    for size in ("full", "tiny"):
        verify = workloads.run_verify(seed, size, scratch, lambda: None)
        if not all(r[2] for r in verify.records):
            print(f"error: a verify check failed at size {size}", file=sys.stderr)
            return 1
        series = workloads.run_series(seed, size, lambda: None)
        workloads.check_series(series, None)
        norms = workloads.run_norms(seed, size, lambda: None)
        workloads.check_norms(norms, None, seed)
        if len(norms.failures) != norms.known_defects:
            print(f"error: {norms.failures}", file=sys.stderr)
            return 1
        reference[size] = {
            "verify-all": verify.records,
            "series-routes": workloads.series_reference(series),
            "norm-queries": workloads.norm_reference(norms),
        }
        if series.failures:
            print(f"error: {series.failures}", file=sys.stderr)
            return 1
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
