"""One cold pass of one workload, in a fresh interpreter started by run.py.

The import of ``reinhardt`` and ``reinhardt.cli`` below is the set-up that
``setup_s`` times: run.py reads the monotonic clock before it starts this
interpreter, and this script reports the same clock right after the
import.  The result is one JSON line on standard output.

    python3 perfbench/worker.py --workload series-routes --seed 20260818
"""

import time

import reinhardt
import reinhardt.cli

READY = time.monotonic()

import argparse  # noqa: E402  (after the timed import on purpose)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _inject(kind: str) -> None:
    """Make the program return one wrong value, to prove the checks see it."""
    from fractions import Fraction

    import reinhardt.domains
    import reinhardt.series
    import reinhardt.shadow

    if kind == "coefficient":
        real = reinhardt.series.series_coefficients_model

        def wrong_coefficient(*args, **kwargs):
            chunk = real(*args, **kwargs)
            alpha = min(chunk.terms)
            chunk.terms[alpha] += Fraction(1, 7)
            return chunk
        reinhardt.series.series_coefficients_model = wrong_coefficient
    elif kind == "norm":
        real = reinhardt.shadow.monomial_norm_oracle
        done = []

        def wrong_norm(alpha, spec):
            value = real(alpha, spec)
            if value.finite and not done:
                done.append(alpha)
                return reinhardt.domains.NormValue.of(2 * value.coefficient, value.pi_power)
            return value
        reinhardt.shadow.monomial_norm_oracle = wrong_norm


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("verify-all", "series-routes", "norm-queries"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("coefficient", "norm"))
    parser.add_argument("--setup-only", action="store_true", help="stop after the timed import")
    args = parser.parse_args()

    expected = (ROOT / "src" / "reinhardt").resolve()
    if Path(reinhardt.__file__).resolve().parent != expected:
        print(f"error: imported reinhardt from {reinhardt.__file__}, not from {expected}", file=sys.stderr)
        return 2
    import speed

    setup_scale = speed.setup_scale()
    if args.setup_only:
        print(json.dumps({"ready": READY, "setup_scale": setup_scale}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import numpy

    import tracer as tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    if args.inject:
        _inject(args.inject)
    new_request = tracer.new_request if tracer else (lambda: None)
    OUT.mkdir(parents=True, exist_ok=True)

    with speed.SpeedProbe() as probe:
        if args.workload == "verify-all":
            outcome = workloads.run_verify(args.seed, args.size, OUT, new_request)
        elif args.workload == "series-routes":
            outcome = workloads.run_series(args.seed, args.size, new_request)
        else:
            outcome = workloads.run_norms(args.seed, args.size, new_request)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    spans = len(tracer) if tracer else 0
    layers = tracer.metrics(spans) if tracer else {}
    wall_s, parts, named = workloads.summarize(outcome, probe.scaled_seconds)
    raw_wall_s = workloads.summarize(outcome, probe.raw_seconds)[0]

    # Checks run after the measurement; spans they cause are past ``spans``.
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.size][args.workload]
    default = args.seed == workloads.DEFAULT_SEED
    if args.workload == "verify-all":
        workloads.check_verify(outcome, reference, details=default)
    elif args.workload == "series-routes":
        workloads.check_series(outcome, reference)
    else:
        workloads.check_norms(outcome, reference if default else None, args.seed)
    if tracer:
        tracer.save(OUT / f"trace-{args.workload}.npz", spans)

    print(json.dumps({
        "ready": READY,
        "setup_scale": setup_scale,
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "parts": parts,
        "named": named,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "known_defects": outcome.known_defects,
        "failures": outcome.failures[:20],
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "spans": spans,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
