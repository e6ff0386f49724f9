"""Command-line interface.

Four subcommands, exit codes 0 (success), 1 (verification failure),
2 (usage or domain error — argparse's own convention):

* ``kernel --k 1,-2 [--format plain|latex|json]`` — the closed-form kernel
  of a signature-one domain, printed in normalized coordinates: ``t1`` is
  the positive entry of ``k``, then the negative entries in input order.
* ``norm --k 1,-1 --alpha 0,0 [--oracle exact|mc]`` — a monomial norm, via
  exact shadow integration or seeded Monte-Carlo; an infinite norm prints
  ``infinite`` on both routes, without sampling.
* ``series --k 1,-1 --box 0:4,-4:4 [--format csv|json]`` — exact Laurent
  coefficients of the kernel on a box; CSV emits one row per box point
  (``alpha_1,...,alpha_n,coefficient``), zeros included, no header.
* ``verify --suite all [--seed N] [--report out.json]`` — named
  verification suites with a pass/fail report; the report path is opened
  before any suite runs, so an unwritable one is a usage error (exit 2).

``--alpha``, ``--box`` and the exponents that ``series`` prints follow the
caller's order of ``--k``; they are moved into normalized order (positive
entries first) for the computation and back for the output.
"""

from __future__ import annotations

import argparse
import json
import sys
from operator import itemgetter
from typing import Sequence

from .domains import DomainSpec, NormValue, normalize_spec
from .exact import DivergentIntegral, LaurentChunk
from .kernels import kernel_signature_one
from .sampling import mc_norm_estimate
from .series import expand_closed_form, series_coefficients_model, series_coefficients_oracle
from .shadow import monomial_norm_oracle
from .verify import DEFAULT_SEED, SUITES, run_suites


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be comma-separated integers, got {text!r}")


def _parse_box(text: str) -> tuple[tuple[int, int], ...]:
    ranges = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(f"box ranges look like lo:hi, got {part!r}")
        try:
            ranges.append((int(lo), int(hi)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"box bounds must be integers, got {part!r}")
    return tuple(ranges)


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def _spec_or_exit(entries: tuple[int, ...]) -> DomainSpec:
    try:
        return normalize_spec(entries)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2)


def _normalized(spec: DomainSpec, values: Sequence) -> tuple:
    """Per-coordinate values in the caller's order of ``--k``, put in normalized order."""
    return tuple(values[p] for p in spec.permutation)


def _in_caller_order(spec: DomainSpec, values: Sequence) -> tuple:
    """The inverse of :func:`_normalized`."""
    out = [None] * spec.n
    for i, p in enumerate(spec.permutation):
        out[p] = values[i]
    return tuple(out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reinhardt",
        description="Exact Bergman kernels of elementary Reinhardt domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel", help="closed-form kernel (signature one)")
    p_kernel.add_argument("--k", required=True, type=lambda s: _parse_ints(s, "--k"),
                          help="exponent vector, e.g. 1,-2")
    p_kernel.add_argument("--format", choices=("plain", "latex", "json"), default="plain")
    p_kernel.set_defaults(run=_cmd_kernel)

    p_norm = sub.add_parser("norm", help="squared monomial norm")
    p_norm.add_argument("--k", required=True, type=lambda s: _parse_ints(s, "--k"))
    p_norm.add_argument("--alpha", required=True, type=lambda s: _parse_ints(s, "--alpha"),
                        help="monomial exponent, e.g. 0,-1")
    p_norm.add_argument("--oracle", choices=("exact", "mc"), default="exact")
    p_norm.add_argument("--samples", type=int, default=10 ** 6)
    p_norm.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    p_norm.set_defaults(run=_cmd_norm)

    p_series = sub.add_parser("series", help="exact Laurent coefficients on a box")
    p_series.add_argument("--k", required=True, type=lambda s: _parse_ints(s, "--k"))
    p_series.add_argument("--box", required=True, type=_parse_box,
                          help="per-coordinate ranges, e.g. 0:4,-4:4")
    p_series.add_argument("--format", choices=("csv", "json"), default="csv")
    p_series.set_defaults(run=_cmd_series)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", required=True, choices=tuple(SUITES) + ("all",))
    p_verify.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    p_verify.add_argument("--report", help="write the JSON report to this path")
    p_verify.set_defaults(run=_cmd_verify)
    return parser


def _cmd_kernel(args) -> int:
    spec = _spec_or_exit(args.k)
    if spec.s != 1:
        print(
            f"error: {spec} has signature {spec.s}; the closed form exists only for "
            "signature 1 — the `series` subcommand covers every signature",
            file=sys.stderr,
        )
        return 2
    kernel = kernel_signature_one(spec)
    if args.format == "plain":
        print(kernel.to_plain())
    elif args.format == "latex":
        print(kernel.to_latex())
    else:
        print(json.dumps(kernel.to_json_dict(), indent=2))
    return 0


def _cmd_norm(args) -> int:
    spec = _spec_or_exit(args.k)
    if len(args.alpha) != spec.n:
        print(f"error: --alpha needs {spec.n} entries for {spec}", file=sys.stderr)
        return 2
    alpha = _normalized(spec, args.alpha)
    if args.oracle == "exact":
        print(monomial_norm_oracle(alpha, spec))
        return 0
    try:
        result = mc_norm_estimate(alpha, spec, args.samples, args.seed)
    except DivergentIntegral:
        print(NormValue.infinite())
        return 0
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(
        f"{result.estimate:.8g} ± {result.std_error:.2g} "
        f"(samples={result.samples}, accepted={result.accepted}, seed={result.seed})"
    )
    return 0


def _cmd_series(args) -> int:
    spec = _spec_or_exit(args.k)
    if len(args.box) != spec.n:
        print(f"error: --box needs {spec.n} ranges for {spec}", file=sys.stderr)
        return 2
    if any(lo > hi for lo, hi in args.box):
        print("error: box ranges must satisfy lo <= hi", file=sys.stderr)
        return 2
    box = _normalized(spec, args.box)
    if spec.s == 1:
        chunk = expand_closed_form(kernel_signature_one(spec), box)
    elif spec.is_model:
        chunk = series_coefficients_model(spec.n, spec.s, box)
    else:
        chunk = series_coefficients_oracle(spec, box)
    if spec.permutation != tuple(range(spec.n)):
        # the route's keys and values are already checked: relabel them as they are
        relabel = itemgetter(*_in_caller_order(spec, range(spec.n)))
        terms = chunk.terms
        chunk = LaurentChunk(_in_caller_order(spec, chunk.box))
        chunk.terms = dict(zip(map(relabel, terms), terms.values()))
    if args.format == "csv":
        sys.stdout.writelines(row + "\n" for row in chunk.csv_rows())
    else:
        print(json.dumps(chunk.to_json_dict(), indent=2))
    return 0


def _cmd_verify(args) -> int:
    # open the report first, so an unwritable path is a usage error before any suite runs
    if not args.report:
        return _run_verify(args, None)
    try:
        handle = open(args.report, "w", encoding="utf-8")
    except OSError as err:
        print(f"error: cannot write the report: {err}", file=sys.stderr)
        return 2
    with handle:
        return _run_verify(args, handle)


def _run_verify(args, handle) -> int:
    reports = run_suites([args.suite], seed=args.seed)
    print(f"seed {args.seed}")
    failures = 0
    for report in reports:
        print(f"suite {report.name}:")
        for check in report.checks:
            mark = "ok  " if check.passed else "FAIL"
            print(f"  {mark} {check.name}: {check.detail}")
            failures += 0 if check.passed else 1
    total = sum(len(r.checks) for r in reports)
    if handle is not None:
        payload = {
            "seed": args.seed,
            "passed": failures == 0,
            "suites": [r.to_json_dict() for r in reports],
        }
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    if failures:
        print(f"{failures} of {total} checks failed")
        return 1
    print(f"all {total} checks passed")
    return 0


_VALUE_FLAGS = ("--k", "--alpha", "--box")


def _absorb_negative_values(argv: list[str]) -> list[str]:
    """Glue values like ``-1,0`` onto their flag so argparse keeps them."""
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(_absorb_negative_values(argv))
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
