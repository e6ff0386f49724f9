"""Command-line interface.

Four subcommands, exit codes 0 (success), 1 (verification failure),
2 (usage or domain error — argparse's own convention — and output that
cannot be written: a full disk, a closed pipe, an unwritable report).
``main`` alone turns a handler's ``ValueError`` or ``OSError`` into one
``error:`` line on stderr and exit 2; any other exception is a bug and
keeps its traceback.

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
  verification suites with a pass/fail report; the report is opened before
  any suite runs and written before any line is printed, so an unwritable
  one costs no work and prints nothing to stdout.

``--alpha``, ``--box`` and the exponents that ``series`` prints follow the
caller's order of ``--k``; they are moved into normalized order (positive
entries first) for the computation and back for the output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
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
    spec = normalize_spec(args.k)
    if spec.s != 1:
        raise ValueError(
            f"{spec} has signature {spec.s}; the closed form exists only for "
            "signature 1 — the `series` subcommand covers every signature"
        )
    kernel = kernel_signature_one(spec)
    if args.format == "plain":
        print(kernel.to_plain())
    elif args.format == "latex":
        print(kernel.to_latex())
    else:
        print(json.dumps(kernel.to_json_dict(), indent=2))
    return 0


def _cmd_norm(args) -> int:
    spec = normalize_spec(args.k)
    if len(args.alpha) != spec.n:
        raise ValueError(f"--alpha needs {spec.n} entries for {spec}")
    alpha = _normalized(spec, args.alpha)
    if args.oracle == "exact":
        print(monomial_norm_oracle(alpha, spec))
        return 0
    try:
        result = mc_norm_estimate(alpha, spec, args.samples, args.seed)
    except DivergentIntegral:
        print(NormValue.infinite())
        return 0
    except ArithmeticError as err:  # the sampler's refusal: no sample landed
        raise ValueError(str(err)) from err
    print(
        f"{result.estimate:.8g} ± {result.std_error:.2g} "
        f"(samples={result.samples}, accepted={result.accepted}, seed={result.seed})"
    )
    return 0


def _cmd_series(args) -> int:
    spec = normalize_spec(args.k)
    if len(args.box) != spec.n:
        raise ValueError(f"--box needs {spec.n} ranges for {spec}")
    if any(lo > hi for lo, hi in args.box):
        raise ValueError("box ranges must satisfy lo <= hi")
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
    # the report is opened before any suite runs and closed before anything is
    # printed, so an unwritable path costs no work and prints no check lines
    try:
        with open(args.report, "w", encoding="utf-8") if args.report else nullcontext() as handle:
            reports = run_suites([args.suite], seed=args.seed)
            failed = [not check.passed for report in reports for check in report.checks]
            if handle is not None:
                suites = [r.to_json_dict() for r in reports]
                json.dump({"seed": args.seed, "passed": not any(failed), "suites": suites}, handle, indent=2)
                handle.write("\n")
    except OSError as err:
        raise OSError(f"cannot write the report: {err}") from err
    print(f"seed {args.seed}")
    for report in reports:
        print(f"suite {report.name}:")
        for check in report.checks:
            mark = "ok  " if check.passed else "FAIL"
            print(f"  {mark} {check.name}: {check.detail}")
    if any(failed):
        print(f"{sum(failed)} of {len(failed)} checks failed")
        return 1
    print(f"all {len(failed)} checks passed")
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


def _flush_stdout() -> None:
    if sys.stdout is not None:  # None in a process started without one
        sys.stdout.flush()


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(_absorb_negative_values(argv))
    try:
        code = args.run(args)
        _flush_stdout()
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        try:
            _flush_stdout()
        except OSError:  # stdout is gone: what it still holds goes to devnull, not to an exit-time error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
