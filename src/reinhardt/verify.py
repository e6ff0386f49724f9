"""Cross-verification checks and the named suites that bundle them.

Every closed form in the package is checked against an independent route:
pair counts against brute enumeration, the model norm formula against
exact shadow integration, kernel expansion against reciprocal norms, the
special-case kernels against the general construction, ``R`` and ``S``
against the annihilating operator applied to the oracle series, the kernel
against its own reproducing property (Monte-Carlo), and the proper-map
branch sum tying general domains to their models.  Each check is a
function returning a :class:`CheckResult` with a human-readable detail
line.  One table, :data:`SUITES`, groups them into the suites that
:func:`run_suites` and the CLI run:

* ``combinatorics``          — pair counts, numerator support pruning.
* ``norms``                  — norms vs oracle, fold-in recursion, R structure.
* ``coefficient-match``      — special-case kernels, expansion vs oracle,
                               annihilating operator.
* ``bell``                   — branch-sum identity at random point pairs.
* ``reproducing``            — Monte-Carlo reproducing property.
* ``rationality-diagnostic`` — decay classification of slice families.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as _cartesian, repeat
from typing import Callable, Sequence

from .counting import coefficient_C, index_set, pair_count, pair_count_bruteforce
from .domains import DomainSpec, model_spec, normalize_spec
from .exact import SparsePoly
from .kernels import kernel_fat_hartogs, kernel_signature_one, kernel_thin_hartogs
from .norms import build_RS, monomial_norm_model
from .sampling import bell_residuals, check_reproducing
from .series import (
    apply_annihilating_operator,
    expand_closed_form,
    rationality_diagnostic,
    series_coefficients_oracle,
    slice_coefficients,
)
from .shadow import shadow_integral_exact

DEFAULT_SEED = 20260818

BELL_SPECS = ((2, -1), (3, -2), (2, -3))
BELL_PAIRS = 20
BELL_TOLERANCE = 1e-10
CENTRAL_SPECS = ((1, -1), (1, -2), (2, -1), (2, -3), (1, -1, -1), (1, -2, -3))
FOLD_IN_INSTANCES = 200
REPRODUCING_EXPONENTS = ((0, 0), (0, 1), (1, -1))
REPRODUCING_POINT = (0.2, 0.6)
REPRODUCING_SAMPLES = 10 ** 6
REPRODUCING_TOLERANCE = 0.05


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class SuiteReport:
    name: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# combinatorics checks
# ---------------------------------------------------------------------------


def check_pair_count_closed_form() -> CheckResult:
    mismatches = 0
    cases = 0
    for lam in range(1, 51):
        for mu in range(-5, 2 * lam + 6):
            cases += 1
            if pair_count(lam, mu) != pair_count_bruteforce(lam, mu):
                mismatches += 1
    return CheckResult(
        "pair-count-closed-form",
        mismatches == 0,
        f"{cases} (lam, mu) pairs, lam <= 50, vs brute force; {mismatches} mismatches",
    )


def check_pair_count_total() -> CheckResult:
    bad = [
        lam for lam in range(1, 51)
        if sum(pair_count(lam, mu) for mu in range(0, 2 * lam - 1)) != lam * lam
    ]
    return CheckResult(
        "pair-count-total",
        not bad,
        f"sum over mu equals lam**2 for lam <= 50; failures: {bad}",
    )


def _signature_one_specs(max_entry: int, dims: Sequence[int]) -> list[DomainSpec]:
    """All normalized signature-1 specs with |entries| <= max_entry, n in dims."""
    specs = {}
    for n in dims:
        for body in _cartesian(range(1, max_entry + 1), repeat=n):
            raw = (body[0],) + tuple(-e for e in body[1:])
            spec = normalize_spec(raw)
            if max(spec.abs_k) <= max_entry:
                specs[spec.k] = spec
    return [specs[k] for k in sorted(specs)]


def check_support_pruning() -> CheckResult:
    specs = _signature_one_specs(6, (2, 3))
    stray = 0
    escapees = 0
    trimmed = 0
    for spec in specs:
        full = set(index_set(spec, "full"))
        pruned = set(index_set(spec, "pruned"))
        escapees += len(pruned - full)
        for beta in full - pruned:
            trimmed += 1
            if coefficient_C(beta, spec):
                stray += 1
    return CheckResult(
        "numerator-support-pruning",
        stray == 0 and escapees == 0,
        f"{len(specs)} specs (entries <= 6, n = 2, 3): pruned box inside full box "
        f"({escapees} escapees); coefficient vanishes on the {trimmed} trimmed points "
        f"({stray} nonzero)",
    )


# ---------------------------------------------------------------------------
# norm checks
# ---------------------------------------------------------------------------


def check_model_norms_vs_oracle() -> CheckResult:
    mismatches = []
    cases = 0
    for n in (2, 3, 4):
        for s in range(1, n):
            pair, spec = build_RS(n, s), model_spec(n, s)
            for beta in _cartesian(range(-2, 5), repeat=n):
                cases += 1
                xs, rs, qs = pair.row(beta[:-1], beta[-1], beta[-1])
                if (Fraction(rs[0], qs[0]) if xs else None) != shadow_integral_exact(beta, spec):
                    mismatches.append((n, s, tuple(b - 1 for b in beta)))
    return CheckResult(
        "model-norms-vs-oracle",
        not mismatches,
        f"{cases} exponents (n <= 4, entries in [-3, 3]), finiteness included; "
        f"mismatches: {mismatches[:3]}{'...' if len(mismatches) > 3 else ''}",
    )


def check_fold_in_recursion(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = random.Random(seed)
    found = 0
    failures = 0
    while found < FOLD_IN_INSTANCES:
        n = rng.randint(2, 4)
        s = rng.randint(1, n)
        beta = [rng.randint(-5, 6) for _ in range(n)]
        b = rng.choice([v for v in range(-5, 7) if v])
        star = [x + b if j < s else x - b for j, x in enumerate(beta)]
        alpha = [x - 1 for x in beta]
        value = monomial_norm_model(alpha, n, s)
        if not value.finite:
            continue
        value_star = monomial_norm_model([x - 1 for x in star], n, s)
        if not value_star.finite:
            continue
        folded = monomial_norm_model(alpha + [b - 1], n + 1, s)
        if not folded.finite:
            continue
        found += 1
        if folded.coefficient != (value.coefficient - value_star.coefficient) / b:
            failures += 1
    return CheckResult(
        "fold-in-recursion",
        failures == 0,
        f"{FOLD_IN_INSTANCES} random finite instances (n <= 4, entries in [-5, 6], fold-in != 0); "
        f"{failures} violations",
    )


def check_R_structure() -> CheckResult:
    issues = []
    for n in range(1, 6):
        for s in range(1, n + 1):
            R = build_RS(n, s).R
            if not R.is_homogeneous((n - s) * (s - 1)):
                issues.append(f"R({n},{s}) inhomogeneous")
            if s in (1, n) and R != SparsePoly.one(n):
                issues.append(f"R({n},{s}) != 1")
            for j in range(s - 1):
                perm = list(range(n))
                perm[j], perm[j + 1] = perm[j + 1], perm[j]
                if R.permuted(perm) != R:
                    issues.append(f"R({n},{s}) asymmetric in positive block at {j}")
            for l in range(s, n - 1):
                perm = list(range(n))
                perm[l], perm[l + 1] = perm[l + 1], perm[l]
                if R.permuted(perm) != R:
                    issues.append(f"R({n},{s}) asymmetric in negative block at {l}")
            for j in range(s):
                if not R.substitute({j: SparsePoly(n)}):
                    issues.append(f"beta_{j+1} divides R({n},{s})")
                for l in range(s, n):
                    if not R.substitute({j: -SparsePoly.variable(n, l)}):
                        issues.append(f"(beta_{j+1}+beta_{l+1}) divides R({n},{s})")
    if build_RS(3, 2).R != SparsePoly.linear_form(3, {0: 1, 1: 1, 2: 1}):
        issues.append("R(3,2) != beta_1+beta_2+beta_3")
    return CheckResult(
        "R-structure",
        not issues,
        f"n <= 5: homogeneity, block symmetry, coprimality with S, base cases; issues: {issues}",
    )


# ---------------------------------------------------------------------------
# coefficient checks
# ---------------------------------------------------------------------------


def check_special_case_kernels() -> CheckResult:
    failures = []
    for k in range(1, 9):
        if kernel_signature_one(normalize_spec((1, -k))) != kernel_fat_hartogs(k):
            failures.append(f"fat k={k}")
    for k in range(2, 9):
        if kernel_signature_one(normalize_spec((k, -1))) != kernel_thin_hartogs(k):
            failures.append(f"thin k={k}")
    return CheckResult(
        "special-case-kernels",
        not failures,
        f"fat k=1..8 and thin k=2..8 against the general construction; failures: {failures}",
    )


def check_expansion_vs_oracle() -> CheckResult:
    failures = []
    points = 0
    for raw in CENTRAL_SPECS:
        spec = normalize_spec(raw)
        box = [(0, 8)] + [(-8, 8)] * (spec.n - 1)
        expanded = expand_closed_form(kernel_signature_one(spec), box)
        oracle = series_coefficients_oracle(spec, box)
        points += sum(1 for _ in expanded.box_points())
        if expanded != oracle:
            diff = sum(
                1 for a in expanded.box_points()
                if expanded.coefficient(a) != oracle.coefficient(a)
            )
            failures.append(f"{spec}: {diff} coefficients differ")
    return CheckResult(
        "expansion-vs-oracle",
        not failures,
        f"{points} Laurent coefficients across {len(CENTRAL_SPECS)} specs "
        f"(alpha_1 in [0,8], others in [-8,8]); failures: {failures}",
    )


def _annihilator_failures(n: int, s: int, box: Sequence[tuple[int, int]]) -> tuple[int, list]:
    """``(points, failures)`` of the annihilating operator on the oracle series of Omega(n, s).

    The series comes from shadow integration, not from ``R/S``, so a wrong
    ``R`` or ``S`` makes the flattened window miss ``S`` somewhere.  Every
    point of the box is compared, one last-axis row at a time: the flattened
    window's coordinates are ``beta`` already, and the wanted row is ``S``
    on its finite part, as :meth:`~reinhardt.norms.RSPair.row` reads it,
    and 0 on the rest.
    """
    flattened = apply_annihilating_operator(n, s, series_coefficients_oracle(model_spec(n, s), box))
    pair = build_RS(n, s)
    get = flattened.terms.get
    *lead_box, (lo, hi) = flattened.box
    tails = [(x,) for x in range(lo, hi + 1)]
    failures = []
    points = 0
    for lead in _cartesian(*(range(a, b + 1) for a, b in lead_box)):
        _, _, qs = pair.row(lead, lo, hi)
        want = [0] * (len(tails) - len(qs)) + qs
        got = list(map(get, map(lead.__add__, tails), repeat(0)))
        points += len(tails)
        if got != want:
            failures.extend((n, s, lead + x) for x, g, w in zip(tails, got, want) if g != w)
    return points, failures


def check_annihilating_operator() -> CheckResult:
    failures = []
    points = 0
    for n in (2, 3, 4):
        for s in range(1, n):
            found, wrong = _annihilator_failures(n, s, [(-8, 8)] * n)
            points += found
            failures.extend(wrong)
    return CheckResult(
        "annihilating-operator",
        not failures,
        f"{points} exponents (n <= 4, 8-box): R(t d/dt)-operator flattens the model "
        f"series to S on the support and 0 off it; failures: {failures[:3]}",
    )


# ---------------------------------------------------------------------------
# numeric checks
# ---------------------------------------------------------------------------


def check_branch_sums(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    results = []
    for raw in BELL_SPECS:
        residuals = bell_residuals(normalize_spec(raw), BELL_PAIRS, seed)
        worst = max(residuals)
        results.append(CheckResult(
            f"branch-sum-{'_'.join(map(str, raw))}",
            worst < BELL_TOLERANCE,
            f"{BELL_PAIRS} random point pairs, max residual {worst:.3e} "
            f"(tolerance {BELL_TOLERANCE:.0e})",
        ))
    return results


def check_reproducing_monomials(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    r = check_reproducing(
        normalize_spec((1, -1)), REPRODUCING_EXPONENTS, REPRODUCING_POINT, REPRODUCING_SAMPLES, seed
    )
    return [
        CheckResult(
            f"monomial-{alpha[0]}_{alpha[1]}",
            error < REPRODUCING_TOLERANCE,
            f"relative error {error:.4f} at z={REPRODUCING_POINT}, "
            f"{REPRODUCING_SAMPLES} samples, {r.discarded} near-singular draws discarded "
            f"(tolerance {REPRODUCING_TOLERANCE})",
        )
        for alpha, error in zip(r.alphas, r.relative_errors)
    ]


def check_slice_diagnostics() -> list[CheckResult]:
    results = []
    for n in (3, 4, 5):
        verdict = rationality_diagnostic(slice_coefficients(n, 200))
        results.append(CheckResult(
            f"slice-family-n{n}",
            verdict == "polynomial_decay",
            f"200 slice coefficients classified as {verdict}",
        ))
    controls = {
        "geometric-half": [Fraction(1, 2) ** j for j in range(1, 201)],
        "geometric-with-drift": [Fraction(4, 5) ** j * j for j in range(1, 201)],
    }
    for name, values in controls.items():
        verdict = rationality_diagnostic(values)
        results.append(CheckResult(
            f"control-{name}",
            verdict == "exponential_decay",
            f"200 control terms classified as {verdict}",
        ))
    return results


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


#: Each suite's checks for a seed, in report order; :func:`run_suites` names them.
SUITES: dict[str, Callable[[int], list[CheckResult]]] = {
    "combinatorics": lambda seed: [
        check_pair_count_closed_form(),
        check_pair_count_total(),
        check_support_pruning(),
    ],
    "norms": lambda seed: [
        check_model_norms_vs_oracle(),
        check_fold_in_recursion(seed),
        check_R_structure(),
    ],
    "coefficient-match": lambda seed: [
        check_special_case_kernels(),
        check_expansion_vs_oracle(),
        check_annihilating_operator(),
    ],
    "bell": check_branch_sums,
    "reproducing": check_reproducing_monomials,
    "rationality-diagnostic": lambda seed: check_slice_diagnostics(),
}


def run_suites(names: Sequence[str], seed: int = DEFAULT_SEED) -> list[SuiteReport]:
    """Run suites by name ("all" expands to every suite), in stable order."""
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        elif name in SUITES:
            expanded.append(name)
        else:
            raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    return [SuiteReport(name, seed, SUITES[name](seed)) for name in expanded]
