"""Acceptance criteria, one test per criterion.

Each test prints a single ``PASS``/``FAIL`` line (run pytest with ``-s``
to see them) and asserts the same condition, so the suite is green exactly
when every criterion holds.  Tolerances are pinned here on purpose: the
exact criteria admit none, the Bell residual bound is 1e-10, and the
Monte-Carlo reproducing check allows 5% relative error at 10**6 samples
with the fixed default seed.
"""

from __future__ import annotations

from reinhardt.verify import (
    BELL_PAIRS,
    BELL_SPECS,
    BELL_TOLERANCE,
    DEFAULT_SEED,
    REPRODUCING_SAMPLES,
    REPRODUCING_TOLERANCE,
    check_annihilating_operator,
    check_branch_sums,
    check_expansion_vs_oracle,
    check_fold_in_recursion,
    check_model_norms_vs_oracle,
    check_pair_count_closed_form,
    check_pair_count_total,
    check_R_structure,
    check_reproducing_monomials,
    check_slice_diagnostics,
    check_special_case_kernels,
    check_support_pruning,
)


def _report(number: int, label: str, results) -> None:
    if not isinstance(results, list):
        results = [results]
    passed = all(r.passed for r in results)
    detail = "; ".join(r.detail for r in results if not r.passed) or results[0].detail
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {label} — {detail}")
    assert passed, f"criterion {number} ({label}): {detail}"


def test_criterion_01_special_case_kernels():
    _report(1, "special-case kernels equal the general construction (exact)",
            check_special_case_kernels())


def test_criterion_02_pair_count_oracle():
    _report(2, "pair-count closed form vs brute force and the square identity (exact)",
            [check_pair_count_closed_form(), check_pair_count_total()])


def test_criterion_03_norm_formula_and_recursion():
    _report(3, "model norm formula vs shadow oracle, plus the fold-in recursion (exact)",
            [check_model_norms_vs_oracle(), check_fold_in_recursion(DEFAULT_SEED)])


def test_criterion_04_central_coefficient_match():
    _report(4, "kernel expansion equals reciprocal-norm coefficients on 8-boxes (exact)",
            check_expansion_vs_oracle())


def test_criterion_05_support_pruning():
    _report(5, "numerator coefficients vanish off the pruned support box (exact)",
            check_support_pruning())


def test_criterion_06_R_polynomial_structure():
    _report(6, "R-polynomial homogeneity, symmetry, base cases, coprimality (exact)",
            check_R_structure())


def test_criterion_07_branch_sum_identity():
    label = (
        f"branch-sum identity residual < {BELL_TOLERANCE:.0e} at {BELL_PAIRS} "
        f"random pairs for {', '.join(str(s) for s in BELL_SPECS)}"
    )
    _report(7, label, check_branch_sums(DEFAULT_SEED))


def test_criterion_08_reproducing_property():
    label = (
        f"Monte-Carlo reproducing property within {REPRODUCING_TOLERANCE:.0%} "
        f"at {REPRODUCING_SAMPLES} samples, fixed seed"
    )
    _report(8, label, check_reproducing_monomials(DEFAULT_SEED))


def test_criterion_09_decay_diagnostic():
    _report(9, "slice families classify as polynomial decay, controls as exponential",
            check_slice_diagnostics())


def test_criterion_10_annihilating_operator():
    _report(10, "annihilating operator flattens model series to S on 8-boxes (exact)",
            check_annihilating_operator())
