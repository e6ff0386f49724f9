"""Tests for the suite table behind ``reinhardt verify``."""

from __future__ import annotations

from fractions import Fraction

import pytest

import reinhardt.verify as verify
from reinhardt.verify import CheckResult, SuiteReport, run_suites

CHEAP_SUITES = {
    "first": lambda seed: [CheckResult("seeded", True, f"seed {seed}")],
    "empty": lambda seed: [],
    "mixed": lambda seed: [CheckResult("fails", False, "no"), CheckResult("passes", True, "yes")],
}


def test_run_suites_reports_each_table_entry_under_its_key(monkeypatch):
    monkeypatch.setattr(verify, "SUITES", dict(CHEAP_SUITES))
    reports = run_suites(["all"], seed=7)
    assert reports == [SuiteReport(name, 7, fn(7)) for name, fn in CHEAP_SUITES.items()]
    assert [r.passed for r in reports] == [True, True, False]
    # named suites run in the order asked for, and "all" expands in place
    names = [r.name for r in run_suites(["mixed", "all"], seed=3)]
    assert names == ["mixed", "first", "empty", "mixed"]


def test_run_suites_refuses_an_unknown_name(monkeypatch):
    monkeypatch.setattr(verify, "SUITES", dict(CHEAP_SUITES))
    with pytest.raises(KeyError, match="unknown suite 'nonsense'; choose from first, empty, mixed or all"):
        run_suites(["first", "nonsense"])


def test_the_suite_table_keeps_the_report_order():
    assert list(verify.SUITES) == [
        "combinatorics", "norms", "coefficient-match", "bell", "reproducing", "rationality-diagnostic",
    ]


def test_expansion_check_counts_each_differing_point_once(monkeypatch):
    # a changed value, a value the oracle lacks and one the closed form lacks
    # are three points, whichever window holds a nonzero value at each
    real = verify.series_coefficients_oracle

    def perturbed(spec, box):
        window = real(spec, box)
        changed, dropped = list(window.terms)[:2]
        window.terms[changed] += Fraction(1, 7)
        window.terms[dropped] = 0
        corner = tuple(lo for lo, _ in box)
        assert corner not in window.terms
        window.terms[corner] = 5
        return window

    monkeypatch.setattr(verify, "series_coefficients_oracle", perturbed)
    result = verify.check_expansion_vs_oracle()
    assert not result.passed
    assert result.detail.startswith("5814 Laurent coefficients across 6 specs")
    assert result.detail.count(": 3 coefficients differ") == len(verify.CENTRAL_SPECS)


def test_signature_one_specs_are_distinct_and_sorted_by_k():
    # one spec per normalized k: (2, -2) is (1, -1), while (1, -2, -3) and (1, -3, -2) stay two
    specs = verify._signature_one_specs(6, (2, 3))
    assert len(specs) == 204
    assert all(a.k < b.k for a, b in zip(specs, specs[1:]))
