"""Tests for the suite table behind ``reinhardt verify``."""

from __future__ import annotations

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
