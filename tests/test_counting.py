"""Tests for lattice pair counts, numerator coefficients, and support boxes."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from reinhardt.counting import (
    coefficient_C,
    index_set,
    numerator_terms,
    pair_count,
    pair_count_bruteforce,
)
from reinhardt.domains import normalize_spec


@given(st.integers(1, 40), st.integers(-3, 85))
def test_pair_count_matches_bruteforce(lam, mu):
    assert pair_count(lam, mu) == pair_count_bruteforce(lam, mu)


def test_pair_count_examples():
    assert pair_count(1, 0) == 1
    assert pair_count(2, 1) == 2
    assert pair_count(3, 2) == 3  # the peak of the triangle
    assert pair_count(3, 3) == 2  # falling side
    assert pair_count(3, 4) == 1
    assert pair_count(3, 5) == 0
    assert pair_count(7, -1) == 0


@pytest.mark.parametrize("lam", [1, 2, 3, 7, 20])
def test_pair_count_total_is_square(lam):
    assert sum(pair_count(lam, mu) for mu in range(2 * lam - 1)) == lam * lam


def test_pair_count_rejects_bad_lambda():
    with pytest.raises(ValueError):
        pair_count(0, 0)
    with pytest.raises(ValueError):
        pair_count_bruteforce(-2, 1)


# -- coefficient_C --------------------------------------------------------------


def test_coefficients_hartogs_triangle():
    spec = normalize_spec((1, -1))
    table = {beta: coefficient_C(beta, spec) for beta in index_set(spec, "full")}
    assert table == {(0, 0): 0, (0, 1): 1, (0, 2): 0}


def test_coefficients_fat_triangle():
    spec = normalize_spec((1, -2))
    nonzero = {
        beta: coefficient_C(beta, spec)
        for beta in index_set(spec, "full")
        if coefficient_C(beta, spec)
    }
    assert nonzero == {(0, 2): 2}


def test_coefficient_vanishes_outside_the_box():
    spec = normalize_spec((2, -3))
    assert coefficient_C((-1, 0), spec) == 0
    assert coefficient_C((0, 7), spec) == 0
    assert coefficient_C((5, 0), spec) == 0


def test_coefficient_guards():
    with pytest.raises(ValueError):
        coefficient_C((0, 0, 0), normalize_spec((1, 1, -1)))  # signature 2
    with pytest.raises(ValueError):
        numerator_terms(normalize_spec((1, 1, -1)))
    with pytest.raises(ValueError):
        coefficient_C((0,), normalize_spec((1, -1)))


def test_coefficients_are_nonnegative_and_someone_is_positive():
    for raw in [(1, -1), (2, -3), (3, -2), (1, -2, -3)]:
        spec = normalize_spec(raw)
        values = [coefficient_C(beta, spec) for beta in index_set(spec, "full")]
        assert all(v >= 0 for v in values)
        assert any(v > 0 for v in values)


# -- index sets -------------------------------------------------------------------


def test_index_set_hartogs():
    spec = normalize_spec((1, -1))
    full = index_set(spec, "full")
    pruned = index_set(spec, "pruned")
    assert full == ((0, 0), (0, 1), (0, 2))
    assert pruned == ((0, 1),)


def test_index_set_sizes():
    # full box: (2 k_1 - 1) * prod (2 |k_b| + 1); pinching only where ell_b == 1
    spec = normalize_spec((2, -3))  # ell = (3, 2): nothing to pinch
    assert len(index_set(spec, "full")) == 3 * 7
    assert index_set(spec, "pruned") == index_set(spec, "full")

    spec = normalize_spec((1, -2))  # ell = (2, 1): the negative axis pinches
    assert len(index_set(spec, "full")) == 1 * 5
    assert len(index_set(spec, "pruned")) == 1 * 3

    spec = normalize_spec((1, -2, -2))
    assert len(index_set(spec, "full")) == 1 * 5 * 5
    assert len(index_set(spec, "pruned")) == 1 * 3 * 3


def test_index_set_members_are_lexicographic():
    members = index_set(normalize_spec((2, -1)), "full")
    assert members == tuple(sorted(members))


def test_index_set_guards():
    with pytest.raises(ValueError):
        index_set(normalize_spec((1, 1, -1)))
    with pytest.raises(ValueError):
        index_set(normalize_spec((1, -1)), "bogus")


def test_pruned_box_carries_all_mass():
    # the full-box coefficient sum is already supported on the pruned box
    for raw in [(1, -1), (1, -2), (2, -1), (2, -3), (1, -2, -3)]:
        spec = normalize_spec(raw)
        full = index_set(spec, "full")
        pruned = set(index_set(spec, "pruned"))
        assert sum(coefficient_C(b, spec) for b in full) == sum(
            coefficient_C(b, spec) for b in pruned
        )
        assert pruned <= set(full)


# -- the numerator from its support intervals -------------------------------------


def scanned_terms(spec):
    """The nonzero coefficients by the brute-force scan of the full box ``G``."""
    return {beta: c for beta in index_set(spec, "full") if (c := coefficient_C(beta, spec))}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.lists(st.integers(1, 7), min_size=1, max_size=3))
@example(97, [89])
@example(13, [11, 7])
@example(1, [1] * 7)
def test_numerator_terms_equal_the_box_scan(head, negatives):
    spec = normalize_spec((head, *(-b for b in negatives)))
    terms = numerator_terms(spec)
    reference = scanned_terms(spec)
    assert terms == reference
    assert list(terms) == list(reference)  # the same lexicographic insertion order
