"""Tests for exponent-vector normalization, lcm data, and norm values."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reinhardt.domains import DomainSpec, NormValue, lcm_data, model_spec, normal_order, normalize_spec, shifted

mixed_vectors = st.lists(
    st.integers(min_value=-9, max_value=9).filter(lambda e: e != 0),
    min_size=2,
    max_size=5,
).filter(lambda v: any(e > 0 for e in v) and any(e < 0 for e in v))


# -- shifted -------------------------------------------------------------------


def test_shifted_adds_one_to_every_entry():
    assert shifted((1, -2, 3)) == (2, -1, 4)
    assert shifted([0, -3]) == (1, -2)
    with pytest.raises(TypeError):
        shifted((1, 2.5))


# -- normalization ------------------------------------------------------------


def test_normalize_examples():
    spec = normalize_spec((-2, 4))
    assert spec.k == (2, -1)
    assert spec.s == 1
    assert normal_order((-2, 4)) == (1, 0)
    assert spec == normalize_spec((2, -1)) and hash(spec) == hash(normalize_spec((2, -1)))

    spec = normalize_spec((6, 10, -15))
    assert spec.k == (6, 10, -15)  # gcd already 1
    assert spec.s == 2

    spec = normalize_spec((-3, 6, -9))
    assert spec.k == (2, -1, -3)
    assert normal_order((-3, 6, -9)) == (1, 0, 2)


def test_normalize_rejects_degenerate_vectors():
    # the three rules live in DomainSpec; normalize_spec reaches them
    with pytest.raises(ValueError, match="^an exponent vector needs at least two entries$"):
        normalize_spec((1,))
    with pytest.raises(ValueError, match="^exponent entries must be nonzero$"):
        normalize_spec((1, 0, -1))
    with pytest.raises(ValueError, match="^exponent entries must be nonzero$"):
        normalize_spec((0, 0))
    with pytest.raises(ValueError, match=r"^exponents must mix signs \(at least one positive and one negative\)$"):
        normalize_spec((1, 2, 3))
    with pytest.raises(ValueError, match=r"^exponents must mix signs"):
        normalize_spec((-1, -2))


@given(mixed_vectors)
def test_normalize_is_idempotent(raw):
    spec = normalize_spec(raw)
    assert normalize_spec(spec.k) == spec
    assert normal_order(spec.k) == tuple(range(spec.n))


@given(mixed_vectors)
def test_any_interleaving_of_the_sign_blocks_is_the_same_spec(mixed):
    # H(k) is fixed by k up to a reordering: the caller's order is not part of a spec
    blocks = [e for e in mixed if e > 0] + [e for e in mixed if e < 0]
    assert normalize_spec(mixed) == normalize_spec(blocks)
    assert hash(normalize_spec(mixed)) == hash(normalize_spec(blocks))
    assert [mixed[i] for i in normal_order(mixed)] == blocks


@given(mixed_vectors, st.integers(min_value=1, max_value=4))
def test_normalize_ignores_positive_scaling(raw, c):
    assert normalize_spec([c * e for e in raw]).k == normalize_spec(raw).k


def test_spec_constructor_enforces_normal_form():
    with pytest.raises(ValueError):
        DomainSpec(k=(-1, 1))  # positives must come first
    with pytest.raises(ValueError):
        DomainSpec(k=(2, -4))  # gcd 2


@pytest.mark.parametrize("k, bad", [((1.0, -1), "1.0"), ((True, -1), "True"), ((2, -1, -3.0), "-3.0")])
def test_spec_constructor_refuses_non_int_exponents(k, bad):
    # a float used to fail inside math.gcd, and True passed as 1 and printed as H(True, -1)
    with pytest.raises(TypeError, match=rf"^exponent entries must be ints, got {re.escape(bad)}$"):
        DomainSpec(k=k)


def test_spec_built_from_lists_equals_the_tuple_spec():
    from_lists = DomainSpec(k=[2, -1])
    from_tuples = DomainSpec(k=(2, -1))
    assert from_lists.k == (2, -1)
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)


def test_spec_str_and_properties():
    spec = normalize_spec((1, -1))
    assert str(spec) == "H(1, -1)"
    assert spec.n == 2
    assert spec.abs_k == (1, 1)
    assert spec.is_model
    assert not normalize_spec((2, -3)).is_model


def test_model_spec():
    spec = model_spec(4, 2)
    assert spec.k == (1, 1, -1, -1)
    assert spec.s == 2
    assert spec.is_model


# -- lcm data -----------------------------------------------------------------


@pytest.mark.parametrize(
    "raw, expected",
    [
        ((2, -3), (6, (3, 2), 6)),
        ((1, -1), (1, (1, 1), 1)),
        ((1, -5), (5, (5, 1), 5)),
        ((6, 10, -15), (30, (5, 3, 2), 30)),
    ],
)
def test_lcm_data_examples(raw, expected):
    assert lcm_data(normalize_spec(raw)) == expected


@given(mixed_vectors)
def test_lcm_data_properties(raw):
    spec = normalize_spec(raw)
    K, ell, L = lcm_data(spec)
    assert all(l * a == K for l, a in zip(ell, spec.abs_k))
    assert math.gcd(*ell) == 1
    assert L == math.prod(ell)


# -- NormValue ----------------------------------------------------------------


def test_norm_value_finite():
    v = NormValue.of(Fraction(1, 2), 2)
    assert v.finite
    assert v.coefficient == Fraction(1, 2)
    assert v.pi_power == 2
    assert str(v) == "1/2 · π^2"
    assert abs(float(v) - math.pi**2 / 2) < 1e-12
    assert v == NormValue.of(Fraction(2, 4), 2)
    assert v != NormValue.of(Fraction(1, 2), 3)
    assert hash(v) == hash(NormValue.of(Fraction(1, 2), 2))


def test_norm_value_infinite():
    v = NormValue.infinite()
    assert not v.finite
    assert str(v) == "infinite"
    assert float(v) == math.inf
    assert v == NormValue.infinite()
    assert v != NormValue.of(1, 0)
    with pytest.raises(ValueError):
        _ = v.coefficient
    with pytest.raises(ValueError):
        _ = v.pi_power


def test_norm_value_rejects_nonpositive():
    with pytest.raises(ValueError):
        NormValue.of(Fraction(0), 2)
    with pytest.raises(ValueError):
        NormValue.of(Fraction(-1, 3), 1)


@pytest.mark.parametrize("coefficient", [0.5, 0.1, "1/2", 1j, True])
def test_norm_value_holds_exact_coefficients_only(coefficient):
    # Fraction(0.1) is 3602879701896397/36028797018963968, Fraction("1/2") parses text
    # and True once passed as 1 and printed as 1 · π^2
    for build in (NormValue, NormValue.of):
        with pytest.raises(TypeError, match=rf"ints or Fractions, got {re.escape(repr(coefficient))}$"):
            build(coefficient, 2)


def test_norm_value_pi_free_str():
    assert str(NormValue.of(Fraction(3, 7), 0)) == "3/7"
    assert str(NormValue.of(Fraction(1, 2), 1)) == "1/2 · π"
