"""Tests for the model-domain norm formula and the (R, S) recursion."""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from reinhardt.domains import NormValue
from reinhardt.exact import SparsePoly
from reinhardt.norms import RSPair, build_RS, monomial_norm_model, norm_finite_from

from test_exact import reference_value


# -- finiteness -----------------------------------------------------------------


def norm_is_finite(alpha, n, s) -> bool:
    return monomial_norm_model(alpha, n, s).finite


def test_finiteness_hartogs():
    assert norm_is_finite((0, 0), 2, 1)
    assert norm_is_finite((0, -1), 2, 1)
    assert norm_is_finite((5, -3), 2, 1)
    assert not norm_is_finite((-1, 0), 2, 1)  # beta_1 = 0
    assert not norm_is_finite((0, -2), 2, 1)  # beta_1 + beta_2 = 0
    assert not norm_is_finite((1, -4), 2, 1)


def test_finiteness_polydisc():
    # s = n: no cross conditions, just beta_j > 0
    assert norm_is_finite((0, 0, 0), 3, 3)
    assert not norm_is_finite((-1, 0, 0), 3, 3)
    assert norm_is_finite((7, 0, 2), 3, 3)


def pairwise_finite(beta, s):
    """The finiteness rule from its definition, in ``beta = alpha + 1``.

    ``beta_j > 0`` on the positive block and ``beta_j + beta_l > 0`` for
    every cross pair ``j <= s < l``.
    """
    return all(beta[j] > 0 for j in range(s)) and all(
        beta[j] + beta[l] > 0 for j in range(s) for l in range(s, len(beta))
    )


@st.composite
def model_row(draw):
    """A model shape ``(n, s)``, ``s == n`` included, and the leading ``beta`` entries of one row."""
    n = draw(st.integers(1, 5))
    s = draw(st.integers(1, n))
    lead = tuple(draw(st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1)))
    return n, s, lead


@settings(max_examples=60, deadline=None)
@given(model_row())
def test_row_start_is_the_row_form_of_the_point_finiteness(case):
    # the finite points of a row are exactly beta_n >= start, point by point
    n, s, lead = case
    start = norm_finite_from(lead, n, s)
    for x in range(-9, 10):
        alpha = tuple(b - 1 for b in lead + (x,))
        assert norm_is_finite(alpha, n, s) == (start is not None and x >= start)


def test_row_start_on_worked_rows():
    # rows in beta = alpha + 1
    assert norm_finite_from((1,), 2, 1) == 0  # Hartogs: beta_1 + beta_2 > 0
    assert norm_finite_from((4,), 2, 1) == -3
    assert norm_finite_from((0,), 2, 1) is None  # beta_1 = 0: the whole row diverges
    assert norm_finite_from((2, 1), 3, 3) == 1  # polydisc
    assert norm_finite_from((2, 0), 3, 3) is None
    assert norm_finite_from((), 1, 1) == 1  # the disc
    assert norm_finite_from((3, 1, -1), 4, 2) is None  # a middle pair already fails
    with pytest.raises(ValueError, match="2 leading"):
        norm_finite_from((1,), 3, 1)
    with pytest.raises(ValueError):
        norm_finite_from((1,), 2, 3)


@settings(max_examples=80, deadline=None)
@given(model_row(), st.integers(-8, 6), st.integers(-2, 8))
@example((3, 2, (1, 1)), 2, -1)  # lo > hi
@example((3, 2, (0, 1)), -3, 6)  # beta_1 = 0: infinite everywhere
@example((4, 2, (2, 3, -1)), -3, 6)  # the finite part starts inside [lo, hi]
@example((3, 3, (1, 2)), -2, 4)  # s == n
@example((1, 1, ()), -3, 5)  # n == 1
def test_row_of_R_and_S_equals_the_pointwise_formula(case, lo, width):
    n, s, lead = case
    hi = lo + width
    pair = build_RS(n, s)
    xs, rs, qs = pair.row(lead, lo, hi)
    finite = [x for x in range(lo, hi + 1) if pairwise_finite(lead + (x,), s)]
    assert list(xs) == finite
    assert rs == [reference_value(pair.R, lead + (x,)) for x in finite]
    assert qs == [reference_value(pair.S, lead + (x,)) for x in finite]


def test_row_of_R_and_S_has_the_one_positivity_guard():
    pair = build_RS(3, 2)
    assert pair.row((1, 1), 1, 2) == (range(1, 3), [3, 4], [4, 9])
    flipped = RSPair(3, 2, pair.R * -1, pair.S)
    with pytest.raises(ArithmeticError, match=r"degenerate at beta=\(1, 1, 1\): R=-3, S=4"):
        flipped.row((1, 1), 1, 2)
    with pytest.raises(ArithmeticError, match=r"degenerate at beta=\(1, 1, 2\): R=-4, S=9"):
        flipped.row((1, 1), 2, 2)  # a one-point row
    # rows without finite points check nothing
    assert flipped.row((1, 1), 2, 1) == (range(0), [], [])  # lo > hi
    assert flipped.row((1, 1), -5, -1) == (range(0), [], [])  # the finite part starts past hi
    assert flipped.row((0, 1), -5, 5) == (range(0), [], [])  # beta_1 = 0: an infinite row


@pytest.mark.parametrize("lead,lo,hi,bad", [
    ((1.5,), 0, 3, "1.5"),  # once gave float S values [2.25, 3.75, 5.25, 6.75]
    ((0.5,), 0, 3, "0.5"),  # once gave an empty row
    ((Fraction(1),), 0, 3, "Fraction(1, 1)"),
    ((1,), 0.0, 3, "0.0"),
    ((1,), 0, 3.5, "3.5"),
])
def test_row_refuses_non_int_leads_and_bounds(lead, lo, hi, bad):
    with pytest.raises(TypeError, match=re.escape(f"row entries must be ints, got {bad}")):
        build_RS(2, 1).row(lead, lo, hi)


@pytest.mark.parametrize("n,s", [(n, s) for n in range(1, 6) for s in range(1, n + 1)])
def test_finiteness_is_the_pairwise_definition(n, s):
    # in beta = alpha + 1, every row of the cube [-3, 4]^n
    for lead in itertools.product(range(-3, 5), repeat=n - 1):
        start = norm_finite_from(lead, n, s)
        for x in range(-3, 5):
            assert (start is not None and x >= start) == pairwise_finite(lead + (x,), s)


def test_finiteness_guards():
    with pytest.raises(ValueError):
        monomial_norm_model((0, 0), 2, 0)
    with pytest.raises(ValueError):
        monomial_norm_model((0, 0), 2, 3)
    with pytest.raises(ValueError):
        monomial_norm_model((0, 0, 0), 2, 1)


@pytest.mark.parametrize("alpha", [(0.5, 0), (Fraction(1), 0), (-1.0, 0)])
def test_finiteness_rejects_non_int_exponents(alpha):
    with pytest.raises(TypeError):
        monomial_norm_model(alpha, 2, 1)


# -- the (R, S) pair ---------------------------------------------------------------


def test_S_collects_the_linear_factors():
    S = build_RS(3, 2).S
    # beta_1 beta_2 (beta_1 + beta_3)(beta_2 + beta_3)
    assert reference_value(S, (2, 3, 5)) == 2 * 3 * 7 * 8
    assert reference_value(S, (1, 1, 1)) == 4
    S21 = build_RS(2, 1).S
    assert reference_value(S21, (1, 1)) == 2  # beta_1 (beta_1 + beta_2)


def test_R_base_cases():
    assert build_RS(2, 1).R == SparsePoly.one(2)
    assert build_RS(4, 1).R == SparsePoly.one(4)
    assert build_RS(3, 3).R == SparsePoly.one(3)
    assert build_RS(3, 2).R == SparsePoly.linear_form(3, {0: 1, 1: 1, 2: 1})


@pytest.mark.parametrize("n,s", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)])
def test_R_homogeneity_and_symmetry(n, s):
    R = build_RS(n, s).R
    assert R.is_homogeneous((n - s) * (s - 1))
    # swapping within the positive block leaves R fixed
    perm = list(range(n))
    perm[0], perm[1] = perm[1], perm[0]
    assert R.permuted(perm) == R
    # and within the negative block too
    if n - s >= 2:
        perm = list(range(n))
        perm[s], perm[s + 1] = perm[s + 1], perm[s]
        assert R.permuted(perm) == R


@pytest.mark.parametrize("n,s", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_R_shares_no_linear_factor_with_S(n, s):
    R = build_RS(n, s).R
    for j in range(s):
        assert R.substitute({j: SparsePoly(n)})
        for l in range(s, n):
            assert R.substitute({j: SparsePoly.linear_form(n, {l: -1})})


@given(
    st.integers(2, 4),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_R_recursion_identity_at_points(n, data):
    # b * R_{n+1,s}(beta, b) = R_{n,s}(beta) prod(beta_j + b) - R_{n,s}(beta*) prod(beta_j)
    s = data.draw(st.integers(1, n))
    beta = tuple(data.draw(st.integers(-4, 6)) for _ in range(n))
    b = data.draw(st.integers(-4, 6).filter(lambda v: v != 0))
    R_small = build_RS(n, s).R
    R_big = build_RS(n + 1, s).R
    star = tuple(x + b if j < s else x - b for j, x in enumerate(beta))
    lhs = b * reference_value(R_big, beta + (b,))
    grow = 1
    shrink = 1
    for j in range(s):
        grow *= beta[j] + b
        shrink *= beta[j]
    assert lhs == reference_value(R_small, beta) * grow - reference_value(R_small, star) * shrink


def test_build_RS_guards_and_type():
    with pytest.raises(ValueError):
        build_RS(2, 0)
    with pytest.raises(ValueError):
        build_RS(2, 3)
    pair = build_RS(3, 2)
    assert isinstance(pair, RSPair)
    assert (pair.n, pair.s) == (3, 2)


# -- norm values -------------------------------------------------------------------


def test_norms_hartogs_values():
    assert monomial_norm_model((0, 0), 2, 1) == NormValue.of(Fraction(1, 2), 2)
    assert monomial_norm_model((0, -1), 2, 1) == NormValue.of(Fraction(1), 2)
    assert monomial_norm_model((1, 0), 2, 1) == NormValue.of(Fraction(1, 6), 2)
    assert monomial_norm_model((-1, 0), 2, 1) == NormValue.infinite()


def test_norms_polydisc_values():
    # s = n: the product of 1/beta_j, as on the polydisc
    assert monomial_norm_model((0, 0), 2, 2) == NormValue.of(Fraction(1), 2)
    assert monomial_norm_model((1, 2), 2, 2) == NormValue.of(Fraction(1, 6), 2)
    assert monomial_norm_model((-1, 0), 2, 2) == NormValue.infinite()


def test_norms_omega32():
    # R = beta_1+beta_2+beta_3, S = beta_1 beta_2 (beta_1+beta_3)(beta_2+beta_3)
    assert monomial_norm_model((0, 0, 0), 3, 2) == NormValue.of(Fraction(3, 4), 3)
    assert monomial_norm_model((1, 0, -1), 3, 2) == NormValue.of(Fraction(3, 4), 3)
    # by hand: integral over t1 t2 < t3 of t3^-1 is 2, so the norm is 2 pi^3
    assert monomial_norm_model((0, 0, -1), 3, 2) == NormValue.of(Fraction(2), 3)
    assert monomial_norm_model((0, 0, -2), 3, 2) == NormValue.infinite()


def test_norm_alpha_length_guard():
    with pytest.raises(ValueError):
        monomial_norm_model((0, 0), 3, 2)


@pytest.mark.parametrize("alpha", [(0, 0.5), (Fraction(1), 0), (-1.0, 0)])
def test_norm_rejects_non_int_exponents(alpha):
    with pytest.raises(TypeError):
        monomial_norm_model(alpha, 2, 1)
