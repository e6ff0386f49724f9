"""Tests for the exact arithmetic layer.

The polynomial ring laws run as hypothesis properties; the integration
routines are checked three ways: against hand-computed closed forms,
against scipy quadrature on random single-variable integrands, and via an
iterated two-variable integral with a known rational value.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import dblquad, quad

from reinhardt.exact import (
    DivergentIntegral,
    FracExpSum,
    LaurentChunk,
    OutsideWindow,
    SparsePoly,
    _exact_ratio,
    integrate_one_var,
)
from reinhardt.counting import coefficient_C, pair_count
from reinhardt.domains import normalize_spec
from reinhardt.kernels import kernel_fat_hartogs, kernel_signature_one
from reinhardt.norms import build_RS
from reinhardt.series import expand_closed_form, series_coefficients_model, series_coefficients_oracle


@st.composite
def polys(draw, nvars=2):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        terms[exps] = draw(st.integers(-5, 5))
    return SparsePoly(nvars, terms)


points = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


def reference_value(p: SparsePoly, pt) -> Fraction:
    """The term-by-term ``Fraction`` sum, written out independently of ``on_row``."""
    total = Fraction(0)
    for exps, coef in p.terms.items():
        term = Fraction(coef)
        for v, e in zip(pt, exps):
            term *= Fraction(v) ** e
        total += term
    return total


# -- SparsePoly ring laws ------------------------------------------------------


@given(polys(), polys(), polys())
def test_poly_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == SparsePoly(2)
    assert a * SparsePoly.one(2) == a


@given(polys(), polys(), points)
def test_poly_evaluation_is_a_homomorphism(a, b, pt):
    assert reference_value(a + b, pt) == reference_value(a, pt) + reference_value(b, pt)
    assert reference_value(a * b, pt) == reference_value(a, pt) * reference_value(b, pt)


@given(polys(), st.integers(0, 4))
def test_poly_pow_matches_repeated_multiplication(p, e):
    expected = SparsePoly.one(2)
    for _ in range(e):
        expected = expected * p
    assert p**e == expected


def test_poly_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        SparsePoly.one(2) ** -1


def test_poly_constructors():
    x = SparsePoly.monomial(3, (1, 0, 0))
    y = SparsePoly.linear_form(3, {1: 1})
    assert x + y == SparsePoly.linear_form(3, {0: 1, 1: 1})
    assert reference_value(SparsePoly.linear_form(3, {2: -2}) + SparsePoly(3, {(0, 0, 0): 5}), (0, 0, 3)) == -1
    assert reference_value(-3 * SparsePoly.monomial(2, (1, 2)), (3, 2)) == -36
    assert SparsePoly(2, {(0, 0): 0}) == SparsePoly(2)
    assert 0 * SparsePoly.one(2) == SparsePoly(2)


def test_poly_constructor_validation():
    with pytest.raises(ValueError):
        SparsePoly(2, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        SparsePoly(2, {(-1, 0): Fraction(1)})


def test_poly_coefficients_are_integers():
    # coefficients are ints; any other coefficient is refused
    with pytest.raises(TypeError):
        SparsePoly(1, {(0,): Fraction(1, 2)})
    with pytest.raises(TypeError):
        SparsePoly(2, {(1, 0): Fraction(-5, 3)})
    with pytest.raises(TypeError):
        SparsePoly(1, {(0,): 0.5})
    with pytest.raises(TypeError):
        SparsePoly.one(1) * Fraction(1, 2)


def test_poly_constructor_merges_duplicate_keys():
    # dict keys are unique, but coefficients that cancel must vanish
    p = SparsePoly(1, {(2,): 3}) + SparsePoly(1, {(2,): -3})
    assert p == SparsePoly(1)
    assert not p


def test_poly_degree_and_homogeneity():
    p = SparsePoly(2, {(2, 1): 1, (0, 3): -2})
    assert p.is_homogeneous() and p.is_homogeneous(3) and not p.is_homogeneous(2)
    q = p + SparsePoly.one(2)
    assert not q.is_homogeneous()
    assert SparsePoly(2).is_homogeneous(17)


def test_poly_content():
    p = SparsePoly(2, {(1, 0): 6, (0, 1): 4})
    assert p.content() == 2
    assert SparsePoly(1, {(0,): -9, (1,): 6}).content() == 3
    assert SparsePoly(2).content() == 0


@given(polys(), polys(), points)
def test_poly_substitution_composes_with_evaluation(p, q, pt):
    composed = p.substitute({0: q})
    assert reference_value(composed, pt) == reference_value(p, (reference_value(q, pt), pt[1]))


def test_poly_substitute_example():
    p = SparsePoly(2, {(2, 0): 1, (0, 1): 1})  # x^2 + y
    swapped = p.substitute({0: SparsePoly.linear_form(2, {1: 1}), 1: SparsePoly.linear_form(2, {0: 1})})
    assert swapped == SparsePoly(2, {(0, 2): 1, (1, 0): 1})


@given(polys())
def test_poly_exact_division_undoes_multiplication(p):
    x = SparsePoly.linear_form(2, {0: 1})
    assert (x * p).divide_exact_by_var(0) == p or not p


def test_poly_exact_division_refuses_remainders():
    with pytest.raises(ArithmeticError):
        SparsePoly.one(2).divide_exact_by_var(0)
    with pytest.raises(ArithmeticError):
        (SparsePoly.linear_form(2, {0: 1}) + SparsePoly.one(2)).divide_exact_by_var(0)


def test_poly_extended_and_permuted():
    p = SparsePoly(2, {(1, 2): 3})
    wide = p.extended(4)
    assert wide.nvars == 4
    assert reference_value(wide, (2, 1, 9, 9)) == 6
    with pytest.raises(ValueError):
        p.extended(1)
    assert p.permuted([1, 0]) == SparsePoly(2, {(2, 1): 3})
    with pytest.raises(ValueError):
        p.permuted([0, 0])


def test_poly_mismatched_variable_counts():
    with pytest.raises(ValueError):
        SparsePoly.one(2) + SparsePoly.one(3)
    with pytest.raises(ValueError):
        SparsePoly.one(2) * SparsePoly.one(3)
    with pytest.raises(ValueError):
        SparsePoly.one(2).on_row((1, 2), [3])


xy = SparsePoly.linear_form(2, {0: 1, 1: 1})


@pytest.mark.parametrize("poly,lead,xs,bad", [
    (xy, (0.5,), [1], "0.5"),  # once gave [1.5]
    (xy, (1,), [0.25, 2], "0.25"),  # once gave [1.25, 3]
    (xy, (1,), [2j], "2j"),
    (xy, (Fraction(1, 2),), range(3), "Fraction(1, 2)"),
    (xy, (1,), (0, Fraction(1, 3)), "Fraction(1, 3)"),
    (SparsePoly(2, {(1, 0): 3}), (2,), [0.5], "0.5"),  # a last coordinate that no term uses
    (SparsePoly(2, {(0, 2): 3}), (1j,), range(2), "1j"),  # a leading coordinate that no term uses
    (SparsePoly(2), (0.5,), [1], "0.5"),
])
def test_rows_refuse_coordinates_that_are_not_ints(poly, lead, xs, bad):
    with pytest.raises(TypeError, match=re.escape(f"row entries must be ints, got {bad}")):
        poly.on_row(lead, xs)


def test_evaluation_of_a_constant_last_axis_and_of_zero():
    p = SparsePoly(3, {(2, 0, 0): 3, (0, 1, 0): 1})  # degree 0 in the last variable
    assert p.on_row((2, -1), range(-1, 2)) == [11, 11, 11]
    zero = SparsePoly(2)
    assert zero.on_row((4,), range(-1, 2)) == [0, 0, 0]
    with pytest.raises(ValueError):
        zero.on_row((), [1])


@pytest.mark.parametrize("nvars", [0, -1])
def test_poly_needs_a_last_axis(nvars):
    with pytest.raises(ValueError, match="at least one variable"):
        SparsePoly(nvars)


# -- evaluation at integer points ----------------------------------------------


@st.composite
def polys3(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = tuple(draw(st.integers(0, 4)) for _ in range(3))
        terms[exps] = draw(st.integers(-9, 9))
    return SparsePoly(3, terms)


int_points3 = st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))


@given(polys3(), int_points3)
@example(SparsePoly(3), (0, -3, 2))
@example(SparsePoly(3, {(0, 0, 0): 3, (2, 1, 0): -4, (0, 0, 3): 1}), (0, -2, -3))
def test_integer_point_evaluation_integer_coefficients(p, pt):
    # a point is the one-point row: an exact int, the term-by-term sum
    [value] = p.on_row(pt[:-1], pt[-1:])
    assert type(value) is int
    assert value == reference_value(p, pt)


@settings(max_examples=60, deadline=None)
@given(polys3(), st.tuples(st.integers(-5, 5), st.integers(-5, 5)), st.integers(-6, 6), st.integers(0, 6))
@example(SparsePoly(3), (1, -2), 0, 3)
@example(SparsePoly(3, {(2, 1, 0): -4, (1, 0, 0): 7}), (3, 2), -1, 4)  # constant along the row
@example(SparsePoly(3, {(0, 0, 4): 2, (1, 1, 1): -1}), (0, 0), 5, 1)  # a one-point row
@example(SparsePoly(3, {(0, 0, 4): 2, (1, 1, 1): -1, (0, 2, 0): 3}), (-2, 3), -3, 5)
def test_row_values_equal_the_reference_sum(p, lead, lo, width):
    # the restriction to the last variable, tabulated by Horner, against
    # the term-by-term sum at every point of the row
    xs = range(lo, lo + width)
    values = p.on_row(lead, xs)
    assert values == [reference_value(p, (*lead, x)) for x in xs]
    assert all(type(v) is int for v in values)
    # any sequence of int last coordinates, not only a range
    squares = [x * x for x in xs]
    assert p.on_row(lead, squares) == [reference_value(p, (*lead, x)) for x in squares]


def test_row_values_need_every_leading_coordinate():
    p = SparsePoly(3, {(1, 1, 1): 1})
    with pytest.raises(ValueError, match="2 leading"):
        p.on_row((1,), range(3))


def test_build_RS_evaluates_like_the_reference():
    grid = (-2, 0, 3)
    for n in range(1, 6):
        for s in range(1, n + 1):
            pair = build_RS(n, s)
            for lead in itertools.product(grid, repeat=n - 1):
                for poly in (pair.R, pair.S):
                    values = poly.on_row(lead, grid)
                    assert all(type(v) is int for v in values)
                    assert values == [reference_value(poly, (*lead, x)) for x in grid], (n, s, lead)


# -- FracExpSum ----------------------------------------------------------------


def monomial(nvars: int, exps, coef=1, den=1, cden=1) -> FracExpSum:
    """``coef / cden * prod t_j^{exps_j / den}`` with no log factors."""
    return FracExpSum(nvars, {(tuple(exps), (0,) * nvars): coef}, den, cden)


def float_value(f: FracExpSum, point) -> float:
    """``f`` at ``0 < t_j < 1`` in floats: exponent ``exps[j] / f.den``, coefficient ``c / f.cden``."""
    total = 0.0
    for (exps, logs), c in f.terms.items():
        term = c / f.cden
        for t, e, p in zip(point, exps, logs):
            term *= t ** (e / f.den) * math.log(1.0 / t) ** p
        total += term
    return total


def test_standard_log_integrals():
    # integral_0^1 t^q log(1/t)^p dt = p! / (q+1)^(p+1), with q = e / den
    for e, den in ((0, 1), (1, 2), (-1, 2), (3, 1), (7, 3)):
        for p in range(4):
            f = FracExpSum(1, {((e,), (p,)): 1}, den)
            value = integrate_one_var(f, 0, None).as_constant()
            assert value == Fraction(math.factorial(p)) / (Fraction(e, den) + 1) ** (p + 1)


def test_quadrature_cross_check():
    # 50 random single-variable integrands against scipy.integrate.quad
    rng = random.Random(411)
    for _ in range(50):
        e, den = rng.randint(-1, 6), rng.choice([1, 2, 3])
        if e <= -den:
            e, den = -1, 2
        p = rng.randint(0, 2)
        c, cden = rng.randint(1, 9), rng.randint(1, 4)
        f = FracExpSum(1, {((e,), (p,)): c}, den, cden)
        exact = float(integrate_one_var(f, 0, None).as_constant())
        numeric, _ = quad(
            lambda t: c / cden * t ** (e / den) * math.log(1.0 / t) ** p,
            0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200,
        )
        assert abs(exact - numeric) <= 1e-9 * abs(exact)


def test_iterated_integral_with_monomial_lower_bound():
    # integral_0^1 integral_{t2^2}^1 t1^-1 t2 dt1 dt2 = 1/2, via a log term
    f = monomial(2, (-1, 1))
    inner = integrate_one_var(f, 0, ((0, 2), 1))
    assert inner == FracExpSum(2, {((0, 1), (0, 1)): 2})
    assert integrate_one_var(inner, 1, None).as_constant() == Fraction(1, 2)

    numeric, _ = dblquad(lambda t1, t2: t2 / t1, 0, 1, lambda t2: t2 * t2, 1)
    assert abs(numeric - 0.5) < 1e-9


def test_two_variable_integral_with_a_fractional_bound_and_a_log_power():
    # integral_0^1 integral_{t1^(3/2)}^1 (t0^-1 log(1/t0) t1^(1/3) + 2 t0^(1/2) t1) dt0 dt1:
    # the q == -1 term squares the log of the fractional bound, the other
    # moves t1's exponent by (3/2) * (3/2); exponents in sixths
    f = FracExpSum(2, {((-6, 2), (1, 0)): 1, ((3, 6), (0, 0)): 2}, den=6)
    inner = integrate_one_var(f, 0, ((0, 3), 2))
    # 9/8 t1^(1/3) log(1/t1)^2 + 4/3 t1 - 4/3 t1^(13/4), in twelfths and 24ths
    assert inner == FracExpSum(2, {
        ((0, 4), (0, 2)): 27,
        ((0, 12), (0, 0)): 32,
        ((0, 39), (0, 0)): -32,
    }, den=12, cden=24)
    value = integrate_one_var(inner, 1, None).as_constant()
    # 9/8 * 2 / (4/3)^3 + 4/3 / 2 - 4/3 / (17/4)
    assert value == Fraction(243, 256) + Fraction(2, 3) - Fraction(16, 51)

    numeric, _ = dblquad(
        lambda t0, t1: math.log(1.0 / t0) / t0 * t1 ** (1 / 3) + 2 * math.sqrt(t0) * t1,
        0, 1, lambda t1: t1 ** 1.5, 1, epsabs=1e-12, epsrel=1e-12,
    )
    assert abs(numeric - float(value)) < 1e-9


def test_antiderivative_fundamental_theorem():
    # integral_a^b sqrt(t) log(1/t) dt as G(a) - G(b), with G(t1) the
    # integral of sqrt(t0) log(1/t0) over t0 in (t1, 1)
    f = FracExpSum(2, {((1, 0), (1, 0)): 1}, den=2)
    G = integrate_one_var(f, 0, ((0, 1), 1))
    a, b = 0.2, 0.7
    exact = float_value(G, [0.5, a]) - float_value(G, [0.5, b])
    numeric, _ = quad(lambda t: math.sqrt(t) * math.log(1.0 / t), a, b, epsabs=1e-13)
    assert abs(exact - numeric) < 1e-10


def test_divergent_integrals_raise():
    for e, den in ((-1, 1), (-3, 2)):
        with pytest.raises(DivergentIntegral):
            integrate_one_var(monomial(1, (e,), den=den), 0, None)
    # log divergence: the antiderivative of 1/t survives at 0 as a log power
    f = FracExpSum(1, {((-1,), (1,)): 1})
    with pytest.raises(DivergentIntegral):
        integrate_one_var(f, 0, None)


def test_limit_at_zero_keeps_other_variables():
    # integral_0^1 dt0 of 3 t0^(1/2) t1^2 + 5 t1^-1 log(1/t1): the limit at
    # t0 -> 0 is 0, and t1's exponent -1 and log power pass through
    f = FracExpSum(2, {
        ((1, 4), (0, 0)): 3,
        ((0, -2), (0, 1)): 5,
    }, den=2)
    assert integrate_one_var(f, 0, None) == FracExpSum(2, {
        ((0, 2), (0, 0)): 2,
        ((0, -1), (0, 1)): 5,
    })


def test_substitute_monomial_expands_logs():
    # integral over t0 in (t1^3, 1) of 2 t0^-1 log(1/t0) is log(1/t1^3)^2 = 9 log(1/t1)^2
    f = FracExpSum(2, {((-1, 0), (1, 0)): 2})
    g = integrate_one_var(f, 0, ((0, 3), 1))
    assert g == FracExpSum(2, {((0, 0), (0, 2)): 9})


def test_substitute_monomial_mixed_bound():
    # integral over t0 in (t1 t2^(1/2), 1) of 3 t0^2 is 1 - t1^3 t2^(3/2):
    # the bound's exponents push onto both variables
    f = monomial(3, (2, 0, 0), 3)
    g = integrate_one_var(f, 0, ((0, 2, 1), 2))
    assert g == FracExpSum(3, {((0, 0, 0), (0, 0, 0)): 1, ((0, 6, 3), (0, 0, 0)): -1}, den=2)
    with pytest.raises(ValueError, match="may not involve"):
        integrate_one_var(f, 0, ((1, 0, 0), 1))
    with pytest.raises(ValueError, match="length"):
        integrate_one_var(f, 0, ((0, 1), 1))
    with pytest.raises(ValueError, match="positive"):
        integrate_one_var(f, 0, ((0, 1, 0), 0))
    with pytest.raises(ValueError, match="out of range"):
        integrate_one_var(f, 3, None)
    # bound entries are int numerators: a float is refused, not written into a key
    with pytest.raises(TypeError, match=r"^bound entries must be ints, got 2\.5$"):
        integrate_one_var(FracExpSum(2, {((0, 0), (0, 0)): 1}), 0, ((0, 2.5), 1))
    with pytest.raises(TypeError, match=r"^bound entries must be ints, got 2\.0$"):
        integrate_one_var(f, 0, ((0, 2, 1), 2.0))


def test_fracexp_sum_algebra():
    # F(1) and F(lower) land in one dict: like terms merge and cancel there
    f = FracExpSum(2, {((1, 0), (0, 0)): 1, ((0, 0), (0, 0)): 1})
    g = integrate_one_var(f, 0, ((0, 1), 1))  # (1/2 + 1) - (t1^2 / 2 + t1)
    assert g == FracExpSum(2, {
        ((0, 0), (0, 0)): 3,
        ((0, 2), (0, 0)): -1,
        ((0, 1), (0, 0)): -2,
    }, cden=2)
    assert g.cden == 2
    # the bound t0 > 1 cancels everything
    zero = integrate_one_var(f, 0, ((0, 0), 1))
    assert zero == FracExpSum(2, {}) and not zero.terms
    assert zero.den == zero.cden == 1


def test_as_constant_guards():
    f = monomial(2, (1, 0))
    with pytest.raises(ValueError):
        f.as_constant()
    assert monomial(2, (0, 0), 5, cden=7).as_constant() == Fraction(5, 7)


def test_fracexp_evaluate_matches_terms():
    f = FracExpSum(1, {((1,), (1,)): 2}, den=2, cden=3)
    t = 0.3
    assert abs(float_value(f, [t]) - 2 / 3 * math.sqrt(t) * math.log(1 / t)) < 1e-14


def test_fracexp_constructor_validation():
    with pytest.raises(ValueError, match="length"):
        FracExpSum(2, {((0,), (0, 0)): 1})
    with pytest.raises(ValueError, match="nonnegative"):
        FracExpSum(1, {((0,), (-1,)): 1})
    with pytest.raises(ValueError, match="positive"):
        FracExpSum(1, {((0,), (0,)): 1}, cden=0)
    with pytest.raises(TypeError, match=r"^exponent entries must be ints, got Fraction\(1, 2\)$"):
        FracExpSum(1, {((Fraction(1, 2),), (0,)): 1})
    with pytest.raises(TypeError, match="coefficient entries must be ints"):
        FracExpSum(1, {((1,), (0,)): Fraction(2, 3)})
    with pytest.raises(TypeError, match="denominator entries must be ints"):
        FracExpSum(1, {((1,), (0,)): 1}, den=2.0)


# -- FracExpSum lattices -------------------------------------------------------


def test_lattice_den_is_minimal():
    f = FracExpSum(2, {((2, 3), (0, 0)): 1, ((4, 0), (0, 1)): 2}, den=4)
    assert f.den == 4
    assert f.terms == {((2, 3), (0, 0)): 1, ((4, 0), (0, 1)): 2}
    assert monomial(2, (2, 4), den=6).den == 3
    assert monomial(2, (3, -1)).den == 1
    assert FracExpSum(2, {}).den == 1
    # over t0 in (t1^(1/6), 1), t1^(1/6) + 1 integrates to (t1^(1/6) - t1^(1/3)) +
    # (1 - t1^(1/6)): the t1^(1/6) terms cancel, and den drops from 36 to 3
    f = FracExpSum(2, {((0, 1), (0, 0)): 1, ((0, 0), (0, 0)): 1}, den=6)
    assert f.den == 6
    g = integrate_one_var(f, 0, ((0, 1), 6))
    assert g.den == 3 and g.terms == {((0, 0), (0, 0)): 1, ((0, 1), (0, 0)): -1}
    # a zero coefficient does not keep its exponent's denominator
    assert FracExpSum(1, {((1,), (0,)): 0, ((5,), (0,)): 1}, den=5).den == 1


def test_lattice_grows_exactly_for_an_off_grid_bound():
    # over t0 in (t1^(1/3), 1), t1^(1/2) integrates to t1^(1/2) - t1^(5/6)
    f = monomial(2, (0, 1), den=2)
    assert f.den == 2
    g = integrate_one_var(f, 0, ((0, 1), 3))
    assert g.den == 6
    assert g.terms == {((0, 3), (0, 0)): 1, ((0, 5), (0, 0)): -1}
    # t0^(1/2) over (t1^(2/3), 1) is 2/3 - 2/3 t1: back on the integers
    h = integrate_one_var(monomial(2, (1, 0), den=2), 0, ((0, 2), 3))
    assert h.den == 1 and h.cden == 3
    assert h.terms == {((0, 0), (0, 0)): 2, ((0, 1), (0, 0)): -2}


def test_coefficient_lattice_is_minimal():
    # 1/6 and 1/4 over 24ths reduce to twelfths
    f = FracExpSum(1, {((1,), (0,)): 4, ((2,), (0,)): 6}, cden=24)
    assert f.cden == 12 and f.terms == {((1,), (0,)): 2, ((2,), (0,)): 3}
    assert FracExpSum(1, {((1,), (0,)): 3, ((2,), (0,)): 3}, cden=6).cden == 2
    assert monomial(2, (1, 1), 4).cden == 1
    assert FracExpSum(2, {}).cden == 1
    # numerators given over non-minimal denominators are reduced
    g = FracExpSum(1, {((2,), (0,)): 4, ((6,), (0,)): -6, ((4,), (1,)): 0}, den=2, cden=8)
    assert g == FracExpSum(1, {((1,), (0,)): 2, ((3,), (0,)): -3}, cden=4)
    assert (g.den, g.cden) == (1, 4) and g.terms == {((1,), (0,)): 2, ((3,), (0,)): -3}
    # every integration result is stored minimally: 3/7 t0^(1/2) t1^2 t2^-1 log(1/t1) + 5 t0 t2^(-1/3)
    f = FracExpSum(3, {((3, 12, -6), (0, 1, 0)): 3, ((6, 0, -2), (0, 0, 0)): 35}, den=6, cden=7)
    for h in (integrate_one_var(f, 2, ((2, 1, 0), 3)), integrate_one_var(f, 0, None)):
        assert math.gcd(h.den, *(e for exps, _ in h.terms for e in exps)) == 1
        assert math.gcd(h.cden, *h.terms.values()) == 1


def test_sums_built_by_different_routes_compare_equal():
    # integral over t0 in (t1, 1) of t0^(-1/2) t1^(1/2) is 2 t1^(1/2) - 2 t1
    f = monomial(2, (-1, 1), den=2)
    by_integration = integrate_one_var(f, 0, ((0, 1), 1))
    by_hand = FracExpSum(2, {((0, 1), (0, 0)): 2, ((0, 2), (0, 0)): -2}, den=2)
    assert by_integration == by_hand
    # the same bound over a larger denominator, and the same sum written on finer lattices
    assert integrate_one_var(f, 0, ((0, 3), 3)) == by_hand
    on_fine_lattices = FracExpSum(2, {((0, 2), (0, 0)): 12, ((0, 4), (0, 0)): -12}, den=4, cden=6)
    assert on_fine_lattices == by_hand
    assert by_hand == FracExpSum(2, {((0, 3), (0, 0)): 4, ((0, 6), (0, 0)): -4}, den=6, cden=2)
    assert (by_hand.den, by_hand.cden) == (2, 1)
    # the same monomial written on a coarser and a finer grid
    assert monomial(1, (4,), den=6) == monomial(1, (2,), den=3)
    assert monomial(1, (1,), 1, cden=3) != monomial(1, (1,), 2, cden=3)


def test_exponent_minus_one_on_a_fine_lattice_gives_a_log():
    # t0^-1 t1^(1/2): q0 == -1 is the numerator -den, so the integral is a log
    f = monomial(2, (-2, 1), den=2)
    assert f.den == 2 and f.terms == {((-2, 1), (0, 0)): 1}
    # over t0 in (t1^(1/2), 1): log(1/t1^(1/2)) t1^(1/2)
    g = integrate_one_var(f, 0, ((0, 1), 2))
    assert g == FracExpSum(2, {((0, 1), (0, 1)): 1}, den=2, cden=2)
    with pytest.raises(DivergentIntegral):
        integrate_one_var(f, 0, None)
    # -3/2 is off the integer grid and diverges too; -1/2 converges to 2
    with pytest.raises(DivergentIntegral):
        integrate_one_var(monomial(1, (-3,), den=2), 0, None)
    assert integrate_one_var(monomial(1, (-1,), den=2), 0, None).as_constant() == 2


def test_keys_are_int_tuples():
    f = monomial(3, (1, 4, -2), 1, den=2, cden=3)  # t0^(1/2) t1^2 t2^-1 / 3
    f = integrate_one_var(f, 2, ((2, 1, 0), 3))
    f = integrate_one_var(f, 1, None)
    assert f.den > 1 and f.cden > 1
    for (exps, logs), c in f.terms.items():
        assert type(exps) is tuple and type(logs) is tuple
        assert all(type(e) is int for e in exps + logs)
        assert type(c) is int


def test_a_cancelled_term_never_reaches_a_positive_step():
    # over t0 in (t1, 1), t1^-1 - 2 t0 t1^-1 is (t1^-1 - 1) - (t1^-1 - t1):
    # the t1^-1 parts cancel, and a stored zero for them would diverge at t1 -> 0
    f = FracExpSum(2, {((0, -1), (0, 0)): 1, ((1, -1), (0, 0)): -2})
    inner = integrate_one_var(f, 0, ((0, 1), 1))
    assert integrate_one_var(inner, 1, None).as_constant() == Fraction(-1, 2)
    assert inner == FracExpSum(2, {((0, 0), (0, 0)): -1, ((0, 1), (0, 0)): 1})


@st.composite
def sums_and_steps(draw):
    """A sum with n <= 3, den <= 6 and log powers <= 2, and two integration steps."""
    n = draw(st.integers(1, 3))
    den = draw(st.integers(1, 6))
    key = st.tuples(st.tuples(*[st.integers(-2 * den, 2 * den)] * n), st.tuples(*[st.integers(0, 2)] * n))
    terms = draw(st.dictionaries(key, st.integers(-6, 6), max_size=4))
    steps = []
    for _ in range(2):
        var = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            steps.append((var, None))
        else:
            bexps = [draw(st.integers(-3, 3)) for _ in range(n)]
            bexps[var] = 0
            steps.append((var, (bexps, draw(st.integers(1, 4)))))
    return n, terms, den, draw(st.integers(1, 6)), steps


def _outcome(f):
    """The fields of ``f`` and its constant value, or the error it raises."""
    try:
        value = f.as_constant()
    except ValueError as exc:
        value = str(exc)
    return f.den, f.cden, f.terms, value


@settings(max_examples=100, deadline=None)
@given(sums_and_steps())
def test_reading_a_field_between_steps_changes_nothing(case):
    # a step reads and writes its sums as stored; reading a field reduces one
    # in place, which must not change any later result
    n, terms, den, cden, steps = case
    outcomes = []
    for read_between in (False, True):
        f = FracExpSum(n, terms, den, cden)
        try:
            for var, lower in steps:
                f = integrate_one_var(f, var, lower)
                if read_between:
                    assert f.den >= 1
        except DivergentIntegral as exc:
            outcomes.append(str(exc))
            continue
        outcomes.append((f, _outcome(f)))
    assert outcomes[0] == outcomes[1]


# -- LaurentChunk ---------------------------------------------------------------


def test_chunk_coefficient_and_window():
    chunk = LaurentChunk([(-2, 2), (0, 3)], {(-1, 2): Fraction(5)})
    assert chunk.coefficient((-1, 2)) == 5
    assert chunk.coefficient((0, 0)) == 0  # inside the box, absent means zero
    with pytest.raises(OutsideWindow):
        chunk.coefficient((3, 0))
    with pytest.raises(ValueError):
        chunk.coefficient((0,))
    assert len(list(chunk.csv_rows())) == 5 * 4


def test_chunk_constructor_validation():
    with pytest.raises(ValueError):
        LaurentChunk([(0, -1), (0, 0)])
    with pytest.raises(OutsideWindow):
        LaurentChunk([(0, 1)], {(5,): Fraction(1)})


@pytest.mark.parametrize("key, error", [
    ((0,), ValueError), ((0.5, 0), TypeError), ((2, 0), OutsideWindow),
], ids=["wrong-length", "non-int", "outside-the-box"])
def test_every_way_in_refuses_a_bad_key_alike(key, error):
    # the constructor, a terms write and a read all go through one key check
    box = [(0, 1), (0, 1)]
    ways = {
        "constructor": lambda: LaurentChunk(box, {key: 1}),
        "terms write": lambda: LaurentChunk(box).terms.__setitem__(key, 1),
        "coefficient": lambda: LaurentChunk(box).coefficient(key),
    }
    for way, call in ways.items():
        with pytest.raises(Exception) as caught:
            call()
        assert caught.type is error, way


def test_chunk_needs_a_last_axis():
    with pytest.raises(ValueError, match="at least one range"):
        LaurentChunk(())


def test_chunk_csv_rows():
    chunk = LaurentChunk([(0, 1), (-1, 0)], {(1, 0): Fraction(5, 2)})
    rows = list(chunk.csv_rows())
    assert rows == ["0,-1,0", "0,0,0", "1,-1,0", "1,0,5/2"]


def test_chunk_csv_rows_of_one_variable():
    chunk = LaurentChunk([(-2, 2)], {(-2,): Fraction(-3, 2), (1,): Fraction(4)})
    assert list(chunk.csv_rows()) == ["-2,-3/2", "-1,0", "0,0", "1,4", "2,0"]


def test_chunk_refuses_keys_of_the_wrong_length():
    with pytest.raises(ValueError, match="entries"):
        LaurentChunk([(0, 1), (0, 1)], {(0,): 1, (1, 0, 5): 2})
    with pytest.raises(ValueError, match="entries"):
        LaurentChunk([(0, 1), (0, 1)], {(1, 0, 5): 2})


def test_chunk_json_dict():
    chunk = LaurentChunk([(-1, 1), (0, 0)], {(-1, 0): Fraction(1, 3)})
    payload = chunk.to_json_dict()
    assert payload["pi_power"] == 2  # the kernel prefactor 1/pi**n of a window in n variables
    assert payload["box"] == [[-1, 1], [0, 0]]
    assert payload["coefficients"] == [{"exp": [-1, 0], "coef": "1/3"}]


def test_chunk_equality():
    a = LaurentChunk([(0, 1)], {(0,): Fraction(1)})
    assert a == LaurentChunk([(0, 1)], {(0,): 1, (1,): 0})  # zero coefficients are dropped
    assert a != LaurentChunk([(0, 1)], {(1,): Fraction(1)})
    assert a != LaurentChunk([(0, 2)], {(0,): Fraction(1)})


# -- the terms view ------------------------------------------------------------


ROUTES = {
    "closed_form": lambda k, box: expand_closed_form(kernel_signature_one(normalize_spec(k)), box),
    "model": lambda k, box: series_coefficients_model(len(k), sum(e > 0 for e in k), box),
    "oracle": lambda k, box: series_coefficients_oracle(normalize_spec(k), box),
}
ROUTE_SPECS = {
    "closed_form": [(1, -1), (2, -3), (3, -4, -5)],
    "model": [(1, -1, -1), (1, 1, -1), (1, 1, -1, -1)],
    "oracle": [(1, -2), (2, 3, -4), (2, 1, -1, -3)],
}
ROUTE_WINDOWS = [
    ("closed_form", (3, -4, -5), [(0, 3), (-3, 1), (-3, 1)]),
    ("model", (1, 1, -1), [(-1, 1)] * 3),
    ("oracle", (2, 3, -4), [(0, 1), (0, 1), (-2, 1)]),
]


def test_a_write_through_terms_lands_in_every_reader():
    chunk = ROUTES["closed_form"](*ROUTE_WINDOWS[0][1:])
    alpha = min(chunk.terms)
    value = chunk.coefficient(alpha) + Fraction(1, 7)
    chunk.terms[alpha] += Fraction(1, 7)  # as the benchmark injects a wrong coefficient
    assert chunk.coefficient(alpha) == value and chunk.terms[alpha] == value
    assert ",".join(map(str, alpha)) + f",{value}" in chunk.csv_rows()
    assert {"exp": list(alpha), "coef": str(value)} in chunk.to_json_dict()["coefficients"]
    # a write into a row of zeros starts that row, and the value rule holds
    chunk = LaurentChunk([(0, 1), (0, 2)])
    chunk.terms[(1, 2)] = Fraction(6, 3)
    assert list(chunk.csv_rows()) == ["0,0,0", "0,1,0", "0,2,0", "1,0,0", "1,1,0", "1,2,2"]
    assert chunk.rows == {(1,): [0, 0, 2]} and type(chunk.coefficient((1, 2))) is int
    assert chunk.to_json_dict()["coefficients"] == [{"exp": [1, 2], "coef": "2"}]


def test_writing_zero_removes_a_key_and_writing_outside_the_box_is_refused():
    chunk = LaurentChunk([(0, 1), (-1, 1)], {(0, -1): 3, (0, 1): Fraction(1, 2)})
    chunk.terms[(0, -1)] = 0
    assert (0, -1) not in chunk.terms and dict(chunk.terms) == {(0, 1): Fraction(1, 2)}
    del chunk.terms[(0, 1)]
    assert not chunk.terms and chunk.rows == {}  # a row left all zeros is dropped
    assert chunk == LaurentChunk([(0, 1), (-1, 1)])
    with pytest.raises(KeyError):
        del chunk.terms[(0, 1)]
    for outside in [(2, 0), (0, 2), (-1, -1)]:
        with pytest.raises(OutsideWindow):
            chunk.terms[outside] = 1
        assert chunk.terms.get(outside, 0) == 0 and outside not in chunk.terms
    with pytest.raises(TypeError, match="window values must be ints or Fractions"):
        chunk.terms[(0, 0)] = 0.5
    assert chunk.rows == {}
    with pytest.raises(AttributeError):
        chunk.terms = {}  # the view has no setter: values live in the rows


def test_terms_count_only_nonzero_values():
    chunk = LaurentChunk([(0, 2), (0, 2)], {(0, 0): 1, (0, 1): 0, (2, 2): Fraction(2, 4)})
    assert chunk.rows == {(0,): [1, 0, 0], (2,): [0, 0, Fraction(1, 2)]}
    assert len(chunk.terms) == 2 and chunk.terms
    assert chunk.terms == {(0, 0): 1, (2, 2): Fraction(1, 2)}
    assert chunk.terms != {(0, 0): 1, (0, 1): 0, (2, 2): Fraction(1, 2)}
    assert (0, 1) not in chunk.terms and chunk.coefficient((0, 1)) == 0
    empty = LaurentChunk([(0, 2)])
    assert len(empty.terms) == 0 and not empty.terms and empty.terms == {}


@pytest.mark.parametrize("route, k, box", ROUTE_WINDOWS, ids=[w[0] for w in ROUTE_WINDOWS])
def test_a_route_window_iterates_lexicographically(route, k, box):
    keys = list(ROUTES[route](k, box).terms)
    assert keys and keys == sorted(keys)


@pytest.mark.parametrize("route, k, box", ROUTE_WINDOWS, ids=[w[0] for w in ROUTE_WINDOWS])
def test_whole_window_reads_follow_the_rows(monkeypatch, route, k, box):
    chunk = ROUTES[route](k, box)
    lo = box[-1][0]
    from_rows = {(*lead, x): v for lead, row in chunk.rows.items() for x, v in enumerate(row, lo) if v}
    assert from_rows

    whole = dict(chunk.terms)
    assert whole == from_rows and list(whole) == list(from_rows)
    alpha, value = next(iter(from_rows.items()))
    assert (alpha, value) in chunk.terms.items() and value in chunk.terms.values()
    assert (alpha, value + 1) not in chunk.terms.items()

    def no_key_check(*args):
        raise AssertionError("a whole-window read checked a key it had just produced")

    # iteration, items and values walk the rows
    monkeypatch.setattr(LaurentChunk, "_position", no_key_check)
    assert list(chunk.terms) == list(from_rows)
    assert dict(chunk.terms.items()) == from_rows
    assert list(chunk.terms.items()) == list(from_rows.items())
    assert list(chunk.terms.values()) == list(from_rows.values())
    assert len(chunk.terms.items()) == len(chunk.terms.values()) == len(from_rows)


@st.composite
def route_windows(draw):
    route = draw(st.sampled_from(sorted(ROUTES)))
    k = draw(st.sampled_from(ROUTE_SPECS[route]))
    box = []
    for _ in k:
        lo = draw(st.integers(-3, 1))
        box.append((lo, lo + draw(st.integers(0, 3))))
    return route, k, box


@settings(max_examples=40, deadline=None)
@given(route_windows())
@example(ROUTE_WINDOWS[0])
@example(ROUTE_WINDOWS[1])
@example(ROUTE_WINDOWS[2])
def test_a_window_rebuilt_from_its_terms_is_the_same_window(case):
    route, k, box = case
    chunk = ROUTES[route](k, box)
    rebuilt = LaurentChunk(box, dict(chunk.terms))
    assert rebuilt == chunk
    assert list(rebuilt.csv_rows()) == list(chunk.csv_rows())
    assert rebuilt.to_json_dict() == chunk.to_json_dict()
    assert list(chunk.terms) == sorted(chunk.terms)


@st.composite
def windows_and_permutations(draw):
    n = draw(st.integers(1, 4))
    box = []
    for _ in range(n):
        lo = draw(st.integers(-3, 1))
        box.append((lo, lo + draw(st.integers(0, 3))))
    terms = {}
    for _ in range(draw(st.integers(0, 10))):
        alpha = tuple(draw(st.integers(lo, hi)) for lo, hi in box)
        terms[alpha] = Fraction(draw(st.integers(-5, 5)), draw(st.sampled_from([1, 2, 3])))
    return LaurentChunk(box, terms), draw(st.permutations(range(n)))


@settings(max_examples=80, deadline=None)
@given(windows_and_permutations())
@example((LaurentChunk([(0, 1), (-1, 1)], {(0, -1): 1, (1, 1): Fraction(1, 2)}), [1, 0]))  # a transpose
@example((LaurentChunk([(0, 1), (0, 2), (-1, 0)], {(1, 2, -1): 3}), [1, 0, 2]))  # the last axis stays
def test_permuted_moves_every_value_to_its_relabelled_exponent(case):
    chunk, perm = case
    out = chunk.permuted(perm)
    relabelled = {tuple(alpha[p] for p in perm): value for alpha, value in chunk.terms.items()}
    assert out == LaurentChunk([chunk.box[p] for p in perm], relabelled)
    assert list(out.terms) == sorted(out.terms)
    before = dict(chunk.terms)
    out.terms.clear()  # the new window shares no row with the old one
    assert dict(chunk.terms) == before


def test_permuted_needs_a_permutation():
    with pytest.raises(ValueError, match="permutation"):
        LaurentChunk([(0, 1), (0, 1)]).permuted([0, 0])


RELABELLINGS = {
    "SparsePoly.permuted": lambda perm: SparsePoly(2, {(1, 2): 3}).permuted(perm),
    "LaurentChunk.permuted": lambda perm: LaurentChunk([(0, 1), (-1, 1)], {(1, -1): 2}).permuted(perm),
}


@pytest.mark.parametrize("relabel", RELABELLINGS.values(), ids=RELABELLINGS.keys())
@pytest.mark.parametrize("perm, error, message", [
    ([1.0, 0], TypeError, r"1\.0"), ([0, 0], ValueError, "permutation"), ([0], ValueError, "permutation"),
], ids=["float-entry", "repeated-entry", "too-short"])
def test_every_relabelling_checks_its_permutation_alike(relabel, perm, error, message):
    # one rule: int entries, each of 0..n-1 once; a float equal to an int is refused by name
    with pytest.raises(error, match=message):
        relabel(perm)


# -- integer entries -----------------------------------------------------------


@pytest.mark.parametrize("build, bad", [
    (lambda: normalize_spec((1.5, -1)), "1.5"),
    (lambda: SparsePoly(2, {(1.5, 0): 1}), "1.5"),
    (lambda: LaurentChunk(((0, 1.5), (0, 1))), "1.5"),
    (lambda: LaurentChunk(((0, 1), (0, 1))).coefficient((0.7, 0)), "0.7"),
    (lambda: kernel_fat_hartogs(1.5), "-1.5"),
    (lambda: FracExpSum(1, {((0,), (1.5,)): 1}), "1.5"),
    (lambda: pair_count(1.5, 1), "1.5"),
    (lambda: coefficient_C((0.0, 2), normalize_spec((1, -2))), "0.0"),
    (lambda: normalize_spec((True, -2)), "True"),
    (lambda: SparsePoly.linear_form(2, {0: 1, 1: 1}).on_row((True,), [1]), "True"),
    (lambda: pair_count(True, 1), "True"),
], ids=["spec", "poly-exponent", "chunk-box", "chunk-coefficient", "fat-hartogs", "log-power",
        "pair-count", "closed-form-coefficient", "bool-spec", "bool-row",
        "bool-pair-count"])
def test_non_int_entries_are_refused_not_truncated(build, bad):
    # each of these once went through int() and silently dropped the fraction,
    # or took True as 1: normalize_spec((True, -2)) returned H(1, -2)
    with pytest.raises(TypeError, match=rf"entries must be ints, got {bad}$"):
        build()


@pytest.mark.parametrize("value", [0.1, 1.0, Decimal("0.5"), "3", 1j, True])
def test_non_exact_window_values_are_refused(value):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10, and True once stored 1
    with pytest.raises(TypeError, match=rf"window values must be ints or Fractions, got {re.escape(repr(value))} at \(0,\)$"):
        LaurentChunk([(0, 1)], {(0,): value})


@pytest.mark.parametrize("num, den, want", [
    (6, 3, 2), (6, 4, Fraction(3, 2)), (-6, 3, -2), (-6, 4, Fraction(-3, 2)),
    (6, -4, Fraction(-3, 2)), (0, 5, 0), (7, 1, 7), (1, 3, Fraction(1, 3)),
])
def test_exact_ratio_is_int_when_den_divides_num(num, den, want):
    value = _exact_ratio(num, den)
    assert value == want and type(value) is type(want)


def test_chunk_stores_integral_values_as_ints():
    chunk = LaurentChunk([(0, 2)], {(0,): Fraction(5), (1,): Fraction(5, 2), (2,): 7})
    assert [type(chunk.coefficient((x,))) for x in range(3)] == [int, Fraction, int]
    assert type(LaurentChunk([(0, 1)]).coefficient((0,))) is int
