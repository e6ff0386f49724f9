"""Tests for the exact shadow-integration oracle."""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import reinhardt.shadow
from reinhardt.domains import NormValue, model_spec, normalize_spec
from reinhardt.exact import SparsePoly
from reinhardt.norms import build_RS, monomial_norm_model
from reinhardt.shadow import ParametricShadow, _in_chamber, monomial_norm_oracle, shadow_integral_exact

HARTOGS = normalize_spec((1, -1))


def at_point(shadow: ParametricShadow, beta) -> Fraction | None:
    """The integral at one point, from a one-point row: a ``Fraction``, or None where infinite."""
    xs, ps, qs = shadow.row(beta[:-1], beta[-1], beta[-1])
    return Fraction(ps[0], qs[0]) if xs else None


def test_hartogs_worked_examples():
    # area of {t1 < t2} in the unit square
    assert shadow_integral_exact((1, 1), HARTOGS) == Fraction(1, 2)
    # integral of t2^-1 over the same triangle
    assert shadow_integral_exact((1, 0), HARTOGS) == Fraction(1)
    # beta_1 = 0 diverges at the t1 -> 0 end
    assert shadow_integral_exact((0, 1), HARTOGS) is None
    assert shadow_integral_exact((0, 0), HARTOGS) is None


def test_fat_triangle_closed_form():
    # on H(1,-k): ||z^alpha||^2 = pi^2 / ((alpha_1+1) (alpha_2 + k(alpha_1+1) + 1))
    for k in (1, 2, 3, 4):
        spec = normalize_spec((1, -k))
        for a1 in range(-1, 3):
            for a2 in range(-2 * k, 3):
                b1 = a1 + 1
                tail = a2 + k * b1 + 1
                oracle = monomial_norm_oracle((a1, a2), spec)
                if b1 > 0 and tail > 0:
                    assert oracle == NormValue.of(Fraction(1, b1 * tail), 2)
                else:
                    assert oracle == NormValue.infinite()


def test_oracle_matches_model_formula_spot_checks():
    for n, s, alpha in [
        (2, 1, (0, 0)),
        (2, 1, (3, -2)),
        (3, 2, (0, 0, 0)),
        (3, 2, (0, 0, -1)),
        (3, 1, (1, -1, 0)),
        (4, 2, (0, 1, -1, 0)),
    ]:
        spec = model_spec(n, s)
        assert monomial_norm_oracle(alpha, spec) == monomial_norm_model(alpha, n, s)


def test_oracle_signature_two_values():
    # H(1,2,-3) at alpha = 0: integral over t1 t2^2 < t3^3 of 1
    spec = normalize_spec((1, 2, -3))
    value = shadow_integral_exact((1, 1, 1), spec)
    # inner t3 from (t1 t2^2)^(1/3) to 1, then the two positive axes:
    # 1 - (1/(4/3)) * (1/(5/3)) = 1 - 9/20 = 11/20
    assert value == Fraction(11, 20)
    assert monomial_norm_oracle((0, 0, 0), spec) == NormValue.of(Fraction(11, 20), 3)


def test_divergence_survives_extra_t2_powers():
    # beta_1 = 0 diverges no matter how tame the t2 factor is
    assert shadow_integral_exact((0, 2), HARTOGS) is None
    assert shadow_integral_exact((0, 3), HARTOGS) is None


def test_negative_beta_on_the_negative_block():
    # beta = (2, -1): alpha = (1, -2); finite iff beta_1 + beta_2 > 0
    assert shadow_integral_exact((2, -1), HARTOGS) == Fraction(1, 2)
    assert shadow_integral_exact((1, -1), HARTOGS) is None  # beta_1 + beta_2 = 0


def test_neg_order_validation():
    with pytest.raises(ValueError):
        shadow_integral_exact((1, 1, 1), HARTOGS)
    # the start monomial sits on the integer lattice, so beta must be ints
    with pytest.raises(TypeError, match="beta entries must be ints"):
        shadow_integral_exact((1, Fraction(1)), HARTOGS)


def test_oracle_finiteness_matches_predicate_on_a_model():
    spec = model_spec(3, 1)
    for a1 in range(-2, 2):
        for a2 in range(-2, 2):
            for a3 in range(-2, 2):
                alpha = (a1, a2, a3)
                assert monomial_norm_oracle(alpha, spec).finite == monomial_norm_model(alpha, 3, 1).finite


@pytest.mark.parametrize("alpha", [(0, 0.5), (Fraction(1), 0)])
def test_oracle_rejects_non_int_exponents(alpha):
    with pytest.raises(TypeError):
        monomial_norm_oracle(alpha, HARTOGS)


def test_oracle_type_error_names_alpha():
    with pytest.raises(TypeError, match=r"^exponent entries must be ints, got 0\.5$"):
        monomial_norm_oracle((0, 0.5), HARTOGS)


def test_oracle_length_error_names_alpha():
    with pytest.raises(ValueError, match=r"^alpha has length 1, expected 2$"):
        monomial_norm_oracle((0,), HARTOGS)


# -- pinned values -------------------------------------------------------------

#: SHA-256 of ``repr((k, beta, shadow_integral_exact(beta, spec)))`` over
#: :func:`pinned_grid`, recorded with the ``Fraction``-keyed integrator that
#: preceded the integer exponent lattice.  ``ParametricShadow`` must hash
#: to the same value.
PINNED_DIGEST = "a4a69e1147b6529e7187b03aeabb110c214a30e1a199896a7afac3b6f85cc337"


def pinned_grid():
    """Every normalized spec with n <= 3 and |k_i| <= 4, plus four n = 4 specs, on small beta boxes.

    Positive-block entries of beta run over 0..2 (0 diverges) and
    negative-block entries over -2..2, so the grid mixes finite,
    log-degenerate and divergent integrals.
    """
    specs = set()
    for n in (2, 3):
        for s in range(1, n):
            for mags in itertools.product(range(1, 5), repeat=n):
                if math.gcd(*mags) == 1:
                    specs.add(mags[:s] + tuple(-m for m in mags[s:]))
    for k in sorted(specs):
        s = sum(1 for e in k if e > 0)
        box = [range(0, 3)] * s + [range(-2, 3)] * (len(k) - s)
        for beta in itertools.product(*box):
            yield k, beta
    for k in ((1, 2, -3, -4), (2, 1, -1, -3), (1, 1, -2, -3), (3, 2, 1, -4)):
        for beta in itertools.product(range(0, 3), repeat=4):
            yield k, beta


def test_values_match_the_pinned_digest():
    per_point, parametric = hashlib.sha256(), hashlib.sha256()
    shadows = {}
    for k, beta in pinned_grid():
        spec = normalize_spec(k)
        if k not in shadows:
            shadows[k] = ParametricShadow(spec)
        per_point.update(repr((k, beta, shadow_integral_exact(beta, spec))).encode())
        parametric.update(repr((k, beta, at_point(shadows[k], beta))).encode())
    assert per_point.hexdigest() == PINNED_DIGEST
    assert parametric.hexdigest() == PINNED_DIGEST


def test_exponents_stay_on_the_negative_block_lattice(monkeypatch):
    # after each negative step the exponent denominator divides the product
    # of the |k_b| integrated so far; positive steps never grow it
    integrate = reinhardt.shadow.integrate_one_var
    dens = []

    def recording(f, var, lower):
        out = integrate(f, var, lower)
        dens.append((var, out.den))
        return out

    monkeypatch.setattr(reinhardt.shadow, "integrate_one_var", recording)
    for raw, beta in [((1, 2, -3, -4), (1, 2, 1, -1)), ((2, 3, -5, -7), (1, 1, 2, 3)), ((1, -4, -6), (2, 1, 1))]:
        spec = normalize_spec(raw)
        dens.clear()
        shadow_integral_exact(beta, spec)
        product = 1
        for var, den in dens:
            if var >= spec.s:
                product *= spec.abs_k[var]
            assert product % den == 0
        assert dens[-1][1] == 1


# -- the chamber ---------------------------------------------------------------


def normalized_specs(max_n, max_k):
    """Every normalized spec with n <= max_n and |k_i| <= max_k."""
    for n in range(2, max_n + 1):
        for s in range(1, n):
            for mags in itertools.product(range(1, max_k + 1), repeat=n):
                if math.gcd(*mags) == 1:
                    yield normalize_spec(mags[:s] + tuple(-m for m in mags[s:]))


def dual_cone_forms(spec):
    """The primitive forms ``beta_a`` and ``(|k_b| beta_a + k_a beta_b) / gcd``, as ``(c_0, c_1, ..., c_n)``."""
    n, s, k = spec.n, spec.s, spec.k
    forms = set()
    for a in range(s):
        forms.add(tuple(int(j == 1 + a) for j in range(n + 1)))
        for b in range(s, n):
            g = math.gcd(k[a], k[b])
            forms.add(tuple(-k[b] // g if j == 1 + a else k[a] // g if j == 1 + b else 0 for j in range(n + 1)))
    return forms


def test_in_chamber_on_worked_examples():
    assert _in_chamber((1, 0), HARTOGS) and _in_chamber((2, -1), HARTOGS)
    assert not _in_chamber((0, 5), HARTOGS) and not _in_chamber((1, -1), HARTOGS)
    # H(1, 2, -3): 3 beta_1 + beta_3 > 0 and 3 beta_2 + 2 beta_3 > 0
    spec = normalize_spec((1, 2, -3))
    assert _in_chamber((1, 2, -2), spec) and not _in_chamber((1, 1, -2), spec)


def test_the_dual_cone_forms_are_the_parametric_positive_step_forms():
    for spec in normalized_specs(4, 5):
        assert dual_cone_forms(spec) == set(ParametricShadow(spec).forms), spec


DIFFERENTIAL_SPECS = ((1, -1), (2, -3), (1, -1, -1), (1, 1, -1), (1, 2, -3), (3, -2, -4), (1, 1, -1, -1), (2, 1, -1, -3))


@pytest.mark.parametrize("k", DIFFERENTIAL_SPECS)
def test_integrator_finds_divergence_exactly_outside_the_chamber(k, monkeypatch):
    # with a chamber that admits every point the positive steps meet each
    # divergence themselves, and at a chamber point that is an ArithmeticError
    spec = normalize_spec(k)
    forms = dual_cone_forms(spec)
    expected = {}
    for beta in itertools.product(range(-3, 5), repeat=spec.n):
        inside = all(f[0] + sum(c * b for c, b in zip(f[1:], beta)) > 0 for f in forms)
        assert _in_chamber(beta, spec) == inside
        expected[beta] = shadow_integral_exact(beta, spec)
    monkeypatch.setattr(reinhardt.shadow, "_in_chamber", lambda beta, spec: True)
    degenerate = 0
    for beta, value in expected.items():
        if value is None:
            with pytest.raises(ArithmeticError, match="diverges inside the chamber"):
                shadow_integral_exact(beta, spec)
        else:
            assert shadow_integral_exact(beta, spec) == value
            degenerate += beta[-1] == 0  # the innermost step's form is beta_n
    assert degenerate > 0  # log-degenerate points are among the finite ones


# -- the parametric route -----------------------------------------------------


def test_parametric_route_on_worked_examples():
    shadow = ParametricShadow(HARTOGS)
    # 1 / (beta_1 (beta_1 + beta_2)): the two positive-step forms, with the
    # negative-step form beta_2 cancelled
    assert shadow.forms == ((0, 1, 0), (0, 1, 1))
    assert shadow.numerator == {(0, 0): 1} and shadow.den == 1
    assert at_point(shadow, (1, 1)) == Fraction(1, 2)
    assert at_point(shadow, (1, 0)) == Fraction(1)  # beta_2 = 0: the cancelled pole
    assert at_point(shadow, (2, -1)) == Fraction(1, 2)
    assert at_point(shadow, (1, -1)) is None
    assert at_point(shadow, (0, 5)) is None
    assert at_point(ParametricShadow(normalize_spec((1, 2, -3))), (1, 1, 1)) == Fraction(11, 20)
    with pytest.raises(ValueError, match="a row needs 1 leading coordinates, got 2"):
        at_point(shadow, (1, 1, 1))


def test_poles_that_do_not_cancel_are_an_error(monkeypatch):
    # without one part of a split, that split's negative-step form is a
    # genuine pole: the constructor refuses to divide it out
    split_terms = reinhardt.shadow._split_terms
    for spec in (HARTOGS, normalize_spec((1, 2, -3, -4)), model_spec(4, 1)):
        for dropped in range(len(split_terms(spec))):

            def without_one_part(spec, dropped=dropped):
                terms = split_terms(spec)
                _, positive, negative = terms[dropped]
                terms[dropped] = (Fraction(0), positive, negative)
                return terms

            monkeypatch.setattr(reinhardt.shadow, "_split_terms", without_one_part)
            with pytest.raises(ArithmeticError, match="do not cancel"):
                ParametricShadow(spec)


def evaluated(poly: dict, beta) -> int:
    """An ``{exponent tuple: int}`` polynomial at an integer point."""
    return sum(c * math.prod(b**e for b, e in zip(beta, exps)) for exps, c in poly.items())


def forms_product(shadow: ParametricShadow, beta) -> int:
    return math.prod(f[0] + sum(c * b for c, b in zip(f[1:], beta)) for f in shadow.forms)


@pytest.mark.parametrize("n,s", [(n, s) for n in range(2, 6) for s in range(1, n)])
def test_parametric_integral_is_the_model_formula_for_every_beta(n, s):
    # the shadow integral is P / (den * Q) with Q the product of the
    # positive-step forms, and the paper's ||z^alpha||^2 = pi^n R/S says
    # P * S == den * Q * R as polynomials in beta
    shadow = ParametricShadow(model_spec(n, s))
    Q = SparsePoly(n, {(0,) * n: shadow.den})
    for f in shadow.forms:
        Q = Q * (SparsePoly.linear_form(n, {j: c for j, c in enumerate(f[1:]) if c}) + SparsePoly(n, {(0,) * n: f[0]}))
    pair = build_RS(n, s)
    assert SparsePoly(n, shadow.numerator) * pair.S == Q * pair.R
    # and the chamber of the positive-step forms is the finiteness predicate:
    # every row of the cube [-2, 4]^n in beta has the same finite points
    for lead in itertools.product(range(-2, 5), repeat=n - 1):
        assert shadow.row(lead, -2, 4)[0] == pair.row(lead, -2, 4)[0], lead


@pytest.mark.parametrize("n", range(3, 7))
def test_diagonal_slice_of_omega_n_n_minus_1_for_every_j(n):
    # at beta = (1, ..., 1, j) the integral on Omega(n, n-1) is
    # 1 / (j + j / ((j+1)**(n-1) - 1)) = ((j+1)**(n-1) - 1) / (j (j+1)**(n-1)),
    # that is den * Q * ((j+1)**(n-1) - 1) == P * j * (j+1)**(n-1); both sides
    # are polynomials in j of degree at most `degree`, so agreeing at
    # degree + 1 integers makes it an identity in j
    shadow = ParametricShadow(model_spec(n, n - 1))
    degree = max(len(shadow.forms) + n - 1, max(map(sum, shadow.numerator)) + n)
    for j in range(degree + 1):
        beta = (1,) * (n - 1) + (j,)
        lhs = shadow.den * forms_product(shadow, beta) * ((j + 1) ** (n - 1) - 1)
        assert lhs == evaluated(shadow.numerator, beta) * j * (j + 1) ** (n - 1)
    for j in range(1, 6):
        assert 1 / at_point(shadow, (1,) * (n - 1) + (j,)) == j + Fraction(j, (j + 1) ** (n - 1) - 1)


# -- differential properties ---------------------------------------------------


@st.composite
def spec_and_beta(draw, max_n=4, max_k=7, low=-2, high=8):
    n = draw(st.integers(2, max_n))
    s = draw(st.integers(1, n - 1))
    if draw(st.booleans()):
        mags = [1] * n
    else:
        mags = draw(st.lists(st.integers(1, max_k), min_size=n, max_size=n).filter(lambda m: math.gcd(*m) == 1))
    k = tuple(mags[:s]) + tuple(-m for m in mags[s:])
    beta = tuple(draw(st.lists(st.integers(low, high), min_size=n, max_size=n)))
    return normalize_spec(k), beta


@settings(max_examples=300, deadline=None)
@given(spec_and_beta(max_n=5, max_k=9, low=-3, high=8))
def test_parametric_value_equals_the_per_point_integral(case):
    spec, beta = case
    assert at_point(ParametricShadow(spec), beta) == shadow_integral_exact(beta, spec)


@settings(max_examples=300, deadline=None)
@given(spec_and_beta())
def test_value_is_independent_of_nesting_and_labels(case):
    spec, beta = case
    n, s = spec.n, spec.s
    value = shadow_integral_exact(beta, spec)
    for pos in itertools.permutations(range(s)):
        for neg in itertools.permutations(range(s, n)):
            perm = pos + neg
            relabelled = normalize_spec(tuple(spec.k[p] for p in perm))
            assert shadow_integral_exact(tuple(beta[p] for p in perm), relabelled) == value
    if spec.is_model:
        expected = monomial_norm_model(tuple(b - 1 for b in beta), n, s)
        assert expected == (NormValue.infinite() if value is None else NormValue.of(value, n))


@st.composite
def spec_and_row(draw):
    """A spec, the leading coordinates of one row of ``beta``, and the row's ``lo <= x <= hi``."""
    spec, beta = draw(spec_and_beta(max_n=4, max_k=7, low=-3, high=6))
    lo = draw(st.integers(-9, 5))
    return spec, beta[:-1], lo, lo + draw(st.integers(-1, 9))


@settings(max_examples=60, deadline=None)
@given(spec_and_row())
@example((HARTOGS, (0,), -3, 3))  # beta_1 = 0: the row lies wholly outside the chamber
@example((HARTOGS, (2,), 5, 5))  # a one-point row
@example((HARTOGS, (2,), -4, -3))  # every point of the row diverges
@example((normalize_spec((2, 3, -4)), (1, 1), 0, -1))  # lo > hi: an empty row
def test_parametric_row_equals_the_per_point_integral(case):
    spec, lead, lo, hi = case
    shadow_integral = ParametricShadow(spec)
    # the forms beta_a (a <= s) do not move along a row: they decide all of it
    # or none; the rest grow along it, so a row's finite part starts somewhere
    assert any(form[-1] == 0 for form in shadow_integral.forms)
    assert all(form[-1] >= 0 for form in shadow_integral.forms)
    xs, ps, qs = shadow_integral.row(lead, lo, hi)
    assert xs.step == 1 and len(ps) == len(qs) == len(xs)
    assert all(type(v) is int for v in ps + qs) and all(q > 0 for q in qs)
    per_point = {x: shadow_integral_exact(lead + (x,), spec) for x in range(lo, hi + 1)}
    assert {x: Fraction(p, q) for x, p, q in zip(xs, ps, qs)} == {
        x: v for x, v in per_point.items() if v is not None
    }
    # a one-point row at every point of the row, finite or not
    assert all(at_point(shadow_integral, lead + (x,)) == v for x, v in per_point.items())


def test_parametric_row_needs_every_leading_coordinate():
    with pytest.raises(ValueError, match="2 leading"):
        ParametricShadow(normalize_spec((2, 3, -4))).row((1,), 0, 3)
