"""Tests for Laurent expansion, series oracles, and the decay diagnostic."""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import reinhardt.norms
import reinhardt.series
import reinhardt.verify
from reinhardt.domains import model_spec, normalize_spec
from reinhardt.exact import LaurentChunk, OutsideWindow, SparsePoly
from reinhardt.kernels import kernel_model_sig1, kernel_signature_one
from reinhardt.norms import RSPair, build_RS, norm_finite_from
from reinhardt.series import (
    apply_annihilating_operator,
    expand_closed_form,
    rationality_diagnostic,
    series_coefficients_model,
    series_coefficients_oracle,
    slice_coefficients,
)
from reinhardt.shadow import shadow_integral_exact
from reinhardt.verify import _annihilator_failures

from test_exact import reference_value


def test_hartogs_expansion_values():
    chunk = expand_closed_form(kernel_model_sig1(2), [(0, 4), (-4, 4)])
    # coefficient = beta_1 (beta_1 + beta_2) with beta = alpha + 1
    assert chunk.coefficient((0, 0)) == 2
    assert chunk.coefficient((0, -1)) == 1
    assert chunk.coefficient((1, 0)) == 6
    assert chunk.coefficient((4, 4)) == 50
    assert chunk.coefficient((0, -2)) == 0  # infinite norm: absent from the series
    assert chunk.coefficient((2, -4)) == 0
    assert chunk.pi_power == 2
    with pytest.raises(OutsideWindow):
        chunk.coefficient((5, 0))


def test_expansion_matches_model_series():
    box = [(-3, 3), (-3, 3)]
    assert expand_closed_form(kernel_model_sig1(2), box) == series_coefficients_model(2, 1, box)
    box3 = [(-2, 2)] * 3
    assert expand_closed_form(kernel_model_sig1(3), box3) == series_coefficients_model(3, 1, box3)


def test_expansion_matches_shadow_oracle_for_fat_triangle():
    spec = normalize_spec((1, -2))
    box = [(0, 4), (-4, 4)]
    assert expand_closed_form(kernel_signature_one(spec), box) == series_coefficients_oracle(spec, box)


@st.composite
def signature_one_window(draw):
    n = draw(st.integers(2, 3))
    mags = draw(st.lists(st.integers(1, 7), min_size=n, max_size=n).filter(lambda m: math.gcd(*m) == 1))
    spec = normalize_spec((mags[0],) + tuple(-m for m in mags[1:]))
    low = draw(st.integers(-1, 2))
    box = [(low, low + draw(st.integers(0, 3)))]
    for _ in range(n - 1):
        box.append((draw(st.integers(-4, -1)), draw(st.integers(0, 3))))
    return spec, box


@settings(max_examples=100, deadline=None)
@given(signature_one_window())
def test_expansion_equals_the_oracle_on_random_windows(case):
    spec, box = case
    assert expand_closed_form(kernel_signature_one(spec), box) == series_coefficients_oracle(spec, box)


def coefficient_by_the_formula(kernel, alpha):
    """The series.py docstring's sum at one exponent: ``scalar * sum C(beta) (m+1) prod_b (p_b+1)``."""
    k1, kb = kernel.spec.k[0], kernel.spec.abs_k
    total = 0
    for beta, c in kernel.numerator.terms.items():
        m, rest = divmod(alpha[0] - beta[0], k1)
        ps = [alpha[b] - beta[b] + kb[b] * (m + 2) for b in range(1, kernel.n)]
        if m >= 0 and rest == 0 and min(ps) >= 0:
            total += c * (m + 1) * math.prod(p + 1 for p in ps)
    return kernel.scalar * total


@st.composite
def closed_form_case(draw):
    """A normalized signature-one spec, its leading box ranges, and where the last range lies."""
    n = draw(st.integers(2, 4))
    mags = draw(st.lists(st.integers(1, 7), min_size=n, max_size=n).filter(lambda m: math.gcd(*m) == 1))
    spec = normalize_spec((mags[0],) + tuple(-m for m in mags[1:]))
    low = draw(st.integers(-1, 3))
    lead = [(low, low + draw(st.integers(0, 2)))]
    for _ in range(n - 2):
        lead.append((draw(st.integers(-4, 0)), draw(st.integers(0, 3))))
    where = draw(st.sampled_from(["near", "above", "below", "empty"]))
    return spec, lead, where, draw(st.integers(1, 6)), draw(st.integers(0, 8))


@settings(max_examples=80, deadline=None)
@given(closed_form_case())
def test_expansion_equals_the_per_point_formula(case):
    spec, lead, where, gap, width = case
    kernel = kernel_signature_one(spec)
    k1, kn = spec.k[0], spec.abs_k[-1]
    # the last-axis starts s = beta_n - |k_n| (m+2) of every ramp the leading boxes reach
    starts = [
        beta[-1] - kn * ((a0 - beta[0]) // k1 + 2)
        for beta in kernel.numerator.terms
        for a0 in range(lead[0][0], lead[0][1] + 1)
        if a0 >= beta[0] and (a0 - beta[0]) % k1 == 0
    ] or [0]
    if where == "near":
        last = (-gap, width - gap)
    elif where == "above":  # every ramp already runs at lo
        last = (max(starts) + gap, max(starts) + gap + width)
    elif where == "below":  # lo far below every ramp start
        last = (min(starts) - 4 * gap, max(starts) + width - 4)
    else:  # hi below every ramp start: every row is empty
        last = (min(starts) - gap - width, min(starts) - gap)
    box = lead + [last]
    chunk = expand_closed_form(kernel, box)
    points = itertools.product(*(range(lo, hi + 1) for lo, hi in box))
    assert chunk == LaurentChunk(box, {alpha: coefficient_by_the_formula(kernel, alpha) for alpha in points})
    if where == "empty":
        assert not chunk.terms


@pytest.mark.parametrize("k, box, digest", [
    ((1, -1), [(0, 60), (-60, 60)], "2d4abdba5ac7d85e9c8735f734bdf78109d53b3ffbdae2ba963fbc679aeee655"),
    ((3, -4, -5), [(0, 10), (-6, 6), (-6, 6)], "76b98fa081799b7b59d8465ac7ae9c0fcd24d2ae2c922f2dd404d66f6f364cb1"),
])
def test_closed_form_csv_text_is_pinned(k, box, digest):
    rows = expand_closed_form(kernel_signature_one(normalize_spec(k)), box).csv_rows()
    assert hashlib.sha256("".join(row + "\n" for row in rows).encode()).hexdigest() == digest


@pytest.mark.parametrize("route, k, box, digest", [
    ("model", (1, 1, -1, -1), [(-3, 3)] * 4, "1234156c479834a7f597c9bbd8413f906bfadcad7041b9ef16abd13e5936081d"),
    ("oracle", (2, 3, -4), [(0, 4), (0, 4), (-4, 4)], "204b406b84974af0eb4672c9610b78f2364508dfa818c001325dc6062c264753"),
])
def test_model_and_oracle_csv_text_is_pinned(route, k, box, digest):
    spec = normalize_spec(k)
    if route == "model":
        chunk = series_coefficients_model(spec.n, spec.s, box)
    else:
        chunk = series_coefficients_oracle(spec, box)
    rows = chunk.csv_rows()
    assert hashlib.sha256("".join(row + "\n" for row in rows).encode()).hexdigest() == digest


def is_int_exactly_when_integral(chunk):
    return all(type(v) is (int if v.denominator == 1 else Fraction) for v in chunk.terms.values())


@pytest.mark.parametrize("k, box, some_fractions", [
    ((1, -1), [(0, 20), (-20, 20)], False),  # scalar 1: every value an int
    ((3, -4, -5), [(0, 10), (-6, 6), (-6, 6)], True),  # scalar 1/3600
])
def test_closed_form_values_are_int_when_integral(k, box, some_fractions):
    kernel = kernel_signature_one(normalize_spec(k))
    chunk = expand_closed_form(kernel, box)
    assert chunk.terms and is_int_exactly_when_integral(chunk)
    assert any(type(v) is Fraction for v in chunk.terms.values()) == some_fractions


def test_series_values_are_int_when_integral_on_every_route():
    model = series_coefficients_model(4, 2, [(-1, 2)] * 4)
    oracle = series_coefficients_oracle(normalize_spec((2, 3, -4)), [(0, 2), (0, 2), (-3, 2)])
    for chunk in (model, oracle):
        kinds = {type(v) for v in chunk.terms.values()}
        assert kinds == {int, Fraction} and is_int_exactly_when_integral(chunk)
    # R = beta_1 + beta_2 + beta_3 on Omega(3, 2): 1/3 * R(1,1,1) is the int 1
    window = LaurentChunk([(0, 1)] * 3, {(0, 0, 0): Fraction(1, 3), (0, 0, 1): Fraction(1, 3)})
    flat = apply_annihilating_operator(3, 2, window)
    assert flat.terms == {(1, 1, 1): 1, (1, 1, 2): Fraction(4, 3)}
    assert is_int_exactly_when_integral(flat)
    assert is_int_exactly_when_integral(apply_annihilating_operator(4, 2, model))


def test_model_formula_refuses_a_nonpositive_R_or_S(monkeypatch):
    pair = build_RS(3, 2)
    assert pair.row((1, 1), 1, 1) == (range(1, 2), [3], [4])
    for bad in (RSPair(3, 2, pair.R * -1, pair.S), RSPair(3, 2, pair.R, pair.S - pair.S)):
        with pytest.raises(ArithmeticError, match="degenerate"):
            bad.row((1, 1), 1, 1)
        # both users of the formula go through the one guard
        monkeypatch.setattr(reinhardt.norms, "build_RS", lambda n, s: bad)
        monkeypatch.setattr(reinhardt.series, "build_RS", lambda n, s: bad)
        with pytest.raises(ArithmeticError, match="degenerate"):
            reinhardt.norms.monomial_norm_model((0, 0, 0), 3, 2)
        with pytest.raises(ArithmeticError, match="degenerate"):
            series_coefficients_model(3, 2, [(0, 0)] * 3)


def test_expansion_guards():
    with pytest.raises(ValueError):
        expand_closed_form(kernel_model_sig1(2), [(0, 4)])


@pytest.mark.parametrize("route", [
    lambda box: expand_closed_form(kernel_model_sig1(2), box),
    lambda box: series_coefficients_model(2, 1, box),
    lambda box: series_coefficients_oracle(model_spec(2, 1), box),
], ids=["closed-form", "model", "oracle"])
@pytest.mark.parametrize("box", [[(0, 1)] * 3, [(0, 1)]], ids=["too-long", "too-short"])
def test_every_route_refuses_a_box_of_the_wrong_length(route, box):
    with pytest.raises(ValueError, match="^box needs 2 ranges$"):
        route(box)


def test_model_series_signature_two():
    chunk = series_coefficients_model(3, 2, [(0, 0), (0, 0), (-1, 0)])
    assert chunk.coefficient((0, 0, 0)) == Fraction(4, 3)
    assert chunk.coefficient((0, 0, -1)) == Fraction(1, 2)  # norm 2 pi^3


def test_oracle_series_any_signature():
    spec = normalize_spec((2, 3, -4))
    chunk = series_coefficients_oracle(spec, [(0, 0), (0, 0), (0, 0)])
    assert chunk.coefficient((0, 0, 0)) == Fraction(21, 13)


@st.composite
def model_window(draw):
    n = draw(st.integers(2, 4))
    s = draw(st.integers(1, n - 1))
    box = []
    for _ in range(n):
        lo = draw(st.integers(-3, 2))
        box.append((lo, lo + draw(st.integers(0, 2))))
    return n, s, box


@settings(max_examples=200, deadline=None)
@given(model_window())
def test_model_series_equals_the_oracle_on_random_windows(case):
    n, s, box = case
    assert series_coefficients_model(n, s, box) == series_coefficients_oracle(model_spec(n, s), box)


def box_points(box):
    return itertools.product(*(range(lo, hi + 1) for lo, hi in box))


def finite_at(beta, n, s) -> bool:
    """Whether the norm at ``beta = alpha + 1`` on Omega(n, s) is finite, from its row's start."""
    start = norm_finite_from(beta[:-1], n, s)
    return start is not None and beta[-1] >= start


@st.composite
def model_row_window(draw):
    """A model shape, ``s == n`` included, and a box whose last range may be a single point."""
    n = draw(st.integers(2, 4))
    s = draw(st.integers(1, n))
    box = []
    for _ in range(n - 1):
        lo = draw(st.integers(-4, 2))
        box.append((lo, lo + draw(st.integers(0, 3))))
    lo = draw(st.integers(-7, 3))
    box.append((lo, lo + draw(st.sampled_from([0, 0, 1, 4, 8]))))
    return n, s, box


@settings(max_examples=60, deadline=None)
@given(model_row_window())
@example((3, 2, [(-2, -1), (0, 1), (4, 4)]))  # every row wholly outside the chamber
@example((3, 3, [(0, 1), (-1, 2), (-3, 3)]))  # s == n
@example((4, 2, [(0, 2), (0, 1), (-3, 0), (-6, 6)]))  # rows that start inside the box
def test_model_rows_equal_the_pointwise_formula(case):
    # the reference is the formula point by point, through neither the
    # shared window loop nor RSPair.row
    n, s, box = case
    pair = build_RS(n, s)
    per_point = {}
    for alpha in box_points(box):
        beta = tuple(a + 1 for a in alpha)
        if finite_at(beta, n, s):
            per_point[alpha] = reference_value(pair.S, beta) / reference_value(pair.R, beta)
    chunk = series_coefficients_model(n, s, box)
    assert chunk == LaurentChunk(box, per_point)
    assert is_int_exactly_when_integral(chunk)


@st.composite
def oracle_window(draw):
    n = draw(st.integers(2, 4))
    s = draw(st.integers(1, n - 1))
    mags = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n).filter(lambda m: math.gcd(*m) == 1))
    spec = normalize_spec(tuple(mags[:s]) + tuple(-m for m in mags[s:]))
    box = []
    for _ in range(n - 1):
        lo = draw(st.integers(-3, 2))
        box.append((lo, lo + draw(st.integers(0, 2))))
    lo = draw(st.integers(-8, 3))
    box.append((lo, lo + draw(st.sampled_from([0, 0, 2, 5, 9]))))
    return spec, box


@settings(max_examples=50, deadline=None)
@given(oracle_window())
@example((normalize_spec((2, 3, -4)), [(-1, 0), (0, 1), (-4, 4)]))  # beta_1 = 0: empty rows
@example((normalize_spec((3, 1, -2, -5)), [(0, 1), (0, 0), (-1, 1), (2, 2)]))  # one-point rows
def test_oracle_rows_equal_the_per_point_integral(case):
    # the oracle's parametric rows against the iterated integral at every point;
    # every spec has the forms beta_a, which do not move along a row
    spec, box = case
    per_point = {}
    for alpha in box_points(box):
        value = shadow_integral_exact(tuple(a + 1 for a in alpha), spec)
        if value is not None:
            per_point[alpha] = 1 / value
    chunk = series_coefficients_oracle(spec, box)
    assert chunk == LaurentChunk(box, per_point)
    assert is_int_exactly_when_integral(chunk)


def test_series_skips_infinite_norms():
    chunk = series_coefficients_model(2, 1, [(-2, 0), (-2, 0)])
    assert chunk.coefficient((-1, 0)) == 0
    assert chunk.coefficient((-2, 0)) == 0
    assert chunk.coefficient((0, 0)) == 2


# -- slice coefficients and the decay diagnostic -----------------------------------


def test_slice_coefficients_values():
    assert slice_coefficients(3, 4) == [Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 6)]
    assert slice_coefficients(4, 2) == [Fraction(1, 7), Fraction(2, 26)]
    with pytest.raises(ValueError):
        slice_coefficients(2, 10)
    with pytest.raises(ValueError):
        slice_coefficients(3, 0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_slice_coefficients_split_off_the_norm_ratio(n):
    # S/R at beta = (1,...,1,j) equals j plus the j-th slice coefficient:
    # the polydisc part and the tail split exactly
    pair = build_RS(n, n - 1)
    tail = slice_coefficients(n, 30)
    for j in range(1, 31):
        beta = (1,) * (n - 1) + (j,)
        ratio = reference_value(pair.S, beta) / reference_value(pair.R, beta)
        assert ratio - j == tail[j - 1]


def test_diagnostic_classifies_slice_families():
    for n in (3, 4, 5):
        assert rationality_diagnostic(slice_coefficients(n, 200)) == "polynomial_decay"


def test_diagnostic_classifies_geometric_decay():
    assert rationality_diagnostic([Fraction(1, 2) ** j for j in range(1, 200)]) == "exponential_decay"
    assert rationality_diagnostic([Fraction(4, 5) ** j * j for j in range(1, 200)]) == "exponential_decay"


def test_diagnostic_inconclusive_cases():
    assert rationality_diagnostic([1, 2, 3]) == "inconclusive"  # too short
    assert rationality_diagnostic([1.0, 2.0] * 50) == "inconclusive"  # oscillating ratios
    values = [1.0] * 40 + [0.0] + [1.0] * 40
    assert rationality_diagnostic(values) == "inconclusive"  # nonpositive tail entry


# -- annihilating operator ----------------------------------------------------------


def test_annihilator_flattens_hartogs_series():
    box = [(-3, 3), (-3, 3)]
    series = series_coefficients_model(2, 1, box)
    flat = apply_annihilating_operator(2, 1, series)
    S = build_RS(2, 1).S
    assert flat.box == ((-2, 4), (-2, 4))
    for gamma in box_points(flat.box):
        beta = gamma  # after the shift, gamma plays the role of beta
        expected = reference_value(S, beta) if beta[0] > 0 and beta[0] + beta[1] > 0 else 0
        assert flat.coefficient(gamma) == expected


@pytest.mark.parametrize("wrong", ["R", "S"])
def test_annihilator_check_catches_a_wrong_R_or_S(monkeypatch, wrong):
    # the check's series comes from shadow integration, so a wrong R or S
    # (patched wherever build_RS is looked up) must surface as failures
    box = [(-3, 3)] * 3
    for n, s in [(3, 2), (3, 1)]:
        assert _annihilator_failures(n, s, box) == (7 ** 3, [])
    real = build_RS

    def corrupted(n, s):
        pair = real(n, s)
        if wrong == "R":
            return RSPair(n, s, pair.R + SparsePoly.one(n), pair.S)
        return RSPair(n, s, pair.R, pair.S * 3)

    for module in (reinhardt.norms, reinhardt.series, reinhardt.verify):
        monkeypatch.setattr(module, "build_RS", corrupted)
    for n, s in [(3, 2), (3, 1)]:
        points, failures = _annihilator_failures(n, s, box)
        assert points == 7 ** 3 and failures


@st.composite
def sparse_window(draw):
    """A window of Omega(n, s) with a few scattered values: most rows are empty."""
    n = draw(st.integers(2, 4))
    s = draw(st.integers(1, n))
    box = [(-3, 3)] * (n - 1) + [(draw(st.integers(-4, 0)), draw(st.integers(0, 4)))]
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        alpha = tuple(draw(st.integers(lo, hi)) for lo, hi in box)
        terms[alpha] = Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 1, 2, 3, 7])))
    return n, s, LaurentChunk(box, terms)


@settings(max_examples=50, deadline=None)
@given(sparse_window())
@example((3, 2, LaurentChunk([(-3, 3), (-3, 3), (0, 0)])))  # no values at all
@example((3, 2, LaurentChunk([(-3, 3)] * 3, {(0, 0, 0): 1, (1, 0, 0): Fraction(1, 2), (0, 0, 2): 3})))  # a row in two runs
def test_annihilator_rows_equal_the_pointwise_product(case):
    n, s, chunk = case
    R = build_RS(n, s).R
    per_point = {}
    for alpha, coef in chunk.terms.items():
        gamma = tuple(a + 1 for a in alpha)
        per_point[gamma] = coef * reference_value(R, gamma)
    out = apply_annihilating_operator(n, s, chunk)
    assert out == LaurentChunk([(lo + 1, hi + 1) for lo, hi in chunk.box], per_point)
    assert is_int_exactly_when_integral(out)


@pytest.mark.parametrize("wrong", ["R", "S"])
@pytest.mark.parametrize("last", [(-3, 2), (-4, -1)])  # the second ends where some rows start
def test_annihilator_failures_are_every_box_point_that_misses_S(monkeypatch, wrong, last):
    # with a wrong R or S the failures are exactly the points, in box order,
    # where the flattened window differs from S on the support and 0 off it;
    # S + 1 is nonzero where the support ends, so a row that starts one
    # point early fails there
    n, s, box = 3, 2, [(-2, 2), (-1, 3), last]
    points = 5 * 5 * (last[1] - last[0] + 1)
    assert _annihilator_failures(n, s, box) == (points, [])
    real = build_RS(n, s)
    if wrong == "R":
        pair = RSPair(n, s, real.R + SparsePoly.one(n), real.S)
    else:
        pair = RSPair(n, s, real.R, real.S + SparsePoly.one(n))
    for module in (reinhardt.series, reinhardt.verify):
        monkeypatch.setattr(module, "build_RS", lambda n, s: pair)
    flattened = apply_annihilating_operator(n, s, series_coefficients_oracle(model_spec(n, s), box))
    shifted_box = [(lo + 1, hi + 1) for lo, hi in box]
    expected = []
    for gamma in box_points(shifted_box):
        want = reference_value(pair.S, gamma) if finite_at(gamma, n, s) else 0
        if flattened.coefficient(gamma) != want:
            expected.append((n, s, gamma))
    assert expected
    assert _annihilator_failures(n, s, box) == (points, expected)


def test_annihilator_keeps_window_metadata():
    chunk = LaurentChunk([(0, 1), (0, 1)], {(0, 0): Fraction(1)})
    out = apply_annihilating_operator(2, 1, chunk)
    assert out.pi_power == 2
    assert out.box == ((1, 2), (1, 2))
    # R = 1 for s = 1, so values just shift
    assert out.coefficient((1, 1)) == 1


def test_annihilator_guards():
    with pytest.raises(ValueError):
        apply_annihilating_operator(3, 1, LaurentChunk([(0, 1), (0, 1)]))
