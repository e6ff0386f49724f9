"""Tests for closed-form kernels: construction, evaluation, emitters."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest

from reinhardt.domains import normalize_spec
from reinhardt.exact import SparsePoly
from reinhardt.kernels import (
    RationalKernel,
    SingularEvaluation,
    kernel_fat_hartogs,
    kernel_model_sig1,
    kernel_signature_one,
    kernel_thin_hartogs,
)

HARTOGS = normalize_spec((1, -1))


def test_hartogs_kernel_shape():
    kernel = kernel_signature_one(HARTOGS).canonical()
    assert kernel.spec == HARTOGS
    assert kernel.scalar == 1
    assert kernel.numerator == SparsePoly.monomial(2, (0, 1))


def test_general_construction_matches_special_cases():
    assert kernel_signature_one(normalize_spec((1, -3))) == kernel_fat_hartogs(3)
    assert kernel_signature_one(normalize_spec((4, -1))) == kernel_thin_hartogs(4)
    assert kernel_signature_one(HARTOGS) == kernel_model_sig1(2)
    assert kernel_signature_one(normalize_spec((1, -1, -1))) == kernel_model_sig1(3)


def test_canonical_folds_content_into_scalar():
    # scalar 1/2 with numerator 2 t2 is the Hartogs kernel in disguise
    doubled = RationalKernel(HARTOGS, Fraction(1, 2), 2 * SparsePoly.monomial(2, (0, 1)))
    assert doubled == kernel_model_sig1(2)
    assert doubled.canonical().scalar == 1


def test_kernels_with_different_spec_differ():
    assert kernel_fat_hartogs(2) != kernel_fat_hartogs(3)
    assert kernel_signature_one(normalize_spec((2, -1))) != kernel_signature_one(HARTOGS)


def test_evaluate_pairings_exact_value():
    # at t = (1/16, 1/4): num 1/4, main (3/16)^2, units (3/4)^2
    kernel = kernel_model_sig1(2)
    value = kernel.evaluate_pairings((0.0625, 0.25))
    assert abs(value - 1024 / (81 * math.pi**2)) < 1e-12


def test_evaluate_uses_conjugate_pairings():
    kernel = kernel_model_sig1(2)
    z = (0.25, 0.5)
    w = (0.25, 0.5)
    assert abs(kernel.evaluate(z, w) - 1024 / (81 * math.pi**2)) < 1e-12
    # rotating both points the same way leaves the diagonal value alone
    phase = cmath.exp(0.7j)
    z2 = (z[0] * phase, z[1] * phase)
    assert abs(kernel.evaluate(z2, z2) - kernel.evaluate(z, z)) < 1e-12


def test_hermitian_symmetry_and_diagonal_positivity():
    rng = random.Random(99)
    kernel = kernel_signature_one(normalize_spec((2, -3)))
    for _ in range(20):
        z = [
            0.6 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            for _ in range(2)
        ]
        w = [
            (0.3 + 0.6 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
            for _ in range(2)
        ]
        try:
            ab = kernel.evaluate(z, w)
            ba = kernel.evaluate(w, z)
        except SingularEvaluation:
            continue
        assert abs(ab - ba.conjugate()) <= 1e-10 * max(1.0, abs(ab))
        diag = kernel.evaluate(w, w)
        assert abs(diag.imag) <= 1e-12 * abs(diag)
        assert diag.real > 0


def test_singular_guard_fires():
    kernel = kernel_model_sig1(2)
    with pytest.raises(SingularEvaluation):
        kernel.evaluate_pairings((0.3, 0.3))  # on the main surface t2 = t1
    with pytest.raises(SingularEvaluation):
        kernel.evaluate_pairings((0.2, 1.0))  # on the unit factor t2 = 1
    # just off the surface is fine
    assert kernel.evaluate_pairings((0.3, 0.31)) != 0


def test_constructor_guards():
    with pytest.raises(ValueError):
        kernel_signature_one(normalize_spec((1, 1, -1)))
    with pytest.raises(ValueError):
        kernel_fat_hartogs(0)
    with pytest.raises(ValueError):
        kernel_thin_hartogs(1)
    with pytest.raises(ValueError):
        RationalKernel(HARTOGS, Fraction(1), SparsePoly.monomial(3, (0, 1, 0)))
    with pytest.raises(ValueError, match="signature 2"):
        RationalKernel(normalize_spec((1, 1, -1)), Fraction(1), SparsePoly.monomial(3, (0, 0, 1)))
    with pytest.raises(ValueError):
        RationalKernel(HARTOGS, Fraction(0), SparsePoly.monomial(2, (0, 1)))


def test_evaluate_length_guards():
    kernel = kernel_model_sig1(2)
    with pytest.raises(ValueError):
        kernel.evaluate_pairings((0.1,))
    with pytest.raises(ValueError):
        kernel.evaluate((0.1, 0.2), (0.1,))


# -- emitters -------------------------------------------------------------------


def test_plain_output_hartogs():
    assert kernel_model_sig1(2).to_plain() == "1/π² · t2 / ((t2 − t1)² (1 − t2)²)"


def test_plain_output_fat():
    text = kernel_fat_hartogs(2).to_plain()
    assert text == "1/π² · t2² / ((t2² − t1)² (1 − t2)²)"


def test_plain_output_thin_scalar():
    text = kernel_thin_hartogs(3).to_plain()
    assert text.startswith("1/(3π²) · (")
    assert "(t1³ − ... " not in text  # sanity: no ellipses, real terms
    assert "/ ((t2 − t1³)² (1 − t2)²)" in text


def test_latex_output():
    tex = kernel_fat_hartogs(2).to_latex()
    assert tex.startswith("\\frac{")
    assert "t_{2}^{2}" in tex
    assert "\\pi^{2}" in tex
    assert "\\left(t_{2}^{2} - t_{1}\\right)^{2}" in tex


def test_json_output_fat():
    payload = kernel_fat_hartogs(2).to_json_dict()
    assert payload == {
        "pi_power": 2,
        "L": 1,
        "scalar_num": 1,
        "numerator": [{"exp": [0, 2], "coef": "1"}],
        "denom_main": {"k1": 1, "kb": [2]},
        "denom_units": [{"var": 2, "mult": 2}],
    }


def test_json_output_matches_general_route():
    a = kernel_signature_one(normalize_spec((2, -3))).to_json_dict()
    b = kernel_signature_one(normalize_spec((2, -3))).to_json_dict()
    assert a == b
    assert a["denom_main"] == {"k1": 2, "kb": [3]}
    assert all(int(Fraction(entry["coef"])) >= 0 for entry in a["numerator"])


def test_repr_mentions_spec():
    assert "H(1, -1)" in repr(kernel_model_sig1(2))
