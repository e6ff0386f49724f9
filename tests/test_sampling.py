"""Tests for the Monte-Carlo layer: determinism, calibration, and identities.

Everything here is seeded, so the assertions are deterministic even though
the quantities are statistical.  The error-versus-sample-size slope test is
the usual 1/sqrt(N) sanity check for an unbiased sampler.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reinhardt.sampling
from reinhardt.domains import normalize_spec
from reinhardt.exact import DivergentIntegral
from reinhardt.kernels import kernel_model_sig1, kernel_signature_one
from reinhardt.sampling import (
    bell_residuals,
    check_bell_identity,
    check_reproducing,
    generator,
    kernel_values,
    mc_norm_estimate,
)
from reinhardt.shadow import monomial_norm_oracle
from reinhardt.verify import (
    BELL_PAIRS,
    BELL_SPECS,
    DEFAULT_SEED,
    REPRODUCING_EXPONENTS,
    REPRODUCING_POINT,
    REPRODUCING_SAMPLES,
)

HARTOGS = normalize_spec((1, -1))
SEED = 20260818


def test_estimates_are_bit_for_bit_reproducible():
    a = mc_norm_estimate((0, 0), HARTOGS, 50_000, SEED)
    b = mc_norm_estimate((0, 0), HARTOGS, 50_000, SEED)
    assert a == b
    # the stream is the one recorded before the exact finiteness check was added
    assert float.hex(a.estimate) == "0x1.3af7e1e2542e5p+2"


def test_estimates_agree_with_exact_norms():
    for alpha in [(0, 0), (1, 0), (0, -1)]:
        est = mc_norm_estimate(alpha, HARTOGS, 200_000, SEED)
        truth = float(monomial_norm_oracle(alpha, HARTOGS))
        assert abs(est.estimate - truth) < 4 * est.std_error
        assert 0 < est.accepted < est.samples


def test_estimate_guards():
    with pytest.raises(ValueError):
        mc_norm_estimate((0,), HARTOGS, 1000, SEED)
    with pytest.raises(ValueError):
        mc_norm_estimate((0, 0), HARTOGS, 1, SEED)


def test_estimate_length_error_names_alpha():
    with pytest.raises(ValueError, match=r"^alpha has length 1, expected 2$"):
        mc_norm_estimate((0,), HARTOGS, 1000, SEED)


@st.composite
def spec_and_alpha(draw):
    n = draw(st.integers(2, 3))
    s = draw(st.integers(1, n - 1))
    mags = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    spec = normalize_spec(tuple(mags[:s]) + tuple(-m for m in mags[s:]))
    alpha = tuple(draw(st.integers(-2, 3)) for _ in range(n))
    return spec, alpha


@settings(max_examples=100, deadline=None)
@given(spec_and_alpha(), st.integers(0, 2**32 - 1))
def test_estimates_lie_within_six_standard_errors(case, seed):
    # z**(2 alpha) of finite norm means the estimator has finite variance,
    # so the reported standard error means what it says
    spec, alpha = case
    assume(monomial_norm_oracle(tuple(2 * a for a in alpha), spec).finite)
    truth = float(monomial_norm_oracle(alpha, spec))
    est = mc_norm_estimate(alpha, spec, 20_000, seed)
    assert abs(est.estimate - truth) < 6 * est.std_error


def test_error_scales_like_inverse_sqrt_n():
    # mean relative error over three monomials at N = 1e5, 1e6, 1e7 should
    # fall on a log-log line with slope near -1/2
    alphas = [(0, 0), (1, 0), (0, -1)]
    truths = [float(monomial_norm_oracle(a, HARTOGS)) for a in alphas]
    sizes = [10**5, 10**6, 10**7]
    mean_errors = []
    for n_samples in sizes:
        errors = [
            abs(mc_norm_estimate(a, HARTOGS, n_samples, SEED).estimate - t) / t
            for a, t in zip(alphas, truths)
        ]
        mean_errors.append(sum(errors) / len(errors))
    xs = [math.log(n) for n in sizes]
    ys = [math.log(e) for e in mean_errors]
    xbar, ybar = sum(xs) / 3, sum(ys) / 3
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum((x - xbar) ** 2 for x in xs)
    assert -1.0 < slope < -0.25


def test_estimate_of_an_infinite_norm_is_refused_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a divergent integral")

    monkeypatch.setattr(reinhardt.sampling, "generator", no_sampling)
    for alpha in [(-1, 0), (0, -2)]:
        with pytest.raises(DivergentIntegral, match=r"infinite on H\(1, -1\)"):
            mc_norm_estimate(alpha, HARTOGS, 1000, SEED)


def test_kernel_values_match_scalar_evaluation():
    kernel = kernel_model_sig1(2)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(SEED, spawn_key=(5,))))
    z = (0.2 + 0.1j, 0.7)
    t = rng.random((64, 2))
    theta = rng.random((64, 2)) * 2 * math.pi
    W = np.sqrt(t) * np.exp(1j * theta)
    values, ok = kernel_values(kernel, z, W)
    assert ok.all()
    for row in (0, 17, 63):
        direct = kernel.evaluate(z, W[row])
        assert abs(values[row] - direct) < 1e-12 * max(1.0, abs(direct))


@pytest.mark.parametrize(
    "z, W, message",
    [
        ((0.2,), np.full((4, 2), 0.5 + 0j), r"^z has length 1, expected 2$"),
        ((0.2, 0.1, 0.3), np.full((4, 2), 0.5 + 0j), r"^z has length 3, expected 2$"),
        ((0.2, 0.1), np.full((4, 3), 0.5 + 0j), r"^W has shape \(4, 3\), expected \(points, 2\)$"),
        ((0.2, 0.1), np.full((4, 1), 0.5 + 0j), r"^W has shape \(4, 1\), expected \(points, 2\)$"),
        ((0.2, 0.1), np.full(4, 0.5 + 0j), r"^W has shape \(4,\), expected \(points, 2\)$"),
    ],
)
def test_kernel_values_refuses_wrong_widths(z, W, message):
    # numpy would broadcast each of these; the scalar evaluator refuses them too
    kernel = kernel_signature_one(HARTOGS)
    with pytest.raises(ValueError, match=message):
        kernel_values(kernel, z, W)


def test_reproducing_property_smoke():
    result = check_reproducing(HARTOGS, [(0, 1)], (0.2, 0.6), 100_000, SEED)
    assert result.alphas == ((0, 1),)
    assert result.relative_errors[0] < 0.15
    assert result.references[0] == pytest.approx(0.6)
    assert result.accepted + result.discarded <= result.samples
    assert result.samples == 100_000


def test_reproducing_stream_is_pinned():
    # the three verify estimates, recorded when each monomial drew its own stream
    result = check_reproducing(HARTOGS, REPRODUCING_EXPONENTS, REPRODUCING_POINT, REPRODUCING_SAMPLES, SEED)
    assert [(e.real.hex(), e.imag.hex()) for e in result.estimates] == [
        ("0x1.00481834fdaa4p+0", "-0x1.a76b35b20392cp-11"),
        ("0x1.33a7c84412d4dp-1", "-0x1.9413695320585p-14"),
        ("0x1.56cc9ec3648a1p-2", "-0x1.ed0bb58421c99p-10"),
    ]
    assert (result.accepted, result.discarded) == (499_877, 0)


def test_shared_stream_equals_one_call_per_monomial(monkeypatch):
    # a small chunk size makes the stream span several chunks, the last one partial
    monkeypatch.setattr(reinhardt.sampling, "_CHUNK", 30_000)
    alphas = [(0, 0), (0, 1), (1, -1), (2, -3)]
    z = (0.3 + 0.1j, 0.5 - 0.2j)
    shared = check_reproducing(HARTOGS, alphas, z, 100_000, SEED)
    for i, alpha in enumerate(alphas):
        alone = check_reproducing(HARTOGS, [alpha], z, 100_000, SEED)
        assert alone.alphas == (shared.alphas[i],) == (alpha,)
        assert alone.estimates == (shared.estimates[i],)
        assert alone.references == (shared.references[i],)
        assert alone.relative_errors == (shared.relative_errors[i],)
        assert (alone.accepted, alone.discarded, alone.samples, alone.seed) == (
            shared.accepted, shared.discarded, shared.samples, shared.seed,
        )


@pytest.mark.parametrize("alphas, z, message", [
    ([(1,)], (0.2, 0.6), r"^alpha has length 1, expected 2$"),
    ([(0, 0), (1, 0, 0)], (0.2, 0.6), r"^alpha has length 3, expected 2$"),
    ([(0, 1)], (0.2,), r"^z has length 1, expected 2$"),
    ([], (0.2, 0.6), r"^alphas is empty"),
])
def test_reproducing_guards(monkeypatch, alphas, z, message):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the arguments")

    monkeypatch.setattr(reinhardt.sampling, "generator", no_sampling)
    with pytest.raises(ValueError, match=message):
        check_reproducing(HARTOGS, alphas, z, 1000, SEED)


@pytest.mark.parametrize("samples", [0, -5])
def test_reproducing_refuses_too_few_samples(monkeypatch, samples):
    # zero samples divided by zero; a negative count returned an empty estimate
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the arguments")

    monkeypatch.setattr(reinhardt.sampling, "generator", no_sampling)
    with pytest.raises(ValueError, match="at least one sample"):
        check_reproducing(HARTOGS, [(0, 1)], (0.2, 0.6), samples, SEED)


def test_bell_identity_at_a_fixed_pair():
    spec = normalize_spec((2, -1))
    z = (0.3 + 0.2j, 0.5 - 0.1j)
    w = (0.4 + 0.1j, 0.6 + 0.2j)  # |w1^2| < |w2| holds
    assert check_bell_identity(kernel_signature_one(spec), z, w) < 1e-12


def test_bell_identity_rejects_other_signatures():
    with pytest.raises(ValueError):
        check_bell_identity(kernel_signature_one(normalize_spec((1, 1, -1))), (0.1, 0.1, 0.5), (0.1, 0.1, 0.5))


def test_bell_residuals_are_tiny_and_deterministic():
    first = bell_residuals(normalize_spec((2, -1)), 5, SEED)
    second = bell_residuals(normalize_spec((2, -1)), 5, SEED)
    assert first == second
    assert max(first) < 1e-10


def test_branch_sum_residuals_are_pinned():
    # the verify residuals pin the scalar float evaluator bit for bit, as the
    # reproducing stream pins the vectorized one
    worst = {raw: max(bell_residuals(normalize_spec(raw), BELL_PAIRS, DEFAULT_SEED)).hex() for raw in BELL_SPECS}
    assert worst == {
        (2, -1): "0x1.62286dc5e0224p-50",
        (3, -2): "0x1.a5c61918c70f0p-49",
        (2, -3): "0x1.ccab0ae1d75bdp-49",
    }


def test_empty_sampling_region_raises_instead_of_hanging():
    # with margin 0.8 no t in [0.05, 0.9]^2 satisfies t_1 < 0.8 * t_2**50
    with pytest.raises(ArithmeticError, match=r"H\(1, -50\)"):
        bell_residuals(normalize_spec((1, -50)), 1, 1)


def test_generator_streams_are_stable():
    # the exact draw sequence is part of the reproducibility contract
    g = generator(123)
    h = np.random.Generator(np.random.Philox(np.random.SeedSequence(123, spawn_key=(0,))))
    assert np.array_equal(g.random(8), h.random(8))
    assert not np.array_equal(generator(123).random(8), generator(124).random(8))
