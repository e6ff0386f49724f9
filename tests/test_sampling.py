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

import reinhardt.kernels
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
HARTOGS_KERNEL = kernel_signature_one(HARTOGS)
SEED = 20260818

# The float.hex pins in this file were recorded with numpy 2.4.6 on CPython
# 3.11.7, x86-64, with the SIMD extensions numpy.show_runtime() lists as
# found: X86_V3, X86_V4, AVX512_ICL, AVX512_SPR.  The bits follow numpy's
# choice of loop for each array layout, not only the arithmetic (a
# transposed in-place product gave other last bits), so another numpy or
# CPU may move them with no change here; such a move is never re-recorded.


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
        # ||z**(0, -2)||^2 is infinite on H(1, -1), so that estimator's variance is too
        assert est.finite_variance == (alpha != (0, -1))


def test_estimate_guards():
    with pytest.raises(ValueError):
        mc_norm_estimate((0,), HARTOGS, 1000, SEED)
    with pytest.raises(ValueError):
        mc_norm_estimate((0, 0), HARTOGS, 1, SEED)


@pytest.mark.parametrize("samples", [1, 0, -5])
def test_too_few_samples_are_refused_before_the_oracle(monkeypatch, samples):
    # an infinite norm used to answer first, so a bad sample count passed unnoticed
    def no_oracle(*args, **kwargs):
        raise AssertionError("asked the exact oracle before checking the sample count")

    monkeypatch.setattr(reinhardt.sampling, "monomial_norm_oracle", no_oracle)
    for alpha in [(0, 0), (-1, 0)]:
        with pytest.raises(ValueError, match=r"^need at least two samples$"):
            mc_norm_estimate(alpha, HARTOGS, samples, SEED)


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
    result = check_reproducing(HARTOGS_KERNEL, [(0, 1)], (0.2, 0.6), 100_000, SEED)
    assert result.alphas == ((0, 1),)
    assert result.relative_errors[0] < 0.15
    assert result.references[0] == pytest.approx(0.6)
    assert result.accepted + result.discarded <= result.samples
    assert result.samples == 100_000


def test_reproducing_stream_is_pinned():
    # the three verify estimates, recorded when each monomial drew its own stream
    result = check_reproducing(HARTOGS_KERNEL, REPRODUCING_EXPONENTS, REPRODUCING_POINT, REPRODUCING_SAMPLES, SEED)
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
    shared = check_reproducing(HARTOGS_KERNEL, alphas, z, 100_000, SEED)
    for i, alpha in enumerate(alphas):
        alone = check_reproducing(HARTOGS_KERNEL, [alpha], z, 100_000, SEED)
        assert alone.alphas == (shared.alphas[i],) == (alpha,)
        assert alone.estimates == (shared.estimates[i],)
        assert alone.references == (shared.references[i],)
        assert alone.relative_errors == (shared.relative_errors[i],)
        assert (alone.accepted, alone.discarded, alone.samples, alone.seed) == (
            shared.accepted, shared.discarded, shared.samples, shared.seed,
        )


@pytest.mark.parametrize("raw, alphas, z, hexes, counts", [
    ((1, -1), [(0, 0), (0, 1), (1, -1)], (0.3 + 0.1j, 0.5 - 0.2j), [
        ("0x1.f42e7857864c1p-1", "0x1.f20dc95bcc230p-8"),
        ("0x1.f9268579ff6f9p-2", "-0x1.77285d2bb6d77p-3"),
        ("0x1.b9cf39be1e320p-2", "0x1.771597fae9160p-2"),
    ], (49_701, 146)),
    ((2, -1, -3), [(0, 0, 0), (1, 0, -1)], (0.3 + 0.1j, 0.5 - 0.2j, 0.5 - 0.2j), [
        ("-0x1.9a6af7dd868fdp-12", "0x1.2e3355999df49p-11"),
        ("-0x1.53b0c0160ab99p-11", "-0x1.cec05f5f014d0p-12"),
    ], (2_937, 23_875)),
])
def test_reproducing_discard_path_is_pinned(monkeypatch, raw, alphas, z, hexes, counts):
    # a coarse singular guard makes the discard path carry weight, and a small
    # chunk size spreads the stream over several chunks, the last one partial
    monkeypatch.setattr(reinhardt.kernels, "SINGULAR_GUARD", 1e-2)
    monkeypatch.setattr(reinhardt.sampling, "_CHUNK", 30_000)
    result = check_reproducing(kernel_signature_one(normalize_spec(raw)), alphas, z, 100_000, SEED)
    assert [(e.real.hex(), e.imag.hex()) for e in result.estimates] == hexes
    assert (result.accepted, result.discarded) == counts


@pytest.mark.parametrize("raw, alpha, hexes, accepted", [
    ((1, 2, -1), (1, 0, -1), ("0x1.30a40ad31bf75p+5", "0x1.3d7471fbb423bp-1"), 83_240),
    ((1, 1, -1, -2), (0, 1, 0, -1), ("0x1.4814ce7913adcp+4", "0x1.1e5845ec37252p-3"), 36_311),
    # one-column sign blocks of exponent 2, and integrands with the entries 2 and -1:
    # numpy's square and reciprocal loops move bits against its general power loop
    ((2, -1, -3), (2, -1, 1), ("0x1.0cd63b2fddaacp+0", "0x1.5799f9f42365ep-7"), 26_695),
    ((1, 1, -2), (2, 1, -1), ("0x1.122f558f95117p+1", "0x1.a857b74ee21dbp-7"), 55_349),
])
def test_multi_chunk_norm_estimates_are_pinned(monkeypatch, raw, alpha, hexes, accepted):
    # three full chunks and a partial fourth, on specs with two positive exponents
    monkeypatch.setattr(reinhardt.sampling, "_CHUNK", 30_000)
    est = mc_norm_estimate(alpha, normalize_spec(raw), 100_000, SEED)
    assert (est.estimate.hex(), est.std_error.hex()) == hexes
    assert est.accepted == accepted


def row_mask(spec, t):
    """The shadow mask as a row reduction, kept here so the references do not follow ``_shadow_mask``."""
    s = spec.s
    k = np.array(spec.k[:s], dtype=np.float64)
    kb = np.array([abs(e) for e in spec.k[s:]], dtype=np.float64)
    return np.prod(t[:, :s] ** k, axis=1) < np.prod(t[:, s:] ** kb, axis=1)


def masked_reproducing(spec, alphas, z, samples, seed):
    """check_reproducing's sums computed on every drawn row, then masked: the reference."""
    kernel = kernel_signature_one(spec)
    rng = generator(seed)
    zc = np.asarray(z, dtype=np.complex128)
    totals = [0j] * len(alphas)
    accepted = discarded = done = 0
    while done < samples:
        t = rng.random((min(reinhardt.sampling._CHUNK, samples - done), spec.n))
        mask = row_mask(spec, t)
        W = np.sqrt(t) * np.exp(1j * (rng.random(t.shape) * (2.0 * math.pi)))
        pairings = (zc[None, :] * np.conj(W)).T
        num, den, ok = kernel.float_parts(pairings, lambda c: np.full(len(W), c, dtype=np.complex128))
        k_vals = np.zeros(len(W), dtype=np.complex128)
        np.divide(num, den, out=k_vals, where=ok)
        k_vals = k_vals / math.pi ** spec.n
        for i, a in enumerate(alphas):
            with np.errstate(divide="ignore", invalid="ignore"):
                f_vals = np.prod(W ** np.array(a, dtype=np.float64), axis=1)
            totals[i] += complex(np.sum(np.where(mask & ok, f_vals * k_vals, 0.0)))
        accepted += int(np.count_nonzero(mask & ok))
        discarded += int(np.count_nonzero(mask & ~ok))
        done += len(t)
    return [math.pi ** spec.n / samples * total for total in totals], accepted, discarded


def masked_norm(alpha, spec, samples, seed):
    """mc_norm_estimate's two sums computed on every drawn row, then masked: the reference."""
    rng = generator(seed)
    total = total_sq = 0.0
    done = 0
    while done < samples:
        t = rng.random((min(reinhardt.sampling._CHUNK, samples - done), spec.n))
        with np.errstate(divide="ignore", invalid="ignore"):
            powered = np.prod(t ** np.array(alpha, dtype=np.float64), axis=1)
        g = np.where(row_mask(spec, t), powered, 0.0)
        total += float(np.sum(g))
        total_sq += float(np.sum(g * g))
        done += len(t)
    return total, total_sq


@pytest.mark.parametrize("guard", [1e-12, 1e-2])
@pytest.mark.parametrize("raw, alphas, z", [
    ((1, -1), [(0, 0), (0, 1), (1, -1)], (0.2, 0.6)),
    ((3, -2), [(1, 0), (-1, 2)], (0.1 + 0.2j, 0.7 - 0.1j)),
    ((2, -1, -3), [(0, 0, 0), (1, -1, 2)], (0.3 + 0.1j, 0.5 - 0.2j, 0.5 - 0.2j)),
])
def test_shadow_rows_only_equals_masking_every_row(monkeypatch, guard, raw, alphas, z):
    # computing on the shadow's rows alone must not move a bit of any estimate
    monkeypatch.setattr(reinhardt.kernels, "SINGULAR_GUARD", guard)
    monkeypatch.setattr(reinhardt.sampling, "_CHUNK", 7_000)
    spec = normalize_spec(raw)
    for seed in (SEED, 7):
        result = check_reproducing(kernel_signature_one(spec), alphas, z, 20_000, seed)
        estimates, accepted, discarded = masked_reproducing(spec, alphas, z, 20_000, seed)
        assert [e.hex() for e in np.array(result.estimates).view(np.float64)] == [
            e.hex() for e in np.array(estimates).view(np.float64)
        ]
        assert (result.accepted, result.discarded) == (accepted, discarded)
        est = mc_norm_estimate(alphas[0], spec, 20_000, seed)
        total, total_sq = masked_norm(alphas[0], spec, 20_000, seed)
        mean = total / 20_000
        variance = max(total_sq / 20_000 - mean * mean, 0.0) * 20_000 / 19_999
        assert est.estimate.hex() == (math.pi ** spec.n * mean).hex()
        assert est.std_error.hex() == (math.pi ** spec.n * math.sqrt(variance / 20_000)).hex()


@pytest.mark.parametrize("contiguous", [False, True])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_power_product_equals_the_row_product_bit_for_bit(width, contiguous):
    # a one-column block keeps numpy's stride-0 exponent loops, a wider one the
    # general power loop; either form in the wrong place moves ~5% of the entries
    t = generator(SEED).random((1 << 16, 4))
    block = t[:, :width]
    cols = np.ascontiguousarray(block.T) if contiguous else block.T
    values = [float(e) for e in range(-2, 9)] + [0.5]
    for i in range(len(values)):
        exps = np.array([values[(i + 5 * j) % len(values)] for j in range(width)])
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.prod(block ** exps, axis=1)
            got = reinhardt.sampling._power_product(cols, exps)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), exps


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
        check_reproducing(HARTOGS_KERNEL, alphas, z, 1000, SEED)


@pytest.mark.parametrize("samples", [0, -5])
def test_reproducing_refuses_too_few_samples(monkeypatch, samples):
    # zero samples divided by zero; a negative count returned an empty estimate
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the arguments")

    monkeypatch.setattr(reinhardt.sampling, "generator", no_sampling)
    with pytest.raises(ValueError, match="at least one sample"):
        check_reproducing(HARTOGS_KERNEL, [(0, 1)], (0.2, 0.6), samples, SEED)


def test_bell_identity_at_a_fixed_pair():
    spec = normalize_spec((2, -1))
    z = (0.3 + 0.2j, 0.5 - 0.1j)
    w = (0.4 + 0.1j, 0.6 + 0.2j)  # |w1^2| < |w2| holds
    assert check_bell_identity(kernel_signature_one(spec), kernel_model_sig1(2), z, w) < 1e-12


def test_bell_identity_rejects_other_signatures():
    with pytest.raises(ValueError):
        check_bell_identity(
            kernel_signature_one(normalize_spec((1, 1, -1))), kernel_model_sig1(3), (0.1, 0.1, 0.5), (0.1, 0.1, 0.5)
        )


@pytest.mark.parametrize("model", [
    kernel_model_sig1(3),  # Omega(3, 1): another dimension
    kernel_signature_one(normalize_spec((1, -2))),  # H(1, -2): not a model domain
])
def test_bell_identity_refuses_a_model_kernel_of_another_domain(model):
    kernel = kernel_signature_one(normalize_spec((2, -1)))
    with pytest.raises(ValueError, match=r"is not the model domain of H\(2, -1\)$"):
        check_bell_identity(kernel, model, (0.3 + 0.2j, 0.5 - 0.1j), (0.4 + 0.1j, 0.6 + 0.2j))
    with pytest.raises(ValueError, match=r"is not the model domain of H\(2, -1\)$"):
        bell_residuals(kernel, model, 1, SEED)


def test_bell_identity_takes_the_model_by_its_domain():
    # the general construction at (1, -1) is the model kernel of Omega(2, 1)
    kernel = kernel_signature_one(normalize_spec((2, -1)))
    z, w = (0.3 + 0.2j, 0.5 - 0.1j), (0.4 + 0.1j, 0.6 + 0.2j)
    general = check_bell_identity(kernel, kernel_signature_one(HARTOGS), z, w)
    assert general == check_bell_identity(kernel, kernel_model_sig1(2), z, w)


@pytest.mark.parametrize("w", [(0.0, 0.5), (0.4 + 0.1j, 0j)])
def test_bell_identity_refuses_a_zero_coordinate_of_w(w):
    # the branch sum divides by each w_a: this was a ZeroDivisionError
    kernel = kernel_signature_one(normalize_spec((2, -1)))
    with pytest.raises(ValueError, match=r"^w = .* has a zero coordinate"):
        check_bell_identity(kernel, kernel_model_sig1(2), (0.1, 0.5), w)


def test_bell_residuals_are_tiny_and_deterministic():
    kernel = kernel_signature_one(normalize_spec((2, -1)))
    first = bell_residuals(kernel, kernel_model_sig1(2), 5, SEED)
    second = bell_residuals(kernel, kernel_model_sig1(2), 5, SEED)
    assert first == second
    assert max(first) < 1e-10


def test_branch_sum_residuals_are_pinned():
    # the verify residuals pin the scalar float evaluator bit for bit, as the
    # reproducing stream pins the vectorized one
    model = kernel_model_sig1(2)
    worst = {
        raw: max(bell_residuals(kernel_signature_one(normalize_spec(raw)), model, BELL_PAIRS, DEFAULT_SEED)).hex()
        for raw in BELL_SPECS
    }
    assert worst == {
        (2, -1): "0x1.62286dc5e0224p-50",
        (3, -2): "0x1.a5c61918c70f0p-49",
        (2, -3): "0x1.ccab0ae1d75bdp-49",
    }


def test_empty_sampling_region_raises_instead_of_hanging():
    # with margin 0.8 no t in [0.05, 0.9]^2 satisfies t_1 < 0.8 * t_2**50
    with pytest.raises(ArithmeticError, match=r"H\(1, -50\)"):
        bell_residuals(kernel_signature_one(normalize_spec((1, -50))), kernel_model_sig1(2), 1, 1)


def test_generator_streams_are_stable():
    # the exact draw sequence is part of the reproducibility contract
    g = generator(123)
    h = np.random.Generator(np.random.Philox(np.random.SeedSequence(123, spawn_key=(0,))))
    assert np.array_equal(g.random(8), h.random(8))
    assert not np.array_equal(generator(123).random(8), generator(124).random(8))
