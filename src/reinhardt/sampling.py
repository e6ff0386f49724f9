"""Monte-Carlo verification: norms, the reproducing property, branch sums.

All randomness flows through numpy's counter-based Philox generator, keyed
by ``SeedSequence(seed, spawn_key=(0,))``: runs are bit-for-bit
reproducible for a fixed ``(seed, samples)`` pair, and nothing depends on
global RNG state.

Sampling uses the polar factorization of Reinhardt domains: drawing
``t`` uniformly on the unit cube, keeping the shadow inequality, and
attaching independent uniform phases gives points ``w_j = sqrt(t_j) *
exp(i theta_j)`` uniform on ``H(k)``; for any integrand ``f``,

    Integral_{H(k)} f dV  ~  pi**n / N * sum_{accepted} f(w_i),

since the cube has volume 1 and each polar fiber contributes ``pi**n``.
The integrand is computed only on the shadow's rows of each chunk (about
half of them on ``H(1, -1)``).  Each sum still runs over the whole chunk,
with zeros at the rows outside, so numpy adds in the same pairwise order as
if every row were computed and masked, and the estimates keep their bits.
Estimates report a standard error from the same sample, so consumers can
apply z-score tolerances, and say whether the estimator's variance is
finite: when it is not, the standard error is not the uncertainty.  A norm
that the exact oracle finds infinite is refused before sampling, because
the sample mean of a divergent integral is still a finite number.

The bits follow numpy's loop choice, so a float rewrite is checked bit for
bit.  As ``uint64`` on a chunk of (1,-1), (2,-1,-3), (3,-2), (1,-1,-1,-2)
(numpy 2.4.6, AVX-512), layout alone moved no bit of ``np.power`` or
``zc[None, :] * np.conj(W)``.  A scalar exponent 2, -1 or 1/2 moves ~5%
against an exponent array, so F-ordered ``np.power(inside, a)`` did on
(2,-1,-3), (3,-2); swapped product operands did on all four (26-29%);
F- vs C-ordered ``np.prod(W ** a, axis=1)`` on all but (1,-1) (49-77%).

So the shadow mask and ``t**alpha`` are products of whole columns
(``_power_product``), taken left to right, which a real row reduction
equals bit for bit whatever the layout.  numpy's iterator gives a
one-column block such as ``t[:, :1] ** k[:1]`` a stride-0 exponent, which
takes the square, reciprocal and sqrt loops, so a one-column block keeps
that form; a wider block takes the general power loop, so each of its
exponents fills a full-length column.  The complex ``W ** a`` product stays
a row reduction over a C-ordered array; zero exponents are left out of it,
since ``w**0`` is 1.

Two checks of kernels passed in live here, as only numerics see them whole:

* the reproducing property ``f(z) = Integral f(w) K(z, w) dV(w)`` for
  monomials ``f``, with near-singular kernel evaluations counted and
  discarded rather than silently included.  One sample stream serves
  several monomials: the points and the kernel values are computed once
  per chunk, and only the weight ``w**alpha`` differs between them;

* the branch-sum identity tying the kernel of ``H(k)`` to the model kernel
  through the proper map ``phi(z) = (z_a**ell_a)``: with ``zeta_a`` the
  primitive ``ell_a``-th root of unity and principal roots ``w_a**(1/ell_a)``,

      prod_a ell_a z_a^{ell_a - 1} * B_{H(k)}(phi(z), w)
        = sum_j B_model(z, Phi_j(w)) * conj(U_j(w)),

  summed over all branch tuples ``j``, where ``Phi_j(w)_a = zeta_a^{j_a}
  w_a^{1/ell_a}`` and ``U_j = prod_a (zeta_a^{j_a}/ell_a)
  w_a^{1/ell_a - 1}``.  The identity holds for any fixed choice of root
  branch, which is why the float principal branch is safe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product as _cartesian
from typing import Iterator, Sequence

import numpy as np

from .domains import DomainSpec, lcm_data
from .exact import DivergentIntegral
from .kernels import RationalKernel
from .shadow import monomial_norm_oracle

_CHUNK = 1 << 20

#: Rejection draws per interior point; past them the sampler raises ``ArithmeticError``.
_MAX_DRAWS = 10_000

#: Interior points keep ``t**k_pos < _MARGIN * t**|k_neg|``, clear of the singular set.
_MARGIN = 0.8


def generator(seed: int) -> np.random.Generator:
    """The Philox generator of the given seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,))))


def _power_product(cols: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """The row products ``prod_j cols[j] ** exps[j]``, multiplied left to right into one column.

    ``cols`` holds one column per exponent, e.g. ``t[:, :s].T``, and the
    bits are those of ``np.prod(cols.T ** exps, axis=1)`` under one rule:
    a one-column block keeps a stride-0 exponent, as numpy's iterator gives
    the row form, so 2, -1 and 1/2 take the square, reciprocal and sqrt
    loops; in a wider block each exponent fills a full-length column and
    takes the general power loop.  The wrong form for either width moves
    ~5% of the entries.
    """
    if len(exps) == 1:
        return np.power(cols[0], exps)
    out = np.full(len(cols[0]), exps[0])
    np.power(cols[0], out, out=out)
    power = np.empty_like(out)
    for col, e in zip(cols[1:], exps[1:]):
        power.fill(e)
        np.power(col, power, out=power)
        out *= power
    return out


def _shadow_mask(spec: DomainSpec, t: np.ndarray) -> np.ndarray:
    s = spec.s
    k = np.array(spec.k[:s], dtype=np.float64)
    kb = np.array([abs(e) for e in spec.k[s:]], dtype=np.float64)
    return _power_product(t[:, :s].T, k) < _power_product(t[:, s:].T, kb)


def _draws(spec: DomainSpec, rng: np.random.Generator, samples: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """``samples`` uniform points of the unit cube, in chunks of at most ``_CHUNK``.

    Yields ``(count, rows, inside)`` per chunk of ``count`` points:
    ``rows`` are the indices of the points in the shadow, ascending, and
    ``inside`` holds those points, one per row.  Each chunk is drawn only
    when asked for, so a caller that draws from ``rng`` between chunks keeps
    its draws interleaved with them.
    """
    done = 0
    while done < samples:
        count = min(_CHUNK, samples - done)
        t = rng.random((count, spec.n))
        rows = np.flatnonzero(_shadow_mask(spec, t))
        inside = t.take(rows, axis=0)
        del t  # only the shadow's points stay in memory while the caller works
        yield count, rows, inside
        done += count


def _scattered(count: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A length-``count`` array of zeros holding ``values`` at ``rows``.

    Sums run over this array, not over ``values`` alone: it is the array
    that masking every row gives, so numpy's pairwise summation keeps its
    order and the estimates their bits.
    """
    out = np.zeros(count, dtype=values.dtype)
    out[rows] = values
    return out


@dataclass(frozen=True)
class McNormEstimate:
    """A Monte-Carlo norm with its standard error.

    ``finite_variance`` says whether the estimator's second moment,
    ``||z**(2 alpha)||^2 / pi**n``, is finite; if not, ``std_error`` is not
    the uncertainty of ``estimate``.
    """

    estimate: float
    std_error: float
    finite_variance: bool
    accepted: int
    samples: int
    seed: int


def mc_norm_estimate(alpha: Sequence[int], spec: DomainSpec, samples: int, seed: int) -> McNormEstimate:
    """Monte-Carlo estimate of ``||z**alpha||^2`` on ``H(k)`` with its standard error.

    Fewer than two samples are refused first.  Then the exact oracle is
    asked: an infinite norm raises :class:`~reinhardt.exact.DivergentIntegral`
    before any sample is drawn, since the sample mean of a divergent
    integral is still a finite number; the oracle at ``2 alpha`` says
    whether the variance is finite.  ``t**alpha`` is computed on the
    shadow's rows only; the sums run over the whole chunk, zeros included,
    so the bits are those of masking every row.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    if not monomial_norm_oracle(alpha, spec).finite:
        raise DivergentIntegral(f"||z**{tuple(alpha)}||^2 is infinite on {spec}; there is nothing to estimate")
    finite_variance = monomial_norm_oracle(tuple(2 * a for a in alpha), spec).finite
    a = np.array(alpha, dtype=np.float64)
    total = 0.0
    total_sq = 0.0
    accepted = 0
    for count, rows, inside in _draws(spec, generator(seed), samples):
        with np.errstate(divide="ignore", invalid="ignore"):
            g = _scattered(count, rows, _power_product(inside.T, a))
        total += float(np.sum(g))
        total_sq += float(np.sum(g * g))
        accepted += len(rows)
    if accepted == 0:
        raise ArithmeticError("no sample landed in the shadow; cannot estimate")
    scale = math.pi ** spec.n
    mean = total / samples
    variance = max(total_sq / samples - mean * mean, 0.0) * samples / (samples - 1)
    return McNormEstimate(
        estimate=scale * mean,
        std_error=scale * math.sqrt(variance / samples),
        finite_variance=finite_variance,
        accepted=accepted,
        samples=samples,
        seed=seed,
    )


def kernel_values(kernel: RationalKernel, z: Sequence[complex], W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized kernel evaluation ``K(z, W_row)`` with a non-singular mask.

    ``z`` has one entry per variable and ``W`` one row per point, each of
    that width; anything else is a ``ValueError`` rather than a broadcast.
    """
    n = kernel.n
    if len(z) != n:
        raise ValueError(f"z has length {len(z)}, expected {n}")
    if np.ndim(W) != 2 or np.shape(W)[1] != n:
        raise ValueError(f"W has shape {np.shape(W)}, expected (points, {n})")
    zc = np.asarray(z, dtype=np.complex128)
    T = np.ascontiguousarray((zc[None, :] * np.conj(W)).T)  # one contiguous column of pairings per variable
    num, den, ok = kernel.float_parts(T, lambda c: np.full(len(W), c, dtype=np.complex128))
    values = np.zeros(len(W), dtype=np.complex128)
    np.divide(num, den, out=values, where=ok)
    values /= math.pi ** kernel.n
    return values, ok


@dataclass(frozen=True)
class ReproducingCheck:
    """One sample stream checked against several monomials.

    ``alphas``, ``estimates``, ``references`` and ``relative_errors`` hold
    one entry per exponent; the counts are shared, since the shadow mask
    and the singular guard do not depend on the monomial.
    """

    alphas: tuple[tuple[int, ...], ...]
    estimates: tuple[complex, ...]
    references: tuple[complex, ...]
    relative_errors: tuple[float, ...]
    accepted: int
    discarded: int
    samples: int
    seed: int


def check_reproducing(
    kernel: RationalKernel,
    alphas: Sequence[Sequence[int]],
    z: Sequence[complex],
    samples: int,
    seed: int,
) -> ReproducingCheck:
    """Monte-Carlo check of ``z**alpha = Integral w**alpha K(z, w) dV(w)`` for each ``alpha``.

    Samples uniformly on ``kernel.spec``, evaluates ``kernel`` vectorized,
    and discards (but counts) near-singular draws.  The phases are drawn for
    every row of a chunk, so the stream does not depend on the shadow; the
    points, kernel values and weights are computed on the shadow's rows
    only, and each sum runs over the whole chunk with zeros elsewhere, so
    the bits are those of masking every row.  One stream serves every
    monomial: each chunk's points and kernel values are computed once and
    weighted by each ``w**alpha`` in turn, so an exponent's estimate is the
    same whether it is checked alone or with others.  The reference value
    is the monomial at ``z``; the relative error compares against it.
    """
    spec, n = kernel.spec, kernel.n
    if samples < 1:
        raise ValueError("need at least one sample")
    if len(alphas) == 0:
        raise ValueError("alphas is empty, expected at least one exponent")
    for alpha in alphas:
        if len(alpha) != n:
            raise ValueError(f"alpha has length {len(alpha)}, expected {n}")
    if len(z) != n:
        raise ValueError(f"z has length {len(z)}, expected {n}")
    rng = generator(seed)
    powers = [np.array(alpha, dtype=np.float64) for alpha in alphas]
    zc = np.asarray(z, dtype=np.complex128)
    references = tuple(complex(np.prod(zc ** a)) for a in powers)
    factors = [(np.flatnonzero(a), a[a != 0]) for a in powers]  # w_j**0 is 1: only the others are raised
    totals = [0.0 + 0.0j] * len(powers)
    accepted = 0
    discarded = 0
    for count, rows, inside in _draws(spec, rng, samples):
        # phases for the whole chunk, so the stream does not depend on the shadow
        theta = rng.random((count, n)).take(rows, axis=0)
        W = np.sqrt(inside) * np.exp(1j * (theta * (2.0 * math.pi)))
        k_vals, ok = kernel_values(kernel, z, W)
        if not ok.all():
            keep = np.flatnonzero(ok)
            discarded += len(rows) - len(keep)
            rows, W, k_vals = rows.take(keep), W.take(keep, axis=0), k_vals.take(keep)
        for i, (cols, a) in enumerate(factors):
            weighted = k_vals
            if len(cols):
                with np.errstate(divide="ignore", invalid="ignore"):
                    # take keeps the subset C-ordered, which the complex row product's bits need
                    weighted = np.prod(W.take(cols, axis=1) ** a, axis=1) * k_vals
            totals[i] += complex(np.sum(_scattered(count, rows, weighted)))
        accepted += len(rows)
    estimates = tuple(math.pi ** n / samples * total for total in totals)
    return ReproducingCheck(
        alphas=tuple(tuple(alpha) for alpha in alphas),
        estimates=estimates,
        references=references,
        relative_errors=tuple(abs(e - r) / abs(r) for e, r in zip(estimates, references)),
        accepted=accepted,
        discarded=discarded,
        samples=samples,
        seed=seed,
    )


def check_bell_identity(kernel: RationalKernel, model: RationalKernel,
                        z: Sequence[complex], w: Sequence[complex]) -> float:
    """Relative residual of the branch-sum identity at one point pair.

    ``model`` is the kernel of the model domain of ``kernel.spec`` (else a
    ``ValueError``).  ``z`` must lie in the model domain and ``w`` in
    ``H(k)`` with nonzero coordinates (else a ``ValueError``); the
    residual is ``|lhs - rhs| / max(|lhs|, |rhs|)``.  A ``z`` with a zero
    coordinate whose ``ell_a > 1`` is a ``ValueError`` too: there ``u(z) =
    prod ell_a z_a^(ell_a - 1)`` is 0, both sides vanish, and the ratio
    would be 0/0.
    """
    if not model.spec.is_model or (model.n, model.spec.s) != (kernel.n, kernel.spec.s):
        raise ValueError(f"{model.spec} is not the model domain of {kernel.spec}")
    if 0 in w:
        raise ValueError(f"w = {tuple(w)} has a zero coordinate; the branch sum divides by each")
    _, ell, _ = lcm_data(kernel.spec)
    for a, (za, la) in enumerate(zip(z, ell)):
        if za == 0 and la > 1:
            raise ValueError(f"z = {tuple(z)} has a zero coordinate z_{a} with ell_{a} = {la} > 1, "
                             "where u(z) and both sides of the identity vanish")

    u = 1.0 + 0.0j
    for za, la in zip(z, ell):
        u *= la * za ** (la - 1)
    phi = [za ** la for za, la in zip(z, ell)]
    lhs = u * kernel.evaluate(phi, w)

    roots = [complex(wa) ** (1.0 / la) for wa, la in zip(w, ell)]
    zetas = [cmath.exp(2j * math.pi / la) for la in ell]
    rhs = 0.0 + 0.0j
    for branches in _cartesian(*(range(la) for la in ell)):
        point = [zetas[a] ** j * roots[a] for a, j in enumerate(branches)]
        U = 1.0 + 0.0j
        for a, j in enumerate(branches):
            U *= zetas[a] ** j / ell[a] * point[a] / (zetas[a] ** j * w[a])
        # point[a] / w[a] * zeta**j / zeta**j reduces to w_a^{1/ell_a - 1},
        # written through the stored root so both sides share one branch choice
        rhs += model.evaluate(z, point) * U.conjugate()
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def _sample_domain_point(spec: DomainSpec, rng: np.random.Generator) -> list[complex]:
    """A random interior point with a safety margin from the singular set (the region may be empty)."""
    n, s = spec.n, spec.s
    for _ in range(_MAX_DRAWS):
        t = 0.05 + 0.85 * rng.random(n)
        lhs = math.prod(float(t[a]) ** spec.k[a] for a in range(s))
        rhs = math.prod(float(t[b]) ** abs(spec.k[b]) for b in range(s, n))
        if lhs < _MARGIN * rhs:
            theta = rng.random(n) * 2.0 * math.pi
            return [math.sqrt(float(ti)) * cmath.exp(1j * th) for ti, th in zip(t, theta)]
    raise ArithmeticError(f"no interior point of {spec} with margin {_MARGIN} in {_MAX_DRAWS} draws")


def bell_residuals(kernel: RationalKernel, model: RationalKernel, pairs: int, seed: int) -> list[float]:
    """Branch-sum residuals at ``pairs`` seeded point pairs, ``z`` in ``model.spec``, ``w`` in ``kernel.spec``."""
    rng = generator(seed)
    out = []
    for _ in range(pairs):
        z = _sample_domain_point(model.spec, rng)
        w = _sample_domain_point(kernel.spec, rng)
        out.append(check_bell_identity(kernel, model, z, w))
    return out
