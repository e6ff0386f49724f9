"""Lattice pair counts and closed-form kernel numerator coefficients.

The numerator of the signature-one closed-form kernel is a polynomial whose
coefficients count lattice pairs.  The basic count is

    pair_count(lam, mu) = #{ (x, y) : 0 <= x, y <= lam - 1, x + y = mu },

a discrete triangle: ``mu + 1`` on the rising side ``0 <= mu <= lam - 1``,
``2*lam - 1 - mu`` on the falling side ``lam <= mu <= 2*lam - 2``, zero
outside.  Summing over ``mu`` recovers ``lam**2``.

For a signature-one spec with lcm data ``(K, ell, L)`` the numerator
coefficient at a multi-exponent ``beta`` is the product

    C(beta) = pair_count(K, 2K - ell_1*(beta_1 + 1) - 1)
              * prod_b pair_count(ell_b, ell_b*(beta_b + 1) + ell_1*(beta_1 + 1) - 2K - 1)

over the negative block ``b = 2..n``.  It is supported on the box

    G      = { beta : 0 <= beta_1 <= 2k_1 - 2,  0 <= beta_b <= 2|k_b| },

and in fact already on the smaller box ``G*`` where each coordinate with
``ell_b == 1`` is pinched to ``1 <= beta_b <= 2|k_b| - 1``; the coefficient
vanishes identically on ``G \\ G*``, which is what makes branch-sum
("Bell-type") manipulations of the kernel work.

:func:`numerator_terms` builds the nonzero coefficients without scanning
``G``: ``pair_count(lam, mu)`` is nonzero exactly when
``0 <= mu <= 2*lam - 2``, so for a fixed ``beta_1`` each negative-block
factor is nonzero on one interval of ``beta_b``, found by floor division,
and the support is a product of intervals per ``beta_1``.  The brute-force
scan of :func:`index_set` with :func:`coefficient_C` stays as its check.
"""

from __future__ import annotations

from itertools import product as _cartesian
from typing import Sequence

from .domains import DomainSpec, lcm_data
from .exact import _check_ints


def pair_count(lam: int, mu: int) -> int:
    """#{(x, y) : 0 <= x, y <= lam-1, x + y = mu}, by the closed form.

    A ``lam`` or ``mu`` that is not an ``int`` is a ``TypeError``.
    """
    _check_ints("pair count", (lam, mu))
    if lam < 1:
        raise ValueError("lam must be a positive integer")
    if mu < 0 or mu > 2 * lam - 2:
        return 0
    if mu <= lam - 1:
        return mu + 1
    return 2 * lam - 1 - mu


def pair_count_bruteforce(lam: int, mu: int) -> int:
    """The same count by enumerating ``x``, which fixes ``y = mu - x`` (test oracle for :func:`pair_count`)."""
    if lam < 1:
        raise ValueError("lam must be a positive integer")
    return sum(1 for x in range(lam) if 0 <= mu - x < lam)


def coefficient_C(beta: Sequence[int], spec: DomainSpec) -> int:
    """Numerator coefficient of the closed-form kernel at ``beta``.

    Only signature-one specs have the closed form; others raise
    ``ValueError``.  ``beta`` may be any integer vector of length ``n``
    (the count is simply 0 outside the support box); an entry that is not
    an ``int`` is a ``TypeError``.
    """
    if spec.s != 1:
        raise ValueError(f"closed-form coefficients need signature 1, got {spec.s}")
    if len(beta) != spec.n:
        raise ValueError(f"beta has length {len(beta)}, expected {spec.n}")
    _check_ints("beta", beta)
    K, ell, _ = lcm_data(spec)
    head = ell[0] * (beta[0] + 1)
    value = pair_count(K, 2 * K - head - 1)
    for b in range(1, spec.n):
        if value == 0:
            return 0
        value *= pair_count(ell[b], ell[b] * (beta[b] + 1) + head - 2 * K - 1)
    return value


def index_set(spec: DomainSpec, variant: str = "full") -> tuple[tuple[int, ...], ...]:
    """The numerator support box ``G`` (``variant="full"``) or ``G*`` (``"pruned"``).

    Members are listed lexicographically.  ``G*`` pinches every negative-block
    coordinate whose branch order ``ell_b`` is 1 from ``[0, 2|k_b|]`` to
    ``[1, 2|k_b| - 1]``; it is a subset of ``G`` and carries all the nonzero
    coefficients.
    """
    if spec.s != 1:
        raise ValueError(f"numerator index sets need signature 1, got {spec.s}")
    if variant not in ("full", "pruned"):
        raise ValueError(f"unknown variant {variant!r}")
    _, ell, _ = lcm_data(spec)
    ranges = [range(0, 2 * spec.k[0] - 1)]
    for b in range(1, spec.n):
        cap = 2 * abs(spec.k[b])
        if variant == "pruned" and ell[b] == 1:
            ranges.append(range(1, cap))
        else:
            ranges.append(range(0, cap + 1))
    return tuple(_cartesian(*ranges))


def numerator_terms(spec: DomainSpec) -> dict[tuple[int, ...], int]:
    """The nonzero ``C(beta)`` over ``G``, from the support intervals alone.

    Equal to ``{beta: coefficient_C(beta, spec)}`` over
    ``index_set(spec, "full")`` with the zeros dropped, keys in the same
    lexicographic order.  With ``head = ell_1*(beta_1 + 1)``, the head
    factor is nonzero on the whole of ``G``'s ``beta_1`` range
    (``1 <= head <= 2K - 1`` there), and factor ``b``,
    ``pair_count(ell_b, ell_b*(beta_b + 1) + head - 2K - 1)``, is nonzero
    exactly when ``ell_b * beta_b`` lies in
    ``[2K + 1 - head - ell_b, 2K + ell_b - 1 - head]``, clipped to
    ``0 <= beta_b <= 2|k_b|``.
    """
    if spec.s != 1:
        raise ValueError(f"closed-form coefficients need signature 1, got {spec.s}")
    K, ell, _ = lcm_data(spec)
    abs_k = spec.abs_k
    terms: dict[tuple[int, ...], int] = {}
    for beta1 in range(0, 2 * spec.k[0] - 1):
        head = ell[0] * (beta1 + 1)
        shift = head - 2 * K - 1
        partial = [((beta1,), pair_count(K, 2 * K - head - 1))]
        for b in range(1, spec.n):
            low = -shift - ell[b]
            lo = max(0, -(-low // ell[b]))
            hi = min(2 * abs_k[b], (low + 2 * ell[b] - 2) // ell[b])
            if lo > hi:
                break  # this beta_1 carries no term
            factors = [(beta_b, pair_count(ell[b], ell[b] * (beta_b + 1) + shift)) for beta_b in range(lo, hi + 1)]
            partial = [(prefix + (beta_b,), value * f) for prefix, value in partial for beta_b, f in factors]
        else:
            terms.update(partial)
    return terms
