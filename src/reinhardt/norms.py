"""Monomial norms on model domains via an exact two-polynomial recursion.

On the model domain ``Omega(n, s)`` (exponents ``+1`` s times, then ``-1``)
the squared Bergman norm of the monomial ``z**alpha`` is finite exactly when,
writing ``beta = alpha + 1`` componentwise,

    beta_j > 0             for j <= s, and
    beta_j + beta_l > 0    for j <= s < l <= n,

and in that case it equals ``pi**n * R(beta) / S(beta)`` where

    S(beta) = prod_{j<=s} beta_j * prod_{j<=s<l} (beta_j + beta_l)

collects the obvious linear factors and ``R`` is a polynomial depending
only on ``(n, s)``.  ``R`` is built by induction on the number of
negative-block variables:

    R_{s,s} = 1,
    R_{n+1,s}(beta, b) =
        [ R_{n,s}(beta) * prod_{j<=s}(beta_j + b)
          - R_{n,s}(beta*) * prod_{j<=s} beta_j ] / b,

where ``beta*`` adds ``b`` to each positive-block entry and subtracts it
from each negative-block entry.  The division by the new variable ``b`` is
always exact (the bracket vanishes at ``b = 0``); the implementation insists
on it and aborts otherwise, since a failed division can only mean a bug.

``R`` is homogeneous of degree ``(n - s)(s - 1)``, symmetric in each block
separately, and shares no factor with ``S`` — in particular ``R = 1``
whenever ``s = 1`` or ``s = n``, and ``R_{3,2} = beta_1 + beta_2 + beta_3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .domains import NormValue, shifted
from .exact import SparsePoly


def _check_shape(n: int, s: int) -> None:
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")


def is_norm_finite(alpha: Sequence[int], n: int, s: int) -> bool:
    """Whether ``z**alpha`` is square-integrable on Omega(n, s)."""
    _check_shape(n, s)
    if len(alpha) != n:
        raise ValueError(f"alpha has length {len(alpha)}, expected {n}")
    # beta_j > 0 and beta_j + beta_l > 0 for every pair hold iff they hold
    # for the smallest entry of each block
    m = min(alpha[:s])
    return m >= 0 and (s == n or m + min(alpha[s:]) > -2)


@dataclass(frozen=True, eq=False)
class RSPair:
    """The polynomial pair ``(R, S)`` for Omega(n, s), in variables beta_1..beta_n."""

    n: int
    s: int
    R: SparsePoly
    S: SparsePoly

    def at(self, beta: Sequence[int]) -> tuple[int, int]:
        """``(R(beta), S(beta))`` at a finite-norm ``beta``, where both must be positive."""
        r = self.R.evaluate(beta)
        q = self.S.evaluate(beta)
        if r <= 0 or q <= 0:
            raise ArithmeticError(f"R/S degenerate at beta={beta}: R={r}, S={q}")
        return r, q


@lru_cache(maxsize=None)
def build_RS(n: int, s: int) -> RSPair:
    """Construct ``(R, S)`` for Omega(n, s) exactly (memoized)."""
    _check_shape(n, s)
    S = SparsePoly.one(n)
    for j in range(s):
        S = S * SparsePoly.variable(n, j)
        for l in range(s, n):
            S = S * SparsePoly.linear_form(n, {j: 1, l: 1})
    if n == s:
        return RSPair(n, s, SparsePoly.one(n), S)

    prev = build_RS(n - 1, s).R.extended(n)
    new = n - 1  # index of the variable being folded in
    grow = SparsePoly.one(n)
    shrink = SparsePoly.one(n)
    for j in range(s):
        grow = grow * SparsePoly.linear_form(n, {j: 1, new: 1})
        shrink = shrink * SparsePoly.variable(n, j)
    reflect = {j: SparsePoly.linear_form(n, {j: 1, new: 1}) for j in range(s)}
    reflect.update({j: SparsePoly.linear_form(n, {j: 1, new: -1}) for j in range(s, n - 1)})
    bracket = prev * grow - prev.substitute(reflect) * shrink
    R = bracket.divide_exact_by_var(new)
    return RSPair(n, s, R, S)


def monomial_norm_model(alpha: Sequence[int], n: int, s: int) -> NormValue:
    """The exact squared norm of ``z**alpha`` on Omega(n, s)."""
    beta = shifted(alpha)
    if not is_norm_finite(alpha, n, s):
        return NormValue.infinite()
    r, q = build_RS(n, s).at(beta)
    return NormValue.of(Fraction(r, q), n)
