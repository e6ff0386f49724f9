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
    """Whether ``z**alpha`` is square-integrable on Omega(n, s): :func:`norm_finite_from` at one point."""
    if len(alpha) != n:
        raise ValueError(f"alpha has length {len(alpha)}, expected {n}")
    start = norm_finite_from(alpha[:-1], n, s)
    return start is not None and alpha[-1] >= start


def norm_finite_from(lead: Sequence[int], n: int, s: int) -> int | None:
    """The smallest finite last exponent along the row ``alpha = (*lead, x)`` of Omega(n, s).

    The finite exponents are ``x >= start``, where ``start`` is returned;
    ``None`` if the row holds none.  The conditions on ``beta = alpha + 1``
    hold for every pair iff they hold for the smallest entry of each block.
    For ``s == n`` the last entry joins the positive block (``start = 0``);
    for ``s < n`` it joins the negative block, and the pair condition with
    the smallest positive entry ``m`` reads ``x >= -1 - m``.
    """
    _check_shape(n, s)
    if len(lead) != n - 1:
        raise ValueError(f"a row of Omega({n}, {s}) needs {n - 1} leading exponents, got {len(lead)}")
    if s == n:
        return 0 if min(lead, default=0) >= 0 else None
    m = min(lead[:s])
    if m < 0 or (s < n - 1 and m + min(lead[s:]) <= -2):
        return None
    return -1 - m


def _check_positive(beta: Sequence[int], r: int, q: int) -> None:
    """The one guard on the formula: ``R`` and ``S`` are positive at every finite-norm ``beta``."""
    if r <= 0 or q <= 0:
        raise ArithmeticError(f"R/S degenerate at beta={beta}: R={r}, S={q}")


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
        _check_positive(beta, r, q)
        return r, q

    def row(self, lead: Sequence[int], xs: range) -> tuple[list[int], list[int]]:
        """The values ``R`` and ``S`` at ``beta = (*lead, x)`` for every ``x`` of ``xs``.

        The row form of :meth:`at`: each polynomial is restricted to the last
        variable once and tabulated over ``xs``
        (:meth:`~reinhardt.exact.SparsePoly.on_row`).  Every point must have
        finite norm, and both values must be positive there.
        """
        rs = self.R.on_row(lead, xs)
        qs = self.S.on_row(lead, xs)
        if rs and (min(rs) <= 0 or min(qs) <= 0):
            for x, r, q in zip(xs, rs, qs):
                _check_positive((*lead, x), r, q)
        return rs, qs


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
