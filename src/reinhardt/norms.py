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

Rows are taken in ``beta``: :meth:`RSPair.row` tabulates ``R`` and ``S``
on a row's finite part only (:func:`norm_finite_from`, the rule stated
once), and :func:`monomial_norm_model`, which shifts ``alpha`` once, is its
one-point case; its ``finite`` flag answers whether a norm is finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .domains import NormValue, shifted
from .exact import SparsePoly, _check_ints


def _check_shape(n: int, s: int) -> None:
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")


def norm_finite_from(lead: Sequence[int], n: int, s: int) -> int | None:
    """The smallest finite ``beta_n`` along the row ``beta = (*lead, x)`` of Omega(n, s).

    The finite points are ``x >= start``, where ``start`` is returned;
    ``None`` if the row holds none.  The conditions on ``beta`` hold for
    every pair iff they hold for the smallest entry of each block.  For
    ``s == n`` the last entry joins the positive block (``start = 1``); for
    ``s < n`` it joins the negative block, and the pair condition with the
    smallest positive entry ``m`` reads ``x >= 1 - m``.
    """
    _check_shape(n, s)
    if len(lead) != n - 1:
        raise ValueError(f"a row of Omega({n}, {s}) needs {n - 1} leading coordinates, got {len(lead)}")
    if s == n:
        return 1 if min(lead, default=1) >= 1 else None
    m = min(lead[:s])
    if m < 1 or (s < n - 1 and m + min(lead[s:]) <= 0):
        return None
    return 1 - m


@dataclass(frozen=True, eq=False)
class RSPair:
    """The polynomial pair ``(R, S)`` for Omega(n, s), in variables beta_1..beta_n."""

    n: int
    s: int
    R: SparsePoly
    S: SparsePoly

    def row(self, lead: Sequence[int], lo: int, hi: int) -> tuple[range, list[int], list[int]]:
        """``R`` and ``S`` at the finite points ``beta = (*lead, x)``, ``lo <= x <= hi``, of one row.

        Returns the finite points ``x >= start`` (:func:`norm_finite_from`)
        as a range ``xs``, with each polynomial tabulated over it
        (:meth:`~reinhardt.exact.SparsePoly.on_row`); a row without them
        does no polynomial work.  The one guard on the formula: both values
        must be positive at every finite point.  A ``lead``, ``lo`` or ``hi``
        entry that is not an ``int`` is a ``TypeError``.
        """
        _check_ints("row", (*lead, lo, hi))
        start = norm_finite_from(lead, self.n, self.s)
        if start is None:
            return range(0), [], []
        xs = range(max(start, lo), hi + 1)
        if not xs:
            return xs, [], []
        rs = self.R.on_row(lead, xs)
        qs = self.S.on_row(lead, xs)
        if min(rs) <= 0 or min(qs) <= 0:
            for x, r, q in zip(xs, rs, qs):
                if r <= 0 or q <= 0:
                    raise ArithmeticError(f"R/S degenerate at beta={(*lead, x)}: R={r}, S={q}")
        return xs, rs, qs


@lru_cache(maxsize=None)
def build_RS(n: int, s: int) -> RSPair:
    """Construct ``(R, S)`` for Omega(n, s) exactly (memoized)."""
    _check_shape(n, s)
    S = SparsePoly.one(n)
    for j in range(s):
        S = S * SparsePoly.linear_form(n, {j: 1})
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
        shrink = shrink * SparsePoly.linear_form(n, {j: 1})
    reflect = {j: SparsePoly.linear_form(n, {j: 1, new: 1}) for j in range(s)}
    reflect.update({j: SparsePoly.linear_form(n, {j: 1, new: -1}) for j in range(s, n - 1)})
    bracket = prev * grow - prev.substitute(reflect) * shrink
    R = bracket.divide_exact_by_var(new)
    return RSPair(n, s, R, S)


def monomial_norm_model(alpha: Sequence[int], n: int, s: int) -> NormValue:
    """The exact squared norm of ``z**alpha`` on Omega(n, s): the one-point case of :meth:`RSPair.row`."""
    beta = shifted(alpha)
    if len(beta) != n:
        raise ValueError(f"alpha has length {len(beta)}, expected {n}")
    xs, rs, qs = build_RS(n, s).row(beta[:-1], beta[-1], beta[-1])
    return NormValue.of(Fraction(rs[0], qs[0]), n) if xs else NormValue.infinite()
