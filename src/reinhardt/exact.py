"""Exact arithmetic building blocks: polynomials, fractional-power sums, windows.

Everything here computes over the integers and rationals with no rounding:

* :class:`SparsePoly` — multivariate polynomials in at least one
  variable with ``int`` coefficients, keyed by exponent tuples: the closed
  forms (kernel numerators, the norm polynomials ``R`` and ``S``) are
  integral, so the ring is Z.  Supports ring arithmetic, substitution of
  polynomials for variables, exact division by a variable (used by
  recursions that are only valid when the division is exact), and exact
  evaluation at ``int`` points along a last-axis row by Horner's rule, a
  point being the one-point row.

* :class:`FracExpSum` — finite sums of terms ``c * prod(t_j^{q_j}) *
  prod(log(1/t_j)^{p_j})`` with rational ``c``, rational exponents ``q_j``
  and nonnegative integer log powers ``p_j``.  Exponents sit on a lattice
  ``(1/den) * Z`` and coefficients on ``(1/cden) * Z``: the one
  constructor takes, and the sum stores, ``int`` exponent numerators keying
  ``int`` coefficient numerators over one denominator each, which makes
  merging like terms integer hashing and adding.  The public fields are
  the minimal form, so equal sums read equal fields; the constructor
  reduces its input, an integration result reduces on its first field
  read or comparison, and ``as_constant`` reduces once, so a chain of
  steps does no gcd work between them.  :func:`integrate_one_var` is the
  one move iterated monomial integration needs: the definite integral in
  one variable from a monomial lower bound (or 0) up to 1, written in one
  pass over the terms as ``F(1) - F(lower)`` of the antiderivative ``F``;
  a ``log`` of the monomial bound expands linearly.  The log powers are
  essential: integrating ``t**-1`` against a monomial lower bound is exact
  via ``d/dt[-log(1/t)**(p+1)/(p+1)] = t**-1 * log(1/t)**p``, and
  ``∫_0^1 t^q log(1/t)^p dt = p! / (q+1)^{p+1}``.

* :class:`LaurentChunk` — a finite window of Laurent coefficients: exact
  values on a box of integer exponents, unknown outside it, stored as one
  list of values per last-axis row, with a live view of the nonzero values
  by exponent.  A value is an ``int`` when it is integral and a reduced
  ``Fraction`` otherwise; :func:`_exact_ratio` is the one place that picks
  between the two, and every window producer goes through it.

An exponent, log power, bound, denominator, polynomial coefficient or row
coordinate that is not an ``int`` is a ``TypeError`` naming it, never
truncated; so is a window value that is a ``bool`` or neither an ``int``
nor a ``Fraction``.
"""

from __future__ import annotations

import math
from collections.abc import ItemsView, MutableMapping, ValuesView
from fractions import Fraction
from itertools import product as _cartesian
from typing import Iterable, Iterator, Mapping, Sequence


class DivergentIntegral(ArithmeticError):
    """An integral with a zero lower bound diverges (exponent <= -1)."""


class OutsideWindow(KeyError):
    """A Laurent coefficient was requested outside the chunk's trusted box."""


def _check_ints(what: str, values: Iterable) -> None:
    """Refuse any entry of ``values`` that is not an ``int``, naming it (a ``bool`` is refused too)."""
    for x in values:
        if type(x) is not int:
            raise TypeError(f"{what} entries must be ints, got {x!r}")


def _check_permutation(perm: Sequence[int], n: int) -> None:
    """Refuse ``perm`` unless its entries are ``int``s and each of ``0..n-1`` appears once."""
    _check_ints("permutation", perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"permutation must hold each of 0..{n - 1} once, got {tuple(perm)}")


def _exact_ratio(num: int, den: int) -> int | Fraction:
    """``num/den`` as an ``int`` when ``den`` divides ``num``, else as a reduced ``Fraction``."""
    whole, rest = divmod(num, den)
    return Fraction(num, den) if rest else whole


# ---------------------------------------------------------------------------
# SparsePoly
# ---------------------------------------------------------------------------


class SparsePoly:
    """A multivariate polynomial over Z, stored sparsely.

    ``terms`` maps exponent tuples (nonnegative ints, length ``nvars``) to
    nonzero ``int`` coefficients; any other coefficient is a ``TypeError``.
    There is at least one variable, the last axis that rows run along.
    Instances are treated as immutable; all operations return new
    polynomials.  The constructor checks and merges ``terms``; every
    operation whose result terms are already checked builds it with
    :meth:`_raw` instead.  :meth:`on_row` is the one evaluator: it restricts
    the polynomial to the last variable and tabulates that along a row; a
    point is the one-point row.
    """

    __slots__ = ("nvars", "terms", "_by_last")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        _check_ints("nvars", (nvars,))
        if nvars < 1:
            raise ValueError(f"a polynomial needs at least one variable, got nvars={nvars}")
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coef in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} has length != {nvars}")
                _check_ints("exponent", exps)
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}; use LaurentChunk for Laurent data")
                _check_ints("coefficient", (coef,))
                if coef:
                    clean[exps] = clean.get(exps, 0) + coef
                    if not clean[exps]:
                        del clean[exps]
        self.terms = clean

    @staticmethod
    def _raw(nvars: int, terms: dict[tuple[int, ...], int]) -> "SparsePoly":
        """A polynomial holding ``terms`` as they are: already checked, merged and nonzero."""
        out = SparsePoly.__new__(SparsePoly)
        out.nvars, out.terms = nvars, terms
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, nvars: int) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int]) -> "SparsePoly":
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def linear_form(cls, nvars: int, coeffs: Mapping[int, int]) -> "SparsePoly":
        """``sum(coeffs[i] * x_i)``."""
        terms: dict[tuple[int, ...], int] = {}
        for i, c in coeffs.items():
            exps = [0] * nvars
            exps[i] = 1
            terms[tuple(exps)] = c
        return cls(nvars, terms)

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "SparsePoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for exps, coef in other.terms.items():
            acc = terms.get(exps, 0) + coef
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        return SparsePoly._raw(self.nvars, terms)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._raw(self.nvars, {exps: -coef for exps, coef in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, SparsePoly):
            self._check(other)
            terms: dict[tuple[int, ...], int] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    exps = tuple(a + b for a, b in zip(e1, e2))
                    acc = terms.get(exps, 0) + c1 * c2
                    if acc:
                        terms[exps] = acc
                    else:
                        terms.pop(exps, None)
            return SparsePoly._raw(self.nvars, terms)
        if isinstance(other, int):
            terms = {exps: coef * other for exps, coef in self.terms.items()} if other else {}
            return SparsePoly._raw(self.nvars, terms)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "SparsePoly":
        if exponent < 0:
            raise ValueError("polynomial powers must be nonnegative")
        result = SparsePoly.one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- structure ----------------------------------------------------------

    def is_homogeneous(self, degree: int | None = None) -> bool:
        if not self.terms:
            return True
        degrees = {sum(e) for e in self.terms}
        if len(degrees) != 1:
            return False
        return degree is None or degrees == {degree}

    def content(self) -> int:
        """gcd of the coefficients (positive; 0 for the zero polynomial)."""
        return math.gcd(*self.terms.values())

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    # -- evaluation and substitution ----------------------------------------

    def on_row(self, lead: Sequence[int], xs: Sequence[int]) -> list[int]:
        """The values at the ``int`` points ``(*lead, x)``, ``x`` in ``xs``.

        The leading coordinates are fixed once: the polynomial restricted to
        the last variable is a short ``int`` coefficient list, tabulated over
        ``xs`` by Horner's rule, one ``p * x + c`` list per step.  Its layout,
        each term's coefficient and nonzero leading factors grouped by its
        last exponent, is built on first use and kept.  A ``lead`` or ``xs``
        entry that is not an ``int`` is a ``TypeError`` naming it (a
        ``range`` holds only ints, so it is not scanned).
        """
        if len(lead) != self.nvars - 1:
            raise ValueError(f"a row needs {self.nvars - 1} leading coordinates, got {len(lead)}")
        _check_ints("row", lead)
        if not isinstance(xs, range):
            _check_ints("row", xs)
        try:
            groups = self._by_last
        except AttributeError:
            groups = self._by_last = [[] for _ in range(max((e[-1] for e in self.terms), default=0) + 1)]
            for exps, c in self.terms.items():
                groups[exps[-1]].append((c, tuple((i, e) for i, e in enumerate(exps[:-1]) if e)))
        coeffs = []
        for group in groups:
            c = 0
            for num, factors in group:
                for i, e in factors:
                    num *= lead[i] ** e
                c += num
            coeffs.append(c)
        values = [coeffs[-1]] * len(xs)
        for c in reversed(coeffs[:-1]):
            values = [p * x + c for p, x in zip(values, xs)]
        return values

    def substitute(self, mapping: Mapping[int, "SparsePoly"]) -> "SparsePoly":
        """Simultaneously replace ``x_i`` by ``mapping[i]`` (same variable count)."""
        for poly in mapping.values():
            self._check(poly)
        power_cache: dict[tuple[int, int], SparsePoly] = {}

        def var_power(i: int, e: int) -> SparsePoly:
            if i not in mapping:
                return SparsePoly.monomial(self.nvars, tuple(e if j == i else 0 for j in range(self.nvars)))
            key = (i, e)
            if key not in power_cache:
                power_cache[key] = mapping[i] ** e
            return power_cache[key]

        total = SparsePoly(self.nvars)
        origin = (0,) * self.nvars
        for exps, coef in self.terms.items():
            term = SparsePoly._raw(self.nvars, {origin: coef})
            for i, e in enumerate(exps):
                if e:
                    term = term * var_power(i, e)
            total = total + term
        return total

    def divide_exact_by_var(self, index: int) -> "SparsePoly":
        """Divide by ``x_index``, requiring every term to contain it."""
        terms: dict[tuple[int, ...], int] = {}
        for exps, coef in self.terms.items():
            if exps[index] == 0:
                raise ArithmeticError(
                    f"division by variable {index} is not exact: term {exps} has no factor"
                )
            new = list(exps)
            new[index] -= 1
            terms[tuple(new)] = coef
        return SparsePoly._raw(self.nvars, terms)

    def extended(self, nvars: int) -> "SparsePoly":
        """The same polynomial viewed in a larger variable ring."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink the variable ring")
        pad = (0,) * (nvars - self.nvars)
        return SparsePoly._raw(nvars, {exps + pad: coef for exps, coef in self.terms.items()})

    def permuted(self, perm: Sequence[int]) -> "SparsePoly":
        """Relabel variables: new variable ``i`` is old variable ``perm[i]`` (checked by :func:`_check_permutation`)."""
        _check_permutation(perm, self.nvars)
        terms = {tuple(exps[p] for p in perm): coef for exps, coef in self.terms.items()}
        return SparsePoly._raw(self.nvars, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "SparsePoly(0)"
        bits = []
        for exps, coef in self.sorted_terms():
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e)
            bits.append(f"{coef}" + (f"*{mono}" if mono else ""))
        return "SparsePoly(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# FracExpSum
# ---------------------------------------------------------------------------


class FracExpSum:
    """A finite sum ``sum c * prod t_j^{q_j} * prod log(1/t_j)^{p_j}``.

    Exponents live on the lattice ``(1/den) * Z`` and coefficients on
    ``(1/cden) * Z``.  ``terms`` maps ``(exps, logs)`` pairs of ``int``
    tuples to nonzero ``int`` numerators: ``q_j = exps[j] / den``, ``c =
    terms[(exps, logs)] / cden``, and ``logs`` holds the nonnegative powers
    of ``log(1/t_j)``.  The public fields ``den``, ``cden`` and ``terms``
    are the minimal form, ``gcd(den, *exps of every key) == 1`` and
    ``gcd(cden, *every numerator) == 1`` (the empty sum has ``den == cden
    == 1``), so equal sums read equal fields and compare equal.

    The sum stores nonzero ``int`` numerators over one positive ``int``
    denominator each, ``_den`` and ``_cden``, that need not be minimal:
    like terms still merge by integer hashing and adding whenever they
    share those denominators, which is all integration needs.  The
    constructor takes this stored form, checks it and reduces it; an
    integration result keeps the form it was built in, is reduced in place
    by :meth:`_settle` on its first field read or comparison, and
    :meth:`as_constant` reduces it once, to a ``Fraction``.  Log factors
    only ever appear through integration against monomial bounds; the
    all-zero ``logs`` tuple is the plain fractional-power case.
    """

    __slots__ = ("nvars", "_den", "_cden", "_terms", "_minimal")

    def __init__(self, nvars: int, terms: Mapping[tuple[tuple[int, ...], tuple[int, ...]], int],
                 den: int = 1, cden: int = 1):
        _check_ints("nvars", (nvars,))
        _check_ints("denominator", (den, cden))
        if den < 1 or cden < 1:
            raise ValueError("denominators must be positive")
        for (exps, logs), coef in terms.items():
            if len(exps) != nvars or len(logs) != nvars:
                raise ValueError("term key length disagrees with nvars")
            _check_ints("exponent", exps)
            _check_ints("log power", logs)
            if any(p < 0 for p in logs):
                raise ValueError("log powers must be nonnegative")
            _check_ints("coefficient", (coef,))
        self.nvars, self._den, self._cden, self._minimal = nvars, den, cden, False
        self._terms = {key: c for key, c in terms.items() if c}
        self._settle()

    @staticmethod
    def _raw(nvars: int, terms: dict, den: int = 1, cden: int = 1) -> "FracExpSum":
        """A sum holding ``terms`` over ``den`` and ``cden`` as they are: already checked, merged and nonzero."""
        out = FracExpSum.__new__(FracExpSum)
        out.nvars, out._den, out._cden, out._terms, out._minimal = nvars, den, cden, terms, False
        return out

    def _settle(self) -> "FracExpSum":
        """Reduce the stored form to the minimal one, in place, once; return the sum."""
        if self._minimal:
            return self
        den, cden, terms = self._den, self._cden, self._terms
        if den > 1:
            g = math.gcd(den, *(e for exps, _ in terms for e in exps))
            if g > 1:
                den //= g
                terms = {(tuple(e // g for e in exps), logs): c for (exps, logs), c in terms.items()}
        if cden > 1:
            g = math.gcd(cden, *terms.values())
            if g > 1:
                cden //= g
                terms = {key: c // g for key, c in terms.items()}
        self._den, self._cden, self._terms, self._minimal = den, cden, terms, True
        return self

    @property
    def den(self) -> int:
        """The minimal exponent denominator."""
        return self._settle()._den

    @property
    def cden(self) -> int:
        """The minimal coefficient denominator."""
        return self._settle()._cden

    @property
    def terms(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
        """The numerators over the minimal ``den`` and ``cden``, keyed by ``(exps, logs)``."""
        return self._settle()._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FracExpSum):
            return NotImplemented
        a, b = self._settle(), other._settle()
        return (a.nvars == b.nvars and a._den == b._den
                and a._cden == b._cden and a._terms == b._terms)

    def as_constant(self) -> Fraction:
        """The value of a variable-free sum; errors if any variable remains.

        Sums the stored numerators and reduces once, over the stored ``cden``.
        """
        total = 0
        for (exps, logs), c in self._terms.items():
            if any(exps) or any(logs):
                raise ValueError("sum still depends on a variable")
            total += c
        return Fraction(total, self._cden)


def _times_log_power(logs: tuple[int, ...], support: list[tuple[int, int]], r: int) -> dict:
    """``prod log(1/t_j)^{logs_j} * (sum_j b_j log(1/t_j))^r`` as ``{log powers: int}``.

    ``support`` lists the pairs ``(j, b_j)`` with ``b_j != 0``.
    """
    out = {logs: 1}
    for _ in range(r):
        nxt: dict[tuple[int, ...], int] = {}
        for lvec, m in out.items():
            for j, b in support:
                key = lvec[:j] + (lvec[j] + 1,) + lvec[j + 1:]
                nxt[key] = nxt.get(key, 0) + m * b
        out = nxt
    return out


def integrate_one_var(
    f: FracExpSum,
    var: int,
    lower: tuple[Sequence[int], int] | None,
) -> FracExpSum:
    """Definite integral of ``f`` in ``t_var`` from a monomial bound up to 1.

    ``lower`` is ``None`` for a zero lower bound, or a pair ``(exps, bden)``
    of ``int`` numerators and a positive ``int`` denominator: the monomial
    ``prod_j t_j^(exps[j] / bden)`` in the *other* variables (``exps[var]
    == 0``).  The result no longer depends on ``t_var``.

    One pass over ``f``'s terms writes ``F(1) - F(lower)`` into one dict,
    ``F`` being the antiderivative in ``t = t_var``.  A term with exponent
    ``q = e / den`` and log power ``p`` in ``t`` has

    * ``q == -1`` (``e == -den``): ``F = -log(1/t)^(p+1) / (p+1)``, which
      is 0 at ``t = 1``;
    * otherwise ``F = sum_{i=0}^{p} p!/(p-i)! * t^(q+1) * log(1/t)^(p-i) /
      (q+1)^(i+1)``, which is ``p! / (q+1)^(p+1)`` at ``t = 1``.

    At the bound, ``t^(q+1)`` adds ``(e + den) * exps[j]`` to the exponent
    numerators of the other variables on the lattice ``1/(den * bden)``,
    and ``log(1/t)`` expands as ``sum_j exps[j] / bden * log(1/t_j)``.
    Every contribution is an ``int`` numerator over its own denominator;
    all are brought to their lcm, like terms merge and zero numerators
    drop.  The step reads ``f``'s stored form and writes the result's
    (see :class:`FracExpSum`): no denominator is reduced here, so a chain
    of steps reduces once, when its result is first read.

    With a zero lower bound, ``F -> 0`` as ``t -> 0`` for every term with
    ``q > -1``, and the integral diverges if some term of ``f`` has ``q <=
    -1`` (``e <= -den``).  Reading ``f``'s merged terms is equivalent to
    reading the antiderivative's: the terms of ``f`` that share ``q`` and
    the factors in the other variables map to terms of ``F`` with exponent
    ``q + 1`` and the same factors, which no other such group produces, and
    the group's highest log power ``p`` gives ``F`` a term (log power ``p``,
    or ``p + 1`` when ``q == -1``) that no other term of the group reaches.
    So ``F`` keeps a term that blows up at 0 exactly when ``f`` has a term
    with ``q <= -1``, and since distinct ``t^q log(1/t)^p`` scales are
    linearly independent as ``t -> 0``, the divergence is genuine.

    Raises :class:`DivergentIntegral` for such a term under a zero lower
    bound, ``TypeError`` for a bound entry that is not an ``int``, and
    ``ValueError`` for a bad variable index or a malformed bound.
    """
    n = f.nvars
    if not 0 <= var < n:
        raise ValueError(f"variable index {var} out of range")
    den = f._den
    # (key, numerator, denominator) of each contribution to F(1) - F(lower)
    parts = []
    if lower is None:
        for (exps, logs), c in f._terms.items():
            e, p = exps[var], logs[var]
            s = e + den  # (q + 1) * den
            if s <= 0:
                raise DivergentIntegral(
                    f"integrand term with exponent {Fraction(e, den)} and log power {p} "
                    f"in t_{var} is not integrable at 0"
                )
            exps = exps[:var] + (0,) + exps[var + 1:]
            if not p:
                parts.append(((exps, logs), c * den, s))
                continue
            key = (exps, logs[:var] + (0,) + logs[var + 1:])
            parts.append((key, c * math.factorial(p) * den ** (p + 1), s ** (p + 1)))
        return _summed(n, parts, den, f._cden)
    bexps, bden = lower
    if len(bexps) != n:
        raise ValueError("bound length disagrees with nvars")
    _check_ints("bound", (*bexps, bden))
    if bexps[var]:
        raise ValueError("a bound may not involve the variable it replaces")
    if bden < 1:
        raise ValueError("a bound's denominator must be positive")
    support = [(j, b) for j, b in enumerate(bexps) if b]
    for (exps, logs), c in f._terms.items():
        e, p = exps[var], logs[var]
        s = e + den
        base = [x * bden for x in exps]
        base[var] = 0
        if not p:
            # the p == 0 case of the general path below, with its unit factorials,
            # powers and single-step log expansion written out
            if not s:
                key = tuple(base)
                for j, b in support:
                    parts.append(((key, logs[:j] + (logs[j] + 1,) + logs[j + 1:]), c * b, bden))
                continue
            weight = c * den
            parts.append(((tuple(base), logs), weight, s))
            for j, b in support:
                base[j] += s * b
            parts.append(((tuple(base), logs), -weight, s))
            continue
        logs = logs[:var] + (0,) + logs[var + 1:]
        if not s:
            # -F(lower) = log(1/lower)^(p+1) / (p+1) = (sum_j b_j log(1/t_j))^(p+1) / ((p+1) bden^(p+1))
            key, d = tuple(base), (p + 1) * bden ** (p + 1)
            for lvec, m in _times_log_power(logs, support, p + 1).items():
                parts.append(((key, lvec), c * m, d))
            continue
        parts.append(((tuple(base), logs), c * math.factorial(p) * den ** (p + 1), s ** (p + 1)))
        for j, b in support:
            base[j] += s * b
        low = tuple(base)
        # -F(lower): term i carries p!/(p-i)! den^(i+1) / (s^(i+1) bden^(p-i)) and log power p - i
        weight = -c
        for i in range(p + 1):
            weight *= den
            d = s ** (i + 1) * bden ** (p - i)
            for lvec, m in _times_log_power(logs, support, p - i).items():
                parts.append(((low, lvec), weight * m, d))
            weight *= p - i
    return _summed(n, parts, den * bden, f._cden)


def _summed(nvars: int, parts: list, den: int, cden: int) -> FracExpSum:
    """The contributions ``(key, numerator, denominator)`` over ``cden`` as one sum.

    Each numerator is brought to the lcm of the denominators, like keys
    merge and zero numerators drop, so a cancelled term cannot reach a
    later step; neither denominator is reduced.  The parts are built from
    a checked sum and bound, so nothing is checked again.
    """
    common = math.lcm(*[d for _, _, d in parts])
    terms: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for key, num, d in parts:
        terms[key] = terms.get(key, 0) + num * (common // d)
    return FracExpSum._raw(nvars, {key: c for key, c in terms.items() if c}, den, cden * common)


# ---------------------------------------------------------------------------
# LaurentChunk
# ---------------------------------------------------------------------------


class LaurentChunk:
    """Exact Laurent coefficients on a finite box of integer exponents.

    ``box`` is a tuple of inclusive ``(lo, hi)`` ranges, one per variable.
    Inside the box every coefficient is known exactly (absent means zero);
    outside it nothing is known, and :meth:`coefficient` refuses to guess.
    The window holds kernel coefficients of ``H(k)`` in ``n`` variables, so
    an overall ``1/pi**n`` prefactor keeps the table rational:
    :attr:`pi_power` is :attr:`nvars`, the length of the box.  The box has
    at least one range, the last axis that rows run along.

    The window is stored row-major, as the series routes compute it:
    :attr:`rows` maps each lead ``(a_1, ..., a_{n-1})`` that has a nonzero
    value to the list of its values along the last axis, ``lo`` to ``hi``,
    zeros included; a lead with no entry is a row of zeros.  :attr:`terms`
    is a live view of the nonzero values keyed by exponent tuple, read from
    and written to the rows.  The constructor's ``terms`` are written
    through that view, so a key is checked in one place, ``_position``,
    whichever way it comes in: a wrong length is a ``ValueError``, a
    non-``int`` entry a ``TypeError`` and a key outside the box
    :class:`OutsideWindow`.

    Values are exact: an ``int`` when integral, a reduced ``Fraction``
    otherwise (both go through :func:`_exact_ratio`).  Anything else,
    a float or a ``bool`` included, is a ``TypeError``.
    """

    __slots__ = ("box", "rows")

    def __init__(
        self, box: Sequence[tuple[int, int]], terms: Mapping[tuple[int, ...], int | Fraction] | None = None
    ):
        box = tuple((lo, hi) for lo, hi in box)
        if not box:
            raise ValueError("a window needs at least one range")
        for lo, hi in box:
            _check_ints("box", (lo, hi))
            if lo > hi:
                raise ValueError(f"empty box range ({lo}, {hi})")
        self.box = box
        self.rows: dict[tuple[int, ...], list[int | Fraction]] = {}
        if terms:
            self.terms.update(terms)

    @property
    def nvars(self) -> int:
        return len(self.box)

    @property
    def pi_power(self) -> int:
        return self.nvars

    @property
    def terms(self) -> MutableMapping[tuple[int, ...], int | Fraction]:
        """The nonzero values by exponent tuple, a live view of :attr:`rows`."""
        return _Terms(self)

    def _position(self, alpha: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """``(lead, i)``: the exponent ``alpha`` is entry ``i`` of the row ``lead``; outside the box is refused."""
        exps = tuple(alpha)
        if len(exps) != self.nvars:
            raise ValueError(f"exponent {exps} has {len(exps)} entries for a box of {self.nvars} ranges")
        _check_ints("exponent", exps)
        if not all(lo <= e <= hi for e, (lo, hi) in zip(exps, self.box)):
            raise OutsideWindow(f"exponent {exps} outside trusted box {self.box}")
        return exps[:-1], exps[-1] - self.box[-1][0]

    def _put(self, lead: tuple[int, ...], i: int, value: int | Fraction) -> None:
        """Store an exact ``value`` at entry ``i`` of the row ``lead``; a row left all zeros is dropped."""
        row = self.rows.get(lead)
        if row is None:
            if not value:
                return
            lo, hi = self.box[-1]
            row = self.rows[lead] = [0] * (hi - lo + 1)
        row[i] = value
        if not value and not any(row):
            del self.rows[lead]

    def coefficient(self, alpha: Sequence[int]) -> int | Fraction:
        lead, i = self._position(alpha)
        row = self.rows.get(lead)
        return 0 if row is None else row[i]

    def permuted(self, perm: Sequence[int]) -> "LaurentChunk":
        """The same window with relabelled variables: new variable ``i`` is old variable ``perm[i]``.

        The values are already checked and move as they are.  When the last
        axis stays last, each row moves whole to its relabelled lead.
        Otherwise the new last axis is an old lead coordinate ``j``: the old
        rows that differ only in ``j`` stack, in the order of ``j``, into a
        matrix whose columns are the new rows.  :func:`_check_permutation` checks ``perm``.
        """
        n = self.nvars
        _check_permutation(perm, n)
        out = LaurentChunk([self.box[p] for p in perm])
        if perm[-1] == n - 1:
            rows = {tuple(lead[p] for p in perm[:-1]): list(row) for lead, row in self.rows.items()}
        else:
            j, m = perm[-1], perm.index(n - 1)  # old last axis -> new lead position m
            stacks: dict[tuple, dict[int, list]] = {}
            for lead, row in self.rows.items():
                key = (tuple(lead[p] for p in perm[:m]), tuple(lead[p] for p in perm[m + 1:-1]))
                stacks.setdefault(key, {})[lead[j]] = row
            (lo, hi), (jlo, jhi) = self.box[-1], self.box[j]
            zeros = [0] * (hi - lo + 1)
            rows = {}
            for (before, after), by_j in stacks.items():
                matrix = [by_j.get(y, zeros) for y in range(jlo, jhi + 1)]
                for x, column in zip(range(lo, hi + 1), zip(*matrix)):
                    if any(column):
                        rows[(*before, x, *after)] = list(column)
        out.rows = dict(sorted(rows.items()))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentChunk):
            return NotImplemented
        return self.box == other.box and self.rows == other.rows

    # -- serialization -------------------------------------------------------

    def csv_rows(self) -> Iterator[str]:
        """One row per box point (zeros included): ``a_1,...,a_n,coefficient``.

        Rows come in lexicographic order of the exponents.  The last-axis fields
        ``"x,"`` are formatted once and zipped with each stored row's values;
        a row of zeros takes fields already ending in ``0``.  The leading
        ``a_1,...,a_{n-1},`` is formatted once per row.
        """
        *lead, (lo, hi) = self.box
        tails = [f"{x}," for x in range(lo, hi + 1)]
        zeros = [tail + "0" for tail in tails]
        get = self.rows.get
        for prefix in _cartesian(*(range(a, b + 1) for a, b in lead)):
            head = "".join(f"{a}," for a in prefix)
            row = get(prefix)
            if row is None:
                yield from [head + zero for zero in zeros]
            else:
                yield from [head + tail + str(value) for tail, value in zip(tails, row)]

    def to_json_dict(self) -> dict:
        lo = self.box[-1][0]
        return {
            "pi_power": self.pi_power,
            "box": [[lo, hi] for lo, hi in self.box],
            "coefficients": [
                {"exp": [*lead, x], "coef": str(coef)}
                for lead in sorted(self.rows)
                for x, coef in enumerate(self.rows[lead], lo) if coef
            ],
        }

    def __repr__(self) -> str:
        return f"LaurentChunk(box={self.box}, {len(self.terms)} nonzero)"


class _Terms(MutableMapping):
    """The nonzero values of a :class:`LaurentChunk` by exponent tuple, kept in its rows.

    Iteration runs over the rows in their order and along each row, so a
    window a series route fills iterates lexicographically.  That one row
    walk is ``items``; iteration and ``values`` read it, and none of the
    three checks a key, so ``dict(chunk.terms.items())`` reads the whole
    window at row speed.
    Reading a zero or a non-exponent is a ``KeyError`` (:class:`OutsideWindow`
    outside the box); writing goes through the window's value rule, writing 0
    removes the key, and writing outside the box raises :class:`OutsideWindow`.
    """

    __slots__ = ("_chunk",)

    def __init__(self, chunk: LaurentChunk):
        self._chunk = chunk

    def __getitem__(self, alpha: tuple[int, ...]) -> int | Fraction:
        try:
            lead, i = self._chunk._position(alpha)
        except (TypeError, ValueError):
            raise KeyError(alpha) from None
        row = self._chunk.rows.get(lead)
        if row is None or not row[i]:
            raise KeyError(alpha)
        return row[i]

    def __setitem__(self, alpha: tuple[int, ...], value: int | Fraction) -> None:
        lead, i = self._chunk._position(alpha)
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"window values must be ints or Fractions, got {value!r} at {tuple(alpha)}")
        self._chunk._put(lead, i, _exact_ratio(*value.as_integer_ratio()))

    def __delitem__(self, alpha: tuple[int, ...]) -> None:
        self[alpha]  # a KeyError unless there is a value to remove
        self._chunk._put(*self._chunk._position(alpha), 0)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return (alpha for alpha, _ in self.items())

    def items(self) -> ItemsView:
        return _TermsItems(self)

    def values(self) -> ValuesView:
        return _TermsValues(self)

    def __len__(self) -> int:
        return sum(len(row) - row.count(0) for row in self._chunk.rows.values())

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _TermsItems(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], int | Fraction]]:
        chunk = self._mapping._chunk
        lo = chunk.box[-1][0]
        for lead, row in chunk.rows.items():
            yield from [((*lead, x), value) for x, value in enumerate(row, lo) if value]


class _TermsValues(ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator[int | Fraction]:
        return (value for _, value in self._mapping.items())
