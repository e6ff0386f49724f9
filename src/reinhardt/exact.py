"""Exact arithmetic building blocks: polynomials, fractional-power sums, windows.

Everything here computes over the rationals with no rounding:

* :class:`SparsePoly` — multivariate polynomials with ``Fraction``
  coefficients, keyed by exponent tuples.  Supports ring arithmetic,
  substitution of polynomials for variables, and exact division by a
  variable (used by recursions that are only valid when the division is
  exact).

* :class:`FracExpSum` — finite sums of terms ``c * prod(t_j^{q_j}) *
  prod(log(1/t_j)^{p_j})`` with rational ``c``, rational exponents ``q_j``
  and nonnegative integer log powers ``p_j``.  The exponents sit on a
  lattice ``(1/den) * Z``: terms are keyed by ``int`` numerators over one
  ``den`` per sum, kept minimal so that equal sums have equal keys, which
  makes merging like terms integer hashing instead of ``Fraction``
  normalisation.  This class is closed under
  the three moves iterated monomial integration needs: antidifferentiation
  in one variable, evaluation at a monomial bound (which substitutes a
  monomial for the variable, expanding ``log`` of a monomial linearly), and
  taking the limit at 0.  The log powers are essential: integrating
  ``t**-1`` against a monomial lower bound is exact via
  ``d/dt[-log(1/t)**(p+1)/(p+1)] = t**-1 * log(1/t)**p``, and
  ``∫_0^1 t^q log(1/t)^p dt = p! / (q+1)^{p+1}``.

* :class:`LaurentChunk` — a finite window of Laurent coefficients: exact
  values on a box of integer exponents, unknown outside it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as _cartesian
from typing import Iterator, Mapping, Sequence


_ZERO = Fraction(0)


class DivergentIntegral(ArithmeticError):
    """An integral with a zero lower bound diverges (exponent <= -1)."""


class OutsideWindow(KeyError):
    """A Laurent coefficient was requested outside the chunk's trusted box."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# SparsePoly
# ---------------------------------------------------------------------------


class SparsePoly:
    """A multivariate polynomial over Q, stored sparsely.

    ``terms`` maps exponent tuples (nonnegative ints, length ``nvars``) to
    nonzero ``Fraction`` coefficients.  Instances are treated as immutable;
    all operations return new polynomials.
    """

    __slots__ = ("nvars", "terms", "_int_form")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.nvars = int(nvars)
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coef in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.nvars:
                    raise ValueError(f"exponent tuple {exps} has length != {self.nvars}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}; use LaurentChunk for Laurent data")
                c = _frac(coef)
                if c:
                    clean[exps] = clean.get(exps, Fraction(0)) + c
                    if not clean[exps]:
                        del clean[exps]
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: _frac(c)})

    @classmethod
    def one(cls, nvars: int) -> "SparsePoly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "SparsePoly":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coef=1) -> "SparsePoly":
        return cls(nvars, {tuple(exps): _frac(coef)})

    @classmethod
    def linear_form(cls, nvars: int, coeffs: Mapping[int, int | Fraction], const=0) -> "SparsePoly":
        """``const + sum(coeffs[i] * x_i)``."""
        terms: dict[tuple[int, ...], Fraction] = {}
        if const:
            terms[(0,) * nvars] = _frac(const)
        for i, c in coeffs.items():
            exps = [0] * nvars
            exps[i] = 1
            terms[tuple(exps)] = _frac(c)
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
            acc = terms.get(exps, Fraction(0)) + coef
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        out = SparsePoly.__new__(SparsePoly)
        out.nvars, out.terms = self.nvars, terms
        return out

    def __neg__(self) -> "SparsePoly":
        out = SparsePoly.__new__(SparsePoly)
        out.nvars = self.nvars
        out.terms = {exps: -coef for exps, coef in self.terms.items()}
        return out

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, SparsePoly):
            self._check(other)
            terms: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    exps = tuple(a + b for a, b in zip(e1, e2))
                    acc = terms.get(exps, Fraction(0)) + c1 * c2
                    if acc:
                        terms[exps] = acc
                    else:
                        terms.pop(exps, None)
            out = SparsePoly.__new__(SparsePoly)
            out.nvars, out.terms = self.nvars, terms
            return out
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if not c:
                return SparsePoly.zero(self.nvars)
            out = SparsePoly.__new__(SparsePoly)
            out.nvars = self.nvars
            out.terms = {exps: coef * c for exps, coef in self.terms.items()}
            return out
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

    def is_zero(self) -> bool:
        return not self.terms

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

    def content(self) -> Fraction:
        """gcd of the coefficients (positive; 0 for the zero polynomial)."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, c.numerator)
            den = math.lcm(den, c.denominator)
        return Fraction(num, den)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items())

    # -- evaluation and substitution ----------------------------------------

    def _integer_form(self) -> tuple[int, list[tuple[int, tuple[tuple[int, int], ...]]]]:
        """``(L, [(L * coef, ((var, exp), ...)), ...])``: the terms as integers over ``L``.

        ``L`` is the common denominator of the coefficients and each term
        keeps only its nonzero ``(var, exp)`` factors.  Built on first use
        and kept, since instances are immutable.
        """
        try:
            return self._int_form
        except AttributeError:
            pass
        L = math.lcm(*(c.denominator for c in self.terms.values()))
        form = (L, [
            (c.numerator * (L // c.denominator),
             tuple((i, e) for i, e in enumerate(exps) if e))
            for exps, c in self.terms.items()
        ])
        self._int_form = form
        return form

    def evaluate(self, values: Sequence):
        """Evaluate at a point; exact for int/Fraction input, numeric otherwise.

        At an all-``int`` point the sum runs in integers over the common
        coefficient denominator and one exact ``Fraction`` is built at the
        end.  ``Fraction`` coordinates take the term-by-term ``Fraction``
        route and float or complex coordinates the numeric one.
        """
        if len(values) != self.nvars:
            raise ValueError(f"point has length {len(values)}, expected {self.nvars}")
        if all(isinstance(v, int) for v in values):
            L, terms = self._integer_form()
            acc = 0
            for num, factors in terms:
                for i, e in factors:
                    num *= values[i] ** e
                acc += num
            return Fraction(acc, L)
        exact = all(isinstance(v, (int, Fraction)) for v in values)
        total = Fraction(0) if exact else 0.0
        for exps, coef in self.terms.items():
            term = coef if exact else float(coef)
            for value, e in zip(values, exps):
                if e:
                    term = term * value ** e
            total = total + term
        return total

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

        total = SparsePoly.zero(self.nvars)
        for exps, coef in self.terms.items():
            term = SparsePoly.constant(self.nvars, coef)
            for i, e in enumerate(exps):
                if e:
                    term = term * var_power(i, e)
            total = total + term
        return total

    def divide_exact_by_var(self, index: int) -> "SparsePoly":
        """Divide by ``x_index``, requiring every term to contain it."""
        terms: dict[tuple[int, ...], Fraction] = {}
        for exps, coef in self.terms.items():
            if exps[index] == 0:
                raise ArithmeticError(
                    f"division by variable {index} is not exact: term {exps} has no factor"
                )
            new = list(exps)
            new[index] -= 1
            terms[tuple(new)] = coef
        out = SparsePoly.__new__(SparsePoly)
        out.nvars, out.terms = self.nvars, terms
        return out

    def extended(self, nvars: int) -> "SparsePoly":
        """The same polynomial viewed in a larger variable ring."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink the variable ring")
        pad = (0,) * (nvars - self.nvars)
        return SparsePoly(nvars, {exps + pad: coef for exps, coef in self.terms.items()})

    def permuted(self, perm: Sequence[int]) -> "SparsePoly":
        """Relabel variables: new variable ``i`` is old variable ``perm[i]``."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("perm must be a permutation of the variables")
        terms = {}
        for exps, coef in self.terms.items():
            terms[tuple(exps[perm[i]] for i in range(self.nvars))] = coef
        return SparsePoly(self.nvars, terms)

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

def _put(terms: dict, key, coef: Fraction) -> None:
    """Add the nonzero ``coef`` at ``key``, dropping the key if the sum cancels."""
    old = terms.get(key)
    if old is None:
        terms[key] = coef
    else:
        acc = old + coef
        if acc:
            terms[key] = acc
        else:
            del terms[key]


class FracExpSum:
    """A finite sum ``sum c * prod t_j^{q_j} * prod log(1/t_j)^{p_j}``.

    Exponents live on the lattice ``(1/den) * Z``.  Keys are ``(exps,
    logs)`` pairs of ``int`` tuples: ``q_j = exps[j] / den``, and ``logs``
    holds the nonnegative powers of ``log(1/t_j)``.  ``den`` is kept
    minimal, ``gcd(den, *exps of every key) == 1`` (the empty sum has
    ``den == 1``), so equal sums have equal keys and compare equal.
    Coefficients are nonzero ``Fraction``s.  The constructor and
    :meth:`monomial` take ``Fraction`` or ``int`` exponents and start on
    the lcm of their denominators.  Log factors only ever appear through
    integration against monomial bounds; the all-zero ``logs`` tuple is the
    plain fractional-power case.
    """

    __slots__ = ("nvars", "den", "terms")

    def __init__(
        self,
        nvars: int,
        terms: Mapping[tuple[Sequence, Sequence[int]], Fraction] | None = None,
    ):
        self.nvars = int(nvars)
        rows = []
        if terms:
            for (exps, logs), coef in terms.items():
                exps = tuple(_frac(q) for q in exps)
                logs = tuple(int(p) for p in logs)
                if len(exps) != self.nvars or len(logs) != self.nvars:
                    raise ValueError("term key length disagrees with nvars")
                if any(p < 0 for p in logs):
                    raise ValueError("log powers must be nonnegative")
                c = _frac(coef)
                if c:
                    rows.append((exps, logs, c))
        den = math.lcm(1, *(q.denominator for exps, _, _ in rows for q in exps))
        clean: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}
        for exps, logs, c in rows:
            _put(clean, (tuple(q.numerator * (den // q.denominator) for q in exps), logs), c)
        self._settle(den, clean)

    def _settle(self, den: int, terms: dict) -> "FracExpSum":
        """Store ``terms`` (numerators over ``den``) on the minimal lattice."""
        g = math.gcd(den, *(e for exps, _ in terms for e in exps)) if den > 1 else 1
        if g > 1:
            den //= g
            terms = {(tuple(e // g for e in exps), logs): c for (exps, logs), c in terms.items()}
        self.den, self.terms = den, terms
        return self

    @classmethod
    def _on_lattice(cls, nvars: int, den: int, terms: dict) -> "FracExpSum":
        out = cls.__new__(cls)
        out.nvars = nvars
        return out._settle(den, terms)

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence, coef=1) -> "FracExpSum":
        return cls(nvars, {(tuple(exps), (0,) * nvars): coef})

    def _check(self, other: "FracExpSum") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def _lifted(self, den: int) -> dict:
        """The terms as numerators over ``den``, a multiple of ``self.den``."""
        m = den // self.den
        if m == 1:
            return self.terms
        return {(tuple(e * m for e in exps), logs): c for (exps, logs), c in self.terms.items()}

    def _combine(self, other: "FracExpSum", sign: int) -> "FracExpSum":
        self._check(other)
        den = math.lcm(self.den, other.den)
        terms = dict(self._lifted(den))
        for key, coef in other._lifted(den).items():
            _put(terms, key, coef if sign > 0 else -coef)
        return FracExpSum._on_lattice(self.nvars, den, terms)

    def __add__(self, other: "FracExpSum") -> "FracExpSum":
        if not isinstance(other, FracExpSum):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "FracExpSum") -> "FracExpSum":
        if not isinstance(other, FracExpSum):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "FracExpSum":
        return FracExpSum._on_lattice(self.nvars, self.den, {key: -coef for key, coef in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FracExpSum):
            return NotImplemented
        return self.nvars == other.nvars and self.den == other.den and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def as_constant(self) -> Fraction:
        """The value of a variable-free sum; errors if any variable remains."""
        total = Fraction(0)
        for (exps, logs), coef in self.terms.items():
            if any(exps) or any(logs):
                raise ValueError("sum still depends on a variable")
            total += coef
        return total

    # -- substitution of monomial bounds -------------------------------------

    def substitute_monomial(self, var: int, bound: Sequence) -> "FracExpSum":
        """Replace ``t_var`` by the monomial ``prod t_j^{bound_j}`` exactly.

        The bound must not involve ``t_var`` itself.  Power factors push the
        bound's exponents onto the other variables; each log factor expands
        as ``log(1/t_var) -> sum bound_j * log(1/t_j)``.  A bound whose
        exponents have common denominator ``bden`` moves the sum onto the
        lattice ``1/(den * bden)``, which is then reduced.
        """
        bound = tuple(b if isinstance(b, (int, Fraction)) else Fraction(b) for b in bound)
        if len(bound) != self.nvars:
            raise ValueError("bound length disagrees with nvars")
        if bound[var]:
            raise ValueError("a bound may not involve the variable it replaces")
        bden = math.lcm(*(b.denominator for b in bound))
        support = [(j, b, b.numerator * (bden // b.denominator)) for j, b in enumerate(bound) if b]
        terms: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}
        for (exps, logs), coef in self.terms.items():
            e, p = exps[var], logs[var]
            base = [x * bden for x in exps] if bden > 1 else list(exps)
            base[var] = 0
            if e:
                for j, _, num in support:
                    base[j] += e * num
            base_exps = tuple(base)
            if not p:
                _put(terms, (base_exps, logs), coef)
                continue
            # expand (sum_j bound_j * log(1/t_j)) ** p multinomially
            expansion = {logs[:var] + (0,) + logs[var + 1:]: coef}
            for _ in range(p):
                nxt: dict[tuple[int, ...], Fraction] = {}
                for lvec, c in expansion.items():
                    for j, b, _ in support:
                        _put(nxt, lvec[:j] + (lvec[j] + 1,) + lvec[j + 1:], c * b)
                expansion = nxt
            for lvec, c in expansion.items():
                _put(terms, (base_exps, lvec), c)
        return FracExpSum._on_lattice(self.nvars, self.den * bden, terms)

    def limit_at_zero(self, var: int) -> "FracExpSum":
        """The limit as ``t_var -> 0+``; errors if any term blows up.

        Distinct ``t^q log(1/t)^p`` scales are linearly independent as
        ``t -> 0``, so after like terms merge, divergence of any surviving
        term with ``q < 0``, or ``q == 0 < p``, is genuine and raises
        :class:`DivergentIntegral`.  Terms with ``q > 0`` vanish (powers
        beat logs) and terms free of the variable pass through.  The sign
        of ``q`` is the sign of its numerator.
        """
        terms = {}
        for key, coef in self.terms.items():
            e, p = key[0][var], key[1][var]
            if e > 0:
                continue
            if e < 0 or p > 0:
                raise DivergentIntegral(
                    f"term with exponent {Fraction(e, self.den)} and log power {p} diverges as t_{var} -> 0"
                )
            terms[key] = coef
        return FracExpSum._on_lattice(self.nvars, self.den, terms)

    # -- integration ---------------------------------------------------------

    def antiderivative(self, var: int) -> "FracExpSum":
        """An exact antiderivative in ``t_var`` (defined up to a constant).

        With ``q = e / den``, ``q == -1`` is ``e == -den`` and ``1/(q+1)`` is
        ``den / (e + den)``.
        """
        den = self.den
        terms: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}
        for (exps, logs), coef in self.terms.items():
            e, p = exps[var], logs[var]
            if e == -den:
                # ∫ t^-1 log(1/t)^p dt = -log(1/t)^(p+1) / (p+1)
                key = (exps[:var] + (0,) + exps[var + 1:], logs[:var] + (p + 1,) + logs[var + 1:])
                _put(terms, key, -coef / (p + 1))
                continue
            # ∫ t^q log(1/t)^p dt = sum_{i=0}^{p} p!/(p-i)! * t^{q+1} log(1/t)^{p-i} / (q+1)^{i+1}
            new_exps = exps[:var] + (e + den,) + exps[var + 1:]
            inverse = Fraction(den, e + den)
            if not p:
                _put(terms, (new_exps, logs), coef * inverse)
                continue
            factor = coef
            for i in range(p + 1):
                factor *= inverse
                _put(terms, (new_exps, logs[:var] + (p - i,) + logs[var + 1:]), factor)
                factor *= p - i
        return FracExpSum._on_lattice(self.nvars, den, terms)


def integrate_one_var(f: FracExpSum, var: int, lower) -> FracExpSum:
    """Definite integral of ``f`` in ``t_var`` from a monomial bound up to 1.

    ``lower`` is an exponent vector describing a monomial in the *other*
    variables, or ``None`` for a zero lower bound.  The result no longer
    depends on ``t_var``.

    Raises :class:`DivergentIntegral` when the lower bound is 0 and the
    integrand carries a term with exponent <= -1 in ``t_var`` (after like
    terms merge), and ``ValueError`` for malformed bounds.
    """
    if not 0 <= var < f.nvars:
        raise ValueError(f"variable index {var} out of range")
    F = f.antiderivative(var)
    top = F.substitute_monomial(var, (0,) * f.nvars)
    if lower is None:
        bottom = F.limit_at_zero(var)
    else:
        bottom = F.substitute_monomial(var, lower)
    return top - bottom


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
    :attr:`pi_power` is :attr:`nvars`, the length of the box.
    """

    __slots__ = ("box", "terms")

    def __init__(self, box: Sequence[tuple[int, int]], terms: Mapping[tuple[int, ...], Fraction] | None = None):
        box = tuple((int(lo), int(hi)) for lo, hi in box)
        for lo, hi in box:
            if lo > hi:
                raise ValueError(f"empty box range ({lo}, {hi})")
        self.box = box
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coef in terms.items():
                exps = tuple(int(e) for e in exps)
                if not self._inside(exps):
                    raise ValueError(f"exponent {exps} lies outside the box {self.box}")
                c = _frac(coef)
                if c:
                    clean[exps] = c
        self.terms = clean

    @property
    def nvars(self) -> int:
        return len(self.box)

    @property
    def pi_power(self) -> int:
        return self.nvars

    def _inside(self, exps: tuple[int, ...]) -> bool:
        return all(lo <= e <= hi for e, (lo, hi) in zip(exps, self.box))

    def coefficient(self, alpha: Sequence[int]) -> Fraction:
        exps = tuple(int(a) for a in alpha)
        if len(exps) != self.nvars:
            raise ValueError("exponent length disagrees with nvars")
        if not self._inside(exps):
            raise OutsideWindow(f"exponent {exps} outside trusted box {self.box}")
        return self.terms.get(exps, Fraction(0))

    def box_points(self) -> Iterator[tuple[int, ...]]:
        """All exponents in the box, lexicographically."""
        return _cartesian(*(range(lo, hi + 1) for lo, hi in self.box))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentChunk):
            return NotImplemented
        return self.box == other.box and self.terms == other.terms

    def shifted(self, delta: Sequence[int]) -> "LaurentChunk":
        """Multiply by the monomial ``x**delta``: window and exponents translate."""
        delta = tuple(int(d) for d in delta)
        if len(delta) != self.nvars:
            raise ValueError("shift length disagrees with nvars")
        moved = LaurentChunk(tuple((lo + d, hi + d) for (lo, hi), d in zip(self.box, delta)))
        # the translated terms lie in the translated box and are already clean
        moved.terms = {tuple(e + d for e, d in zip(exps, delta)): coef for exps, coef in self.terms.items()}
        return moved

    # -- serialization -------------------------------------------------------

    def csv_rows(self) -> Iterator[str]:
        """One row per box point (zeros included): ``a_1,...,a_n,coefficient``."""
        terms = self.terms
        for exps in self.box_points():
            yield ",".join(map(str, exps)) + "," + str(terms.get(exps, _ZERO))

    def to_json_dict(self) -> dict:
        return {
            "pi_power": self.pi_power,
            "box": [[lo, hi] for lo, hi in self.box],
            "coefficients": [
                {"exp": list(exps), "coef": str(coef)}
                for exps, coef in sorted(self.terms.items())
            ],
        }

    def __repr__(self) -> str:
        return f"LaurentChunk(box={self.box}, {len(self.terms)} nonzero)"
