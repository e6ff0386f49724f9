"""Domain specifications for elementary Reinhardt domains.

An elementary Reinhardt domain is determined by a vector ``k`` of nonzero
integer exponents with at least one positive and one negative entry::

    H(k) = { z in D^n : |z_1^{k_1} * ... * z_n^{k_n}| < 1 },

where ``D^n`` is the unit polydisc and coordinates with negative exponents
are implicitly nonzero.  The prototype is the Hartogs triangle ``H(1, -1)``.
Two exponent vectors cut out the same domain when they agree up to a
positive rational multiple and a reordering of coordinates, so every vector
is normalized here to a canonical representative: positive entries first
(input order preserved inside each sign block) and the entries divided by
the gcd of their absolute values.  A spec is that representative alone, so
``(2, -1)`` and ``(-1, 2)`` give equal specs; a caller that works in its
own coordinate order (the CLI) moves its per-coordinate values with
:func:`normal_order`.

The *signature* ``s`` is the number of positive entries.  When every entry
is ``+1`` or ``-1`` the domain is called a *model domain*, written
``Omega(n, s)``; general domains are rational images of their model via the
standard proper monomial map ``z -> (z_a ** ell_a)`` whose exponents come
from :func:`lcm_data`.

The *shadow* of ``H(k)`` is its image under ``z -> (|z_1|^2, ..., |z_n|^2)``
intersected with the open unit cube: the set of ``t in (0,1)^n`` with
``prod(t_a^{k_a}, a <= s) < prod(t_b^{|k_b|}, b > s)``.  Integrals over the
domain reduce to integrals over the shadow (:mod:`reinhardt.shadow`), and
the Monte-Carlo sampler draws from it (:mod:`reinhardt.sampling`).

:class:`NormValue` is the exact result type of every monomial norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exact import _check_ints


def shifted(alpha: Sequence[int]) -> tuple[int, ...]:
    """The ubiquitous ``beta = alpha + 1``, entrywise.

    Raises ``TypeError`` for an entry that is not an ``int``.
    """
    _check_ints("exponent", alpha)
    return tuple(a + 1 for a in alpha)


@dataclass(frozen=True)
class DomainSpec:
    """A normalized exponent vector ``k`` together with its signature.

    Instances should be built through :func:`normalize_spec`, which sorts
    the positive entries ahead of the negative ones and divides out the
    gcd; the constructor enforces that the data is already in this shape.
    It is also the one home of the rules every exponent vector obeys:
    ``int`` entries (a ``float`` or ``bool`` is a ``TypeError``), at least
    two of them, none zero, and both signs present.  ``k`` is stored as a
    tuple, so a spec built from a list hashes and compares like one built
    from a tuple; equality and hash come from ``k`` alone.
    The signature ``s`` is the number of positive entries of ``k``.
    """

    k: tuple[int, ...]
    s: int = field(init=False)

    def __post_init__(self) -> None:
        k = tuple(self.k)
        _check_ints("exponent", k)
        object.__setattr__(self, "k", k)
        if len(k) < 2:
            raise ValueError("an exponent vector needs at least two entries")
        if 0 in k:
            raise ValueError("exponent entries must be nonzero")
        s = sum(e > 0 for e in k)
        if s == 0 or s == len(k):
            raise ValueError("exponents must mix signs (at least one positive and one negative)")
        object.__setattr__(self, "s", s)
        if min(k[:s]) < 0 or max(k[s:]) > 0:
            raise ValueError("normalized exponents must list positive entries first")
        if math.gcd(*k) != 1:
            raise ValueError("normalized exponents must have gcd 1")

    @property
    def n(self) -> int:
        return len(self.k)

    @property
    def abs_k(self) -> tuple[int, ...]:
        return tuple(abs(e) for e in self.k)

    @property
    def is_model(self) -> bool:
        """True when every entry is ±1 (the model domain Omega(n, s))."""
        return all(abs(e) == 1 for e in self.k)

    def __str__(self) -> str:
        return f"H({', '.join(str(e) for e in self.k)})"


def normal_order(entries: Sequence[int]) -> tuple[int, ...]:
    """The input positions of ``entries`` in normalized order.

    Positive entries come first, then the rest; input order is kept inside
    each block, e.g. ``(-3, 6, -9) -> (1, 0, 2)``.
    """
    return tuple([i for i, e in enumerate(entries) if e > 0] + [i for i, e in enumerate(entries) if e <= 0])


def normalize_spec(entries: Sequence[int]) -> DomainSpec:
    """Normalize a raw exponent vector to its canonical :class:`DomainSpec`.

    The entries are put in :func:`normal_order` and the whole vector is
    divided by the gcd of the absolute values, e.g. ``(-2, 4) -> (2, -1)``.

    Raises ``TypeError`` for a non-``int`` entry.  The vector's own rules
    live in :class:`DomainSpec`, which raises ``ValueError`` for fewer than
    two entries, a zero entry, or entries of only one sign.
    """
    values = list(entries)
    _check_ints("exponent", values)
    g = math.gcd(*values) or 1
    return DomainSpec(k=tuple([values[i] // g for i in normal_order(values)]))


def model_spec(n: int, s: int) -> DomainSpec:
    """The model domain Omega(n, s) as a spec: s entries +1, then n-s entries -1."""
    return DomainSpec(k=(1,) * s + (-1,) * (n - s))


def lcm_data(spec: DomainSpec) -> tuple[int, tuple[int, ...], int]:
    """Return ``(K, ell, L)`` for the standard proper map onto ``H(k)``.

    ``K = lcm(|k_1|, ..., |k_n|)``, ``ell_a = K / |k_a|``, and
    ``L = prod(ell_a)`` is the generic sheet count of the map
    ``z -> (z_a ** ell_a)`` from the model domain.  For example
    ``H(2, -3)`` has ``K = 6``, ``ell = (3, 2)``, ``L = 6``.
    """
    abs_k = spec.abs_k
    K = math.lcm(*abs_k)
    ell = tuple(K // a for a in abs_k)
    L = math.prod(ell)
    return K, ell, L


class NormValue:
    """The squared Bergman-space norm of a monomial: ``q * pi**p`` or infinite.

    The rational part ``coefficient`` and the power ``pi_power`` of pi are
    stored exactly; they may only be read when ``finite`` is True, which is
    when the coefficient is not None.  A coefficient is an ``int`` or a
    ``Fraction``, stored as a ``Fraction``; anything else, a float, a
    ``bool`` or a string included, is a ``TypeError``.  Build values with
    :meth:`of` and :meth:`infinite`.
    """

    __slots__ = ("_coefficient", "_pi_power")

    def __init__(self, coefficient: int | Fraction | None, pi_power: int | None):
        if coefficient is not None:
            if isinstance(coefficient, bool) or not isinstance(coefficient, (int, Fraction)):
                raise TypeError(f"norm coefficients must be ints or Fractions, got {coefficient!r}")
            if pi_power is None or coefficient <= 0:
                raise ValueError("a finite norm needs a positive rational coefficient and a pi power")
            _check_ints("pi power", (pi_power,))
            if isinstance(coefficient, int):
                coefficient = Fraction(coefficient)
        self._coefficient = coefficient
        self._pi_power = pi_power if coefficient is not None else None

    @classmethod
    def of(cls, coefficient: int | Fraction, pi_power: int) -> "NormValue":
        return cls(coefficient, pi_power)

    @classmethod
    def infinite(cls) -> "NormValue":
        return cls(None, None)

    @property
    def finite(self) -> bool:
        return self._coefficient is not None

    @property
    def coefficient(self) -> Fraction:
        if not self.finite:
            raise ValueError("an infinite norm has no coefficient")
        return self._coefficient

    @property
    def pi_power(self) -> int:
        if not self.finite:
            raise ValueError("an infinite norm has no pi power")
        return self._pi_power

    def __float__(self) -> float:
        if not self.finite:
            return math.inf
        return float(self._coefficient) * math.pi ** self._pi_power

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NormValue):
            return NotImplemented
        if not self.finite or not other.finite:
            return self.finite == other.finite
        return (self._coefficient, self._pi_power) == (other._coefficient, other._pi_power)

    def __hash__(self) -> int:
        return hash((self._coefficient, self._pi_power, self.finite))

    def __str__(self) -> str:
        if not self.finite:
            return "infinite"
        if self._pi_power == 0:
            return str(self._coefficient)
        pi = "π" if self._pi_power == 1 else f"π^{self._pi_power}"
        return f"{self._coefficient} · {pi}"

    def __repr__(self) -> str:
        if not self.finite:
            return "NormValue.infinite()"
        return f"NormValue.of({self._coefficient!r}, {self._pi_power})"
