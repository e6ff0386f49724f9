"""Monomial norms by exact iterated integration over the shadow.

This module is the independent oracle for everything the closed forms
claim.  The squared norm of ``z**alpha`` on ``H(k)`` reduces, in polar
coordinates ``z_j = sqrt(t_j) * exp(i theta_j)``, to

    ||z**alpha||^2 = pi**n * Integral_T  t**alpha dt,

where ``T`` is the shadow ``{ t in (0,1)^n : prod_{a<=s} t_a^{k_a} <
prod_{b>s} t_b^{|k_b|} }``.  The integral is evaluated exactly as an
iterated integral of :class:`~reinhardt.exact.FracExpSum` objects:

* negative-block variables are innermost.  Nested inside the negatives
  listed before it, variable ``t_m`` ranges over ``(lower_m, 1)`` with

      lower_m = ( prod_{a<=s} t_a^{k_a} / prod_{earlier b} t_b^{|k_b|} )^{1/|k_m|},

  a monomial bound that is automatically < 1 on the open region, so each
  step is a two-point evaluation of an exact antiderivative;

* positive-block variables are outermost, each over ``(0, 1)``.  Only these
  steps can diverge, and divergence is detected structurally: a surviving
  term with exponent <= -1 (log powers allowed) cannot be cancelled by
  terms of other asymptotic scales, so the integral is genuinely infinite.

Every exponent stays on the lattice ``(1/D) * Z``, where ``D`` divides the
product of the ``|k_b|`` over the negatives integrated so far.

The nesting order of the negative block is configurable; the value is
independent of it (and of the positive-block order), which the test suite
uses as a consistency check.

:class:`ParametricShadow` runs the same nesting once per spec with
*symbolic* ``beta``, for callers that ask many points of one spec (Laurent
windows).  Exponents become affine forms in ``beta`` with rational
coefficients:

* terms.  A negative step splits each term ``c * t**q`` into an upper part
  (``t_m -> 1``) and a lower part (``t_m -> lower_m``, so
  ``q_j -> q_j + (q_m + 1) * lower_j``), both divided by the form
  ``q_m + 1``; a positive step divides by ``q_a + 1``.  The integral is a
  sum of ``2**(n - s)`` terms ``+-c / prod forms``, each form cleared to
  integer coefficients;
* chamber.  Only positive steps can diverge: the integral is finite
  exactly where every positive-step form is ``> 0``;
* epsilon-limit.  Where a negative-step form vanishes the point is
  log-degenerate and the singularity is removable: the value is the
  ``eps**0`` coefficient of the sum along ``beta + eps * d``, for a fixed
  direction ``d`` on which no form is constant, and the negative powers of
  ``eps`` must cancel.

Evaluation at a point is ``int`` arithmetic on the distinct forms and one
``Fraction`` at the end.  The per-point integrator stays the reference the
parametric route is tested against, and serves single queries, for which
building the parametric object does not pay.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .domains import DomainSpec, NormValue, shifted
from .exact import DivergentIntegral, FracExpSum, integrate_one_var


def shadow_integral_exact(
    beta: Sequence[int],
    spec: DomainSpec,
    neg_order: Sequence[int] | None = None,
) -> Fraction | None:
    """``Integral_T t**(beta - 1) dt`` as an exact rational, or None if infinite.

    ``neg_order`` lists the negative-block variable indices from outermost
    to innermost nesting (default: increasing).  It must be a permutation
    of ``range(s, n)``.
    """
    n, s = spec.n, spec.s
    if len(beta) != n:
        raise ValueError(f"beta has length {len(beta)}, expected {n}")
    if neg_order is None:
        neg_order = tuple(range(s, n))
    else:
        neg_order = tuple(neg_order)
        if sorted(neg_order) != list(range(s, n)):
            raise ValueError("neg_order must permute the negative-block indices")
    abs_k = spec.abs_k

    f = FracExpSum.monomial(n, [Fraction(b - 1) for b in beta])
    # Negative block, innermost first.
    for pos in range(len(neg_order) - 1, -1, -1):
        m = neg_order[pos]
        lower = [Fraction(0)] * n
        for a in range(s):
            lower[a] = Fraction(spec.k[a], abs_k[m])
        for b in neg_order[:pos]:
            lower[b] = Fraction(-abs_k[b], abs_k[m])
        f = integrate_one_var(f, m, lower)
    # Positive block, each over (0, 1); divergence can only surface here.
    try:
        for a in range(s - 1, -1, -1):
            f = integrate_one_var(f, a, None)
    except DivergentIntegral:
        return None
    return f.as_constant()


class ParametricShadow:
    """``beta -> Integral_T t**(beta - 1) dt`` for one spec, integrated once.

    Calling the object with an integer vector ``beta`` returns the same
    ``Fraction`` or ``None`` (infinite) as :func:`shadow_integral_exact`
    with the default nesting.  The integral is kept as

        sum over terms (C, idx) of  C / (den * prod_{i in idx} forms[i](beta)),

    where ``forms[i] = (c_0, c_1, ..., c_n)`` is the primitive integer
    affine form ``c_0 + sum_j c_j * beta_j``, ``idx`` lists form indices
    with multiplicity, and the first ``positive`` forms are the
    positive-step ones, whose signs decide finiteness.
    """

    def __init__(self, spec: DomainSpec):
        n, s = spec.n, spec.s
        abs_k = spec.abs_k
        self.n = n
        # A form is a list [c_0, c_1, ..., c_n]; the exponent of t_j starts as beta_j - 1.
        start = [[Fraction(-1)] + [Fraction(int(i == j)) for i in range(n)] for j in range(n)]
        terms = [(Fraction(1), start, [])]  # (coefficient, exponent forms, negative-step forms)
        for m in range(n - 1, s - 1, -1):
            lower = [(a, Fraction(spec.k[a], abs_k[m])) for a in range(s)]
            lower += [(b, Fraction(-abs_k[b], abs_k[m])) for b in range(s, m)]
            split = []
            for c, q, divs in terms:
                g = [q[m][0] + 1] + q[m][1:]
                low = list(q)
                for j, r in lower:
                    low[j] = [x + r * y for x, y in zip(q[j], g)]
                split.append((c, q, divs + [g]))
                split.append((-c, low, divs + [g]))
            terms = split

        # Positive-step forms ahead of the negative-step ones, each cleared
        # to a primitive integer form with its scale folded into c.
        cleared = []
        for c, q, divs in terms:
            keys = []
            for g in [[q[a][0] + 1] + q[a][1:] for a in range(s)] + divs:
                scale = math.lcm(*(x.denominator for x in g))
                ints = [int(x * scale) for x in g]
                content = math.gcd(*ints)
                c *= Fraction(scale, content)
                keys.append(tuple(x // content for x in ints))
            cleared.append((c, keys))
        index: dict[tuple[int, ...], int] = {}
        for _, keys in cleared:
            for key in keys[:s]:
                index.setdefault(key, len(index))
        self.positive = len(index)
        for _, keys in cleared:
            for key in keys[s:]:
                index.setdefault(key, len(index))
        self.forms = tuple(index)
        self.den = math.lcm(*(c.denominator for c, _ in cleared))
        self.terms = tuple(
            (int(c * self.den), tuple(sorted(index[key] for key in keys))) for c, keys in cleared
        )
        self._rows = tuple((f[0], f[1:]) for f in self.forms)
        # Every form has a nonzero linear part (beta_j enters q_j with
        # coefficient 1 until t_j is integrated), so with |c_j| < M / 2 the
        # base-M digits of d make d . f nonzero for every form.
        M = 2 * max(abs(x) for f in self.forms for x in f[1:]) + 1
        direction = [M**j for j in range(n)]
        self._slopes = tuple(sum(map(mul, f[1:], direction)) for f in self.forms)

    def __call__(self, beta: Sequence[int]) -> Fraction | None:
        if len(beta) != self.n:
            raise ValueError(f"beta has length {len(beta)}, expected {self.n}")
        values = []
        positive = self.positive
        for i, (c0, coefs) in enumerate(self._rows):
            v = c0 + sum(map(mul, coefs, beta))
            if v <= 0 and i < positive:
                return None
            values.append(v)
        if 0 in values:
            return self._limit(beta, values)
        num, den = 0, 1
        for c, idx in self.terms:
            p = 1
            for i in idx:
                p *= values[i]
            num = num * p + c * den
            den *= p
        return Fraction(num, den * self.den)

    def _limit(self, beta: Sequence[int], values: list[int]) -> Fraction:
        """The ``eps**0`` coefficient of the term sum at ``beta + eps * d``.

        A term with ``z`` vanishing forms is ``C * eps**-z / B``, with ``B``
        the product of their slopes ``d . f``, times ``1 / prod (a_i + b_i *
        eps)`` over its other forms.  With ``A_0 = prod a_i`` that product
        is ``sum_p h_p * eps**p / A_0**(p + 1)``, where ``h_p`` is the
        complete homogeneous sum of degree ``p`` of the integers
        ``u_i = -b_i * A_0 / a_i``.
        """
        slopes = self._slopes
        acc = [0]  # acc[j]: numerator of the eps**-j coefficient over den
        den = 1
        for c, idx in self.terms:
            zeros = [i for i in idx if not values[i]]
            z = len(zeros)
            a0 = math.prod([values[i] for i in idx if values[i]])
            h = [1] + [0] * z
            if z:
                for i in idx:
                    if values[i]:
                        u = -slopes[i] * (a0 // values[i])
                        for p in range(1, z + 1):
                            h[p] += u * h[p - 1]
            # the term's eps**-(z-p) coefficient is c * h_p * a0**(z-p) / term_den
            term_den = math.prod([slopes[i] for i in zeros]) * a0 ** (z + 1)
            g = math.gcd(den, term_den)
            if term_den != g:
                acc = [x * (term_den // g) for x in acc]
                den *= term_den // g
            acc += [0] * (z + 1 - len(acc))
            scale = den // term_den * c
            for p in range(z + 1):
                acc[z - p] += scale * h[p] * a0 ** (z - p)
        if any(acc[1:]):
            raise ArithmeticError(f"the poles of the shadow integral do not cancel at beta={tuple(beta)}")
        return Fraction(acc[0], den * self.den)


def monomial_norm_oracle(alpha: Sequence[int], spec: DomainSpec) -> NormValue:
    """The exact squared norm of ``z**alpha`` on ``H(k)``, by integration only.

    Shares no code with the closed-form norm formulas: the value comes out
    of the iterated shadow integral, so agreement with
    :func:`~reinhardt.norms.monomial_norm_model` (or with kernel expansion
    coefficients) is a genuine two-route check.
    """
    if len(alpha) != spec.n:
        raise ValueError(f"alpha has length {len(alpha)}, expected {spec.n}")
    value = shadow_integral_exact(shifted(alpha), spec)
    if value is None:
        return NormValue.infinite()
    if value <= 0:
        raise ArithmeticError(f"shadow integral of t**{tuple(alpha)} came out {value}")
    return NormValue.of(value, spec.n)
