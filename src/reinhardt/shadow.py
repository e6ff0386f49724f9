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
"""

from __future__ import annotations

from fractions import Fraction
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


def monomial_norm_oracle(alpha: Sequence[int], spec: DomainSpec) -> NormValue:
    """The exact squared norm of ``z**alpha`` on ``H(k)``, by integration only.

    Shares no code with the closed-form norm formulas: the value comes out
    of the iterated shadow integral, so agreement with
    :func:`~reinhardt.norms.monomial_norm_model` (or with kernel expansion
    coefficients) is a genuine two-route check.
    """
    value = shadow_integral_exact(shifted(alpha), spec)
    if value is None:
        return NormValue.infinite()
    if value <= 0:
        raise ArithmeticError(f"shadow integral of t**{tuple(alpha)} came out {value}")
    return NormValue.of(value, spec.n)
