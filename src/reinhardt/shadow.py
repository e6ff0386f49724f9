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

  a monomial bound that is automatically < 1 on the open region.  The
  bound is passed as the ``int`` numerators ``k_a`` and ``-|k_b|`` over the
  one denominator ``|k_m|``, and each step is one pass of
  :func:`~reinhardt.exact.integrate_one_var`, which writes ``F(1) -
  F(lower_m)`` of the antiderivative ``F`` in ``int`` numerators;

* positive-block variables are outermost, each over ``(0, 1)``.  Only these
  steps can diverge.

Divergence is answered before any step, from the chamber.  In ``u = -log
t`` the shadow is the polyhedral cone with rays ``e_a`` and ``|k_b| * e_a +
k_a * e_b`` (``a <= s < b``), and ``Integral e^(-<beta, u>) du`` over a
cone is finite exactly on the interior of its dual cone: where every form
``beta_a`` and ``|k_b| * beta_a + k_a * beta_b`` is ``> 0``
(``_in_chamber``).  Outside it the integral is ``None`` at once;
inside it the steps run and confirm a finite value.  A positive step can
still see a term with exponent <= -1 in its variable (log powers
allowed), which would leave a term of the antiderivative that blows up at
0; at a chamber point that means the chamber and the integral disagree,
which is a bug, and is an ``ArithmeticError``.

Every exponent stays on the lattice ``(1/D) * Z``, where ``D`` divides the
product of the ``|k_b|`` over the negatives integrated so far.  The steps
chain on the sums' stored, unreduced form: the start monomial is built
unchecked (``beta`` is checked already), and ``as_constant`` reduces the
final constant once.

The negative block nests in increasing index order.  The value is
independent of the order of either block, which the test suite checks by
relabelling the spec.

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
* one fraction.  The terms are summed pairwise along the split tree into
  ``P / (den * Q)``, with ``Q`` the product of the distinct positive-step
  forms and ``P`` an integer polynomial.  The two halves of the split at
  step ``m`` sum to an integral that is analytic wherever the
  positive-step forms are ``> 0``, and the step-``m`` form involves
  negative-block variables only, so its zero set meets that chamber (take
  the positive-block entries large): the form divides the summed
  numerator exactly, and a nonzero remainder is an ``ArithmeticError``
  when the object is built.  Log-degenerate points, where a negative-step
  form vanishes, need no special case.

Evaluation runs one last-axis row at a time, in ``int`` arithmetic: the
positive-step forms are affine along the row, so its finite points are an
interval found by floor division, where ``Q`` is a product of arithmetic
progressions and ``P``, restricted to the last variable, is tabulated by
Horner's rule.  The parametric object has no point form: the per-point
integrator stays the reference the parametric route is tested against, and
serves single queries, for which building the parametric object does not
pay.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .domains import DomainSpec, NormValue, shifted
from .exact import DivergentIntegral, FracExpSum, _check_ints, integrate_one_var


def _in_chamber(beta: Sequence[int], spec: DomainSpec) -> bool:
    """Whether ``Integral_T t**(beta - 1) dt`` is finite, from the shadow's cone alone.

    In ``u = -log t`` the shadow is the open polyhedral cone with rays
    ``e_a`` and ``|k_b| * e_a + k_a * e_b`` (``a <= s < b``).  The integral
    of ``e^(-<beta, u>)`` over a cone is finite exactly on the interior of
    its dual cone, the chamber: where every form ``beta_a`` and ``|k_b| *
    beta_a + k_a * beta_b`` is ``> 0``.  Divided by their gcd, these forms
    are, as a set, the positive-step forms of :class:`ParametricShadow`.
    Costs ``O(s * (n - s))`` int operations; the caller checks ``beta``.
    """
    k, s = spec.k, spec.s
    for a in range(s):
        beta_a = beta[a]
        if beta_a <= 0:
            return False
        for b in range(s, len(k)):
            if k[a] * beta[b] - k[b] * beta_a <= 0:
                return False
    return True


def shadow_integral_exact(beta: Sequence[int], spec: DomainSpec) -> Fraction | None:
    """``Integral_T t**(beta - 1) dt`` as an exact rational, or None if infinite.

    ``beta`` has ``int`` entries (``TypeError`` otherwise), so the start
    monomial ``t**(beta - 1)`` sits on the integer lattice.  The negative
    block nests in increasing index order, ``t_s`` outermost.

    A ``beta`` outside the chamber (``_in_chamber``) returns None before
    any integration step.  A positive step that diverges at a chamber point
    raises ``ArithmeticError``.
    """
    n, s = spec.n, spec.s
    if len(beta) != n:
        raise ValueError(f"beta has length {len(beta)}, expected {n}")
    _check_ints("beta", beta)
    if not _in_chamber(beta, spec):
        return None
    abs_k = spec.abs_k

    f = FracExpSum._raw(n, {(tuple(b - 1 for b in beta), (0,) * n): 1})
    # Negative block, innermost first; each bound is int numerators over |k_m|.
    for m in range(n - 1, s - 1, -1):
        lower = list(spec.k[:s]) + [0] * (n - s)
        for b in range(s, m):
            lower[b] = -abs_k[b]
        f = integrate_one_var(f, m, (lower, abs_k[m]))
    # Positive block, each over (0, 1); at a chamber point no step diverges.
    try:
        for a in range(s - 1, -1, -1):
            f = integrate_one_var(f, a, None)
    except DivergentIntegral as exc:
        raise ArithmeticError(f"the shadow integral at beta={tuple(beta)} diverges inside the chamber") from exc
    return f.as_constant()


def _split_terms(spec: DomainSpec) -> list[tuple[Fraction, list[tuple[int, ...]], list[tuple[int, ...]]]]:
    """The integral as ``2**(n - s)`` terms ``(c, positive, negative)``.

    Term ``(c, positive, negative)`` is ``c / (prod positive * prod
    negative)`` over primitive integer affine forms ``(c_0, c_1, ..., c_n)``,
    ``c_0 + sum_j c_j * beta_j``.  ``positive`` holds the ``s`` positive-step
    forms, ``negative`` the negative-step ones from the outermost step
    ``s`` inwards.  Terms ``2 i`` and ``2 i + 1`` are the upper and lower
    parts of one split at step ``s``; blocks of four split at step ``s + 1``,
    and so on.
    """
    n, s = spec.n, spec.s
    abs_k = spec.abs_k
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
            split.append((c, q, [g] + divs))
            split.append((-c, low, [g] + divs))
        terms = split

    cleared = []
    for c, q, divs in terms:
        keys = []
        for g in [[q[a][0] + 1] + q[a][1:] for a in range(s)] + divs:
            scale = math.lcm(*(x.denominator for x in g))
            ints = [int(x * scale) for x in g]
            content = math.gcd(*ints)
            c *= Fraction(scale, content)
            keys.append(tuple(x // content for x in ints))
        cleared.append((c, keys[:s], keys[s:]))
    return cleared


# Polynomials in beta with int coefficients: {exponent tuple: nonzero int}.


def _times_form(poly: dict, form: tuple[int, ...]) -> dict:
    """``poly * (c_0 + sum_j c_j * beta_j)``."""
    out: dict[tuple[int, ...], int] = {}
    c0 = form[0]
    linear = [(j, c) for j, c in enumerate(form[1:]) if c]
    for exps, coef in poly.items():
        if c0:
            out[exps] = out.get(exps, 0) + coef * c0
        for j, c in linear:
            key = exps[:j] + (exps[j] + 1,) + exps[j + 1:]
            out[key] = out.get(key, 0) + coef * c
    return {exps: coef for exps, coef in out.items() if coef}


def _divided_by_form(poly: dict, form: tuple[int, ...]) -> dict:
    """``poly / form`` exactly, by synthetic division in one variable.

    The variable ``v`` is one with the smallest nonzero coefficient
    ``c_v``; the quotient of an integer polynomial by a primitive form it
    divides has integer coefficients (Gauss), so every step divides by
    ``c_v`` exactly.  Raises ``ArithmeticError`` if the form does not
    divide ``poly``.
    """
    linear = [(j, c) for j, c in enumerate(form[1:]) if c]
    v, cv = min(linear, key=lambda jc: abs(jc[1]))
    rest = [(j, c) for j, c in linear if j != v]
    rem = dict(poly)
    quotient: dict[tuple[int, ...], int] = {}
    for e in range(max((exps[v] for exps in rem), default=0), 0, -1):
        for exps in [x for x in rem if x[v] == e]:
            q, r = divmod(rem.pop(exps), cv)
            if r:
                raise ArithmeticError(f"the poles of the shadow integral along {form} do not cancel")
            if not q:
                continue
            low = exps[:v] + (e - 1,) + exps[v + 1:]
            quotient[low] = q
            # subtract q * beta**low * (form - c_v * beta_v): terms of degree e - 1 in beta_v
            rem[low] = rem.get(low, 0) - q * form[0]
            for j, c in rest:
                key = low[:j] + (low[j] + 1,) + low[j + 1:]
                rem[key] = rem.get(key, 0) - q * c
    if any(rem.values()):
        raise ArithmeticError(f"the poles of the shadow integral along {form} do not cancel")
    return quotient


def _sum_of_halves(upper: tuple, lower: tuple) -> tuple:
    """The two halves of one split as one node, their shared form divided out.

    A node ``(P, den, forms, negative)`` stands for ``P / (den * prod(forms)
    * prod(negative))``.  Both halves carry the same ``negative``, and the
    split's own form comes first in it; it divides the summed numerator
    because the sum is analytic on the chamber (see the module docstring).
    """
    (num_a, den_a, pos_a, negative), (num_b, den_b, pos_b, _) = upper, lower
    den, pos = math.lcm(den_a, den_b), pos_a | pos_b
    total: dict[tuple[int, ...], int] = {}
    for num, d, own in ((num_a, den_a, pos_a), (num_b, den_b, pos_b)):
        num = {exps: coef * (den // d) for exps, coef in num.items()}
        for form in pos - own:
            num = _times_form(num, form)
        for exps, coef in num.items():
            total[exps] = total.get(exps, 0) + coef
    num = _divided_by_form(total, negative[0])
    content = math.gcd(den, *num.values())
    return {exps: coef // content for exps, coef in num.items()}, den // content, pos, negative[1:]


class ParametricShadow:
    """``beta -> Integral_T t**(beta - 1) dt`` for one spec, integrated once.

    The integral is kept as one fraction

        I(beta) = P(beta) / (den * Q(beta)),   Q = prod(forms),

    where ``forms`` are the distinct positive-step forms ``(c_0, c_1, ...,
    c_n)``, each the primitive integer affine form ``c_0 + sum_j c_j *
    beta_j``, ``numerator`` is ``P`` as ``{exponent tuple: int}`` and
    ``den`` is a positive int.  ``I`` is finite exactly where every form is
    ``> 0``.  :meth:`row` evaluates one last-axis row at a time in ints,
    with the values of :func:`shadow_integral_exact` at its finite points.
    """

    def __init__(self, spec: DomainSpec):
        n = spec.n
        terms = _split_terms(spec)
        self.n = n
        self.forms = tuple(dict.fromkeys(form for _, positive, _ in terms for form in positive))
        # Sum the terms pairwise along the split tree, from step s inwards;
        # a node is (P, den, positive forms, negative forms still shared).
        nodes = [({(0,) * n: c.numerator} if c else {}, c.denominator, frozenset(positive), negative)
                 for c, positive, negative in terms]
        while len(nodes) > 1:
            nodes = [_sum_of_halves(upper, lower) for upper, lower in zip(nodes[::2], nodes[1::2])]
        numerator, den, _, _ = nodes[0]
        self.numerator = numerator
        self.den = den
        # forms as (c_0, leading coefficients, last coefficient)
        self._form_parts = tuple((f[0], f[1:-1], f[-1]) for f in self.forms)
        # the monomials of P grouped by the exponent of the last variable
        self._by_last = [[] for _ in range(max((exps[-1] for exps in numerator), default=0) + 1)]
        for exps, coef in sorted(numerator.items()):
            self._by_last[exps[-1]].append((coef, tuple((j, e) for j, e in enumerate(exps[:-1]) if e)))

    def row(self, lead: Sequence[int], lo: int, hi: int) -> tuple[range, list[int], list[int]]:
        """``I(*lead, x) = p / q`` at the finite points ``lo <= x <= hi`` of one row.

        With the leading coordinates fixed, every form is affine in the last
        one, ``a + b * x``, with ``b >= 0``: the forms are the chamber's
        ``beta_a`` and ``|k_b| * beta_a + k_a * beta_b`` (``_in_chamber``).
        So the row's finite points are ``x > -a / b`` for every form with
        ``b > 0``, found by floor division, and all or none of the row for
        a form with ``b == 0``.  Returns them as a range ``xs`` with the
        unreduced ``int`` pairs as two lists: ``p = P(*lead, x)``,
        tabulated from ``P``'s restriction to the last variable by Horner's
        rule, and ``q = den * Q(*lead, x)``, the product of the forms'
        arithmetic progressions.
        """
        if len(lead) != self.n - 1:
            raise ValueError(f"a row needs {self.n - 1} leading coordinates, got {len(lead)}")
        q = self.den
        moving = []
        for c0, coefs, b in self._form_parts:
            a = c0 + sum(map(mul, coefs, lead))
            if b:
                lo = max(lo, -a // b + 1)
                moving.append((a, b))
            elif a <= 0:
                return range(0), [], []
            else:
                q *= a
        xs = range(lo, hi + 1)
        if not xs:
            return xs, [], []
        qs = [q] * len(xs)
        for a, b in moving:
            qs = list(map(mul, qs, range(a + b * lo, a + b * (hi + 1), b)))
        coeffs = []
        for group in self._by_last:
            c = 0
            for coef, factors in group:
                for j, e in factors:
                    coef *= lead[j] ** e
                c += coef
            coeffs.append(c)
        ps = [coeffs[-1]] * len(xs)
        for c in reversed(coeffs[:-1]):
            ps = [p * x + c for p, x in zip(ps, xs)]
        return xs, ps, qs


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
