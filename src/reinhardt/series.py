"""Laurent expansion of kernels and series-side consistency tools.

On the domain every factor of the closed-form kernel expands in a geometric
series: with ``rho = t_1^{k_1} / prod_b t_b^{|k_b|}`` (strictly inside the
unit interval on the shadow),

    1 / (prod_b t_b^{|k_b|} - t_1^{k_1})**2
        = prod_b t_b^{-2 |k_b|} * sum_{m>=0} (m+1) rho**m,
    1 / (1 - t_b)**2 = sum_{p>=0} (p+1) t_b**p,

so each Laurent coefficient of the kernel is a *finite* exact sum: for a
numerator term ``C(beta) t**beta``, the exponent ``alpha`` receives
``C(beta) * (m+1) * prod_b (p_b+1)`` whenever ``m = (alpha_1-beta_1)/k_1``
is a nonnegative integer and every ``p_b = alpha_b - beta_b + |k_b|(m+2)``
is nonnegative.  Along the last axis a term's contributions form a ramp
``(p_n + 1)`` whose second difference is a single mass, so
:func:`expand_closed_form` sums a whole row of the box at once: it places
one mass per term and takes two running sums — no truncation error, so
windows produced here are exact.

Independently, the kernel's series is the sum of ``t**alpha / ||z**alpha||^2
* pi**n`` over finite-norm exponents; :func:`series_coefficients_model`
(via the R/S formula) and :func:`series_coefficients_oracle` (via exact
shadow integration) tabulate that route for comparison.  Both work one
last-axis row at a time too.  A row fixes ``alpha_1, ..., alpha_{n-1}``,
so the chamber's forms are affine in the last exponent and the row's finite
exponents are one interval, found by floor division; each polynomial of
the ratio is restricted to the last variable once per row, to a short
``int`` coefficient list, and tabulated by Horner's rule over that interval
only (Knuth, TAOCP vol. 2, 4.6.4).  The two routes share that loop,
``_reciprocal_window``, and nothing else: each passes its own row, the
model route :meth:`~reinhardt.norms.RSPair.row` and the oracle route
:meth:`~reinhardt.shadow.ParametricShadow.row`, so each keeps its own
finiteness rule and values, and the shadow shares no code with the norms.

The module also carries the diagonal differential check: the operator
"multiply by ``t_1 ... t_n``, then apply ``R(t_1 d_1, ..., t_n d_n)``"
sends ``t**gamma`` to ``R(gamma) t**gamma`` after the shift, so applied to
the model kernel series it must reproduce the plain values ``S(gamma)`` on
the support — a sharp test tying the series back to the norm recursion.
It too tabulates ``R`` one row at a time.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .domains import DomainSpec
from .exact import LaurentChunk, _exact_ratio
from .kernels import RationalKernel
from .norms import build_RS
from .shadow import ParametricShadow


def _empty_window(box: Sequence[tuple[int, int]], n: int) -> LaurentChunk:
    """The window every series route fills: ``box`` must hold one range per variable."""
    if len(box) != n:
        raise ValueError(f"box needs {n} ranges")
    return LaurentChunk(box)


def expand_closed_form(kernel: RationalKernel, box: Sequence[tuple[int, int]]) -> LaurentChunk:
    """Exact Laurent coefficients of a closed-form kernel on a box, one row at a time.

    A row fixes ``alpha_1, ..., alpha_{n-1}``; along the last axis ``x``
    each numerator term ``beta`` then adds the ramp ``w * (x - s + 1)`` for
    ``x >= s``, with ``w = C(beta) * (m+1) * prod_{1<b<n} (p_b+1)`` and
    ``s = beta_n - |k_n| (m+2)``.  A ramp is the second running sum of a
    single mass ``w`` at ``s``, so the row's masses are summed twice over
    the last axis; a ramp already running at ``lo`` starts with its value
    ``w * (lo - s + 1)`` at ``lo`` and ``-w * (lo - s)`` at ``lo + 1``.
    The numerator's coefficients ``C(beta)`` are integers, so every sum
    runs in integers, and the row of sums is the window's row; with
    ``kernel.scalar = p/q != 1`` each sum ``v`` becomes the window value
    ``v * p / q``: an ``int`` when ``q`` divides ``v * p``, a reduced
    ``Fraction`` otherwise.
    """
    n = kernel.n
    chunk = _empty_window(box, n)
    k1 = kernel.spec.k[0]
    kb = kernel.spec.abs_k
    (lo0, hi0), *middle, (lo, hi) = chunk.box
    width = hi - lo + 1
    p, q = kernel.scalar.as_integer_ratio()
    numerator = kernel.numerator.sorted_terms()
    rows = chunk.rows
    for a0 in range(lo0, hi0 + 1):
        # per term at this alpha_1: (C(beta)(m+1), the p_b offsets beta_b - |k_b|(m+2), s)
        ramps = []
        for beta, c in numerator:
            d = a0 - beta[0]
            if d < 0 or d % k1:
                continue
            m2 = d // k1 + 2
            s = beta[-1] - kb[-1] * m2
            if s <= hi:
                ramps.append((c * (m2 - 1), [beta[b] - kb[b] * m2 for b in range(1, n - 1)], s))
        for mid in itertools.product(*(range(a, b + 1) for a, b in middle)):
            # one slot past hi: a clamped ramp in a one-point row still writes at lo + 1
            mass = [0] * (width + 1)
            for w, offsets, s in ramps:
                for a, t in zip(mid, offsets):
                    if a < t:
                        break
                    w *= a - t + 1
                else:
                    if s >= lo:
                        mass[s - lo] += w
                    else:
                        mass[0] += w * (lo - s + 1)
                        mass[1] -= w * (lo - s)
            row = list(itertools.accumulate(itertools.accumulate(mass)))
            row.pop()
            if any(row):
                if q != 1 or p != 1:
                    row = [_exact_ratio(v * p, q) for v in row]
                rows[(a0, *mid)] = row
    return chunk


def _reciprocal_window(chunk: LaurentChunk, row) -> LaurentChunk:
    """Fill ``chunk`` with reciprocals of the norm ratio, one last-axis row at a time.

    ``row(lead, lo, hi)`` answers the row ``beta = (*lead, x)`` of the
    shifted box ``beta = alpha + 1`` with its finite points ``xs`` and the
    ratio's ``int`` parts ``ps`` and ``qs`` there; each coefficient is
    ``q / p``, reduced once, written into that slice of a row of zeros.
    The rule and the values are the row's.
    """
    *lead_box, (lo, hi) = chunk.box
    zeros = [0] * (hi - lo + 1)
    rows = chunk.rows
    for lead, beta_lead in zip(
        itertools.product(*(range(a, b + 1) for a, b in lead_box)),
        itertools.product(*(range(a + 1, b + 2) for a, b in lead_box)),
    ):
        xs, ps, qs = row(beta_lead, lo + 1, hi + 1)
        if xs:
            values = rows[lead] = zeros.copy()
            values[xs.start - 1 - lo:xs.stop - 1 - lo] = map(_exact_ratio, qs, ps)
    return chunk


def series_coefficients_model(n: int, s: int, box: Sequence[tuple[int, int]]) -> LaurentChunk:
    """Kernel series coefficients of Omega(n, s) from the norm formula, one row at a time.

    The coefficient at a finite-norm ``alpha`` is ``S(beta) / R(beta)`` with
    ``beta = alpha + 1``; each row's finite part and its values come from
    :meth:`~reinhardt.norms.RSPair.row`, which refuses a nonpositive value.
    """
    return _reciprocal_window(_empty_window(box, n), build_RS(n, s).row)


def series_coefficients_oracle(spec: DomainSpec, box: Sequence[tuple[int, int]]) -> LaurentChunk:
    """Kernel series coefficients of ``H(k)`` from exact shadow integrals, one row at a time.

    The coefficient at ``alpha`` is ``pi**n / ||z**alpha||^2``, i.e. the
    reciprocal of the shadow integral; exponents with infinite norm
    contribute nothing.  Works for every signature.  The integral is taken
    once per spec as one fraction ``P/Q`` in symbolic ``beta``
    (:class:`~reinhardt.shadow.ParametricShadow`), and each row is evaluated
    at once on its finite interval, as unreduced ``int`` pairs ``(p, q)``
    (:meth:`~reinhardt.shadow.ParametricShadow.row`).
    """
    return _reciprocal_window(_empty_window(box, spec.n), ParametricShadow(spec).row)


def slice_coefficients(n: int, count: int) -> list[int | Fraction]:
    """The diagonal slice tail coefficients ``j / ((j+1)**(n-1) - 1)``.

    These arise from the model kernel of Omega(n, n-1) restricted along the
    last axis, after the polar part ``1/(n-1) * t**-1`` and the polydisc
    part ``sum j t**(j-1)`` are split off.  For ``n = 3`` they reduce to
    ``1/(j+2)``; for every ``n`` they decay like ``j**(2-n)`` — a rational,
    not geometric, tail.
    """
    if n < 3:
        raise ValueError("slice families need n >= 3")
    if count < 1:
        raise ValueError("need at least one coefficient")
    return [_exact_ratio(j, (j + 1) ** (n - 1) - 1) for j in range(1, count + 1)]


_POLY_MARGIN = 10.0
_EXP_DELTA = 0.05


def rationality_diagnostic(values: Sequence) -> str:
    """Classify a positive tail as polynomial or exponential decay.

    Looks at consecutive ratios ``r_j = a_{j+1}/a_j`` over the second half
    of the sequence: ``|r_j - 1| < _POLY_MARGIN / j`` for all of them votes
    ``"polynomial_decay"`` (ratios creeping up to 1 like rational functions
    do), ``r_j < 1 - _EXP_DELTA`` votes ``"exponential_decay"`` (ratios
    pinned below 1), anything else is ``"inconclusive"``.
    """
    data = [float(v) for v in values]
    if len(data) < 8:
        return "inconclusive"
    start = len(data) // 2
    if any(v <= 0.0 for v in data[start - 1:]):
        return "inconclusive"
    ratios = [(j + 1, data[j + 1] / data[j]) for j in range(start, len(data) - 1)]
    if all(abs(r - 1.0) < _POLY_MARGIN / j for j, r in ratios):
        return "polynomial_decay"
    if all(r < 1.0 - _EXP_DELTA for _, r in ratios):
        return "exponential_decay"
    return "inconclusive"


def apply_annihilating_operator(n: int, s: int, chunk: LaurentChunk) -> LaurentChunk:
    """Shift by ``t_1...t_n`` and apply ``R(t_1 d_1, ..., t_n d_n)`` exactly.

    Acting on a Laurent window termwise: the coefficient of the shifted
    window at ``gamma`` is ``R(gamma)`` times the input coefficient at
    ``gamma - 1``.  Applied to a kernel-series window of Omega(n, s) the
    output must equal ``S(gamma)`` at every ``gamma`` whose monomial lies
    in the space (and 0 at the rest) — the denominator ``R`` of the norm
    formula is annihilated.  ``R`` is tabulated once per stored row of the
    window (:meth:`~reinhardt.exact.SparsePoly.on_row`); rows of zeros cost
    nothing.  An ``int`` value multiplies ``R`` directly, and only a
    ``Fraction`` is reduced, once.
    """
    if chunk.nvars != n:
        raise ValueError("window variable count disagrees with n")
    R = build_RS(n, s).R
    window = LaurentChunk(tuple((lo + 1, hi + 1) for lo, hi in chunk.box))
    lo, hi = window.box[-1]
    xs = range(lo, hi + 1)
    for lead, row in chunk.rows.items():
        lead = tuple(a + 1 for a in lead)
        values = []
        for coef, r in zip(row, R.on_row(lead, xs)):
            if type(coef) is int:
                values.append(coef * r)
            else:
                p, q = coef.as_integer_ratio()
                values.append(_exact_ratio(p * r, q))
        if any(values):
            window.rows[lead] = values
    return window
