"""Closed-form Bergman kernels for signature-one domains.

For ``H(k)`` with exactly one positive exponent the Bergman kernel is a
rational function of the pairings ``t_a = z_a * conj(w_a)``:

    B(z, w) = 1 / (pi**n * L) *
              sum_{beta in G} C(beta) t**beta
              / [ (prod_{b>=2} t_b^{|k_b|} - t_1^{k_1})**2 * prod_{b>=2} (1 - t_b)**2 ]

with lcm data ``(K, ell, L)``, coefficients ``C`` from
:mod:`reinhardt.counting`, and support box ``G``.  The numerator is built
from the nonzero intervals of ``C``
(:func:`~reinhardt.counting.numerator_terms`), not by a scan of ``G``.
:class:`RationalKernel` stores only what ``k`` does not fix: the spec, a
rational scalar and the integer numerator polynomial.  The power ``n`` of
pi, the squared "main" denominator (exponents ``k_1`` and ``|k_b|``) and
the squared unit factors ``(1 - t_b)`` are read from the spec.

Two kernels are equal when their canonical forms match: the content of the
numerator is folded into the scalar, so the general construction at
``k = (1, -k)`` — scalar ``1/k``, numerator ``k * t_2**k`` — equals the
directly-built special case with scalar 1 and numerator ``t_2**k``.

Special-case constructors for ``H(1, -k)`` ("fat" generalized Hartogs
triangles) and ``H(k, -1)`` ("thin") are built from their own explicit
coefficient patterns, deliberately not reusing :mod:`reinhardt.counting`,
so that agreement with :func:`kernel_signature_one` is a real cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .counting import numerator_terms
from .domains import DomainSpec, lcm_data, model_spec, normalize_spec
from .exact import SparsePoly


class SingularEvaluation(ArithmeticError):
    """The evaluation point is too close to the kernel's singular set."""


_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


#: Evaluations whose denominator is below this multiple of the numerator's
#: scale raise :class:`SingularEvaluation`.
SINGULAR_GUARD = 1e-12


def _sup(e: int) -> str:
    return str(e).translate(_SUPERSCRIPTS) if e != 1 else ""


@dataclass(frozen=True, eq=False)
class RationalKernel:
    """An exact rational Bergman kernel in the pairings ``t_a = z_a conj(w_a)``.

    ``scalar / pi**n * numerator`` over the denominator that the
    signature-one ``spec`` fixes (see the module docstring).
    """

    spec: DomainSpec
    scalar: Fraction
    numerator: SparsePoly

    def __post_init__(self) -> None:
        if self.spec.s != 1:
            raise ValueError(f"{self.spec} has signature {self.spec.s}; closed-form kernels need signature 1")
        if self.numerator.nvars != self.spec.n:
            raise ValueError("numerator variable count disagrees with the spec")
        if self.scalar <= 0 or not self.numerator:
            raise ValueError("kernels have positive scalar and nonzero numerator")

    @property
    def n(self) -> int:
        return self.spec.n

    # -- normal form ---------------------------------------------------------

    def canonical(self) -> "RationalKernel":
        """Fold the numerator's content into the scalar and reduce."""
        content = self.numerator.content()
        numerator = SparsePoly(self.n, {exps: c // content for exps, c in self.numerator.terms.items()})
        return RationalKernel(self.spec, self.scalar * content, numerator)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalKernel):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        return a.spec == b.spec and a.scalar == b.scalar and a.numerator == b.numerator

    # -- evaluation -----------------------------------------------------------

    def float_parts(self, t, fresh):
        """Numerator, denominator and guard verdict at pairings ``t``, in floats.

        The one float evaluator.  It uses only ``+ - * **`` and in-place
        forms, so ``t`` may hold complex scalars or numpy columns; ``fresh(c)``
        starts a new value ``c`` of that kind.  The verdict ``ok`` is
        ``|den| >= SINGULAR_GUARD * max(1, |num|)``.  Callers divide
        themselves: Python and numpy round complex division differently.
        """
        num = fresh(0.0)
        for exps, coef in self.numerator.sorted_terms():
            term = fresh(float(coef))
            for i, e in enumerate(exps):
                if e:
                    term *= t[i] ** e
            num += term
        num *= float(self.scalar)
        abs_k = self.spec.abs_k
        main = fresh(1.0)
        for b in range(1, self.n):
            main *= t[b] ** abs_k[b]
        main -= t[0] ** abs_k[0]
        den = main * main
        for b in range(1, self.n):
            den *= (1.0 - t[b]) ** 2
        ok = (abs(den) >= SINGULAR_GUARD) & (abs(den) >= SINGULAR_GUARD * abs(num))
        return num, den, ok

    def evaluate_pairings(self, t: Sequence[complex]) -> complex:
        """Evaluate at given pairings ``t``; exact structure, float arithmetic.

        Raises :class:`SingularEvaluation` when the denominator is smaller
        than :data:`SINGULAR_GUARD` times the scale of the evaluation
        (singular set: the main surface ``prod t_b^{|k_b|} = t_1^{k_1}`` and
        the unit hyperplanes ``t_b = 1``).
        """
        if len(t) != self.n:
            raise ValueError(f"need {self.n} pairings, got {len(t)}")
        num, den, ok = self.float_parts(t, lambda c: c)
        if not ok:
            raise SingularEvaluation(
                f"denominator {abs(den):.3e} below guard {SINGULAR_GUARD:.0e} * {max(1.0, abs(num)):.3e}"
            )
        return num / den / math.pi ** self.n

    def evaluate(self, z: Sequence[complex], w: Sequence[complex]) -> complex:
        """The kernel at ``(z, w)``: holomorphic in ``z``, conjugate in ``w``."""
        if len(z) != self.n or len(w) != self.n:
            raise ValueError(f"points must have length {self.n}")
        t = [zi * complex(wi).conjugate() for zi, wi in zip(z, w)]
        return self.evaluate_pairings(t)

    # -- emitters -------------------------------------------------------------

    def _num_terms_str(self, fmt_mono, times: str) -> list[str]:
        parts = []
        for exps, coef in self.numerator.sorted_terms():
            mono = fmt_mono(exps)
            if not mono:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(mono)
            else:
                parts.append(f"{coef}{times}{mono}")
        return parts

    def _main_strs(self, var, power) -> tuple[str, str]:
        abs_k = self.spec.abs_k
        lead = " ".join(f"{var(b)}{power(abs_k[b])}" for b in range(1, self.n))
        return lead, f"{var(0)}{power(abs_k[0])}"

    def to_plain(self) -> str:
        """Human-readable one-liner, e.g. ``1/π² · t2 / ((t2 − t1)² (1 − t2)²)``."""
        kernel = self.canonical()
        var = lambda i: f"t{i + 1}"
        mono = lambda exps: " ".join(f"{var(i)}{_sup(e)}" for i, e in enumerate(exps) if e)
        num = " + ".join(kernel._num_terms_str(mono, " "))
        if len(kernel.numerator.terms) > 1:
            num = f"({num})"
        pi = f"π{_sup(kernel.n)}"
        if kernel.scalar == 1:
            scalar = f"1/{pi}"
        elif kernel.scalar.numerator == 1:
            scalar = f"1/({kernel.scalar.denominator}{pi})"
        else:
            scalar = f"{kernel.scalar.numerator}/({kernel.scalar.denominator}{pi})"
        lead, sub = kernel._main_strs(var, _sup)
        den_parts = [f"({lead} − {sub})²"]
        for b in range(1, kernel.n):
            den_parts.append(f"(1 − {var(b)})²")
        return f"{scalar} · {num} / ({' '.join(den_parts)})"

    def to_latex(self) -> str:
        """The kernel as a LaTeX fraction."""
        kernel = self.canonical()
        var = lambda i: f"t_{{{i + 1}}}"
        power = lambda e: f"^{{{e}}}" if e != 1 else ""
        mono = lambda exps: " ".join(f"{var(i)}{power(e)}" for i, e in enumerate(exps) if e)
        num = " + ".join(kernel._num_terms_str(mono, "\\, "))
        lead, sub = kernel._main_strs(var, power)
        den = [f"\\left({lead} - {sub}\\right)^{{2}}"]
        for b in range(1, kernel.n):
            den.append(f"\\left(1 - {var(b)}\\right)^{{2}}")
        scalar_den = "" if kernel.scalar.denominator == 1 else f"{kernel.scalar.denominator}\\,"
        if kernel.scalar.numerator != 1:
            num = f"{kernel.scalar.numerator}\\,\\left({num}\\right)"
        return (
            f"\\frac{{{num}}}{{{scalar_den}\\pi^{{{kernel.n}}}\\,"
            + "\\,".join(den)
            + "}"
        )

    def to_json_dict(self) -> dict:
        """Exact machine-readable form (coefficients as integer strings)."""
        kernel = self.canonical()
        return {
            "pi_power": kernel.n,
            "L": kernel.scalar.denominator,
            "scalar_num": kernel.scalar.numerator,
            "numerator": [
                {"exp": list(exps), "coef": str(coef)}
                for exps, coef in kernel.numerator.sorted_terms()
            ],
            "denom_main": {"k1": kernel.spec.k[0], "kb": list(kernel.spec.abs_k[1:])},
            "denom_units": [{"var": b + 1, "mult": 2} for b in range(1, kernel.n)],
        }

    def __repr__(self) -> str:
        return f"RationalKernel({self.spec}, {len(self.numerator.terms)} numerator terms)"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def kernel_signature_one(spec: DomainSpec) -> RationalKernel:
    """The closed-form kernel of any signature-one ``H(k)``."""
    if spec.s != 1:
        raise ValueError(
            f"{spec} has signature {spec.s}; the closed form exists only for signature 1"
        )
    _, _, L = lcm_data(spec)
    numerator = SparsePoly(spec.n, numerator_terms(spec))
    return RationalKernel(spec, Fraction(1, L), numerator)


def kernel_model_sig1(n: int) -> RationalKernel:
    """The model kernel of Omega(n, 1), built from its product shape directly.

    Numerator ``t_2 * ... * t_n`` over ``(t_2...t_n - t_1)**2 *
    prod (1 - t_b)**2``, scalar 1 — independent of the coefficient
    machinery, as a cross-check on :func:`kernel_signature_one`.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return RationalKernel(model_spec(n, 1), Fraction(1), SparsePoly.monomial(n, (0,) + (1,) * (n - 1)))


def kernel_fat_hartogs(k: int) -> RationalKernel:
    """The kernel of the fat generalized Hartogs triangle ``H(1, -k)``.

    Single numerator term ``t_2**k`` with scalar 1 — the reduced special
    case, built without the general coefficient sum.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    return RationalKernel(normalize_spec((1, -k)), Fraction(1), SparsePoly.monomial(2, (0, k)))


def kernel_thin_hartogs(k: int) -> RationalKernel:
    """The kernel of the thin generalized Hartogs triangle ``H(k, -1)``, k >= 2.

    Numerator written as the three explicit index sums

        sum_{l=1}^{k-1} (k-l) l t_1^{k+l-1}
      + sum_{l=1}^{k} [ l**2 t_1^{l-1} + (k-l)**2 t_1^{k+l-1} ] t_2
      + sum_{l=1}^{k} l (k-l) t_1^{l-1} t_2**2

    with scalar ``1/k`` — again independent of the general construction.
    """
    if k < 2:
        raise ValueError("the thin family starts at k = 2")
    terms: dict[tuple[int, int], int] = {}

    def add(e1: int, e2: int, c: int) -> None:
        if c:
            terms[(e1, e2)] = terms.get((e1, e2), 0) + c

    for l in range(1, k):
        add(k + l - 1, 0, (k - l) * l)
    for l in range(1, k + 1):
        add(l - 1, 1, l * l)
        add(k + l - 1, 1, (k - l) * (k - l))
        add(l - 1, 2, l * (k - l))
    return RationalKernel(normalize_spec((k, -1)), Fraction(1, k), SparsePoly(2, terms))
