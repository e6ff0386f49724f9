"""Exact Bergman kernels of elementary Reinhardt domains.

Construct the closed-form kernel of ``H(k)`` for signature-one exponent
vectors, compute monomial norms on model domains and (by exact iterated
integration) on arbitrary ``H(k)``, expand kernels into exact Laurent
coefficient windows, and verify everything through independent routes —
shadow integrals, annihilating operators, branch sums, and Monte-Carlo.

The exact layers never touch numpy, so ``import reinhardt`` does not load
it: the six :mod:`reinhardt.sampling` names and ``run_suites`` are resolved
on first use (PEP 562), and only sampling — ``norm --oracle mc`` and the
bell and reproducing suites of ``verify`` — imports numpy.
"""

from .counting import coefficient_C, index_set, pair_count, pair_count_bruteforce
from .domains import DomainSpec, NormValue, lcm_data, model_spec, normalize_spec
from .exact import (
    DivergentIntegral,
    FracExpSum,
    LaurentChunk,
    OutsideWindow,
    SparsePoly,
    integrate_one_var,
)
from .kernels import (
    RationalKernel,
    SingularEvaluation,
    kernel_fat_hartogs,
    kernel_model_sig1,
    kernel_signature_one,
    kernel_thin_hartogs,
)
from .norms import RSPair, build_RS, monomial_norm_model
from .series import (
    apply_annihilating_operator,
    expand_closed_form,
    rationality_diagnostic,
    series_coefficients_model,
    series_coefficients_oracle,
    slice_coefficients,
)
from .shadow import ParametricShadow, monomial_norm_oracle, shadow_integral_exact

__version__ = "0.1.0"

__all__ = [
    "DivergentIntegral",
    "DomainSpec",
    "FracExpSum",
    "LaurentChunk",
    "McNormEstimate",
    "NormValue",
    "OutsideWindow",
    "ParametricShadow",
    "RSPair",
    "RationalKernel",
    "ReproducingCheck",
    "SingularEvaluation",
    "SparsePoly",
    "apply_annihilating_operator",
    "bell_residuals",
    "build_RS",
    "check_bell_identity",
    "check_reproducing",
    "coefficient_C",
    "expand_closed_form",
    "index_set",
    "integrate_one_var",
    "kernel_fat_hartogs",
    "kernel_model_sig1",
    "kernel_signature_one",
    "kernel_thin_hartogs",
    "lcm_data",
    "mc_norm_estimate",
    "model_spec",
    "monomial_norm_model",
    "monomial_norm_oracle",
    "normalize_spec",
    "pair_count",
    "pair_count_bruteforce",
    "rationality_diagnostic",
    "run_suites",
    "series_coefficients_model",
    "series_coefficients_oracle",
    "shadow_integral_exact",
    "slice_coefficients",
]

#: Exported names whose module is imported on first use: sampling needs numpy.
_LAZY = {
    "McNormEstimate": "sampling",
    "ReproducingCheck": "sampling",
    "bell_residuals": "sampling",
    "check_bell_identity": "sampling",
    "check_reproducing": "sampling",
    "mc_norm_estimate": "sampling",
    "run_suites": "verify",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
