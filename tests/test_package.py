"""Tests for the package's top-level exports and its module boundaries."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reinhardt
import reinhardt.domains
import reinhardt.exact
import reinhardt.norms
import reinhardt.sampling
import reinhardt.series
import reinhardt.shadow


def test_every_exported_name_resolves():
    missing = [name for name in reinhardt.__all__ if not hasattr(reinhardt, name)]
    assert missing == []
    assert len(set(reinhardt.__all__)) == len(reinhardt.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from reinhardt import *", namespace)
    assert set(reinhardt.__all__) <= namespace.keys()


def test_dir_lists_every_exported_name():
    # the sampling names and run_suites are resolved on first use, and still listed
    assert set(reinhardt.__all__) <= set(dir(reinhardt))


def numpy_loaded_after(code: str) -> bool:
    """Whether ``numpy`` is in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    src = str(Path(reinhardt.__file__).resolve().parent.parent)
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    probe = f"{code}\nimport sys\nprint('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def test_import_does_not_load_numpy():
    assert not numpy_loaded_after("import reinhardt")


@pytest.mark.parametrize("argv, samples", [
    (["kernel", "--k", "1,-1"], False),
    (["series", "--k", "1,-1", "--box", "0:3,-3:3"], False),  # closed form
    (["series", "--k", "1,1,-1", "--box", "0:2,0:2,-2:2"], False),  # model
    (["series", "--k", "2,1,-3", "--box", "0:2,0:2,-2:2"], False),  # oracle
    (["norm", "--k", "2,-1", "--alpha", "1,0", "--oracle", "exact"], False),
    (["verify", "--suite", "combinatorics"], False),
    (["norm", "--k", "1,-1", "--alpha", "0,0", "--oracle", "mc", "--samples", "1000"], True),
], ids=["kernel", "series-closed-form", "series-model", "series-oracle", "norm-exact",
        "verify-combinatorics", "norm-mc"])
def test_only_the_commands_that_sample_load_numpy(argv, samples):
    code = f"import contextlib, io, reinhardt.cli\nwith contextlib.redirect_stdout(io.StringIO()):\n    assert reinhardt.cli.main({argv!r}) == 0"
    assert numpy_loaded_after(code) == samples


def imported_modules(path: Path) -> set[str]:
    """The last dotted component of every module a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module)
            else:  # from . import x
                names.update(alias.name for alias in node.names)
    return {name.rsplit(".", 1)[-1] for name in names}


def used_names(path: Path) -> set[str]:
    """Every name a source file imports, reads or looks up as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_shadow_oracle_shares_no_code_with_the_closed_forms():
    # every closed form keeps a cross-check that shares no code with it
    path = Path(reinhardt.shadow.__file__)
    imported = imported_modules(path)
    assert "exact" in imported  # the parser sees the relative imports
    assert imported.isdisjoint({"norms", "kernels", "series", "counting"})
    # the parametric P/Q is built and evaluated in the module's own int
    # arithmetic, with nothing of the polynomial code that builds R and S
    used = used_names(path)
    assert {"FracExpSum", "integrate_one_var"} <= used
    assert used.isdisjoint({"SparsePoly", "substitute", "divide_exact_by_var"})
    # the chamber is written from the shadow's cone, not from the model's
    # finiteness predicate or norm formula
    assert used.isdisjoint({"norm_finite_from", "build_RS", "monomial_norm_model"})


def test_the_model_finiteness_rule_is_named_in_norms_only():
    # series and verify read a row's finite part from RSPair.row, in beta;
    # no other module restates the rule or shifts its coordinates around it
    paths = sorted(Path(reinhardt.__file__).parent.glob("*.py"))
    assert "norm_finite_from" in used_names(Path(reinhardt.norms.__file__))
    naming = [path.name for path in paths if path.name != "norms.py" and "norm_finite_from" in used_names(path)]
    assert naming == []


def test_sampling_has_no_kernel_evaluator_of_its_own():
    # kernel_values calls the kernel's one float evaluator, float_parts; it
    # reads no numerator term or exponent itself
    used = used_names(Path(reinhardt.sampling.__file__))
    assert used.isdisjoint({"sorted_terms", "numerator", "abs_k"})


def test_sampling_builds_no_kernel_of_its_own():
    # the float checks take the kernels they check, so a kernel that is not
    # rational can be checked as it is; verify builds the ones it passes in
    used = used_names(Path(reinhardt.sampling.__file__))
    assert used.isdisjoint({"kernel_signature_one", "kernel_model_sig1", "model_spec", "_float_parts"})


def test_no_module_imports_a_private_name_from_kernels():
    # the float evaluator is RationalKernel.float_parts, reached through the kernel
    private = [
        (path.name, alias.name)
        for path in sorted(Path(reinhardt.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").rsplit(".", 1)[-1] == "kernels"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_series_has_no_integer_form_of_its_own():
    # kernel numerators are integer polynomials, so expand_closed_form sums
    # their coefficients as they are, with no common denominator to clear
    used = used_names(Path(reinhardt.series.__file__))
    assert used.isdisjoint({"lcm", "denominator"})


def calls_to(path: Path, name: str) -> list[int]:
    """The line of every call to the bare name ``name`` in a source file."""
    return [
        node.lineno for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    ]


def test_exact_layer_never_calls_int():
    # int(1.5) is 1: entries are checked with isinstance and refused, never coerced
    for module in (reinhardt.exact, reinhardt.domains):
        assert calls_to(Path(module.__file__), "int") == [], module.__name__


def test_series_leaves_the_window_value_type_to_the_exact_layer():
    # every window value is int-when-integral by way of exact._exact_ratio;
    # series builds no Fraction of its own
    path = Path(reinhardt.series.__file__)
    assert calls_to(path, "Fraction") == []
    assert "_exact_ratio" in used_names(path)
