"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import io
import itertools
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reinhardt.cli
from reinhardt.cli import _absorb_negative_values, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- kernel ---------------------------------------------------------------------


def test_kernel_plain(capsys):
    code, out, _ = run(capsys, "kernel", "--k", "1,-1")
    assert code == 0
    assert out == "1/π² · t2 / ((t2 − t1)² (1 − t2)²)\n"


def test_kernel_latex(capsys):
    code, out, _ = run(capsys, "kernel", "--k", "1,-2", "--format", "latex")
    assert code == 0
    assert out.startswith("\\frac{")


def test_kernel_json(capsys):
    code, out, _ = run(capsys, "kernel", "--k", "1,-2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["denom_main"] == {"k1": 1, "kb": [2]}
    assert payload["numerator"] == [{"exp": [0, 2], "coef": "1"}]


def test_kernel_signature_two_points_to_series(capsys):
    code, _, err = run(capsys, "kernel", "--k", "1,1,-1")
    assert code == 2
    assert "signature 2" in err
    assert "series" in err


def test_kernel_rejects_degenerate_vector(capsys):
    code, out, err = run(capsys, "kernel", "--k", "1,0,-1")
    assert code == 2
    assert out == ""
    assert err == "error: exponent entries must be nonzero\n"


def test_kernel_rejects_malformed_ints(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "kernel", "--k", "1,x")
    assert exc.value.code == 2


# -- norm -----------------------------------------------------------------------


def test_norm_exact(capsys):
    code, out, _ = run(capsys, "norm", "--k", "1,-1", "--alpha", "0,0")
    assert code == 0
    assert out == "1/2 · π^2\n"


def test_norm_exact_negative_alpha(capsys):
    # a leading minus in the value must not confuse the flag parser
    code, out, _ = run(capsys, "norm", "--k", "1,-1", "--alpha", "-1,0")
    assert code == 0
    assert out == "infinite\n"
    code, out, _ = run(capsys, "norm", "--k", "1,-1", "--alpha", "0,-1")
    assert out == "1 · π^2\n"


def test_norm_mc_line_format(capsys):
    code, out, _ = run(
        capsys, "norm", "--k", "1,-1", "--alpha", "0,0",
        "--oracle", "mc", "--samples", "50000", "--seed", "7",
    )
    assert code == 0
    assert "±" in out
    assert "samples=50000" in out
    assert "seed=7" in out
    # deterministic: same invocation, same digits
    _, again, _ = run(
        capsys, "norm", "--k", "1,-1", "--alpha", "0,0",
        "--oracle", "mc", "--samples", "50000", "--seed", "7",
    )
    assert again == out


def test_norm_mc_too_few_samples_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "norm", "--k", "1,-1", "--alpha", "0,0", "--oracle", "mc", "--samples", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_norm_mc_of_an_infinite_norm_reports_divergence(capsys):
    # the exact finiteness test runs first, so no finite mean of a divergent integral is printed
    code, out, err = run(
        capsys, "norm", "--k", "1,-1", "--alpha", "-1,0", "--oracle", "mc", "--samples", "100000",
    )
    assert code == 0
    assert out == "infinite\n"
    assert err == ""


@pytest.mark.parametrize("command", [
    ("verify", "--suite", "bell"),
    ("verify", "--suite", "reproducing"),
    ("norm", "--k", "1,-1", "--alpha", "0,0", "--oracle", "mc"),
])
@pytest.mark.parametrize("seed", ["-1", "abc"])
def test_seed_must_be_a_non_negative_integer(capsys, command, seed):
    with pytest.raises(SystemExit) as exc:
        run(capsys, *command, "--seed", seed)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be a non-negative integer" in err
    assert "Traceback" not in err


def test_norm_follows_the_callers_coordinate_order(capsys):
    # --k -1,1 is {|z2| < |z1|}: 1/z2 is not square-integrable there, 1/z1 is
    assert run(capsys, "norm", "--k", "-1,1", "--alpha", "0,-1")[1] == "infinite\n"
    assert run(capsys, "norm", "--k", "-1,1", "--alpha", "-1,0")[1] == "1 · π^2\n"
    assert run(capsys, "norm", "--k", "-1,1", "--alpha", "0,-1", "--oracle", "mc")[1] == "infinite\n"
    mc = ("--oracle", "mc", "--samples", "20000", "--seed", "7")
    swapped = run(capsys, "norm", "--k", "-1,1", "--alpha", "-1,0", *mc)
    assert swapped == run(capsys, "norm", "--k", "1,-1", "--alpha", "0,-1", *mc)
    assert swapped[0] == 0 and "±" in swapped[1]


def test_norm_alpha_length_mismatch(capsys):
    code, _, err = run(capsys, "norm", "--k", "1,-1", "--alpha", "0,0,0")
    assert code == 2
    assert "--alpha" in err


# -- series ---------------------------------------------------------------------


def test_series_csv_hartogs(capsys):
    code, out, _ = run(capsys, "series", "--k", "1,-1", "--box", "0:4,-4:4")
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 5 * 9  # every box point, zeros included, no header
    table = {}
    for row in rows:
        *alpha, coef = row.split(",")
        table[tuple(int(a) for a in alpha)] = coef
    assert table[(0, 0)] == "2"
    assert table[(0, -1)] == "1"
    assert table[(4, 4)] == "50"
    assert table[(0, -2)] == "0"


def test_series_json(capsys):
    code, out, _ = run(capsys, "series", "--k", "1,-1", "--box", "0:1,0:1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["box"] == [[0, 1], [0, 1]]
    assert {"exp": [0, 0], "coef": "2"} in payload["coefficients"]


def test_series_model_signature_two(capsys):
    code, out, _ = run(capsys, "series", "--k", "1,1,-1", "--box", "0:0,0:0,0:0")
    assert code == 0
    assert out.strip() == "0,0,0,4/3"


def test_series_oracle_route_for_general_signature_two(capsys):
    code, out, _ = run(capsys, "series", "--k", "2,3,-4", "--box", "0:0,0:0,0:0")
    assert code == 0
    assert out.strip() == "0,0,0,21/13"


@pytest.mark.parametrize("k, box, perm", [
    ("-1,2", "0:1,0:1", (1, 0)),  # closed form
    ("-3,2,-1", "-1:1,0:2,-2:0", (1, 0, 2)),  # closed form, three variables
    ("-1,1,1", "-1:0,0:1,0:2", (1, 2, 0)),  # model, signature two
    ("-4,2,3", "0:0,0:1,-1:0", (1, 2, 0)),  # oracle, signature two
])
def test_series_follows_the_callers_coordinate_order(capsys, k, box, perm):
    # the same domain with its entries listed in normalized order gives the
    # same coefficients, relabelled; rows run over the caller's box in order
    ranges = box.split(",")
    normal_k = ",".join(k.split(",")[p] for p in perm)
    normal_box = ",".join(ranges[p] for p in perm)

    def table(out):
        rows = [row.rsplit(",", 1) for row in out.strip().split("\n")]
        return [(tuple(int(a) for a in alpha.split(",")), coef) for alpha, coef in rows]

    code, out, _ = run(capsys, "series", "--k", k, "--box", box)
    assert code == 0
    caller = table(out)
    bounds = [[int(x) for x in r.split(":")] for r in ranges]
    assert [alpha for alpha, _ in caller] == list(itertools.product(*(range(lo, hi + 1) for lo, hi in bounds)))
    normal = dict(table(run(capsys, "series", "--k", normal_k, "--box", normal_box)[1]))
    assert {tuple(alpha[p] for p in perm): coef for alpha, coef in caller} == normal

    payload = json.loads(run(capsys, "series", "--k", k, "--box", box, "--format", "json")[1])
    assert payload["box"] == bounds
    exps = [tuple(entry["exp"]) for entry in payload["coefficients"]]
    assert exps == sorted(exps)
    assert {exp: entry["coef"] for exp, entry in zip(exps, payload["coefficients"])} == {
        alpha: coef for alpha, coef in caller if coef != "0"
    }


def test_series_box_validation(capsys):
    code, _, err = run(capsys, "series", "--k", "1,-1", "--box", "0:4")
    assert code == 2
    assert "--box" in err
    code, _, err = run(capsys, "series", "--k", "1,-1", "--box", "4:0,0:4")
    assert code == 2
    with pytest.raises(SystemExit):
        run(capsys, "series", "--k", "1,-1", "--box", "0-4,0:4")


# -- verify -----------------------------------------------------------------------


def test_verify_single_suite(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--suite", "rationality-diagnostic",
        "--seed", "11", "--report", str(report_path),
    )
    assert code == 0
    assert out.startswith("seed 11\n")
    assert "suite rationality-diagnostic:" in out
    assert "ok" in out and "FAIL" not in out
    assert "all 5 checks passed" in out

    payload = json.loads(report_path.read_text())
    assert payload["passed"] is True
    assert payload["seed"] == 11
    assert payload["suites"][0]["name"] == "rationality-diagnostic"
    assert all(check["passed"] for check in payload["suites"][0]["checks"])


def test_verify_unwritable_report_is_a_usage_error_before_any_suite_runs(capsys, tmp_path, monkeypatch):
    def no_suites(*args, **kwargs):
        raise AssertionError("ran a suite before opening the report")

    monkeypatch.setattr(reinhardt.cli, "run_suites", no_suites)
    report_path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "verify", "--suite", "bell", "--report", str(report_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write the report: ")
    assert err.count("\n") == 1
    assert not report_path.parent.exists()


def test_verify_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--suite", "nonsense")
    assert exc.value.code == 2


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys)
    assert exc.value.code == 2


# -- output that cannot be written -------------------------------------------------

# each case runs in a child process with buffered stdout, as in a plain shell:
# only there is the output still in the buffer when the interpreter exits
CHILD_ENV = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(reinhardt.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")


def child(*argv, **kwargs):
    command = [sys.executable, "-m", "reinhardt.cli", *argv]
    return subprocess.Popen(command, env=CHILD_ENV, stderr=subprocess.PIPE, **kwargs)


def assert_one_error_line(code, err: bytes, starts="error: "):
    text = err.decode()
    assert code == 2, text
    assert text.startswith(starts) and text.count("\n") == 1, text
    assert "Traceback" not in text and "Exception ignored" not in text


def test_a_closed_pipe_is_one_error_line():
    # 180,901 rows: far more than a pipe holds, so the child writes after the close
    proc = child("series", "--k", "1,-1", "--box", "0:300,-300:300", stdout=subprocess.PIPE)
    assert proc.stdout.readline() == b"0,-300,0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert_one_error_line(proc.wait(), err)


@needs_dev_full
def test_stdout_on_a_full_disk_is_one_error_line():
    with open("/dev/full", "wb") as full:
        proc = child("kernel", "--k", "1,-1", "--format", "json", stdout=full)
        _, err = proc.communicate()
    assert_one_error_line(proc.returncode, err)


@needs_dev_full
def test_a_report_on_a_full_disk_is_one_error_line_and_no_check_lines():
    proc = child("verify", "--suite", "rationality-diagnostic", "--report", "/dev/full",
                 stdout=subprocess.PIPE)
    out, err = proc.communicate()
    assert out == b""
    assert_one_error_line(proc.returncode, err, starts="error: cannot write the report: ")


def test_a_process_without_stdout_is_not_an_error(monkeypatch):
    # started with stdout closed, Python sets sys.stdout to None and print() writes nothing
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["kernel", "--k", "1,-1"]) == 0


# -- the exit contract on drawn commands -------------------------------------------

MALFORMED = st.sampled_from(["", "x", "1,x", "1,,-1", "1.5,-1", "0-4", "a:b", "1:2:3", ":", "-"])
DEGENERATE_K = st.sampled_from(["1,0,-1", "0", "3", "2,5", "-1,-4", "0,0"])


def _csv(values) -> str:
    return ",".join(map(str, values))


@st.composite
def commands(draw):
    """argv for ``kernel``, ``norm`` or ``series``: mostly well-formed, with small work.

    About one value in eight is malformed, and about one ``--alpha`` or
    ``--box`` in four has the wrong length.  Sizes stay small (|k| <= 7,
    n <= 4, at most 256 box points, at most 10**4 samples), because no
    command bounds its own work yet.
    """
    def text(well_formed: str, malformed=MALFORMED) -> str:
        return well_formed if draw(st.sampled_from(range(8))) else draw(malformed)

    positive = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
    negative = draw(st.lists(st.integers(-7, -1), min_size=1, max_size=4 - len(positive)))
    k = draw(st.permutations(positive + negative))
    n = draw(st.sampled_from([len(k)] * 6 + [len(k) + 1, len(k) - 1]))
    command = draw(st.sampled_from(["kernel", "norm", "series"]))
    argv = [command, "--k", text(_csv(k), st.one_of(MALFORMED, DEGENERATE_K))]
    if command == "kernel":
        argv += ["--format", text(draw(st.sampled_from(["plain", "latex", "json"])))]
    elif command == "norm":
        argv += ["--alpha", text(_csv(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))))]
        if draw(st.booleans()):
            seed = text(str(draw(st.integers(0, 10 ** 6))), st.sampled_from(["-1", "abc"]))
            samples = text(str(draw(st.integers(2, 10 ** 4))), st.sampled_from(["-1", "0", "1", "many"]))
            argv += ["--oracle", "mc", "--samples", samples, "--seed", seed]
    else:
        ranges = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-1, 3)), min_size=n, max_size=n))
        argv += ["--box", text(_csv(f"{lo}:{lo + width}" for lo, width in ranges))]
        argv += ["--format", text(draw(st.sampled_from(["csv", "json"])))]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=commands())
def test_every_drawn_command_exits_0_or_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code, parsed = main(argv), True
        except SystemExit as exc:  # argparse's own refusal, before any handler runs
            code, parsed = exc.code, False
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err
    if code == 0:
        assert out and err == "", (argv, err)
    else:
        assert out == "", argv
        lines = err.splitlines()
        assert "error:" in lines[-1], (argv, err)
        assert not parsed or (len(lines) == 1 and lines[0].startswith("error: ")), (argv, err)


# -- argv preprocessing -------------------------------------------------------------


def test_absorb_negative_values():
    argv = ["norm", "--k", "1,-1", "--alpha", "-1,0", "--oracle", "exact"]
    merged = _absorb_negative_values(argv)
    # only values whose first character is a minus need the glue
    assert merged == ["norm", "--k", "1,-1", "--alpha=-1,0", "--oracle", "exact"]
    # flags given as --flag=value pass through untouched
    assert _absorb_negative_values(["series", "--box=-1:1"]) == ["series", "--box=-1:1"]
    # a flag at the end of argv has nothing to absorb
    assert _absorb_negative_values(["norm", "--alpha"]) == ["norm", "--alpha"]