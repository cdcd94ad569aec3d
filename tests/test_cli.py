import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import obsv_lab
from obsv_lab.cli import BLAS_THREAD_VARS, main
from obsv_lab.sim import DIST_TOL_DEFAULT, DIVERGED_TOL

GOOD_FILE = """\
# damped point sensor
n = 1
gamma[1] = exp(-x^2)
F[1] = -z1
b = [1.0]
"""

ZERO_B_FILE = GOOD_FILE.replace("b = [1.0]", "b = [0.0]")
BAD_EXPR_FILE = GOOD_FILE.replace("exp(-x^2)", "exp(-x^2")
HUGE_F_FILE = GOOD_FILE.replace("F[1] = -z1", "F[1] = 1e400*z1")
HUGE_GAMMA_FILE = GOOD_FILE.replace("exp(-x^2)", "1e400*x")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout; stderr: {err}"
    return code, json.loads(out)


def _gain_file(tmp_path, gain):
    path = tmp_path / "sys.txt"
    path.write_text(GOOD_FILE.replace("exp(-x^2)", gain))
    return str(path)


# ---------------------------------------------------------------------------
# validate


def test_validate_preset_ok(capsys):
    code, doc = run_json(capsys, "validate", "--system", "preset:fish-1d-gauss")
    assert code == 0
    assert doc["report"]["valid"] is True


def test_validate_file_ok(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text(GOOD_FILE)
    code, doc = run_json(capsys, "validate", "--system", str(path))
    assert code == 0


def test_validate_zero_gain_column(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text(ZERO_B_FILE)
    code, doc = run_json(capsys, "validate", "--system", str(path))
    assert code == 1
    assert any("b_1" in v for v in doc["report"]["violations"])


def test_validate_format_error_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text(GOOD_FILE.replace("n = 1", "n = one"))
    assert run(capsys, "validate", "--system", str(path)) == (
        2, "", "error: line 2: n must be an integer, got 'one'\n")


def test_validate_refuses_a_digit_group_underscore_in_n(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text(GOOD_FILE.replace("n = 1", "n = 0_1"))
    assert run(capsys, "validate", "--system", str(path)) == (
        2, "", "error: line 2: n must be an integer, got '0_1'\n")


def test_validate_non_finite_b_is_invalid(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text(GOOD_FILE.replace("b = [1.0]", "b = [inf]"))
    assert run(capsys, "validate", "--system", str(path), "--format", "text") == (
        1, "invalid:\n  b_1 is not finite\n", "")


def test_validate_malformed_expression(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text(BAD_EXPR_FILE)
    code, out, err = run(capsys, "validate", "--system", str(path))
    assert code == 2
    assert "line" in err or "offset" in err


@pytest.mark.parametrize("text, line, argv", [
    (HUGE_F_FILE, 4, ("validate",)),
    (HUGE_F_FILE, 4, ("simulate", "--state", "0,1", "--t-end", "0.1")),
    (HUGE_GAMMA_FILE, 3, ("separate", "--state", "0,1", "--state2", "0,2")),
    *((GOOD_FILE.replace("exp(-x^2)", f"x + {c}"), 3, ("validate",))
      for c in ("exp(1000)", "ln(0)", "1e300*1e300", "1/0")),
])
def test_non_finite_literal_is_a_usage_error(tmp_path, capsys, text, line, argv):
    path = tmp_path / "sys.txt"
    path.write_text(text)
    code, out, err = run(capsys, *argv, "--system", str(path))
    assert code == 2
    assert f"line {line}" in err
    assert "a finite number" in err


def test_overflowing_constant_power_is_a_usage_error(tmp_path, capsys):
    path = _gain_file(tmp_path, "x + 10^400")
    code, out, err = run(capsys, "observable", "--system", path)
    assert code == 2
    assert out == ""
    assert "line 3" in err
    assert "a finite number, found '10^400'" in err
    assert "Traceback" not in err


def _long_gain(terms: int) -> str:
    return " + ".join(["exp(-x^2)"] + [f"{k}e-3*x" for k in range(1, terms)])


@pytest.mark.parametrize("argv", [
    ("observable",),
    ("simulate", "--state", "0,1", "--t-end", "0.1"),
], ids=lambda argv: argv[0])
def test_long_gain_runs(tmp_path, capsys, argv):
    path = _gain_file(tmp_path, _long_gain(250))
    code, out, err = run(capsys, *argv, "--system", path)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("gain, expected", [
    (_long_gain(1200), "an expression at most 300 operations deep"),
    ("sin(" * 101 + "x" + ")" * 101, "at most 100 nested parentheses"),
], ids=["long", "nested"])
@pytest.mark.parametrize("command", ["validate", "observable"])
def test_too_deep_gain_is_a_usage_error(tmp_path, capsys, gain, expected, command):
    path = _gain_file(tmp_path, gain)
    code, out, err = run(capsys, command, "--system", path)
    assert (code, out) == (2, "")
    assert "line 3" in err
    assert expected in err
    assert "Traceback" not in err


def test_unknown_preset(capsys):
    code, out, err = run(capsys, "validate", "--system", "preset:nope")
    assert code == 2
    assert "fish-1d-gauss" in err


def test_missing_system_flag(capsys):
    code, out, err = run(capsys, "observable")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--out", "{tmp}/missing/r.json"),
    ("observable", "--system", "{tmp}"),
], ids=["unwritable-out", "directory-system"])
def test_os_error_is_a_usage_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def src_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(pathlib.Path(obsv_lab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def loaded_after_cli_import(module: str) -> bool:
    probe = f"import sys, obsv_lab.cli; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip() == "True"


def test_cli_import_leaves_scipy_out():
    assert not loaded_after_cli_import("scipy")


def test_cli_import_leaves_dataclasses_out():
    # the records define no generated methods, so the import compiles none
    assert not loaded_after_cli_import("dataclasses")


# runs the CLI as ``python -m obsv_lab.cli ARGS`` does, then writes to the
# last line of stderr its exit code, whether numpy is loaded, and which of
# sim and gramian ran (a module bound to run at first use is not yet of
# type ModuleType)
LOAD_PROBE = """
import json, runpy, sys, types
try:
    runpy.run_module("obsv_lab.cli", run_name="__main__", alter_sys=True)
except SystemExit as done:
    code = done.code
ran = [m for m in ("obsv_lab.obsv", "obsv_lab.lie", "obsv_lab.sim", "obsv_lab.gramian")
       if type(sys.modules[m]) is types.ModuleType]
print(json.dumps([code, "numpy" in sys.modules, ran]), file=sys.stderr)
"""


OBSV, LIE, SIM, GRAMIAN = "obsv_lab.obsv", "obsv_lab.lie", "obsv_lab.sim", "obsv_lab.gramian"


@pytest.mark.parametrize("argv, code, numpy_loaded, ran", [
    ("observable --system preset:fish-1d-gauss", 0, False, [OBSV]),
    ("separate --system preset:fish-1d-gauss --state 0,1 --state2 0,2", 0, False, [OBSV]),
    ("separate --system preset:periodic-sin --state 0,0 --state2 2*pi,0", 1, False, [OBSV]),
    ("separate --system preset:fish-1d-gauss --state 0,1 --state2 0,1.0000000000001", 3, False,
     [OBSV]),
    ("validate --system preset:fish-1d-gauss", 0, False, []),
    ("observable", 2, False, []),
    ("rank --system preset:fish-1d-gauss --state 0,1", 0, True, [OBSV]),
    ("simulate --system preset:fish-1d-gauss --state 0,0 --input const:1 --t-end 10 "
     "--format csv --out traj.csv", 0, False, [SIM]),
    ("distinguish --system preset:sin-drift --state 0,0 --state2 6.2832,0 --input sin:1,1,0",
     0, False, [SIM]),
    ("gramian --system preset:fish-1d-gauss --state 0,0 --input zero --input sin:1,6.2832,0",
     0, True, [SIM, GRAMIAN]),
    ("verify --seed 0", 0, False, [OBSV, LIE, SIM]),
    ("rank --system preset:fish-1d-gauss --state 0,1 --format csv", 2, False, []),
    ("verify --format csv", 2, False, []),
    ("simulate --system preset:fish-1d-gauss --state 0,1e308 --input const:1", 4, False, [SIM]),
    ("distinguish --system preset:fish-1d-gauss --state 0,1e308 --state2 0,1 --input const:1",
     4, False, [SIM]),
    ("simulate --system preset:fish-1d-gauss --state 0,0 --input sin:1,1e308", 4, False, [SIM]),
], ids=["observable", "separate-0", "separate-1", "separate-3", "validate", "usage", "rank",
        "simulate", "distinguish", "gramian", "verify", "rank-csv", "verify-csv",
        "simulate-blow-up", "distinguish-blow-up", "simulate-no-input-value"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, code, numpy_loaded, ran):
    # the symbolic commands answer without numpy, and only verify evaluates
    # words (lie); simulate and distinguish run the integrator on its row
    # buffer, and locate a failing run there, without numpy or the symbolic
    # modules; gramian's SVD and rank's SVD need numpy; a CSV asked of a
    # command that has none is refused before the command runs
    proc = subprocess.run([sys.executable, "-c", LOAD_PROBE, *argv.split()], env=src_env(),
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert json.loads(proc.stderr.splitlines()[-1]) == [code, numpy_loaded, ran], proc.stderr


def test_the_script_runs_blas_on_one_thread_unless_told_otherwise(tmp_path):
    # numpy loads inside the command, after the script has set the counts
    probe = LOAD_PROBE + f"print(json.dumps([os.environ.get(v) for v in {BLAS_THREAD_VARS!r}]))"
    probe = probe.replace("import json,", "import json, os,")
    argv = ["rank", "--system", "preset:fish-1d-gauss", "--state", "0,1"]
    env = {k: v for k, v in src_env().items() if k not in BLAS_THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert json.loads(proc.stdout.splitlines()[-1]) == ["1", "1", "1"], proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == [0, True, [OBSV]]
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env={**env, "OMP_NUM_THREADS": "2"},
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert json.loads(proc.stdout.splitlines()[-1]) == ["1", "2", "1"], proc.stderr


def test_the_word_module_imports_no_numpy():
    probe = "import sys, obsv_lab.lie; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_the_package_import_loads_no_submodule():
    probe = "import sys, obsv_lab; print([m for m in sys.modules if m.startswith('obsv_lab.')])"
    proc = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# the parser


def test_options_may_come_before_the_command(capsys):
    after = run(capsys, "rank", "--system", "preset:fish-1d-gauss", "--state", "0,1")
    before = run(capsys, "--system", "preset:fish-1d-gauss", "--state", "0,1", "rank")
    between = run(capsys, "--system", "preset:fish-1d-gauss", "rank", "--state", "0,1")
    assert after[0] == 0
    assert before == after == between


CHOICES = "'validate', 'observable', 'separate', 'rank', 'simulate', 'distinguish', 'gramian', 'verify'"


@pytest.mark.parametrize("argv, message", [
    ((), "the following arguments are required: command"),
    (("--system", "preset:fish-1d-gauss"), "the following arguments are required: command"),
    (("frobnicate",), f"argument command: invalid choice: 'frobnicate' (choose from {CHOICES})"),
    (("--system", "preset:fish-1d-gauss", "Rank"),
     f"argument command: invalid choice: 'Rank' (choose from {CHOICES})"),
], ids=["none", "options-only", "unknown", "unknown-after-options"])
def test_missing_or_unknown_command_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"obsv-lab: error: {message}"


def test_calls_in_one_process_do_not_share_the_input_list(capsys):
    argv = ("gramian", "--system", "preset:fish-1d-gauss", "--state", "0,0", "--t-end", "0.1")
    _, first = run_json(capsys, *argv, "--input", "zero", "--input", "const:1")
    _, second = run_json(capsys, *argv)
    _, third = run_json(capsys, *argv, "--input", "sin:1,1")
    assert first["config"]["inputs"] == ["zero", "const:1"]
    assert second["config"]["inputs"] == []
    assert third["config"]["inputs"] == ["sin:1,1"]
    assert [e["input"] for e in second["report"]["ranking"]] == ["zero"]


# ---------------------------------------------------------------------------
# observable / separate / rank


def test_observable_periodic(capsys):
    code, doc = run_json(capsys, "observable", "--system", "preset:periodic-sin")
    assert code == 1
    assert doc["report"]["verdict"] == "not-observable"
    gain = doc["report"]["gains"][0]
    assert gain["classification"] == "periodic"
    assert abs(gain["period"] - 2 * math.pi) < 1e-6


def test_observable_aperiodic(capsys):
    code, doc = run_json(capsys, "observable", "--system", "preset:fish-1d-gauss")
    assert code == 0
    assert doc["report"]["verdict"] == "observable"


@pytest.mark.parametrize("gain, code, err", [
    ("1/(x + 20)", 0, ""),
    ("1/(x + 2.5)", 0, ""),
    ("exp(exp(x))", 0, ""),
    ("x + 1/0", 2, "error: line 3: gamma[1]: at offset 4: expected a finite number, found '1/0'\n"),
], ids=["pole-at-the-window-edge", "pole-inside-the-window", "overflow-past-the-probe",
        "constant-pole"])
def test_observable_gain_with_a_pole_or_an_overflow(tmp_path, capsys, gain, code, err):
    # a pole is an isolated point and an overflow a limit of floats, not a
    # domain fault: the verdict stands
    path = _gain_file(tmp_path, gain)
    got, out, stderr = run(capsys, "observable", "--system", path)
    assert (got, stderr) == (code, err)


@pytest.mark.parametrize("gain", ["ln(x)", "sqrt(x)", "ln(x^2 - 1)", "ln(x^2 - 1e-6)",
                                  "ln(1.1 + sin(x)*cos(x) + 0.5*sin(x))"])
def test_observable_on_an_unproven_domain_is_undetermined(tmp_path, capsys, gain):
    # undefined on part of R, wherever that part lies (the last is not, but
    # no interval bound shows it): no verdict is claimed
    path = _gain_file(tmp_path, gain)
    code, doc = run_json(capsys, "observable", "--system", path)
    assert (code, doc["report"]["verdict"]) == (3, "undetermined")
    assert doc["report"]["gains"][0] == {"gain": 1, "classification": "undetermined",
                                         "period": None, "rule": "domain"}
    code, out, _ = run(capsys, "observable", "--system", path, "--format", "text")
    assert out == "verdict: undetermined\ngain 1: undetermined (rule: domain)\n"


@pytest.mark.parametrize("gain, message", [("x*x", "non-finite result"), ("x^2", "overflow")])
@pytest.mark.parametrize("argv", [
    ("rank", "--state", "1e200,1"),
    ("separate", "--state", "1e200,1", "--state2", "3e200,1"),
    ("simulate", "--state", "1e200,1", "--t-end", "0.01"),
    ("distinguish", "--state", "1e200,1", "--state2", "3e200,1", "--t-end", "0.01"),
], ids=["rank", "separate", "simulate", "distinguish"])
def test_an_overflowing_gain_is_a_numeric_failure(tmp_path, capsys, gain, message, argv):
    # x^2 raises OverflowError in floats while x*x quietly gives inf: both
    # must stop with the subexpression, in the gain's x or the system's x1
    path = _gain_file(tmp_path, gain)
    culprit = gain if argv[0] == "separate" else gain.replace("x", "x1")
    assert run(capsys, *argv, "--system", path) == (4, "", f"numeric failure: {message} in {culprit}\n")


def test_rank_where_a_tangent_overflows(tmp_path, capsys):
    # d/dx exp(x^2) = 2x exp(x^2) overflows for x near 26.6 while exp(x^2)
    # stays finite.  Moving, the overflow reaches row 1 and stops the command
    # as a numeric failure; pytest turns any numpy warning into an error
    path = _gain_file(tmp_path, "exp(x^2)")
    assert run(capsys, "rank", "--system", path, "--state", "26.5,1") == (
        4, "", "numeric failure: non-finite gradient at order 1 in exp(x1^2)*z1\n")
    # at rest the overflowed tangent only meets the velocity's zero series,
    # so the rows are finite: d/dz L_f^k h = (-1)^k exp(x^2), d/dx of each is
    # 0.  Order 1 adds no direction to order 0, so the rows stop there, and
    # a row near the float ceiling still counts toward the rank
    code, doc = run_json(capsys, "rank", "--system", path, "--state", "26.6,0")
    assert (code, doc["report"]["rank"], doc["report"]["dim"]) == (1, 1, 2)
    sigma = doc["report"]["singular_values"][0]
    assert sigma == pytest.approx(math.sqrt(2.0) * math.exp(26.6 ** 2), rel=1e-12)


def test_observable_reports_the_deciding_rule(capsys):
    code, doc = run_json(capsys, "observable", "--system", "preset:periodic-sin")
    gain = doc["report"]["gains"][0]
    assert gain["rule"] == "periodic"
    assert gain["period"] == 2 * math.pi
    code, out, _ = run(capsys, "observable", "--system", "preset:sin-drift", "--format", "text")
    assert code == 0
    assert out.splitlines()[1] == "gain 1: aperiodic (rule: limit)"


@pytest.mark.parametrize("gain, period, exact", [
    ("sin(x/10)", "20*pi", 20 * math.pi),
    ("cos(0.1*x) + 0.5", "20*pi", 20 * math.pi),
    ("tan(x/4)", "4*pi", 4 * math.pi),
    ("sin(0.1*x) + sin(0.3*x)", "20*pi", 20 * math.pi),
])
def test_observable_and_separate_agree_on_long_periods(tmp_path, capsys, gain, period, exact):
    path = _gain_file(tmp_path, gain)
    code, doc = run_json(capsys, "observable", "--system", path)
    assert (code, doc["report"]["verdict"]) == (1, "not-observable")
    T = doc["report"]["gains"][0]["period"]
    assert abs(T - exact) <= 1e-11
    for shift in (period, repr(T)):
        code, doc = run_json(capsys, "separate", "--system", path,
                             "--state", "0,0", "--state2", f"{shift},0")
        assert (code, doc["report"]["verdict"]) == (1, "indistinguishable-by-construction")


@pytest.mark.parametrize("gain", ["sin(x^2)", "x*sin(x)", "sin(x) + sin(sqrt(2)*x)"])
def test_observable_without_a_proof_is_undetermined(tmp_path, capsys, gain):
    path = _gain_file(tmp_path, gain)
    code, doc = run_json(capsys, "observable", "--system", path)
    assert (code, doc["report"]["verdict"]) == (3, "undetermined")
    assert doc["report"]["gains"][0] == {"gain": 1, "classification": "undetermined",
                                         "period": None, "rule": "none"}
    code, out, _ = run(capsys, "observable", "--system", path, "--format", "text")
    assert "gain 1: undetermined (rule: none)" in out


def test_a_kink_outside_the_window_is_no_period(tmp_path, capsys):
    # sin(|x - 100|): a sine on the window, but no period on all of R
    path = _gain_file(tmp_path, "sin(sqrt((x - 100)^2))")
    code, doc = run_json(capsys, "observable", "--system", path)
    assert (code, doc["report"]["gains"][0]["rule"]) == (3, "none")
    code, doc = run_json(capsys, "separate", "--system", path,
                         "--state", "100-pi,1", "--state2", "100+pi,1")
    assert doc["report"]["verdict"] != "indistinguishable-by-construction"


@pytest.mark.parametrize("gain, period, shift", [
    # 2*pi shifts sin(x/64) by a quarter turn: the gain values differ by 1e-10
    ("sin(x) + 1e-9*sin(x/64)", 128 * math.pi, "2*pi"),
    # pi negates sin(x), and so -sin(x)
    ("-sin(x)", 2 * math.pi, "pi"),
])
def test_a_shift_short_of_the_period_is_no_construction(tmp_path, capsys, gain, period, shift):
    path = _gain_file(tmp_path, gain)
    code, doc = run_json(capsys, "observable", "--system", path)
    assert (code, doc["report"]["gains"][0]["period"]) == (1, period)
    code, doc = run_json(capsys, "separate", "--system", path, "--state", "0,1",
                         "--state2", f"{shift},1")
    assert doc["report"]["verdict"] != "indistinguishable-by-construction"


@pytest.mark.parametrize("gain, code, classification, rule", [
    ("1e-10*x", 0, "aperiodic", "log-exp"),
    ("1e-10*x + 1", 0, "aperiodic", "log-exp"),
    ("exp(x - 100)", 0, "aperiodic", "log-exp"),
    ("exp(-(x - 100)^2)", 3, "undetermined", "log-exp"),
    ("sin(x + sqrt((x - 100)^2))", 3, "undetermined", "none"),
], ids=["1e-10*x", "1e-10*x + 1", "exp(x - 100)", "exp(-(x - 100)^2)", "sin(x + sqrt((x - 100)^2))"])
def test_a_gain_flat_on_the_window_is_not_constant(tmp_path, capsys, gain, code, classification,
                                                   rule):
    # the first three have disjoint enclosures at probe points however small
    # their values; the fourth underflows to 0 at every probe point, and
    # the last has no exact candidate
    path = _gain_file(tmp_path, gain)
    got, doc = run_json(capsys, "observable", "--system", path)
    assert (got, doc["report"]["gains"][0]["classification"], doc["report"]["gains"][0]["rule"]) == (
        code, classification, rule)
    code, doc = run_json(capsys, "separate", "--system", path, "--state", "0,1", "--state2", "1,1")
    assert doc["report"]["verdict"] != "indistinguishable-by-construction"


@pytest.mark.parametrize("gain, code, verdict, rule", [
    # identically 0; its float values at the probe points differ by 128
    ("(x + 1e9)^2 - x^2 - 2e9*x - 1e18", 3, "undetermined", "log-exp"),
    # period 2*pi, though 1e10 + 1e-7*sin(x) rounds to 1e10 everywhere
    ("1e10 + 1e-7*sin(x)", 1, "not-observable", "periodic"),
    # 1/exp(-x^2 - 1000) overflows at every probe point: no proof either way
    ("ln(1/exp(-x^2 - 1000))", 3, "undetermined", "log-exp"),
])
def test_observable_claims_nothing_that_rounding_shows(tmp_path, capsys, gain, code, verdict, rule):
    path = _gain_file(tmp_path, gain)
    got, doc = run_json(capsys, "observable", "--system", path)
    assert (got, doc["report"]["verdict"], doc["report"]["gains"][0]["rule"]) == (code, verdict, rule)


def test_per_tol_is_no_option(capsys):
    # no period verdict has a tolerance
    with pytest.raises(SystemExit) as info:
        main(["observable", "--system", "preset:fish-1d-gauss", "--per-tol", "1e-8"])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "obsv-lab: error: unrecognized arguments: --per-tol 1e-8")


@pytest.mark.parametrize("command, flag, value", [
    ("separate", "--sep-tol", "1e-9"),
    ("rank", "--rank-tol", "1e-10"),
    ("distinguish", "--dist-tol", "1e-6"),
    ("gramian", "--eps", "1e-4"),
], ids=["--sep-tol", "--rank-tol", "--dist-tol", "--eps"])
def test_tolerance_flags_are_no_options(capsys, command, flag, value):
    # each threshold is a constant; the JSON config still echoes it
    with pytest.raises(SystemExit) as info:
        main([command, "--system", "preset:fish-1d-gauss", "--state", "0,1",
              "--state2", "0,2", flag, value])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"obsv-lab: error: unrecognized arguments: {flag} {value}")


def test_observable_text_format(capsys):
    code, out, _ = run(capsys, "observable", "--system", "preset:periodic-sin", "--format", "text")
    assert code == 1
    assert "verdict: not-observable" in out
    assert "periodic" in out


@pytest.mark.parametrize("argv", [
    ("observable",),
    ("separate", "--state", "0,0", "--state2", "2*pi,0"),
], ids=lambda argv: argv[0])
def test_period_validation_below_its_jet_order(capsys, argv):
    # the period comes from the expression tree, whatever --kmax says
    code, doc = run_json(capsys, *argv, "--system", "preset:periodic-sin", "--kmax", "3")
    assert code == 1
    assert doc["config"]["k_max"] == 3


def test_observable_at_kmax_zero(capsys):
    code, doc = run_json(capsys, "observable", "--system", "preset:fish-1d-gauss", "--kmax", "0")
    assert code == 0
    assert doc["report"]["gains"][0]["classification"] == "aperiodic"


def test_separate_velocities(capsys):
    code, doc = run_json(
        capsys, "separate", "--system", "preset:fish-1d-gauss",
        "--state", "0,1", "--state2", "0,2",
    )
    assert code == 0
    assert doc["report"]["verdict"] == "separated"
    assert doc["report"]["witness"]["order"] == 0


def test_separate_period_shift(capsys):
    code, doc = run_json(
        capsys, "separate", "--system", "preset:periodic-sin",
        "--state", "0,0", "--state2", f"{2 * math.pi},0",
    )
    assert code == 1
    assert doc["report"]["verdict"] == "indistinguishable-by-construction"


def test_separate_readme_period_shift_expression(capsys):
    # the README example: state entries are constant expressions, so 2*pi
    # is exactly one period of sin and no input separates the two states
    code, doc = run_json(
        capsys, "separate", "--system", "preset:periodic-sin",
        "--state", "0,0", "--state2", "2*pi,0",
    )
    assert code == 1
    assert doc["report"]["verdict"] == "indistinguishable-by-construction"
    assert doc["config"]["state2"] == [2 * math.pi, 0.0]


@pytest.mark.parametrize("gain, shift", [("tan(x)", "pi"), ("tanh(5*sin(x))", "2*pi")])
def test_separate_whole_period_shift_where_the_jets_are_near_zero(tmp_path, capsys, gain, shift):
    # the jets at 0 and at the rounded period differ by roundoff that grows
    # with the order; near zero it would pass the witness tolerance
    path = _gain_file(tmp_path, gain)
    code, doc = run_json(capsys, "separate", "--system", path,
                         "--state", "0,1", "--state2", f"{shift},1")
    assert (code, doc["report"]["verdict"]) == (1, "indistinguishable-by-construction")


def test_observable_and_separate_agree_on_a_tan_pole_at_a_grid_point(tmp_path, capsys):
    # the pole of this tan sits at x = 0.0048840048840048; the tree decides
    # the period, and separate takes it from the same detect_period verdict
    path = _gain_file(tmp_path, "tan(x + 1.5659123219108917)")
    code, doc = run_json(capsys, "observable", "--system", path)
    assert (code, doc["report"]["verdict"]) == (1, "not-observable")
    code, doc = run_json(capsys, "separate", "--system", path,
                         "--state", "0,1", "--state2", "pi,1")
    assert (code, doc["report"]["verdict"]) == (1, "indistinguishable-by-construction")


def test_separate_tiny_shift_of_an_aperiodic_gain_is_separated(capsys):
    # the gain values and jets agree to per_tol, but observable calls the
    # gain aperiodic, so no shift is a period
    code, _, _ = run(capsys, "observable", "--system", "preset:fish-1d-gauss")
    assert code == 0
    code, doc = run_json(capsys, "separate", "--system", "preset:fish-1d-gauss",
                         "--state", "0.5,1", "--state2", "0.5000000001,1")
    assert (code, doc["report"]["verdict"]) == (0, "separated")


def test_separate_equal_states_usage_error(capsys):
    code, out, err = run(
        capsys, "separate", "--system", "preset:fish-1d-gauss",
        "--state", "0,1", "--state2", "0,1",
    )
    assert code == 2


def test_rank_full_and_deficient(capsys):
    code, doc = run_json(capsys, "rank", "--system", "preset:fish-1d-gauss", "--state", "0,1")
    assert code == 0
    assert doc["report"]["rank"] == 2
    code, doc = run_json(capsys, "rank", "--system", "preset:fish-1d-gauss", "--state", "0,0")
    assert code == 1
    assert doc["report"]["rank"] < 2
    assert "bounded_at_order" not in doc["report"]


def test_a_bounded_deficient_rank_is_undetermined(tmp_path, capsys):
    # with a drift bias, the gradients of L_f^k h at (0, 0) are (0, 1),
    # (0, -1), (0, 1) and (-6, -1) for k = 0..3 (sympy): only order 3 sees
    # the position, so the default l_max = 2 stops short of full rank
    path = tmp_path / "bias.txt"
    path.write_text(GOOD_FILE.replace("F[1] = -z1", "F[1] = -z1 + 1"))
    argv = ("rank", "--system", str(path), "--state", "0,0")
    code, doc = run_json(capsys, *argv)
    assert (code, doc["report"]["rank"], doc["report"]["bounded_at_order"]) == (3, 1, 2)
    assert run(capsys, *argv, "--format", "text") == (
        3, "rank 1/2\nsearch bounded at order 2: a larger --lmax may find more\n", "")
    assert run(capsys, *argv, "--lmax", "3", "--format", "text") == (0, "rank 2/2\n", "")
    # fish-1d-hyperbolic moving is rank 1 (y depends on (x + 2 + z)/z only),
    # but no order of the tape can prove it
    code, doc = run_json(capsys, "rank", "--system", "preset:fish-1d-hyperbolic", "--state", "0,1")
    assert (code, doc["report"]["rank"], doc["report"]["bounded_at_order"]) == (3, 1, 2)
    # at rest the reduction proves a deficiency, unless l_max cuts it short
    # while it still adds directions
    rest = ("rank", "--system", "preset:fish-1d-gauss", "--state", "0,0")
    assert run(capsys, *rest, "--lmax", "1", "--format", "text") == (1, "rank 1/2\n", "")
    code, doc = run_json(capsys, *rest, "--lmax", "0")
    assert (code, doc["report"]["rank"], doc["report"]["bounded_at_order"]) == (3, 1, 0)


def test_rank_of_a_50_block_cascade_has_no_row_cap(tmp_path, capsys):
    # a moving state of a coupled 50-block cascade: every one of its 100
    # states is seen, so no cap of 32 rows may stop the search
    n = 50
    gains = ("sin(x) + 2", "exp(-x^2)", "tanh(x) + 0.5")
    lines = [f"n = {n}"]
    lines += [f"gamma[{i}] = {gains[i % 3]}" for i in range(1, n + 1)]
    lines += [f"F[{i}] = -z{i} + 0.1*sin(z{i % n + 1})" for i in range(1, n + 1)]
    lines.append("b = [" + ", ".join(["1"] * n) + "]")
    path = tmp_path / "sys.txt"
    path.write_text("\n".join(lines) + "\n")
    state = ",".join(["0.3"] * n + ["0.8"] * n)
    code, doc = run_json(capsys, "rank", "--system", str(path), "--state", state)
    assert (code, doc["report"]["rank"], doc["report"]["dim"]) == (0, 100, 100)
    assert len(doc["report"]["words"]) == 100


# ---------------------------------------------------------------------------
# simulate / distinguish / gramian


def test_simulate_csv(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, _, _ = run(
        capsys, "simulate", "--system", "preset:fish-1d-gauss",
        "--state", "0,0", "--input", "const:1", "--t-end", "1", "--dt", "0.001",
        "--format", "csv", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "t,x1,z1,y1"
    assert len(lines) == 1002
    z_final = float(lines[-1].split(",")[2])
    assert z_final == pytest.approx(1 - math.exp(-1), abs=1e-6)


def test_simulate_rejects_bad_dt(capsys):
    code, out, err = run(
        capsys, "simulate", "--system", "preset:fish-1d-gauss",
        "--state", "0,0", "--dt", "0",
    )
    assert code == 2


@pytest.mark.parametrize("command", ["simulate", "gramian"])
def test_a_step_count_that_is_not_finite_is_a_usage_error(capsys, command):
    # t_end/dt overflows to inf: a usage error, not a traceback or a verdict
    code, out, err = run(capsys, command, "--system", "preset:fish-1d-gauss", "--state", "0,0",
                         "--dt", "1e-320")
    assert (code, out) == (2, "")
    assert err.startswith("error: t_end/dt must be finite")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--state", "0,0", "--t-end", "inf"),
    ("simulate", "--state", "0,0", "--dt", "nan"),
    ("separate", "--state", "0,1", "--state2", "0,2", "--kmax", "-1"),
    ("rank", "--state", "0,1", "--lmax", "-1"),
], ids=lambda argv: " ".join(argv[-2:]))
def test_numeric_flags_are_checked_on_input(capsys, argv):
    code, out, err = run(capsys, *argv, "--system", "preset:fish-1d-gauss")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {argv[-2]} must be ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, kind", [
    (("simulate", "--state", "0,0", "--dt", "1_0e-3"), "number"),
    (("simulate", "--state", "0,0", "--t-end", "1_0"), "number"),
    (("separate", "--state", "0,1", "--state2", "0,2", "--kmax", "1_2"), "integer"),
    (("rank", "--state", "0,1", "--lmax", "1_2"), "integer"),
    (("verify", "--seed", "1_0"), "integer"),
], ids=lambda v: " ".join(v[-2:]) if isinstance(v, tuple) else v)
def test_numeric_flags_refuse_a_digit_group_underscore(capsys, argv, kind):
    # float and int would read each value (as 0.01, 10, 12, 12 and 10)
    with pytest.raises(SystemExit) as info:
        main([*argv, "--system", "preset:fish-1d-gauss"])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"obsv-lab: error: argument {argv[-2]}: invalid {kind} value: '{argv[-1]}'")


@pytest.mark.parametrize("spec", ["const:nan", "const:1e400", "sin:1,1,nan", "sin:1,inf"])
@pytest.mark.parametrize("command", ["simulate", "distinguish", "gramian"])
def test_non_finite_input_is_a_usage_error(capsys, command, spec):
    # a non-finite input parameter is refused before any integration, as a
    # non-finite --state is
    code, out, err = run(capsys, command, "--system", "preset:fish-1d-gauss", "--state", "0,0",
                         "--state2", "1,0", "--input", spec, "--t-end", "1")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: bad input spec '{spec}': ")
    assert "must be finite" in err


@pytest.mark.parametrize("command", ["simulate", "gramian"])
def test_input_without_a_value_is_a_numeric_failure(capsys, command):
    # the parameters are finite, but w*t overflows once t > 1.797...; the
    # failure names the input and the first stage time (k*dt, k*dt + dt/2,
    # k*dt + dt of step k) where w*t + phi is not finite
    w, dt = 1e308, 1e-3
    t = next(t for k in range(2000) for t in (k * dt, k * dt + 0.5 * dt, k * dt + dt)
             if not math.isfinite(w * t + 0.0))
    code, out, err = run(capsys, command, "--system", "preset:fish-1d-gauss", "--state", "0,0",
                         "--input", "sin:1,1e308", "--t-end", "2")
    assert (code, out) == (4, "")
    assert err == f"numeric failure: input sin:1,1e+308,0 has no value at t={t:.6g}: " \
                  "w*t + phi is not finite\n"


def test_an_overflowing_gramian_is_a_numeric_failure(capsys):
    # the sensitivity rows are finite, about 1e160, but W = D D^T dt is not;
    # the failure names the largest sensitivity, and no numpy warning (an
    # error under pytest) is raised on the way
    code, out, err = run(capsys, "gramian", "--system", "preset:periodic-sin",
                         "--state", "0,1e160", "--t-end", "0.01")
    assert (code, out) == (4, "")
    assert err == "numeric failure: Gramian overflows from the sensitivity 1e+160 of row x1 " \
                  "at t=0 in sin(x1)*z1\n"


def test_zero_orders_are_valid(capsys):
    # order 0 alone cannot see the position: a bounded search, not a proof
    code, out, _ = run(capsys, "rank", "--system", "preset:fish-1d-gauss", "--state", "0,1",
                       "--lmax", "0", "--format", "text")
    assert (code, out) == (3, "rank 1/2\nsearch bounded at order 0: a larger --lmax may find more\n")
    code, doc = run_json(capsys, "separate", "--system", "preset:fish-1d-gauss",
                         "--state", "0,1", "--state2", "0,2", "--kmax", "0")
    assert (code, doc["report"]["verdict"]) == (0, "separated")


@pytest.mark.parametrize("l_max", ["1000000000000000", "100000000000000000000000"])
def test_rank_allocates_rows_only_for_the_orders_it_reaches(capsys, l_max):
    # full rank comes at order 1, so a huge bound costs nothing past it
    argv = ("rank", "--system", "preset:fish-1d-gauss", "--state", "0,1")
    assert run(capsys, *argv, "--lmax", l_max, "--format", "text") == (0, "rank 2/2\n", "")
    _, doc = run_json(capsys, *argv, "--lmax", l_max)
    _, near = run_json(capsys, *argv, "--lmax", "1")
    assert doc["report"] == near["report"]


def test_simulate_blowup_is_numeric_failure(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("n = 1\ngamma[1] = 1\nF[1] = z1^2\nb = [1.0]\n")
    code, out, err = run(
        capsys, "simulate", "--system", str(path), "--state", "0,2", "--t-end", "2",
    )
    assert code == 4
    assert "numeric failure" in err


def test_distinguish_diverges(capsys):
    code, doc = run_json(
        capsys, "distinguish", "--system", "preset:sin-drift",
        "--state", "0,0", "--state2", f"{2 * math.pi},0", "--input", "sin:1,1,0",
    )
    assert code == 0
    assert doc["report"]["classification"] == "diverged"
    assert doc["report"]["gap"] > 1e-3


def test_distinguish_gap_overflow_is_a_numeric_failure(tmp_path, capsys):
    path = _gain_file(tmp_path, "x")
    code, out, err = run(capsys, "distinguish", "--system", path,
                         "--state", "1e308,1", "--state2=-1e308,1")
    assert (code, out) == (4, "")
    assert "output gap overflows at t=0 in x1*z1" in err


def test_distinguish_between_the_thresholds_is_inconclusive(capsys):
    # at t = 0 the output gap is gamma(0)*(1.0001 - 1), about 1e-4, and no
    # later gap is larger: above DIST_TOL_DEFAULT, below DIVERGED_TOL
    argv = ("distinguish", "--system", "preset:fish-1d-gauss", "--state", "0,1",
            "--state2", "0,1.0001")
    code, doc = run_json(capsys, *argv)
    assert (code, doc["report"]["classification"]) == (3, "inconclusive")
    assert DIST_TOL_DEFAULT < doc["report"]["gap"] <= DIVERGED_TOL
    assert doc["report"]["gap"] == pytest.approx(1e-4, rel=1e-9)
    assert run(capsys, *argv, "--format", "text") == (
        3, "inconclusive: max output gap 0.0001, first divergence at t=0\n", "")


def test_distinguish_periodic_pair_identical(capsys):
    code, doc = run_json(
        capsys, "distinguish", "--system", "preset:periodic-sin",
        "--state", "0,0", "--state2", f"{2 * math.pi},0", "--input", "sin:1,1,0",
    )
    assert code == 1
    assert doc["report"]["classification"] == "identical"


def test_gramian_rest_vs_excited(capsys):
    code, doc = run_json(
        capsys, "gramian", "--system", "preset:fish-1d-gauss",
        "--state", "0,0", "--input", "zero", "--t-end", "5",
    )
    assert code == 1
    assert doc["report"]["ranking"][0]["classification"] == "singular"
    code, doc = run_json(
        capsys, "gramian", "--system", "preset:fish-1d-gauss",
        "--state", "0,0", "--input", f"sin:1,{2 * math.pi},0", "--t-end", "5",
    )
    assert code == 0
    assert doc["report"]["ranking"][0]["sigma_min"] > 1e-6


def test_gramian_sweep_ranks_zero_last(capsys):
    code, doc = run_json(
        capsys, "gramian", "--system", "preset:fish-1d-gauss", "--state", "0,0",
        "--input", "zero", "--input", "sin:1,6.28,0", "--t-end", "2",
    )
    ranking = doc["report"]["ranking"]
    assert ranking[-1]["input"] == "zero"


def test_gramian_csv_lists_each_singular_value(capsys):
    argv = ("gramian", "--system", "preset:fish-1d-gauss", "--state", "0,0",
            "--input", "zero", "--input", "sin:1,6.28,0", "--t-end", "2")
    _, doc = run_json(capsys, *argv)
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "input,sigma"
    expected = [(e["input"], s) for e in doc["report"]["ranking"] for s in e["singular_values"]]
    assert len(expected) == 2 * 2  # two inputs, one sigma per state coordinate
    assert [(name, float(s)) for name, s in csv.reader(rows[1:])] == expected
    # RFC 4180: the field with commas is quoted, the others keep their bytes
    assert rows[1].startswith('"sin:1,6.28,0",')
    assert rows[-1] == "zero,0"


# ---------------------------------------------------------------------------
# verify and report plumbing


def test_verify_passes(capsys):
    code, doc = run_json(capsys, "verify", "--seed", "0")
    assert code == 0
    assert doc["report"]["all_passed"] is True
    assert [p["name"] for p in doc["report"]["properties"]] == [
        "closed-form-identities",
        "input-polynomial-expansion",
        "resting-continuum",
    ]
    assert all(p["passed"] for p in doc["report"]["properties"])


def test_verify_text_lines(capsys):
    code, out, _ = run(capsys, "verify", "--format", "text")
    assert code == 0
    lines = [l for l in out.strip().split("\n")]
    assert len(lines) == 3
    assert all(l.startswith("PASS ") for l in lines)


def test_verify_byte_identical_reports(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--seed", "0", "--out", str(a)]) == 0
    assert main(["verify", "--seed", "0", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # a different seed still passes but samples different cases
    c = tmp_path / "c.json"
    assert main(["verify", "--seed", "7", "--out", str(c)]) == 0
    assert json.loads(c.read_text())["report"]["all_passed"] is True


def test_json_reports_echo_config(capsys):
    code, doc = run_json(
        capsys, "rank", "--system", "preset:fish-1d-gauss", "--state", "0,1", "--seed", "3",
    )
    assert doc["config"]["seed"] == 3
    assert doc["config"]["command"] == "rank"
    assert doc["command"] == "rank"


@pytest.mark.parametrize("argv", [
    ("observable", "--system", "preset:fish-1d-gauss"),
    ("separate", "--system", "preset:fish-1d-gauss", "--state", "0,1", "--state2", "0,2"),
    ("rank", "--system", "preset:fish-1d-gauss", "--state", "0,1"),
    ("distinguish", "--system", "preset:fish-1d-gauss", "--state", "0,1", "--state2", "0,2",
     "--t-end", "0.1"),
    ("verify",),
], ids=lambda argv: argv[0])
def test_csv_format_undefined_elsewhere(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 2
    assert out == ""
    assert f"csv format is not defined for {argv[0]}" in err


def test_bad_state_string(capsys):
    code, out, err = run(
        capsys, "rank", "--system", "preset:fish-1d-gauss", "--state", "0;1",
    )
    assert code == 2
    for bad in ("2*q,0", "1/0,0", "0,", "1e300*1e300,0"):
        code, out, err = run(capsys, "rank", "--system", "preset:fish-1d-gauss", "--state", bad)
        assert code == 2, bad
        assert "--state must be comma-separated" in err


# ---------------------------------------------------------------------------
# README examples


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# exit code each README example's comment implies, in order of appearance
README_EXPECTED = [
    ("observable", 0),   # gauss gain is aperiodic: observable
    ("separate", 0),     # differing velocities: separated
    ("separate", 1),     # a full period shift is invisible
    ("rank", 1),         # at rest the position hides
    ("rank", 0),         # moving: full rank
    ("simulate", 0),
    ("distinguish", 0),
    ("gramian", 0),
    ("verify", 0),
]


def readme_commands():
    text = README.read_text(encoding="utf-8")
    block = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if "obsv-lab verify" in b)
    block = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("obsv-lab ")]


def test_readme_examples_exit_as_their_comments_say(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [name for name, _ in README_EXPECTED]
    for argv, (_, expected) in zip(commands, README_EXPECTED):
        code, out, err = run(capsys, *argv)
        assert code == expected, (argv, err)
    assert (tmp_path / "traj.csv").read_text().startswith("t,x1,z1,y1")


def test_readme_examples_give_the_same_bytes_as_a_module(tmp_path, monkeypatch, capsys):
    # ``python -m obsv_lab.cli`` exits through ``run``, which skips the
    # collector at exit: it must lose no output and leave the same files.
    # Without PYTHONUNBUFFERED, stdout to a pipe is buffered until exit.
    env = {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}
    for idx, argv in enumerate(readme_commands()):
        here, there = tmp_path / f"main-{idx}", tmp_path / f"module-{idx}"
        here.mkdir()
        there.mkdir()
        monkeypatch.chdir(here)
        code, out, err = run(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "obsv_lab.cli", *argv], cwd=there,
                              env=env, capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode()), argv
        files = sorted(p.name for p in here.iterdir())
        assert sorted(p.name for p in there.iterdir()) == files, argv
        for name in files:
            assert (there / name).read_bytes() == (here / name).read_bytes(), (argv, name)
    assert (tmp_path / "module-5" / "traj.csv").stat().st_size > 0


def test_readme_examples_run_clean_in_development_mode(tmp_path):
    # development mode with every warning an error: a warning, or a file
    # left unclosed and reported at exit, writes to stderr or changes the
    # exit code
    for argv, (_, expected) in zip(readme_commands(), README_EXPECTED):
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "obsv_lab.cli",
                               *argv], cwd=tmp_path, env=src_env(), capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (expected, ""), argv


# sha256 of stdout for the README's observable and separate examples, in
# JSON and text: a change to the period rules must not move these bytes
README_REPORT_SHA256 = [
    ("4dab19153143faac31bafdd35dfa8e208c7253a320e70935ab03c2590cc1b9ae",
     "7f89d8469ba84585b0d3101a417912b4f2c7dbd38282f2c79b239cc798fb2640"),
    ("54673d7b58877ab542e24518d82342effc41a71a2788021f3e17a94ea47cb5b3",
     "74fc46f99d2ca6ffcc33330423fc2b954e787439e75be59354fa9237a2e30e65"),
    ("141df5f51d1e3d0f506ae661cff8e7039d76a9c082be8fa1690d2b5972546a72",
     "42af0320e275dd4952a175f5a38adc40f7ca3bc4aca34d54d990c902928e1fe7"),
]


def test_readme_observable_and_separate_reports_are_pinned(capsys):
    commands = [argv for argv in readme_commands() if argv[0] in ("observable", "separate")]
    assert len(commands) == len(README_REPORT_SHA256)
    for argv, digests in zip(commands, README_REPORT_SHA256):
        for fmt, digest in zip(("json", "text"), digests):
            _, out, _ = run(capsys, *argv, "--format", fmt)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (argv, fmt, out)


# sha256 of stdout for the README's distinguish and verify examples, in JSON
# and text: the JSON encoder must give the same bytes for the engines' values
README_REPORT_SHA256_MORE = {
    "distinguish": ("28d3d48bb976f6cc114ba092fdfd99d5da7a2a38f587581726b3284cd1cbff4c",
                    "dc2346fd837bcaef442689933dac26d2294e1a0f6a6f25bf280e6f6fb9143a7c"),
    "verify": ("e3b993f5c0271652d912af2035a5e9e43e5f184ffd21ba2fba67c3a86f1a30b6",
               "cc26027f20fa6e210aeadb4331bab74d9c354923b001d0d0b736d0d164e8400c"),
}


def test_readme_distinguish_and_verify_reports_are_pinned(capsys):
    commands = [argv for argv in readme_commands() if argv[0] in README_REPORT_SHA256_MORE]
    assert [argv[0] for argv in commands] == list(README_REPORT_SHA256_MORE)
    for argv in commands:
        for fmt, digest in zip(("json", "text"), README_REPORT_SHA256_MORE[argv[0]]):
            _, out, _ = run(capsys, *argv, "--format", fmt)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (argv, fmt, out)


def test_json_singular_values_are_the_library_floats(capsys):
    # LAPACK's digits may differ by platform, so these are compared with the
    # library's own call rather than pinned
    sys_ = obsv_lab.preset("fish-1d-gauss")
    commands = [argv for argv in readme_commands() if argv[0] in ("rank", "gramian")]
    assert [argv[0] for argv in commands] == ["rank", "rank", "gramian"]
    for argv in commands:
        _, doc = run_json(capsys, *argv)
        state = tuple(map(float, argv[argv.index("--state") + 1].split(",")))
        if argv[0] == "rank":
            expected = obsv_lab.local_rank(sys_, state).singular_values
            assert doc["report"]["singular_values"] == expected.tolist(), argv
            continue
        inputs = [obsv_lab.parse_input_spec(b) for a, b in zip(argv, argv[1:]) if a == "--input"]
        ranked = obsv_lab.input_sweep(sys_, state, inputs)
        assert len(doc["report"]["ranking"]) == len(ranked)
        for entry, (idx, rep) in zip(doc["report"]["ranking"], ranked):
            assert entry["input_index"] == idx
            assert entry["singular_values"] == rep.singular_values.tolist()
            assert (entry["sigma_min"], entry["sigma_max"]) == (rep.sigma_min, rep.sigma_max)


# sha256 of the trajectory CSV the README's simulate example writes: the
# block-wise formatting must give the bytes of per-value %.17g
README_SIMULATE_CSV_SHA256 = "f9c397c0ae5ffe18869f02edd0c2d304e85c48d78a7cd43815d107ef52b9be19"


def test_readme_simulate_csv_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (argv,) = [argv for argv in readme_commands() if argv[0] == "simulate"]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    digest = hashlib.sha256((tmp_path / "traj.csv").read_bytes()).hexdigest()
    assert digest == README_SIMULATE_CSV_SHA256


def test_readme_library_example_does_what_its_comments_say():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(block, {})
    separation, rank, gramian = buf.getvalue().splitlines()
    assert separation.startswith("separated ObservableWord(j=1, ")  # separated, output word
    assert rank == "1"  # at rest the position hides
    sigma_min, classification = gramian.split()
    assert float(sigma_min) > 0.0
    assert classification == "observable"


@pytest.mark.parametrize("preset", ["fish-1d-gauss", "fish-1d-hyperbolic"])
def test_near_identical_pair_is_undetermined_at_default_order(capsys, preset):
    code, doc = run_json(
        capsys, "separate", "--system", f"preset:{preset}",
        "--state", "0,1", "--state2", "0,1.0000000000001",
    )
    assert code == 3
    assert doc["report"]["verdict"] == "not-separated-within-bounds"
    assert doc["config"]["k_max"] == 12
