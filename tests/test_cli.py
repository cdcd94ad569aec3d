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
from obsv_lab.cli import main

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
    path = tmp_path / "sys.txt"
    path.write_text(GOOD_FILE.replace("exp(-x^2)", "x + 10^400"))
    code, out, err = run(capsys, "observable", "--system", str(path))
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
    path = tmp_path / "sys.txt"
    path.write_text(GOOD_FILE.replace("exp(-x^2)", _long_gain(250)))
    code, out, err = run(capsys, *argv, "--system", str(path))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("gain, expected", [
    (_long_gain(1200), "an expression at most 300 operations deep"),
    ("sin(" * 101 + "x" + ")" * 101, "at most 100 nested parentheses"),
], ids=["long", "nested"])
@pytest.mark.parametrize("command", ["validate", "observable"])
def test_too_deep_gain_is_a_usage_error(tmp_path, capsys, gain, expected, command):
    path = tmp_path / "sys.txt"
    path.write_text(GOOD_FILE.replace("exp(-x^2)", gain))
    code, out, err = run(capsys, command, "--system", str(path))
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
    ("1/(x + 20)", 4, "numeric failure: division by zero in 1/(x + 20)\n"),
    ("1/(x + 2.5)", 0, ""),
    ("x + 1/0", 2, "error: line 3: gamma[1]: at offset 4: expected a finite number, found '1/0'\n"),
], ids=["pole-on-grid", "pole-off-grid", "constant-pole"])
def test_observable_gain_pole_on_the_sampling_grid(tmp_path, capsys, gain, code, err):
    path = tmp_path / "sys.txt"
    path.write_text(GOOD_FILE.replace("exp(-x^2)", gain))
    got, out, stderr = run(capsys, "observable", "--system", str(path))
    assert (got, stderr) == (code, err)


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
    path = tmp_path / "sys.txt"
    path.write_text(GOOD_FILE.replace("exp(-x^2)", gain))
    culprit = gain if argv[0] == "separate" else gain.replace("x", "x1")
    assert run(capsys, *argv, "--system", str(path)) == (4, "", f"numeric failure: {message} in {culprit}\n")


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
    path = tmp_path / "sys.txt"
    path.write_text(GOOD_FILE.replace("exp(-x^2)", gain))
    code, doc = run_json(capsys, "observable", "--system", str(path))
    assert (code, doc["report"]["verdict"]) == (1, "not-observable")
    T = doc["report"]["gains"][0]["period"]
    assert abs(T - exact) <= 1e-11
    for shift in (period, repr(T)):
        code, doc = run_json(capsys, "separate", "--system", str(path),
                             "--state", "0,0", "--state2", f"{shift},0")
        assert (code, doc["report"]["verdict"]) == (1, "indistinguishable-by-construction")


@pytest.mark.parametrize("gain", ["sin(x^2)", "x*sin(x)", "sin(x) + sin(sqrt(2)*x)"])
def test_observable_without_a_proof_is_undetermined(tmp_path, capsys, gain):
    path = tmp_path / "sys.txt"
    path.write_text(GOOD_FILE.replace("exp(-x^2)", gain))
    code, doc = run_json(capsys, "observable", "--system", str(path))
    assert (code, doc["report"]["verdict"]) == (3, "undetermined")
    assert doc["report"]["gains"][0] == {"gain": 1, "classification": "undetermined",
                                         "period": None, "rule": "none"}
    code, out, _ = run(capsys, "observable", "--system", str(path), "--format", "text")
    assert "gain 1: undetermined (rule: none)" in out


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
    # a period is validated on 6 derivative orders whatever --kmax says
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
    path = tmp_path / "sys.txt"
    path.write_text(GOOD_FILE.replace("exp(-x^2)", gain))
    code, doc = run_json(capsys, "separate", "--system", str(path),
                         "--state", "0,1", "--state2", f"{shift},1")
    assert (code, doc["report"]["verdict"]) == (1, "indistinguishable-by-construction")


def test_observable_and_separate_agree_on_a_tan_pole_at_a_grid_point(tmp_path, capsys):
    # the pole of this tan sits on the sampling grid point x = 0.0048840048840048,
    # so no shift residual passes and the jets decide the period; separate
    # takes the period from the same detect_period verdict
    path = tmp_path / "sys.txt"
    path.write_text(GOOD_FILE.replace("exp(-x^2)", "tan(x + 1.5659123219108917)"))
    code, doc = run_json(capsys, "observable", "--system", str(path))
    assert (code, doc["report"]["verdict"]) == (1, "not-observable")
    code, doc = run_json(capsys, "separate", "--system", str(path),
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


@pytest.mark.parametrize("argv", [
    ("simulate", "--state", "0,0", "--t-end", "inf"),
    ("simulate", "--state", "0,0", "--dt", "nan"),
    ("distinguish", "--state", "0,0", "--state2", "1,0", "--dist-tol", "-1"),
    ("gramian", "--state", "0,0", "--eps", "0"),
    ("observable", "--per-tol", "nan"),
    ("separate", "--state", "0,1", "--state2", "0,2", "--sep-tol", "inf"),
    ("separate", "--state", "0,1", "--state2", "0,2", "--kmax", "-1"),
    ("rank", "--state", "0,1", "--lmax", "-1"),
    ("rank", "--state", "0,1", "--rank-tol", "2"),
    ("rank", "--state", "0,1", "--rank-tol", "0"),
], ids=lambda argv: " ".join(argv[-2:]))
def test_numeric_flags_are_checked_on_input(capsys, argv):
    code, out, err = run(capsys, *argv, "--system", "preset:fish-1d-gauss")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {argv[-2]} must be ")
    assert "Traceback" not in err


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


def test_zero_orders_are_valid(capsys):
    code, out, _ = run(capsys, "rank", "--system", "preset:fish-1d-gauss", "--state", "0,1",
                       "--lmax", "0", "--format", "text")
    assert (code, out) == (1, "rank 1/2\n")
    code, doc = run_json(capsys, "separate", "--system", "preset:fish-1d-gauss",
                         "--state", "0,1", "--state2", "0,2", "--kmax", "0")
    assert (code, doc["report"]["verdict"]) == (0, "separated")


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
    path = tmp_path / "sys.txt"
    path.write_text(GOOD_FILE.replace("exp(-x^2)", "x"))
    code, out, err = run(capsys, "distinguish", "--system", str(path),
                         "--state", "1e308,1", "--state2=-1e308,1")
    assert (code, out) == (4, "")
    assert "output gap overflows at t=0 in x1*z1" in err


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
    assert [(name, float(s)) for name, s in (r.rsplit(",", 1) for r in rows[1:])] == expected


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


@pytest.mark.parametrize("preset", ["fish-1d-gauss", "fish-1d-hyperbolic"])
def test_near_identical_pair_is_undetermined_at_default_order(capsys, preset):
    code, doc = run_json(
        capsys, "separate", "--system", f"preset:{preset}",
        "--state", "0,1", "--state2", "0,1.0000000000001",
    )
    assert code == 3
    assert doc["report"]["verdict"] == "not-separated-within-bounds"
    assert doc["config"]["k_max"] == 12
