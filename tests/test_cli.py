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
])
def test_non_finite_literal_is_a_usage_error(tmp_path, capsys, text, line, argv):
    path = tmp_path / "sys.txt"
    path.write_text(text)
    code, out, err = run(capsys, *argv, "--system", str(path))
    assert code == 2
    assert f"line {line}" in err
    assert "a finite number" in err


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


def test_cli_import_leaves_scipy_out():
    src = str(pathlib.Path(obsv_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = "import sys, obsv_lab.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


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
    for bad in ("2*q,0", "1/0,0", "0,"):
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


@pytest.mark.parametrize("preset", ["fish-1d-gauss", "fish-1d-hyperbolic"])
def test_near_identical_pair_is_undetermined_at_default_order(capsys, preset):
    code, doc = run_json(
        capsys, "separate", "--system", f"preset:{preset}",
        "--state", "0,1", "--state2", "0,1.0000000000001",
    )
    assert code == 3
    assert doc["report"]["verdict"] == "not-separated-within-bounds"
    assert doc["config"]["k_max"] == 12
