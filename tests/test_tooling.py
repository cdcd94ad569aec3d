import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import obsv_lab

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_resolve_on_the_library():
    # bench/run.py --trace 1 rebinds each of these with getattr; a rename or
    # deletion in the library would break the traced run, not the tests
    spec = importlib.util.spec_from_file_location("tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}" for module, attr, *_ in tracer.TARGETS
               if not hasattr(getattr(obsv_lab, module), attr)]
    assert not missing
    assert callable(obsv_lab.sim.Trajectory.to_csv)


# bench/cli_traced.py's order: import the CLI, install the span recorder,
# run a command; the recorder looks obsv_lab.sim and obsv_lab.gramian up in
# sys.modules, which holds them before any command has run them
TRACED_CLI = """
import importlib.util, json, sys
import obsv_lab.cli as cli
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
recorder = tracer.Tracer()
recorder.install()
codes = [cli.main(["observable", "--system", "preset:fish-1d-gauss", "--out", "observable.json"]),
         cli.main(["simulate", "--system", "preset:fish-1d-gauss", "--state", "0,0",
                   "--input", "const:1", "--t-end", "10", "--format", "csv", "--out", "traj.csv"])]
print(json.dumps([codes, [span[0] for span in recorder.spans]]))
"""


def test_the_span_recorder_sees_a_traced_cli_run(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(BENCH.parent / "src"), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", TRACED_CLI, str(BENCH / "tracer.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes, names = json.loads(done.stdout)
    assert codes == [0, 0]
    assert names.count("obsv.is_aperiodic_system") == 1
    assert names.count("sim.integrate") == 1
    assert names.count("sim.to_csv") == 1


def test_a_failing_property_shows_its_counterexample(tmp_path):
    # under filterwarnings = error, hypothesis's pytest plugin trips a
    # mypy_extensions DeprecationWarning while it reports a failing property,
    # and pytest would print INTERNALERROR instead of the counterexample;
    # pyproject.toml's one ignore entry is what keeps the report readable
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_below_ten(x):\n"
        "    assert x < 10\n"
    )
    config = BENCH.parent / "pyproject.toml"
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(config), "--rootdir", str(tmp_path), str(tmp_path)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
    assert "FAILED" in done.stdout
