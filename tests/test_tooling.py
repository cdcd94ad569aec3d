import importlib.util
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
