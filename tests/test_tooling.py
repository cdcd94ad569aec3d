import importlib.util
import pathlib

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
