"""Observability analysis of velocity-sensing cascade systems.

Each public name below is looked up at its first use through the module's
``__getattr__`` (PEP 562), which imports only the submodule that defines
it, and so is each submodule name (``obsv_lab.sim``).  ``import obsv_lab``
itself loads no submodule, so ``python -m obsv_lab.cli``, which imports this
package first, loads only what its command runs; ``expr``, ``model`` and
``obsv`` import numpy only inside the functions that build arrays, and
``lie`` does not import it at all.  The benchmark's span recorder
(``bench/tracer.py``) looks ``obsv_lab.obsv``, ``obsv_lab.lie``,
``obsv_lab.sim`` and ``obsv_lab.gramian`` up in ``sys.modules`` after
importing the CLI, so ``cli`` binds those four as modules that run at their
first attribute access; once ROADMAP item 1b removes that lookup, the
commands can import them where they run.
"""

import importlib

_EXPORTS = {
    "expr": (
        "Expr", "ParseError", "DomainError", "DerivativeOrderError", "parse", "evaluate",
        "diff", "jet", "nth_derivative_at", "format_expr", "free_vars",
    ),
    "model": (
        "CascadeSystem", "ControlAffineSystem", "LinearizationResult", "InvalidSystemError",
        "SystemFormatError", "ObservableWord", "K_MAX_DEFAULT", "validate", "as_control_affine",
        "linearize_at", "preset", "preset_names", "load_system", "load_system_file",
    ),
    "lie": ("WordLengthError", "evaluate_word", "nested_lie_along_affine"),
    "obsv": (
        "PeriodicityVerdict", "SystemPeriodicityReport", "SeparationCertificate", "RankReport",
        "cascade_lflg", "cascade_lglflg", "word_lflg", "word_lglflg",
        "detect_period", "is_aperiodic_system", "find_separating_observable", "local_rank",
    ),
    "sim": (
        "BlowUpError", "EquilibriumPremiseError", "FeedbackLaw", "InputError", "InputSignal",
        "Trajectory", "DistinguishabilityResult", "integrate", "integrate_many",
        "parse_input_spec", "indistinguishability_experiment", "distinguishability_experiment",
        "output_feedback_equilibria_check",
    ),
    "gramian": ("GramianReport", "empirical_gramian", "input_sweep", "shift_comparison_gramian"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "record", "cli")

__all__ = [*_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
