"""Command-line front end.

Exit codes: 0 positive verdict, 1 negative verdict, 2 input/usage error,
3 undetermined, 4 numeric failure.  Reports echo the effective
configuration and are byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import json
import math
import os
import random
import sys
from collections.abc import Callable
from itertools import product
from operator import methodcaller

from . import expr as ex
from .model import (
    DIST_TOL_DEFAULT,
    DT_DEFAULT,
    EPS_DEFAULT,
    K_MAX_DEFAULT,
    RANK_TOL_DEFAULT,
    SEP_TOL_DEFAULT,
    T_END_DEFAULT,
    CascadeSystem,
    InvalidSystemError,
    ObservableWord,
    as_control_affine,
    integer,
    load_system_file,
    number,
    preset,
    preset_names,
    validate,
)
from .record import Record


def _on_first_use(name: str):
    """The submodule ``name``, in ``sys.modules`` now and run at its first
    attribute access, so that a command that never touches it does not
    compile or run it, nor import numpy through it.  This module binds four
    that way: ``obsv``, ``lie``, ``sim`` and ``gramian``.  A plain import
    inside the handlers would do the same, but the benchmark's span recorder
    (``bench/tracer.py``) looks all four up in ``sys.modules`` right after
    importing this module; once ROADMAP item 1b removes that lookup, such
    imports can replace this helper."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return module


obsv = _on_first_use("obsv")
lie = _on_first_use("lie")
sim = _on_first_use("sim")
gramian = _on_first_use("gramian")

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNDETERMINED = 3
EXIT_NUMERIC = 4


class Result(Record):
    """What a subcommand hands back: exit code, JSON report, text lines, and
    for commands with a CSV form, a function that renders it."""

    __slots__ = ("code", "report", "lines", "csv")
    _defaults = {"csv": None}
    code: int
    report: dict
    lines: list[str]
    csv: Callable[[], str] | None


class UsageError(ValueError):
    pass


def _exit_code(verdict: str, positive: str, negative: str) -> int:
    if verdict == positive:
        return EXIT_OK
    if verdict == negative:
        return EXIT_NEGATIVE
    return EXIT_UNDETERMINED


def _load(cfg: argparse.Namespace) -> CascadeSystem:
    if not cfg.system:
        raise UsageError("--system is required for this command")
    if cfg.system.startswith("preset:"):
        name = cfg.system.split(":", 1)[1]
        try:
            return preset(name)
        except KeyError:
            raise UsageError(
                f"unknown preset {name!r}; available: {', '.join(preset_names())}"
            ) from None
    return load_system_file(cfg.system)


def _parse_state(text: str, label: str) -> tuple[float, ...]:
    """Each entry is a constant expression, so ``2*pi,0`` is an exact period shift."""
    try:
        return tuple(ex.evaluate(ex.parse(p, ()), {}) for p in text.split(","))
    except (ex.ParseError, ex.DomainError):
        raise UsageError(
            f"{label} must be comma-separated numbers or constant expressions, got {text!r}"
        ) from None


def _word_dict(word) -> dict:
    return {"output": word.j, "word": list(word.mu), "order": len(word.mu)}


def _config_dict(cfg: argparse.Namespace) -> dict:
    doc = dict(vars(cfg))
    doc.pop("out")  # where the report lands does not affect its content
    # the fixed thresholds are part of the effective configuration
    doc.update(sep_tol=SEP_TOL_DEFAULT, rank_tol=RANK_TOL_DEFAULT,
               dist_tol=DIST_TOL_DEFAULT, eps=EPS_DEFAULT)
    return doc


# ---------------------------------------------------------------------------
# subcommands: each returns a Result


def cmd_validate(cfg: argparse.Namespace) -> Result:
    try:
        violations = validate(_load(cfg))
    except InvalidSystemError as err:
        violations = list(err.violations)
    if violations:
        report = {"valid": False, "violations": violations}
        return Result(EXIT_NEGATIVE, report, ["invalid:"] + [f"  {v}" for v in violations])
    return Result(EXIT_OK, {"valid": True, "violations": []}, ["valid"])


def cmd_observable(cfg: argparse.Namespace) -> Result:
    sys_ = _load(cfg)
    report = obsv.is_aperiodic_system(sys_)
    gammas = []
    lines = []
    for idx, v in enumerate(report.gamma_verdicts, start=1):
        rule = v.evidence["rule"]
        entry = {"gain": idx, "classification": v.classification, "period": v.period, "rule": rule}
        line = f"gain {idx}: {v.classification}"
        if v.period is not None:
            line += f", T={v.period:.6g}"
        gammas.append(entry)
        lines.append(line + f" (rule: {rule})")
    out = {"verdict": report.verdict, "gains": gammas}
    lines.insert(0, f"verdict: {report.verdict}")
    return Result(_exit_code(report.verdict, "observable", "not-observable"), out, lines)


def cmd_separate(cfg: argparse.Namespace) -> Result:
    sys_ = _load(cfg)
    if cfg.state is None or cfg.state2 is None:
        raise UsageError("separate needs --state and --state2")
    cert = obsv.find_separating_observable(sys_, cfg.state, cfg.state2, k_max=cfg.k_max)
    out = {
        "verdict": cert.verdict,
        "witness": _word_dict(cert.witness) if cert.witness is not None else None,
        "value0": cert.value0,
        "value1": cert.value1,
        "bounds": cert.bounds,
    }
    lines = [f"verdict: {cert.verdict}"]
    if cert.verdict == obsv.VERDICT_SEPARATED:
        lines.append(
            f"witness output {cert.witness.j}, word {list(cert.witness.mu)}: "
            f"{cert.value0:.6g} vs {cert.value1:.6g}"
        )
    return Result(_exit_code(cert.verdict, obsv.VERDICT_SEPARATED, obsv.VERDICT_SHIFT), out, lines)


def cmd_rank(cfg: argparse.Namespace) -> Result:
    sys_ = _load(cfg)
    if cfg.state is None:
        raise UsageError("rank needs --state")
    report = obsv.local_rank(sys_, cfg.state, l_max=cfg.l_max)
    out = {
        "rank": report.rank,
        "dim": report.dim,
        "locally_observable": report.locally_observable,
        "singular_values": report.singular_values,
        "words": [_word_dict(w) for w in report.words],
    }
    lines = [f"rank {report.rank}/{report.dim}"]
    if report.locally_observable:
        return Result(EXIT_OK, out, lines)
    if report.bounded_at is None:  # the reduction at rest proved the deficiency
        return Result(EXIT_NEGATIVE, out, lines)
    out["bounded_at_order"] = report.bounded_at
    lines.append(f"search bounded at order {report.bounded_at}: a larger --lmax may find more")
    return Result(EXIT_UNDETERMINED, out, lines)


def _single_input(cfg: argparse.Namespace) -> sim.InputSignal:
    if len(cfg.inputs) > 1:
        raise UsageError("this command takes a single --input")
    return sim.parse_input_spec(cfg.inputs[0]) if cfg.inputs else sim.InputSignal.zero()


def cmd_simulate(cfg: argparse.Namespace) -> Result:
    sys_ = _load(cfg)
    if cfg.state is None:
        raise UsageError("simulate needs --state")
    u = _single_input(cfg)
    traj = sim.integrate(sys_, cfg.state, u, cfg.t_end, cfg.dt)
    final = traj.final_state
    out = {
        "input": u.describe(),
        "samples": traj.samples,
        "final_state": final,
        "max_abs_output": max(max(map(abs, y)) for y in traj.columns(len(traj.state_names))),
    }
    lines = [
        f"{traj.samples} samples, final state "
        + ", ".join(f"{v:.6g}" for v in final)
    ]
    return Result(EXIT_OK, out, lines, traj.to_csv)


def cmd_distinguish(cfg: argparse.Namespace) -> Result:
    sys_ = _load(cfg)
    if cfg.state is None or cfg.state2 is None:
        raise UsageError("distinguish needs --state and --state2")
    u = _single_input(cfg)
    res = sim.distinguishability_experiment(sys_, cfg.state, cfg.state2, u, cfg.t_end, cfg.dt)
    out = {
        "classification": res.classification,
        "gap": res.gap,
        "first_divergence": res.first_divergence,
        "input": res.input,
    }
    lines = [
        f"{res.classification}: max output gap {res.gap:.6g}"
        + (f", first divergence at t={res.first_divergence:.6g}" if res.first_divergence is not None else "")
    ]
    return Result(_exit_code(res.classification, "diverged", "identical"), out, lines)


def cmd_gramian(cfg: argparse.Namespace) -> Result:
    sys_ = _load(cfg)
    if cfg.state is None:
        raise UsageError("gramian needs --state")
    signals = [sim.parse_input_spec(s) for s in (cfg.inputs or ("zero",))]
    ranked = gramian.input_sweep(sys_, cfg.state, signals, t_end=cfg.t_end, dt=cfg.dt)
    entries = []
    lines = []
    for idx, rep in ranked:
        entries.append(
            {
                "input_index": idx,
                "input": rep.input,
                "sigma_min": rep.sigma_min,
                "sigma_max": rep.sigma_max,
                "condition_number": rep.condition_number,
                "classification": rep.classification(),
                "weak_signal": rep.weak_signal,
                "singular_values": rep.singular_values,
            }
        )
        lines.append(
            f"{rep.input}: sigma_min={rep.sigma_min:.6g} ({rep.classification()})"
        )
    out = {"ranking": entries, "eps": EPS_DEFAULT}

    def table() -> str:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")  # quotes a sin:a,w,phi input
        writer.writerow(("input", "sigma"))
        writer.writerows((e["input"], f"{s:.17g}") for e in entries for s in e["singular_values"])
        return buf.getvalue()

    code = _exit_code(ranked[0][1].classification(), "observable", "singular")
    return Result(code, out, lines, table)


# ---------------------------------------------------------------------------
# self-check suite


_GAIN_POOL = ("sin(x)", "exp(-x^2)", "2 + sin(x) + 0.1*x", "tanh(x)", "1/(x + 3)")


def _random_system(rng: random.Random, n: int) -> CascadeSystem:
    gamma = tuple(ex.parse(rng.choice(_GAIN_POOL), {"x"}) for _ in range(n))
    zs = {f"z{i}" for i in range(1, n + 1)}
    F = tuple(
        ex.parse(f"-{round(rng.uniform(0.5, 2.0), 3)}*z{i}", zs) for i in range(1, n + 1)
    )
    b = tuple(rng.choice([-1.0, 1.0]) * round(rng.uniform(0.5, 2.0), 3) for _ in range(n))
    return CascadeSystem(n=n, gamma=gamma, F=F, b=b)


def _check_closed_forms(rng: random.Random) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(8):
        n = rng.randrange(1, 3)
        sys_ = _random_system(rng, n)
        ca = as_control_affine(sys_)
        state = tuple(rng.uniform(-1.5, 1.5) for _ in range(2 * n))
        i = rng.randrange(1, n + 1)
        for k in range(0, 4):
            for closed, word in (
                (obsv.cascade_lflg(sys_, i, k, state), obsv.word_lflg(i, k)),
                (obsv.cascade_lglflg(sys_, i, k, state), obsv.word_lglflg(i, k)),
            ):
                generic = lie.evaluate_word(ca, word, state)
                gap = abs(closed - generic) / (1.0 + abs(generic))
                worst = max(worst, gap)
    return worst <= 1e-8, f"worst relative gap {worst:.3e}"


def _check_input_expansion(rng: random.Random) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(8):
        n = rng.randrange(1, 3)
        sys_ = _random_system(rng, n)
        ca = as_control_affine(sys_)
        state = tuple(rng.uniform(-1.2, 1.2) for _ in range(2 * n))
        j = rng.randrange(1, n + 1)
        depth = rng.randrange(1, 4)
        u_rows = [rng.uniform(-1.0, 1.0) for _ in range(depth)]
        lhs = lie.nested_lie_along_affine(ca, u_rows, j, state)
        rhs = 0.0
        for mu in product((0, 1), repeat=depth):
            coeff = 1.0
            for pos, pick in enumerate(mu):
                if pick:
                    coeff *= u_rows[depth - 1 - pos]
            rhs += coeff * lie.evaluate_word(ca, ObservableWord(j, mu), state)
        gap = abs(lhs - rhs) / (1.0 + abs(rhs))
        worst = max(worst, gap)
    return worst <= 1e-8, f"worst relative gap {worst:.3e}"


def _check_resting_continuum(_: random.Random) -> tuple[bool, str]:
    grid = (-5.0, -1.0, 0.0, 1.0, 5.0)
    worst = 0.0
    for law, q0 in (
        (sim.FeedbackLaw.static("-y1"), ()),
        (sim.FeedbackLaw.parse(1, ("y1",), "-y1 - q1", n_outputs=1), (0.0,)),
    ):
        rep = sim.output_feedback_equilibria_check(preset("fish-1d-gauss"), law, q0, grid)
        worst = max(worst, rep.premise_residual, rep.max_residual)
    return worst <= 1e-12, f"max field residual {worst:.3e}"


def cmd_verify(cfg: argparse.Namespace) -> Result:
    rng = random.Random(cfg.seed)
    checks = (
        ("closed-form-identities", _check_closed_forms),
        ("input-polynomial-expansion", _check_input_expansion),
        ("resting-continuum", _check_resting_continuum),
    )
    results = []
    lines = []
    for name, fn in checks:
        passed, detail = fn(rng)
        results.append({"name": name, "passed": passed, "detail": detail})
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    all_passed = all(r["passed"] for r in results)
    out = {"properties": results, "all_passed": all_passed, "seed": cfg.seed}
    return Result(EXIT_OK if all_passed else EXIT_NEGATIVE, out, lines)


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    """One parser: the command, then the options every command shares, in
    any order."""
    p = argparse.ArgumentParser(
        prog="obsv-lab",
        description="Observability analysis of cascade systems with high-pass outputs.",
    )
    p.add_argument("command", choices=_HANDLERS)
    p.add_argument("--system", help="model file path, or preset:<name>")
    p.add_argument("--state", help="comma-separated state, positions first then velocities")
    p.add_argument("--state2", help="second state for pairwise commands")
    p.add_argument(
        "--input",
        dest="inputs",
        action="append",
        default=[],
        help="zero | const:<c> | sin:<a>,<w>[,<phi>] (repeatable for gramian)",
    )
    p.add_argument("--t-end", type=number, default=T_END_DEFAULT)
    p.add_argument("--dt", type=number, default=DT_DEFAULT)
    p.add_argument("--kmax", dest="k_max", type=integer, default=K_MAX_DEFAULT)
    p.add_argument("--lmax", dest="l_max", type=integer, default=None)
    p.add_argument("--seed", type=integer, default=0, help="seeds the random draws of verify")
    p.add_argument("--format", choices=("json", "text", "csv"), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    return p


# the commands whose Result has a CSV form
_CSV_COMMANDS = ("simulate", "gramian")

_HANDLERS = {
    "validate": cmd_validate,
    "observable": cmd_observable,
    "separate": cmd_separate,
    "rank": cmd_rank,
    "simulate": cmd_simulate,
    "distinguish": cmd_distinguish,
    "gramian": cmd_gramian,
    "verify": cmd_verify,
}


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(cfg: argparse.Namespace, result: Result) -> str:
    """The report in ``cfg.format``.  A JSON report holds the engines'
    values as they are: ``json`` writes tuples as lists and numpy's float64
    as a float, and the ``default`` hook turns any other numpy value, an
    array or a scalar, into Python numbers through its ``tolist``."""
    if cfg.format == "json":
        doc = {"command": cfg.command, "config": _config_dict(cfg), "report": result.report}
        return json.dumps(doc, indent=2, sort_keys=True, default=methodcaller("tolist")) + "\n"
    if cfg.format == "csv":
        return result.csv()
    return "\n".join(result.lines) + "\n"


def _finite_positive(v: float) -> bool:
    return 0.0 < v < math.inf  # false for nan too


# (flag, argument name, check, what the check asks for)
_NUMERIC_FLAGS = (
    ("--dt", "dt", _finite_positive, "finite and positive"),
    ("--t-end", "t_end", _finite_positive, "finite and positive"),
    ("--kmax", "k_max", lambda v: v >= 0, "at least 0"),
    ("--lmax", "l_max", lambda v: v is None or v >= 0, "at least 0"),
)


def main(argv=None) -> int:
    cfg = build_parser().parse_args(argv)
    try:
        for flag, key, ok, what in _NUMERIC_FLAGS:
            value = getattr(cfg, key)
            if not ok(value):
                raise UsageError(f"{flag} must be {what}, got {value!r}")
        cfg.state = _parse_state(cfg.state, "--state") if cfg.state else None
        cfg.state2 = _parse_state(cfg.state2, "--state2") if cfg.state2 else None
        if cfg.format == "csv" and cfg.command not in _CSV_COMMANDS:
            raise UsageError(f"csv format is not defined for {cfg.command}")
        result = _HANDLERS[cfg.command](cfg)
        _emit(_render(cfg, result), cfg.out)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (sim.BlowUpError, sim.InputError, ex.DomainError) as err:
        # no class here is a ValueError or OSError, so the order is free; this
        # one comes second so that a usage error does not load sim
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    return result.code


# BLAS thread counts the script sets to 1 where the user left them unset:
# the first SVD of a 400-state rank at rest spent 0.94 s waking a
# multithreaded OpenBLAS pool on an idle 2-core x86-64 machine, against
# 0.125 s for the whole call on one thread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run() -> None:
    """The ``obsv-lab`` script and ``python -m obsv_lab.cli``: ``main`` with
    BLAS on one thread unless the environment says otherwise (numpy reads
    these variables when it first loads, inside the command), then exit
    without a collector pass over the heap the command left behind
    (``gc.freeze`` moves it out of the collector's reach)."""
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
