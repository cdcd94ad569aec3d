"""Seeded operation streams for the three benchmark workloads, with their
known answers.

Every expected verdict is derived from how the input was built (a gain with
period 2*pi/a, a shift by whole periods, a pair 1e-13 apart, a resting
state), using only the standard ``math`` module on the gain's closed form.
Nothing here runs ``obsv_lab`` to decide what the answer should be.  Where
the construction fixes no answer the check is limited to well-formedness.

An operation's outcome is one of:
  ``ok``      the program returned the known answer (or a well-formed result);
  ``failed``  it raised, exited with an error code, or stayed undetermined
              where the construction fixes a definite answer;
  ``wrong``   it returned a definite verdict that contradicts the known
              answer, or a malformed result.
Both ``failed`` and ``wrong`` count in the failed share; only ``wrong``
makes a run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys

from pace import read_report

OK, FAILED, WRONG = "ok", "failed", "wrong"
PACE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pace.py")
TWO_PI = 2.0 * math.pi

ANALYSIS_K_MAX = 8   # stated bound for every analysis question (see README)
NEAR_GAP = 1e-13     # velocity offset of the near-identical pair


# ---------------------------------------------------------------------------
# gain pool: (source template, closed-form value, period) per kind


def _gain(kind: str, rng: random.Random, pole_clearance: float) -> dict:
    a = round(rng.uniform(0.5, 2.0), 3)
    c = round(rng.uniform(1.5, 3.0), 3)
    if kind == "sin":
        return {"kind": kind, "src": f"sin({a}*x)", "a": a, "period": TWO_PI / a}
    if kind == "cos":
        return {"kind": kind, "src": f"cos({a}*x)", "a": a, "period": TWO_PI / a}
    if kind == "gauss":
        a = round(rng.uniform(0.3, 1.5), 3)
        return {"kind": kind, "src": f"exp(-{a}*x^2)", "a": a, "period": None}
    if kind == "drift":
        return {"kind": kind, "src": f"{c} + sin(x) + 0.1*x", "c": c, "period": None}
    if kind == "tanh":
        return {"kind": kind, "src": f"tanh({a}*x)", "a": a, "period": None}
    if kind == "hyp":
        c = round(pole_clearance + rng.uniform(0.0, 1.4), 3)
        return {"kind": kind, "src": f"1/(x + {c})", "c": c, "period": None}
    raise ValueError(kind)


def gain_value(g: dict, x: float) -> float:
    kind = g["kind"]
    if kind == "sin":
        return math.sin(g["a"] * x)
    if kind == "cos":
        return math.cos(g["a"] * x)
    if kind == "gauss":
        return math.exp(-g["a"] * x * x)
    if kind == "drift":
        return g["c"] + math.sin(x) + 0.1 * x
    if kind == "tanh":
        return math.tanh(g["a"] * x)
    return 1.0 / (x + g["c"])


F_TEMPLATES = (
    "-{d}*z{i}",
    "-{d}*z{i} + 0.4*sin(z{j})",
    "-{d}*z{i} + 0.2*tanh(z{j})",
    "-{d}*z{i} + 0.1*z{j}^2",
)


def _system(rng: random.Random, blocks, pole_clearance: float) -> dict:
    """Cascade with one (gain kind, F template index) per block; block i
    couples to block i+1 (cyclically)."""
    n = len(blocks)
    gains = [_gain(kind, rng, pole_clearance) for kind, _ in blocks]
    F = [F_TEMPLATES[f].format(d=round(rng.uniform(0.5, 2.0), 3), i=i, j=i % n + 1)
         for i, (_, f) in enumerate(blocks, start=1)]
    b = [round(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.5), 3) for _ in range(n)]
    return {"n": n, "gains": gains, "F": F, "b": b}


def _visible_position(rng: random.Random, g: dict) -> float:
    """A position in [-1, 1] where the gain is clearly nonzero."""
    while True:
        p = round(rng.uniform(-1.0, 1.0), 4)
        if abs(gain_value(g, p)) >= 0.1:
            return p


def build_system(desc: dict):
    """Parse a system description into an ``obsv_lab`` CascadeSystem."""
    from obsv_lab import expr as ex
    from obsv_lab.model import CascadeSystem

    n = desc["n"]
    zs = {f"z{i}" for i in range(1, n + 1)}
    return CascadeSystem(
        n=n,
        gamma=tuple(ex.parse(g["src"], {"x"}) for g in desc["gains"]),
        F=tuple(ex.parse(f, zs) for f in desc["F"]),
        b=tuple(desc["b"]),
    )


# ---------------------------------------------------------------------------
# analysis: sessions of questions about one fresh cascade


def _analysis_session(rng: random.Random, blocks) -> list[dict]:
    desc = _system(rng, blocks, pole_clearance=2.5)
    n = desc["n"]
    gains = desc["gains"]
    pos = [_visible_position(rng, g) for g in gains]
    vel = [round(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5), 4) for _ in range(n)]
    s0 = pos + vel
    ops = [{"op": "aperiodic", "sys": desc}]

    i = rng.randrange(n)
    s1 = list(s0)
    s1[n + i] = round(vel[i] + rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0), 4)
    ops.append({"op": "separate", "pair": "velocity", "sys": desc, "s0": s0, "s1": s1, "block": i})
    ops.append({"op": "replay", "sys": desc, "s0": s0, "s1": s1})

    i = rng.randrange(n)
    g = gains[i]
    while True:
        delta = round(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0), 4)
        if abs(gain_value(g, pos[i]) - gain_value(g, pos[i] + delta)) >= 0.01:
            break
    s1 = list(s0)
    s1[i] = pos[i] + delta
    ops.append({"op": "separate", "pair": "position", "sys": desc, "s0": s0, "s1": s1, "block": i})
    ops.append({"op": "replay", "sys": desc, "s0": s0, "s1": s1})

    periodic = [k for k, g in enumerate(gains) if g["period"] is not None]
    if periodic:
        i = rng.choice(periodic)
        s1 = list(s0)
        s1[i] = pos[i] + rng.choice((1, 2)) * gains[i]["period"]
        ops.append({"op": "separate", "pair": "shift", "sys": desc, "s0": s0, "s1": s1})

    i = rng.randrange(n)
    s1 = list(s0)
    s1[n + i] = vel[i] + NEAR_GAP
    ops.append({"op": "separate", "pair": "near", "sys": desc, "s0": s0, "s1": s1})

    ops.append({"op": "rank", "at": "rest", "sys": desc, "state": pos + [0.0] * n})
    ops.append({"op": "rank", "at": "moving", "sys": desc, "state": s0})
    return ops


# A round runs its template twice.  At the seed commit one round takes
# 16-46 s on a 2-core machine.  Three repeats were no steadier over five
# seeds, and would push the 70 runs of a full benchmark pass near an hour.
ROUND_REPEATS = 2

# Sessions of a round as (gain kind, F template index) per block.  The
# kinds, dimensions and couplings are fixed so every round does the same
# amount of symbolic work whatever the seed; each kind appears three times
# and each dimension three times.  The seed picks coefficients, states and pairs.
ANALYSIS_TEMPLATE = (
    (("sin", 1),),
    (("hyp", 3),),
    (("drift", 2),),
    (("cos", 0), ("gauss", 2)),
    (("tanh", 3), ("hyp", 1)),
    (("sin", 2), ("drift", 1)),
    (("gauss", 1), ("sin", 0), ("tanh", 2)),
    (("hyp", 0), ("drift", 2), ("cos", 3)),
    (("tanh", 0), ("cos", 1), ("gauss", 3)),
)


def analysis_round(rng: random.Random) -> list[dict]:
    return [op for blocks in ANALYSIS_TEMPLATE * ROUND_REPEATS
            for op in _analysis_session(rng, blocks)]


# ---------------------------------------------------------------------------
# simulation: integration experiments


# (experiment, horizon s, inputs, blocks) with blocks as in ANALYSIS_TEMPLATE.
# Horizons {2, 5, 10} s, gains and couplings are dealt by this fixed template
# so every round integrates the same steps of the same expressions whatever
# the seed; the seed picks coefficients, states, inputs and the order.
# Only the bounded couplings (sin, tanh) are used: with 0.1*z^2 a steady
# input can drive the velocity to infinity.  Shift experiments put a
# periodic gain on block 1.
SIMULATION_TEMPLATE = (
    ("integrate", 10.0, 1, (("gauss", 1),)),
    ("integrate", 10.0, 1, (("drift", 0), ("tanh", 2))),
    ("distinguish", 5.0, 1, (("hyp", 2),)),
    ("distinguish", 10.0, 1, (("tanh", 1), ("gauss", 0))),
    ("indistinguish", 10.0, 2, (("sin", 0),)),
    ("indistinguish", 2.0, 2, (("cos", 2), ("hyp", 1))),
    ("sweep", 5.0, 3, (("drift", 2),)),
    ("sweep", 2.0, 3, (("gauss", 1), ("sin", 0))),
    ("shift_gramian", 2.0, 1, (("cos", 1),)),
    ("shift_gramian", 5.0, 1, (("sin", 2), ("drift", 1))),
)


def _sinusoid(rng: random.Random) -> str:
    amp = round(rng.uniform(0.3, 1.0), 3)
    omega = round(rng.uniform(1.0, 3.0), 3)
    # cosine phase keeps the mean velocity, and so the position drift, small
    return f"sin:{amp},{omega},1.5707963267948966"


def _simulation_op(rng: random.Random, kind: str, horizon: float, n_inputs: int, blocks) -> dict:
    # the pole of 1/(x + c) stays farther than any position an input reaches
    desc = _system(rng, blocks, pole_clearance=7.0)
    n = desc["n"]
    gains = desc["gains"]
    pos = [_visible_position(rng, g) for g in gains]
    op = {"op": kind, "sys": desc, "t_end": horizon}
    if kind == "integrate":
        vel = [round(rng.uniform(-0.5, 0.5), 4) for _ in range(n)]
        op.update(state=pos + vel, input=_sinusoid(rng))
    elif kind == "distinguish":
        vel = [round(rng.uniform(-0.5, 0.5), 4) for _ in range(n)]
        i = rng.randrange(n)
        s1 = pos + vel
        s1[n + i] = round(vel[i] + rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.3), 4)
        op.update(s0=pos + vel, s1=s1, block=i, input=_sinusoid(rng))
    elif kind == "indistinguish":
        shift = [0.0] * n
        shift[0] = rng.choice((1, 2)) * gains[0]["period"]
        op.update(shift=shift, inputs=[_sinusoid(rng) for _ in range(n_inputs)])
    elif kind == "sweep":
        inputs = [_sinusoid(rng) for _ in range(n_inputs - 1)]
        inputs.insert(rng.randrange(n_inputs), "zero")
        op.update(state=pos + [0.0] * n, inputs=inputs)
    else:  # shift_gramian
        shift = [0.0] * n
        shift[0] = rng.choice((1, 2)) * gains[0]["period"]
        op.update(state=pos + [0.0] * n, shift=shift, input=_sinusoid(rng))
    return op


def simulation_round(rng: random.Random) -> list[dict]:
    ops = [_simulation_op(rng, *cell) for cell in SIMULATION_TEMPLATE * ROUND_REPEATS]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli: README examples plus the two default-order near-identical cases


# (name, argv, expected exit code).  Expected codes come from the systems:
# exp(-x^2) is aperiodic (0); gamma(0) = 1 splits velocities 1 and 2 (0);
# 6.2832 is not 2*pi, so sin tells the two positions apart (0); at rest only
# the velocity is seen, rank 1 of 2 (1); moving, 2*gamma'^2 - gamma*gamma''
# = 2 at x = 0 gives full rank (0); sin-drift adds 0.1*x, so a 6.2832 shift
# changes the output once the input moves the state (0); a sinusoid at rest
# excites the Gaussian gain (0); the self-check passes (0); velocities
# 1e-13 apart stay within every tolerance at every order (3).
CLI_COMMANDS = (
    ("observable", "observable --system preset:fish-1d-gauss", 0),
    ("separate-velocity", "separate --system preset:fish-1d-gauss --state 0,1 --state2 0,2", 0),
    ("separate-periodic", "separate --system preset:periodic-sin --state 0,0 --state2 6.2832,0", 0),
    ("rank-rest", "rank --system preset:fish-1d-gauss --state 0,0", 1),
    ("rank-moving", "rank --system preset:fish-1d-gauss --state 0,1", 0),
    ("simulate", "simulate --system preset:fish-1d-gauss --state 0,0 --input const:1 "
                 "--t-end 10 --format csv --out traj.csv", 0),
    ("distinguish", "distinguish --system preset:sin-drift --state 0,0 --state2 6.2832,0 "
                    "--input sin:1,1,0", 0),
    ("gramian", "gramian --system preset:fish-1d-gauss --state 0,0 --input zero "
                "--input sin:1,6.2832,0", 0),
    ("verify", "verify --seed 0", 0),
    ("separate-gauss-near", "separate --system preset:fish-1d-gauss --state 0,1 "
                            "--state2 0,1.0000000000001", 3),
    ("separate-hyperbolic-near", "separate --system preset:fish-1d-hyperbolic --state 0,1 "
                                 "--state2 0,1.0000000000001", 3),
)


def cli_round(rng: random.Random) -> list[dict]:
    ops = [{"op": "cli", "name": name, "argv": argv.split(), "exit": code}
           for name, argv, code in CLI_COMMANDS * ROUND_REPEATS]
    rng.shuffle(ops)
    return ops


ROUND_BUILDERS = {"analysis": analysis_round, "simulation": simulation_round, "cli": cli_round}
ROUNDS_PER_RUN = 1  # a run measures exactly this many rounds, however fast they go


def generate(workload: str, seed: int) -> list[list[dict]]:
    """The rounds one run executes, and nothing more."""
    rng = random.Random(f"{workload}:{seed}")
    return [ROUND_BUILDERS[workload](rng) for _ in range(ROUNDS_PER_RUN)]


def digest(rounds) -> str:
    blob = json.dumps(rounds, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# execution and checks


def grade(outcomes) -> tuple[int, int]:
    """(failed, wrong): failed counts every operation that did not return
    its known answer; wrong counts those that contradicted it."""
    return (sum(1 for o in outcomes if o != OK), sum(1 for o in outcomes if o == WRONG))


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return math.isfinite(a) and abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


class Executor:
    """Runs operations against ``obsv_lab`` and grades each against its
    known answer.  Systems are parsed once, at set-up."""

    def __init__(self, rounds, workdir: str | None = None):
        from obsv_lab import gramian, lie, model, obsv, sim

        self.m = {"lie": lie, "model": model, "obsv": obsv, "sim": sim, "gramian": gramian}
        self.workdir = workdir  # cwd of cli commands (the README writes traj.csv)
        self.systems = {}
        for rnd in rounds:
            for op in rnd:
                if "sys" in op:
                    key = id(op["sys"])
                    if key not in self.systems:
                        self.systems[key] = build_system(op["sys"])
        self.last_cert = None  # the witness a following "replay" checks
        self.cli_pace = None   # the last cli command's speed report (pace.py)

    def _sys(self, op):
        return self.systems[id(op["sys"])]

    def run(self, op: dict) -> tuple[str, str]:
        """Execute one operation; returns (outcome, detail)."""
        handler = getattr(self, "_op_" + op["op"])
        try:
            return handler(op)
        except Exception as err:  # a raising operation is a failed operation
            return FAILED, f"{type(err).__name__}: {err}"

    # analysis ------------------------------------------------------------

    def _op_aperiodic(self, op):
        obsv = self.m["obsv"]
        rep = obsv.is_aperiodic_system(self._sys(op), k_max=ANALYSIS_K_MAX)
        gains = op["sys"]["gains"]
        periodic = any(g["period"] is not None for g in gains)
        for g, v in zip(gains, rep.gamma_verdicts):
            if v.classification == obsv.CLASS_UNDETERMINED:
                return FAILED, f"{g['src']}: undetermined"
            if (v.classification == obsv.CLASS_PERIODIC) != (g["period"] is not None):
                return WRONG, f"{g['src']}: {v.classification}"
            if g["period"] is not None:
                ratio = v.period / g["period"]
                if round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-6:
                    return WRONG, f"{g['src']}: period {v.period} vs {g['period']}"
        expected = "not-observable" if periodic else "observable"
        if rep.verdict != expected:
            return WRONG, f"verdict {rep.verdict}, expected {expected}"
        return OK, ""

    def _op_separate(self, op):
        obsv = self.m["obsv"]
        self.last_cert = None
        cert = obsv.find_separating_observable(self._sys(op), op["s0"], op["s1"], k_max=ANALYSIS_K_MAX)
        self.last_cert = cert
        pair = op["pair"]
        if pair in ("velocity", "position"):
            if cert.verdict == obsv.VERDICT_UNRESOLVED:
                return FAILED, "unresolved"
            if cert.verdict != obsv.VERDICT_SEPARATED:
                return WRONG, cert.verdict
            i = op["block"]
            n = op["sys"]["n"]
            g = op["sys"]["gains"][i]
            b = op["sys"]["b"][i]
            if pair == "velocity":
                word = obsv.word_lflg(i + 1, 0)
                want = (gain_value(g, op["s0"][i]) * op["s0"][n + i],
                        gain_value(g, op["s1"][i]) * op["s1"][n + i])
            else:
                word = obsv.word_lglflg(i + 1, 0)
                want = (gain_value(g, op["s0"][i]) * b, gain_value(g, op["s1"][i]) * b)
            if cert.witness != word:
                return WRONG, f"witness {cert.witness}, expected {word}"
            if not (_close(cert.value0, want[0]) and _close(cert.value1, want[1])):
                return WRONG, f"values {cert.value0}, {cert.value1} vs {want}"
            return OK, ""
        expected = obsv.VERDICT_SHIFT if pair == "shift" else obsv.VERDICT_UNRESOLVED
        if cert.verdict == expected:
            return OK, ""
        if pair == "shift" and cert.verdict == obsv.VERDICT_UNRESOLVED:
            return FAILED, "shift not validated"
        return WRONG, f"{pair}: {cert.verdict}"

    def _op_replay(self, op):
        cert = self.last_cert
        if cert is None or cert.witness is None:
            return FAILED, "no witness to replay"
        ca = self.m["model"].as_control_affine(self._sys(op))
        v0 = self.m["lie"].evaluate_word(ca, cert.witness, op["s0"])
        v1 = self.m["lie"].evaluate_word(ca, cert.witness, op["s1"])
        if not (_close(v0, cert.value0, 1e-8) and _close(v1, cert.value1, 1e-8)):
            return WRONG, f"replay {v0}, {v1} vs {cert.value0}, {cert.value1}"
        return OK, ""

    def _op_rank(self, op):
        import numpy as np

        rep = self.m["obsv"].local_rank(self._sys(op), op["state"])
        n = op["sys"]["n"]
        sv = np.asarray(rep.singular_values)
        if (rep.dim != 2 * n or rep.gradients.shape != (len(rep.words), 2 * n)
                or not np.all(np.isfinite(rep.gradients)) or not np.all(np.isfinite(sv))
                or np.any(sv < 0) or np.any(np.diff(sv) > 0)):
            return WRONG, "malformed rank report"
        if op["at"] == "rest":
            # outputs gamma_i(x_i) z_i vanish at rest, so only the n velocity
            # directions are seen, each through gamma_i(x_i) != 0
            if rep.rank != n:
                return WRONG, f"rank {rep.rank} at rest, expected {n}"
        elif not n <= rep.rank <= 2 * n:
            return WRONG, f"rank {rep.rank} moving, expected {n}..{2 * n}"
        return OK, ""

    # simulation ----------------------------------------------------------

    def _op_integrate(self, op):
        sim = self.m["sim"]
        u = sim.parse_input_spec(op["input"])
        traj = sim.integrate(self._sys(op), op["state"], u, op["t_end"])
        return _check_csv(traj.to_csv(), op["sys"], op["t_end"], sim.DT_DEFAULT)

    def _op_distinguish(self, op):
        sim = self.m["sim"]
        u = sim.parse_input_spec(op["input"])
        res = sim.distinguishability_experiment(self._sys(op), op["s0"], op["s1"], u, op["t_end"])
        i = op["block"]
        n = op["sys"]["n"]
        g = op["sys"]["gains"][i]
        gap0 = abs(gain_value(g, op["s0"][i]) * (op["s0"][n + i] - op["s1"][n + i]))
        # the outputs already differ by gap0 > diverged_tol at t = 0
        if res.classification != "diverged" or res.first_divergence != 0.0:
            return WRONG, f"{res.classification} at {res.first_divergence}"
        if not res.gap >= gap0 * (1 - 1e-9):
            return WRONG, f"gap {res.gap} below the t=0 gap {gap0}"
        return OK, ""

    def _op_indistinguish(self, op):
        sim = self.m["sim"]
        inputs = [sim.parse_input_spec(s) for s in op["inputs"]]
        res = sim.indistinguishability_experiment(self._sys(op), op["shift"], inputs, op["t_end"])
        if len(res) != len(inputs):
            return WRONG, "result count"
        for r in res:
            if not r.gap <= sim.DIST_TOL_DEFAULT:
                return WRONG, f"period shift gap {r.gap} under {r.input}"
        return OK, ""

    def _op_sweep(self, op):
        sim, gramian = self.m["sim"], self.m["gramian"]
        inputs = [sim.parse_input_spec(s) for s in op["inputs"]]
        ranked = gramian.input_sweep(self._sys(op), op["state"], inputs, t_end=op["t_end"])
        if sorted(idx for idx, _ in ranked) != list(range(len(inputs))):
            return WRONG, "sweep lost an input"
        keys = [(-rep.sigma_min, idx) for idx, rep in ranked]
        if keys != sorted(keys):
            return WRONG, "sweep not sorted by sigma_min"
        n = op["sys"]["n"]
        for idx, rep in ranked:
            bad = _malformed_gramian(rep)
            if bad:
                return WRONG, bad
            if op["inputs"][idx] == "zero":
                # at rest with no input, position perturbations leave the
                # output at zero; velocity perturbations still show
                if rep.classification() != "singular":
                    return WRONG, f"zero input at rest: {rep.classification()}"
                if (rep.matrix[:n] != 0.0).any() or rep.weak_signal:
                    return WRONG, "zero input at rest: position rows or weak flag"
        return OK, ""

    def _op_shift_gramian(self, op):
        sim, gramian = self.m["sim"], self.m["gramian"]
        u = sim.parse_input_spec(op["input"])
        rep = gramian.shift_comparison_gramian(self._sys(op), op["state"], op["shift"], u,
                                               t_end=op["t_end"])
        bad = _malformed_gramian(rep)
        if bad:
            return WRONG, bad
        if not rep.sigma_min <= 1e-8 * rep.sigma_max:
            return WRONG, f"period shift visible: sigma_min {rep.sigma_min}"
        return OK, ""

    # cli -----------------------------------------------------------------

    def _op_cli(self, op):
        out_csv = os.path.join(self.workdir, "traj.csv")
        if os.path.exists(out_csv):
            os.remove(out_csv)
        # the environment, src/ on PYTHONPATH included, is inherited from run.py;
        # pace.py runs the command as ``python3 -m`` would and reports its speed
        report = os.path.join(self.workdir, "pace.txt")
        self.cli_pace = None
        proc = subprocess.run([sys.executable, PACE, report, "-m", "obsv_lab.cli"] + op["argv"],
                              cwd=self.workdir, capture_output=True, text=True, timeout=170)
        self.cli_pace = read_report(report)
        code = proc.returncode
        if code != op["exit"]:
            if code in (0, 1):  # a definite verdict that contradicts the known one
                return WRONG, f"exit {code}, expected {op['exit']}"
            return FAILED, f"exit {code}, expected {op['exit']}: {proc.stderr.strip()[-200:]}"
        return _check_cli_report(op["name"], proc.stdout, out_csv)


def _malformed_gramian(rep) -> str:
    import numpy as np

    W = rep.matrix
    sv = np.asarray(rep.singular_values)
    if not (np.all(np.isfinite(W)) and np.all(np.isfinite(sv))):
        return "non-finite gramian"
    scale = max(1.0, float(sv[0]))
    if np.max(np.abs(W - W.T)) > 1e-12 * scale:
        return "asymmetric gramian"
    if np.linalg.eigvalsh(W).min() < -1e-9 * scale:
        return "gramian not PSD"
    if np.any(sv < 0) or np.any(np.diff(sv) > 0):
        return "singular values not sorted"
    return ""


def _check_csv(text: str, desc: dict, t_end: float, dt: float) -> tuple[str, str]:
    n = desc["n"]
    lines = text.split("\n")
    steps = int(round(t_end / dt))
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"z{i}" for i in range(1, n + 1)] \
        + [f"y{i}" for i in range(1, n + 1)]
    if lines[0].split(",") != header or len(lines) != steps + 3 or lines[-1] != "":
        return WRONG, "csv shape"
    for k in (0, steps // 2, steps):
        row = [float(v) for v in lines[k + 1].split(",")]
        if not all(math.isfinite(v) for v in row) or not _close(row[0], k * dt):
            return WRONG, f"csv row {k}"
        for i, g in enumerate(desc["gains"]):
            y = gain_value(g, row[1 + i]) * row[1 + n + i]
            if not _close(row[1 + 2 * n + i], y, 1e-9, 1e-12):
                return WRONG, f"csv row {k}: y{i + 1} {row[1 + 2 * n + i]} vs {y}"
    return OK, ""


def _check_cli_report(name: str, stdout: str, out_csv: str) -> tuple[str, str]:
    if name == "simulate":
        with open(out_csv) as fh:
            text = fh.read()
        gauss = {"kind": "gauss", "a": 1.0, "period": None}
        return _check_csv(text, {"n": 1, "gains": [gauss]}, 10.0, 1e-3)
    report = json.loads(stdout)["report"]
    expected = {
        "observable": ("verdict", "observable"),
        "separate-velocity": ("verdict", "separated"),
        "separate-periodic": ("verdict", "separated"),
        "rank-rest": ("rank", 1),
        "rank-moving": ("rank", 2),
        "distinguish": ("classification", "diverged"),
        "verify": ("all_passed", True),
        "separate-gauss-near": ("verdict", "not-separated-within-bounds"),
        "separate-hyperbolic-near": ("verdict", "not-separated-within-bounds"),
    }
    if name == "gramian":
        best, *rest = report["ranking"]
        zero = [e for e in report["ranking"] if e["input"] == "zero"]
        if best["input"] != "sin:1,6.2832,0" or best["classification"] != "observable" \
                or len(zero) != 1 or zero[0]["classification"] != "singular":
            return WRONG, "gramian ranking"
        return OK, ""
    key, want = expected[name]
    if report.get(key) != want:
        return WRONG, f"{key} = {report.get(key)!r}, expected {want!r}"
    return OK, ""
