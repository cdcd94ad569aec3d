import math
import random

import numpy as np
import pytest

import obsv_lab.expr as ex
from obsv_lab.gramian import (
    GramianReport,
    empirical_gramian,
    input_sweep,
    shift_comparison_gramian,
)
from obsv_lab.model import CascadeSystem, preset
from obsv_lab.obsv import local_rank
from obsv_lab.sim import InputSignal

TWO_PI = 2.0 * math.pi
SIN_1HZ = InputSignal.sinusoid(1.0, TWO_PI)


def test_gramian_symmetric_psd():
    rep = empirical_gramian(preset("fish-1d-gauss"), (0.3, 0.5), SIN_1HZ, t_end=5.0)
    W = rep.matrix
    assert np.max(np.abs(W - W.T)) <= 1e-12
    eig = np.linalg.eigvalsh(W)
    assert eig.min() >= -1e-12 * rep.sigma_max
    assert np.all(np.diff(rep.singular_values) <= 0)


def test_rest_state_is_singular():
    rep = empirical_gramian(preset("fish-1d-gauss"), (0.0, 0.0), InputSignal.zero())
    assert rep.sigma_min <= 1e-12
    assert rep.classification() == "singular"
    assert rep.condition_number is None
    # position perturbations at rest change nothing: that row is exactly zero
    assert np.all(rep.matrix[0] == 0.0)


def test_active_input_restores_visibility():
    rep = empirical_gramian(preset("fish-1d-gauss"), (0.0, 0.0), SIN_1HZ)
    assert rep.sigma_min > 1e-6
    assert rep.classification() == "observable"
    assert rep.condition_number is not None


def test_weak_signal_flag():
    mute = CascadeSystem(
        n=1,
        gamma=(ex.parse("0", ()),),
        F=(ex.parse("-z1", {"z1"}),),
        b=(1.0,),
    )
    rep = empirical_gramian(mute, (0.0, 0.0), SIN_1HZ, t_end=2.0)
    assert rep.weak_signal
    assert rep.sigma_max <= 1e-12
    moving = empirical_gramian(preset("fish-1d-gauss"), (0.0, 0.0), SIN_1HZ, t_end=2.0)
    assert not moving.weak_signal


def test_gramian_validations():
    sys = preset("fish-1d-gauss")
    with pytest.raises(ValueError):
        empirical_gramian(sys, (0.0, 0.0), SIN_1HZ, eps=0.0)
    with pytest.raises(ValueError):
        empirical_gramian(sys, (0.0, 0.0, 0.0), SIN_1HZ)


def test_input_sweep_puts_zero_input_last():
    inputs = [InputSignal.zero(), InputSignal.sinusoid(0.1, TWO_PI), SIN_1HZ]
    ranked = input_sweep(preset("fish-1d-gauss"), (0.0, 0.0), inputs, t_end=5.0)
    assert ranked[-1][0] == 0
    sigmas = [rep.sigma_min for _, rep in ranked]
    assert sigmas == sorted(sigmas, reverse=True)


def test_input_sweep_singleton_and_ties():
    ranked = input_sweep(preset("fish-1d-gauss"), (0.0, 0.0), [SIN_1HZ], t_end=2.0)
    assert [idx for idx, _ in ranked] == [0]
    ranked = input_sweep(preset("fish-1d-gauss"), (0.0, 0.0), [SIN_1HZ, SIN_1HZ], t_end=2.0)
    assert [idx for idx, _ in ranked] == [0, 1]
    assert abs(ranked[0][1].sigma_min - ranked[1][1].sigma_min) <= 1e-12
    with pytest.raises(ValueError):
        input_sweep(preset("fish-1d-gauss"), (0.0, 0.0), [], t_end=2.0)


def test_period_shift_direction_is_invisible():
    rep = shift_comparison_gramian(preset("periodic-sin"), (0.0, 0.0), (TWO_PI,), SIN_1HZ)
    assert rep.sigma_min <= 1e-8 * rep.sigma_max


def test_aperiodic_shift_direction_stays_visible():
    rep = shift_comparison_gramian(preset("fish-1d-gauss"), (0.0, 0.0), (TWO_PI,), SIN_1HZ)
    assert rep.sigma_min > 1e-8 * rep.sigma_max


def test_shift_comparison_validations():
    sys = preset("periodic-sin")
    with pytest.raises(ValueError):
        shift_comparison_gramian(sys, (0.0, 0.0), (0.0,), SIN_1HZ)
    with pytest.raises(ValueError):
        shift_comparison_gramian(sys, (0.0, 0.0), (1.0, 1.0), SIN_1HZ)


def test_sigma_min_usually_implies_full_local_rank():
    # trajectory-level visibility vs pointwise rank: related but distinct
    # notions.  They disagree exactly on the gain 1/(x + 3): its zero-input
    # rank condition 2*gamma'^2 - gamma*gamma'' = 2/(x+3)^4 - 2/(x+3)^4 is
    # identically 0, so local_rank is deficient at every state, while the
    # sinusoidal input still makes the position visible over the horizon.
    # A disagreement on any other gain is a failure.
    rng = random.Random(9)
    degenerate_gain = "1/(x + 3)"
    gains = ["exp(-x^2)", "2 + sin(x) + 0.1*x", "tanh(x)", degenerate_gain]
    degenerate_cases = set()
    disagreements = set()
    for case in range(20):
        gain = rng.choice(gains)
        if gain == degenerate_gain:
            degenerate_cases.add(case)
        sys = CascadeSystem(
            n=1,
            gamma=(ex.parse(gain, {"x"}),),
            F=(ex.parse("-z1", {"z1"}),),
            b=(1.0,),
        )
        x0 = (rng.uniform(-1.0, 1.0), rng.choice([-1, 1]) * rng.uniform(0.2, 1.5))
        u = InputSignal.sinusoid(rng.uniform(0.5, 1.5), rng.uniform(2.0, 8.0))
        rep = empirical_gramian(sys, x0, u, t_end=5.0, dt=2e-3)
        if rep.sigma_min > 1e-6 and not local_rank(sys, x0).locally_observable:
            disagreements.add(case)
    assert degenerate_cases  # the seed draws the degenerate gain
    assert disagreements == degenerate_cases
