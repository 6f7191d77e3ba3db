import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophoton import (ConfigurationError, ModelParams,
                       NumericalInvariantError, build_hamiltonian,
                       evolve_amplitudes, evolve_population,
                       evolve_probability, expm_series, time_grid)
from twophoton import integrate, unitary
from twophoton.experiments import MAX_DEFAULT_HORIZON

P_RES = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5)


def test_initial_state_returned_exactly_at_t0():
    series = evolve_amplitudes("bimodal", P_RES, [0.0])
    assert series.values.shape == (1, 6)
    assert series.values[0, 0] == 1.0 + 0.0j
    assert np.all(series.values[0, 1:] == 0.0)


@pytest.mark.parametrize("kind,params", [
    ("bimodal", P_RES),
    ("bimodal", ModelParams(g2=2.5, delta_cap=8.0, delta_small=-7.5)),
    ("single_mode", ModelParams(g2=2.0, delta_cap=-5.0, delta_small=2.75)),
])
def test_stepper_matches_diagonalization(kind, params):
    grid = np.linspace(0.0, 25.0, 401)
    stepped = evolve_amplitudes(kind, params, grid)
    exact = expm_series(kind, params, grid)
    assert np.max(np.abs(stepped.values - exact.values)) < 1e-9


def test_norm_is_conserved():
    grid = np.linspace(0.0, 50.0, 501)
    series = evolve_amplitudes("bimodal", P_RES, grid)
    norms = np.linalg.norm(series.values, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_time_reversal_returns_initial():
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5)
    forward = evolve_amplitudes("bimodal", p, np.linspace(0.0, 10.0, 101))
    c_end = forward.values[-1]
    h = build_hamiltonian("bimodal", p)
    energies, vectors = np.linalg.eigh(h)
    back = (vectors * np.exp(+1j * energies * 10.0)) @ (vectors.T @ c_end)
    expected = np.zeros(6, dtype=complex)
    expected[0] = 1.0
    assert np.max(np.abs(back - expected)) < 1e-9


def test_short_time_expansion_bimodal():
    # both atoms emit into separate modes: c_target ~ -2 g1 g2 t^2
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5)
    for t in (1e-3, 2e-3):
        c = expm_series("bimodal", p, [t]).values[0]
        expected = -2.0 * p.g1 * p.g2 * t * t
        assert c[3].real == pytest.approx(expected, rel=2e-4)
        assert abs(c[3].imag) < abs(expected) * 0.1


def test_short_time_expansion_single_mode():
    # both photons in the same mode: c_target ~ -sqrt(2) g1 g2 t^2
    p = ModelParams(g2=2.0, delta_cap=-5.0, delta_small=2.75)
    t = 1e-3
    c = expm_series("single_mode", p, [t]).values[0]
    expected = -np.sqrt(2.0) * p.g1 * p.g2 * t * t
    assert c[3].real == pytest.approx(expected, rel=2e-4)


def test_expm_reference_single_time_matches_series():
    grid = np.array([0.0, 1.0, 2.5])
    # the one-point grid [t] gives the amplitudes at t of a longer grid
    series = expm_series("bimodal", P_RES, grid)
    single = expm_series("bimodal", P_RES, [2.5]).values[0]
    assert np.allclose(series.values[-1], single)


def test_two_photon_probability_extracts_target_state():
    grid = np.linspace(0.0, 5.0, 51)
    series = evolve_amplitudes("bimodal", P_RES, grid)
    prob = evolve_probability("bimodal", P_RES, grid)
    assert np.array_equal(prob.times, grid)
    assert np.allclose(prob.values, np.abs(series.values[:, 3]) ** 2)
    assert np.all(prob.values >= 0.0)
    assert np.all(prob.values <= 1.0 + 1e-12)


@pytest.mark.parametrize("horizon", [MAX_DEFAULT_HORIZON, 9999.99])
@pytest.mark.parametrize("kind,params", [
    ("bimodal", P_RES),
    ("single_mode", ModelParams(g2=2.0, delta_cap=-5.0, delta_small=2.75)),
])
def test_long_grid_accuracy_contract(kind, params, horizon):
    # each output step is exact to rounding, so on the longest default
    # horizon and the longest admitted grid, at the damping-study points,
    # the error against exact diagonalization grows only by rounding,
    # about 1e-15 per unit time
    t = time_grid(horizon)
    values = evolve_amplitudes(kind, params, t).values
    # the exact series in chunks, so 10^6 points never need three copies
    err = max(np.max(np.abs(values[chunk]
                            - expm_series(kind, params, t[chunk]).values))
              for chunk in np.array_split(np.arange(t.size), 8))
    assert err <= 1e-14 * t[-1]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(g=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
       detunings=st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)),
       kappas=st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3)))
def test_swap_symmetries(g, detunings, kappas):
    # (g1, g2, delta_cap, delta_small) -> (g2, g1, delta_small, delta_cap)
    # swaps the two modes of the bimodal system (with kappa_a <-> kappa_b)
    # and the two atoms of the single-mode one; the two-photon target is
    # mapped to itself, so its probability must not change
    (g1, g2), (cap, small), (ka, kb) = g, detunings, kappas
    p = ModelParams(g1=g1, g2=g2, delta_cap=cap, delta_small=small)
    swapped = ModelParams(g1=g2, g2=g1, delta_cap=small, delta_small=cap)
    t = time_grid(25.0)
    for kind in ("bimodal", "single_mode"):
        prob = [evolve_probability(kind, q, t).values for q in (p, swapped)]
        assert np.max(np.abs(prob[0] - prob[1])) <= 1e-12, kind
    t = time_grid(5.0)
    damped = [evolve_population("bimodal", p.replace(kappa_a=ka, kappa_b=kb),
                                t).values,
              evolve_population("bimodal",
                                swapped.replace(kappa_a=kb, kappa_b=ka),
                                t).values]
    assert np.max(np.abs(damped[0] - damped[1])) <= 1e-12


@pytest.mark.parametrize("scale,tol", [(2.0, 0.0), (0.5, 0.0),
                                       (3.0, 1e-13), (0.1, 1e-13)])
def test_unit_covariance(scale, tol):
    # the equations hold in any frequency unit: rates times lambda and
    # times over lambda give the same series; a power of two rescales
    # every float exactly, so there the series are bit-identical.  The
    # coarse grid cuts each interval into several sub-intervals.
    coherent = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5)
    cases = [(evolve_probability, "bimodal", coherent),
             (evolve_probability, "single_mode", coherent.replace(g2=2.0)),
             (evolve_population, "bimodal",
              coherent.replace(kappa_a=0.1, kappa_b=0.05)),
             (evolve_population, "single_mode",
              coherent.replace(g2=2.0, kappa_a=0.1))]
    t = time_grid(10.0, 0.25)
    for evolve, kind, p in cases:
        scaled = ModelParams(**{k: scale * v for k, v in vars(p).items()})
        base = evolve(kind, p, t).values
        assert np.max(np.abs(evolve(kind, scaled, t / scale).values
                             - base)) <= tol, (evolve.__name__, kind)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_coarse_substep_aborts_with_diagnostics(monkeypatch):
    # one Taylor step per 0.5 interval (THETA = inf) is pathologically
    # coarse and blows the norm up; the engine must refuse to hand back the
    # result
    monkeypatch.setattr(integrate, "THETA", math.inf)
    with pytest.raises(NumericalInvariantError) as err:
        evolve_amplitudes("bimodal",
                          ModelParams(g2=1.5, delta_cap=-10.0, delta_small=9.5),
                          np.linspace(0.0, 50.0, 101))
    assert err.value.invariant == "amplitude norm"
    assert err.value.defect > 1e-6
    assert err.value.time == 0.5


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_norm_guard_rejects_nan_amplitudes(monkeypatch):
    # one Taylor step per 10.0 interval (THETA = inf) is so coarse that the
    # amplitudes overflow to NaN; a NaN drift must count as a breach, not
    # slip past a ``>`` comparison
    monkeypatch.setattr(integrate, "THETA", math.inf)
    with pytest.raises(NumericalInvariantError) as err:
        evolve_amplitudes("bimodal",
                          ModelParams(g2=1.5, delta_cap=-10.0, delta_small=9.5),
                          np.arange(0.0, 2000.0, 10.0))
    assert err.value.invariant == "amplitude norm"
    # the drift is already ~1e24 at the first step; report that, not the
    # first NaN further down the grid
    assert err.value.time == 10.0


def test_unnormalized_initial_rejected():
    with pytest.raises(ConfigurationError):
        evolve_amplitudes("bimodal", P_RES, [0.0, 1.0],
                          initial=np.array([1.0, 1.0, 0, 0, 0, 0]))


def test_wrong_shape_initial_rejected():
    with pytest.raises(ConfigurationError):
        evolve_amplitudes("bimodal", P_RES, [0.0, 1.0],
                          initial=np.array([1.0, 0.0, 0.0, 0.0]))


def test_custom_initial_state():
    # start from the two-photon state instead; probability flows back
    c0 = np.zeros(6, dtype=complex)
    c0[3] = 1.0
    prob = evolve_probability("bimodal", P_RES, np.linspace(0, 5, 51),
                              initial=c0)
    assert prob.values[0] == pytest.approx(1.0)
    assert prob.values.min() < 0.99


@pytest.mark.parametrize("kind,params", [
    ("bimodal", P_RES),
    ("single_mode", ModelParams(g2=2.0, delta_cap=-5.0, delta_small=2.75)),
])
def test_blocked_amplitudes_equal_one_block(monkeypatch, kind, params):
    # 21 points: partial and one-row last blocks at BLOCK 2, 4 and 8; the
    # probability reader gives |c_target|^2 of the amplitudes
    t = time_grid(0.2)
    monkeypatch.setattr(integrate, "BLOCK", 1 << 30)
    amplitudes = evolve_amplitudes(kind, params, t)
    probability = np.abs(amplitudes.values[:, amplitudes.basis.two_photon_index]) ** 2
    for block in (1 << 30, 2, 4, 8):
        monkeypatch.setattr(integrate, "BLOCK", block)
        assert np.array_equal(evolve_amplitudes(kind, params, t).values,
                              amplitudes.values)
        series = evolve_probability(kind, params, t)
        assert np.array_equal(series.times, t)
        assert np.array_equal(series.values, probability)


def test_norm_breach_in_third_block_matches_one_block(monkeypatch):
    def stretch(generator, t_grid, y0):
        for start, block in integrate.propagate_blocks(generator, t_grid, y0):
            if start <= 9 < start + len(block):
                block[9 - start] *= 1.01
            yield start, block

    monkeypatch.setattr(unitary, "propagate_blocks", stretch)
    t = time_grid(0.2)
    raised = []
    for block in (1 << 30, 4):            # row 9: the third block of 4
        monkeypatch.setattr(integrate, "BLOCK", block)
        for evolve in (evolve_amplitudes, evolve_probability):
            with pytest.raises(NumericalInvariantError) as err:
                evolve("bimodal", P_RES, t)
            raised.append(err.value)
    for other in raised:
        assert (other.invariant, other.time) == ("amplitude norm", t[9])
        assert other.defect == raised[0].defect
