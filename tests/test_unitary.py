import numpy as np
import pytest

from twophoton import (ConfigurationError, ModelParams,
                       NumericalInvariantError, amplitude_rhs,
                       build_hamiltonian, default_substep, evolve_amplitudes,
                       expm_reference, expm_series, time_grid,
                       two_photon_probability)
from twophoton.experiments import MAX_DEFAULT_HORIZON

P_RES = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5)


def test_initial_state_returned_exactly_at_t0():
    series = evolve_amplitudes("bimodal", P_RES, [0.0])
    assert series.values.shape == (1, 6)
    assert series.values[0, 0] == 1.0 + 0.0j
    assert np.all(series.values[0, 1:] == 0.0)


def test_rhs_is_minus_i_h_c():
    c = np.array([1.0, 0.5j, 0.0, -0.25, 0.0, 0.1], dtype=complex)
    h = build_hamiltonian("bimodal", P_RES)
    assert np.allclose(amplitude_rhs("bimodal", P_RES, c), -1j * (h @ c))


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
        c = expm_reference("bimodal", p, t)
        expected = -2.0 * p.g1 * p.g2 * t * t
        assert c[3].real == pytest.approx(expected, rel=2e-4)
        assert abs(c[3].imag) < abs(expected) * 0.1


def test_short_time_expansion_single_mode():
    # both photons in the same mode: c_target ~ -sqrt(2) g1 g2 t^2
    p = ModelParams(g2=2.0, delta_cap=-5.0, delta_small=2.75)
    t = 1e-3
    c = expm_reference("single_mode", p, t)
    expected = -np.sqrt(2.0) * p.g1 * p.g2 * t * t
    assert c[3].real == pytest.approx(expected, rel=2e-4)


def test_expm_reference_single_time_matches_series():
    grid = np.array([0.0, 1.0, 2.5])
    series = expm_series("bimodal", P_RES, grid)
    single = expm_reference("bimodal", P_RES, 2.5)
    assert np.allclose(series.values[-1], single)


def test_two_photon_probability_extracts_target_state():
    grid = np.linspace(0.0, 5.0, 51)
    series = evolve_amplitudes("bimodal", P_RES, grid)
    prob = two_photon_probability(series)
    assert np.allclose(prob.values, np.abs(series.values[:, 3]) ** 2)
    assert np.all(prob.values >= 0.0)
    assert np.all(prob.values <= 1.0 + 1e-12)


@pytest.mark.parametrize("horizon", [MAX_DEFAULT_HORIZON, 9999.99])
@pytest.mark.parametrize("kind,params", [
    ("bimodal", P_RES),
    ("single_mode", ModelParams(g2=2.0, delta_cap=-5.0, delta_small=2.75)),
])
def test_long_grid_accuracy_contract(kind, params, horizon):
    # RK4's global error grows like t*h^4*|E|^5; on the longest default
    # horizon and the longest admitted grid, at the damping-study points,
    # the default substep keeps it within a quarter of that
    t = time_grid(horizon)
    h = default_substep(params.delta_cap, params.delta_small,
                        params.g1, params.g2)
    energy = np.max(np.abs(np.linalg.eigvalsh(build_hamiltonian(kind, params))))
    values = evolve_amplitudes(kind, params, t).values
    # the exact series in chunks, so 10^6 points never need three copies
    err = max(np.max(np.abs(values[chunk]
                            - expm_series(kind, params, t[chunk]).values))
              for chunk in np.array_split(np.arange(t.size), 8))
    assert err <= 0.25 * t[-1] * h ** 4 * energy ** 5


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_coarse_substep_aborts_with_diagnostics():
    # a pathologically coarse substep blows the norm up; the engine must
    # refuse to hand back the result
    with pytest.raises(NumericalInvariantError) as err:
        evolve_amplitudes("bimodal",
                          ModelParams(g2=1.5, delta_cap=-10.0, delta_small=9.5),
                          np.linspace(0.0, 50.0, 101), substep=0.5)
    assert err.value.invariant == "amplitude norm"
    assert err.value.defect > 1e-6
    assert err.value.time is not None


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_norm_guard_rejects_nan_amplitudes():
    # the substep is so coarse that the amplitudes overflow to NaN; a NaN
    # drift must count as a breach, not slip past a ``>`` comparison
    with pytest.raises(NumericalInvariantError) as err:
        evolve_amplitudes("bimodal",
                          ModelParams(g2=1.5, delta_cap=-10.0, delta_small=9.5),
                          np.arange(0.0, 2000.0, 10.0), substep=10.0)
    assert err.value.invariant == "amplitude norm"
    # the drift is already ~2e6 at the first step; report that, not the
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
    series = evolve_amplitudes("bimodal", P_RES, np.linspace(0, 5, 51),
                               initial=c0)
    prob = two_photon_probability(series)
    assert prob.values[0] == pytest.approx(1.0)
    assert prob.values.min() < 0.99
