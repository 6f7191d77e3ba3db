import numpy as np
import pytest

from twophoton import (ConfigurationError, DensityMatrix, ModelParams,
                       NumericalInvariantError, default_substep,
                       embed_unitary_sector, enumerate_basis,
                       evolve_amplitudes, evolve_density, lindblad_rhs,
                       population_series, time_grid, two_photon_population)
from twophoton import integrate, lindblad

DAMPED_PARAMS = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.55,
                   kappa_a=0.1, kappa_b=0.1)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------------------
# generator structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,dim", [("bimodal", 13), ("single_mode", 8)])
def test_rhs_preserves_trace_and_hermiticity(kind, dim):
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5, kappa_a=0.1,
                    kappa_b=0.05 if kind == "bimodal" else 0.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        rho = random_density(dim, rng)
        deriv = lindblad_rhs(kind, p, rho)
        assert abs(np.trace(deriv)) < 1e-12
        assert np.max(np.abs(deriv - deriv.conj().T)) < 1e-12


@pytest.mark.parametrize("kind,dim", [("bimodal", 13), ("single_mode", 8)])
def test_generator_matches_rhs(kind, dim):
    # the generator on vec(rho) is built from lindblad_rhs
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5, kappa_a=0.1,
                    kappa_b=0.05 if kind == "bimodal" else 0.0)
    rho = random_density(dim, np.random.default_rng(11))
    expected = lindblad_rhs(kind, p, rho).ravel()
    generator = lindblad._generator(kind, p, dim)
    assert np.max(np.abs(generator @ rho.ravel() - expected)) < 1e-12


@pytest.mark.parametrize("kind,dim,sector", [("bimodal", 13, 81),
                                             ("single_mode", 8, 26)])
@pytest.mark.parametrize("coherences", [False, True], ids=["default", "coherent"])
def test_sector_path_matches_full_generator(monkeypatch, kind, dim, sector,
                                            coherences):
    # propagating each occupied dN sector alone equals propagating the full
    # generator; a state with cross-N coherences occupies every sector
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5, kappa_a=0.1,
                    kappa_b=0.05 if kind == "bimodal" else 0.0)
    t = np.linspace(0.0, 2.0, 21)
    initial = random_density(dim, np.random.default_rng(5)) if coherences else None
    dims = []

    def capture(generator, t_grid, y0, substep=None):
        dims.append(generator.shape[0])
        return integrate.propagate_grid(generator, t_grid, y0, substep=substep)

    monkeypatch.setattr(lindblad, "propagate_grid", capture)
    states = evolve_density(kind, p, t, initial=initial)
    rho0 = lindblad._initial_density(enumerate_basis(kind, damped=True), initial)
    full = integrate.propagate_grid(
        lindblad._generator(kind, p, dim), t, rho0.ravel(),
        substep=default_substep(p.delta_cap, p.delta_small, p.g1, p.g2))
    assert np.max(np.abs(states.values.reshape(t.size, -1) - full)) < 1e-11
    if coherences:
        assert len(dims) > 1 and sum(dims) == dim * dim
    else:
        assert dims == [sector]


def test_uniform_grid_builds_one_propagator(monkeypatch):
    original = integrate.taylor_propagator
    builds = []

    def counting(a, h, order=4):
        builds.append(h)
        return original(a, h, order)

    monkeypatch.setattr(integrate, "taylor_propagator", counting)
    evolve_density("single_mode", ModelParams(g2=2.0, delta_cap=-5.0,
                                              delta_small=2.75, kappa_a=0.03),
                   time_grid(5.0))
    assert len(builds) == 1


def test_photonless_state_is_dark_without_hamiltonian():
    basis = enumerate_basis("bimodal", damped=True)
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    idx = basis.index_of("ee,00")
    rho[idx, idx] = 1.0
    deriv = lindblad_rhs("bimodal", DAMPED_PARAMS, rho,
                         hamiltonian=np.zeros((basis.dim, basis.dim)))
    assert np.all(deriv == 0.0)


def test_two_photon_state_decays_at_combined_rate():
    # each mode holds one photon: loss rate 2(kappa_a + kappa_b), feeding
    # the two one-photon states at 2 kappa each
    basis = enumerate_basis("bimodal", damped=True)
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5,
                    kappa_a=0.1, kappa_b=0.04)
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    src = basis.index_of("gg,11")
    rho[src, src] = 1.0
    deriv = lindblad_rhs("bimodal", p, rho,
                         hamiltonian=np.zeros((basis.dim, basis.dim)))
    assert deriv[src, src] == pytest.approx(-2.0 * (0.1 + 0.04))
    assert deriv[basis.index_of("gg,01"), basis.index_of("gg,01")] \
        == pytest.approx(2.0 * 0.1)
    assert deriv[basis.index_of("gg,10"), basis.index_of("gg,10")] \
        == pytest.approx(2.0 * 0.04)


def test_single_mode_decay_scales_with_photon_number():
    basis = enumerate_basis("single_mode", damped=True)
    p = ModelParams(g2=2.0, delta_cap=-5.0, delta_small=2.75, kappa_a=0.3)
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    src = basis.index_of("gg,2")
    rho[src, src] = 1.0
    deriv = lindblad_rhs("single_mode", p, rho,
                         hamiltonian=np.zeros((basis.dim, basis.dim)))
    assert deriv[src, src] == pytest.approx(-2.0 * 0.3 * 2.0)
    assert deriv[basis.index_of("gg,1"), basis.index_of("gg,1")] \
        == pytest.approx(2.0 * 0.3 * 2.0)


def test_single_mode_rejects_second_mode_loss():
    p = ModelParams(g2=2.0, delta_cap=-5.0, delta_small=2.75, kappa_b=0.1)
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    with pytest.raises(ConfigurationError):
        lindblad_rhs("single_mode", p, rho)


# ---------------------------------------------------------------------------
# undamped consistency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["bimodal", "single_mode"])
def test_zero_damping_matches_amplitude_dynamics(kind):
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.55)
    t = np.linspace(0.0, 10.0, 51)
    states = evolve_density(kind, p, t)
    series = evolve_amplitudes(kind, p, t)
    v = embed_unitary_sector(kind)
    worst = 0.0
    for state, c in zip(states, series.values):
        pure = v @ np.outer(c, c.conj()) @ v.T
        worst = max(worst, float(np.max(np.abs(state.matrix - pure))))
    assert worst < 1e-8


def test_damped_run_keeps_invariants():
    t = np.linspace(0.0, 10.0, 41)
    states = evolve_density("bimodal", DAMPED_PARAMS, t)
    for state in states:
        state.validate()   # raises on breach
        assert abs(np.trace(state.matrix).real - 1.0) < 1e-10


def test_damping_lowers_two_photon_peak():
    t = np.linspace(0.0, 25.0, 126)
    undamped = two_photon_population(
        evolve_density("bimodal", DAMPED_PARAMS.replace(kappa_a=0.0, kappa_b=0.0), t))
    damped = two_photon_population(evolve_density("bimodal", DAMPED_PARAMS, t))
    assert damped.values.max() < undamped.values.max()


def test_everything_relaxes_to_vacuum():
    states = evolve_density("bimodal", DAMPED_PARAMS, [0.0, 500.0])
    final = states[-1]
    assert final.population("gg,00") > 0.999
    assert abs(np.trace(final.matrix).real - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# invariant monitoring
# ---------------------------------------------------------------------------

def test_coarse_substep_aborts():
    with pytest.raises(NumericalInvariantError) as exc:
        evolve_density("bimodal", DAMPED_PARAMS, [0.0, 10.0], substep=5.0)
    assert exc.value.invariant.startswith("density-matrix")


def test_validate_flags_bad_matrices():
    basis = enumerate_basis("single_mode", damped=True)
    eye = np.eye(basis.dim, dtype=complex)

    bad_trace = DensityMatrix(basis=basis, matrix=eye.copy(), time=0.0)
    with pytest.raises(NumericalInvariantError) as exc:
        bad_trace.validate()
    assert exc.value.invariant == "density-matrix trace"

    skew = np.zeros_like(eye)
    skew[0, 0] = 1.0
    skew[0, 1] = 1e-3
    with pytest.raises(NumericalInvariantError) as exc:
        DensityMatrix(basis=basis, matrix=skew, time=0.0).validate()
    assert exc.value.invariant == "density-matrix Hermiticity"

    negative = np.zeros_like(eye)
    negative[0, 0] = 1.01
    negative[1, 1] = -0.01
    with pytest.raises(NumericalInvariantError) as exc:
        DensityMatrix(basis=basis, matrix=negative, time=0.0).validate()
    assert exc.value.invariant == "density-matrix positivity"


def test_validate_flags_nan_matrix():
    basis = enumerate_basis("single_mode", damped=True)
    nan = np.full((basis.dim, basis.dim), np.nan, dtype=complex)
    with pytest.raises(NumericalInvariantError) as exc:
        DensityMatrix(basis=basis, matrix=nan, time=0.0).validate()
    assert exc.value.invariant == "density-matrix trace"


@pytest.mark.parametrize("defects,invariant,index", [
    ({}, None, None),
    ({700: "hermiticity", 900: "trace"}, "density-matrix Hermiticity", 700),
    ({650: "positivity", 700: "hermiticity"}, "density-matrix positivity", 650),
])
def test_batched_checks_keep_first_breach_order(defects, invariant, index):
    # 1200 points span three check batches; the first breach in time order
    # must raise, whichever batch it lies in and whatever follows it
    rng = np.random.default_rng(3)
    rhos = np.array([random_density(8, rng) for _ in range(1200)])
    for i, kind in defects.items():
        if kind == "hermiticity":
            rhos[i, 0, 1] += 1e-3
        elif kind == "trace":
            rhos[i] *= 1.01
        else:
            rhos[i] = np.diag([1.01, -0.01, 0, 0, 0, 0, 0, 0])
    t = np.linspace(0.0, 12.0, 1200)
    if invariant is None:
        lindblad._check_trajectory(rhos, t)
        return
    with pytest.raises(NumericalInvariantError) as exc:
        lindblad._check_trajectory(rhos, t)
    assert exc.value.invariant == invariant
    assert exc.value.time == t[index]


def test_bad_initial_shape_rejected():
    with pytest.raises(ConfigurationError):
        evolve_density("bimodal", DAMPED_PARAMS, [0.0, 1.0], initial=np.eye(6))


def test_initial_accepts_density_matrix_snapshot():
    t = np.linspace(0.0, 2.0, 11)
    first = evolve_density("bimodal", DAMPED_PARAMS, t)
    resumed = evolve_density("bimodal", DAMPED_PARAMS, [2.0, 4.0], initial=first[-1])
    direct = evolve_density("bimodal", DAMPED_PARAMS, np.linspace(0.0, 4.0, 21))
    assert np.max(np.abs(resumed[-1].matrix - direct[-1].matrix)) < 1e-10


# ---------------------------------------------------------------------------
# series helpers
# ---------------------------------------------------------------------------

def test_population_series_labels_and_grid():
    t = np.linspace(0.0, 5.0, 26)
    states = evolve_density("bimodal", DAMPED_PARAMS, t)
    series = population_series(states, "ee,00")
    assert np.array_equal(series.times, t)
    assert series.values[0] == 1.0
    two = two_photon_population(states)
    idx = states[0].basis.index_of("gg,11")
    assert two.values[-1] == states[-1].matrix[idx, idx].real


def test_population_unknown_label():
    states = evolve_density("single_mode",
                            ModelParams(g2=2.0, delta_cap=-5.0,
                                        delta_small=2.75, kappa_a=0.03),
                            [0.0, 1.0])
    with pytest.raises(ConfigurationError):
        population_series(states, "gg,11")


def test_empty_trajectory_rejected():
    with pytest.raises(ConfigurationError):
        population_series([], "ee,00")
