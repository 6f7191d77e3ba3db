import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophoton import (ConfigurationError, ModelParams,
                       NumericalInvariantError, build_hamiltonian,
                       embed_unitary_sector, enumerate_basis,
                       evolve_amplitudes, evolve_density, evolve_population,
                       lindblad_rhs, time_grid)
from twophoton import integrate, lindblad, operators
from twophoton.operators import damped_operators, excitation_numbers
from twophoton.selfcheck import no_jump_deviation

DAMPED_PARAMS = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.55,
                   kappa_a=0.1, kappa_b=0.1)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def sectors(kind: str) -> np.ndarray:
    """dN of each vec(rho) entry of the damped basis."""
    n = excitation_numbers(enumerate_basis(kind, damped=True))
    return np.subtract.outer(n, n).ravel()


def sector_density(kind: str, rng: np.random.Generator) -> np.ndarray:
    """A random dN = 0 state: every N block a random full-rank density
    matrix, with random weights, and zeros between different N."""
    n = excitation_numbers(enumerate_basis(kind, damped=True))
    rho = np.zeros((len(n), len(n)), dtype=complex)
    for w, k in zip(rng.dirichlet(np.ones(3)), (2, 1, 0)):
        b = np.flatnonzero(n == k)
        rho[np.ix_(b, b)] = w * random_density(len(b), rng)
    return rho


def full_check(rhos: np.ndarray, t: np.ndarray):
    """``(invariant, time, defect)`` of the first point of an (nt, d, d)
    stack that fails an invariant, each point checked whole (trace, then
    Hermiticity, then the least eigenvalue of its Hermitian part)."""
    for rho, time in zip(rhos, t):
        trace = np.trace(rho)
        defect = abs(trace.real - 1.0) + abs(trace.imag)
        if not defect <= lindblad.TRACE_TOLERANCE:
            return "trace", time, defect
        defect = np.abs(rho - rho.conj().T).max()
        if not defect <= lindblad.HERMITICITY_TOLERANCE:
            return "Hermiticity", time, defect
        defect = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
        if not defect >= lindblad.EIGENVALUE_FLOOR:
            return "positivity", time, defect
    return None


def assert_raised_as_full_check(raised, rhos, t) -> None:
    invariant, time, defect = full_check(rhos, t)
    assert raised.invariant == f"density-matrix {invariant}"
    assert raised.time == time
    np.testing.assert_allclose(raised.defect, defect, rtol=0, atol=1e-12)


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
def test_default_operators_take_one_build(monkeypatch, kind, dim):
    # the defaulted rhs builds the damped sector once and equals the call
    # with the operators passed in
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5, kappa_a=0.1,
                    kappa_b=0.05 if kind == "bimodal" else 0.0)
    rho = random_density(dim, np.random.default_rng(13))
    explicit = lindblad_rhs(kind, p, rho,
                            hamiltonian=build_hamiltonian(kind, p, damped=True),
                            jumps=damped_operators(kind, p)[1])
    original = operators._damped_operators
    builds = []

    def counting(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(operators, "_damped_operators", counting)
    assert np.array_equal(lindblad_rhs(kind, p, rho), explicit)
    assert len(builds) == 1


@pytest.mark.parametrize("kind,dim", [("bimodal", 13), ("single_mode", 8)])
def test_generator_matches_rhs(kind, dim):
    # two derivations: the Kronecker-form generator on vec(rho) and
    # lindblad_rhs, the same algebra on matrices
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5, kappa_a=0.1,
                    kappa_b=0.05 if kind == "bimodal" else 0.0)
    rho = random_density(dim, np.random.default_rng(11))
    expected = lindblad_rhs(kind, p, rho).ravel()
    generator = lindblad._generator(kind, p, dim)
    assert np.max(np.abs(generator @ rho.ravel() - expected)) < 1e-12


@pytest.mark.parametrize("kind,dim", [("bimodal", 13), ("single_mode", 8)])
def test_sector_generator_is_the_full_generator_block(kind, dim):
    # a sector's generator is bit for bit the same block of the full one
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5, kappa_a=0.1,
                    kappa_b=0.05 if kind == "bimodal" else 0.0)
    full = lindblad._generator(kind, p, dim)
    sector = sectors(kind)
    for dn in np.unique(sector):
        idx = np.flatnonzero(sector == dn)
        assert np.array_equal(lindblad._generator(kind, p, dim, idx),
                              full[np.ix_(idx, idx)])


@pytest.mark.parametrize("kind,dim,sector", [("bimodal", 13, 81),
                                             ("single_mode", 8, 26)])
@pytest.mark.parametrize("coherences", [False, True], ids=["default", "coherent"])
def test_sector_path_matches_full_generator(monkeypatch, kind, dim, sector,
                                            coherences):
    # propagating the dN = 0 sector alone equals propagating the full
    # generator, also from a random dN = 0 state with coherences inside
    # every N block
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5, kappa_a=0.1,
                    kappa_b=0.05 if kind == "bimodal" else 0.0)
    t = np.linspace(0.0, 2.0, 21)
    initial = sector_density(kind, np.random.default_rng(5)) if coherences else None
    dims = []

    def capture(generator, t_grid, y0):
        dims.append(generator.shape[0])
        return integrate.propagate_blocks(generator, t_grid, y0)

    monkeypatch.setattr(lindblad, "propagate_blocks", capture)
    states = evolve_density(kind, p, t, initial=initial)
    _, inside, _, _ = lindblad._sector(kind)
    rho0 = lindblad._initial_density(states.basis, inside, initial)
    full = integrate.propagate_grid(
        lindblad._generator(kind, p, dim), t, rho0)
    assert np.max(np.abs(states.values.reshape(t.size, -1) - full)) < 1e-11
    assert dims == [sector]


def test_uniform_grid_builds_one_propagator(monkeypatch):
    original = integrate.taylor_propagator
    builds = []

    def counting(a, h):
        builds.append(h)
        return original(a, h)

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
    for rho, c in zip(states.values, series.values):
        pure = v @ np.outer(c, c.conj()) @ v.T
        worst = max(worst, float(np.max(np.abs(rho - pure))))
    assert worst < 1e-8


@pytest.mark.parametrize("kind,params", [
    ("bimodal", DAMPED_PARAMS),
    ("single_mode", ModelParams(g2=2.0, delta_cap=-5.0, delta_small=2.75,
                                kappa_a=0.1)),
])
def test_top_block_matches_no_jump_evolution(kind, params):
    # no jump feeds N = 2: that block is psi psi^+ under H - i sum kappa n,
    # an oracle that shares neither the generator nor the propagator
    assert no_jump_deviation(kind, params, time_grid(60.0)) <= 1e-10


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(kappas=st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3)))
def test_excitation_balance(kappas):
    # H keeps N and each photon lost from mode m removes one excitation, at
    # rate 2 kappa_m <a_m^+ a_m>, so <N>(t) - <N>(0) = -2 sum_m kappa_m
    # int_0^t <a_m^+ a_m> dt: an oracle for the N = 1 and N = 0 blocks,
    # which the no-jump oracle does not reach.  N and the photon numbers
    # are read off the product basis labels, not the engine's operators.
    # The integral is composite Simpson on the 0.01 grid (~2e-10 at
    # kappa ~ 0.05; the Simpson error grows with kappa).
    t = time_grid(60.0)
    for kind in ("bimodal", "single_mode"):
        ka, kb = kappas if kind == "bimodal" else (kappas[0], 0.0)
        p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5,
                        kappa_a=ka, kappa_b=kb)
        basis = enumerate_basis(kind, damped=True)
        photons = np.array([(s.n_a, s.n_b or 0) for s in basis.states], float)
        populations = np.diagonal(evolve_density(kind, p, t).values,
                                  axis1=1, axis2=2).real
        excitations = populations @ excitation_numbers(basis)
        loss = populations @ (photons @ [2.0 * ka, 2.0 * kb])
        pairs = (t[2] - t[0]) / 6 * (loss[:-2:2] + 4 * loss[1::2] + loss[2::2])
        balance = excitations[2::2] - excitations[0] + np.cumsum(pairs)
        assert np.max(np.abs(balance)) <= 1e-8, kind


def test_damped_run_keeps_invariants():
    t = np.linspace(0.0, 10.0, 41)
    states = evolve_density("bimodal", DAMPED_PARAMS, t)
    lindblad._check_trajectory("bimodal", states.values, t)   # raises on breach
    assert full_check(states.values, t) is None
    traces = np.trace(states.values, axis1=1, axis2=2)
    assert np.max(np.abs(traces.real - 1.0)) < 1e-10


def test_damping_lowers_two_photon_peak():
    t = np.linspace(0.0, 25.0, 126)
    undamped = evolve_population(
        "bimodal", DAMPED_PARAMS.replace(kappa_a=0.0, kappa_b=0.0), t)
    damped = evolve_population("bimodal", DAMPED_PARAMS, t)
    assert damped.values.max() < undamped.values.max()


def test_everything_relaxes_to_vacuum():
    states = evolve_density("bimodal", DAMPED_PARAMS, [0.0, 500.0])
    final = states.values[-1]
    vacuum = states.basis.index_of("gg,00")
    assert final[vacuum, vacuum].real > 0.999
    assert abs(np.trace(final).real - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# invariant monitoring
# ---------------------------------------------------------------------------

def test_coarse_substep_aborts(monkeypatch):
    # THETA = inf takes one Taylor step over the whole interval
    monkeypatch.setattr(integrate, "THETA", math.inf)
    with pytest.raises(NumericalInvariantError) as exc:
        evolve_density("bimodal", DAMPED_PARAMS, [0.0, 10.0])
    assert exc.value.invariant.startswith("density-matrix")


def check_one(matrix: np.ndarray) -> None:
    """Check one single-mode matrix as the engine checks a point."""
    lindblad._check_trajectory("single_mode", matrix[np.newaxis],
                               np.array([0.0]))


def test_validate_flags_bad_matrices():
    eye = np.eye(8, dtype=complex)

    with pytest.raises(NumericalInvariantError) as exc:
        check_one(eye)
    assert exc.value.invariant == "density-matrix trace"

    skew = np.zeros_like(eye)
    skew[0, 0] = 1.0
    skew[0, 1] = 1e-3              # ee,0 and eg,1: both N = 2
    with pytest.raises(NumericalInvariantError) as exc:
        check_one(skew)
    assert exc.value.invariant == "density-matrix Hermiticity"

    negative = np.zeros_like(eye)
    negative[0, 0] = 1.01
    negative[1, 1] = -0.01
    with pytest.raises(NumericalInvariantError) as exc:
        check_one(negative)
    assert exc.value.invariant == "density-matrix positivity"


def test_validate_flags_nan_matrix():
    with pytest.raises(NumericalInvariantError) as exc:
        check_one(np.full((8, 8), np.nan, dtype=complex))
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
    rhos = np.array([sector_density("single_mode", rng) for _ in range(1200)])
    for i, kind in defects.items():
        if kind == "hermiticity":
            rhos[i, 0, 1] += 1e-3
        elif kind == "trace":
            rhos[i] *= 1.01
        else:
            rhos[i] = np.diag([1.01, -0.01, 0, 0, 0, 0, 0, 0])
    t = np.linspace(0.0, 12.0, 1200)
    if invariant is None:
        lindblad._check_trajectory("single_mode", rhos, t)
        return
    with pytest.raises(NumericalInvariantError) as exc:
        lindblad._check_trajectory("single_mode", rhos, t)
    assert exc.value.invariant == invariant
    assert exc.value.time == t[index]


@pytest.mark.parametrize("breach,invariant", [
    (None, None),
    ("trace", "trace"),
    ("hermiticity", "Hermiticity"),
    ("positivity_8", "positivity"),
    ("positivity_1", "positivity"),
    ("nan", "Hermiticity"),
])
def test_pattern_check_matches_full_check(breach, invariant):
    # the check on the N blocks reports what a check of the whole d x d
    # matrices reports: the same invariant, time and defect
    n = excitation_numbers(enumerate_basis("bimodal", damped=True))
    top, vacuum = np.flatnonzero(n == 2), np.flatnonzero(n == 0)[0]
    rng = np.random.default_rng(9)
    rhos = np.array([sector_density("bimodal", rng) for _ in range(1200)])
    i = 700
    if breach == "trace":
        rhos[i] *= 1.01
    elif breach == "hermiticity":
        rhos[i, top[0], top[3]] += 1e-3
    elif breach == "positivity_8":                  # not on the basis axes
        u, _ = np.linalg.qr(random_density(8, np.random.default_rng(4)))
        rhos[i] = 0.0
        rhos[i][np.ix_(top, top)] = u @ np.diag([1.01, -0.01] + [0] * 6) @ u.conj().T
    elif breach == "positivity_1":
        rhos[i] = 0.0
        rhos[i, top[1], top[1]], rhos[i, vacuum, vacuum] = 1.01, -0.01
    elif breach == "nan":
        rhos[i, top[2], top[5]] = np.nan
    t = np.linspace(0.0, 12.0, 1200)
    if breach is None:
        lindblad._check_trajectory("bimodal", rhos, t)
        assert full_check(rhos, t) is None
        return
    with pytest.raises(NumericalInvariantError) as exc:
        lindblad._check_trajectory("bimodal", rhos, t)
    assert exc.value.invariant == f"density-matrix {invariant}"
    assert exc.value.time == t[i]
    assert_raised_as_full_check(exc.value, rhos, t)


# ---------------------------------------------------------------------------
# sector layout: populations and checks read from the propagated columns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["bimodal", "single_mode"])
@pytest.mark.parametrize("kappa", [0.0, 0.03, 0.1])
@pytest.mark.parametrize("superposed", [False, True], ids=["default", "superposed"])
def test_population_matches_density_readout(monkeypatch, kind, kappa,
                                            superposed):
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.55, kappa_a=kappa,
                    kappa_b=kappa if kind == "bimodal" else 0.0)
    t = np.linspace(0.0, 2.0, 21)
    initial = (sector_density(kind, np.random.default_rng(17)) if superposed
               else None)
    built = {}          # one generator build: the readout is tested
    original = lindblad._generator

    def memo(kind, params, dim, idx):
        key = idx.tobytes()
        if key not in built:
            built[key] = original(kind, params, dim, idx)
        return built[key]

    monkeypatch.setattr(lindblad, "_generator", memo)
    states = evolve_density(kind, p, t, initial=initial)
    basis = states.basis
    for label in (None, *basis.labels()):
        series = evolve_population(kind, p, t, label, initial=initial)
        i = basis.two_photon_index if label is None else basis.index_of(label)
        assert np.array_equal(series.times, t)
        assert np.array_equal(series.values, states.values[:, i, i].real)


def test_population_refuses_unknown_label_before_evolving(monkeypatch):
    def no_evolution(*args, **kwargs):
        raise AssertionError("evolved before checking the label")

    monkeypatch.setattr(lindblad, "propagate_blocks", no_evolution)
    with pytest.raises(ConfigurationError):
        evolve_population("single_mode", ModelParams(kappa_a=0.1), [0.0, 1.0],
                          "gg,11")


def damage(breach: str, row: np.ndarray) -> None:
    """Break one propagated bimodal dN = 0 sector row in place."""
    d = 13
    n = excitation_numbers(enumerate_basis("bimodal", damped=True))
    top, vacuum = np.flatnonzero(n == 2), np.flatnonzero(n == 0)[0]
    idx = np.flatnonzero(sectors("bimodal") == 0)

    def at(r, c):                   # column of rho[r, c] in the dN = 0 sector
        return np.searchsorted(idx, r * d + c)

    if breach == "trace":
        row *= 1.01
    elif breach == "hermiticity":
        row[at(top[0], top[3])] += 1e-3
    elif breach == "positivity_8":
        u, _ = np.linalg.qr(random_density(8, np.random.default_rng(4)))
        block = u @ np.diag([1.01, -0.01] + [0] * 6) @ u.conj().T
        row[:] = 0.0
        row[at(top[:, None], top)] = block
    elif breach == "positivity_1":
        row[:] = 0.0
        row[at(top[1], top[1])], row[at(vacuum, vacuum)] = 1.01, -0.01
    else:
        row[at(top[2], top[5])] = np.nan


@pytest.mark.parametrize("breach,invariant", [
    ("trace", "trace"),
    ("hermiticity", "Hermiticity"),
    ("positivity_8", "positivity"),
    ("positivity_1", "positivity"),
    ("nan", "Hermiticity"),
])
def test_sector_checks_match_expanded_stack(monkeypatch, breach, invariant):
    # a fault in the propagated sector raises, through the column map, what
    # the check on the (nt, d, d) stack raises: invariant, time and defect
    d, i = 13, 700
    idx = np.flatnonzero(sectors("bimodal") == 0)
    captured = []

    def corrupt(generator, t_grid, y0):
        blocks = []
        captured.append(blocks)
        for start, block in integrate.propagate_blocks(generator, t_grid, y0):
            if start <= i < start + len(block):
                damage(breach, block[i - start])
            blocks.append(block.copy())
            yield start, block

    monkeypatch.setattr(lindblad, "propagate_blocks", corrupt)
    t = time_grid(10.0)
    raised = []
    for evolve in (evolve_population, evolve_density):
        with pytest.raises(NumericalInvariantError) as exc:
            evolve("bimodal", DAMPED_PARAMS, t)
        raised.append(exc.value)
    sector = np.concatenate(captured[0])    # up to the breach's block
    stack = np.zeros((t.size, d * d), dtype=complex)
    stack[:len(sector), idx] = sector
    stack = stack.reshape(-1, d, d)
    with pytest.raises(NumericalInvariantError) as exc:
        lindblad._check_trajectory("bimodal", stack, t)
    raised.append(exc.value)
    first = raised[0]
    assert first.invariant == f"density-matrix {invariant}"
    for other in raised[1:]:
        assert other.invariant == first.invariant
        assert other.time == first.time == t[i]
        np.testing.assert_equal(other.defect, first.defect)
    assert_raised_as_full_check(first, stack[:len(sector)], t)


def test_bad_initial_shape_rejected():
    with pytest.raises(ConfigurationError):
        evolve_density("bimodal", DAMPED_PARAMS, [0.0, 1.0], initial=np.eye(6))


@pytest.mark.parametrize("kind", ["bimodal", "single_mode"])
def test_cross_n_initial_rejected_before_evolving(monkeypatch, kind):
    # a coherence between N = 2 and N = 1 lies outside the dN = 0 sector
    def no_evolution(*args, **kwargs):
        raise AssertionError("evolved before checking the initial state")

    monkeypatch.setattr(lindblad, "propagate_blocks", no_evolution)
    monkeypatch.setattr(lindblad, "_generator", no_evolution)
    basis = enumerate_basis(kind, damped=True)
    psi = np.zeros(basis.dim, dtype=complex)
    psi[basis.initial_index] = 0.6 ** 0.5
    psi[basis.index_of("eg,00" if kind == "bimodal" else "eg,0")] = 1j * 0.4 ** 0.5
    for evolve in (evolve_density, evolve_population):
        with pytest.raises(ConfigurationError, match="excitation numbers"):
            evolve(kind, ModelParams(kappa_a=0.1), [0.0, 1.0],
                   initial=np.outer(psi, psi.conj()))


def test_initial_accepts_density_matrix_snapshot():
    t = np.linspace(0.0, 2.0, 11)
    first = evolve_density("bimodal", DAMPED_PARAMS, t)
    resumed = evolve_density("bimodal", DAMPED_PARAMS, [2.0, 4.0],
                             initial=first.values[-1])
    direct = evolve_density("bimodal", DAMPED_PARAMS, np.linspace(0.0, 4.0, 21))
    assert np.max(np.abs(resumed.values[-1] - direct.values[-1])) < 1e-10


# ---------------------------------------------------------------------------
# population reader
# ---------------------------------------------------------------------------

def test_population_series_labels_and_grid():
    t = np.linspace(0.0, 5.0, 26)
    states = evolve_density("bimodal", DAMPED_PARAMS, t)
    series = evolve_population("bimodal", DAMPED_PARAMS, t, "ee,00")
    assert np.array_equal(series.times, t)
    assert series.values[0] == 1.0
    two = evolve_population("bimodal", DAMPED_PARAMS, t)
    idx = states.basis.index_of("gg,11")
    assert two.values[-1] == states.values[-1, idx, idx].real


def test_population_unknown_label():
    # gg,11 is a bimodal label, not a single-mode one
    with pytest.raises(ConfigurationError):
        evolve_population("single_mode",
                          ModelParams(g2=2.0, delta_cap=-5.0, delta_small=2.75,
                                      kappa_a=0.03),
                          [0.0, 1.0], "gg,11")


# ---------------------------------------------------------------------------
# blocks: the same run whatever BLOCK is, in memory bounded by BLOCK
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["bimodal", "single_mode"])
@pytest.mark.parametrize("kappa", [0.0, 0.1])
def test_blocked_runs_equal_one_block(monkeypatch, kind, kappa):
    # a random dN = 0 state fills all three N blocks; 21 points leave a
    # partial or one-row last block at every BLOCK below
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.55, kappa_a=kappa,
                    kappa_b=kappa if kind == "bimodal" else 0.0)
    t, initial = time_grid(0.2), sector_density(kind, np.random.default_rng(23))
    runs = []
    for block in (1 << 30, 2, 4, 8):
        monkeypatch.setattr(integrate, "BLOCK", block)
        runs.append((evolve_density(kind, p, t, initial=initial).values,
                     evolve_population(kind, p, t, initial=initial).values))
    for density, population in runs[1:]:
        assert np.array_equal(density, runs[0][0])
        assert np.array_equal(population, runs[0][1])


@pytest.mark.parametrize("breach,invariant", [
    ("trace", "trace"),
    ("hermiticity", "Hermiticity"),
    ("positivity_8", "positivity"),
    ("nan", "Hermiticity"),
])
def test_breach_in_third_block_matches_one_block(monkeypatch, breach, invariant):
    # row 9 lies in the third block of 4: the blocked run raises the
    # unblocked run's invariant, time and defect
    def corrupt(generator, t_grid, y0):
        for start, block in integrate.propagate_blocks(generator, t_grid, y0):
            if start <= 9 < start + len(block):
                damage(breach, block[9 - start])
            yield start, block

    monkeypatch.setattr(lindblad, "propagate_blocks", corrupt)
    t = time_grid(0.2)
    raised = []
    for block in (1 << 30, 4):
        monkeypatch.setattr(integrate, "BLOCK", block)
        for evolve in (evolve_population, evolve_density):
            with pytest.raises(NumericalInvariantError) as exc:
                evolve("bimodal", DAMPED_PARAMS, t)
            raised.append(exc.value)
    assert raised[0].invariant == f"density-matrix {invariant}"
    for other in raised:
        assert (other.invariant, other.time) == (raised[0].invariant, t[9])
        np.testing.assert_equal(other.defect, raised[0].defect)


def test_population_memory_is_bounded_by_block(monkeypatch):
    # with BLOCK = 256, four times the grid keeps the traced peak within 10%:
    # only the one output column grows with the grid
    monkeypatch.setattr(integrate, "BLOCK", 256)
    peaks = []
    for nt in (2049, 8193):
        t = 0.01 * np.arange(nt)
        tracemalloc.start()
        try:
            evolve_population("bimodal", DAMPED_PARAMS, t)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
