import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophoton import (ModelParams, SystemKind, build_hamiltonian,
                       embed_unitary_sector, enumerate_basis,
                       excitation_numbers, spectrum_lines)
from twophoton.operators import damped_operators

SQRT2 = np.sqrt(2.0)

detunings = st.floats(min_value=-12.0, max_value=12.0,
                      allow_nan=False, allow_infinity=False)
couplings = st.floats(min_value=0.1, max_value=3.0,
                      allow_nan=False, allow_infinity=False)


def test_bimodal_unitary_entries():
    p = ModelParams(g1=1.0, g2=1.5, delta_cap=-5.0, delta_small=3.5)
    h = build_hamiltonian("bimodal", p)
    assert np.allclose(np.diag(h), [0.0, 5.0, -3.5, 1.5, 10.0, -7.0])
    assert h[0, 1] == SQRT2 * 1.0
    assert h[0, 2] == SQRT2 * 1.5
    assert h[1, 3] == SQRT2 * 1.5
    assert h[1, 4] == 2.0 * 1.0
    assert h[2, 3] == SQRT2 * 1.0
    assert h[2, 5] == 2.0 * 1.5
    # no direct coupling between the initial and two-photon states
    assert h[0, 3] == 0.0
    assert np.array_equal(h, h.T)


def test_single_mode_unitary_entries():
    p = ModelParams(g1=1.0, g2=2.0, delta_cap=-5.0, delta_small=2.75)
    h = build_hamiltonian("single_mode", p)
    assert np.allclose(np.diag(h), [0.0, -2.75, 5.0, 2.25])
    assert h[0, 1] == 2.0          # atom 2 emits first
    assert h[0, 2] == 1.0          # atom 1 emits first
    assert h[1, 3] == SQRT2 * 1.0
    assert h[2, 3] == SQRT2 * 2.0
    assert h[0, 3] == 0.0
    assert np.array_equal(h, h.T)


@settings(max_examples=50, deadline=None)
@given(g2=couplings, dc=detunings, ds=detunings)
def test_hamiltonians_hermitian(g2, dc, ds):
    p = ModelParams(g2=g2, delta_cap=dc, delta_small=ds)
    for kind in SystemKind:
        for damped in (False, True):
            h = build_hamiltonian(kind, p, damped=damped)
            assert np.array_equal(h, h.T)


def test_unitary_sector_conserves_excitation():
    # [H, N] = 0 on the coherent sector: H only moves quanta around
    p = ModelParams(g2=1.7, delta_cap=-4.0, delta_small=3.0)
    for kind in SystemKind:
        basis = enumerate_basis(kind)
        h = build_hamiltonian(kind, p)
        n = np.diag(excitation_numbers(basis))
        assert np.max(np.abs(h @ n - n @ h)) == 0.0


def test_damped_hamiltonian_diagonal_bimodal():
    # photons carry the quasi-energy; atomic excitation contributes none
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5)
    h = build_hamiltonian("bimodal", p, damped=True)
    basis = enumerate_basis("bimodal", damped=True)
    for i, state in enumerate(basis.states):
        expected = -(state.n_a * p.delta_cap + state.n_b * p.delta_small)
        assert h[i, i] == pytest.approx(expected)


def test_damped_hamiltonian_diagonal_single_mode():
    # here the detunings ride on the ground-state projectors instead
    p = ModelParams(g2=2.0, delta_cap=-5.0, delta_small=2.75)
    h = build_hamiltonian("single_mode", p, damped=True)
    expected = [0.0, -2.75, 5.0, 2.25, -2.75, 5.0, 2.25, 2.25]
    assert np.allclose(np.diag(h), expected)


def test_embedding_reproduces_unitary_hamiltonian():
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5)
    for kind in SystemKind:
        v = embed_unitary_sector(kind)
        assert np.allclose(v.T @ v, np.eye(v.shape[1]))
        hd = build_hamiltonian(kind, p, damped=True)
        hu = build_hamiltonian(kind, p, damped=False)
        assert np.max(np.abs(v.T @ hd @ v - hu)) < 1e-12


def test_jump_operators_lower_one_photon():
    for kind, n_jumps in ((SystemKind.BIMODAL, 2), (SystemKind.SINGLE_MODE, 1)):
        jumps = damped_operators(kind, ModelParams())[1]
        assert len(jumps) == n_jumps
        basis = enumerate_basis(kind, damped=True)
        n = excitation_numbers(basis)
        for c in jumps:
            rows, cols = np.nonzero(c)
            assert np.all(n[rows] == n[cols] - 1)


def test_bimodal_jump_matrix_elements():
    jumps = damped_operators("bimodal", ModelParams())[1]
    basis = enumerate_basis("bimodal", damped=True)
    a = jumps[0]
    # annihilating mode a: gg,20 -> gg,10 carries sqrt(2)
    assert a[basis.index_of("gg,10"), basis.index_of("gg,20")] == pytest.approx(SQRT2)
    assert a[basis.index_of("gg,01"), basis.index_of("gg,11")] == pytest.approx(1.0)
    b = jumps[1]
    assert b[basis.index_of("gg,01"), basis.index_of("gg,02")] == pytest.approx(SQRT2)


def test_spectrum_lines_shape_and_order():
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5)
    eigenvalues, lines = spectrum_lines(p)
    assert eigenvalues.shape == (6,)
    assert lines.shape == (15,)
    assert np.all(np.diff(eigenvalues) >= 0)
    assert np.all(np.diff(lines) >= 0)
    assert np.all(lines >= 0)
    # spacings really are the pairwise eigenvalue differences
    assert lines[-1] == pytest.approx(eigenvalues[-1] - eigenvalues[0])


def test_kappa_b_rejected_for_single_mode():
    from twophoton import ConfigurationError
    p = ModelParams(g2=2.0, delta_cap=-5.0, delta_small=2.75, kappa_b=0.1)
    with pytest.raises(ConfigurationError):
        build_hamiltonian("single_mode", p)
