"""Density-matrix dynamics under cavity photon loss.

The master equation evolved here is

    rho' = -i[H, rho] - sum_m kappa_m (c_m^+ c_m rho - 2 c_m rho c_m^+
                                       + rho c_m^+ c_m),

with one annihilator per cavity mode, so each mode loses photons at rate
2*kappa_m.  The generator is linear, so each run builds it once as a
matrix acting on the flattened density matrix vec(rho): its columns are
``lindblad_rhs`` applied to the d^2 matrix units.  That matrix goes to
:func:`twophoton.integrate.propagate_grid`, the same fixed-step RK4
propagator the coherent sector uses.  ``lindblad_rhs`` stays the single
home of the dissipator algebra; the matrix is derived from it mechanically,
and stepping it is literal RK4 on rho by linearity.

Trace, Hermiticity, and spectral positivity are checked at every output
point, in batches of ``CHECK_CHUNK`` points (one stacked trace, Hermiticity
maximum and ``eigvalsh`` per batch); the first breach in time order aborts
the run, since a density matrix that has lost these properties no longer
represents a physical state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Basis, enumerate_basis
from .errors import ConfigurationError, NumericalInvariantError
from .integrate import default_substep, propagate_grid, validate_grid
from .operators import build_hamiltonian, build_jump_operators
from .params import ModelParams, SystemKind
from .unitary import TimeSeries

TRACE_TOLERANCE = 1e-8
HERMITICITY_TOLERANCE = 1e-8
EIGENVALUE_FLOOR = -1e-6
# Output points checked per batch: keeps the batch temporaries near 1.4 MB
# for the 13-state bimodal sector.
CHECK_CHUNK = 512


@dataclass(frozen=True)
class DensityMatrix:
    """One density matrix snapshot on a frozen basis."""

    basis: Basis
    matrix: np.ndarray
    time: float

    def population(self, label: str) -> float:
        """Diagonal occupation of the labeled basis state."""
        idx = self.basis.index_of(label)
        return float(self.matrix[idx, idx].real)

    def validate(self) -> None:
        """Raise if trace, Hermiticity, or positivity are out of tolerance."""
        _check_invariants(self.matrix, self.time)


def _check_invariants(rho: np.ndarray, time: float) -> None:
    # written as ``not defect <= tol`` so that a NaN defect is a breach
    trace = np.trace(rho)
    trace_defect = float(abs(trace.real - 1.0) + abs(trace.imag))
    if not trace_defect <= TRACE_TOLERANCE:
        raise NumericalInvariantError("density-matrix trace", trace_defect,
                                      TRACE_TOLERANCE, time=time)
    herm_defect = float(np.max(np.abs(rho - rho.conj().T)))
    if not herm_defect <= HERMITICITY_TOLERANCE:
        raise NumericalInvariantError("density-matrix Hermiticity", herm_defect,
                                      HERMITICITY_TOLERANCE, time=time)
    smallest = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if not smallest >= EIGENVALUE_FLOOR:
        raise NumericalInvariantError("density-matrix positivity", smallest,
                                      EIGENVALUE_FLOOR, time=time)


def _first_breach(rhos: np.ndarray) -> int | None:
    """Index of the first matrix in a stack that fails an invariant.

    Computes the same quantities as :func:`_check_invariants`, stacked.
    Only the matrices before the first trace or Hermiticity breach reach
    ``eigvalsh``, so it never sees a non-finite matrix.
    """
    adjoint = rhos.conj().swapaxes(1, 2)
    traces = np.trace(rhos, axis1=1, axis2=2)
    bad = ~(np.abs(traces.real - 1.0) + np.abs(traces.imag) <= TRACE_TOLERANCE)
    bad |= ~(np.abs(rhos - adjoint).max(axis=(1, 2)) <= HERMITICITY_TOLERANCE)
    n = int(np.argmax(bad)) if bad.any() else len(rhos)
    if n:
        smallest = np.linalg.eigvalsh(0.5 * (rhos[:n] + adjoint[:n])).min(axis=1)
        bad[:n] = ~(smallest >= EIGENVALUE_FLOOR)
    return int(np.argmax(bad)) if bad.any() else None


def _check_trajectory(rhos: np.ndarray, t: np.ndarray) -> None:
    """Raise at the first point of a trajectory that fails an invariant.

    Points are screened ``CHECK_CHUNK`` at a time; the first flagged one is
    re-checked by :func:`_check_invariants`, which raises the same error, at
    the same time, as checking every point in order would.  Should the
    re-check pass (the two computations differing only by rounding),
    screening resumes after that point.
    """
    start = 0
    while start < t.size:
        bad = _first_breach(rhos[start:start + CHECK_CHUNK])
        if bad is None:
            start += CHECK_CHUNK
            continue
        _check_invariants(rhos[start + bad], float(t[start + bad]))
        start += bad + 1


def lindblad_rhs(kind: SystemKind | str, params: ModelParams,
                 rho: np.ndarray,
                 hamiltonian: np.ndarray | None = None,
                 jumps: list[np.ndarray] | None = None) -> np.ndarray:
    """Right-hand side of the master equation in matrix form.

    ``rho`` may also be a stack of matrices, shape (n, d, d), each mapped
    independently.  The optional ``hamiltonian``/``jumps`` let callers reuse
    prebuilt operators; they default to the damped-sector operators for
    ``kind``.
    """
    kind = SystemKind.coerce(kind)
    params.validate_for_kind(kind)
    if hamiltonian is None:
        hamiltonian = build_hamiltonian(kind, params, damped=True)
    if jumps is None:
        jumps = build_jump_operators(kind)
    kappas = [params.kappa_a, params.kappa_b][: len(jumps)]

    rho = np.asarray(rho, dtype=complex)
    out = -1j * (hamiltonian @ rho - rho @ hamiltonian)
    for kappa, c in zip(kappas, jumps):
        if kappa == 0.0:
            continue
        number = c.T @ c          # annihilators are real
        out -= kappa * (number @ rho - 2.0 * (c @ rho @ c.T) + rho @ number)
    return out


def _generator(kind: SystemKind, params: ModelParams, dim: int) -> np.ndarray:
    """The master-equation generator as a matrix on vec(rho) = rho.ravel()."""
    units = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    columns = lindblad_rhs(kind, params, units,
                           hamiltonian=build_hamiltonian(kind, params, damped=True),
                           jumps=build_jump_operators(kind))
    return np.ascontiguousarray(columns.reshape(dim * dim, dim * dim).T)


def _initial_density(basis: Basis, initial) -> np.ndarray:
    if initial is None:
        rho0 = np.zeros((basis.dim, basis.dim), dtype=complex)
        rho0[basis.initial_index, basis.initial_index] = 1.0
        return rho0
    if isinstance(initial, DensityMatrix):
        initial = initial.matrix
    rho0 = np.asarray(initial, dtype=complex)
    if rho0.shape != (basis.dim, basis.dim):
        raise ConfigurationError(
            f"initial density matrix must have shape {(basis.dim, basis.dim)}, "
            f"got {rho0.shape}")
    return rho0


def evolve_density(kind: SystemKind | str, params: ModelParams, t_grid,
                   initial=None, substep: float | None = None) -> list[DensityMatrix]:
    """Integrate the master equation over an output grid.

    ``initial`` defaults to the pure doubly-excited vacuum state and may be
    a matrix or a :class:`DensityMatrix`; it is the state at ``t_grid[0]``.
    Every output point is checked for trace, Hermiticity, and positivity,
    and the first breach in time order raises; the snapshots are views into
    one (nt, d, d) array.
    """
    kind = SystemKind.coerce(kind)
    params.validate_for_kind(kind)
    basis = enumerate_basis(kind, damped=True)
    t = validate_grid(t_grid)
    rho = _initial_density(basis, initial)
    if substep is None:
        substep = default_substep(params.delta_cap, params.delta_small)

    d = basis.dim
    rhos = propagate_grid(_generator(kind, params, d), t, rho.ravel(),
                          substep=substep).reshape(t.size, d, d)
    _check_trajectory(rhos, t)
    return [DensityMatrix(basis=basis, matrix=r, time=float(time))
            for r, time in zip(rhos, t)]


def population_series(states: list[DensityMatrix], label: str) -> TimeSeries:
    """Occupation of one basis state along a density-matrix trajectory."""
    if not states:
        raise ConfigurationError("empty density-matrix trajectory")
    idx = states[0].basis.index_of(label)
    times = np.array([s.time for s in states])
    values = np.array([s.matrix[idx, idx].real for s in states])
    return TimeSeries(times=times, values=values)


def two_photon_population(states: list[DensityMatrix]) -> TimeSeries:
    """Occupation of the two-photon target state along a trajectory."""
    if not states:
        raise ConfigurationError("empty density-matrix trajectory")
    label = states[0].basis.states[states[0].basis.two_photon_index].label
    return population_series(states, label)
