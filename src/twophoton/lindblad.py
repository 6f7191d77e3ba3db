"""Density-matrix dynamics under cavity photon loss.

The master equation evolved here is

    rho' = -i[H, rho] - sum_m kappa_m (c_m^+ c_m rho - 2 c_m rho c_m^+
                                       + rho c_m^+ c_m),

with one annihilator per cavity mode, so each mode loses photons at rate
2*kappa_m.  Each run builds the generator once, as a matrix on vec(rho),
from ``lindblad_rhs`` (the one home of the dissipator algebra).  H keeps
the excitation number N and each jump lowers it by one, so the generator
keeps dN = N(i) - N(j) of each entry rho[i, j].  Each dN sector the
initial state occupies (the default state: dN = 0 only, 81 of 169 entries
bimodal, 26 of 64 single-mode) is stepped on its own block of the
generator by :func:`twophoton.integrate.propagate_grid`; none is derived
from another by conjugation, so the Hermiticity check still tests the
dynamics.  ``_check_trajectory`` checks every output point; the first
breach in time order aborts the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Basis, enumerate_basis
from .errors import ConfigurationError, NumericalInvariantError
from .integrate import default_substep, propagate_grid, validate_grid
from .operators import build_hamiltonian, build_jump_operators, excitation_numbers
from .params import ModelParams, SystemKind
from .unitary import TimeSeries

TRACE_TOLERANCE = 1e-8
HERMITICITY_TOLERANCE = 1e-8
EIGENVALUE_FLOOR = -1e-6
CHECK_CHUNK = 512       # points per check batch: ~1.4 MB of temporaries at d = 13
SCREEN_MARGIN = 1e-9    # Cholesky screen margin, far above its ~d*1e-16 rounding


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
        _check_trajectory(self.matrix[np.newaxis], np.array([self.time]))


class DensityTrajectory(TimeSeries):
    """Density matrices on ``basis``: ``values`` is the (nt, d, d) array.

    Indexing (negative too) and iteration, which stops at the IndexError
    past the end, give :class:`DensityMatrix` views built on demand.
    """

    def __getitem__(self, i: int) -> DensityMatrix:
        return DensityMatrix(self.basis, self.values[i], float(self.times[i]))


def _check_trajectory(rhos: np.ndarray, t: np.ndarray) -> None:
    """Raise at the first point of an (nt, d, d) stack that fails an invariant.

    Per batch of ``CHECK_CHUNK``: a stacked trace and Hermiticity maximum,
    then, on the Hermitian parts before the first such breach (so finite),
    one stacked Cholesky of rho + (|EIGENVALUE_FLOOR| - SCREEN_MARGIN) * I.
    It succeeds only if no eigenvalue is below the floor; a batch it
    rejects gets the ``eigvalsh`` that finds the breach and its defect.
    Trace is reported before Hermiticity, Hermiticity before positivity;
    a NaN defect is a breach (``not defect <= tol``).
    """
    shift = (abs(EIGENVALUE_FLOOR) - SCREEN_MARGIN) * np.eye(rhos.shape[-1])
    for start in range(0, len(rhos), CHECK_CHUNK):
        chunk = rhos[start:start + CHECK_CHUNK]
        adjoint = chunk.conj().swapaxes(1, 2)
        traces = np.trace(chunk, axis1=1, axis2=2)
        trace_defect = np.abs(traces.real - 1.0) + np.abs(traces.imag)
        herm_defect = np.abs(chunk - adjoint).max(axis=(1, 2))
        bad = ~((trace_defect <= TRACE_TOLERANCE)
                & (herm_defect <= HERMITICITY_TOLERANCE))
        n = int(np.argmax(bad)) if bad.any() else len(chunk)
        hermitian = 0.5 * (chunk[:n] + adjoint[:n])
        try:
            np.linalg.cholesky(hermitian + shift)
        except np.linalg.LinAlgError:
            smallest = np.linalg.eigvalsh(hermitian).min(axis=1)
            negative = ~(smallest >= EIGENVALUE_FLOOR)
            if negative.any():
                i = int(np.argmax(negative))
                raise NumericalInvariantError(
                    "density-matrix positivity", float(smallest[i]),
                    EIGENVALUE_FLOOR, time=float(t[start + i])) from None
        if n < len(chunk):
            time = float(t[start + n])
            if not trace_defect[n] <= TRACE_TOLERANCE:
                raise NumericalInvariantError("density-matrix trace",
                                              float(trace_defect[n]),
                                              TRACE_TOLERANCE, time=time)
            raise NumericalInvariantError("density-matrix Hermiticity",
                                          float(herm_defect[n]),
                                          HERMITICITY_TOLERANCE, time=time)


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
    rho0 = np.asarray(getattr(initial, "matrix", initial), dtype=complex)
    if rho0.shape != (basis.dim, basis.dim):
        raise ConfigurationError(
            f"initial density matrix must have shape {(basis.dim, basis.dim)}, "
            f"got {rho0.shape}")
    return rho0


def evolve_density(kind: SystemKind | str, params: ModelParams, t_grid,
                   initial=None, substep: float | None = None) -> DensityTrajectory:
    """Integrate the master equation over an output grid.

    ``initial`` defaults to the pure doubly-excited vacuum state and may be
    a matrix or a :class:`DensityMatrix`; it is the state at ``t_grid[0]``.
    Each dN sector it occupies is propagated on its block of the generator;
    the other entries stay 0.  The first invariant breach in time raises.
    """
    kind = SystemKind.coerce(kind)
    params.validate_for_kind(kind)
    basis = enumerate_basis(kind, damped=True)
    t = validate_grid(t_grid)
    y0 = _initial_density(basis, initial).ravel()
    if substep is None:
        substep = default_substep(params.delta_cap, params.delta_small)

    d = basis.dim
    generator = _generator(kind, params, d)
    n = excitation_numbers(basis)
    sector = np.subtract.outer(n, n).ravel()        # dN of each vec(rho) entry
    rhos = np.zeros((t.size, d * d), dtype=complex)
    for dn in np.unique(sector[y0 != 0]):
        idx = np.flatnonzero(sector == dn)
        rhos[:, idx] = propagate_grid(generator[np.ix_(idx, idx)], t, y0[idx],
                                      substep=substep)
    rhos = rhos.reshape(t.size, d, d)
    _check_trajectory(rhos, t)
    return DensityTrajectory(times=t, values=rhos, basis=basis)


def population_series(states: DensityTrajectory, label: str) -> TimeSeries:
    """Occupation of one basis state along a density-matrix trajectory."""
    if not states:
        raise ConfigurationError("empty density-matrix trajectory")
    idx = states.basis.index_of(label)
    return TimeSeries(times=states.times,
                      values=states.values[:, idx, idx].real.copy())


def two_photon_population(states: DensityTrajectory) -> TimeSeries:
    """Occupation of the two-photon target state along a trajectory."""
    if not states:
        raise ConfigurationError("empty density-matrix trajectory")
    label = states.basis.labels()[states.basis.two_photon_index]
    return population_series(states, label)
