"""Density-matrix dynamics under cavity photon loss.

The master equation evolved here is

    rho' = -i[H, rho] - sum_m kappa_m (c_m^+ c_m rho - 2 c_m rho c_m^+
                                       + rho c_m^+ c_m),

with one annihilator per cavity mode, so each mode loses photons at rate
2*kappa_m.  H keeps the excitation number N and each jump lowers it by
one, so the generator keeps dN = N(i) - N(j) of each entry rho[i, j].
Each dN sector the initial state occupies (the default state: dN = 0 only,
81 of 169 entries bimodal, 26 of 64 single-mode) gets its own block of the
generator on vec(rho), built by ``lindblad_rhs`` (the one home of the
dissipator algebra) from that sector's unit matrices, and is stepped by
:func:`twophoton.integrate.propagate_grid`; none is derived from another
by conjugation, so the Hermiticity check still tests the dynamics.
``_check_trajectory`` reads only the occupied entries, so a dN = 0 state
(block-diagonal in N: 8/4/1 bimodal, 4/3/1 single-mode) is checked block
by block.  The first breach in time order aborts the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Basis, enumerate_basis
from .errors import ConfigurationError, NumericalInvariantError
from .integrate import default_substep, propagate_grid, validate_grid
from .operators import (build_hamiltonian, build_jump_operators,
                        damped_operators, excitation_numbers)
from .params import ModelParams, SystemKind
from .unitary import TimeSeries

TRACE_TOLERANCE = 1e-8
HERMITICITY_TOLERANCE = 1e-8
EIGENVALUE_FLOOR = -1e-6
CHECK_CHUNK = 512       # points per check batch: temporaries scale with the pattern
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


def _check_trajectory(rhos: np.ndarray, t: np.ndarray,
                      support: np.ndarray | None = None) -> None:
    """Raise at the first point of an (nt, d, d) stack that fails an invariant.

    ``support`` (boolean over rho.ravel(); None: all) marks the entries that
    may be non-zero.  With its transpose and the diagonal it splits the
    basis into connected diagonal blocks; other entries are not read, and a
    full pattern is one d x d block.  A block of consecutive basis indices
    (the full one) is read by slicing, any other by a gather.  Per batch of
    ``CHECK_CHUNK``: a stacked trace and a Hermiticity maximum over the
    blocks, then, on the blocks' Hermitian parts before the first such
    breach (so finite), one stacked Cholesky per block of
    rho_block + (|EIGENVALUE_FLOOR| - SCREEN_MARGIN) I.  It succeeds only if
    no eigenvalue is below the floor; a batch it rejects gets per-block
    ``eigvalsh``, whose per-point minimum is the defect.  Trace is reported
    before Hermiticity, Hermiticity before positivity; a NaN defect is a
    breach (``not defect <= tol``).
    """
    d = rhos.shape[-1]
    mask = np.ones((d, d), dtype=bool) if support is None else support.reshape(d, d)
    mask = mask | mask.T | np.eye(d, dtype=bool)
    reach = np.linalg.matrix_power(mask, d)         # connectivity
    keys = []
    for row in np.unique(reach, axis=0):
        b = np.flatnonzero(row)
        run = slice(b[0], b[-1] + 1)
        keys.append((slice(None), run, run) if b[-1] - b[0] + 1 == len(b)
                    else (slice(None), b[:, None], b))
    shift = abs(EIGENVALUE_FLOOR) - SCREEN_MARGIN
    for start in range(0, len(rhos), CHECK_CHUNK):
        chunk = rhos[start:start + CHECK_CHUNK]
        traces = np.trace(chunk, axis1=1, axis2=2)
        trace_defect = np.abs(traces.real - 1.0) + np.abs(traces.imag)
        parts = [chunk[key] for key in keys]
        adjoints = [part.conj().swapaxes(1, 2) for part in parts]
        herm_defect = np.max([np.abs(part - adjoint).max(axis=(1, 2))
                              for part, adjoint in zip(parts, adjoints)], axis=0)
        bad = ~((trace_defect <= TRACE_TOLERANCE)
                & (herm_defect <= HERMITICITY_TOLERANCE))
        n = int(np.argmax(bad)) if bad.any() else len(chunk)
        hermitian = [0.5 * (part[:n] + adjoint[:n])
                     for part, adjoint in zip(parts, adjoints)]
        try:
            for block in hermitian:
                diagonal = np.arange(block.shape[-1])
                block[:, diagonal, diagonal] += shift   # block is a fresh array
                np.linalg.cholesky(block)
        except np.linalg.LinAlgError:      # the screen shifted its copies
            smallest = np.min([
                np.linalg.eigvalsh(0.5 * (part[:n] + adjoint[:n])).min(axis=1)
                for part, adjoint in zip(parts, adjoints)], axis=0)
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


def _generator(kind: SystemKind, params: ModelParams, dim: int,
               idx=slice(None)) -> np.ndarray:
    """Rows and columns ``idx`` (default: all) of the master-equation generator
    on vec(rho) = rho.ravel(), built from those unit matrices alone."""
    units = np.eye(dim * dim, dtype=complex)[idx]
    hamiltonian, jumps = damped_operators(kind, params)
    columns = lindblad_rhs(kind, params, units.reshape(-1, dim, dim),
                           hamiltonian=hamiltonian, jumps=jumps)
    return np.ascontiguousarray(columns.reshape(len(units), -1)[:, idx].T)


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
        substep = default_substep(params.delta_cap, params.delta_small,
                                  params.g1, params.g2)

    d = basis.dim
    n = excitation_numbers(basis)
    sector = np.subtract.outer(n, n).ravel()        # dN of each vec(rho) entry
    rhos = np.zeros((t.size, d * d), dtype=complex)
    for dn in np.unique(sector[y0 != 0]):
        idx = np.flatnonzero(sector == dn)
        rhos[:, idx] = propagate_grid(_generator(kind, params, d, idx), t,
                                      y0[idx], substep=substep)
    rhos = rhos.reshape(t.size, d, d)
    _check_trajectory(rhos, t, np.isin(sector, sector[y0 != 0]))
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
