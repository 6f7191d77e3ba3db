"""Density-matrix dynamics under cavity photon loss.

The master equation evolved here is

    rho' = -i[H, rho] - sum_m kappa_m (c_m^+ c_m rho - 2 c_m rho c_m^+
                                       + rho c_m^+ c_m),

with one annihilator per cavity mode, so each mode loses photons at rate
2*kappa_m.  H keeps the excitation number N and each jump lowers it by
one, so the generator keeps dN = N(i) - N(j) of each entry rho[i, j].
Each dN sector the initial state occupies (the default state: dN = 0 only,
81 of 169 entries bimodal, 26 of 64 single-mode) is stepped on its own
block of the generator on vec(rho), sliced from the Kronecker form of the
dissipator (``_generator``; ``lindblad_rhs`` is the same algebra on
matrices, kept as its independent check).  None is derived from another
by conjugation, so the Hermiticity check still tests the dynamics.
:func:`twophoton.integrate.propagate_blocks` writes each sector straight
into its columns of one working array of at most ``BLOCK`` points, whose
last column is zero; a (d, d) map gives the column of each rho[i, j].
Each block is checked through that map on the occupied entries only, so
a dN = 0 state (block-diagonal in N: 8/4/1 bimodal, 4/3/1 single-mode) is
checked block by block, and the first breach in time order aborts the
run.  ``evolve_population`` keeps one column of each block;
``evolve_density`` fills its (nt, d, d) output block by block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import integrate
from .basis import Basis, enumerate_basis
from .errors import ConfigurationError, NumericalInvariantError
from .integrate import propagate_blocks, validate_grid
from .operators import damped_operators, excitation_numbers
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
    may be non-zero; see :func:`_pattern`.  The stack is read as its
    (nt, d*d) columns.
    """
    d = rhos.shape[-1]
    mask = np.ones((d, d), dtype=bool) if support is None else support.reshape(d, d)
    _check_columns(rhos.reshape(len(rhos), d * d), t,
                   _pattern(np.arange(d * d).reshape(d, d), mask))


def _pattern(cols: np.ndarray, support: np.ndarray):
    """What :func:`_check_columns` reads of states whose rho[i, j] is column
    ``cols[i, j]``: ``(diagonal, blocks)``, the diagonal's columns and, per
    connected diagonal block, its columns, its transpose's and its size.

    ``support`` (boolean, d x d) marks the entries that may be non-zero.
    With its transpose and the diagonal it splits the basis into connected
    diagonal blocks; other entries are not read.
    """
    d = len(cols)
    mask = support | support.T | np.eye(d, dtype=bool)
    reach = np.linalg.matrix_power(mask, d)         # connectivity
    blocks = []
    for row in np.unique(reach, axis=0):
        b = np.flatnonzero(row)
        own = cols[np.ix_(b, b)]
        blocks.append((own.ravel(), own.T.ravel(), len(b)))
    return cols.diagonal(), blocks


def _check_columns(y: np.ndarray, t: np.ndarray, pattern) -> None:
    """Raise at the first point that fails an invariant; ``y[k]`` holds the
    state at t[k] as :func:`_pattern` ``pattern`` maps it.

    Each block is gathered by ``np.take`` on its columns, its conjugate
    partner on the transposed columns.  Per batch of ``CHECK_CHUNK``: a
    stacked trace and a Hermiticity maximum over the blocks, then, on the
    blocks' Hermitian parts before the first such breach (so finite), one
    stacked Cholesky per block of rho_block + (|EIGENVALUE_FLOOR| -
    SCREEN_MARGIN) I.  It succeeds only if no eigenvalue is below the floor;
    a batch it rejects gets per-block ``eigvalsh``, whose per-point minimum
    is the defect.  Trace is reported before Hermiticity, Hermiticity before
    positivity; a NaN defect is a breach (``not defect <= tol``).
    """
    diagonal, blocks = pattern
    shift = abs(EIGENVALUE_FLOOR) - SCREEN_MARGIN
    for start in range(0, len(y), CHECK_CHUNK):
        chunk = y[start:start + CHECK_CHUNK]
        traces = np.take(chunk, diagonal, axis=1).sum(axis=1)
        trace_defect = np.abs(traces.real - 1.0) + np.abs(traces.imag)
        parts, adjoints = [], []
        for own, partner, k in blocks:
            parts.append(np.take(chunk, own, axis=1).reshape(-1, k, k))
            adjoint = np.take(chunk, partner, axis=1).reshape(-1, k, k)
            adjoints.append(np.conjugate(adjoint, out=adjoint))
        herm_defect = np.max([np.abs(part - adjoint).max(axis=(1, 2))
                              for part, adjoint in zip(parts, adjoints)], axis=0)
        bad = ~((trace_defect <= TRACE_TOLERANCE)
                & (herm_defect <= HERMITICITY_TOLERANCE))
        n = int(np.argmax(bad)) if bad.any() else len(chunk)
        hermitian = [0.5 * (part[:n] + adjoint[:n])
                     for part, adjoint in zip(parts, adjoints)]
        try:
            for block in hermitian:
                diag = np.arange(block.shape[-1])
                block[:, diag, diag] += shift   # block is a fresh array
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
    if hamiltonian is None or jumps is None:      # one ambient build for both
        built_h, built_jumps = damped_operators(kind, params)
        hamiltonian = built_h if hamiltonian is None else hamiltonian
        jumps = built_jumps if jumps is None else jumps
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
               idx=None) -> np.ndarray:
    """Rows and columns ``idx`` (default: all) of the master-equation generator
    on vec(rho) = rho.ravel(), in Kronecker form (vec(A rho B) = (A (x) B^T)
    vec(rho)): -i(H (x) I - I (x) H^T) - sum_m kappa_m (n_m (x) I
    - 2 c_m (x) c_m + I (x) n_m^T), with n_m = c_m^T c_m (c_m real)."""
    hamiltonian, jumps = damped_operators(kind, params)
    eye = np.eye(dim)
    out = -1j * (np.kron(hamiltonian, eye) - np.kron(eye, hamiltonian.T))
    for kappa, c in zip((params.kappa_a, params.kappa_b), jumps):
        if kappa != 0.0:
            number = c.T @ c
            out -= kappa * (np.kron(number, eye) - 2.0 * np.kron(c, c)
                            + np.kron(eye, number.T))
    return out if idx is None else np.ascontiguousarray(out[np.ix_(idx, idx)])


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


def _evolve_sectors(kind: SystemKind, params: ModelParams, t: np.ndarray,
                    initial, substep: float | None):
    """Propagate and check each dN sector ``initial`` occupies, by blocks.

    Returns ``(basis, cols, blocks)``.  ``blocks`` yields ``(start, y)``: y
    (n, m + 1) holds the states at t[start:start + n], the sectors side by
    side (ascending dN, each in vec(rho) order) and a last, zero column, so
    rho[i, j] is ``y[:, cols[i, j]]``.  Each sector's propagator writes
    straight into its columns of the one working array, reused by every
    block; a block is checked before it is yielded.
    """
    basis = enumerate_basis(kind, damped=True)
    y0 = _initial_density(basis, initial).ravel()

    d = basis.dim
    n = excitation_numbers(basis)
    sector = np.subtract.outer(n, n).ravel()        # dN of each vec(rho) entry
    dns = np.unique(sector[y0 != 0])
    m = int(np.isin(sector, dns).sum())
    cols = np.full(d * d, m)
    y = np.empty((min(t.size, integrate.BLOCK), m + 1), dtype=complex)
    y[:, m] = 0.0
    sectors, start = [], 0
    for dn in dns:
        idx = np.flatnonzero(sector == dn)
        stop = start + idx.size
        cols[idx] = np.arange(start, stop)
        sectors.append(propagate_blocks(
            _generator(kind, params, d, idx), t, y0[idx], substep,
            out=y[:, start:stop]))
        start = stop
    cols = cols.reshape(d, d)
    pattern = _pattern(cols, cols < m)

    def blocks():
        start = 0
        for written in zip(*sectors):
            n = len(written[0])
            _check_columns(y[:n], t[start:start + n], pattern)
            yield start, y[:n]
            start += n

    return basis, cols, blocks()


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
    t = validate_grid(t_grid)
    basis, cols, blocks = _evolve_sectors(kind, params, t, initial, substep)
    values = np.empty((t.size, basis.dim, basis.dim), dtype=complex)
    for start, y in blocks:
        np.take(y, cols, axis=1, out=values[start:start + len(y)])
    return DensityTrajectory(times=t, values=values, basis=basis)


def evolve_population(kind: SystemKind | str, params: ModelParams, t_grid,
                      label: str | None = None, initial=None,
                      substep: float | None = None) -> TimeSeries:
    """Occupation of basis state ``label`` (None: the two-photon target)
    under the master equation.

    The same run and checks as :func:`evolve_density`, keeping one column
    of each block.  An unknown label is refused before anything is evolved.
    """
    kind = SystemKind.coerce(kind)
    params.validate_for_kind(kind)
    i = _index(enumerate_basis(kind, damped=True), label)
    t = validate_grid(t_grid)
    _, cols, blocks = _evolve_sectors(kind, params, t, initial, substep)
    values = np.empty(t.size)
    for start, y in blocks:
        values[start:start + len(y)] = y[:, cols[i, i]].real
    return TimeSeries(times=t, values=values)


def _index(basis: Basis, label: str | None) -> int:
    return basis.two_photon_index if label is None else basis.index_of(label)


def population_series(states: DensityTrajectory,
                      label: str | None) -> TimeSeries:
    """Occupation of one basis state (None: the two-photon target) along a
    density-matrix trajectory."""
    if not states:
        raise ConfigurationError("empty density-matrix trajectory")
    i = _index(states.basis, label)
    return TimeSeries(times=states.times,
                      values=states.values[:, i, i].real.copy())


def two_photon_population(states: DensityTrajectory) -> TimeSeries:
    """Occupation of the two-photon target state along a trajectory."""
    return population_series(states, None)
