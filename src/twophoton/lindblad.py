"""Density-matrix dynamics under cavity photon loss.

The master equation evolved here is

    rho' = -i[H, rho] - sum_m kappa_m (c_m^+ c_m rho - 2 c_m rho c_m^+
                                       + rho c_m^+ c_m),

with one annihilator per cavity mode, so each mode loses photons at rate
2*kappa_m.  H keeps the excitation number N and each jump lowers it by
one on both sides of rho, so the generator keeps dN = N(i) - N(j) of each
entry rho[i, j].  The initial states of this engine (the doubly-excited
vacuum, or any state reached from it) are block-diagonal in N, so it
evolves the one dN = 0 sector (81 of 169 entries bimodal, 26 of 64
single-mode) on its block of the generator on vec(rho), sliced from the
Kronecker form of the dissipator (``_generator``; ``lindblad_rhs`` is the
same algebra on matrices, kept as its independent check).  An initial
state with a coherence between different N is refused.  No entry is
derived from another by conjugation, so the Hermiticity check still tests
the dynamics.  Each block of
:func:`twophoton.integrate.propagate_blocks` is checked on the N blocks
(8/4/1 bimodal, 4/3/1 single-mode) before it is read, and the first breach
in time order aborts the run.  ``evolve_population`` keeps one column of
each block; ``evolve_density`` scatters each block into its (nt, d, d)
output, whose entries outside the sector stay exactly 0.
"""

from __future__ import annotations

import numpy as np

from .basis import Basis, enumerate_basis
from .errors import ConfigurationError, NumericalInvariantError
from .integrate import propagate_blocks, validate_grid
from .operators import damped_operators, excitation_numbers
from .params import ModelParams, SystemKind
from .unitary import TimeSeries

TRACE_TOLERANCE = 1e-8
HERMITICITY_TOLERANCE = 1e-8
EIGENVALUE_FLOOR = -1e-6
CHECK_CHUNK = 512       # points per check batch: temporaries scale with the N blocks
SCREEN_MARGIN = 1e-9    # Cholesky screen margin, far above its ~d*1e-16 rounding


def _sector(kind: SystemKind):
    """The dN = 0 sector of ``kind``'s damped basis: ``(basis, inside, cols,
    blocks)``.

    ``inside`` (boolean over rho.ravel()) marks the entries with
    N(i) = N(j); such an entry rho[i, j] is column ``cols[i, j]`` of the
    sector, in vec(rho) order (other entries of ``cols`` are not read).
    ``blocks`` holds, per N block, its columns, its transpose's and its
    size.
    """
    basis = enumerate_basis(kind, damped=True)
    n = excitation_numbers(basis)
    inside = np.equal.outer(n, n).ravel()
    cols = (np.cumsum(inside) - 1).reshape(basis.dim, basis.dim)
    blocks = []
    for k in np.unique(n):
        b = np.flatnonzero(n == k)
        own = cols[np.ix_(b, b)]
        blocks.append((own.ravel(), own.T.ravel(), len(b)))
    return basis, inside, cols, blocks


def _check_trajectory(kind: SystemKind | str, rhos: np.ndarray,
                      t: np.ndarray) -> None:
    """Raise at the first point of an (nt, d, d) stack on ``kind``'s damped
    basis that fails an invariant, read as the engine reads its sector:
    entries between different N are not read."""
    _, inside, cols, blocks = _sector(SystemKind.coerce(kind))
    _check_columns(rhos.reshape(len(rhos), -1)[:, inside], t, cols, blocks)


def _check_columns(y: np.ndarray, t: np.ndarray, cols: np.ndarray,
                   blocks) -> None:
    """Raise at the first point that fails an invariant; ``y[k]`` holds the
    sector at t[k], rho[i, j] in column ``cols[i, j]`` (see :func:`_sector`).

    Each N block is gathered by ``np.take`` on its columns, its conjugate
    partner on the transposed columns.  Per batch of ``CHECK_CHUNK``: a
    stacked trace and a Hermiticity maximum over the blocks, then, on the
    blocks' Hermitian parts before the first such breach (so finite), one
    stacked Cholesky per block of rho_block + (|EIGENVALUE_FLOOR| -
    SCREEN_MARGIN) I.  It succeeds only if no eigenvalue is below the floor;
    a batch it rejects gets per-block ``eigvalsh``, whose per-point minimum
    is the defect.  Trace is reported before Hermiticity, Hermiticity before
    positivity; a NaN defect is a breach (``not defect <= tol``).
    """
    diagonal = cols.diagonal()
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


def _initial_density(basis: Basis, inside: np.ndarray, initial) -> np.ndarray:
    """vec(rho0) of ``initial`` (None: the doubly-excited vacuum), refused
    unless it is a (d, d) array with no coherence between different N."""
    if initial is None:
        rho0 = np.zeros((basis.dim, basis.dim), dtype=complex)
        rho0[basis.initial_index, basis.initial_index] = 1.0
        return rho0.ravel()
    rho0 = np.asarray(initial, dtype=complex)
    if rho0.shape != (basis.dim, basis.dim):
        raise ConfigurationError(
            f"initial density matrix must have shape {(basis.dim, basis.dim)}, "
            f"got {rho0.shape}")
    if np.any(rho0.ravel()[~inside]):
        raise ConfigurationError(
            "initial density matrix couples different excitation numbers; "
            "only states block-diagonal in N are evolved")
    return rho0.ravel()


def _evolve_sector(kind: SystemKind, params: ModelParams, t: np.ndarray,
                   initial):
    """Propagate and check the dN = 0 sector of ``initial``, by blocks.

    Returns ``(basis, inside, cols, run)``, the first three as
    :func:`_sector`; ``run`` yields the ``(start, y)`` of
    :func:`twophoton.integrate.propagate_blocks`, y holding the sector at
    t[start:start + len(y)], each block checked before it is yielded.  The
    initial state is refused here, before anything is evolved.
    """
    basis, inside, cols, blocks = _sector(kind)
    y0 = _initial_density(basis, inside, initial)[inside]
    generator = _generator(kind, params, basis.dim, np.flatnonzero(inside))

    def checked():
        for start, y in propagate_blocks(generator, t, y0):
            _check_columns(y, t[start:start + len(y)], cols, blocks)
            yield start, y

    return basis, inside, cols, checked()


def evolve_density(kind: SystemKind | str, params: ModelParams, t_grid,
                   initial=None) -> TimeSeries:
    """Integrate the master equation over an output grid.

    Returns the (nt, d, d) density matrices with the basis attached.
    ``initial`` defaults to the pure doubly-excited vacuum state and may be
    any (d, d) array block-diagonal in the excitation number N (a coherence
    between different N is a ``ConfigurationError``); it is the state at
    ``t_grid[0]``.  Its dN = 0 sector is propagated on its block of the
    generator; the other entries stay 0.  The first invariant breach in
    time raises.
    """
    kind = SystemKind.coerce(kind)
    params.validate_for_kind(kind)
    t = validate_grid(t_grid)
    basis, inside, _, run = _evolve_sector(kind, params, t, initial)
    values = np.zeros((t.size, basis.dim, basis.dim), dtype=complex)
    flat = values.reshape(t.size, -1)
    for start, y in run:
        flat[start:start + len(y), inside] = y
    return TimeSeries(times=t, values=values, basis=basis)


def evolve_population(kind: SystemKind | str, params: ModelParams, t_grid,
                      label: str | None = None,
                      initial=None) -> TimeSeries:
    """Occupation of basis state ``label`` (None: the two-photon target)
    under the master equation.

    The same run and checks as :func:`evolve_density`, keeping one column
    of each block.  An unknown label is refused before anything is evolved.
    """
    kind = SystemKind.coerce(kind)
    params.validate_for_kind(kind)
    basis = enumerate_basis(kind, damped=True)
    i = basis.two_photon_index if label is None else basis.index_of(label)
    t = validate_grid(t_grid)
    _, _, cols, run = _evolve_sector(kind, params, t, initial)
    values = np.empty(t.size)
    for start, y in run:
        values[start:start + len(y)] = y[:, cols[i, i]].real
    return TimeSeries(times=t, values=values)
