"""Coherent amplitude dynamics in the excitation-conserving sector.

The state |psi(t)> = sum_k c_k(t)|k> is integrated as the linear system
c' = -iHc with the fixed-step propagator from :mod:`twophoton.integrate`.
An independent eigendecomposition path (``expm_series``) provides the
exact solution for cross-checks; the engine aborts if the norm of the
integrated amplitude vector drifts by more than a part in 10^6, checked a
block of :func:`twophoton.integrate.propagate_blocks` at a time.
``evolve_amplitudes`` copies every block into its whole (nt, dim) array;
``evolve_probability`` keeps only the two-photon probability of each
block, so a long run needs memory for one column and the iterator's one
buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Basis, enumerate_basis
from .errors import ConfigurationError, NumericalInvariantError
from .integrate import propagate_blocks, validate_grid
from .operators import build_hamiltonian
from .params import ModelParams, SystemKind

NORM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class TimeSeries:
    """Values sampled on a strictly increasing time grid.

    ``values`` is (nt, dim) complex for amplitude series and (nt, d, d)
    complex for density matrices (both with ``basis`` attached), or (nt,)
    real for derived scalar observables.
    """

    times: np.ndarray
    values: np.ndarray
    basis: Basis | None = None

    def __post_init__(self):
        t = validate_grid(self.times)
        v = np.asarray(self.values)
        if v.shape[0] != t.size:
            raise ConfigurationError(
                f"series length mismatch: {t.size} times, {v.shape[0]} values")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.times.size


def _initial_vector(basis: Basis, initial) -> np.ndarray:
    if initial is None:
        c0 = np.zeros(basis.dim, dtype=complex)
        c0[basis.initial_index] = 1.0
        return c0
    c0 = np.asarray(initial, dtype=complex)
    if c0.shape != (basis.dim,):
        raise ConfigurationError(
            f"initial state must have shape ({basis.dim},), got {c0.shape}")
    norm = np.linalg.norm(c0)
    if abs(norm - 1.0) > 1e-9:
        raise ConfigurationError(
            f"initial state must be normalized (|norm-1| = {abs(norm-1.0):.2e})")
    return c0


def _checked_blocks(kind: SystemKind, params: ModelParams, basis: Basis,
                    t: np.ndarray, initial):
    """Yield ``(start, block)`` of
    :func:`twophoton.integrate.propagate_blocks` for the amplitudes, each
    block norm-checked before it is yielded.  Damping is refused: this
    sector has no photon loss."""
    if params.kappa_a or params.kappa_b:
        raise ConfigurationError(
            f"the coherent engine has no damping (kappa_a={params.kappa_a:g}, "
            f"kappa_b={params.kappa_b:g}); damped runs are master and scan --axis kappa")
    c0 = _initial_vector(basis, initial)
    h = build_hamiltonian(kind, params, damped=False)
    for start, block in propagate_blocks(-1j * h, t, c0):
        f = block.view(float)                   # one pass, no conj temporary
        drift = np.abs(np.sqrt(np.einsum("ij,ij->i", f, f)) - 1.0)
        breach = ~(drift <= NORM_TOLERANCE)     # a NaN drift is a breach too
        if breach.any():
            first = int(np.argmax(breach))
            raise NumericalInvariantError(
                "amplitude norm", float(drift[first]), NORM_TOLERANCE,
                time=float(t[start + first]))
        yield start, block


def evolve_amplitudes(kind: SystemKind | str, params: ModelParams,
                      t_grid, initial=None) -> TimeSeries:
    """Integrate the amplitude equations over an output time grid.

    Parameters
    ----------
    kind, params:
        System selection and physical parameters.
    t_grid:
        Strictly increasing output times (units of 1/g1); ``initial`` is
        the state at ``t_grid[0]``.
    initial:
        Normalized amplitude vector; defaults to both atoms excited,
        cavity in vacuum.

    Each output interval is cut into sub-intervals of at most
    THETA/||H||_1 (THETA = 1.1), each one degree-18 Taylor step, exact to
    rounding.

    Raises
    ------
    NumericalInvariantError
        If the norm of the amplitude vector drifts from 1 by more than
        1e-6 anywhere on the output grid (the run is then untrustworthy).
        The error reports the drift and time of the first such point.
    """
    kind = SystemKind.coerce(kind)
    basis = enumerate_basis(kind, damped=False)
    t = validate_grid(t_grid)
    values = np.empty((t.size, basis.dim), dtype=complex)
    for start, block in _checked_blocks(kind, params, basis, t, initial):
        values[start:start + len(block)] = block
    return TimeSeries(times=t, values=values, basis=basis)


def evolve_probability(kind: SystemKind | str, params: ModelParams, t_grid,
                       initial=None) -> TimeSeries:
    """|c_target(t)|^2 of :func:`evolve_amplitudes` for the two-photon
    state: the same run and checks, keeping one column of each block."""
    kind = SystemKind.coerce(kind)
    basis = enumerate_basis(kind, damped=False)
    t = validate_grid(t_grid)
    values = np.empty(t.size)
    for start, block in _checked_blocks(kind, params, basis, t, initial):
        column = values[start:start + len(block)]
        np.square(np.abs(block[:, basis.two_photon_index], out=column),
                  out=column)
    return TimeSeries(times=t, values=values)


def expm_series(kind: SystemKind | str, params: ModelParams, t_grid,
                initial=None) -> TimeSeries:
    """Exact amplitudes on a whole grid (vectorized eigendecomposition)."""
    kind = SystemKind.coerce(kind)
    basis = enumerate_basis(kind, damped=False)
    c0 = _initial_vector(basis, initial)
    t = validate_grid(t_grid)
    h = build_hamiltonian(kind, params, damped=False)
    energies, vectors = np.linalg.eigh(h)
    phases = np.exp(-1j * np.outer(t, energies))        # (nt, dim)
    values = (phases * (vectors.T @ c0)) @ vectors.T
    return TimeSeries(times=t, values=values, basis=basis)
