"""Coherent amplitude dynamics in the excitation-conserving sector.

The state |psi(t)> = sum_k c_k(t)|k> is integrated as the linear system
c' = -iHc with the fixed-step propagator from :mod:`twophoton.integrate`.
An independent eigendecomposition path (``expm_series``, and
``expm_reference`` for one time) provides the exact solution for
cross-checks; the engine aborts if the norm of the
integrated amplitude vector drifts by more than a part in 10^6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Basis, enumerate_basis
from .errors import ConfigurationError, NumericalInvariantError
from .integrate import default_substep, propagate_grid, validate_grid
from .operators import build_hamiltonian
from .params import ModelParams, SystemKind

NORM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class TimeSeries:
    """Values sampled on a strictly increasing time grid.

    ``values`` is (nt, dim) complex for amplitude series (with ``basis``
    attached) or (nt,) real for derived scalar observables.
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


def amplitude_rhs(kind: SystemKind | str, params: ModelParams,
                  amplitudes: np.ndarray) -> np.ndarray:
    """Right-hand side c' = -iHc of the amplitude equations."""
    h = build_hamiltonian(kind, params, damped=False)
    return -1j * (h @ np.asarray(amplitudes, dtype=complex))


def evolve_amplitudes(kind: SystemKind | str, params: ModelParams,
                      t_grid, initial=None,
                      substep: float | None = None) -> TimeSeries:
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
    substep:
        Integrator substep override; default scales inversely with the
        largest detuning or coupling.

    Raises
    ------
    NumericalInvariantError
        If the norm of the amplitude vector drifts from 1 by more than
        1e-6 anywhere on the output grid (the run is then untrustworthy —
        typically a manually chosen substep that is far too coarse).  The
        error reports the drift and time of the first such point.
    """
    kind = SystemKind.coerce(kind)
    basis = enumerate_basis(kind, damped=False)
    c0 = _initial_vector(basis, initial)
    if substep is None:
        substep = default_substep(params.delta_cap, params.delta_small,
                                  params.g1, params.g2)

    h = build_hamiltonian(kind, params, damped=False)
    values = propagate_grid(-1j * h, t_grid, c0, substep=substep)

    f = values.view(float)                      # one pass, no conj temporary
    drift = np.abs(np.sqrt(np.einsum("ij,ij->i", f, f)) - 1.0)
    breach = ~(drift <= NORM_TOLERANCE)         # a NaN drift is a breach too
    if breach.any():
        first = int(np.argmax(breach))
        raise NumericalInvariantError(
            "amplitude norm", float(drift[first]), NORM_TOLERANCE,
            time=float(np.asarray(t_grid, dtype=float)[first]))
    return TimeSeries(times=np.asarray(t_grid, dtype=float), values=values,
                      basis=basis)


def expm_reference(kind: SystemKind | str, params: ModelParams, t: float,
                   initial=None) -> np.ndarray:
    """Exact amplitudes at one time via eigendecomposition of H.

    Independent of the stepping integrator; used as its oracle.  This is
    :func:`expm_series` on the one-point grid ``[t]``.
    """
    return expm_series(kind, params, [t], initial).values[0]


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


def two_photon_probability(series: TimeSeries) -> TimeSeries:
    """|c_target(t)|^2 for the two-photon state of the series' basis."""
    if series.basis is None:
        raise ConfigurationError(
            "series has no basis attached; cannot locate the two-photon state")
    idx = series.basis.two_photon_index
    prob = np.abs(series.values[:, idx]) ** 2
    return TimeSeries(times=series.times, values=prob)
