"""Fixed-step integration core.

Everything this package integrates is a constant-coefficient linear system
y' = A y: amplitudes under A = -iH, and density matrices under the
master-equation generator acting on the flattened matrix (see
:mod:`twophoton.lindblad`).  Both go through the one :func:`propagate_grid`.
For such systems the classical fourth-order Runge-Kutta step with step h is
*identical* to applying the degree-4 Taylor polynomial of the exponential,

    P4(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24,

so the engine builds that one-substep matrix and raises it to the number
of substeps per output interval with ``np.linalg.matrix_power``.  A grid
whose every point lies within ``UNIFORM_TOLERANCE`` steps of
t[0] + k*step, with the mean step (t[-1] - t[0])/(nt - 1), is uniform: it
builds one propagator, from that mean step, and is filled by doubling (a
block of k known states times the k-th power of the propagator gives the
next k), so nt points cost about log2(nt) matrix products rather than
nt-1 Python-level steps.  Any other grid builds one propagator per
interval length (rounded to 12 decimals) and applies them one interval at
a time.  This
keeps the integrator deterministic (no adaptivity), cheap, and bit-stable
across repeat runs.

The default substep is deliberately conservative: the global error of RK4
grows like t*h^4*|E|^5, with |E| the largest |eigenvalue| of the
generator, so the step shrinks with the largest detuning or coupling.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError

# Substep ceiling and budget: h = min(2.5e-4, 5e-4 / max(|Delta|, |delta|,
# g1, g2, 1)).  The amplitude error against exact diagonalization then stays
# within 0.25 * t * h^4 * |E|^5 on every admitted grid up to t = 10^4/g1
# (tests/test_unitary.py pins it) and the norm drift far below the 1e-6 guard.
SUBSTEP_CEILING = 2.5e-4
SUBSTEP_DETUNING_BUDGET = 5.0e-4
# A grid is uniform when no point is further than this many steps from
# t[0] + k*step.
UNIFORM_TOLERANCE = 1e-9


def default_substep(delta_cap: float, delta_small: float,
                    g1: float, g2: float) -> float:
    """Default integrator substep for the given detunings and couplings
    (units of 1/g1)."""
    scale = max(abs(delta_cap), abs(delta_small), g1, g2, 1.0)
    return min(SUBSTEP_CEILING, SUBSTEP_DETUNING_BUDGET / scale)


def taylor_propagator(a: np.ndarray, h: float, order: int = 4) -> np.ndarray:
    """P_order(h*a): the RK-matched polynomial approximation of expm(h*a)."""
    out = np.eye(a.shape[0], dtype=a.dtype)
    term = out
    for k in range(1, order + 1):
        term = term @ (h / k * a)
        out = out + term
    return out


def validate_grid(t_grid: np.ndarray) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ConfigurationError("time grid must be a non-empty 1-D array")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise ConfigurationError("time grid must be strictly increasing")
    return t


def propagate_grid(generator: np.ndarray, t_grid: np.ndarray, y0: np.ndarray,
                   substep: float | None = None) -> np.ndarray:
    """Integrate y' = generator @ y over an output grid.

    ``y0`` is the state at ``t_grid[0]``.  An output interval dt is split
    into ``ceil(dt/substep)`` equal substeps; its propagator is the substep
    matrix raised to that power.

    The grid is uniform when every point lies within
    ``UNIFORM_TOLERANCE * step`` of ``t[0] + k*step``, where ``step`` is the
    mean step (t[-1] - t[0])/(nt - 1).  Bounding the points rather than the
    intervals means a slowly drifting grid cannot accumulate a label error.
    A uniform grid builds its one propagator from ``step`` and is filled by
    doubling: once the first k states are known, the next k are those times
    P^k, and P^k is then squared, so the grid takes ceil(log2(nt)) matrix
    products.  Any other grid groups its intervals by their length rounded
    to 12 decimals, builds one propagator per group from the group's first
    interval, and is stepped sequentially, one propagator application per
    interval.  Only a grid that passes the pointwise test is free of label
    error: on any other grid each interval is advanced by its group's first
    length, which may differ from its own by up to 1e-12, and these
    differences add up along the grid.

    Returns the (len(t_grid), dim) array of states.  Raises
    ``ConfigurationError`` if an interval propagator is not finite (the
    generator is too large for the substep arithmetic).
    """
    t = validate_grid(t_grid)
    if substep is None:
        raise ConfigurationError("propagate_grid needs an explicit substep")
    if substep <= 0:
        raise ConfigurationError(f"substep must be positive, got {substep}")

    y = np.array(y0, dtype=complex)
    out = np.empty((t.size, y.size), dtype=complex)
    out[0] = y
    if t.size == 1:
        return out

    step = (t[-1] - t[0]) / (t.size - 1)
    ideal = t[0] + step * np.arange(t.size)
    if np.max(np.abs(t - ideal)) <= UNIFORM_TOLERANCE * step:
        _fill_by_doubling(_interval_propagator(generator, step, substep), out)
        return out

    dt = np.diff(t)
    _, first, group = np.unique(np.round(dt, 12), return_index=True,
                                return_inverse=True)
    propagators = [_interval_propagator(generator, dt[i], substep)
                   for i in first]
    for i, g in enumerate(group.tolist(), start=1):
        y = propagators[g] @ y
        out[i] = y
    return out


def _interval_propagator(generator: np.ndarray, dt: float,
                         substep: float) -> np.ndarray:
    """P4(h*generator)^n with n = ceil(dt/substep) substeps of h = dt/n."""
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = dt / substep
        if not math.isfinite(ratio):
            raise ConfigurationError(
                f"interval {dt:.6g} at substep {substep:.3g} needs too many "
                "substeps: the parameters are too large for the integrator")
        nsub = max(1, math.ceil(ratio))
        p = np.linalg.matrix_power(taylor_propagator(generator, dt / nsub),
                                   nsub)
    if not np.all(np.isfinite(p)):
        raise ConfigurationError(
            f"the propagator over interval {dt:.6g} ({float(nsub):.3g} "
            "substeps) is not finite: the parameters are too large for the "
            "integrator")
    return p


def _fill_by_doubling(p: np.ndarray, out: np.ndarray) -> None:
    """Fill out[1:] with out[i] = p^i @ out[0], doubling the known prefix."""
    known, power = 1, p
    while True:
        n = min(known, out.shape[0] - known)
        np.matmul(out[:n], power.T, out=out[known:known + n])
        known += n
        if known == out.shape[0]:
            return
        power = power @ power
