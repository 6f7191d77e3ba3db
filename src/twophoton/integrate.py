"""Fixed-step integration core.

Everything this package integrates is a constant-coefficient linear system
y' = A y: amplitudes under A = -iH, and density matrices under the
master-equation generator acting on the flattened matrix (see
:mod:`twophoton.lindblad`).  Both go through the one :func:`propagate_grid`.
For such systems the classical fourth-order Runge-Kutta step with step h is
*identical* to applying the degree-4 Taylor polynomial of the exponential,

    P4(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24,

so the engine builds that one-substep matrix, raises it to the number of
substeps per output interval with ``np.linalg.matrix_power``, and applies
it sequentially, building one interval propagator per distinct interval
length of the grid.  This keeps the integrator deterministic (no
adaptivity), cheap, and bit-stable across repeat runs.

The default substep is deliberately conservative: the global error of RK4
grows like t*h^4*|E|^5, so the step shrinks with the largest detuning.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError

# Substep ceiling and detuning budget chosen so that over the validated
# parameter range (detunings up to ~10 g1, horizons up to ~600/g1) the
# amplitude error against exact diagonalization stays below 1e-10 and the
# norm drift below 1e-9 — comfortably inside the engine's advertised
# tolerances.
SUBSTEP_CEILING = 2.5e-4
SUBSTEP_DETUNING_BUDGET = 5.0e-4


def default_substep(delta_cap: float, delta_small: float) -> float:
    """Default integrator substep for the given detunings (units of 1/g1)."""
    scale = max(abs(delta_cap), abs(delta_small), 1.0)
    return min(SUBSTEP_CEILING, SUBSTEP_DETUNING_BUDGET / scale)


def rk4_step(f, y, h: float):
    """One literal Runge-Kutta-4 step of y' = f(y) (autonomous).

    Not used by the engine: it is the literal-RK4 reference that
    ``test_taylor_propagator_equals_literal_rk4`` compares
    :func:`taylor_propagator` against.
    """
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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

    ``y0`` is the state at ``t_grid[0]``.  Each output interval is split
    into ``ceil(dt/substep)`` equal substeps; the interval propagator is
    the substep matrix raised to that power.  Intervals are grouped once
    per grid by their length rounded to 12 decimals, and one propagator is
    built per group from the group's first interval.  A uniform grid (whose
    intervals differ only by rounding) therefore builds exactly one.

    Returns the (len(t_grid), dim) array of states.
    """
    t = validate_grid(t_grid)
    if substep is None:
        raise ConfigurationError("propagate_grid needs an explicit substep")
    if substep <= 0:
        raise ConfigurationError(f"substep must be positive, got {substep}")

    y = np.array(y0, dtype=complex)
    out = np.empty((t.size, y.size), dtype=complex)
    out[0] = y

    dt = np.diff(t)
    _, first, group = np.unique(np.round(dt, 12), return_index=True,
                                return_inverse=True)
    propagators = []
    for i in first:
        nsub = max(1, math.ceil(dt[i] / substep))
        propagators.append(np.linalg.matrix_power(
            taylor_propagator(generator, dt[i] / nsub), nsub))
    for i, g in enumerate(group.tolist(), start=1):
        y = propagators[g] @ y
        out[i] = y
    return out
