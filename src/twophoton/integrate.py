"""Fixed-step integration core.

Everything this package integrates is a constant-coefficient linear system
y' = A y: amplitudes under A = -iH, and density matrices under the
master-equation generator acting on the flattened matrix (see
:mod:`twophoton.lindblad`).  Both go through the one
:func:`propagate_blocks`, which yields the states in consecutive blocks of
at most ``BLOCK`` points, all rows of the one buffer it allocates, so a
long run is held two blocks at a time; :func:`propagate_grid` copies the
blocks into one whole-grid array.
An output interval dt is split into n equal sub-intervals of length
h = dt/n <= THETA/||A||_1, and each takes one degree-18 Taylor step,

    T18(hA) = I + hA + (hA)^2/2! + ... + (hA)^18/18!.

With ||hA||_1 <= THETA the omitted tail is at most THETA^19/19! < 2^-53
relative to expm(hA), so T18(hA)^n is the interval propagator exact to
rounding (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970, 2009).
At the reference runs' parameters ||A||_1 * 0.01 < THETA, so one step
spans an output interval.  A grid whose every point lies within
``UNIFORM_TOLERANCE`` steps of t[0] + k*step, with the mean step
(t[-1] - t[0])/(nt - 1), is uniform: it builds one propagator, from that
mean step, and is filled by doubling (a block of k known states times the
k-th power of the propagator gives the next k), so nt points cost about
log2(nt) matrix products rather than nt-1 Python-level steps.  Later
blocks replay the same products, so the states do not depend on
``BLOCK``.  Any other grid builds one propagator per interval length
(rounded to 12 decimals) and applies them one interval at a time.  This
keeps the integrator deterministic (no adaptivity), cheap, and bit-stable
across repeat runs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError

# Taylor degree and the largest ||h*A||_1 it takes in one step:
# THETA**(ORDER + 1) / (ORDER + 1)! < 2**-53.
ORDER = 18
THETA = 1.1
# A grid is uniform when no point is further than this many steps from
# t[0] + k*step.
UNIFORM_TOLERANCE = 1e-9
# States per block of propagate_blocks, a power of two: every grid of at
# most BLOCK points is one block, and a longer run holds a few blocks.
BLOCK = 2 ** 15


def taylor_propagator(a: np.ndarray, h: float) -> np.ndarray:
    """T18(h*a): the degree-``ORDER`` Taylor polynomial of expm(h*a)."""
    out = np.eye(a.shape[0], dtype=a.dtype)
    term = out
    for k in range(1, ORDER + 1):
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


def propagate_grid(generator: np.ndarray, t_grid: np.ndarray,
                   y0: np.ndarray) -> np.ndarray:
    """The (len(t_grid), dim) array of states: the blocks of
    :func:`propagate_blocks`, each copied to its own rows."""
    t = validate_grid(t_grid)
    out = np.empty((t.size, np.size(y0)), dtype=complex)
    for start, block in propagate_blocks(generator, t, y0):
        out[start:start + len(block)] = block
    return out


def propagate_blocks(generator: np.ndarray, t_grid: np.ndarray,
                     y0: np.ndarray):
    """Integrate y' = generator @ y over an output grid, yielding
    ``(start, block)``: the states at t_grid[start:start + len(block)], in
    consecutive blocks of at most ``BLOCK`` rows.

    ``y0`` is the state at ``t_grid[0]``.  An output interval dt is split
    into n equal sub-intervals, each one degree-18 Taylor step; its
    propagator is that step matrix raised to the n-th power, with
    n = max(1, ceil(||generator||_1 * dt / THETA)), which makes the
    propagator exact to rounding.

    The grid is uniform when every point lies within
    ``UNIFORM_TOLERANCE * step`` of ``t[0] + k*step``, where ``step`` is the
    mean step (t[-1] - t[0])/(nt - 1), so a slowly drifting grid cannot
    accumulate a label error.  A uniform grid builds its one propagator P
    from ``step``.  Its first block B0 is filled by doubling: once the first
    k states are known, the next k are those times P^k, and P^k is then
    squared.  Block c is B0 @ Q_j1^T @ Q_j2^T ... over the set bits j of c,
    low to high, with Q_j = P^(BLOCK * 2^j) from the same squaring chain:
    row for row the products of a doubling over the whole grid, so the
    states do not depend on ``BLOCK``.  NumPy multiplies a lone row on
    another BLAS path, which the whole-grid doubling takes only for a last
    row at a power-of-two index; any other one-row block is computed on
    two rows and cut to one.  Any other grid groups its intervals by their
    length rounded to 12 decimals, builds one propagator per group from the
    group's first interval and steps one interval at a time; each interval
    is advanced by its group's first length, which may differ from its own
    by up to 1e-12, and these differences add up along the grid.

    The blocks are rows of one new array of min(nt, 2 * BLOCK) rows: B0
    keeps the first ``BLOCK``, and every later block is written over the
    rows after them, so a later block is valid until the next is asked for.

    Raises ``ConfigurationError`` if an interval needs more sub-intervals
    than float arithmetic can count or its propagator is not finite (the
    generator is too large for the integrator).
    """
    t = validate_grid(t_grid)
    y = np.array(y0, dtype=complex)
    nt, size = t.size, BLOCK
    out = np.empty((min(nt, 2 * size), y.size), dtype=complex)
    head, later = out[:size], out[size:]
    out[0] = y
    if nt == 1:
        yield 0, out
        return

    step = (t[-1] - t[0]) / (nt - 1)
    drift = np.max(np.abs(t - (t[0] + step * np.arange(nt))))
    if drift <= UNIFORM_TOLERANCE * step:
        power = _fill_by_doubling(
            _interval_propagator(generator, step), head)
        yield 0, head
        if nt <= size:
            return
        powers = [power @ power]
        for start in range(size, nt, size):
            c, block = start // size, later[:nt - start]
            while len(powers) < c.bit_length():
                powers.append(powers[-1] @ powers[-1])
            chain = [q for j, q in enumerate(powers) if c >> j & 1]
            # one row alone only where the whole-grid doubling has one
            x = head[:2] if len(block) == 1 and c & (c - 1) else head[:len(block)]
            for q in chain[:-1]:
                x = x @ q.T
            if len(x) == len(block):
                np.matmul(x, chain[-1].T, out=block)
            else:
                block[:] = (x @ chain[-1].T)[:1]
            yield start, block
        return

    dt = np.diff(t)
    _, first, group = np.unique(np.round(dt, 12), return_index=True,
                                return_inverse=True)
    propagators = [_interval_propagator(generator, dt[i]) for i in first]
    group = group.tolist()
    for start in range(0, nt, size):
        block = (later if start else head)[:nt - start]
        for i in range(max(start, 1), start + len(block)):
            y = propagators[group[i - 1]] @ y
            block[i - start] = y
        yield start, block


def _interval_propagator(generator: np.ndarray, dt: float) -> np.ndarray:
    """T18(h*generator)^n over n sub-intervals h = dt/n,
    n = max(1, ceil(||generator||_1 * dt / THETA))."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(generator, 1))
        ratio = norm * dt / THETA
        if not math.isfinite(ratio):
            raise ConfigurationError(
                f"interval {dt:.6g} with generator 1-norm {norm:.3g} needs "
                "too many sub-intervals: the parameters are too large for "
                "the integrator")
        n = max(1, math.ceil(ratio))
        p = np.linalg.matrix_power(taylor_propagator(generator, dt / n), n)
    if not np.all(np.isfinite(p)):
        raise ConfigurationError(
            f"the propagator over interval {dt:.6g} ({float(n):.3g} "
            "sub-intervals) is not finite: the parameters are too large for "
            "the integrator")
    return p


def _fill_by_doubling(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out[1:] with out[i] = p^i @ out[0], doubling the known prefix;
    return the last power of p applied (the chain's next square follows)."""
    known, power = 1, p
    while True:
        n = min(known, out.shape[0] - known)
        np.matmul(out[:n], power.T, out=out[known:known + n])
        known += n
        if known == out.shape[0]:
            return power
        power = power @ power
