import math

import numpy as np
import pytest

from twophoton import (ConfigurationError, ModelParams, build_hamiltonian,
                       evolve_amplitudes, expm_series, time_grid)
from twophoton import integrate
from twophoton.integrate import propagate_grid, taylor_propagator, validate_grid


def test_norm_scaled_substep_policy(monkeypatch):
    # each interval is cut by the generator's 1-norm:
    # n = max(1, ceil(||A||_1 * dt / THETA)) sub-intervals of one Taylor step
    builds = []

    def counting(a, h):
        builds.append(h)
        return taylor_propagator(a, h)

    strong = ModelParams(g2=30.0, delta_cap=-5.0, delta_small=3.5)
    gen = -1j * build_hamiltonian("bimodal", strong)
    n = math.ceil(np.linalg.norm(gen, 1) * 0.1 / integrate.THETA)
    monkeypatch.setattr(integrate, "taylor_propagator", counting)
    propagate_grid(gen, [0.0, 0.1], np.ones(6))
    propagate_grid(0.01 * gen, [0.0, 0.1], np.ones(6))
    assert n > 1 and builds == [0.1 / n, 0.1]
    # and the strong coupling stays at rounding level against
    # exact diagonalization
    t = time_grid(25.0)
    err = np.max(np.abs(evolve_amplitudes("bimodal", strong, t).values
                        - expm_series("bimodal", strong, t).values))
    assert err <= 1e-11


def test_taylor_propagator_orders():
    # one degree-18 step of a rotation generator is the rotation to rounding
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    c, s = math.cos(0.1), math.sin(0.1)
    rotation = np.array([[c, s], [-s, c]])
    assert np.max(np.abs(taylor_propagator(a, 0.1) - rotation)) < 1e-16


def test_propagate_constant_zero_generator():
    y0 = np.array([1.0, 0.0], dtype=complex)
    out = propagate_grid(np.zeros((2, 2)), [0.0, 1.0, 2.0], y0)
    assert np.array_equal(out[0], y0)
    assert np.array_equal(out[-1], y0)


def test_propagate_matches_exponential():
    # single decaying mode: y' = -y
    gen = np.array([[-1.0]])
    t = np.linspace(0.0, 3.0, 31)
    out = propagate_grid(gen, t, np.array([1.0 + 0j]))
    assert np.max(np.abs(out[:, 0] - np.exp(-t))) < 1e-12


def test_nonuniform_grid_supported():
    # rotation generator: exact solution (cos t, -sin t)
    gen = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    t = np.array([0.0, 0.1, 0.3, 0.35, 1.0])
    out = propagate_grid(gen, t, np.array([1.0, 0.0], dtype=complex))
    assert out.shape == (5, 2)
    norms = np.linalg.norm(out, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert np.max(np.abs(out[:, 0] - np.cos(t))) < 1e-12
    assert np.max(np.abs(out[:, 1] + np.sin(t))) < 1e-12


@pytest.mark.parametrize("nt", [1, 2, 3, 4, 5, 1025])
def test_doubling_matches_literal_stepping(nt):
    # a uniform grid is filled by doubling; it must agree with applying the
    # one interval propagator point by point, also at non-powers of two.
    # The generator is not normal, so states grow: compare relative to them.
    rng = np.random.default_rng(5)
    gen = 0.3 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    y = rng.normal(size=5) + 1j * rng.normal(size=5)
    h = 0.01
    t = h * np.arange(nt)
    # ||gen||_1 * h < THETA, so an interval is one Taylor step
    assert np.linalg.norm(gen, 1) * h < integrate.THETA
    out = propagate_grid(gen, t, y)
    p = taylor_propagator(gen, h)
    expected = [y]
    for _ in range(nt - 1):
        expected.append(p @ expected[-1])
    expected = np.array(expected)
    assert np.max(np.abs(out - expected)) < 1e-12 * np.max(np.abs(expected))


def drifting_grid(n: int = 2000, step: float = 0.01) -> np.ndarray:
    """Intervals step*(1 + 5e-10), then step*(1 - 5e-10): each within 1e-9
    of the mean step, but the midpoint is 5e-7 steps off t[0] + k*step."""
    dt = np.full(n, step)
    dt[:n // 2] *= 1 + 5e-10
    dt[n // 2:] *= 1 - 5e-10
    return np.concatenate([[0.0], np.cumsum(dt)])


@pytest.mark.parametrize("t,builds", [
    (time_grid(600.0), 1),        # intervals differ by up to ~1e-13
    ([0.0, 0.1, 0.3, 0.35, 1.0], 4),
    (time_grid(9999.99), 1),      # the longest admitted grid is uniform too
    (drifting_grid(), 2),         # not uniform pointwise: grouped by interval
])
def test_one_propagator_per_distinct_interval(monkeypatch, t, builds):
    calls = []

    def counting(a, h):
        calls.append(h)
        return taylor_propagator(a, h)

    monkeypatch.setattr(integrate, "taylor_propagator", counting)
    propagate_grid(np.zeros((1, 1)), t, np.ones(1))
    assert len(calls) == builds


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        validate_grid([])
    with pytest.raises(ConfigurationError):
        validate_grid([0.0, 0.5, 0.5])
    with pytest.raises(ConfigurationError):
        validate_grid([[0.0, 1.0]])


# ---------------------------------------------------------------------------
# blocks: the same states whatever BLOCK is
# ---------------------------------------------------------------------------

def whole_grid(monkeypatch, generator, t, y0):
    """The states with every grid one block (the doubling over the whole grid)."""
    monkeypatch.setattr(integrate, "BLOCK", 1 << 30)
    return propagate_grid(generator, t, y0)


@pytest.mark.parametrize("dim", [6, 81])
@pytest.mark.parametrize("block", [2, 4, 8])
def test_blocks_equal_whole_grid_fill(monkeypatch, dim, block):
    # nt on both sides of powers of two, partial last blocks, and one-row
    # last blocks whose block index is (17, 33) and is not (13, 25) a power
    # of two; one non-uniform grid is stepped block by block
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    generator = -1j * (a + a.conj().T) / dim - 0.05 * np.eye(dim)
    y0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    grids = [0.01 * np.arange(nt) for nt in (5, 12, 13, 14, 17, 25, 29, 33)]
    grids.append(np.cumsum([0.0] + [0.01, 0.02] * 6))
    for t in grids:
        expected = whole_grid(monkeypatch, generator, t, y0)
        monkeypatch.setattr(integrate, "BLOCK", block)
        starts, blocks = zip(*[(start, b.copy()) for start, b
                               in integrate.propagate_blocks(generator, t, y0)])
        assert list(starts) == list(range(0, t.size, block))
        assert [len(b) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert np.array_equal(np.concatenate(blocks), expected)
        assert np.array_equal(propagate_grid(generator, t, y0), expected)
