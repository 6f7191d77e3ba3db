import numpy as np
import pytest

from twophoton import ConfigurationError, default_substep, time_grid
from twophoton import integrate
from twophoton.integrate import propagate_grid, taylor_propagator, validate_grid


def rk4_step(f, y, h: float):
    """One literal Runge-Kutta-4 step of y' = f(y) (autonomous)."""
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_default_substep_policy():
    assert default_substep(0.0, 0.0) == 2.5e-4
    assert default_substep(-5.0, 3.5) == pytest.approx(1e-4)
    assert default_substep(-10.0, 9.5) == pytest.approx(5e-5)
    # small detunings never push the substep above its ceiling
    assert default_substep(0.3, -0.2) == 2.5e-4


def test_taylor_propagator_equals_literal_rk4():
    # for a constant linear system one RK4 step IS the degree-4 polynomial
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    y = rng.normal(size=6) + 1j * rng.normal(size=6)
    h = 0.01
    stepped = rk4_step(lambda v: a @ v, y, h)
    assert np.max(np.abs(taylor_propagator(a, h) @ y - stepped)) < 1e-14


def test_taylor_propagator_orders():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    p1 = taylor_propagator(a, 0.1, order=1)
    assert np.allclose(p1, np.eye(2) + 0.1 * a)


def test_propagate_constant_zero_generator():
    y0 = np.array([1.0, 0.0], dtype=complex)
    out = propagate_grid(np.zeros((2, 2)), [0.0, 1.0, 2.0], y0, substep=0.1)
    assert np.array_equal(out[0], y0)
    assert np.array_equal(out[-1], y0)


def test_propagate_matches_exponential():
    # single decaying mode: y' = -y
    gen = np.array([[-1.0]])
    t = np.linspace(0.0, 3.0, 31)
    out = propagate_grid(gen, t, np.array([1.0 + 0j]), substep=1e-3)
    assert np.max(np.abs(out[:, 0] - np.exp(-t))) < 1e-12


def test_nonuniform_grid_supported():
    # rotation generator: exact solution (cos t, -sin t)
    gen = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    t = np.array([0.0, 0.1, 0.3, 0.35, 1.0])
    out = propagate_grid(gen, t, np.array([1.0, 0.0], dtype=complex),
                         substep=1e-3)
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
    out = propagate_grid(gen, t, y, substep=h / 4)
    p = np.linalg.matrix_power(taylor_propagator(gen, h / 4), 4)
    expected = [y]
    for _ in range(nt - 1):
        expected.append(p @ expected[-1])
    expected = np.array(expected)
    assert np.max(np.abs(out - expected)) < 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("t,builds", [
    (time_grid(600.0), 1),        # intervals differ by up to ~1e-13
    ([0.0, 0.1, 0.3, 0.35, 1.0], 4),
])
def test_one_propagator_per_distinct_interval(monkeypatch, t, builds):
    calls = []

    def counting(a, h, order=4):
        calls.append(h)
        return taylor_propagator(a, h, order)

    monkeypatch.setattr(integrate, "taylor_propagator", counting)
    propagate_grid(np.zeros((1, 1)), t, np.ones(1), substep=1e-3)
    assert len(calls) == builds


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        validate_grid([])
    with pytest.raises(ConfigurationError):
        validate_grid([0.0, 0.5, 0.5])
    with pytest.raises(ConfigurationError):
        validate_grid([[0.0, 1.0]])
    with pytest.raises(ConfigurationError):
        propagate_grid(np.eye(2), [0.0, 1.0], np.zeros(2), substep=-1.0)
