import numpy as np
import pytest

import twophoton.experiments

from twophoton import (ConfigurationError, ModelParams, SweepSpec,
                       damping_sweep, default_horizon, effective_g_omega,
                       resonance_report, scan_two_photon, time_grid)
from twophoton.experiments import (MAX_DEFAULT_HORIZON, MAX_GRID_POINTS,
                                   axis_grid)

SCAN_PARAMS = ModelParams(g2=1.5, delta_cap=-5.0)
SCAN_AXIS = tuple(2.5 + 0.05 * np.arange(41))
LADDER = (0.0, 0.03, 0.1)


@pytest.fixture(scope="module")
def headline_scan():
    spec = SweepSpec(kind="bimodal", params=SCAN_PARAMS, axis="delta_small",
                     values=SCAN_AXIS, horizon=25.0)
    return scan_two_photon(spec)


# ---------------------------------------------------------------------------
# grids and horizons
# ---------------------------------------------------------------------------

def test_time_grid_shape():
    grid = time_grid(25.0)
    assert grid.shape == (2501,)
    assert grid[0] == 0.0
    assert grid[-1] == 25.0
    assert np.allclose(np.diff(grid), 0.01)
    # the step count is rounded: a grid may end up to half a step past
    # the horizon
    assert time_grid(25.006)[-1] == 25.01
    assert np.array_equal(time_grid(0.006), [0.0, 0.01])


def test_time_grid_validation():
    with pytest.raises(ConfigurationError):
        time_grid(-1.0)
    with pytest.raises(ConfigurationError):
        time_grid(25.0, step=0.0)
    with pytest.raises(ConfigurationError):
        time_grid(0.001)   # shorter than one step


def test_time_grid_point_budget(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("time_grid allocated before checking its budget")

    with monkeypatch.context() as patch:
        patch.setattr(np, "linspace", no_allocation)
        for horizon in (1e9, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match="grid points"):
                time_grid(horizon)
        with pytest.raises(ConfigurationError, match="grid points"):
            time_grid(float(MAX_GRID_POINTS), step=1.0)
    assert len(time_grid(MAX_GRID_POINTS - 1.0, step=1.0)) == MAX_GRID_POINTS
    assert len(time_grid(MAX_DEFAULT_HORIZON)) == 200_001


def test_axis_grid_point_budget(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("axis_grid allocated before checking its budget")

    with monkeypatch.context() as patch:
        patch.setattr(np, "arange", no_allocation)
        for start, stop, step in ((0.0, 1e9, 1e-9), (-1e308, 1e308, 1.0),
                                  (0.0, float(MAX_GRID_POINTS), 1.0)):
            with pytest.raises(ConfigurationError, match="grid points"):
                axis_grid(start, stop, step)
        for start, stop, step in ((0.0, 1.0, 0.0), (1.0, 0.0, 0.1)):
            with pytest.raises(ConfigurationError, match="step > 0"):
                axis_grid(start, stop, step)
    assert len(axis_grid(0.0, MAX_GRID_POINTS - 1.0, 1.0)) == MAX_GRID_POINTS
    assert np.array_equal(axis_grid(2.5, 4.5, 0.05), 2.5 + 0.05 * np.arange(41))


def test_default_horizon_tracks_resonance_period():
    p = SCAN_PARAMS.replace(delta_small=3.55)
    big_g, _ = effective_g_omega("bimodal", p)
    assert default_horizon("bimodal", p) == pytest.approx(10 * np.pi / abs(big_g))


def test_default_horizon_fallbacks():
    # destructive-interference point: G = 0 exactly
    silent = ModelParams(g1=1.0, g2=1.0, delta_cap=-10.0, delta_small=10.0)
    assert default_horizon("bimodal", silent) == 25.0
    # singular parameters fall back too
    singular = ModelParams(g2=1.5, delta_cap=np.sqrt(2.0), delta_small=7.0)
    assert default_horizon("bimodal", singular) == 25.0
    # couplings so large that the effective G is not finite
    huge = ModelParams(g1=1e200, g2=1e200)
    assert default_horizon("bimodal", huge) == 25.0


# ---------------------------------------------------------------------------
# sweep definition
# ---------------------------------------------------------------------------

def test_sweep_spec_coercion():
    spec = SweepSpec(kind="bimodal", params=SCAN_PARAMS, axis="delta_small",
                     values=[3, 4], horizon=25.0)
    assert spec.values == (3.0, 4.0)
    assert spec.kind.value == "bimodal"


def test_sweep_spec_validation():
    good = dict(kind="bimodal", params=SCAN_PARAMS, axis="delta_small",
                values=(3.0, 4.0), horizon=25.0)
    with pytest.raises(ConfigurationError, match="damping_sweep"):
        SweepSpec(**{**good, "axis": "kappa_a"})
    with pytest.raises(ConfigurationError):
        SweepSpec(**{**good, "values": ()})
    with pytest.raises(ConfigurationError):
        SweepSpec(**{**good, "values": (1.0, 3.0, 2.0)})
    with pytest.raises(ConfigurationError):
        SweepSpec(**{**good, "horizon": 0.0})


# ---------------------------------------------------------------------------
# detuning scans
# ---------------------------------------------------------------------------

def test_bimodal_scan_peak_location(headline_scan):
    best = headline_scan.argmax_row()
    assert best["axis"] == pytest.approx(3.55, abs=1e-9)
    assert best["peak_value"] == pytest.approx(0.904244, abs=1e-4)
    assert best["peak_time"] == pytest.approx(20.93, abs=1e-9)
    # the resonance is clearly shifted below the bare condition delta = 5
    assert best["axis"] < 4.0


def test_scan_rows_follow_axis(headline_scan):
    assert np.array_equal(headline_scan.times, time_grid(25.0))
    assert headline_scan.values.shape == (41, 2501)
    assert [r["axis"] for r in headline_scan.rows] == list(SCAN_AXIS)
    for row, series in zip(headline_scan.rows, headline_scan.values):
        assert list(row) == ["axis", "peak_value", "peak_time"]
        assert row["peak_value"] == series.max()
        assert row["peak_time"] == headline_scan.times[np.argmax(series)]
        assert 0.0 <= row["peak_value"] <= 1.0


def test_scan_provenance(headline_scan):
    prov = headline_scan.provenance
    assert prov["axis"] == "delta_small"
    assert prov["grid_step"] == 0.01
    assert prov["horizon"] == 25.0
    assert "substep" not in prov
    assert isinstance(prov["engine"], str)


def test_single_mode_scan_peak():
    spec = SweepSpec(kind="single_mode",
                     params=ModelParams(g2=2.0, delta_cap=-5.0),
                     axis="delta_small",
                     values=tuple(2.0 + 0.05 * np.arange(81)), horizon=25.0)
    best = scan_two_photon(spec).argmax_row()
    assert best["axis"] == pytest.approx(2.75, abs=1e-9)
    assert best["peak_value"] == pytest.approx(0.800492, abs=1e-4)
    assert best["peak_time"] == pytest.approx(19.71, abs=1e-9)


# ---------------------------------------------------------------------------
# damping ladders
# ---------------------------------------------------------------------------

def test_damping_sweep_single_mode_ratios():
    params = ModelParams(g1=1.0, g2=2.0, delta_cap=-5.0, delta_small=2.75)
    result = damping_sweep("single_mode", params, LADDER, 60.0)
    assert [r["axis"] for r in result.rows] == [0.0, 0.03, 0.1]
    ratios = [r["late_to_first_ratio"] for r in result.rows]
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[0] == pytest.approx(0.9625, abs=2e-3)
    assert ratios[1] == pytest.approx(0.6659, abs=2e-3)
    assert ratios[2] == pytest.approx(0.1463, abs=2e-3)
    for row in result.rows:
        assert row["late_window_peak"] <= row["first_window_peak"]
        assert 0.0 <= row["peak_value"] <= 1.0
    assert result.provenance["late_window"] == (25.0, 60.0)
    assert result.provenance["params"]["delta_small"] == 2.75


def test_damping_sweep_validation():
    params = SCAN_PARAMS.replace(delta_small=3.5)
    with pytest.raises(ConfigurationError):
        damping_sweep("bimodal", params, (-0.1,), 60.0)
    with pytest.raises(ConfigurationError):
        damping_sweep("bimodal", params, LADDER, 10.0)


def test_damping_sweep_refuses_an_empty_ladder(monkeypatch):
    def no_evolution(*args, **kwargs):
        raise AssertionError("an empty ladder was evolved")

    monkeypatch.setattr(twophoton.experiments, "evolve_population", no_evolution)
    monkeypatch.setattr(twophoton.experiments, "time_grid", no_evolution)
    with pytest.raises(ConfigurationError, match="at least one kappa"):
        damping_sweep("bimodal", SCAN_PARAMS, [], 60.0)


# ---------------------------------------------------------------------------
# resonance reports
# ---------------------------------------------------------------------------

def test_resonance_report_strong_coupling():
    # at g2/g1 = 1.5 and delta_cap = -5 the dispersive detuning never
    # crosses zero on the interval, yet the scan shows a clean resonance
    report = resonance_report("bimodal", SCAN_PARAMS, (2.5, 4.5),
                              horizon=25.0)
    assert report.delta_star_omega is None
    assert report.delta_star_stark is None
    assert report.omega_minus_scan is None
    assert report.delta_star_scan == pytest.approx(3.55, abs=1e-9)
    assert report.scan_peak_value == pytest.approx(0.904244, abs=1e-4)
    assert report.shift_from_bare == pytest.approx(3.55 - 5.0, abs=1e-9)
    assert len(report.scan.rows) == 41


def test_resonance_report_interval_validation():
    with pytest.raises(ConfigurationError):
        resonance_report("bimodal", SCAN_PARAMS, (4.5, 2.5))


@pytest.mark.parametrize("start,stop,step,points", [
    (0.0, 1.08, 0.3, 4),        # 3.6 steps: a rounded count would add 1.2
    (9.0, 10.0, 0.35, 3),       # resonance --interval 9 10 --scan-step 0.35
    (2.5, 4.5, 0.05, 41),       # the figure and benchmark axes: a step
    (2.0, 6.0, 0.05, 81),       # count within rounding of an integer keeps
    (9.0, 10.0, 0.05, 21),      # its last point at stop
])
def test_axis_grid_never_passes_stop(start, stop, step, points):
    axis = axis_grid(start, stop, step)
    assert len(axis) == points
    assert axis[-1] <= stop + 1e-9 * step
    assert np.array_equal(axis, start + step * np.arange(points))
