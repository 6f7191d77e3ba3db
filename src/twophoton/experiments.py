"""Reference experiments: detuning scans, damping studies, resonance reports.

These drive the low-level engines over parameter grids and reduce each run
to its headline numbers (peak two-photon probability, peak time, decay
ratios).  Sweep rows are pure and independent of one another — they can be
executed in any order or in parallel; the implementation simply loops.

Peak detection is the raw grid maximum on a fixed output grid with step
0.01/g1; no interpolation, so results are deterministic and insensitive to
optimizer quirks.  Each result records its grid step and horizon, and the
integrator cuts each output interval by the generator's norm with no
setting of its own.  The recorded ``engine`` does not identify the code:
it reads ``unknown`` from a source tree and the installed distribution's
version otherwise (ROADMAP item 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effective import effective_g_omega, resonance_detuning
from .errors import ConfigurationError, NoRootInInterval, SingularityError
from .lindblad import evolve_population
from .params import ModelParams, SystemKind
from .unitary import evolve_probability

PEAK_GRID_STEP = 0.01
DEFAULT_HORIZON = 25.0
FIRST_WINDOW = (0.0, 25.0)
LATE_WINDOW = (25.0, 60.0)
MAX_DEFAULT_HORIZON = 2000.0
MAX_GRID_POINTS = 1_000_000     # 8 MB of times; a horizon of 10^4 at the 0.01 step

SCAN_AXES = ("delta_small", "delta_cap")


def engine_version() -> str:
    try:
        from importlib.metadata import version
        return version("artifact")
    except Exception:  # pragma: no cover - metadata missing in odd installs
        return "unknown"


def time_grid(horizon: float, step: float = PEAK_GRID_STEP) -> np.ndarray:
    """Uniform output grid 0, step, ..., n*step with the standard
    peak-detection step and n = round(horizon/step).

    The grid ends at the step multiple nearest the horizon, so it may end
    up to half a step past it: ``time_grid(25.006)`` ends at 25.01 and
    ``time_grid(0.006)`` is [0, 0.01].

    The grid may hold at most ``MAX_GRID_POINTS`` points; a longer horizon
    is a configuration error, raised before anything is allocated.
    """
    if horizon <= 0:
        raise ConfigurationError(f"time horizon must be positive, got {horizon}")
    if step <= 0:
        raise ConfigurationError(f"grid step must be positive, got {step}")
    if not horizon / step + 1 <= MAX_GRID_POINTS:    # NaN and inf fail too
        raise ConfigurationError(
            f"horizon {horizon} at step {step} must give a finite grid of "
            f"at most {MAX_GRID_POINTS} grid points")
    n = int(round(horizon / step))
    if n < 1:
        raise ConfigurationError(
            f"horizon {horizon} is shorter than one grid step {step}")
    return np.linspace(0.0, n * step, n + 1)


def axis_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Axis start, start + step, ... up to stop, never past it (a point
    within 1e-9 steps of stop counts as stop): at most
    ``MAX_GRID_POINTS``, checked before anything is allocated."""
    if not (step > 0 and stop > start):
        raise ConfigurationError("axis range needs step > 0 and stop > start")
    n = (stop - start) / step
    if not n + 1 <= MAX_GRID_POINTS:
        raise ConfigurationError(
            f"axis range {start}..{stop} at step {step} must give at most "
            f"{MAX_GRID_POINTS} grid points")
    return start + step * np.arange(int(np.floor(n + 1e-9)) + 1)


def default_horizon(kind: SystemKind | str, params: ModelParams) -> float:
    """Default evolution horizon in units of 1/g1.

    When the effective model gives a usable two-photon coupling G the
    horizon scales with the resonance period as 10*pi/|G| (clipped), so
    slow resonances are not cut off mid-oscillation; otherwise 25/g1.
    """
    try:
        big_g, _ = effective_g_omega(kind, params)
    except SingularityError:
        return DEFAULT_HORIZON
    if big_g == 0.0 or not np.isfinite(big_g):
        return DEFAULT_HORIZON
    return float(np.clip(10.0 * np.pi / abs(big_g), DEFAULT_HORIZON,
                         MAX_DEFAULT_HORIZON))


@dataclass(frozen=True)
class SweepSpec:
    """Definition of a one-axis sweep.

    ``axis`` is the swept ModelParams field (``delta_small`` or
    ``delta_cap``; damping ladders use :func:`damping_sweep` instead) and
    ``values`` its strictly monotone grid.  ``params`` holds every other
    parameter.
    """

    kind: SystemKind
    params: ModelParams
    axis: str
    values: tuple[float, ...]
    horizon: float = DEFAULT_HORIZON

    def __post_init__(self):
        object.__setattr__(self, "kind", SystemKind.coerce(self.kind))
        if self.axis not in SCAN_AXES:
            raise ConfigurationError(
                f"sweep axis must be one of {SCAN_AXES}, got {self.axis!r} "
                "(damping ladders are run by damping_sweep)")
        values = tuple(float(v) for v in np.atleast_1d(np.asarray(self.values, dtype=float)))
        if len(values) == 0:
            raise ConfigurationError("sweep needs at least one axis value")
        diffs = np.diff(values)
        if len(values) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigurationError("sweep values must be strictly monotone")
        object.__setattr__(self, "values", values)
        if self.horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")


@dataclass(frozen=True)
class SweepResult:
    """A sweep as the table the CLI writes.

    ``values[i]`` is row i's series on the grid ``times`` that every row
    shares, and ``rows[i]`` its summary: ``axis``, ``peak_value`` and
    ``peak_time``, plus the three window columns of a damping ladder.
    """

    times: np.ndarray
    values: np.ndarray
    rows: tuple[dict, ...]
    provenance: dict

    def argmax_row(self) -> dict:
        """The row with the largest peak value (raw grid comparison)."""
        return max(self.rows, key=lambda r: r["peak_value"])


def _sweep(evolve, kind: SystemKind, times: np.ndarray, runs):
    """Evolve each ``(axis value, params)`` of ``runs`` on ``times``: the
    (rows, nt) table and each row's peak on the grid."""
    values = np.empty((len(runs), times.size))
    rows = []
    for series, (axis, params) in zip(values, runs):
        series[:] = evolve(kind, params, times).values
        i = int(np.argmax(series))
        rows.append({"axis": axis, "peak_value": float(series[i]),
                     "peak_time": float(times[i])})
    return values, rows


def scan_two_photon(spec: SweepSpec) -> SweepResult:
    """Coherent-sector sweep of the two-photon probability along one axis."""
    times = time_grid(spec.horizon)
    values, rows = _sweep(evolve_probability, spec.kind, times,
                          [(value, spec.params.replace(**{spec.axis: value}))
                           for value in spec.values])
    provenance = {
        "engine": engine_version(),
        "axis": spec.axis,
        "observable": "two_photon",
        "grid_step": PEAK_GRID_STEP,
        "horizon": spec.horizon,
    }
    return SweepResult(times, values, tuple(rows), provenance)


def damping_sweep(kind: SystemKind | str, params: ModelParams, kappas,
                  horizon: float) -> SweepResult:
    """Two-photon population under increasing cavity damping.

    For each kappa both modes are damped equally (the single-mode system
    damps its one mode).  Each row records the peak inside the first
    window [0, 25], the peak in the late window [25, horizon], and their
    ratio — the survival measure of the resonant oscillations.
    """
    kind = SystemKind.coerce(kind)
    kappas = tuple(float(k) for k in np.atleast_1d(np.asarray(kappas, dtype=float)))
    if not kappas:
        raise ConfigurationError("damping sweep needs at least one kappa")
    if any(k < 0 for k in kappas):
        raise ConfigurationError("damping constants must be non-negative")
    if horizon <= FIRST_WINDOW[1]:
        raise ConfigurationError(
            f"horizon must exceed the first window end {FIRST_WINDOW[1]} "
            "so a late window exists")

    times = time_grid(horizon)
    first_mask = times <= FIRST_WINDOW[1]
    late_mask = (times >= LATE_WINDOW[0]) & (times <= min(LATE_WINDOW[1], horizon))
    bimodal = kind is SystemKind.BIMODAL
    values, rows = _sweep(evolve_population, kind, times,
                          [(k, params.replace(kappa_a=k, kappa_b=k if bimodal else 0.0))
                           for k in kappas])
    for row, series in zip(rows, values):
        first_peak = float(np.max(series[first_mask]))
        late_peak = float(np.max(series[late_mask]))
        row.update(first_window_peak=first_peak, late_window_peak=late_peak,
                   late_to_first_ratio=(late_peak / first_peak if first_peak > 0
                                        else np.nan))
    provenance = {
        "engine": engine_version(),
        "axis": "kappa",
        "observable": "two_photon_population",
        "grid_step": PEAK_GRID_STEP,
        "horizon": horizon,
        "first_window": FIRST_WINDOW,
        "late_window": (LATE_WINDOW[0], min(LATE_WINDOW[1], horizon)),
        "params": {"g1": params.g1, "g2": params.g2,
                   "delta_cap": params.delta_cap,
                   "delta_small": params.delta_small},
    }
    return SweepResult(times, values, tuple(rows), provenance)


@dataclass(frozen=True)
class ResonanceReport:
    """Resonance located three ways: effective root, Stark root, exact scan.

    Either effective-model root may be None when the corresponding
    condition has no sign change on the interval (which genuinely happens —
    strongly coupled systems can show a scan resonance where the
    dispersive effective detuning never crosses zero).
    """

    delta_star_omega: float | None
    delta_star_stark: float | None
    delta_star_scan: float
    scan_peak_value: float
    scan_peak_time: float
    omega_minus_scan: float | None
    shift_from_bare: float
    scan: SweepResult


def resonance_report(kind: SystemKind | str, params: ModelParams,
                     interval: tuple[float, float],
                     scan_step: float = 0.05,
                     horizon: float | None = None) -> ResonanceReport:
    """Locate the two-photon resonance on an interval, three ways.

    The exact location is the argmax of a detuning scan (grid ``scan_step``)
    of the peak two-photon probability; the effective-model root and the
    Stark-shift root are reported alongside when they exist.  The scan
    horizon defaults to the resonance-period-aware value at the interval
    midpoint.
    """
    kind = SystemKind.coerce(kind)
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ConfigurationError(f"interval must satisfy lo < hi, got {interval}")

    delta_star_omega = delta_star_stark = None
    try:
        delta_star_omega, delta_star_stark = resonance_detuning(kind, params,
                                                                (lo, hi))
    except (NoRootInInterval, SingularityError):
        pass

    if horizon is None:
        midpoint = params.replace(delta_small=0.5 * (lo + hi))
        horizon = default_horizon(kind, midpoint)

    spec = SweepSpec(kind=kind, params=params, axis="delta_small",
                     values=tuple(axis_grid(lo, hi, scan_step)), horizon=horizon)
    scan = scan_two_photon(spec)
    best = scan.argmax_row()

    return ResonanceReport(
        delta_star_omega=delta_star_omega,
        delta_star_stark=delta_star_stark,
        delta_star_scan=best["axis"],
        scan_peak_value=best["peak_value"],
        scan_peak_time=best["peak_time"],
        omega_minus_scan=(None if delta_star_omega is None
                          else delta_star_omega - best["axis"]),
        shift_from_bare=best["axis"] - (-params.delta_cap),
        scan=scan)
