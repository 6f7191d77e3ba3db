"""Reference experiments: detuning scans, envelope checks, damping studies.

These drive the low-level engines over parameter grids and reduce each run
to its headline numbers (peak two-photon probability, peak time, decay
ratios).  Sweep rows are pure and independent of one another — they can be
executed in any order or in parallel; the implementation simply loops.

Peak detection is the raw grid maximum on a fixed output grid with step
0.01/g1; no interpolation, so results are deterministic and insensitive to
optimizer quirks.  All headline values carry enough provenance (integrator
substep, grid step, engine version) to be reproduced exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .effective import closed_form_probability, effective_g_omega, resonance_detuning
from .errors import ConfigurationError, NoRootInInterval, SingularityError
from .integrate import default_substep
from .lindblad import evolve_density, two_photon_population
from .params import ModelParams, SystemKind
from .unitary import TimeSeries, evolve_amplitudes, two_photon_probability

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
    """Uniform output grid [0, horizon] with the standard peak-detection step.

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
    """Axis start, start + step, ... to stop: at most ``MAX_GRID_POINTS``,
    checked before anything is allocated."""
    if not (step > 0 and stop > start):
        raise ConfigurationError("axis range needs step > 0 and stop > start")
    n = (stop - start) / step
    if not n + 1 <= MAX_GRID_POINTS:
        raise ConfigurationError(
            f"axis range {start}..{stop} at step {step} must give at most "
            f"{MAX_GRID_POINTS} grid points")
    return start + step * np.arange(int(round(n)) + 1)


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


def _peak(series: TimeSeries) -> tuple[float, float]:
    i = int(np.argmax(series.values))
    return float(series.values[i]), float(series.times[i])


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
class SweepRow:
    """One sweep point: the observable series and its headline numbers."""

    axis_value: float
    series: TimeSeries
    peak_value: float
    peak_time: float
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec | None
    rows: tuple[SweepRow, ...]
    provenance: dict

    def argmax_row(self) -> SweepRow:
        """The row with the largest peak value (raw grid comparison)."""
        return max(self.rows, key=lambda r: r.peak_value)


def scan_two_photon(spec: SweepSpec, substep: float | None = None) -> SweepResult:
    """Coherent-sector sweep of the two-photon probability along one axis."""
    grid = time_grid(spec.horizon)
    rows = []
    used_substep = None
    for value in spec.values:
        params = spec.params.replace(**{spec.axis: value})
        h = substep if substep is not None else default_substep(
            params.delta_cap, params.delta_small, params.g1, params.g2)
        used_substep = h if used_substep is None else min(used_substep, h)
        series = two_photon_probability(
            evolve_amplitudes(spec.kind, params, grid, substep=h))
        peak_value, peak_time = _peak(series)
        rows.append(SweepRow(axis_value=value, series=series,
                             peak_value=peak_value, peak_time=peak_time))
    provenance = {
        "engine": engine_version(),
        "axis": spec.axis,
        "observable": "two_photon",
        "grid_step": PEAK_GRID_STEP,
        "horizon": spec.horizon,
        "substep": used_substep,
    }
    return SweepResult(spec=spec, rows=tuple(rows), provenance=provenance)


@dataclass(frozen=True)
class EnvelopeComparison:
    """Exact dynamics against the dispersive two-level envelope."""

    times: np.ndarray
    exact: np.ndarray
    envelope: np.ndarray
    peak_exact: float
    peak_time_exact: float
    peak_envelope: float
    peak_time_envelope: float
    peak_relative_error: float
    dispersive: bool


def envelope_compare(kind: SystemKind | str, params: ModelParams,
                     horizon: float | None = None,
                     substep: float | None = None) -> EnvelopeComparison:
    """Compare exact two-photon dynamics with the closed-form envelope.

    Advisory: the envelope is a dispersive approximation, trusted when
    both detunings exceed five times the larger coupling; outside that a
    warning is issued and the record is flagged.
    """
    kind = SystemKind.coerce(kind)
    if horizon is None:
        horizon = default_horizon(kind, params)
    dispersive = min(abs(params.delta_cap), abs(params.delta_small)) \
        >= 5.0 * max(params.g1, params.g2)
    if not dispersive:
        warnings.warn(
            "detunings are within 5x the couplings; the two-level envelope "
            "is used outside its dispersive validity domain",
            UserWarning, stacklevel=2)
    grid = time_grid(horizon)
    series = two_photon_probability(
        evolve_amplitudes(kind, params, grid, substep=substep))
    envelope = closed_form_probability(kind, params, grid)
    peak_exact, t_exact = _peak(series)
    i = int(np.argmax(envelope))
    peak_env, t_env = float(envelope[i]), float(grid[i])
    rel = abs(peak_env - peak_exact) / peak_exact if peak_exact > 0 else np.inf
    return EnvelopeComparison(
        times=grid, exact=np.asarray(series.values), envelope=envelope,
        peak_exact=peak_exact, peak_time_exact=t_exact,
        peak_envelope=peak_env, peak_time_envelope=t_env,
        peak_relative_error=float(rel), dispersive=dispersive)


def _default_damping_params(kind: SystemKind) -> ModelParams:
    if kind is SystemKind.BIMODAL:
        return ModelParams(g1=1.0, g2=1.5, delta_cap=-5.0, delta_small=3.5)
    # single-mode study: strong-coupling resonance of the g2/g1 = 2 system
    return ModelParams(g1=1.0, g2=2.0, delta_cap=-5.0, delta_small=2.75)


def damping_sweep(kind: SystemKind | str = SystemKind.BIMODAL,
                  params: ModelParams | None = None,
                  kappas=(0.0, 0.03, 0.1),
                  horizon: float = LATE_WINDOW[1],
                  substep: float | None = None) -> SweepResult:
    """Two-photon population under increasing cavity damping.

    For each kappa both modes are damped equally (the single-mode system
    damps its one mode).  Each row records the population series, the peak
    inside the first window [0, 25], the peak in the late window
    [25, horizon], and their ratio — the survival measure of the resonant
    oscillations.
    """
    kind = SystemKind.coerce(kind)
    if params is None:
        params = _default_damping_params(kind)
    kappas = tuple(float(k) for k in np.atleast_1d(np.asarray(kappas, dtype=float)))
    if any(k < 0 for k in kappas):
        raise ConfigurationError("damping constants must be non-negative")
    if horizon <= FIRST_WINDOW[1]:
        raise ConfigurationError(
            f"horizon must exceed the first window end {FIRST_WINDOW[1]} "
            "so a late window exists")

    grid = time_grid(horizon)
    first_mask = grid <= FIRST_WINDOW[1]
    late_mask = (grid >= LATE_WINDOW[0]) & (grid <= min(LATE_WINDOW[1], horizon))

    rows = []
    used_substep = substep if substep is not None else default_substep(
        params.delta_cap, params.delta_small, params.g1, params.g2)
    for kappa in kappas:
        if kind is SystemKind.BIMODAL:
            run = params.replace(kappa_a=kappa, kappa_b=kappa)
        else:
            run = params.replace(kappa_a=kappa, kappa_b=0.0)
        states = evolve_density(kind, run, grid, substep=used_substep)
        series = two_photon_population(states)
        peak_value, peak_time = _peak(series)
        first_peak = float(np.max(series.values[first_mask]))
        late_peak = float(np.max(series.values[late_mask]))
        ratio = late_peak / first_peak if first_peak > 0 else np.nan
        rows.append(SweepRow(
            axis_value=kappa, series=series,
            peak_value=peak_value, peak_time=peak_time,
            extras={"first_window_peak": first_peak,
                    "late_window_peak": late_peak,
                    "late_to_first_ratio": ratio}))
    provenance = {
        "engine": engine_version(),
        "axis": "kappa",
        "observable": "two_photon_population",
        "grid_step": PEAK_GRID_STEP,
        "horizon": horizon,
        "substep": used_substep,
        "first_window": FIRST_WINDOW,
        "late_window": (LATE_WINDOW[0], min(LATE_WINDOW[1], horizon)),
        "params": {"g1": params.g1, "g2": params.g2,
                   "delta_cap": params.delta_cap,
                   "delta_small": params.delta_small},
    }
    return SweepResult(spec=None, rows=tuple(rows), provenance=provenance)


@dataclass(frozen=True)
class ResonanceReport:
    """Resonance located three ways: effective root, Stark root, exact scan.

    Either effective-model root may be None when the corresponding
    condition has no sign change on the interval (which genuinely happens —
    strongly coupled systems can show a scan resonance where the
    dispersive effective detuning never crosses zero).
    """

    kind: SystemKind
    interval: tuple[float, float]
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
                     horizon: float | None = None,
                     substep: float | None = None) -> ResonanceReport:
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

    delta_star_omega = None
    delta_star_stark = None
    try:
        located = resonance_detuning(kind, params, (lo, hi))
        delta_star_omega = located.delta_star
        delta_star_stark = located.delta_star_stark
    except (NoRootInInterval, SingularityError):
        pass

    if horizon is None:
        midpoint = params.replace(delta_small=0.5 * (lo + hi))
        horizon = default_horizon(kind, midpoint)

    spec = SweepSpec(kind=kind, params=params, axis="delta_small",
                     values=tuple(axis_grid(lo, hi, scan_step)), horizon=horizon)
    scan = scan_two_photon(spec, substep=substep)
    best = scan.argmax_row()

    return ResonanceReport(
        kind=kind, interval=(lo, hi),
        delta_star_omega=delta_star_omega,
        delta_star_stark=delta_star_stark,
        delta_star_scan=best.axis_value,
        scan_peak_value=best.peak_value,
        scan_peak_time=best.peak_time,
        omega_minus_scan=(None if delta_star_omega is None
                          else delta_star_omega - best.axis_value),
        shift_from_bare=best.axis_value - (-params.delta_cap),
        scan=scan)
