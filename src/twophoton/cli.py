"""Command-line interface.

Subcommands
-----------
evolve      coherent two-photon probability series -> CSV
master      damped two-photon population series -> CSV
scan        sweep a detuning (or a damping ladder) -> per-row CSVs + summary
resonance   locate the shifted resonance three ways -> JSON (+ scan summary)
spectrum    coherent-sector eigenvalues and line spacings -> CSV
selfcheck   fast engine cross-validations

Runs are configured by a JSON file (--config) mirroring the library's
parameter names; individual flags override file values.  Numeric inputs
that are not finite numbers are configuration errors.  Output locations
resolve as --out, then $TWOPHOTON_OUTDIR, then the working directory.

Numbers are written with 15 significant digits (``%.15g``, the same bytes
as ``f"{float(x):.15g}"``), so repeat runs are byte-identical.  Files are
formatted a column at a time, series files in blocks of ``BLOCK`` rows:
each writer builds a template with one ``"%s%s"`` cell per number and
fills it in one ``%`` from ``_cells``, which works out each value's
correctly rounded 15-digit significand in NumPy, so C prints integers
rather than running ``%.15g`` per value.  A scan formats its time column
once and reuses it for every row: all rows share one grid.

Exit codes: 0 success, 1 usage error, 2 numerical invariant breach,
3 configuration error (running out of memory counts: the grid is too long).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import integrate
from .basis import enumerate_basis
from .effective import effective_g_omega
from .errors import (ConfigurationError, NumericalInvariantError,
                     TwoPhotonError)
from .experiments import (DEFAULT_HORIZON, PEAK_GRID_STEP, SweepSpec, axis_grid,
                          damping_sweep, default_horizon, engine_version,
                          resonance_report, scan_two_photon, time_grid)
from .lindblad import evolve_population
from .operators import spectrum_lines
from .params import PARAM_FIELDS, ModelParams, SystemKind
from .unitary import evolve_probability

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_CONFIG = 3

OUTDIR_ENV = "TWOPHOTON_OUTDIR"

NUMBER = "%.15g"    # the bytes of f"{x:.15g}": one-liners and _cells' fallback
CELL = "%s%s"       # one CSV number: the two strings _cells gives per value

# _cells' decades: np.searchsorted(_DECADES, v, side="right") is 1..4 for
# k = 18..15.  Each bound is the double just above 10**-j, so comparing
# against it is exact, and each 10**k is an exact double.
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
_PREFIX = np.array(["", "0.000", "0.00", "0.0", "0.", ""], dtype=object)
_SPLIT = 134217729.0    # 2**27 + 1: Veltkamp's splitting constant


def _halves(x):
    """x = high + low with each half 26 bits wide, so products are exact."""
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


# Split in Python floats: NumPy arithmetic at import would add its first-use
# resident memory to every command, whether or not it writes a CSV.
_SCALE, _SCALE_HIGH, _SCALE_LOW = np.array(
    [(p, *_halves(p)) for p in (float(10 ** k) for k in range(19, 13, -1))]).T


def _fmt(x: float) -> str:
    return NUMBER % float(x)


def _cells(values) -> list:
    """The two ``CELL`` strings of each value, in order: ``%.15g`` in two parts.

    For 1e-4 <= v < 1, with k in 15..18 putting v * 10**k in [1e14, 1e15),
    the parts are ``"0."`` plus k - 15 zeros, and the integer m, v * 10**k
    correctly rounded, with its trailing zeros dropped.  m comes from
    Dekker's exact product v * 10**k = hi + lo: rint(hi) is right unless hi
    lies half way between integers, where the sign of lo decides, and an
    exact tie stays half-even as in ``%.15g``.
    Every other value (0, negatives, v >= 1, v < 1e-4, non-finite, and a
    rounding that carries to 10**15) is ``(NUMBER % v, "")``.
    """
    v = np.asarray(values, dtype=float).ravel()
    decade = np.searchsorted(_DECADES, v, side="right")
    fast = (decade >= 1) & (decade <= 4)
    x = np.where(fast, v, 0.5)          # keeps the rest finite and in range
    scale = _SCALE[decade]
    scale_high, scale_low = _SCALE_HIGH[decade], _SCALE_LOW[decade]
    x_high, x_low = _halves(x)
    hi = x * scale
    lo = (((x_high * scale_high - hi) + x_high * scale_low + x_low * scale_high)
          + x_low * scale_low)
    m = np.rint(hi)
    twice = 2.0 * (hi - m)              # +-1 where hi is half way
    m += twice * (twice == np.sign(lo))
    fast &= m < 1e15
    for q in (1e8, 1e4, 1e2, 1e1):      # drop up to 14 trailing zeros
        r = np.rint(m / q)              # exact wherever q divides m
        m = np.where(r * q == m, r, m)
    cells = np.empty((v.size, 2), dtype=object)
    cells[:, 0] = _PREFIX[decade]
    cells[:, 1] = m.astype(np.int64)
    slow = ~fast
    if slow.any():
        cells[slow, 0] = [NUMBER % value for value in v[slow].tolist()]
        cells[slow, 1] = ""
    return cells.ravel().tolist()


def _fill(template: str, values) -> str:
    """Fill the ``CELL`` cells of ``template``, in order, from ``values``.

    This is where every CSV number is formatted: the whole column (or
    table, raveled row by row) goes through ``_cells`` and one ``%`` in C.
    """
    return template % tuple(_cells(values))


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _number(value, what: str, ndim: int = 0):
    """``value`` as a finite float (``ndim`` 0) or 1-D float array (``ndim`` 1).

    Anything else, a JSON ``true``/``false`` included, raises
    ``ConfigurationError`` with a one-line message.
    """
    items = value if isinstance(value, list) else [value]
    try:
        array = (None if any(isinstance(v, bool) for v in items)
                 else np.asarray(value, dtype=float))
    except (TypeError, ValueError):
        array = None
    if array is None or array.ndim != ndim or not np.all(np.isfinite(array)):
        shape = "a finite number" if ndim == 0 else "a list of finite numbers"
        raise ConfigurationError(f"{what} must be {shape}, got {value!r}")
    return float(array) if ndim == 0 else array


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigurationError(
            f"config file {path} cannot be read: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigurationError(f"config file {path} is nested too deeply") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    return cfg


def _resolve_params(args, cfg: dict) -> ModelParams:
    fields = cfg.get("params", {})
    if not isinstance(fields, dict):
        raise ConfigurationError("config key 'params' must be an object")
    fields = dict(fields)
    for key in PARAM_FIELDS:          # flat top-level keys also accepted
        if key in cfg:
            fields[key] = cfg[key]
    for key in PARAM_FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            fields[key] = value
    unknown = set(fields) - set(PARAM_FIELDS)
    if unknown:
        raise ConfigurationError(
            f"unknown parameter keys {sorted(unknown)}; valid keys are {list(PARAM_FIELDS)}")
    return ModelParams(**fields)


def _resolve_kind(args, cfg: dict) -> SystemKind:
    kind = getattr(args, "kind", None) or cfg.get("kind", "bimodal")
    return SystemKind.coerce(kind)


def _resolve_scalar(args, cfg: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is None:
        value = cfg.get(key, default)
    return value


def _resolve_number(args, cfg: dict, key: str, default=None) -> float | None:
    value = _resolve_scalar(args, cfg, key, default)
    return None if value is None else _number(value, key)


def _resolve_outdir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get(OUTDIR_ENV) or "."
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"output directory {path} cannot be created: {exc.strerror}") from None
    return path


def _time_grid(args, horizon: float) -> np.ndarray:
    """``time_grid(horizon)``, its size kept on ``args`` for ``main``'s
    out-of-memory message."""
    grid = time_grid(horizon)
    args.grid_points = grid.size
    return grid


def _resolve_axis_values(args, cfg: dict) -> np.ndarray:
    start = getattr(args, "start", None)
    stop = getattr(args, "stop", None)
    step = getattr(args, "step", None)
    if start is not None or stop is not None or step is not None:
        if None in (start, stop, step):
            raise ConfigurationError("--start/--stop/--step must be given together")
        values = {"start": start, "stop": stop, "step": step}
    else:
        values = cfg.get("values")
    if values is None:
        raise ConfigurationError(
            "scan needs axis values: --start/--stop/--step or config 'values'")
    if isinstance(values, dict):
        try:
            start, stop, step = (_number(values[k], f"values {k}")
                                 for k in ("start", "stop", "step"))
        except KeyError as exc:
            raise ConfigurationError(
                f"values object needs start/stop/step, missing {exc}") from None
        return axis_grid(start, stop, step)
    return _number(values, "values", ndim=1)


def _series_template(times):
    """The body of a ``g1_t,value`` file on ``times``, values left as cells:
    one template per block of ``BLOCK`` rows, each made when asked for.

    Each time is formatted here; the escaped second cell stays for its value.
    """
    row = f"{CELL},{CELL.replace('%', '%%')}\n"
    for start in range(0, len(times), integrate.BLOCK):
        chunk = times[start:start + integrate.BLOCK]
        yield _fill(row * len(chunk), chunk)


def _write_series_csv(path: Path, templates, values) -> None:
    """Write one series, a block at a time; ``templates`` are
    ``_series_template`` of its times.

    The file is opened once its first block is formatted, so a series of
    one block is created and written with one ``write``.
    """
    starts = range(0, len(values), integrate.BLOCK)
    blocks = (_fill(template, values[start:start + integrate.BLOCK])
              for start, template in zip(starts, templates))
    first = next(blocks)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("g1_t,value\n" + first)
        fh.writelines(blocks)


def _write_manifest(outdir: Path, command: str, kind: SystemKind,
                    params: ModelParams, outputs: list[str], **extra) -> None:
    manifest = {
        "command": command,
        "engine": engine_version(),
        "kind": kind.value,
        "params": {k: getattr(params, k) for k in PARAM_FIELDS},
        "grid_step": PEAK_GRID_STEP,
        "outputs": outputs,
    }
    manifest.update(extra)
    _write_text(outdir / "run_manifest.json",
                json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_evolve(args) -> int:
    cfg = _load_config(args.config)
    kind = _resolve_kind(args, cfg)
    params = _resolve_params(args, cfg)
    horizon = _resolve_number(args, cfg, "horizon")
    if horizon is None:
        horizon = default_horizon(kind, params)
    outdir = _resolve_outdir(args)

    grid = _time_grid(args, horizon)
    series = evolve_probability(kind, params, grid)
    out = outdir / "evolve.csv"
    _write_series_csv(out, _series_template(series.times), series.values)
    _write_manifest(outdir, "evolve", kind, params, [out.name],
                    horizon=horizon)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_master(args) -> int:
    cfg = _load_config(args.config)
    kind = _resolve_kind(args, cfg)
    params = _resolve_params(args, cfg)
    horizon = _resolve_number(args, cfg, "horizon", DEFAULT_HORIZON)
    state = _resolve_scalar(args, cfg, "state")
    if state is not None:           # refuse an unknown label before evolving
        enumerate_basis(kind, damped=True).index_of(state)
    outdir = _resolve_outdir(args)

    grid = _time_grid(args, horizon)
    series = evolve_population(kind, params, grid, state)
    out = outdir / "master.csv"
    _write_series_csv(out, _series_template(series.times), series.values)
    _write_manifest(outdir, "master", kind, params, [out.name],
                    horizon=horizon,
                    observable=(f"population:{state}" if state is not None
                                else "two_photon_population"))
    print(f"wrote {out}")
    return EXIT_OK


def _write_summary_csv(path: Path, rows) -> None:
    """One line per row dict, its keys (those of the first row) the header."""
    keys = list(rows[0])
    template = (",".join([CELL] * len(keys)) + "\n") * len(rows)
    _write_text(path, ",".join(keys) + "\n"
                + _fill(template, [[row[k] for k in keys] for row in rows]))


def _cmd_scan(args) -> int:
    cfg = _load_config(args.config)
    kind = _resolve_kind(args, cfg)
    params = _resolve_params(args, cfg)
    axis = _resolve_scalar(args, cfg, "axis", "delta_small")
    horizon = _resolve_number(args, cfg, "horizon", DEFAULT_HORIZON)
    outdir = _resolve_outdir(args)

    _time_grid(args, horizon)
    if axis == "kappa":
        kappas = _resolve_scalar(args, cfg, "kappas")
        if kappas is None:
            kappas = _resolve_axis_values(args, cfg)
        else:
            kappas = _number(kappas.split(",") if isinstance(kappas, str)
                             else kappas, "kappas", ndim=1)
        result = damping_sweep(kind, params, kappas=kappas, horizon=horizon)
        prefix = "master_kappa"
        summary_name = "damping_summary.csv"
    else:
        values = _resolve_axis_values(args, cfg)
        spec = SweepSpec(kind=kind, params=params, axis=axis,
                         values=tuple(values), horizon=horizon)
        result = scan_two_photon(spec)
        prefix = f"scan_{axis}"
        summary_name = "scan_summary.csv"

    outputs = []
    template = list(_series_template(result.times))
    for i, values in enumerate(result.values):
        name = f"{prefix}_row{i:03d}.csv"
        _write_series_csv(outdir / name, template, values)
        outputs.append(name)
    summary = outdir / summary_name
    _write_summary_csv(summary, result.rows)
    outputs.append(summary.name)
    _write_manifest(outdir, "scan", kind, params, outputs,
                    horizon=horizon, axis=axis,
                    provenance=result.provenance)
    best = result.argmax_row()
    print(f"wrote {len(outputs)} files to {outdir}")
    print(f"peak {axis}={_fmt(best['axis'])}: "
          f"max={_fmt(best['peak_value'])} at g1_t={_fmt(best['peak_time'])}")
    return EXIT_OK


def _cmd_resonance(args) -> int:
    cfg = _load_config(args.config)
    kind = _resolve_kind(args, cfg)
    params = _resolve_params(args, cfg)
    interval = getattr(args, "interval", None) or cfg.get("interval")
    if interval is None:
        raise ConfigurationError(
            "resonance needs a search interval: --interval LO HI or config 'interval'")
    bounds = _number(interval, "interval", ndim=1)
    if bounds.shape != (2,):
        raise ConfigurationError(f"interval must be [LO, HI], got {interval!r}")
    lo, hi = bounds.tolist()
    scan_step = _resolve_number(args, cfg, "scan_step", 0.05)
    horizon = _resolve_number(args, cfg, "horizon")
    outdir = _resolve_outdir(args)

    report = resonance_report(kind, params, (lo, hi), scan_step=scan_step,
                              horizon=horizon)
    payload = {
        "kind": kind.value,
        "interval": [lo, hi],
        "delta_star_omega": report.delta_star_omega,
        "delta_star_stark": report.delta_star_stark,
        "delta_star_scan": report.delta_star_scan,
        "scan_peak_value": report.scan_peak_value,
        "scan_peak_time": report.scan_peak_time,
        "omega_minus_scan": report.omega_minus_scan,
        "shift_from_bare": report.shift_from_bare,
        "scan_step": scan_step,
        "horizon": report.scan.provenance["horizon"],
        "engine": engine_version(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    out = outdir / "resonance.json"
    _write_text(out, text + "\n")
    summary = outdir / "resonance_scan_summary.csv"
    _write_summary_csv(summary, report.scan.rows)
    _write_manifest(outdir, "resonance", kind, params,
                    [out.name, summary.name],
                    provenance=report.scan.provenance)
    print(text)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    cfg = _load_config(args.config)
    kind = _resolve_kind(args, cfg)
    params = _resolve_params(args, cfg)
    outdir = _resolve_outdir(args)

    eigenvalues, lines = spectrum_lines(params, kind)
    out = outdir / "spectrum.csv"
    template = "".join(f"{quantity},{i},{CELL}\n"
                       for quantity, column in (("eigenvalue", eigenvalues),
                                                ("line", lines))
                       for i in range(len(column)))
    _write_text(out, "quantity,index,value\n"
                + _fill(template, np.concatenate([eigenvalues, lines])))
    big_g, big_omega = effective_g_omega(kind, params)
    _write_manifest(outdir, "spectrum", kind, params, [out.name],
                    effective_g=big_g, effective_omega=big_omega)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck
    results = run_selfcheck()
    for result in results:
        mark = "ok  " if result.passed else "FAIL"
        print(f"{mark} {result.name}: {result.detail}")
    if all(r.passed for r in results):
        print(f"selfcheck passed ({len(results)} checks)")
        return EXIT_OK
    print("selfcheck FAILED", file=sys.stderr)
    return EXIT_INVARIANT


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, evolves: bool = True) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--kind", choices=[k.value for k in SystemKind])
    sub.add_argument("--out", help=f"output directory (default ${OUTDIR_ENV} or .)")
    for key in PARAM_FIELDS:
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float)
    if evolves:
        sub.add_argument("--horizon", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twophoton",
        description="Two-photon vacuum Rabi dynamics of atom pairs in cavities")
    commands = parser.add_subparsers(dest="command", required=True)

    evolve = commands.add_parser(
        "evolve", help="coherent two-photon probability series to CSV")
    _add_common(evolve)
    evolve.set_defaults(func=_cmd_evolve)

    master = commands.add_parser(
        "master", help="damped two-photon population series to CSV")
    _add_common(master)
    master.add_argument("--state", help="emit this state's population instead")
    master.set_defaults(func=_cmd_master)

    scan = commands.add_parser(
        "scan", help="sweep a detuning axis or a damping ladder")
    _add_common(scan)
    scan.add_argument("--axis", choices=["delta_small", "delta_cap", "kappa"])
    scan.add_argument("--start", type=float)
    scan.add_argument("--stop", type=float)
    scan.add_argument("--step", type=float)
    scan.add_argument("--kappas", help="comma-separated damping ladder")
    scan.set_defaults(func=_cmd_scan)

    resonance = commands.add_parser(
        "resonance", help="locate the shifted two-photon resonance")
    _add_common(resonance)
    resonance.add_argument("--interval", nargs=2, type=float,
                           metavar=("LO", "HI"))
    resonance.add_argument("--scan-step", dest="scan_step", type=float)
    resonance.set_defaults(func=_cmd_resonance)

    spectrum = commands.add_parser(
        "spectrum", help="coherent-sector eigenvalues and line spacings")
    _add_common(spectrum, evolves=False)
    spectrum.set_defaults(func=_cmd_spectrum)

    selfcheck = commands.add_parser(
        "selfcheck", help="fast engine cross-validations")
    selfcheck.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:       # argparse exits 2 on usage errors
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalInvariantError as exc:
        print(f"numerical invariant breached: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except TwoPhotonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        points = getattr(args, "grid_points", None)
        grid = f"a {points}-point time grid" if points else "this run"
        print(f"configuration error: out of memory on {grid}; "
              "use a shorter horizon", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
