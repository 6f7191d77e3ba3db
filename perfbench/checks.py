"""Correctness checks for every benchmark operation.

The references do not use the engine's stepper:

* coherent scans are compared with ``expm_series`` (eigendecomposition of
  the Hermitian H);
* the resonance study is compared with an exact-reference scan on the same
  detuning grid, and the effective-model root must be a sign change of
  Omega;
* damped populations of the two-photon state are compared with the
  no-jump amplitude reference: ``numpy.linalg.eig`` of
  H - i sum_m kappa_m a_m^+ a_m on the coherent sector.  Photon loss only
  lowers the excitation number, so the two-photon state's population is
  exactly the squared no-jump amplitude.

Each check returns a list of failure messages; an empty list means the
operation is correct.  Missing or unexpected files are failures, so the
checks cannot pass on an empty output directory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from twophoton.basis import enumerate_basis
from twophoton.effective import effective_g_omega
from twophoton.operators import build_hamiltonian
from twophoton.params import ModelParams
from twophoton.unitary import expm_series

TOLERANCE = 1e-8          # the engine tests' tolerance against exact references
GRID_STEP = 0.01          # the engine's fixed output grid step
ROOT_PROBE = 1e-8         # Omega must change sign across delta_star +- this


def _grid(horizon: float) -> np.ndarray:
    n = int(round(horizon / GRID_STEP))
    return np.linspace(0.0, n * GRID_STEP, n + 1)


def _axis(start: float, stop: float, step: float) -> np.ndarray:
    n = int(round((stop - start) / step))
    return start + step * np.arange(n + 1)


def _params(config: dict, **changes):
    return ModelParams(**{**config["params"], **changes})


def _coherent_probability(kind: str, params, grid: np.ndarray) -> np.ndarray:
    series = expm_series(kind, params, grid)
    return np.abs(series.values[:, series.basis.two_photon_index]) ** 2


def _no_jump_population(kind: str, params, kappa: float,
                        grid: np.ndarray) -> np.ndarray:
    basis = enumerate_basis(kind, damped=False)
    photons_a = np.array([s.n_a for s in basis.states], dtype=float)
    if kind == "bimodal":
        photons_b = np.array([s.n_b for s in basis.states], dtype=float)
        loss = kappa * (photons_a + photons_b)
    else:
        loss = kappa * photons_a
    h = build_hamiltonian(kind, params, damped=False) - 1j * np.diag(loss)
    energies, vectors = np.linalg.eig(h)
    c0 = np.zeros(basis.dim, dtype=complex)
    c0[basis.initial_index] = 1.0
    weights = np.linalg.solve(vectors, c0)
    target = vectors[basis.two_photon_index] * weights
    amplitude = np.exp(-1j * np.outer(grid, energies)) @ target
    return np.abs(amplitude) ** 2


@dataclass
class StudyReference:
    """What one CLI call must write, computed once per benchmark run."""

    study: str
    command: str
    config: dict
    series: list[np.ndarray]       # expected two-photon series, one per row
    grid: np.ndarray
    axis: np.ndarray
    summary: str
    row_files: tuple[str, ...] = ()
    extra_files: tuple[str, ...] = ()

    @property
    def files(self) -> set[str]:
        return {*self.row_files, *self.extra_files, self.summary,
                "run_manifest.json"}

    @property
    def peaks(self) -> np.ndarray:
        return np.array([values.max() for values in self.series])


def reference(study: str, command: str, config: dict) -> StudyReference:
    """Independent expected outputs of one CLI call."""
    kind = config["kind"]
    grid = _grid(config["horizon"])
    if command == "resonance":
        lo, hi = config["interval"]
        axis = _axis(lo, hi, config["scan_step"])
        series = [_coherent_probability(kind, _params(config, delta_small=v), grid)
                  for v in axis]
        return StudyReference(study, command, config, series, grid, axis,
                              summary="resonance_scan_summary.csv",
                              extra_files=("resonance.json",))
    if config["axis"] == "kappa":
        axis = np.asarray(config["kappas"], dtype=float)
        series = [_no_jump_population(kind, _params(config), float(k), grid)
                  for k in axis]
        prefix = "master_kappa"
        summary = "damping_summary.csv"
    else:
        values = config["values"]
        axis = _axis(values["start"], values["stop"], values["step"])
        name = config["axis"]
        series = [_coherent_probability(kind, _params(config, **{name: v}), grid)
                  for v in axis]
        prefix = f"scan_{name}"
        summary = "scan_summary.csv"
    row_files = tuple(f"{prefix}_row{i:03d}.csv" for i in range(len(axis)))
    return StudyReference(study, command, config, series, grid, axis,
                          summary=summary, row_files=row_files)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def _close(actual, expected, what: str, failures: list[str]) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        failures.append(f"{what}: shape {actual.shape}, expected {expected.shape}")
        return
    err = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    if not err <= TOLERANCE:
        failures.append(f"{what}: off by {err:.3g} (> {TOLERANCE:g})")


def _check_summary(ref: StudyReference, outdir: Path,
                   failures: list[str]) -> None:
    header, data = _read_csv(outdir / ref.summary)
    if header[:3] != ["axis", "peak_value", "peak_time"]:
        failures.append(f"{ref.summary}: header {header}")
        return
    _close(data[:, 0], ref.axis, f"{ref.summary} axis", failures)
    _close(data[:, 1], ref.peaks, f"{ref.summary} peak_value", failures)


def _check_rows(ref: StudyReference, outdir: Path, failures: list[str]) -> None:
    for name, expected in zip(ref.row_files, ref.series):
        header, data = _read_csv(outdir / name)
        if header != ["g1_t", "value"] or data.shape != (ref.grid.size, 2):
            failures.append(f"{name}: header {header}, shape {data.shape}")
            continue
        _close(data[:, 0], ref.grid, f"{name} times", failures)
        _close(data[:, 1], expected, f"{name} values", failures)


def _check_resonance(ref: StudyReference, outdir: Path,
                     failures: list[str]) -> None:
    report = json.loads((outdir / "resonance.json").read_text(encoding="utf-8"))
    peaks = ref.peaks
    best = int(np.argmax(peaks))
    at = np.flatnonzero(np.abs(ref.axis - report["delta_star_scan"]) <= TOLERANCE)
    if at.size != 1:
        failures.append(f"delta_star_scan {report['delta_star_scan']} "
                        "is not a point of the scan grid")
    elif peaks[at[0]] < peaks[best] - TOLERANCE:
        failures.append(f"delta_star_scan {report['delta_star_scan']} is not "
                        f"the reference peak {ref.axis[best]}")
    _close(report["scan_peak_value"], peaks[best], "scan_peak_value", failures)
    root = report["delta_star_omega"]
    if root is None:
        failures.append("no effective-model root reported")
    else:
        kind = ref.config["kind"]
        below = effective_g_omega(kind, _params(ref.config,
                                                delta_small=root - ROOT_PROBE))[1]
        above = effective_g_omega(kind, _params(ref.config,
                                                delta_small=root + ROOT_PROBE))[1]
        if below * above > 0:
            failures.append(f"Omega keeps its sign across delta_star_omega "
                            f"{root} +- {ROOT_PROBE:g}")
    _check_summary(ref, outdir, failures)


def check_study(ref: StudyReference, outdir: Path) -> list[str]:
    """Failures of one CLI call's output directory against its reference."""
    present = {p.name for p in outdir.iterdir()} if outdir.is_dir() else set()
    missing = ref.files - present
    if missing or present - ref.files:
        return [f"{ref.study}: missing {sorted(missing)}, "
                f"unexpected {sorted(present - ref.files)}"]
    failures: list[str] = []
    try:
        manifest = json.loads(
            (outdir / "run_manifest.json").read_text(encoding="utf-8"))
        if set(manifest["outputs"]) != ref.files - {"run_manifest.json"}:
            failures.append(f"manifest outputs {manifest['outputs']}")
        if ref.command == "resonance":
            _check_resonance(ref, outdir, failures)
        else:
            _check_rows(ref, outdir, failures)
            _check_summary(ref, outdir, failures)
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        failures.append(f"unreadable output ({exc!r})")
    return [f"{ref.study}: {f}" for f in failures]


def digests(opdir: Path) -> dict[str, str]:
    """SHA-256 of every file under an operation's output directory."""
    return {str(p.relative_to(opdir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(opdir.rglob("*")) if p.is_file()}


def compare_digests(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """Files that a repeat of the same operation did not write byte-identically."""
    differ = sorted(k for k in first.keys() | again.keys()
                    if first.get(k) != again.get(k))
    return [f"not byte-identical to the first operation: {differ}"] if differ else []
