import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twophoton
import twophoton.cli as cli
from twophoton.cli import (EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE,
                           OUTDIR_ENV, main)
from twophoton.unitary import TimeSeries

EVOLVE_ARGS = ["evolve", "--g2", "1.5", "--delta-cap", "-5",
               "--delta-small", "3.55", "--horizon", "5"]


def read_series(path):
    header = path.read_text().splitlines()[0]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return header, data


def test_cli_import_does_not_load_scipy():
    src = str(Path(twophoton.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, twophoton.cli; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_import_does_not_load_version_metadata():
    # __version__ is looked up on first use, so the import skips
    # importlib.metadata; the lookup then gives the manifests' engine value
    src = str(Path(twophoton.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, twophoton, twophoton.cli; "
            "assert 'importlib.metadata' not in sys.modules; "
            "assert twophoton.__version__ == twophoton.experiments.engine_version()")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_writes_csv_and_manifest(tmp_path):
    assert main(EVOLVE_ARGS + ["--out", str(tmp_path)]) == EXIT_OK
    header, data = read_series(tmp_path / "evolve.csv")
    assert header == "g1_t,value"
    assert data.shape == (501, 2)
    assert data[0, 0] == 0.0 and data[0, 1] == 0.0
    assert np.all((data[:, 1] >= 0.0) & (data[:, 1] <= 1.0))

    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["command"] == "evolve"
    assert manifest["kind"] == "bimodal"
    assert manifest["params"]["g2"] == 1.5
    assert manifest["params"]["delta_small"] == 3.55
    assert manifest["outputs"] == ["evolve.csv"]
    assert manifest["horizon"] == 5.0


def per_value(*columns):
    """Rows formatted one value at a time: the byte contract of every CSV."""
    return "".join(",".join(f"{float(x):.15g}" for x in row) + "\n"
                   for row in zip(*columns))


EDGE_VALUES = [-0.0, 5e-324, 1e-16, 0.1 + 0.2, 1e16, 12345678901234567.0,
               42.0, 0.999999999999999, 0.9999999999999999, 1 / 3,
               float("nan"), float("-inf")]


def test_csv_writers_match_per_value_formatting(tmp_path):
    times = 0.01 * np.arange(len(EDGE_VALUES))
    values = np.array(EDGE_VALUES)
    path = tmp_path / "series.csv"
    cli._write_series_csv(path, cli._series_template(times), values)
    assert path.read_text() == "g1_t,value\n" + per_value(times, values)

    rows = [{"axis": a, "peak_value": b, "peak_time": c}
            for a, b, c in zip(values, values[::-1], times)]
    path = tmp_path / "summary.csv"
    cli._write_summary_csv(path, rows)
    assert path.read_text() == ("axis,peak_value,peak_time\n"
                                + per_value(values, values[::-1], times))


@pytest.mark.parametrize("grids", ["shared", "distinct"])
def test_scan_rows_match_per_value_formatting(tmp_path, monkeypatch, grids):
    results = []

    def scan(spec, substep=None):
        result = twophoton.scan_two_photon(spec, substep=substep)
        if grids == "distinct":     # row 1 ends early; row 2 is back on the grid
            row = result.rows[1]
            short = TimeSeries(row.series.times[:-7], row.series.values[:-7])
            rows = list(result.rows)
            rows[1] = dataclasses.replace(row, series=short)
            result = dataclasses.replace(result, rows=tuple(rows))
        results.append(result)
        return result

    monkeypatch.setattr(cli, "scan_two_photon", scan)
    assert main(["scan", "--g2", "1.5", "--delta-cap", "-5",
                 "--start", "3.5", "--stop", "3.6", "--step", "0.05",
                 "--horizon", "5", "--out", str(tmp_path)]) == EXIT_OK
    [result] = results
    assert len(result.rows) == 3
    for i, row in enumerate(result.rows):
        text = (tmp_path / f"scan_delta_small_row{i:03d}.csv").read_text()
        assert text == "g1_t,value\n" + per_value(row.series.times,
                                                   row.series.values)


def test_repeat_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(EVOLVE_ARGS + ["--out", str(a)]) == EXIT_OK
    assert main(EVOLVE_ARGS + ["--out", str(b)]) == EXIT_OK
    assert (a / "evolve.csv").read_bytes() == (b / "evolve.csv").read_bytes()


def test_outdir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "envdir"))
    assert main(EVOLVE_ARGS) == EXIT_OK
    assert (tmp_path / "envdir" / "evolve.csv").exists()


def test_outdir_defaults_to_cwd(tmp_path, monkeypatch):
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(EVOLVE_ARGS) == EXIT_OK
    assert (tmp_path / "evolve.csv").exists()


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "kind": "bimodal",
        "params": {"g2": 9.0, "delta_small": 3.0},
        "g2": 1.5,                      # flat keys override the params object
        "delta_cap": -5.0,
        "horizon": 5,
    }))
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--delta-small", "3.55",
                 "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["params"]["g2"] == 1.5
    assert manifest["params"]["delta_small"] == 3.55   # flag beat the file
    assert manifest["horizon"] == 5.0


@pytest.mark.parametrize("params", [{"g3": 1.0}, [1, 2]],
                         ids=["unknown_key", "not_an_object"])
def test_unknown_param_key_rejected(tmp_path, params):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"params": params, "horizon": 5}))
    assert main(["evolve", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("command, cfg, flags", [
    ("scan", {"horizon": "abc"}, []),
    ("scan", {"values": {"start": "a", "stop": 3.6, "step": 0.05}}, []),
    ("scan", {"values": [1, "x"]}, []),
    ("scan", {"substep": "x"}, []),
    ("resonance", {"interval": 5}, []),
    ("scan", {}, ["--axis", "kappa", "--kappas", "0,x"]),
], ids=["horizon", "values_start", "values_list", "substep", "interval",
        "kappas"])
def test_non_numeric_input_exits_three(tmp_path, capsys, command, cfg, flags):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"g2": 1.5, "delta_cap": -5.0,
                                "delta_small": 3.5, "horizon": 1.0,
                                "values": [3.5], **cfg}))
    assert main([command, "--config", str(path), *flags,
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, params", [
    ("spectrum", {"g1": 1e308, "g2": 1e308}),
    ("master", {"delta_cap": 1e308, "delta_small": 1e308}),
    ("evolve", {"g1": 1e200, "g2": 1e200}),
    ("master", {"g1": 1e200, "g2": 1e200}),
])
def test_overflowing_params_exit_three(tmp_path, capsys, command, params):
    # finite parameters whose Hamiltonian entries overflow to inf, or whose
    # finite Hamiltonian overflows the interval propagator; the horizon is
    # the default one, which must not turn into a NaN of its own
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"params": params}))
    assert main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1
    assert "nan" not in err


def test_scan_axis_point_budget(tmp_path, capsys, monkeypatch):
    # both scan axes are refused before np.arange allocates 10^18 points
    def no_allocation(*args, **kwargs):
        raise AssertionError("axis allocated before checking its budget")

    monkeypatch.setattr(np, "arange", no_allocation)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"g2": 1.5, "delta_cap": -5.0, "horizon": 1.0,
                                "values": {"start": 0, "stop": 1e9,
                                           "step": 1e-9}}))
    assert main(["scan", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert main(["resonance", "--g2", "1.5", "--delta-cap", "-5",
                 "--interval", "2.5", "4.5", "--scan-step", "1e-18",
                 "--horizon", "1", "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("grid points") == 2


def test_missing_config_file(tmp_path):
    assert main(["evolve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_malformed_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("not json{")
    assert main(["evolve", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_usage_errors_exit_one():
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["evolve", "--kind", "trimodal"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# master
# ---------------------------------------------------------------------------

def test_master_two_photon_population(tmp_path):
    assert main(["master", "--kind", "single_mode", "--g2", "2",
                 "--delta-cap", "-5", "--delta-small", "2.75",
                 "--kappa-a", "0.03", "--horizon", "5",
                 "--out", str(tmp_path)]) == EXIT_OK
    header, data = read_series(tmp_path / "master.csv")
    assert header == "g1_t,value"
    assert data[0, 1] == 0.0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["observable"] == "two_photon_population"


def test_master_named_state(tmp_path):
    assert main(["master", "--kind", "single_mode", "--g2", "2",
                 "--delta-cap", "-5", "--delta-small", "2.75",
                 "--kappa-a", "0.03", "--horizon", "5", "--state", "ee,0",
                 "--out", str(tmp_path)]) == EXIT_OK
    _, data = read_series(tmp_path / "master.csv")
    assert data[0, 1] == 1.0           # starts fully in the named state
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["observable"] == "population:ee,0"


def test_invariant_breach_exits_two(tmp_path):
    assert main(["master", "--g2", "1.5", "--delta-cap", "-5",
                 "--delta-small", "3.55", "--kappa-a", "0.1",
                 "--horizon", "10", "--substep", "5.0",
                 "--out", str(tmp_path)]) == EXIT_INVARIANT


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_detuning_axis(tmp_path, capsys):
    assert main(["scan", "--g2", "1.5", "--delta-cap", "-5",
                 "--start", "3.5", "--stop", "3.6", "--step", "0.05",
                 "--horizon", "5", "--out", str(tmp_path)]) == EXIT_OK
    for i in range(3):
        assert (tmp_path / f"scan_delta_small_row{i:03d}.csv").exists()
    summary = (tmp_path / "scan_summary.csv").read_text().splitlines()
    assert summary[0] == "axis,peak_value,peak_time"
    assert len(summary) == 4
    assert "peak delta_small=" in capsys.readouterr().out


def test_scan_requires_axis_values(tmp_path):
    assert main(["scan", "--g2", "1.5", "--delta-cap", "-5", "--horizon", "5",
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["scan", "--g2", "1.5", "--delta-cap", "-5", "--horizon", "5",
                 "--start", "3.5", "--out", str(tmp_path)]) == EXIT_CONFIG


def test_scan_damping_ladder(tmp_path):
    assert main(["scan", "--kind", "single_mode", "--g2", "2",
                 "--delta-cap", "-5", "--delta-small", "2.75",
                 "--axis", "kappa", "--kappas", "0,0.1",
                 "--horizon", "30", "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "master_kappa_row000.csv").exists()
    assert (tmp_path / "master_kappa_row001.csv").exists()
    summary = (tmp_path / "damping_summary.csv").read_text().splitlines()
    assert summary[0] == ("axis,peak_value,peak_time,first_window_peak,"
                          "late_window_peak,late_to_first_ratio")
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert len(manifest["outputs"]) == 3


# ---------------------------------------------------------------------------
# resonance, spectrum, selfcheck
# ---------------------------------------------------------------------------

def test_resonance_report_json(tmp_path, capsys):
    assert main(["resonance", "--g2", "1.5", "--delta-cap", "-5",
                 "--interval", "2.5", "4.5", "--horizon", "25",
                 "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "resonance.json").read_text())
    assert payload["delta_star_omega"] is None
    assert payload["delta_star_scan"] == pytest.approx(3.55, abs=1e-9)
    assert payload["scan_peak_value"] == pytest.approx(0.904244, abs=1e-4)
    assert (tmp_path / "resonance_scan_summary.csv").exists()
    printed = json.loads(capsys.readouterr().out)
    assert printed == payload


def test_resonance_requires_interval(tmp_path):
    assert main(["resonance", "--g2", "1.5", "--delta-cap", "-5",
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_spectrum_csv(tmp_path):
    assert main(["spectrum", "--g2", "1.5", "--delta-cap", "-5",
                 "--delta-small", "3.5", "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "quantity,index,value"
    assert sum(1 for l in lines if l.startswith("eigenvalue,")) == 6
    assert sum(1 for l in lines if l.startswith("line,")) == 15
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert isinstance(manifest["effective_g"], float)
    assert isinstance(manifest["effective_omega"], float)


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "selfcheck passed" in out
    assert "FAIL" not in out
