import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twophoton
import twophoton.cli as cli
from twophoton import integrate
from twophoton.cli import (EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE,
                           OUTDIR_ENV, main)

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


def test_public_names_resolve():
    names = twophoton.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(twophoton, n)] == []
    namespace = {}
    exec("from twophoton import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


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
    assert "substep" not in manifest


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


# every double in _cells' fast class [1e-4, 1), drawn by bit pattern: full
# 53-bit significands put v * 10**k half way between integers in a few per
# cent of draws, where only the sign of the exact product's error is right
FAST_CLASS = st.integers(int(np.float64(1e-4).view(np.int64)),
                         int(np.float64(1.0).view(np.int64)) - 1).map(
    lambda bits: float(np.int64(bits).view(np.float64)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats() | st.floats(1e-4, 1.0, exclude_max=True)
                       | FAST_CLASS, min_size=1, max_size=40))
# the class edges, and roundings that carry to 1 and to 1e-3
@example(values=[float(np.nextafter(1e-4, 0.0)), float(np.nextafter(1e-4, 1.0)),
                 float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0))])
@example(values=[0.9999999999999995, 0.99999999999999994,
                 0.000099999999999999995, 0.0009999999999999995])
@example(values=[-0.0, 5e-324])
# exact m + 0.5 ties (odd m rounds up, even m stays), then half-way products
# that are not ties
@example(values=[6555 / 65536, 6557 / 65536])
@example(values=[0.7857857007138075, 0.0585680348051944, 0.0007474378049531066])
def test_fill_matches_per_value_formatting(values):
    template = ",".join([cli.CELL] * len(values))
    assert cli._fill(template, values) == ",".join(f"{x:.15g}" for x in values)


def test_scan_rows_match_per_value_formatting(tmp_path, monkeypatch):
    results = []

    def scan(spec):
        results.append(twophoton.scan_two_photon(spec))
        return results[-1]

    monkeypatch.setattr(cli, "scan_two_photon", scan)
    assert main(["scan", "--g2", "1.5", "--delta-cap", "-5",
                 "--start", "3.5", "--stop", "3.6", "--step", "0.05",
                 "--horizon", "5", "--out", str(tmp_path)]) == EXIT_OK
    [result] = results
    assert len(result.rows) == 3
    for i, values in enumerate(result.values):
        text = (tmp_path / f"scan_delta_small_row{i:03d}.csv").read_text()
        assert text == "g1_t,value\n" + per_value(result.times, values)


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
    ("resonance", {"interval": 5}, []),
    ("scan", {}, ["--axis", "kappa", "--kappas", "0,x"]),
    ("scan", {"horizon": True}, []),
    ("scan", {"values": [True, 3.5]}, []),
    ("resonance", {"interval": [3.4, 3.6], "scan_step": False}, []),
], ids=["horizon", "values_start", "values_list", "interval", "kappas",
        "horizon_true", "values_bool", "scan_step_false"])
def test_non_numeric_input_exits_three(tmp_path, capsys, command, cfg, flags):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"g2": 1.5, "delta_cap": -5.0,
                                "delta_small": 3.5, "horizon": 1.0,
                                "values": [3.5], **cfg}))
    assert main([command, "--config", str(path), *flags,
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert " must be a " in err         # refused as a number, not downstream
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


def test_malformed_config_file(tmp_path, capsys):
    # not JSON, not UTF-8 (a UTF-16 byte-order mark), nested past Python's
    # recursion limit, and a directory
    text, utf16, deep = (tmp_path / name for name in ("run.json", "utf16.json",
                                                      "deep.json"))
    text.write_text("not json{")
    utf16.write_bytes(b"\xff\xfe{}")
    deep.write_text("[" * 100000 + "]" * 100000)
    for cfg in (text, utf16, deep, tmp_path):
        assert main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1


def test_out_that_cannot_be_a_directory_exits_three(tmp_path, capsys):
    # --out naming an existing file, or a path under one
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in (afile, afile / "sub"):
        assert main(["evolve", "--horizon", "1", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
    assert afile.read_text() == ""


def test_usage_errors_exit_one():
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["evolve", "--kind", "trimodal"]) == EXIT_USAGE


def test_substep_flag_exits_one_writing_nothing(tmp_path):
    # the integrator cuts each interval by the generator's norm; there is
    # no --substep to set
    out = tmp_path / "out"
    assert main(["evolve", "--substep", "0.1", "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_config_substep_key_is_ignored(tmp_path):
    # like "description", a leftover "substep" key changes nothing
    runs = []
    for extra in ({}, {"substep": 0.5}):
        path = tmp_path / f"run{len(runs)}.json"
        path.write_text(json.dumps({"g2": 1.5, "delta_cap": -5.0,
                                    "horizon": 1.0, **extra}))
        out = tmp_path / f"out{len(runs)}"
        assert main(["evolve", "--config", str(path),
                     "--out", str(out)]) == EXIT_OK
        runs.append([(out / name).read_bytes()
                     for name in ("evolve.csv", "run_manifest.json")])
    assert runs[0] == runs[1]


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


@pytest.mark.parametrize("cfg, flags", [
    ({"state": 0}, []),
    ({"state": False}, []),
    ({"state": ""}, []),
    ({}, ["--state", ""]),
], ids=["zero", "false", "empty", "empty_flag"])
def test_master_falsy_state_exits_three(tmp_path, capsys, cfg, flags):
    # a falsy state is still a state: it must name a basis label, not fall
    # back to the two-photon population
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"kind": "single_mode", "g2": 2.0,
                                "delta_cap": -5.0, "delta_small": 2.75,
                                "kappa_a": 0.03, "horizon": 0.1, **cfg}))
    assert main(["master", "--config", str(path), *flags,
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1
    assert not (tmp_path / "out" / "master.csv").exists()


def test_master_unknown_state_exits_three_before_evolving(tmp_path, capsys,
                                                         monkeypatch):
    def no_evolution(*args, **kwargs):
        raise AssertionError("evolved before checking the state label")

    monkeypatch.setattr(cli, "evolve_population", no_evolution)
    assert main(["master", "--kappa-a", "0.1", "--state", "nope",
                 "--horizon", "600", "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1
    assert not (tmp_path / "master.csv").exists()


def test_out_of_memory_exits_three_naming_the_grid(tmp_path, capsys,
                                                   monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "evolve_population", exhausted)
    assert main(["master", "--kappa-a", "0.1", "--horizon", "600",
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1
    assert "60001-point time grid" in err and "shorter horizon" in err
    assert not (tmp_path / "master.csv").exists()


def test_invariant_breach_exits_two(tmp_path, capsys, monkeypatch):
    # every interval propagator is exact to rounding, so no valid input
    # breaches an invariant: inject one that does not preserve the trace
    exact = integrate._interval_propagator
    monkeypatch.setattr(integrate, "_interval_propagator",
                        lambda *args: 1.01 * exact(*args))
    assert main(["master", "--g2", "1.5", "--delta-cap", "-5",
                 "--delta-small", "3.55", "--kappa-a", "0.1",
                 "--horizon", "10", "--out", str(tmp_path)]) == EXIT_INVARIANT
    assert capsys.readouterr().err.count("\n") == 1


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


def test_empty_damping_ladder_exits_three_writing_nothing(tmp_path, capsys):
    config = tmp_path / "ladder.json"
    config.write_text(json.dumps({"axis": "kappa", "kappas": [],
                                  "delta_small": 3.5, "horizon": 30}))
    out = tmp_path / "out"
    assert main(["scan", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == (
        "configuration error: damping sweep needs at least one kappa")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["evolve", "--horizon", "5"],
    ["scan", "--start", "3.5", "--stop", "3.6", "--step", "0.05", "--horizon", "5"],
    ["resonance", "--interval", "3.4", "3.6", "--horizon", "5"],
], ids=["evolve", "scan", "resonance"])
def test_coherent_commands_refuse_damping(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--g2", "1.5", "--delta-cap", "-5", "--delta-small", "3.55",
                        "--kappa-a", "0.2", "--kappa-b", "0.2",
                        "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("configuration error: the coherent engine has no damping")
    assert "master" in err and "scan --axis kappa" in err
    assert list(out.iterdir()) == []


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


@pytest.mark.parametrize("argv,blocks", [
    (["master", "--kappa-a", "0.1", "--kappa-b", "0.05", "--horizon", "0.2"],
     (2, 4, 8)),
    (["scan", "--kind", "single_mode", "--axis", "kappa", "--kappas", "0,0.1",
      "--horizon", "25.2"], (8,)),
], ids=["master", "scan_kappa"])
def test_blocked_csv_bytes_equal_one_block(tmp_path, monkeypatch, argv, blocks):
    # every file a run writes has the same bytes whatever BLOCK is: the
    # engine's blocks and the writer's blocks of rows; the grids end in a
    # one-row block
    written = []
    for block in (1 << 30, *blocks):
        monkeypatch.setattr(integrate, "BLOCK", block)
        out = tmp_path / str(block)
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(written[0]) > 1
    for files in written[1:]:
        assert files == written[0]
