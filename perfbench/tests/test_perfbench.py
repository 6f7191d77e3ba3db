"""Tests of the benchmark itself: its checks catch bad output, and its count
metrics repeat exactly.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from common import use_source_tree  # noqa: E402

use_source_tree()

import tracing  # noqa: E402
from run import Bench  # noqa: E402


def _bump_value(path: Path, line: int) -> None:
    """Change the value column of one CSV line by 1e-7 (10x the tolerance)."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[line].rstrip("\n").split(",")
    cells[1] = repr(float(cells[1]) + 1e-7)
    lines[line] = ",".join(cells) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _bump_json(path: Path, key: str) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload[key] += 1e-7
    path.write_text(json.dumps(payload), encoding="utf-8")


CORRUPTIONS = {
    "coherent_scan": lambda op: _bump_value(
        op / "single_mode_scan" / "scan_delta_small_row040.csv", 1200),
    "long_resonance": lambda op: _bump_json(
        op / "deep_resonance" / "resonance.json", "scan_peak_value"),
    "damped_ladder": lambda op: _bump_value(
        op / "damping_ladder" / "master_kappa_row002.csv", 3000),
}


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_corrupted_value_is_a_failure(tmp_path, workload):
    bench = Bench(workload, 0, tmp_path)
    _, failures, opdir = bench.run()
    assert failures == []
    CORRUPTIONS[workload](opdir)
    bench.record(opdir, failures)          # first op: no byte baseline to differ from
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "off by" in bench.messages[0]


def test_missing_file_and_byte_change_are_failures(tmp_path):
    bench = Bench("coherent_scan", 0, tmp_path)
    _, failures, opdir = bench.run()
    bench.record(opdir, failures)
    assert (bench.attempted, bench.failed) == (1, 0)

    _, failures, opdir = bench.run()
    (opdir / "bimodal_scan" / "scan_summary.csv").unlink()
    bench.record(opdir, failures)
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "missing ['scan_summary.csv']" in bench.messages[0]

    _, failures, opdir = bench.run()
    manifest = opdir / "bimodal_scan" / "run_manifest.json"
    manifest.write_text(manifest.read_text(encoding="utf-8") + " ", encoding="utf-8")
    bench.record(opdir, failures)
    assert (bench.attempted, bench.failed) == (3, 2)
    assert "not byte-identical" in bench.messages[-1]


def _traced_counts(bench: Bench) -> tuple[dict, list[dict]]:
    with tracing.Tracer() as tracer:
        _, failures, opdir = bench.run(tracer)
    bench.record(opdir, failures)
    per_call = [tracing.layer_metrics(group)
                for group in tracing.split_by_root(tracer.spans)]
    keys = ("integrate.builds_per_call", "lindblad.superop_builds")
    whole = tracing.layer_metrics(tracer.spans)
    return ({k: whole[k] for k in keys},
            [{k: m[k] for k in keys} for m in per_call])


# Counts at this engine version: the float-dt propagator cache builds 13
# propagators per call at horizon 25, 18 at horizon 600 and 14 superoperators
# per damped run at horizon 60 (three damping values per ladder).
KNOWN = {
    "coherent_scan": [{"integrate.builds_per_call": 13, "lindblad.superop_builds": 0}] * 2,
    "long_resonance": [{"integrate.builds_per_call": 18, "lindblad.superop_builds": 0}],
    "damped_ladder": [{"integrate.builds_per_call": 0, "lindblad.superop_builds": 42}] * 2,
}


@pytest.mark.parametrize("workload", sorted(KNOWN))
def test_count_metrics_repeat_exactly(tmp_path, workload):
    bench = Bench(workload, 3, tmp_path)
    first = _traced_counts(bench)
    again = _traced_counts(bench)
    assert bench.failed == 0, bench.messages
    assert first == again
    assert first[1] == KNOWN[workload]
    assert tracing.installed_wrappers() == []
