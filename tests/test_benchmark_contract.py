"""The benchmark's studies pass its own correctness checks.

``perfbench/`` calls the engine through ``twophoton.cli.main`` and checks
every output against references built from public engine names
(``perfbench/checks.py``).  Its traced run wraps engine call sites by name
(``perfbench/tracing.py``) and reads the row count off each sweep result.
Running one seed of each workload here, once plain and once traced, makes
an API change that breaks those references or that read surface, or an
output they reject, a test failure.  Nothing under ``perfbench/`` is
written.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:                    # no __pycache__ under perfbench/
    import checks
    import tracing
    from common import run_calls
    from workloads import WORKLOADS, write_configs
finally:
    sys.dont_write_bytecode = _write_bytecode

import twophoton.cli  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_passes_benchmark_checks(tmp_path, workload):
    calls = write_configs(workload, 1, tmp_path / "configs")
    assert run_calls(calls, tmp_path / "out", twophoton.cli.main) == []
    for study, command, path in calls:
        config = json.loads(path.read_text(encoding="utf-8"))
        ref = checks.reference(study, command, config)
        assert checks.check_study(ref, tmp_path / "out" / study) == []


@pytest.mark.parametrize("workload,rows", [
    ("coherent_scan", 122), ("damped_ladder", 6), ("long_resonance", 21)])
def test_traced_workload_counts_its_rows(tmp_path, workload, rows):
    calls = write_configs(workload, 1, tmp_path / "configs")
    with tracing.Tracer() as tracer:
        failures = run_calls(calls, tmp_path / "out", twophoton.cli.main,
                             tracer)
    assert failures == []
    assert tracing.layer_metrics(tracer.spans)["experiments.rows"] == rows
