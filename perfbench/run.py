"""Benchmark of the twophoton engine: seeded studies run through its CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload coherent_scan --seed 1 --seconds 18 --trace 0

One *operation* runs every study of a workload (see workloads.py) through
``twophoton.cli.main`` in this process, each into a fresh output directory.
Every operation is checked against independent references (checks.py) and
against the first operation's bytes; an operation fails if a call exits
non-zero or raises, or if any check fails.  The first in-process
operation warms caches and is not timed.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median time of one warm operation, emission included;
* ``setup_s``: median time for a fresh interpreter to import
  ``twophoton.cli`` and build its parser;
* ``peak_mem_mb``: peak RSS of a fresh process that runs one operation.

Both times are corrected for interference from other tenants of the host
(probe.py); the uncorrected samples are printed and kept in the record.

``--trace 1`` alternates untraced and traced operations (tracing.py) for
``--seconds`` and reports the per-layer metrics of the traced ones
(medians), import self times from ``python -X importtime`` and
``trace.overhead``, the median traced/untraced time ratio of the pairs.

Human-readable lines come first.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``failed / attempted`` is the failed fraction.  A full record
(environment, samples, failures, spans) is written under ``.perfbench_out/``.
BLAS is pinned to one thread, and the process and its children to one CPU.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import fresh
import tracing
from probe import SpeedProbe, pin_one_cpu
from common import (OUT, WORK, SourceTreeMissing, environment, pin_blas,
                    run_calls, use_source_tree)
from workloads import WORKLOADS, write_configs

SETUP_REPEATS = 5
MIN_OPS = 3
MAX_MESSAGES = 20

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


class Bench:
    """One workload and seed: configs, references and the failure tally."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import checks          # both need use_source_tree() first
        import twophoton.cli
        self._checks = checks
        self._cli = twophoton.cli
        self.workdir = workdir
        self.calls = write_configs(workload, seed, workdir / "configs")
        self.refs = [checks.reference(study, command,
                                      json.loads(path.read_text(encoding="utf-8")))
                     for study, command, path in self.calls]
        self.first_digests: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._ops = 0

    def new_opdir(self) -> Path:
        self._ops += 1
        return self.workdir / f"op{self._ops:04d}"

    def run(self, tracer=None) -> tuple[float, list[str], Path]:
        """One in-process operation: its time, call failures and directory."""
        opdir = self.new_opdir()
        gc.collect()
        t0 = perf_counter()
        failures = run_calls(self.calls, opdir, self._cli.main, tracer)
        return perf_counter() - t0, failures, opdir

    def record(self, opdir: Path, failures: list[str]) -> None:
        """Check an operation's outputs, tally it and delete its directory."""
        checks = self._checks
        for ref in self.refs:
            failures += checks.check_study(ref, opdir / ref.study)
        found = checks.digests(opdir)
        if self.first_digests is None:
            self.first_digests = found
        else:
            failures += checks.compare_digests(self.first_digests, found)
        shutil.rmtree(opdir, ignore_errors=True)
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages += [f"op {self.attempted}: {f}" for f in failures]
            del self.messages[MAX_MESSAGES:]


def untraced_op(bench: Bench) -> float:
    """One timed, checked operation with no tracer wrapper installed."""
    tracing.assert_untraced()
    seconds, failures, opdir = bench.run()
    bench.record(opdir, failures)
    return seconds


PER_CALL_COUNTS = ("integrate.builds_per_call", "lindblad.superop_builds")


def traced_op(bench: Bench, record: dict) -> tuple[float, dict]:
    """One traced, checked operation: its time and per-layer metrics.

    Its spans are appended to ``record``, which also gets the count
    metrics of each CLI call of the first traced operation.
    """
    with tracing.Tracer() as tracer:
        seconds, failures, opdir = bench.run(tracer)
    if "per_call" not in record:
        record["per_call"] = {
            study: {k: tracing.layer_metrics(group)[k] for k in PER_CALL_COUNTS}
            for (study, _, _), group in zip(bench.calls,
                                            tracing.split_by_root(tracer.spans))}
    sizes = [p.stat().st_size for p in opdir.rglob("*") if p.is_file()]
    layer = tracing.layer_metrics(tracer.spans)
    layer["cli.bytes_written"] = sum(sizes)
    layer["cli.files_written"] = len(sizes)
    layer["cli.ns_per_byte"] = (layer["cli.self_s"] * 1e9 / sum(sizes)
                                if sizes else 0.0)
    bench.record(opdir, failures)
    record.setdefault("spans", []).extend(
        s.as_dict(bench.attempted) for s in tracer.spans)
    return seconds, layer


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def end_to_end(bench: Bench, seconds: float, record: dict) -> dict[str, float]:
    speed = SpeedProbe()
    fresh.setup_seconds()                     # warms bytecode and page cache
    for _ in range(SETUP_REPEATS):
        before = speed.level()
        speed.add("setup_s", fresh.setup_seconds(), before)
    opdir = bench.new_opdir()
    peak_mb, failures = fresh.peak_memory_op(opdir, bench.calls)
    bench.record(opdir, failures)
    _, failures, opdir = bench.run()          # warm-up, not timed
    bench.record(opdir, failures)
    wall: list[float] = []
    while len(wall) < MIN_OPS or sum(wall) < seconds:
        tracing.assert_untraced()
        before = speed.level()
        op_seconds, failures, opdir = bench.run()
        speed.add("wall_s", op_seconds, before)
        bench.record(opdir, failures)
        wall.append(op_seconds)
    record["samples"] = {"wall_s": speed.corrected("wall_s"),
                         "wall_s uncorrected": wall,
                         "setup_s": speed.corrected("setup_s"),
                         "setup_s uncorrected": speed.raw("setup_s")}
    record["probe_readings"] = speed.readings
    return {"wall_s": statistics.median(speed.corrected("wall_s")),
            "setup_s": statistics.median(speed.corrected("setup_s")),
            "peak_mem_mb": peak_mb}


def per_layer(bench: Bench, seconds: float, record: dict) -> dict[str, float]:
    """Traced operations alternate with untraced ones, so that the overhead
    ratio of each pair sees the same machine load."""
    imports = fresh.import_self_seconds()
    _, failures, opdir = bench.run()          # warm-up, not timed
    bench.record(opdir, failures)
    plain, traced, per_op = [], [], []
    while len(plain) < MIN_OPS or sum(plain) + sum(traced) < seconds:
        plain.append(untraced_op(bench))
        seconds_traced, layer = traced_op(bench, record)
        traced.append(seconds_traced)
        per_op.append(layer)
    tracing.assert_untraced()
    metrics = tracing.median_metrics(per_op)
    for package, value in imports.items():
        metrics[f"import.{package}_s"] = value
    metrics["trace.overhead"] = statistics.median(
        t / p for p, t in zip(plain, traced))
    record["samples"] = {"untraced_s": plain, "traced_s": traced}
    record["per_op"] = per_op
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas()
    pin_one_cpu()
    try:
        use_source_tree()
    except SourceTreeMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}
    try:
        bench = Bench(args.workload, args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(bench, args.seconds, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from "
                           f"those declared in {BENCHMARK.name}: {sorted(units)}")
    record.update(attempted=bench.attempted, failed=bench.failed,
                  failures=bench.messages, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} nproc={env['nproc']} "
          f"cpus_used={env['cpus_used']} "
          f"blas_threads={env['blas_threads']['OPENBLAS_NUM_THREADS']}")
    for name, values in record["samples"].items():
        q1, q2, q3 = quartiles(values)
        print(f"# {name}: n={len(values)} median={q2:.6g} q1={q1:.6g} q3={q3:.6g}")
    for message in bench.messages:
        print(f"# FAILED {message}")
    print(f"# failed_fraction = {bench.failed / bench.attempted:.6g} "
          f"({bench.failed}/{bench.attempted})")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    for study, counts in record.get("per_call", {}).items():
        print(f"# {study}: " + ", ".join(f"{k} = {v:g}" for k, v in counts.items()))
    print(f"# record: {out.relative_to(OUT.parent)}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
