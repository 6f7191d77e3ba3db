"""Seeded workload generator for the twophoton benchmark.

Each workload is a list of CLI calls.  Every call reads one config file in
the schema of the configs under ``figures/`` and writes into its own output
directory.  The seed only redraws the coupling ``g2`` of each config, within
+-0.2 of its reference value; grid sizes, row counts and the integrator
substep do not depend on ``g2``, so every seed does the same amount of work.

The reference values are written out here rather than read from
``figures/``, so that editing a figure does not silently change what the
benchmark measures.

Usage::

    python3 perfbench/workloads.py --workload coherent_scan --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import copy
import json
import random
import sys
from pathlib import Path

G2_SPREAD = 0.2

# The studies, in the figures/ schema.  ``command`` is the CLI subcommand.
BASE_CONFIGS = {
    "bimodal_scan": ("scan", {
        "description": "Bimodal detuning scan near the shifted resonance "
                       "(figures/bimodal_scan.json).",
        "kind": "bimodal",
        "params": {"g1": 1.0, "g2": 1.5, "delta_cap": -5.0},
        "axis": "delta_small",
        "values": {"start": 2.5, "stop": 4.5, "step": 0.05},
        "horizon": 25.0,
    }),
    "single_mode_scan": ("scan", {
        "description": "Single-mode detuning scan "
                       "(figures/single_mode_scan.json).",
        "kind": "single_mode",
        "params": {"g1": 1.0, "g2": 2.0, "delta_cap": -5.0},
        "axis": "delta_small",
        "values": {"start": 2.0, "stop": 6.0, "step": 0.05},
        "horizon": 25.0,
    }),
    "deep_resonance": ("resonance", {
        "description": "Deep-dispersive resonance location on a long horizon "
                       "(figures/deep_resonance.json).",
        "kind": "bimodal",
        "params": {"g1": 1.0, "g2": 1.5, "delta_cap": -10.0},
        "interval": [9.0, 10.0],
        "scan_step": 0.05,
        "horizon": 600.0,
    }),
    "damping_ladder": ("scan", {
        "description": "Bimodal cavity-damping ladder "
                       "(figures/damping_ladder.json).",
        "kind": "bimodal",
        "params": {"g1": 1.0, "g2": 1.5, "delta_cap": -5.0, "delta_small": 3.5},
        "axis": "kappa",
        "kappas": [0.0, 0.03, 0.1],
        "horizon": 60.0,
    }),
    "single_mode_ladder": ("scan", {
        "description": "Single-mode cavity-damping ladder at the engine's "
                       "default single-mode damping parameters.",
        "kind": "single_mode",
        "params": {"g1": 1.0, "g2": 2.0, "delta_cap": -5.0, "delta_small": 2.75},
        "axis": "kappa",
        "kappas": [0.0, 0.03, 0.1],
        "horizon": 60.0,
    }),
}

# Workload name -> the studies it runs, in order.  Why each workload was
# chosen, and which layers it stresses and bypasses, is in BENCHMARK.json.
WORKLOADS = {
    "coherent_scan": ("bimodal_scan", "single_mode_scan"),
    "long_resonance": ("deep_resonance",),
    "damped_ladder": ("damping_ladder", "single_mode_ladder"),
}


def generate(workload: str, seed: int) -> list[tuple[str, str, dict]]:
    """The calls of one workload: ``(study name, subcommand, config)``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    calls = []
    for study in WORKLOADS[workload]:
        command, base = BASE_CONFIGS[study]
        config = copy.deepcopy(base)
        g2 = config["params"]["g2"] + rng.uniform(-G2_SPREAD, G2_SPREAD)
        config["params"]["g2"] = round(g2, 6)
        calls.append((study, command, config))
    return calls


def write_configs(workload: str, seed: int, dest: Path) -> list[tuple[str, str, Path]]:
    """Write the workload's configs to ``dest``: ``(study, subcommand, path)``."""
    dest.mkdir(parents=True, exist_ok=True)
    written = []
    for study, command, config in generate(workload, seed):
        path = dest / f"{study}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        written.append((study, command, path))
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    for study, command, path in write_configs(args.workload, args.seed, args.out):
        print(f"twophoton {command} --config {path}  # {study}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
