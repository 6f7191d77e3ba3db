"""Measurements that need a fresh interpreter.

As a module it starts the children and reads their answers; as a script
(``python3 perfbench/fresh.py op OPDIR CALLS_JSON``) it is the child that
runs one operation and reports its peak resident set size.  Every child
gets the benchmark's environment: one BLAS thread and ``src/`` first on
the import path.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path

from common import ROOT, child_env, run_calls, use_source_tree

TIMEOUT_S = 120
IMPORT_PACKAGES = ("numpy", "scipy", "twophoton")

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import twophoton.cli
twophoton.cli.build_parser()
print(time.perf_counter() - t0)
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter from the checkout root and wait for it."""
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"fresh interpreter {args[:2]} exited "
                           f"{done.returncode}: {done.stderr.strip()[-500:]}")
    return done


def setup_seconds() -> float:
    """Import-and-parser time of one fresh interpreter."""
    return float(_python("-c", SETUP_CODE).stdout.split()[-1])


def import_self_seconds() -> dict[str, float]:
    """Self import time per top-level package, from ``-X importtime``."""
    stderr = _python("-X", "importtime", "-c", "import twophoton.cli").stderr
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        package = name.strip().split(".")[0]
        if package in totals:
            totals[package] += int(self_us) * 1e-6
    return totals


def peak_memory_op(opdir: Path, calls: list[tuple[str, str, Path]]) -> tuple[float, list[str]]:
    """Run one operation in a fresh process: peak RSS in MB and failures."""
    payload = json.dumps([[study, command, str(path)] for study, command, path in calls])
    report = json.loads(_python(str(Path(__file__).resolve()), "op", str(opdir),
                                payload).stdout.splitlines()[-1])
    return report["maxrss_kb"] / 1024.0, report["failures"]


def _child_op(opdir: str, payload: str) -> None:
    use_source_tree()
    import twophoton.cli
    calls = [(study, command, Path(path)) for study, command, path in json.loads(payload)]
    failures = run_calls(calls, Path(opdir), twophoton.cli.main)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": maxrss_kb, "failures": failures}))


if __name__ == "__main__":
    if sys.argv[1:2] != ["op"] or len(sys.argv) != 4:
        sys.exit("usage: fresh.py op OPDIR CALLS_JSON")
    _child_op(sys.argv[2], sys.argv[3])
