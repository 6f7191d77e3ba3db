"""Paths, thread pinning and environment facts shared by the benchmark files.

The benchmark always runs the engine from the source tree next to it
(``src/``), never from an installed copy, and with BLAS pinned to one
thread so that timings do not depend on how many cores are free.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class SourceTreeMissing(RuntimeError):
    """The engine's sources are not next to the benchmark."""


def pin_blas() -> None:
    """Pin BLAS to one thread; takes effect only before NumPy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def child_env() -> dict:
    """Environment for fresh interpreters: one BLAS thread, sources first."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def use_source_tree() -> None:
    """Put ``src/`` first on the import path and check twophoton comes from it."""
    if not (SRC / "twophoton" / "cli.py").is_file():
        raise SourceTreeMissing(f"no twophoton sources under {SRC}")
    if str(SRC) not in sys.path[:1]:
        sys.path.insert(0, str(SRC))
    import twophoton
    origin = Path(twophoton.__file__).resolve()
    if SRC not in origin.parents:
        raise SourceTreeMissing(f"twophoton imported from {origin}, not {SRC}")


def environment() -> dict:
    """Facts that a timing depends on, recorded with every result."""
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def run_calls(calls, opdir: Path, main, tracer=None) -> list[str]:
    """Run each study through ``main`` into ``opdir/<study>``.

    Returns the failures: non-zero exit codes and raised exceptions.  The
    CLI's own printing is swallowed.  With a tracer, each call is a
    ``cli.main`` root span.
    """
    failures = []
    with contextlib.redirect_stdout(io.StringIO()):
        for study, command, path in calls:
            span = tracer.open("cli.main", "cli") if tracer else None
            try:
                code = main([command, "--config", str(path),
                             "--out", str(opdir / study)])
            except Exception as exc:      # any escape from main() is a failure
                failures.append(f"{study}: main() raised {exc!r}")
                continue
            finally:
                if span is not None:
                    tracer.close(span)
            if code != 0:
                failures.append(f"{study}: exit code {code}")
    return failures
