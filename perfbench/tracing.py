"""Call-site tracing for the benchmark's traced run.

The engine has no spans of its own, so the tracer wraps module attributes
from outside.  ``from .x import f`` gives every importing module its own
binding of ``f``, so each wrapper is installed on the binding the caller
looks up (``twophoton.unitary.propagate_grid``, not
``twophoton.integrate.propagate_grid``).  Bindings that a later version of
the engine no longer has are skipped; their metrics then read 0.

Two kinds of wrapper:

* a *span* records name, layer, start, end and parent, plus counts taken
  from the call's arguments or result;
* an *aggregate* is for calls too frequent to keep one record each: it adds
  its call count and time to the enclosing span.

A span's self time is its duration minus the time covered by its child
spans and aggregates.  Spans stay in memory and are written out once, when
the benchmark ends.
"""

from __future__ import annotations

import importlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

MARK = "__perfbench_wrapper__"


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)
    aggregates: dict = field(default_factory=dict)   # name -> [layer, calls, s]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self, op: int) -> dict:
        return {"op": op, "id": self.id, "name": self.name, "layer": self.layer,
                "parent": self.parent, "start": self.start, "end": self.end,
                "self_s": self.self_s, "counts": self.counts,
                "aggregates": {k: {"layer": v[0], "calls": v[1], "seconds": v[2]}
                               for k, v in self.aggregates.items()}}


def _grid_steps(args, kwargs, position: int) -> int:
    grid = kwargs["t_grid"] if "t_grid" in kwargs else args[position]
    return len(grid) - 1


def _superop_dim2(args, kwargs) -> int:
    from twophoton.basis import enumerate_basis
    kind = kwargs.get("kind", args[0] if args else None)
    return enumerate_basis(kind, damped=True).dim ** 2


def _lindblad_counts(args, kwargs, result, span) -> dict:
    rk4_calls = span.aggregates.get("lindblad.rk4_step", [None, 0, 0.0])[1]
    return {"output_steps": _grid_steps(args, kwargs, 2),
            "superop_builds": rk4_calls / _superop_dim2(args, kwargs)}


@dataclass(frozen=True)
class Binding:
    module: str
    attr: str
    name: str
    layer: str
    aggregate: bool = False
    counts: Callable | None = None      # (args, kwargs, result, span) -> dict


# The call sites the three workloads pass through, top to bottom.
BINDINGS = (
    Binding("twophoton.cli", "scan_two_photon", "experiments.scan_two_photon",
            "experiments", counts=lambda a, k, r, s: {"rows": len(r.rows)}),
    Binding("twophoton.cli", "damping_sweep", "experiments.damping_sweep",
            "experiments", counts=lambda a, k, r, s: {"rows": len(r.rows)}),
    Binding("twophoton.cli", "resonance_report", "experiments.resonance_report",
            "experiments", counts=lambda a, k, r, s: {"rows": len(r.scan.rows)}),
    Binding("twophoton.experiments", "evolve_amplitudes",
            "unitary.evolve_amplitudes", "unitary"),
    Binding("twophoton.experiments", "evolve_density",
            "lindblad.evolve_density", "lindblad", counts=_lindblad_counts),
    Binding("twophoton.experiments", "resonance_detuning",
            "effective.resonance_detuning", "effective"),
    Binding("twophoton.effective", "effective_g_omega",
            "effective.effective_g_omega", "effective", aggregate=True),
    Binding("twophoton.unitary", "build_hamiltonian",
            "operators.build_hamiltonian", "operators"),
    Binding("twophoton.unitary", "propagate_grid", "integrate.propagate_grid",
            "integrate",
            counts=lambda a, k, r, s: {"output_steps": _grid_steps(a, k, 1)}),
    Binding("twophoton.integrate", "taylor_propagator",
            "integrate.taylor_propagator", "integrate", aggregate=True),
    Binding("twophoton.lindblad", "build_hamiltonian",
            "operators.build_hamiltonian", "operators"),
    Binding("twophoton.lindblad", "build_jump_operators",
            "operators.build_jump_operators", "operators"),
    Binding("twophoton.lindblad", "rk4_step", "lindblad.rk4_step",
            "lindblad.compile", aggregate=True),
)


def installed_wrappers() -> list[str]:
    """Bindings that currently hold a tracer wrapper."""
    found = []
    for b in BINDINGS:
        module = importlib.import_module(b.module)
        if getattr(getattr(module, b.attr, None), MARK, False):
            found.append(f"{b.module}.{b.attr}")
    return found


def assert_untraced() -> None:
    """Refuse to time anything while a wrapper is installed."""
    found = installed_wrappers()
    if found:
        raise RuntimeError(f"tracer wrappers still installed: {found}")


class Tracer:
    """Installs the wrappers on entry, removes them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), name=name, layer=layer, parent=parent,
                    start=perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.duration

    def _aggregate(self, name: str, layer: str, seconds: float) -> None:
        if not self._stack:
            raise RuntimeError(f"{name} called outside any span")
        parent = self._stack[-1]
        entry = parent.aggregates.setdefault(name, [layer, 0, 0.0])
        entry[1] += 1
        entry[2] += seconds
        parent.child_s += seconds

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, b: Binding, fn):
        tracer = self
        if b.aggregate:
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._aggregate(b.name, b.layer, perf_counter() - t0)
        else:
            def wrapper(*args, **kwargs):
                span = tracer.open(b.name, b.layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                if b.counts is not None:
                    span.counts.update(b.counts(args, kwargs, result, span))
                return result
        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        assert_untraced()
        try:
            for b in BINDINGS:
                module = importlib.import_module(b.module)
                original = getattr(module, b.attr, None)
                if original is None:
                    continue
                setattr(module, b.attr, self._wrap(b, original))
                self._originals.append((module, b.attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)
        self._stack.clear()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans.

    ``spans`` must hold the whole operation, including its ``cli.main``
    root spans, so that every self time is accounted to a layer.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    agg_calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for span in spans:
        self_s[span.layer] = self_s.get(span.layer, 0.0) + span.self_s
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            name = f"{span.name}.{key}"
            counts[name] = counts.get(name, 0) + value
        for name, (layer, n, seconds) in span.aggregates.items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
            agg_calls[name] = agg_calls.get(name, 0) + n

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    propagate_calls = calls.get("integrate.propagate_grid", 0)
    propagate_s = self_s.get("integrate", 0.0)
    integrate_steps = counts.get("integrate.propagate_grid.output_steps", 0)
    builds = agg_calls.get("integrate.taylor_propagator", 0)
    lindblad_s = self_s.get("lindblad", 0.0)
    lindblad_steps = counts.get("lindblad.evolve_density.output_steps", 0)
    cli_s = self_s.get("cli", 0.0)
    return {
        "integrate.propagate_s": propagate_s,
        "integrate.output_steps": integrate_steps,
        "integrate.ns_per_step": ratio(propagate_s, integrate_steps, 1e9),
        "integrate.propagator_builds": builds,
        "integrate.builds_per_call": ratio(builds, propagate_calls),
        "lindblad.compile_s": self_s.get("lindblad.compile", 0.0),
        "lindblad.superop_builds": counts.get(
            "lindblad.evolve_density.superop_builds", 0),
        "lindblad.evolve_s": lindblad_s,
        "lindblad.output_steps": lindblad_steps,
        "lindblad.ns_per_step": ratio(lindblad_s, lindblad_steps, 1e9),
        "unitary.evolve_s": self_s.get("unitary", 0.0),
        "unitary.calls": calls.get("unitary.evolve_amplitudes", 0),
        "effective.root_s": self_s.get("effective", 0.0),
        "effective.omega_evals": agg_calls.get("effective.effective_g_omega", 0),
        "experiments.self_s": self_s.get("experiments", 0.0),
        "experiments.rows": sum(v for k, v in counts.items()
                                if k.startswith("experiments.")
                                and k.endswith(".rows")),
        "cli.self_s": cli_s,
        "operators.build_s": self_s.get("operators", 0.0),
        "operators.builds": (calls.get("operators.build_hamiltonian", 0)
                             + calls.get("operators.build_jump_operators", 0)),
    }


def split_by_root(spans: list[Span]) -> list[list[Span]]:
    """Spans grouped by root span (one group per CLI call), in call order."""
    groups: list[list[Span]] = []
    for span in spans:
        if span.parent is None:
            groups.append([])
        groups[-1].append(span)
    return groups


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced operations."""
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
