"""Property test of the CLI boundary: every input maps to an exit code.

Configs are drawn over the real keys with hostile values (wrong types,
NaN, +-inf, 1e308, 0, negatives, huge ranges).  Whatever is drawn, ``main``
must return 0, 1, 2 or 3 and let nothing escape, RuntimeWarnings included.
Cost is bounded by construction: drawn horizons, axes and ladders are
small, and every huge value can only reach a budget check.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from twophoton.cli import EXIT_CONFIG, EXIT_INVARIANT, main

# selfcheck takes no config, so there is nothing to draw for it
COMMANDS = ("evolve", "master", "scan", "resonance", "spectrum")

HOSTILE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200,
                     0, 0.0, -1, -2.5, True, None, "", "1", "nan", "x"]),
    st.text(max_size=4),
    st.lists(st.floats(-3.0, 3.0), max_size=3),
    st.dictionaries(st.sampled_from(["start", "a"]), st.integers(-2, 2),
                    max_size=2),
)


def mostly(good):
    """``good`` three times in four, otherwise a hostile value."""
    return st.integers(0, 3).flatmap(lambda i: HOSTILE if i == 0 else good)


COUPLING = mostly(st.floats(0.5, 3.0))
DETUNING = mostly(st.floats(-8.0, 8.0))
KAPPA = mostly(st.floats(0.0, 0.3))
# short coherent runs, or just past the damping ladder's first window
HORIZON = mostly(st.one_of(st.floats(0.01, 2.0), st.floats(25.5, 27.0)))


@st.composite
def small_range(draw):
    """[start, stop] with at most a handful of points at ``step``."""
    start = draw(st.floats(-8.0, 8.0))
    step = draw(st.floats(0.05, 0.2))
    return start, start + step * draw(st.integers(0, 3)), step


HUGE_RANGES = st.sampled_from([(0.0, 1e9, 1e-9), (-1e308, 1e308, 1.0),
                               (0.0, 1.0, 1e-300), (1.0, 0.0, 0.1)])
AXIS_VALUES = mostly(st.one_of(
    st.builds(lambda r: dict(zip(("start", "stop", "step"), r)),
              st.one_of(small_range(), HUGE_RANGES)),
    st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=3),
))
KAPPAS = mostly(st.one_of(st.lists(st.floats(0.0, 0.3), max_size=3),
                          st.just("0,0.1")))
INTERVAL = mostly(st.one_of(
    st.builds(lambda r: [r[0], r[1]], small_range()),
    st.sampled_from([[2.5, 4.5], [9.0, 10.0], [-1e308, 1e308], [1.0, 1.0]]),
))
SCAN_STEP = mostly(st.one_of(st.floats(0.05, 0.5), st.just(1e-18)))
STATE = mostly(st.sampled_from(["ee,00", "gg,11", "gg,1"]))

PARAMS = st.fixed_dictionaries({}, optional={
    "g1": COUPLING, "g2": COUPLING, "delta_cap": DETUNING,
    "delta_small": DETUNING, "kappa_a": KAPPA, "kappa_b": KAPPA,
    "bogus": st.floats(0.0, 1.0)})

CONFIGS = st.fixed_dictionaries({}, optional={
    "kind": mostly(st.sampled_from(["bimodal", "single_mode"])),
    "params": mostly(PARAMS),
    "g2": COUPLING, "delta_small": DETUNING,
    "horizon": HORIZON, "state": STATE,
    "axis": mostly(st.sampled_from(["delta_small", "delta_cap", "kappa",
                                    "g2"])),
    "values": AXIS_VALUES, "kappas": KAPPAS,
    "interval": INTERVAL, "scan_step": SCAN_STEP,
})

# flags override the config; argparse itself refuses some of these, and
# --substep is no flag at all
FLAGS = st.lists(st.sampled_from([
    ["--horizon", "1"], ["--horizon", "nan"], ["--horizon", "-1"],
    ["--substep", "0"], ["--substep", "inf"], ["--g2", "1e308"],
    ["--delta-cap", "-5"], ["--kind", "single_mode"], ["--kind", "bogus"],
    ["--start", "3.5"], ["--axis", "kappa"], ["--kappas", "0,x"],
    ["--interval", "1", "nan"], ["--scan-step", "-0.1"], ["--state", "zz"],
]), max_size=1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=5000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(COMMANDS), config=CONFIGS, flags=FLAGS)
# the axis point budget: both scan axes would allocate 10^18 points
@example(command="scan", flags=[], config={
    "g2": 1.5, "delta_cap": -5.0, "horizon": 1.0,
    "values": {"start": 0, "stop": 1e9, "step": 1e-9}})
@example(command="resonance", flags=[], config={
    "params": {"g2": 1.5, "delta_cap": -5.0}, "interval": [2.5, 4.5],
    "scan_step": 1e-18, "horizon": 1.0})
# finite parameters whose Hamiltonian is not finite
@example(command="spectrum", flags=[], config={"params": {"g1": 1e308,
                                                         "g2": 1e308}})
# finite Hamiltonians too large for the integrator
@example(command="evolve", flags=[], config={"params": {"g1": 1e200,
                                                       "g2": 1e200}})
@example(command="master", flags=[], config={
    "params": {"g1": 1e200, "g2": 1e200}, "horizon": 26})
# finite Hamiltonians whose 1-norm overflows
@example(command="evolve", flags=[], config={"params": {"g2": 6e307}})
@example(command="master", flags=[], config={"params": {"g2": 6e307}})
# an unhashable state label
@example(command="master", flags=[], config={"state": [0.0], "horizon": 0.1})
def test_every_input_maps_to_an_exit_code(command, config, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(path),
                         "--out", str(Path(tmp) / "out"), *sum(flags, [])])
    assert code in (0, 1, 2, 3)
    if code in (EXIT_INVARIANT, EXIT_CONFIG):
        assert stderr.getvalue().count("\n") == 1, stderr.getvalue()
