"""Exception types shared across the engine.

The CLI maps these onto process exit codes; library users can catch the
common base to distinguish engine failures from programming errors.
"""

from __future__ import annotations


class TwoPhotonError(Exception):
    """Base class for all engine-raised errors."""


class ConfigurationError(TwoPhotonError, ValueError):
    """Invalid parameters, sweep definitions, or config files."""


class PoleError(TwoPhotonError, ZeroDivisionError):
    """An atomic transition sits exactly on a cavity mode (vanishing detuning
    denominator in a perturbative expression)."""


class SingularityError(TwoPhotonError, ZeroDivisionError):
    """A resummed denominator vanishes (e.g. detuning hits the one-photon
    avoided crossing), so the dispersive reduction is undefined there."""


class NoRootInInterval(TwoPhotonError, RuntimeError):
    """Root bracketing failed: the resonance condition does not change sign
    on the requested interval."""


class NumericalInvariantError(TwoPhotonError, RuntimeError):
    """A conserved quantity drifted past its tolerance during integration.

    Carries enough context to diagnose the run: the invariant name, the
    defect at the first point in time that breaches, the tolerance, and
    that time.
    """

    def __init__(self, invariant: str, defect: float, tolerance: float,
                 time: float | None = None):
        self.invariant = invariant
        self.defect = defect
        self.tolerance = tolerance
        self.time = time
        at = f" at t={time:g}" if time is not None else ""
        super().__init__(
            f"{invariant} defect {defect:.3e} exceeds tolerance "
            f"{tolerance:.1e}{at}"
        )
