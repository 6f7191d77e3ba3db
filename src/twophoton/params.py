"""Model parameters for two-atom two-photon cavity emission.

Two system kinds are supported:

``bimodal``
    Two identical two-level atoms in a cavity sustaining two modes (a, b).
    Both atoms couple to mode a with strength ``g1`` and to mode b with
    ``g2``.  ``delta_cap`` is the atom detuning from mode a and
    ``delta_small`` the detuning from mode b.

``single_mode``
    Two *nonidentical* atoms in a single-mode cavity.  Atom 1 couples with
    ``g1`` and is detuned by ``delta_cap`` from the mode; atom 2 couples
    with ``g2`` and is detuned by ``delta_small``.

All quantities are expressed in units of ``g1`` unless the caller scales
them otherwise; times are in units of 1/g1.  The rotating-frame convention
places the doubly-excited state at zero energy, so the bare two-photon
resonance sits at ``delta_cap + delta_small = 0``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigurationError


class SystemKind(str, Enum):
    """Which physical system the engine simulates."""

    BIMODAL = "bimodal"
    SINGLE_MODE = "single_mode"

    @classmethod
    def coerce(cls, kind: "SystemKind | str") -> "SystemKind":
        if isinstance(kind, cls):
            return kind
        try:
            return cls(str(kind))
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ConfigurationError(
                f"unknown system kind {kind!r}; expected one of: {valid}"
            ) from None


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of one run.

    Attributes
    ----------
    g1, g2:
        Atom-mode coupling strengths (g1 > 0, g2 > 0).
    delta_cap:
        Detuning conventionally written with a capital Delta (mode a /
        atom 1, depending on kind).
    delta_small:
        Detuning conventionally written with a lowercase delta (mode b /
        atom 2).
    kappa_a, kappa_b:
        Cavity amplitude-damping constants; the photon-number loss rate of
        each mode is twice its kappa.  ``kappa_b`` must stay 0 for the
        single-mode system.
    """

    g1: float = 1.0
    g2: float = 1.0
    delta_cap: float = 0.0
    delta_small: float = 0.0
    kappa_a: float = 0.0
    kappa_b: float = 0.0

    def __post_init__(self):
        for name in ("g1", "g2", "delta_cap", "delta_small", "kappa_a", "kappa_b"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.g1 <= 0:
            raise ConfigurationError(f"g1 must be positive, got {self.g1}")
        if self.g2 <= 0:
            raise ConfigurationError(f"g2 must be positive, got {self.g2}")
        if self.kappa_a < 0 or self.kappa_b < 0:
            raise ConfigurationError("damping constants must be non-negative")

    def replace(self, **changes) -> "ModelParams":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def validate_for_kind(self, kind: SystemKind | str) -> None:
        """Check kind-specific constraints (beyond the universal ones)."""
        kind = SystemKind.coerce(kind)
        if kind is SystemKind.SINGLE_MODE and self.kappa_b != 0.0:
            raise ConfigurationError(
                "single_mode system has one cavity mode; kappa_b must be 0 "
                f"(got {self.kappa_b})"
            )


PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(ModelParams))
