"""Basis enumeration for the closed amplitude sectors and the damped sectors.

Starting from both atoms excited and the cavity in vacuum, the coherent
dynamics never leaves a small excitation-conserving sector:

* bimodal, unitary: 6 states (the one-excitation atomic states enter only
  through their symmetric combination because the atoms are identical);
* single-mode, unitary: 4 states.

With cavity damping the photon-loss channel connects downward to every
lower photon number, closing only on a larger set:

* bimodal, damped: 13 states;
* single-mode, damped: 8 states.

State orderings are frozen here; every matrix in the package is expressed
in these orders and tests pin them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigurationError
from .params import SystemKind

EXCITED = "e"
GROUND = "g"


@dataclass(frozen=True)
class BasisState:
    """One product (or symmetrized) basis state.

    ``atom1``/``atom2`` are ``"e"`` or ``"g"``.  ``n_a`` counts photons in
    mode a; ``n_b`` is ``None`` for the single-mode system.  When
    ``symmetrized`` is set the atomic part is the symmetric combination
    (|e g> + |g e>)/sqrt(2); ``atom1``/``atom2`` are then stored in the
    canonical order ("e", "g").
    """

    atom1: str
    atom2: str
    n_a: int
    n_b: int | None = None
    symmetrized: bool = False

    def __post_init__(self):
        for atom in (self.atom1, self.atom2):
            if atom not in (EXCITED, GROUND):
                raise ConfigurationError(f"atom state must be 'e' or 'g', got {atom!r}")
        if self.n_a < 0 or (self.n_b is not None and self.n_b < 0):
            raise ConfigurationError("photon numbers must be non-negative")
        if self.symmetrized and (self.atom1, self.atom2) != (EXCITED, GROUND):
            raise ConfigurationError(
                "symmetrized states are stored with canonical atom order ('e', 'g')"
            )

    @property
    def excitations(self) -> int:
        """Total excitation number (atomic + photonic)."""
        n = int(self.atom1 == EXCITED) + int(self.atom2 == EXCITED) + self.n_a
        if self.n_b is not None:
            n += self.n_b
        return n

    @property
    def label(self) -> str:
        atoms = "s" if self.symmetrized else f"{self.atom1}{self.atom2}"
        photons = f"{self.n_a}" if self.n_b is None else f"{self.n_a}{self.n_b}"
        return f"{atoms},{photons}"


@dataclass(frozen=True)
class Basis:
    """A frozen, ordered collection of basis states for one sector."""

    kind: SystemKind
    damped: bool
    states: tuple[BasisState, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {s.label: i for i, s in enumerate(self.states)}
        if len(index) != len(self.states):
            raise ConfigurationError("basis labels must be unique")
        object.__setattr__(self, "_index", index)

    @property
    def dim(self) -> int:
        return len(self.states)

    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.states)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ConfigurationError(
                f"no state {label!r} in this basis; states are {self.labels()}"
            ) from None

    @property
    def initial_index(self) -> int:
        """Index of the both-atoms-excited, zero-photon state."""
        label = "ee,00" if self.kind is SystemKind.BIMODAL else "ee,0"
        return self.index_of(label)

    @property
    def two_photon_index(self) -> int:
        """Index of the target state with both atoms de-excited and two photons
        (one per mode for the bimodal system, both in the mode otherwise)."""
        label = "gg,11" if self.kind is SystemKind.BIMODAL else "gg,2"
        return self.index_of(label)


def _bimodal_unitary() -> tuple[BasisState, ...]:
    sym = dict(atom1=EXCITED, atom2=GROUND, symmetrized=True)
    return (
        BasisState(EXCITED, EXCITED, 0, 0),
        BasisState(n_a=1, n_b=0, **sym),
        BasisState(n_a=0, n_b=1, **sym),
        BasisState(GROUND, GROUND, 1, 1),
        BasisState(GROUND, GROUND, 2, 0),
        BasisState(GROUND, GROUND, 0, 2),
    )


def _single_mode_unitary() -> tuple[BasisState, ...]:
    return (
        BasisState(EXCITED, EXCITED, 0),
        BasisState(EXCITED, GROUND, 1),
        BasisState(GROUND, EXCITED, 1),
        BasisState(GROUND, GROUND, 2),
    )


def _bimodal_damped() -> tuple[BasisState, ...]:
    # Order: doubly excited; singly excited blocks (atom 2 excited, then
    # atom 1 excited) each with 0 or 1 emitted photon; then the fully
    # de-excited block by total photon number.
    return (
        BasisState(EXCITED, EXCITED, 0, 0),
        BasisState(GROUND, EXCITED, 0, 0),
        BasisState(GROUND, EXCITED, 1, 0),
        BasisState(GROUND, EXCITED, 0, 1),
        BasisState(EXCITED, GROUND, 0, 0),
        BasisState(EXCITED, GROUND, 1, 0),
        BasisState(EXCITED, GROUND, 0, 1),
        BasisState(GROUND, GROUND, 0, 0),
        BasisState(GROUND, GROUND, 0, 1),
        BasisState(GROUND, GROUND, 1, 0),
        BasisState(GROUND, GROUND, 0, 2),
        BasisState(GROUND, GROUND, 1, 1),
        BasisState(GROUND, GROUND, 2, 0),
    )


def _single_mode_damped() -> tuple[BasisState, ...]:
    # Closure-generated order: the 4 coherent-sector states first, then the
    # states reached by successive photon loss.
    return (
        BasisState(EXCITED, EXCITED, 0),
        BasisState(EXCITED, GROUND, 1),
        BasisState(GROUND, EXCITED, 1),
        BasisState(GROUND, GROUND, 2),
        BasisState(EXCITED, GROUND, 0),
        BasisState(GROUND, EXCITED, 0),
        BasisState(GROUND, GROUND, 1),
        BasisState(GROUND, GROUND, 0),
    )


def enumerate_basis(kind: SystemKind | str, damped: bool = False) -> Basis:
    """Return the frozen basis for the requested system and sector.

    ``damped=False`` gives the excitation-conserving amplitude sector used
    by the coherent engine; ``damped=True`` gives the photon-loss-closed
    set used by the density-matrix engine.
    """
    kind = SystemKind.coerce(kind)
    if kind is SystemKind.BIMODAL:
        states = _bimodal_damped() if damped else _bimodal_unitary()
    else:
        states = _single_mode_damped() if damped else _single_mode_unitary()
    return Basis(kind=kind, damped=damped, states=states)
