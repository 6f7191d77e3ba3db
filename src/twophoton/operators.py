"""Hamiltonians and collapse operators on the frozen bases.

The coherent-sector Hamiltonians are written out directly in the frozen
state order (they are small and their entries are the point of the model):
in the rotating frame of the doubly-excited state, diagonal entries are
(minus) the accumulated detunings and off-diagonal entries carry the
bosonic enhancement factors sqrt(2) (stimulated second photon) and the
sqrt(2) of the symmetric atomic combination.

The damped-sector operators are instead *constructed*: atoms and modes are
assembled in an ambient product space with one extra photon of headroom,
the Hamiltonian and the mode annihilators are built there from elementary
operators, and everything is restricted to the frozen basis.  The
restriction asserts exact closure — any coupling from inside the sector to
an ambient state outside it is a construction bug, not a numerical error,
so the check demands literal zeros.
"""

from __future__ import annotations

import itertools

import numpy as np

from .basis import Basis, BasisState, enumerate_basis
from .errors import ConfigurationError, NumericalInvariantError
from .params import ModelParams, SystemKind

_SQRT2 = np.sqrt(2.0)

# Photon headroom of the ambient space: the damped sectors hold at most two
# photons, so a cutoff of three (dimension four per mode) exposes any upward
# leakage instead of silently truncating it.
_AMBIENT_CUTOFF = 4


# ---------------------------------------------------------------------------
# coherent (excitation-conserving) sectors: explicit matrices
# ---------------------------------------------------------------------------

def _bimodal_unitary_hamiltonian(p: ModelParams) -> np.ndarray:
    """6x6 block: |ee,00>, |s,10>, |s,01>, |gg,11>, |gg,20>, |gg,02>."""
    D, d = p.delta_cap, p.delta_small
    g1, g2 = p.g1, p.g2
    h = np.zeros((6, 6))
    h[np.diag_indices(6)] = [0.0, -D, -d, -(D + d), -2 * D, -2 * d]
    h[0, 1] = _SQRT2 * g1          # ee,00 <-> s,10 : symmetric-pair coupling
    h[0, 2] = _SQRT2 * g2          # ee,00 <-> s,01
    h[1, 3] = _SQRT2 * g2          # s,10  <-> gg,11
    h[1, 4] = 2.0 * g1             # s,10  <-> gg,20 : sqrt(2)*sqrt(2)
    h[2, 3] = _SQRT2 * g1          # s,01  <-> gg,11
    h[2, 5] = 2.0 * g2             # s,01  <-> gg,02
    return h + np.triu(h, 1).T


def _single_mode_unitary_hamiltonian(p: ModelParams) -> np.ndarray:
    """4x4 block: |ee,0>, |eg,1>, |ge,1>, |gg,2>."""
    D, d = p.delta_cap, p.delta_small
    g1, g2 = p.g1, p.g2
    h = np.zeros((4, 4))
    h[np.diag_indices(4)] = [0.0, -d, -D, -(D + d)]
    h[0, 1] = g2                   # atom 2 emits
    h[0, 2] = g1                   # atom 1 emits
    h[1, 3] = _SQRT2 * g1          # second photon, stimulated
    h[2, 3] = _SQRT2 * g2
    return h + np.triu(h, 1).T


# ---------------------------------------------------------------------------
# ambient product space for the damped sectors
# ---------------------------------------------------------------------------

def _destroy(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n)), k=1)


def _atom_lower() -> np.ndarray:
    # atom code 0 = excited, 1 = ground; sigma^- = |g><e|
    out = np.zeros((2, 2))
    out[1, 0] = 1.0
    return out


def _kron(*ops: np.ndarray) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _ambient_index(state: BasisState, kind: SystemKind) -> int:
    """Flat index of a product basis state in the ambient kron ordering."""
    a1 = 0 if state.atom1 == "e" else 1
    a2 = 0 if state.atom2 == "e" else 1
    if kind is SystemKind.BIMODAL:
        return ((a1 * 2 + a2) * _AMBIENT_CUTOFF + state.n_a) * _AMBIENT_CUTOFF + state.n_b
    return (a1 * 2 + a2) * _AMBIENT_CUTOFF + state.n_a


def _restrict(op: np.ndarray, indices: list[int], what: str) -> np.ndarray:
    """Cut an ambient operator down to the sector, demanding exact closure."""
    inside = np.zeros(op.shape[0], dtype=bool)
    inside[indices] = True
    leak = op[np.ix_(~inside, inside)]
    if leak.size and np.any(leak != 0.0):
        worst = float(np.max(np.abs(leak)))
        raise NumericalInvariantError(f"{what} sector closure", worst, 0.0)
    return op[np.ix_(indices, indices)].copy()


def _ambient_bimodal(p: ModelParams):
    eye2 = np.eye(2)
    eyem = np.eye(_AMBIENT_CUTOFF)
    am = _destroy(_AMBIENT_CUTOFF)
    sm = _atom_lower()

    a = _kron(eye2, eye2, am, eyem)
    b = _kron(eye2, eye2, eyem, am)
    sm1 = _kron(sm, eye2, eyem, eyem)
    sm2 = _kron(eye2, sm, eyem, eyem)

    h = -p.delta_cap * a.T @ a - p.delta_small * b.T @ b
    for s in (sm1, sm2):
        coupling = s.T @ (p.g1 * a + p.g2 * b)   # identical atoms: same g's
        h += coupling + coupling.T
    return h, [a, b]


def _ambient_single_mode(p: ModelParams):
    eye2 = np.eye(2)
    eyem = np.eye(_AMBIENT_CUTOFF)
    am = _destroy(_AMBIENT_CUTOFF)
    sm = _atom_lower()
    pg = np.diag([0.0, 1.0])       # ground-state projector

    a = _kron(eye2, eye2, am)
    sm1 = _kron(sm, eye2, eyem)
    sm2 = _kron(eye2, sm, eyem)
    pg1 = _kron(pg, eye2, eyem)
    pg2 = _kron(eye2, pg, eyem)

    # Frame following the doubly-excited state: detunings ride on the
    # ground-state projectors, photons carry no quasi-energy of their own.
    h = -p.delta_cap * pg1 - p.delta_small * pg2
    for g, s in ((p.g1, sm1), (p.g2, sm2)):
        coupling = g * s.T @ a
        h += coupling + coupling.T
    return h, [a]


def _damped_operators(kind: SystemKind, p: ModelParams):
    basis = enumerate_basis(kind, damped=True)
    if kind is SystemKind.BIMODAL:
        h_amb, jumps_amb = _ambient_bimodal(p)
    else:
        h_amb, jumps_amb = _ambient_single_mode(p)
    indices = [_ambient_index(s, kind) for s in basis.states]
    h = _restrict(h_amb, indices, "hamiltonian")
    jumps = [_restrict(j, indices, "jump") for j in jumps_amb]
    return h, jumps


def _finite(h: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(h)):     # e.g. sqrt(2) * 1e308 overflows
        raise ConfigurationError("parameters too large: non-finite Hamiltonian entries")
    return h


# ---------------------------------------------------------------------------
# public interface
# ---------------------------------------------------------------------------

def build_hamiltonian(kind: SystemKind | str, params: ModelParams,
                      damped: bool = False) -> np.ndarray:
    """Hamiltonian matrix (real symmetric) on the frozen basis.

    Parameters
    ----------
    kind:
        ``bimodal`` or ``single_mode``.
    params:
        Model parameters; damping constants are ignored here (they enter
        only through the dissipator).
    damped:
        Select the photon-loss-closed sector instead of the
        excitation-conserving one.
    """
    kind = SystemKind.coerce(kind)
    params.validate_for_kind(kind)
    if damped:
        return damped_operators(kind, params)[0]
    if kind is SystemKind.BIMODAL:
        return _finite(_bimodal_unitary_hamiltonian(params))
    return _finite(_single_mode_unitary_hamiltonian(params))


def damped_operators(kind: SystemKind | str,
                     params: ModelParams) -> tuple[np.ndarray, list[np.ndarray]]:
    """``build_hamiltonian(kind, params, damped=True)`` and the mode
    annihilators restricted to the damped sector, from one ambient
    construction.

    The annihilators are ``[a, b]`` for the bimodal system and ``[a]`` for
    the single-mode one; the damping constants ``kappa_a``/``kappa_b`` are
    applied by the density-matrix engine, not baked into these matrices.
    Every operator still passes the exact-closure check.
    """
    kind = SystemKind.coerce(kind)
    params.validate_for_kind(kind)
    with np.errstate(over="ignore", invalid="ignore"):    # checked by _finite
        h, jumps = _damped_operators(kind, params)
    return _finite(h), jumps


def embed_unitary_sector(kind: SystemKind | str) -> np.ndarray:
    """Isometry from the coherent sector into the damped sector.

    Columns are the coherent-sector states written in the damped product
    basis; the symmetric one-excitation states of the bimodal system spread
    over their two product components with weight 1/sqrt(2).  Satisfies
    V.T @ V = identity, and V.T @ H_damped @ V equals the coherent-sector
    Hamiltonian.
    """
    kind = SystemKind.coerce(kind)
    small = enumerate_basis(kind, damped=False)
    big = enumerate_basis(kind, damped=True)
    v = np.zeros((big.dim, small.dim))
    for j, state in enumerate(small.states):
        if state.symmetrized:
            photons = f"{state.n_a}{state.n_b}"
            v[big.index_of(f"eg,{photons}"), j] = 1.0 / _SQRT2
            v[big.index_of(f"ge,{photons}"), j] = 1.0 / _SQRT2
        else:
            v[big.index_of(state.label), j] = 1.0
    return v


def excitation_numbers(basis: Basis) -> np.ndarray:
    """Total excitation number of each basis state, in basis order."""
    return np.array([s.excitations for s in basis.states], dtype=float)


def spectrum_lines(params: ModelParams, kind: SystemKind | str = SystemKind.BIMODAL):
    """Eigenvalues of the coherent-sector Hamiltonian and their spacings.

    Returns ``(eigenvalues, lines)``: the sector eigenvalues in ascending
    order and all pairwise differences |E_i - E_j| (i < j), ascending.
    These spacings are where an emission spectrum would place its lines;
    no lineshape model is attached.  Degenerate pairs contribute zeros.
    """
    kind = SystemKind.coerce(kind)
    h = build_hamiltonian(kind, params, damped=False)
    eigenvalues = np.linalg.eigvalsh(h)
    lines = np.sort([abs(a - b) for a, b in itertools.combinations(eigenvalues, 2)])
    return eigenvalues, np.asarray(lines)
