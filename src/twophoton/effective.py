"""Dispersive two-level reductions of the two-photon dynamics.

Far from one-photon resonances the intermediate one-excitation states only
dress the doubly-excited state |i> and the two-photon target |f>, and the
six (or four) amplitude equations collapse to an effective two-level
problem

    H_eff = [[h_ii, -G], [-G, h_ii - Omega]],

whose solution from c_i(0)=1 is the envelope

    |c_f(t)|^2 = 4G^2/(4G^2+Omega^2) * sin^2( sqrt(4G^2+Omega^2) t / 2 ).

G is the second-order two-photon coupling and Omega the effective
detuning between the dressed levels; the two-photon resonance sits at
Omega = 0, *shifted* from the bare condition delta_cap + delta_small = 0
by the one-photon Stark shifts.

The matrix entries (h_ii, -G, h_ff) are written once per system and form,
in the tabulations behind ``effective_hamiltonian``:

``form="resummed"``
    The closed-form matrix with resummed denominators (valid to fourth
    order in the couplings).

``form="polynomial"``
    The explicit fourth-order polynomial expansion (bimodal only).

``effective_g_omega`` reads G = -h_if and Omega = h_ii - h_ff off the
resummed entries.  The independent checks of that algebra are
``resolvent_effective_hamiltonian`` (a construction from projectors and
resolvent operators, which validates the polynomial matrix term by term),
the polynomial form itself, and the exact dynamics of the full model.

Where commonly transcribed forms of these expressions differ, the formulas
kept are the ones that agree with the exact second-order reduction of the
full model: the single-mode denominators D^2 + 2 g1^2 and d^2 + 2 g2^2, and
the bimodal independent-emission prefactor 64.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (ConfigurationError, NoRootInInterval, PoleError,
                     SingularityError)
from .params import ModelParams, SystemKind

RESUMMED = "resummed"
POLYNOMIAL = "polynomial"

#: |delta_cap + delta_small| above this fraction of the smaller detuning
#: means the initial and two-photon states are no longer quasi-degenerate
#: and the resolvent construction loses accuracy.
DEGENERACY_FRACTION = 0.1

_ROOT_XTOL = 1e-10


def _bisect(f, lo: float, hi: float, f_lo: float) -> float:
    """Root of f on [lo, hi] to _ROOT_XTOL; f(lo) = f_lo and f(hi) differ in sign."""
    width = hi - lo
    while True:
        width *= 0.5
        mid = lo + width
        f_mid = f(mid)
        if f_mid == 0.0 or width < _ROOT_XTOL:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid


def _guard(value: float, description: str, scale: float = 1.0) -> float:
    if abs(value) <= 1e-12 * max(abs(scale), 1.0):
        raise SingularityError(
            f"{description} vanishes; the dispersive reduction is undefined here")
    return value


def interference_amplitude(omega1: float, omega2: float, omega: float,
                           d1: float = 1.0, d2: float = 1.0) -> float:
    """Two-photon emission amplitude factor d1*d2*(1/(w1-w) + 1/(w2-w)).

    Written over a common denominator, so on the two-photon shell
    w1 + w2 = 2w the cancellation between the two emission orderings is
    *exact* in floating point whenever the rounded detunings are opposite.
    """
    det1 = omega1 - omega
    det2 = omega2 - omega
    if det1 == 0.0 or det2 == 0.0:
        raise PoleError(
            "an atomic transition lies exactly on the mode frequency; the "
            "interference amplitude has a pole there")
    return d1 * d2 * (det1 + det2) / (det1 * det2)


def perturbative_probability(kind: SystemKind | str, params: ModelParams, t):
    """Second-order (independent-emission) two-photon probability.

    This is the leading term in the couplings: both atoms emit
    independently and no resonance structure appears.  Valid only deep in
    the dispersive regime (couplings much smaller than both detunings) and
    for short times.  The prefactor is 64 for the bimodal system and 32
    for the single-mode one.
    """
    kind = SystemKind.coerce(kind)
    D, d = params.delta_cap, params.delta_small
    if D == 0.0 or d == 0.0:
        raise PoleError(
            "independent-emission expansion has a pole at zero detuning")
    t = np.asarray(t, dtype=float)
    shape = np.sin(d * t / 2.0) ** 2 * np.sin(D * t / 2.0) ** 2
    prefactor = 64.0 if kind is SystemKind.BIMODAL else 32.0
    out = prefactor * params.g1 ** 2 * params.g2 ** 2 / (d ** 2 * D ** 2) * shape
    return float(out) if out.ndim == 0 else out


def _bimodal_resummed(p: ModelParams) -> tuple[float, float, float]:
    D, d, g1, g2 = p.delta_cap, p.delta_small, p.g1, p.g2
    den1 = _guard(D * D - 2 * g1 * g1, "detuning denominator D^2 - 2 g1^2", D * D)
    den2 = _guard(d * d - 2 * g2 * g2, "detuning denominator d^2 - 2 g2^2", d * d)
    h11 = 2 * g1 * g1 * D / den1 + 2 * g2 * g2 * d / den2
    h14 = -2 * g1 * g2 * (D / (D * D + 2 * g1 * g1) + d / (d * d + 2 * g2 * g2))
    h44 = -(D + d - 2 * g2 * g2 * D / den1 - 2 * g1 * g1 * d / den2)
    return h11, h14, h44


def _bimodal_polynomial(p: ModelParams) -> tuple[float, float, float]:
    D, d, g1, g2 = p.delta_cap, p.delta_small, p.g1, p.g2
    _guard(D, "detuning D", 1.0)
    _guard(d, "detuning d", 1.0)
    h11 = 2 * g1**2 / D + 2 * g2**2 / d + 4 * g1**4 / D**3 + 4 * g2**4 / d**3
    h14 = (-2 * g1 * g2 / D - 2 * g1 * g2 / d
           + 4 * g1**3 * g2 / D**3 + 4 * g1 * g2**3 / d**3)
    h44 = (-(D + d) - 2 * g2**2 / d - 2 * g1**2 / D
           + 4 * g1**2 * g2**2 / D**3 + 4 * g1**2 * g2**2 / d**3)
    return h11, h14, h44


def _single_mode_resummed(p: ModelParams) -> tuple[float, float, float]:
    D, d, g1, g2 = p.delta_cap, p.delta_small, p.g1, p.g2
    _guard(D, "detuning D", 1.0)
    _guard(d, "detuning d", 1.0)
    h11 = g1 * g1 / D + g2 * g2 / d
    h14 = -np.sqrt(2.0) * g1 * g2 * (D / (D * D + 2 * g1 * g1)
                                     + d / (d * d + 2 * g2 * g2))
    h44 = -(D + d + 2 * g1 * g1 / D + 2 * g2 * g2 / d)
    return h11, h14, h44


def _entries(kind: SystemKind, params: ModelParams,
             form: str = RESUMMED) -> tuple[float, float, float]:
    """The entries (h11, h14, h44) of H_eff; every route to H_eff uses these."""
    if form == RESUMMED:
        if kind is SystemKind.BIMODAL:
            return _bimodal_resummed(params)
        return _single_mode_resummed(params)
    if form == POLYNOMIAL:
        if kind is not SystemKind.BIMODAL:
            raise ConfigurationError(
                "the fourth-order polynomial matrix is only tabulated for the "
                "bimodal system")
        return _bimodal_polynomial(params)
    raise ConfigurationError(
        f"form must be {RESUMMED!r} or {POLYNOMIAL!r}, got {form!r}")


def effective_hamiltonian(kind: SystemKind | str, params: ModelParams,
                          form: str = RESUMMED) -> np.ndarray:
    """Effective 2x2 Hamiltonian on the (initial, two-photon) pair.

    ``form="resummed"`` is the closed-form matrix; ``form="polynomial"``
    (bimodal only) is its explicit fourth-order expansion.  The two agree
    to fourth order in the couplings; their difference scales as the sixth
    power.
    """
    h11, h14, h44 = _entries(SystemKind.coerce(kind), params, form)
    return np.array([[h11, h14], [h14, h44]])


def effective_g_omega(kind: SystemKind | str, params: ModelParams) -> tuple[float, float]:
    """The scalar pair (G, Omega) of the two-level envelope.

    G = -h_if is the signed two-photon coupling and Omega = h_ii - h_ff the
    effective detuning, both read off the resummed entries of
    :func:`effective_hamiltonian` (without building its matrix); the
    envelope depends only on G^2 and Omega.  Vanishing of both — which
    happens identically for equal couplings at the bare resonance
    delta_cap = -delta_small in the bimodal system — means destructive
    interference: no two-photon resonance at all.
    """
    h11, h14, h44 = _entries(SystemKind.coerce(kind), params)
    return float(-h14), float(h11 - h44)


def closed_form_probability(kind: SystemKind | str, params: ModelParams, t):
    """Two-level envelope |c_f(t)|^2 = 4G^2/(4G^2+Omega^2) sin^2(sqrt(.)t/2).

    Returns exactly zero when both G and Omega vanish (the destructive
    interference limit).
    """
    big_g, big_omega = effective_g_omega(kind, params)
    t = np.asarray(t, dtype=float)
    rate2 = 4.0 * big_g * big_g + big_omega * big_omega
    if rate2 == 0.0:
        out = np.zeros_like(t)
    else:
        out = (4.0 * big_g * big_g / rate2
               * np.sin(np.sqrt(rate2) * t / 2.0) ** 2)
    return float(out) if out.ndim == 0 else out


def stark_shift_condition(kind: SystemKind | str, params: ModelParams,
                          delta_small: float) -> float:
    """Large-detuning resonance condition residual at the given detuning.

    Bimodal: delta_cap + delta + 4(g1^2/delta_cap + g2^2/delta) — each
    atom shifted by one photon's Stark shift.  Single-mode: the same with
    coefficient 3 (this equals the effective detuning Omega itself there).
    """
    kind = SystemKind.coerce(kind)
    D, g1, g2 = params.delta_cap, params.g1, params.g2
    _guard(D, "detuning D", 1.0)
    _guard(delta_small, "detuning d", 1.0)
    k = 4.0 if kind is SystemKind.BIMODAL else 3.0
    return D + delta_small + k * (g1**2 / D + g2**2 / delta_small)


def resonance_detuning(kind: SystemKind | str, params: ModelParams,
                       interval: tuple[float, float]) -> tuple[float, float | None]:
    """Locate the shifted two-photon resonance Omega(delta_small) = 0.

    Bisects the effective detuning over ``interval`` (all other parameters
    fixed) to an absolute tolerance well below 1e-8 and returns
    ``(delta_star, delta_star_stark)``: the root of Omega, and the root of
    the simpler Stark-shift condition (None if that form does not change
    sign on the interval).

    Raises
    ------
    NoRootInInterval
        If Omega does not change sign over the interval.
    """
    kind = SystemKind.coerce(kind)
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ConfigurationError(f"search interval must satisfy lo < hi, got {interval}")

    def omega_at(delta: float) -> float:
        return effective_g_omega(kind, params.replace(delta_small=delta))[1]

    f_lo, f_hi = omega_at(lo), omega_at(hi)
    if np.sign(f_lo) == np.sign(f_hi):
        raise NoRootInInterval(
            f"effective detuning does not change sign on [{lo}, {hi}] "
            f"(endpoint values {f_lo:.4g}, {f_hi:.4g})")
    root = _bisect(omega_at, lo, hi, f_lo)

    def stark_at(delta: float) -> float:
        return stark_shift_condition(kind, params, delta)

    stark_root = None
    s_lo, s_hi = stark_at(lo), stark_at(hi)
    if np.sign(s_lo) != np.sign(s_hi):
        stark_root = _bisect(stark_at, lo, hi, s_lo)

    return root, stark_root


def resolvent_effective_hamiltonian(params: ModelParams) -> np.ndarray:
    """Projector/resolvent construction of the bimodal effective 2x2 matrix.

    Splits the 6x6 Hamiltonian into its diagonal part and the coupling V,
    projects onto the quasi-degenerate pair (initial, two-photon), and
    assembles the second-order term

        A2 = P1 V Q1 V P1 + P4 V Q4 V P4 + P1 V Q4 V P4 + P4 V Q4 V P1,
        Qj = sum_{i not in pair} Pi / (Ej - Ei),

    plus the fourth-order term (P1+P4) V Q1 V Q1 V Q1 V (P1+P4), which is
    derived under exact pair degeneracy E1 = E4 (the bare two-photon
    resonance).  Away from that degeneracy the fourth-order term is used
    outside its derivation and a warning is issued.

    This is an independent route to the polynomial effective Hamiltonian
    and agrees with it to machine precision on the degeneracy shell.
    """
    p = params
    D, d, g1, g2 = p.delta_cap, p.delta_small, p.g1, p.g2
    if abs(D + d) > DEGENERACY_FRACTION * min(abs(D), abs(d)):
        warnings.warn(
            "initial and two-photon states are not quasi-degenerate "
            f"(|D + d| = {abs(D + d):.3g}); the fourth-order resolvent term "
            "is used outside its derivation domain", UserWarning, stacklevel=2)

    from .operators import build_hamiltonian   # local import avoids a cycle
    h = build_hamiltonian(SystemKind.BIMODAL, p, damped=False)
    energies = np.array([0.0, -D, -d, -(D + d), -2 * D, -2 * d])
    v = h - np.diag(energies)

    pair = (0, 3)
    rest = [i for i in range(6) if i not in pair]
    projectors = [np.diag((np.arange(6) == i).astype(float)) for i in range(6)]

    def q_at(energy: float) -> np.ndarray:
        q = np.zeros((6, 6))
        for i in rest:
            gap = energy - energies[i]
            _guard(gap, f"resolvent energy gap to intermediate state {i}",
                   max(abs(energy), abs(energies[i])))
            q += projectors[i] / gap
        return q

    p1, p4 = projectors[pair[0]], projectors[pair[1]]
    q1, q4 = q_at(energies[pair[0]]), q_at(energies[pair[1]])

    a2_full = (p1 @ v @ q1 @ v @ p1 + p4 @ v @ q4 @ v @ p4
               + p1 @ v @ q4 @ v @ p4 + p4 @ v @ q4 @ v @ p1)
    pr = p1 + p4
    a4_full = pr @ v @ q1 @ v @ q1 @ v @ q1 @ v @ pr

    idx = np.ix_(pair, pair)
    return np.diag(energies[list(pair)]) + a2_full[idx] + a4_full[idx]
