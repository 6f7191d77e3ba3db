"""Fast end-to-end consistency checks, runnable via ``twophoton selfcheck``.

Each check exercises one independent cross-validation of the engine
(damped basis embedding the coherent sector, stepping integrator vs exact
diagonalization, damped vs coherent sector, damped top excitation block vs
the no-jump amplitude problem, resolvent vs tabulated effective matrix,
exact interference cancellation, destructive-interference suppression).
The whole suite runs in a few tenths of a second; it is a smoke test, not
the full test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import enumerate_basis
from .effective import (closed_form_probability, effective_hamiltonian,
                        interference_amplitude,
                        resolvent_effective_hamiltonian)
from .integrate import validate_grid
from .lindblad import evolve_density, evolve_population
from .operators import (build_hamiltonian, damped_operators,
                        embed_unitary_sector, excitation_numbers)
from .params import ModelParams, SystemKind
from .unitary import evolve_amplitudes, evolve_probability, expm_series


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_embedding() -> CheckResult:
    worst = 0.0
    for kind in SystemKind:
        params = ModelParams(g2=1.7, delta_cap=-4.0, delta_small=3.0)
        v = embed_unitary_sector(kind)
        hd = build_hamiltonian(kind, params, damped=True)
        hu = build_hamiltonian(kind, params, damped=False)
        worst = max(worst, float(np.max(np.abs(v.T @ hd @ v - hu))),
                    float(np.max(np.abs(v.T @ v - np.eye(v.shape[1])))))
    return CheckResult("damped sector embeds the coherent sector",
                       worst <= 1e-12, f"max deviation {worst:.2e}")


def _check_integrator() -> CheckResult:
    worst = 0.0
    grid = np.linspace(0.0, 10.0, 101)
    cases = [
        (SystemKind.BIMODAL, ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5)),
        (SystemKind.BIMODAL, ModelParams(g2=2.5, delta_cap=8.0, delta_small=-7.5)),
        (SystemKind.SINGLE_MODE, ModelParams(g2=2.0, delta_cap=-5.0, delta_small=2.75)),
    ]
    for kind, params in cases:
        stepped = evolve_amplitudes(kind, params, grid)
        exact = expm_series(kind, params, grid)
        worst = max(worst, float(np.max(np.abs(stepped.values - exact.values))))
    return CheckResult("stepping integrator matches exact diagonalization",
                       worst <= 1e-12, f"max amplitude deviation {worst:.2e}")


def _check_undamped_density() -> CheckResult:
    kind = SystemKind.BIMODAL
    params = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5)
    grid = np.linspace(0.0, 5.0, 51)
    damped = evolve_population(kind, params, grid).values
    coherent = evolve_probability(kind, params, grid).values
    worst = float(np.max(np.abs(damped - coherent)))
    return CheckResult("undamped master equation reproduces coherent dynamics",
                       worst <= 1e-12, f"max population deviation {worst:.2e}")


def no_jump_deviation(kind: SystemKind | str, params: ModelParams,
                      grid) -> float:
    """Max deviation of the damped engine's top excitation block from psi psi^+.

    No jump feeds the top block N = 2, so there rho = psi psi^+ with
    psi' = -i(H - i sum_m kappa_m a_m^+ a_m) psi from the initial state
    (Plenio & Knight, RMP 70, 101, 1998), solved here by ``np.linalg.eig``.
    """
    kind = SystemKind.coerce(kind)
    basis = enumerate_basis(kind, damped=True)
    n = excitation_numbers(basis)
    top = np.flatnonzero(n == n.max())
    h, jumps = damped_operators(kind, params)
    h_eff = h.astype(complex)
    for kappa, c in zip((params.kappa_a, params.kappa_b), jumps):
        h_eff -= 1j * kappa * (c.T @ c)
    lam, vec = np.linalg.eig(h_eff[np.ix_(top, top)])
    coeff = np.linalg.solve(vec, (top == basis.initial_index).astype(complex))
    grid = validate_grid(grid)
    psi = (np.exp(-1j * np.outer(grid - grid[0], lam)) * coeff) @ vec.T
    rho = evolve_density(kind, params, grid).values[:, top[:, None], top]
    return float(np.max(np.abs(rho - psi[:, :, None] * psi[:, None, :].conj())))


def _check_no_jump() -> CheckResult:
    grid = np.linspace(0.0, 5.0, 51)
    cases = [
        (SystemKind.BIMODAL, ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5,
                                         kappa_a=0.1, kappa_b=0.1)),
        (SystemKind.SINGLE_MODE, ModelParams(g2=2.0, delta_cap=-5.0,
                                             delta_small=2.75, kappa_a=0.1)),
    ]
    worst = max(no_jump_deviation(kind, params, grid) for kind, params in cases)
    return CheckResult("damped top block matches no-jump amplitude evolution",
                       worst <= 1e-10, f"max entry deviation {worst:.2e}")


def _check_resolvent() -> CheckResult:
    params = ModelParams(g2=1.5, delta_cap=-7.0, delta_small=7.0)
    via_resolvent = resolvent_effective_hamiltonian(params)
    tabulated = effective_hamiltonian(SystemKind.BIMODAL, params,
                                      form="polynomial")
    worst = float(np.max(np.abs(via_resolvent - tabulated)))
    return CheckResult("resolvent construction matches fourth-order matrix",
                       worst <= 1e-12, f"max entry deviation {worst:.2e}")


def _check_interference() -> CheckResult:
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(200):
        # dyadic offsets keep the two-photon shell exact in floating point
        omega = rng.integers(1, 2**20) / 2.0**10
        split = rng.integers(1, 2**19) / 2.0**10
        worst = max(worst, abs(interference_amplitude(
            omega + split, omega - split, omega)))
    return CheckResult("on-shell interference cancels exactly",
                       worst == 0.0, f"max |amplitude| {worst:.2e}")


def _check_destructive_limit() -> CheckResult:
    params = ModelParams(g1=1.0, g2=1.0, delta_cap=-10.0, delta_small=10.0)
    grid = np.linspace(0.0, 20.0, 2001)
    closed = closed_form_probability(SystemKind.BIMODAL, params, grid)
    series = evolve_probability(SystemKind.BIMODAL, params, grid)
    peak = float(np.max(series.values))
    ok = float(np.max(np.abs(closed))) == 0.0 and peak <= 0.01
    return CheckResult("equal couplings at opposite detunings suppress emission",
                       ok, f"exact peak {peak:.2e}, envelope identically 0")


def run_selfcheck() -> list[CheckResult]:
    """Run all checks; returns their results (never raises on failure)."""
    checks = (_check_embedding, _check_integrator, _check_undamped_density,
              _check_no_jump, _check_resolvent, _check_interference,
              _check_destructive_limit)
    results = []
    for check in checks:
        try:
            results.append(check())
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            results.append(CheckResult(check.__name__, False,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results
