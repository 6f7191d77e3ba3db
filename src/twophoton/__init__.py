"""Two-photon vacuum Rabi dynamics of atom pairs in high-quality cavities.

A small simulation engine for the cooperative emission of two photons by
two atoms — identical atoms in a two-mode cavity or nonidentical atoms
sharing a single mode — covering exact amplitude dynamics in the closed
sector, dispersive effective-model reductions, and density-matrix dynamics
under cavity photon loss, plus reference experiments and a CLI
(``twophoton``).
"""

from .basis import Basis, BasisState, enumerate_basis
from .effective import (POLYNOMIAL, RESUMMED, closed_form_probability,
                        effective_g_omega, effective_hamiltonian,
                        interference_amplitude, perturbative_probability,
                        resolvent_effective_hamiltonian, resonance_detuning,
                        stark_shift_condition)
from .errors import (ConfigurationError, NoRootInInterval,
                     NumericalInvariantError, PoleError, SingularityError,
                     TwoPhotonError)
from .experiments import (ResonanceReport, SweepResult, SweepSpec,
                          damping_sweep, default_horizon, resonance_report,
                          scan_two_photon, time_grid)
from .lindblad import evolve_density, evolve_population, lindblad_rhs
from .operators import (build_hamiltonian, embed_unitary_sector,
                        excitation_numbers, spectrum_lines)
from .params import ModelParams, SystemKind
from .unitary import (TimeSeries, evolve_amplitudes, evolve_probability,
                      expm_series)


def __getattr__(name: str):
    if name == "__version__":     # looked up on first use: it loads importlib.metadata
        from .experiments import engine_version
        return engine_version()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Basis", "BasisState", "enumerate_basis",
    "POLYNOMIAL", "RESUMMED",
    "closed_form_probability", "effective_g_omega", "effective_hamiltonian",
    "interference_amplitude", "perturbative_probability",
    "resolvent_effective_hamiltonian", "resonance_detuning",
    "stark_shift_condition",
    "ConfigurationError", "NoRootInInterval", "NumericalInvariantError",
    "PoleError", "SingularityError", "TwoPhotonError",
    "ResonanceReport", "SweepResult", "SweepSpec", "damping_sweep",
    "default_horizon", "resonance_report", "scan_two_photon", "time_grid",
    "evolve_density", "evolve_population", "lindblad_rhs",
    "build_hamiltonian", "embed_unitary_sector",
    "excitation_numbers", "spectrum_lines",
    "ModelParams", "SystemKind",
    "TimeSeries", "evolve_amplitudes", "evolve_probability", "expm_series",
]
