import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophoton import (ConfigurationError, ModelParams, NoRootInInterval,
                       PoleError, SingularityError, closed_form_probability,
                       effective_g_omega, effective_hamiltonian,
                       interference_amplitude, perturbative_probability,
                       resolvent_effective_hamiltonian, resonance_detuning,
                       stark_shift_condition)

P_DEEP = ModelParams(g2=1.5, delta_cap=-10.0, delta_small=9.5)


# ---------------------------------------------------------------------------
# reduction consistency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["bimodal", "single_mode"])
def test_scalars_match_matrix(kind):
    p = ModelParams(g2=1.5, delta_cap=-10.0, delta_small=9.5)
    eff = effective_hamiltonian(kind, p)
    big_g, big_omega = effective_g_omega(kind, p)
    assert big_g == -eff[0, 1]
    assert big_omega == eff[0, 0] - eff[1, 1]


def test_envelope_invariant_under_coupling_sign_flip():
    # |c_f|^2 depends on the off-diagonal only through its square
    p = P_DEEP
    eff = effective_hamiltonian("bimodal", p)
    t = np.linspace(0.0, 300.0, 601)

    def envelope(matrix):
        energies, vectors = np.linalg.eigh(matrix)
        c0 = np.array([1.0, 0.0])
        phases = np.exp(-1j * np.outer(t, energies))
        c = (phases * (vectors.T @ c0)) @ vectors.T
        return np.abs(c[:, 1]) ** 2

    flipped = eff.copy()
    flipped[0, 1] *= -1.0
    flipped[1, 0] *= -1.0
    assert np.max(np.abs(envelope(eff) - envelope(flipped))) < 1e-12


def test_polynomial_vs_resummed_difference_is_sixth_order():
    # on the bare-resonance shell the two tabulated forms differ only at
    # the sixth power of the couplings
    diffs = []
    gs = [0.1, 0.05, 0.025]
    for g1 in gs:
        p = ModelParams(g1=g1, g2=1.5 * g1, delta_cap=-5.0, delta_small=5.0)
        resummed = effective_hamiltonian("bimodal", p)
        poly = effective_hamiltonian("bimodal", p, form="polynomial")
        diffs.append(np.max(np.abs(resummed - poly)))
    slope = np.polyfit(np.log(gs), np.log(diffs), 1)[0]
    assert slope == pytest.approx(6.0, abs=0.2)


def test_polynomial_form_rejected_for_single_mode():
    with pytest.raises(ConfigurationError):
        effective_hamiltonian("single_mode", P_DEEP, form="polynomial")


# ---------------------------------------------------------------------------
# resolvent construction
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(delta=st.floats(min_value=2.0, max_value=10.0),
       ratio=st.floats(min_value=0.5, max_value=3.0))
def test_resolvent_matches_polynomial_on_shell(delta, ratio):
    p = ModelParams(g1=1.0, g2=ratio, delta_cap=-delta, delta_small=delta)
    via_resolvent = resolvent_effective_hamiltonian(p)
    poly = effective_hamiltonian("bimodal", p, form="polynomial")
    assert np.max(np.abs(via_resolvent - poly)) < 1e-12


def test_resolvent_terms_structure():
    p = ModelParams(g2=1.5, delta_cap=-7.0, delta_small=7.0)
    eff = resolvent_effective_hamiltonian(p)
    assert eff.shape == (2, 2)
    # hermitian on the degenerate shell
    assert np.max(np.abs(eff - eff.T)) < 1e-12


def test_resolvent_warns_off_shell():
    p = ModelParams(g2=1.5, delta_cap=-5.0, delta_small=3.5)
    with pytest.warns(UserWarning, match="quasi-degenerate"):
        resolvent_effective_hamiltonian(p)


# ---------------------------------------------------------------------------
# envelope and resonance
# ---------------------------------------------------------------------------

def test_closed_form_bounded():
    t = np.linspace(0.0, 100.0, 2001)
    for kind, p in (("bimodal", P_DEEP),
                    ("single_mode", ModelParams(g2=2.0, delta_cap=-7.0,
                                                delta_small=6.5))):
        prob = closed_form_probability(kind, p, t)
        assert np.all(prob >= 0.0)
        assert np.all(prob <= 1.0 + 1e-12)
        assert prob[0] == 0.0


def test_destructive_interference_limit_is_exact_zero():
    # equal couplings at opposite detunings: G and Omega both vanish and
    # the envelope is identically zero
    p = ModelParams(g1=1.0, g2=1.0, delta_cap=-10.0, delta_small=10.0)
    big_g, big_omega = effective_g_omega("bimodal", p)
    assert big_g == 0.0
    assert big_omega == 0.0
    prob = closed_form_probability("bimodal", p, np.linspace(0, 50, 501))
    assert np.all(prob == 0.0)


def test_resonance_detuning_deep_dispersive():
    p = ModelParams(g2=1.5, delta_cap=-10.0, delta_small=9.5)
    delta_star, delta_star_stark = resonance_detuning("bimodal", p, (8.0, 11.0))
    assert delta_star == pytest.approx(9.4668584, abs=1e-6)
    omega = effective_g_omega("bimodal", p.replace(delta_small=delta_star))[1]
    assert abs(omega) < 1e-8
    assert delta_star_stark == pytest.approx(9.4473520, abs=1e-6)
    # the bare condition delta = 10 is shifted down by the Stark terms
    assert delta_star < 10.0


def test_resonance_detuning_single_mode_matches_stark_form():
    # for the single-mode system the effective detuning IS the Stark form
    p = ModelParams(g1=0.2, g2=0.3, delta_cap=-10.0, delta_small=9.5)
    delta_star, delta_star_stark = resonance_detuning("single_mode", p,
                                                      (8.0, 11.0))
    assert delta_star_stark == pytest.approx(delta_star, abs=1e-8)


def test_resonance_requires_sign_change():
    p = ModelParams(g2=1.5, delta_cap=-5.0)
    with pytest.raises(NoRootInInterval):
        resonance_detuning("bimodal", p, (2.5, 4.5))


def test_resonance_bad_interval():
    with pytest.raises(ConfigurationError):
        resonance_detuning("bimodal", P_DEEP, (11.0, 8.0))


def test_stark_shift_condition_coefficients():
    p = ModelParams(g1=1.0, g2=1.5, delta_cap=-10.0)
    bimodal = stark_shift_condition("bimodal", p, 9.0)
    single = stark_shift_condition("single_mode", p, 9.0)
    base = -10.0 + 9.0
    unit = 1.0 / -10.0 + 2.25 / 9.0
    assert bimodal == pytest.approx(base + 4.0 * unit)
    assert single == pytest.approx(base + 3.0 * unit)


# ---------------------------------------------------------------------------
# perturbative limit
# ---------------------------------------------------------------------------

def test_perturbative_scalar_time():
    p = ModelParams(g1=0.1, g2=0.1, delta_cap=-10.0, delta_small=10.0)
    out = perturbative_probability("bimodal", p, 1.0)
    assert isinstance(out, float)


def test_perturbative_pole():
    with pytest.raises(PoleError):
        perturbative_probability(
            "bimodal", ModelParams(g2=1.5, delta_cap=0.0, delta_small=3.5), 1.0)


# ---------------------------------------------------------------------------
# interference amplitude
# ---------------------------------------------------------------------------

dyadic = st.integers(min_value=1, max_value=2**20)


@settings(max_examples=200, deadline=None)
@given(omega_n=dyadic, split_n=dyadic,
       d1=st.floats(min_value=0.1, max_value=10.0),
       d2=st.floats(min_value=0.1, max_value=10.0))
def test_interference_cancels_exactly_on_shell(omega_n, split_n, d1, d2):
    omega = omega_n / 2.0 ** 10
    split = split_n / 2.0 ** 10
    amplitude = interference_amplitude(omega + split, omega - split, omega,
                                       d1, d2)
    assert amplitude == 0.0


def test_interference_symmetric_in_transitions():
    assert interference_amplitude(5.0, 3.0, 2.0) == \
        interference_amplitude(3.0, 5.0, 2.0)


def test_interference_off_shell_value():
    # detunings 1 and 2: 1/1 + 1/2 = 1.5, times the dipole weights
    assert interference_amplitude(3.0, 4.0, 2.0, d1=2.0, d2=0.5) \
        == pytest.approx(1.5)


def test_interference_pole():
    with pytest.raises(PoleError):
        interference_amplitude(2.0, 4.0, 2.0)


# ---------------------------------------------------------------------------
# singular parameter handling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("route", [
    effective_hamiltonian,
    effective_g_omega,
], ids=["effective_hamiltonian", "effective_g_omega"])
def test_resummed_singular_at_one_photon_crossing(route):
    # every route to the effective model shares the resummed guards
    p = ModelParams(g2=1.5, delta_cap=np.sqrt(2.0), delta_small=7.0)
    with pytest.raises(SingularityError):
        route("bimodal", p)


def test_polynomial_singular_at_zero_detuning():
    p = ModelParams(g2=1.5, delta_cap=0.0, delta_small=7.0)
    with pytest.raises(SingularityError):
        effective_hamiltonian("bimodal", p, form="polynomial")


def test_literal_single_mode_denominator_can_vanish():
    # a linear-detuning transcription D + 2 g1^2 of the single-mode
    # denominator vanishes at D = -2 g1^2; the quadratic form stays finite
    p = ModelParams(g1=1.0, g2=1.5, delta_cap=-2.0, delta_small=6.0)
    assert np.all(np.isfinite(effective_hamiltonian("single_mode", p)))


def test_bad_variant_rejected():
    with pytest.raises(ConfigurationError):
        effective_hamiltonian("bimodal", P_DEEP, form="other")
