"""Mean-vector construction: phases, PRI delays, eta parameterization.

The analytic mean Jacobian is checked column-by-column against central
differences of mean_from_eta; that finite-difference oracle is what the
information-matrix layer ultimately rests on.
"""

import numpy as np
import pytest

from isacbounds.model import (
    ConfigError,
    Decoupling,
    LeakageError,
    ModulationConfig,
    Scheme,
    eta_layout_for,
    sample_pulse,
)
from isacbounds.signals import (
    bound_bits,
    eta_point,
    mean_from_eta,
    mean_jacobian,
    mean_vector,
    n_slots,
    phase_values,
    pri_delays,
)
from isacbounds.experiments import reference_scenario

from conftest import ALL_KINDS, make_modulation

TWO_PI = 2.0 * np.pi


def test_bound_bits_pattern():
    sc = reference_scenario(n_f=4, n_paths=1)
    mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=1, d_data=3)
    np.testing.assert_array_equal(bound_bits(sc, mod), [0, 1, 1, 1])
    np.testing.assert_array_equal(
        bound_bits(sc, ModulationConfig(Scheme.SENSING)), [0, 0, 0, 0])
    np.testing.assert_array_equal(
        bound_bits(sc, ModulationConfig(Scheme.BPSK, d_data=4)), [1, 1, 1, 1])


def test_phase_values_closed_form():
    sc = reference_scenario(n_f=3, n_paths=2, dopplers=(100.0, -250.0))
    mod = ModulationConfig(Scheme.BPSK, Decoupling.PILOT, p_pilots=1, d_data=2)
    bits = np.array([0, 1, 0])
    phi = phase_values(sc, mod, bits=bits)
    assert phi.shape == (3, 2)
    for k in range(3):
        for l, p in enumerate(sc.paths):
            want = TWO_PI * (p.f_dl * k * sc.t_f - sc.f_c * p.tau_l0) \
                - mod.xi_bpsk * bits[k]
            assert phi[k, l] == pytest.approx(want, rel=1e-12)


def test_phase_values_ppm_does_not_touch_phase():
    sc = reference_scenario(n_f=2, n_paths=1)
    raw = phase_values(sc, ModulationConfig(Scheme.SENSING))
    ppm = phase_values(sc, ModulationConfig(Scheme.PPM, d_data=2))
    np.testing.assert_allclose(ppm, raw, rtol=0, atol=0)


def test_pri_delays_ppm_shift():
    sc = reference_scenario(n_f=4, n_paths=2)
    mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, xi_ppm=2e-9,
                           p_pilots=2, d_data=2)
    d = pri_delays(sc, mod)
    taus = np.array([p.tau_l0 for p in sc.paths])
    np.testing.assert_allclose(d[0], taus, rtol=1e-15)
    np.testing.assert_allclose(d[1], taus, rtol=1e-15)
    np.testing.assert_allclose(d[2], taus + 2e-9, rtol=1e-15)
    np.testing.assert_allclose(d[3], taus + 2e-9, rtol=1e-15)
    # BPSK never moves the envelope
    b = pri_delays(sc, ModulationConfig(Scheme.BPSK, Decoupling.PILOT,
                                        p_pilots=2, d_data=2))
    np.testing.assert_allclose(b, np.broadcast_to(taus, (4, 2)), rtol=1e-15)


def test_bits_validation():
    sc = reference_scenario(n_f=2, n_paths=1)
    mod = ModulationConfig(Scheme.BPSK, Decoupling.PILOT, p_pilots=1, d_data=1)
    with pytest.raises(ConfigError):
        mean_vector(sc, mod, bits=np.array([1]))
    with pytest.raises(ConfigError):
        mean_vector(sc, mod, bits=np.array([0.5, 1.0]))
    with pytest.raises(ConfigError):
        mean_vector(sc, mod, bits=np.array([1, 1]))  # pilot PRI must be 0
    with pytest.raises(ConfigError):
        mean_vector(sc, ModulationConfig(Scheme.SENSING), bits=np.array([0, 1]))


def test_n_slots_counts_reference_pulse():
    sc = reference_scenario(n_f=4, n_paths=1)
    assert n_slots(sc, ModulationConfig(Scheme.SENSING)) == 4
    assert n_slots(sc, ModulationConfig(Scheme.PPM, Decoupling.DIFFERENTIAL)) == 5


def test_mean_vector_single_path_structure():
    sc = reference_scenario(n_f=3, n_paths=1, dopplers=(500.0,))
    mod = ModulationConfig(Scheme.PPM, d_data=3)
    mu = mean_vector(sc, mod).reshape(3, sc.n_s)
    phi = phase_values(sc, mod)
    delays = pri_delays(sc, mod)
    amp = sc.paths[0].amp
    for k in range(3):
        want = amp * np.exp(1j * phi[k, 0]) * sample_pulse(sc.pulse, delays[k, 0], sc)
        np.testing.assert_allclose(mu[k], want, rtol=1e-12, atol=1e-15)


def test_mean_vector_slot_energy_is_sum_of_path_energies():
    # paths are > 12 alpha apart, so cross terms are negligible
    sc = reference_scenario(n_f=2, n_paths=3)
    mu = mean_vector(sc, ModulationConfig(Scheme.SENSING)).reshape(2, sc.n_s)
    want = sum(p.amp ** 2 for p in sc.paths)
    for k in range(2):
        got = np.sum(np.abs(mu[k]) ** 2) / sc.f_s
        assert got == pytest.approx(want, rel=1e-2)


def test_differential_reference_slot():
    sc = reference_scenario(n_f=2, n_paths=2)
    mod = ModulationConfig(Scheme.PPM, Decoupling.DIFFERENTIAL)
    mu = mean_vector(sc, mod).reshape(3, sc.n_s)
    want = np.zeros(sc.n_s, dtype=complex)
    for p in sc.paths:
        want += p.amp * np.exp(-1j * TWO_PI * sc.f_c * p.tau_l0) \
            * sample_pulse(sc.pulse, p.tau_l0, sc)
    np.testing.assert_allclose(mu[0], want, rtol=1e-12, atol=1e-15)
    # data slots carry the PPM-shifted pulses
    assert np.argmax(np.abs(mu[1])) > np.argmax(np.abs(mu[0]))


@pytest.mark.parametrize("kind", ["ppm-raw", "bpsk-pilot", "ppm-diff"])
def test_mean_vector_mixed_word_is_explicit_path_sum(kind):
    n_f = 4
    sc = reference_scenario(n_f=n_f, n_paths=3, dopplers=(100.0, -250.0, 40.0))
    mod = make_modulation(kind, n_f)
    bits = np.array([0, 1, 0, 1])
    bits[:mod.p_pilots] = 0  # pilot PRIs are unmodulated
    mu = mean_vector(sc, mod, bits=bits).reshape(n_slots(sc, mod), sc.n_s)
    want = np.zeros_like(mu)
    offset = 1 if mod.decoupling == Decoupling.DIFFERENTIAL else 0
    for l, p in enumerate(sc.paths):
        if offset:
            want[0] += p.amp * np.exp(-1j * TWO_PI * sc.f_c * p.tau_l0) \
                * sample_pulse(sc.pulse, p.tau_l0, sc)
        for k in range(n_f):
            tau, phi = p.tau_l0, TWO_PI * (p.f_dl * k * sc.t_f - sc.f_c * p.tau_l0)
            if mod.scheme == Scheme.PPM:
                tau += mod.xi_ppm * bits[k]
            else:
                phi -= mod.xi_bpsk * bits[k]
            want[k + offset] += p.amp * np.exp(1j * phi) * sample_pulse(sc.pulse, tau, sc)
    np.testing.assert_allclose(mu, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mean_from_eta_at_operating_point(kind):
    n_f = 2
    sc = reference_scenario(n_f=n_f, n_paths=2, dopplers=(100.0, -50.0))
    mod = make_modulation(kind, n_f)
    mu_direct = mean_vector(sc, mod)
    mu_eta = mean_from_eta(sc, mod, eta_point(sc, mod))
    np.testing.assert_allclose(mu_eta, mu_direct, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mean_jacobian_matches_central_differences(kind):
    n_f = 2
    sc = reference_scenario(n_f=n_f, n_paths=2)
    mod = make_modulation(kind, n_f)
    lay = eta_layout_for(sc, mod)
    eta = eta_point(sc, mod)
    jac = mean_jacobian(sc, mod)
    assert jac.shape == (mean_vector(sc, mod).size, lay.size)
    steps = {"tau": 1e-13, "t_": 1e-13, "phi": 1e-7, "amp": 1e-7}
    for i, name in enumerate(lay.names):
        h = next(v for k, v in steps.items() if name.startswith(k))
        up, dn = eta.copy(), eta.copy()
        up[i] += h
        dn[i] -= h
        fd = (mean_from_eta(sc, mod, up) - mean_from_eta(sc, mod, dn)) / (2 * h)
        scale = max(np.max(np.abs(fd)), 1.0)
        np.testing.assert_allclose(jac[:, i], fd, rtol=3e-5, atol=3e-6 * scale,
                                   err_msg=f"column {name}")


def test_eta_point_contents_pilot_ppm():
    sc = reference_scenario(n_f=2, n_paths=2)
    mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, xi_ppm=2e-9,
                           p_pilots=1, d_data=1)
    lay = eta_layout_for(sc, mod)
    eta = eta_point(sc, mod)
    taus = np.array([p.tau_l0 for p in sc.paths])
    np.testing.assert_allclose(eta[lay.block_slice("tau_p")], taus, rtol=1e-15)
    np.testing.assert_allclose(eta[lay.block_slice("tau_d")], taus + 2e-9, rtol=1e-15)
    amps = np.array([p.amp for p in sc.paths])
    np.testing.assert_allclose(eta[lay.block_slice("amp_p")], amps, rtol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mean_from_eta_rejects_delay_past_the_pri(kind):
    n_f = 2
    sc = reference_scenario(n_f=n_f, n_paths=2)
    mod = make_modulation(kind, n_f)
    lay = eta_layout_for(sc, mod)
    delay = next(i for i, name in enumerate(lay.names) if name.startswith(("tau", "t_")))
    for value in (sc.t_f - 5 * sc.pulse.alpha, -1e-12):
        eta = eta_point(sc, mod)
        eta[delay] = value
        with pytest.raises(LeakageError):
            mean_from_eta(sc, mod, eta)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mean_from_eta_slots_are_rows_of_the_whole_frame(kind):
    n_f = 3
    sc = reference_scenario(n_f=n_f, n_paths=2, dopplers=(100.0, -50.0))
    mod = make_modulation(kind, n_f)
    eta = eta_point(sc, mod)
    whole = mean_from_eta(sc, mod, eta).reshape(-1, sc.n_s)
    last = whole.shape[0] - 1
    for slots in ([0], [last, 0], [1, 1], range(last + 1), np.array([last], dtype=np.uint8),
                  np.array([], dtype=int)):
        got = mean_from_eta(sc, mod, eta, slots)
        np.testing.assert_array_equal(got, whole[list(slots)].ravel(), err_msg=str(slots))
    for bad in ([last + 1], [-1], [0.0], [True], "0", [[0]], 0):
        with pytest.raises(ConfigError):
            mean_from_eta(sc, mod, eta, bad)
