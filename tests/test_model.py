"""Pulse model, scenario validation, layouts, and the regulatory check.

The quadrature oracles here integrate an independently written Gaussian with
scipy.integrate.quad and compare against the closed forms the package uses.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from isacbounds.model import (
    ConfigError,
    Decoupling,
    LeakageError,
    ModulationConfig,
    PathState,
    PulseShape,
    ScenarioConfig,
    Scheme,
    amp_for_snr,
    check_regulatory,
    data_pri_count,
    effective_bandwidth,
    eta_layout,
    eta_layout_for,
    eta_size,
    pulse_time_derivative,
    received_snr,
    sample_pulse,
    theta_layout,
    time_grid,
    validate_modulation,
)
from isacbounds.experiments import reference_scenario

from conftest import ALL_KINDS, make_modulation

ALPHA = 0.2e-9


def _gauss(t, alpha=ALPHA):
    # independent definition of the unit-energy pulse, for quadrature oracles
    return (alpha * math.sqrt(math.pi)) ** -0.5 * np.exp(-(t ** 2) / (2 * alpha ** 2))


def _scenario(**overrides):
    base = dict(f_c=3993.6e6, t_f=100e-9, n_f=2, f_s=10e9, sigma2=1.0,
                paths=(PathState(20e-9),), pulse=PulseShape())
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------- pulse shape

def test_pulse_energy_quadrature_oracle():
    val, err = quad(lambda t: _gauss(t) ** 2, -10 * ALPHA, 10 * ALPHA)
    assert err < 1e-12
    assert val == pytest.approx(1.0, rel=1e-10)


def test_pulse_derivative_energy_quadrature_oracle():
    # d/dt of the Gaussian, written out independently
    dg = lambda t: -(t / ALPHA ** 2) * _gauss(t)
    val, err = quad(lambda t: dg(t) ** 2, -10 * ALPHA, 10 * ALPHA)
    assert err < 1e-6 * val
    assert val == pytest.approx(1.0 / (2 * ALPHA ** 2), rel=1e-9)
    B = effective_bandwidth(PulseShape(alpha=ALPHA))
    assert (2 * math.pi * B) ** 2 == pytest.approx(val, rel=1e-9)


def test_effective_bandwidth_frequency_domain_oracle():
    # |W(f)|^2 of the Gaussian is proportional to exp(-(2 pi f alpha)^2);
    # the mean-square bandwidth is the normalized second moment of that.
    wsq = lambda f: np.exp(-((2 * math.pi * f * ALPHA) ** 2))
    hi = 5.0 / ALPHA
    num, _ = quad(lambda f: f ** 2 * wsq(f), -hi, hi)
    den, _ = quad(wsq, -hi, hi)
    assert math.sqrt(num / den) == pytest.approx(effective_bandwidth(PulseShape()), rel=1e-9)
    # closed form: 1 / (2 sqrt(2) pi alpha)
    assert effective_bandwidth(PulseShape()) == pytest.approx(
        1.0 / (2 * math.sqrt(2) * math.pi * ALPHA), rel=1e-12)


def test_pulse_peak_value():
    shape = PulseShape()
    assert shape.peak() == pytest.approx((ALPHA * math.sqrt(math.pi)) ** -0.5, rel=1e-12)
    assert shape.peak() == pytest.approx(53112.5966, rel=1e-8)


def test_sampled_pulse_matches_analytic_and_normalizes():
    sc = _scenario()
    w = sample_pulse(sc.pulse, 20e-9, sc)
    t = time_grid(sc)
    assert w.shape == (sc.n_s,)
    np.testing.assert_allclose(w, _gauss(t - 20e-9), rtol=0, atol=1e-9 * sc.pulse.peak())
    assert np.sum(w ** 2) / sc.f_s == pytest.approx(1.0, rel=1e-12)


def test_sample_pulse_integer_shift_property():
    sc = _scenario()
    base = sample_pulse(sc.pulse, 20e-9, sc)
    shifted = sample_pulse(sc.pulse, 20e-9 + 7 / sc.f_s, sc)
    np.testing.assert_allclose(shifted, np.roll(base, 7), rtol=0,
                               atol=1e-12 * sc.pulse.peak())


def test_sample_pulse_edge_behaviour():
    sc = _scenario()
    # centered at zero: allowed, half the energy is clipped
    w0 = sample_pulse(sc.pulse, 0.0, sc)
    assert 0.4 < np.sum(w0 ** 2) / sc.f_s < 0.75
    with pytest.raises(LeakageError):
        sample_pulse(sc.pulse, -1e-12, sc)
    with pytest.raises(LeakageError):
        sample_pulse(sc.pulse, sc.t_f - 5 * ALPHA, sc)
    for sampler in (sample_pulse, pulse_time_derivative):
        with pytest.raises(LeakageError):
            sampler(sc.pulse, float("nan"), sc)
        with pytest.raises(LeakageError):
            sampler(sc.pulse, [20e-9, float("nan")], sc)


def test_pulse_samplers_take_an_array_of_centers():
    sc = _scenario()
    taus = np.array([[20e-9, 45.5e-9, 70e-9], [0.0, 33e-9, 90e-9]])
    for sampler in (sample_pulse, pulse_time_derivative):
        got = sampler(sc.pulse, taus, sc)
        assert got.shape == taus.shape + (sc.n_s,)
        want = np.array([[sampler(sc.pulse, t, sc) for t in row] for row in taus])
        np.testing.assert_array_equal(got, want)
    with pytest.raises(LeakageError):
        sample_pulse(sc.pulse, [20e-9, sc.t_f - 5 * ALPHA], sc)


def test_pulse_time_derivative_matches_finite_difference():
    sc = _scenario()
    tau, h = 20e-9, 1e-14
    fd = (sample_pulse(sc.pulse, tau + h, sc) - sample_pulse(sc.pulse, tau - h, sc)) / (2 * h)
    an = pulse_time_derivative(sc.pulse, tau, sc)
    np.testing.assert_allclose(an, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(an)))


# ------------------------------------------------------------------ SNR model

def test_received_snr_reference_value():
    sc = _scenario(paths=(PathState(20e-9, amp=1.0),))
    # unit-energy pulse, amp 1, t_f = 100 ns, sigma2 = 1  ->  1e7
    assert received_snr(sc, sc.paths[0]) == pytest.approx(1e7, rel=1e-9)


def test_amp_for_snr_round_trip():
    for snr in (1.0, 10.0, 123.4):
        a = amp_for_snr(snr, 100e-9, 2.0)
        sc = _scenario(sigma2=2.0, paths=(PathState(20e-9, amp=a),))
        assert received_snr(sc, sc.paths[0]) == pytest.approx(snr, rel=1e-9)


@given(amp=st.floats(1e-4, 1e2), sigma2=st.floats(1e-3, 1e3))
@settings(max_examples=40, deadline=None)
def test_received_snr_bilinear_in_amp_and_noise(amp, sigma2):
    sc = _scenario(sigma2=sigma2, paths=(PathState(20e-9, amp=amp),))
    base = _scenario(paths=(PathState(20e-9, amp=1.0),))
    got = received_snr(sc, sc.paths[0])
    ref = received_snr(base, base.paths[0])
    assert got == pytest.approx(ref * amp ** 2 / sigma2, rel=1e-9)


@given(alpha=st.floats(0.15e-9, 0.35e-9))
@settings(max_examples=40, deadline=None)
def test_pulse_energy_normalized_over_widths(alpha):
    sc = _scenario(pulse=PulseShape(alpha=alpha))
    w = sample_pulse(sc.pulse, 50e-9, sc)
    assert np.sum(w ** 2) / sc.f_s == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------- scenario checking

def test_scenario_rejects_bad_geometry():
    with pytest.raises(ConfigError):
        _scenario(paths=(PathState(40e-9), PathState(20e-9)))
    with pytest.raises(ConfigError):
        _scenario(paths=(PathState(20e-9), PathState(21e-9)))  # < 12 alpha apart
    with pytest.raises(LeakageError):
        _scenario(paths=(PathState(99e-9),))  # support leaks past the PRI


@pytest.mark.parametrize("field,value", [
    ("sigma2", 0.0), ("sigma2", -1.0), ("t_f", 0.0), ("f_s", -1.0),
    ("n_f", 0), ("f_c", -1.0),
    ("f_c", math.inf), ("t_f", math.inf), ("f_s", math.inf), ("sigma2", math.inf),
])
def test_scenario_rejects_bad_scalars(field, value):
    with pytest.raises(ConfigError):
        _scenario(**{field: value})


@pytest.mark.parametrize("record,kwargs", [
    (PathState, dict(tau_l0=20e-9, f_dl=math.nan)),
    (PathState, dict(tau_l0=20e-9, f_dl=math.inf)),
    (PathState, dict(tau_l0=20e-9, amp=math.inf)),
    (PulseShape, dict(e_tb=math.inf)),
    (ModulationConfig, dict(scheme=Scheme.BPSK, xi_bpsk=math.nan)),
    (ModulationConfig, dict(scheme=Scheme.BPSK, xi_bpsk=math.inf)),
], ids=lambda v: getattr(v, "__name__", None) or "-".join(f"{k}={x}" for k, x in v.items()))
def test_records_reject_non_finite_inputs(record, kwargs):
    with pytest.raises(ConfigError, match="finite"):
        record(**kwargs)


def test_scenario_reports_sizes():
    sc = _scenario()
    assert sc.n_s == 1000
    assert sc.n_paths == 1
    grid = time_grid(sc)
    assert grid.shape == (1000,)
    assert grid[0] == 0.0
    assert grid[1] == pytest.approx(1e-10)


def test_modulation_invariants():
    with pytest.raises(ConfigError):
        ModulationConfig(Scheme.SENSING, Decoupling.PILOT, p_pilots=1, d_data=1)
    with pytest.raises(ConfigError):
        ModulationConfig(Scheme.BPSK, Decoupling.DIFFERENTIAL)
    with pytest.raises(ConfigError):
        ModulationConfig(Scheme.PPM, xi_ppm=-1e-9)
    with pytest.raises(ConfigError):
        ModulationConfig(Scheme.BPSK, xi_bpsk=0.0)
    with pytest.raises(ConfigError):
        ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=0, d_data=4)
    with pytest.raises(ConfigError):
        ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=2, d_data=-1)


def test_validate_modulation_frame_split():
    sc = _scenario(n_f=4)
    validate_modulation(sc, ModulationConfig(Scheme.PPM, Decoupling.PILOT,
                                             p_pilots=2, d_data=2))
    with pytest.raises(ConfigError):
        validate_modulation(sc, ModulationConfig(Scheme.PPM, Decoupling.PILOT,
                                                 p_pilots=2, d_data=3))
    with pytest.raises(ConfigError):
        # without a pilot split d_data must be 0 or n_f
        validate_modulation(sc, ModulationConfig(Scheme.PPM, d_data=3))
    with pytest.raises(ConfigError):
        # stale pilot count on an undecoupled frame
        validate_modulation(sc, ModulationConfig(Scheme.PPM, Decoupling.NONE,
                                                 p_pilots=1, d_data=3))


def test_validate_modulation_ppm_leakage():
    sc = _scenario(paths=(PathState(97.2e-9),))
    validate_modulation(sc, ModulationConfig(Scheme.BPSK, d_data=2))
    with pytest.raises(LeakageError):
        validate_modulation(sc, ModulationConfig(Scheme.PPM, xi_ppm=2e-9, d_data=2))


def test_data_pri_count():
    sc = _scenario(n_f=8)
    assert data_pri_count(sc, ModulationConfig(Scheme.SENSING)) == 0
    assert data_pri_count(sc, ModulationConfig(Scheme.PPM, Decoupling.PILOT,
                                               p_pilots=3, d_data=5)) == 5
    assert data_pri_count(sc, ModulationConfig(Scheme.BPSK, d_data=8)) == 8
    assert data_pri_count(sc, ModulationConfig(Scheme.PPM, Decoupling.DIFFERENTIAL)) == 8


# --------------------------------------------------------------------- layouts

def test_theta_layout_structures():
    lay = theta_layout(Scheme.SENSING, 3)
    assert lay.names == ("tau1", "dtau_2", "dtau_3", "fd1", "dfd_2", "dfd_3",
                         "amp_1", "amp_2", "amp_3")
    assert lay.block_bounds["delay"] == (0, 3)
    assert lay.block_bounds["doppler"] == (3, 6)

    lay = theta_layout(Scheme.PPM, 3)
    assert lay.names[3] == "dtau_q"
    assert lay.block_bounds["delay"] == (0, 4)
    assert lay.block_bounds["dtau_q"] == (3, 4)

    lay = theta_layout(Scheme.BPSK, 2)
    assert "phi_bpsk" in lay.names
    i = lay.names.index("phi_bpsk")
    assert lay.block_bounds["phi_bpsk"] == (i, i + 1)
    assert lay.block_size("amp") == 2
    assert lay.block_slice("amp") == slice(lay.size - 2, lay.size)


def test_eta_layout_structures():
    lay = eta_layout(Scheme.SENSING, Decoupling.NONE, 2, 3)
    # tau block, one phase block per PRI, amp block
    assert lay.size == 2 + 3 * 2 + 2
    assert lay.block_bounds["tau"] == (0, 2)
    assert lay.block_bounds["phi"] == (2, 8)          # aggregate over all PRIs
    assert lay.block_bounds["phi_1"] == (4, 6)

    lay = eta_layout(Scheme.BPSK, Decoupling.PILOT, 2, 4, p_pilots=1, d_data=3)
    assert lay.block_bounds["tau_p"] == (0, 2)
    assert lay.block_bounds["tau_d"] == (2, 4)
    assert lay.block_size("amp_p") == 2 and lay.block_size("amp_d") == 2

    lay = eta_layout(Scheme.PPM, Decoupling.DIFFERENTIAL, 2, 3)
    assert lay.block_bounds["t_ref"] == (0, 2)
    assert lay.block_size("t_abs") == 2 * 3
    assert lay.size == 2 + 6 + 6 + 2


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_eta_size_matches_layout(kind):
    for n_f in (2, 7, 8):
        for n_paths in (1, 3):
            sc = reference_scenario(n_f=n_f, n_paths=n_paths)
            mod = make_modulation(kind, n_f)
            assert eta_size(sc, mod) == eta_layout_for(sc, mod).size


# ------------------------------------------------------------------ regulatory

def test_regulatory_boundary_passes_exactly():
    rep = check_regulatory(reference_scenario())
    assert rep.pulses_per_window == 10000
    assert rep.energy_per_window_j == pytest.approx(37e-9, rel=1e-12)
    assert rep.limit_j == 37e-9
    assert rep.passed
    assert abs(rep.margin_j) <= 1e-9 * rep.limit_j
    assert rep.meets_uwb_floor
    assert rep.bandwidth_hz == pytest.approx(562.7e6, rel=1e-3)


def test_regulatory_fails_above_limit():
    sc = _scenario(pulse=PulseShape(e_tb=3.8e-12))
    rep = check_regulatory(sc)
    assert not rep.passed
    assert rep.margin_j < 0


def test_regulatory_bandwidth_floor():
    # alpha = 0.3 ns puts the pulse under the 500 MHz floor
    sc = _scenario(pulse=PulseShape(alpha=0.3e-9))
    rep = check_regulatory(sc)
    assert rep.bandwidth_hz < 500e6
    assert not rep.meets_uwb_floor
