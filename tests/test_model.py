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
    SUPPORT_SIGMAS,
    ScenarioConfig,
    Scheme,
    amp_for_snr,
    check_regulatory,
    effective_bandwidth,
    eta_layout,
    eta_layout_for,
    pulse_time_derivative,
    received_snr,
    sample_pulse,
    theta_layout,
    time_grid,
    validate_modulation,
)
from isacbounds.experiments import reference_scenario

from conftest import ALL_KINDS, make_modulation
from differential_reference import interleaved_layout

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


def _full_grid_pulse(shape, tau, sc):
    # the pulse formula evaluated on every sample of the PRI grid
    t = time_grid(sc) - np.asarray(tau, dtype=float)[..., None]
    c = (shape.alpha * math.sqrt(math.pi)) ** -0.5
    return c * np.exp(-(t * t) / (2.0 * shape.alpha ** 2))


def _last_center(sc):
    # largest center whose +-6 alpha support stays inside the PRI
    half = SUPPORT_SIGMAS * sc.pulse.alpha
    tau = sc.t_f - half
    while tau + half >= sc.t_f:
        tau = np.nextafter(tau, 0.0)
    return float(tau)


@pytest.mark.parametrize("f_s", [7.77e9, 10e9, 100e9])
def test_sample_pulse_is_bit_identical_to_the_full_grid_formula(f_s):
    # only samples near the center are computed; the rest must be the exact
    # zeros the formula underflows to
    sc = _scenario(f_s=f_s)
    rng = np.random.default_rng(int(f_s) % 1000)
    taus = rng.uniform(0.0, _last_center(sc), 200)
    for tau in [*taus, 0.0, _last_center(sc)]:
        np.testing.assert_array_equal(sample_pulse(sc.pulse, tau, sc),
                                      _full_grid_pulse(sc.pulse, tau, sc), err_msg=tau)
    batch = taus[:12].reshape(4, 3)
    got = sample_pulse(sc.pulse, batch, sc)
    assert got.shape == (4, 3, sc.n_s)
    np.testing.assert_array_equal(got, _full_grid_pulse(sc.pulse, batch, sc))


def test_sample_pulse_one_sample_window():
    # alpha * f_s = 1e-20: a center on a grid point leaves one nonzero sample,
    # which the window's padding must still cover: (k / f_s) * f_s rounds
    # above k for some grid points (k = 21 at 10 GHz) and below it for others
    # (k = 43)
    sc = _scenario()
    pulse = PulseShape(alpha=1e-20 / sc.f_s)
    for k in range(sc.n_s):
        tau = k / sc.f_s
        want = _full_grid_pulse(pulse, tau, sc)
        assert np.count_nonzero(want) == 1
        np.testing.assert_array_equal(sample_pulse(pulse, tau, sc), want, err_msg=k)


def test_sample_pulse_underflowing_width_uses_the_whole_grid():
    # 2 alpha**2 underflows to 0 and so does t * t on a 1e-170 s grid: the
    # formula gives 0 / 0 = NaN on every sample, and so must the sampler
    sc = _scenario(t_f=1e-167, f_s=1e170, paths=(PathState(5e-168),),
                   pulse=PulseShape(alpha=1e-200))
    with np.errstate(invalid="ignore"):
        want = _full_grid_pulse(sc.pulse, 5e-168, sc)
        got = sample_pulse(sc.pulse, 5e-168, sc)
    assert np.all(np.isnan(want))
    np.testing.assert_array_equal(got, want)


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
            layout = eta_layout_for(sc, make_modulation(kind, n_f))
            assert layout.size == len(layout.names)


# Eager reference layouts: every name and every block bound built entry by
# entry, as lists; the package's layouts compute them arithmetically.

def _eager(blocks, spans=()):
    names, bounds = [], {}
    for block, entries in blocks:
        lo = len(names)
        names.extend(entries)
        bounds[block] = (lo, len(names))
    for name, first, last in spans:
        bounds[name] = (bounds[first][0], bounds[last][1])
    return tuple(names), bounds


def _entries(block, paths):
    return block, [f"{block}_{l}" for l in paths]


def _eager_theta(scheme, L):
    blocks = [("tau1", ["tau1"]), _entries("dtau", range(2, L + 1))]
    if scheme == Scheme.PPM:
        blocks.append(("dtau_q", ["dtau_q"]))
    blocks += [("fd1", ["fd1"]), _entries("dfd", range(2, L + 1))]
    if scheme == Scheme.BPSK:
        blocks.append(("phi_bpsk", ["phi_bpsk"]))
    blocks.append(_entries("amp", range(1, L + 1)))
    delay_end = "dtau_q" if scheme == Scheme.PPM else "dtau"
    return _eager(blocks, [("delay", "tau1", delay_end), ("doppler", "fd1", "dfd")])


def _eager_eta(scheme, decoupling, L, n_f, p, d):
    paths = range(1, L + 1)

    def per_pri(prefix, count):
        return [_entries(f"{prefix}_{k}", paths) for k in range(count)]

    if scheme != Scheme.SENSING and decoupling == Decoupling.PILOT:
        n_pri = p + d
        blocks = [_entries("tau_p", paths), _entries("tau_d", paths), *per_pri("phi", n_pri),
                  _entries("amp_p", paths), _entries("amp_d", paths)]
        spans = []
    elif scheme == Scheme.PPM and decoupling == Decoupling.DIFFERENTIAL:
        n_pri = n_f
        blocks = [_entries("t_ref", paths), *per_pri("t", n_f), *per_pri("phi", n_f),
                  _entries("amp", paths)]
        spans = [("t_abs", "t_0", f"t_{n_f - 1}")]
    else:
        n_pri = n_f
        blocks = [_entries("tau", paths), *per_pri("phi", n_f), _entries("amp", paths)]
        spans = []
    return _eager(blocks, spans + [("phi", "phi_0", f"phi_{n_pri - 1}")])


def _eager_interleaved(first, L, n_f):
    paths = range(1, L + 1)
    blocks = [_entries(f"{prefix}_{k}", paths) for k in range(n_f) for prefix in (first, "t")]
    blocks += [_entries(f"phi_{k}", paths) for k in range(n_f)]
    blocks.append(_entries("amp", paths))
    return _eager(blocks, [("phi", "phi_0", f"phi_{n_f - 1}")])


def _assert_matches(layout, reference):
    names, bounds = reference
    assert layout.size == len(names)
    assert layout.names == names
    assert dict(layout.block_bounds) == bounds
    for name, want in bounds.items():
        assert layout.block(name) == want, name


LAYOUT_N_F = (1, 2, 3, 8, 64, 500)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_layouts_match_eager_reference(kind):
    mod = make_modulation(kind, 2)
    for L in (1, 2, 3):
        _assert_matches(theta_layout(mod.scheme, L), _eager_theta(mod.scheme, L))
        for n_f in LAYOUT_N_F:
            splits = [(0, n_f)]
            if mod.decoupling == Decoupling.PILOT:
                splits += [(n_f // 2, n_f - n_f // 2), (n_f, 0)]
            for p, d in splits:
                args = (mod.scheme, mod.decoupling, L, n_f, p, d)
                _assert_matches(eta_layout(*args), _eager_eta(*args))


def test_interleaved_layouts_match_eager_reference():
    for L in (1, 2, 3):
        for n_f in LAYOUT_N_F:
            for first in ("ref", "delta"):
                _assert_matches(interleaved_layout(first, L, n_f),
                                _eager_interleaved(first, L, n_f))


def test_layout_is_immutable_and_names_are_lazy():
    lay = eta_layout(Scheme.PPM, Decoupling.PILOT, 3, 500, p_pilots=250, d_data=250)
    assert "names" not in vars(lay) and "block_bounds" not in vars(lay)
    assert lay.block("phi") == (6, 1506) and lay.size == 1512
    assert "names" not in vars(lay) and "block_bounds" not in vars(lay)
    assert lay.block("phi_17") == (57, 60)
    assert "block_bounds" in vars(lay) and "names" not in vars(lay)
    with pytest.raises(AttributeError):
        lay.size = 3
    with pytest.raises(TypeError):
        lay.block_bounds["phi"] = (0, 1)
    with pytest.raises(KeyError, match="unknown block 'phi_500'"):
        lay.block("phi_500")


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
