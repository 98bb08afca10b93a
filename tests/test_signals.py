"""Mean-vector construction: the frame's pulses, eta parameterization.

The analytic mean Jacobian is checked column-by-column against central
differences of mean_from_eta; that finite-difference oracle is what the
information-matrix layer ultimately rests on.
"""

import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacbounds.model import (
    ConfigError,
    Decoupling,
    Frame,
    LeakageError,
    ModulationConfig,
    PathState,
    PulseShape,
    PHI,
    ScenarioConfig,
    SUPPORT_SIGMAS,
    TAU,
    Scheme,
    UndersampledPulseError,
    _pulse_values,
    pulse_time_derivative,
    sample_pulse,
)
from isacbounds.signals import (
    eta_point,
    mean_from_eta,
    mean_jacobian,
    mean_vector,
)
from isacbounds.experiments import reference_scenario
from isacbounds.fim import observation_fim_numeric

from conftest import ALL_KINDS, EDGE_ALPHA_FS, default_word, fd_step, make_modulation

TWO_PI = 2.0 * np.pi


def test_bound_bits_pattern():
    # the pulses, and the mean, are those of the word that is 1 on every data PRI
    sc = reference_scenario(n_f=4, n_paths=1)
    for mod, word in ((ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=1, d_data=3),
                       [0, 1, 1, 1]),
                      (ModulationConfig(Scheme.SENSING), [0, 0, 0, 0]),
                      (ModulationConfig(Scheme.BPSK, d_data=4), [1, 1, 1, 1])):
        frame = Frame(sc, mod)
        np.testing.assert_array_equal(default_word(frame), word)
        np.testing.assert_array_equal(frame.pulses, _pulse_values(frame, np.array(word)))
        np.testing.assert_array_equal(mean_vector(sc, mod), mean_vector(sc, mod, bits=word))


def test_phase_values_closed_form():
    sc = reference_scenario(n_f=3, n_paths=2, dopplers=(100.0, -250.0))
    mod = ModulationConfig(Scheme.BPSK, Decoupling.PILOT, p_pilots=1, d_data=2)
    frame = Frame(sc, mod)
    for bits, table in ((np.array([0, 1, 0]), _pulse_values(frame, np.array([0, 1, 0]))),
                        (np.array([0, 1, 1]), frame.pulses)):
        phi = table[PHI]
        assert phi.shape == (3, 2)
        for k in range(3):
            for l, p in enumerate(sc.paths):
                want = TWO_PI * (p.f_dl * k * sc.t_f - sc.f_c * p.tau_l0) \
                    - mod.xi_bpsk * bits[k]
                assert phi[k, l] == pytest.approx(want, rel=1e-12)


def test_phase_values_ppm_does_not_touch_phase():
    sc = reference_scenario(n_f=2, n_paths=1)
    raw = Frame(sc, ModulationConfig(Scheme.SENSING)).pulses[PHI]
    ppm = Frame(sc, ModulationConfig(Scheme.PPM, d_data=2)).pulses[PHI]
    np.testing.assert_allclose(ppm, raw, rtol=0, atol=0)


def test_pri_delays_ppm_shift():
    sc = reference_scenario(n_f=4, n_paths=2)
    mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, xi_ppm=2e-9,
                           p_pilots=2, d_data=2)
    d = Frame(sc, mod).pulses[TAU]
    taus = np.array([p.tau_l0 for p in sc.paths])
    np.testing.assert_allclose(d[0], taus, rtol=1e-15)
    np.testing.assert_allclose(d[1], taus, rtol=1e-15)
    np.testing.assert_allclose(d[2], taus + 2e-9, rtol=1e-15)
    np.testing.assert_allclose(d[3], taus + 2e-9, rtol=1e-15)
    # BPSK never moves the envelope
    b = Frame(sc, ModulationConfig(Scheme.BPSK, Decoupling.PILOT,
                                   p_pilots=2, d_data=2)).pulses[TAU]
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
    # a word that is not bool, integer or real is refused whatever its values
    raw = ModulationConfig(Scheme.BPSK, d_data=2)
    for bits in (np.array([1 + 0j, 1]), np.array([0j, 1]), np.array(["1", "1"]),
                 np.array([1, 1], dtype=object)):
        with pytest.raises(ConfigError, match="bits must be binary"):
            mean_vector(sc, raw, bits=bits)
    for bits in (np.array([True, True]), np.array([1.0, 1.0]), np.array([1, 1], dtype=np.uint8)):
        np.testing.assert_array_equal(mean_vector(sc, raw, bits=bits), mean_vector(sc, raw))


def test_n_slots_counts_reference_pulse():
    sc = reference_scenario(n_f=4, n_paths=1)
    for mod, slots in ((ModulationConfig(Scheme.SENSING), 4),
                       (ModulationConfig(Scheme.PPM, Decoupling.DIFFERENTIAL), 5)):
        assert Frame(sc, mod).slots == slots
        assert mean_vector(sc, mod).size == slots * sc.n_s


def test_mean_vector_single_path_structure():
    sc = reference_scenario(n_f=3, n_paths=1, dopplers=(500.0,))
    mod = ModulationConfig(Scheme.PPM, d_data=3)
    frame = Frame(sc, mod)
    mu = mean_vector(sc, mod).reshape(3, sc.n_s)
    delays, phi, _ = frame.pulses
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
    mu = mean_vector(sc, mod, bits=bits).reshape(Frame(sc, mod).slots, sc.n_s)
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
    frame = Frame(sc, mod)
    mu_direct = mean_vector(sc, mod)
    mu_eta = mean_from_eta(frame, eta_point(frame))
    np.testing.assert_array_equal(mu_eta, mu_direct)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mean_jacobian_matches_central_differences(kind):
    n_f = 2
    sc = reference_scenario(n_f=n_f, n_paths=2)
    mod = make_modulation(kind, n_f)
    frame = Frame(sc, mod)
    lay = frame.eta
    eta = eta_point(frame)
    jac = mean_jacobian(sc, mod)
    assert jac.shape == (mean_vector(sc, mod).size, lay.size)
    for i, name in enumerate(lay.names):
        h = fd_step(sc, name, eta[i])
        up, dn = eta.copy(), eta.copy()
        up[i] += h
        dn[i] -= h
        fd = (mean_from_eta(frame, up) - mean_from_eta(frame, dn)) / (2 * h)
        scale = max(np.max(np.abs(fd)), 1.0)
        np.testing.assert_allclose(jac[:, i], fd, rtol=3e-5, atol=3e-6 * scale,
                                   err_msg=f"column {name}")


def test_eta_point_contents_pilot_ppm():
    sc = reference_scenario(n_f=2, n_paths=2)
    mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, xi_ppm=2e-9,
                           p_pilots=1, d_data=1)
    frame = Frame(sc, mod)
    lay = frame.eta
    eta = eta_point(frame)
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
    frame = Frame(sc, mod)
    lay = frame.eta
    delay = next(i for i, name in enumerate(lay.names) if name.startswith(("tau", "t_")))
    for value in (sc.t_f - 5 * sc.pulse.alpha, -1e-12):
        eta = eta_point(frame)
        eta[delay] = value
        with pytest.raises(LeakageError):
            mean_from_eta(frame, eta)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mean_from_eta_slots_are_rows_of_the_whole_frame(kind):
    n_f = 3
    sc = reference_scenario(n_f=n_f, n_paths=2, dopplers=(100.0, -50.0))
    mod = make_modulation(kind, n_f)
    frame = Frame(sc, mod)
    eta = eta_point(frame)
    whole = mean_from_eta(frame, eta).reshape(-1, sc.n_s)
    last = whole.shape[0] - 1
    for slots in ([0], [last, 0], [1, 1], range(last + 1), np.array([last], dtype=np.uint8),
                  np.array([], dtype=int)):
        got = mean_from_eta(frame, eta, slots)
        np.testing.assert_array_equal(got, whole[list(slots)].ravel(), err_msg=str(slots))
    for bad in ([last + 1], [-1], [0.0], [True], "0", [[0]], 0):
        with pytest.raises(ConfigError):
            mean_from_eta(frame, eta, bad)


def test_any_empty_slot_sequence_is_the_empty_selection():
    sc = reference_scenario(n_f=3, n_paths=2)
    mod = make_modulation("ppm-pilot", 3)
    frame = Frame(sc, mod)
    eta = eta_point(frame)
    for empty in ([], (), range(0), np.array([], dtype=int), np.array([])):
        assert mean_from_eta(frame, eta, empty).shape == (0,), repr(empty)
        assert mean_from_eta(frame, np.stack([eta, eta]), empty).shape == (2, 0), repr(empty)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stacked_mean_from_eta_rows_are_the_single_point_calls(kind):
    # rows that share centers (repeated points, unmoved paths) and rows that
    # move every delay are evaluated in one call, each exactly as on its own
    n_f = 3
    sc = reference_scenario(n_f=n_f, n_paths=3, dopplers=(100.0, -50.0, 20.0))
    mod = make_modulation(kind, n_f)
    frame = Frame(sc, mod)
    eta0 = eta_point(frame)
    rng = np.random.default_rng(5)
    points = eta0 * (1.0 + 1e-3 * rng.standard_normal((4, eta0.size)))
    points = np.vstack([eta0, points, eta0, points[:1]])
    count = frame.slots
    for slots in (None, [count - 1, 0], [1, 1], np.array([], dtype=int)):
        got = mean_from_eta(frame, points, slots)
        width = (count if slots is None else len(slots)) * sc.n_s
        assert got.shape == (len(points), width)
        for j, point in enumerate(points):
            np.testing.assert_array_equal(got[j], mean_from_eta(frame, point, slots),
                                          err_msg=f"row {j}, slots {slots}")
    assert mean_from_eta(frame, points[:0]).shape == (0, count * sc.n_s)
    for bad in (points[None], points[:, :-1], np.zeros((2, eta0.size + 1)), eta0[:-1],
                eta0[0]):
        with pytest.raises(ConfigError, match="eta must have shape"):
            mean_from_eta(frame, bad)
    # a complex or object eta is refused, not cast (the cast drops an imaginary part)
    for bad in (eta0 + 1e-3j, points.astype(complex), eta0.astype(object)):
        with pytest.raises(ConfigError, match="eta must be bool, integer or real"):
            mean_from_eta(frame, bad)


@pytest.mark.parametrize("rate", [10e9, 100e9])
@pytest.mark.parametrize("n_paths", [1, 2, 3])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mean_vector_is_mean_from_eta_at_eta_point_exactly(kind, n_paths, rate):
    sc = dataclasses.replace(reference_scenario(n_f=3, n_paths=n_paths), f_s=rate)
    mod = make_modulation(kind, sc.n_f)
    frame = Frame(sc, mod)
    np.testing.assert_array_equal(mean_vector(sc, mod), mean_from_eta(frame, eta_point(frame)))


#: SNRs in dB that no other record of the run has, so that no equal record
#: made earlier can stand in for the one a test drops
_UNSEEN_SNR_DB = (0.5 + k / 1024 for k in itertools.count())


def _collected_after(make, call) -> bool:
    # True when nothing keeps the record ``make`` gives once ``call`` on it
    # returns and the test drops it
    record = make()
    call(record)
    ref = weakref.ref(record)
    del record
    gc.collect()
    return ref() is None


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("call", ["eta_point", "mean_from_eta", "mean_jacobian",
                                  "observation_fim_numeric"])
def test_a_dropped_frame_is_collected(call, kind):
    # the sampled model keeps nothing past its call: a frame and its pulses
    # live and die with the caller's reference
    n_f = 2
    mod = make_modulation(kind, n_f)
    scenario = lambda: reference_scenario(n_f=n_f, snr_db=next(_UNSEEN_SNR_DB))
    if call == "eta_point":
        assert _collected_after(lambda: Frame(scenario(), mod), eta_point)
    elif call == "mean_from_eta":
        assert _collected_after(lambda: Frame(scenario(), mod),
                                lambda frame: mean_from_eta(frame, eta_point(frame)))
    else:
        # the call makes its own frame, which holds the scenario
        fn = mean_jacobian if call == "mean_jacobian" else observation_fim_numeric
        assert _collected_after(scenario, lambda sc: fn(sc, mod))


_ALPHA = 0.2e-9


@st.composite
def _sampled_frames(draw):
    # any kind on 1-3 paths and 1-8 PRIs, delays >= 12 alpha apart with
    # every (PPM-shifted) support inside the PRI, Dopplers and a carrier
    kind = draw(st.sampled_from(ALL_KINDS))
    n_paths, n_f = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    taus = [draw(st.floats(6.5 * _ALPHA, 30e-9))]
    for _ in range(n_paths - 1):
        taus.append(taus[-1] + draw(st.floats(12.5 * _ALPHA, 25e-9)))
    paths = tuple(PathState(t, f_dl=draw(st.floats(-5e4, 5e4)), amp=draw(st.floats(0.1, 10.0)))
                  for t in taus)
    sc = ScenarioConfig(f_c=draw(st.floats(0.0, 10e9)), t_f=100e-9, n_f=n_f,
                        f_s=draw(st.sampled_from([10e9, 100e9])), sigma2=1.0, paths=paths,
                        pulse=PulseShape(alpha=_ALPHA))
    if kind.endswith("pilot"):
        p = draw(st.integers(1, n_f))
        return sc, dataclasses.replace(make_modulation(kind, 2), p_pilots=p, d_data=n_f - p)
    return sc, make_modulation(kind, n_f)


@given(_sampled_frames())
@settings(max_examples=60, deadline=None)
def test_mean_at_the_frame_pulses_is_the_default_mean_byte_for_byte(case):
    # the mean at eta_point, and at the word that is 1 on every data PRI,
    # is the default mean
    sc, mod = case
    frame = Frame(sc, mod)
    mu = mean_vector(sc, mod).tobytes()
    assert mean_from_eta(frame, eta_point(frame)).tobytes() == mu
    word = np.zeros(sc.n_f, dtype=np.int64)
    word[frame.data.start:frame.data.stop] = 1
    assert mean_vector(sc, mod, bits=word).tobytes() == mu


# ------------------------------------------- windows against the whole grid
#
# The samplers evaluate each pulse on its sample window only.  These
# references evaluate every formula on every sample of the PRI and sum the
# paths in order; the windowed results must equal them bit for bit (up to
# the sign of a zero, which np.array_equal ignores).

def _whole_grid_pulse(sc, tau):
    # w(t - tau) and d/dtau w(t - tau) on every sample of the PRI grid
    t = np.arange(sc.n_s) / sc.f_s - np.asarray(tau, dtype=float)[..., None]
    alpha = sc.pulse.alpha
    w = (alpha * math.sqrt(math.pi)) ** -0.5 * np.exp(-(t * t) / (2.0 * alpha ** 2))
    return w, (t / alpha ** 2) * w


def _whole_grid_mean(sc, table):
    # sum over paths, in path order, of amp exp(j phi) w(t - tau) per slot
    tau, phi, amp = table
    coef = amp * np.exp(1j * phi)
    w, _ = _whole_grid_pulse(sc, tau)
    mu = coef[:, 0, None] * w[:, 0]
    for l in range(1, tau.shape[1]):
        mu = mu + coef[:, l, None] * w[:, l]
    return mu.ravel()


def _whole_grid_jacobian(sc, mod):
    # d/dtau, d/dphi and d/damp of every (slot, path) term, written into the
    # column the slot map names, on every sample of the slot
    frame = Frame(sc, mod)
    size, (tau, phi, amp), index = frame.eta.size, frame.pulses, frame.slot_map
    w, dw = _whole_grid_pulse(sc, tau)
    rot = np.exp(1j * phi)
    c = (amp * rot)[..., None]
    terms = (c * dw, 1j * c * w, rot[..., None] * w)
    J = np.zeros((tau.shape[0], sc.n_s, size), dtype=complex)
    for which, term in enumerate(terms):
        for slot, l in np.ndindex(tau.shape):
            if index[which, slot, l] >= 0:
                J[slot, :, index[which, slot, l]] = term[slot, l]
    return J.reshape(-1, size)


def _last_center(sc):
    # largest center whose +-6 alpha support stays inside the PRI
    half = SUPPORT_SIGMAS * sc.pulse.alpha
    tau = sc.t_f - half
    while tau + half >= sc.t_f:
        tau = np.nextafter(tau, 0.0)
    return float(tau)


def _window_scenario(n_paths, rate):
    sc = reference_scenario(n_f=3, n_paths=n_paths)
    if rate == "edge":
        return dataclasses.replace(sc, pulse=PulseShape(alpha=EDGE_ALPHA_FS / sc.f_s))
    return dataclasses.replace(sc, f_s=rate)


def test_edge_scenario_sits_at_the_sampling_tolerance():
    sc = _window_scenario(3, "edge")
    sc.per_pri_information
    narrower = dataclasses.replace(sc, pulse=PulseShape(alpha=0.99 * sc.pulse.alpha))
    with pytest.raises(UndersampledPulseError):
        narrower.per_pri_information


@pytest.mark.parametrize("rate", [10e9, 100e9, "edge"])
@pytest.mark.parametrize("n_paths", [1, 2, 3])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_windowed_sampling_is_bit_identical_to_the_whole_grid(kind, n_paths, rate):
    sc = _window_scenario(n_paths, rate)
    mod = make_modulation(kind, sc.n_f)
    frame = Frame(sc, mod)
    # the samplers, at the paths and at centers whose windows slide at the
    # PRI start and end
    taus = np.array([0.0, *(p.tau_l0 for p in sc.paths), _last_center(sc)])
    w, dw = _whole_grid_pulse(sc, taus)
    np.testing.assert_array_equal(sample_pulse(sc.pulse, taus, sc), w)
    np.testing.assert_array_equal(pulse_time_derivative(sc.pulse, taus, sc), dw)

    table, index = frame.pulses, frame.slot_map
    np.testing.assert_array_equal(mean_vector(sc, mod), _whole_grid_mean(sc, table))
    np.testing.assert_array_equal(mean_jacobian(sc, mod), _whole_grid_jacobian(sc, mod))

    # mean_from_eta with the delay entries moved alternately to the first and
    # the last center the PRI allows, on a subset of slots in a new order
    eta = eta_point(frame)
    delays = np.unique(index[TAU][index[TAU] >= 0])
    eta[delays[0::2]] = 0.0
    eta[delays[1::2]] = _last_center(sc)
    moved = np.where(index >= 0, eta[index], table)
    slots = [index.shape[1] - 1, 0]
    whole = _whole_grid_mean(sc, moved).reshape(-1, sc.n_s)
    np.testing.assert_array_equal(mean_from_eta(frame, eta, slots), whole[slots].ravel())
