"""Observation-domain information matrices: closed forms vs. the numeric probe.

The frozen anchors here were computed once from the closed forms and pinned:
  * per-PRI delay information at 0 dB, alpha = 0.2 ns:  1.25e22  (x8 = 1e23)
  * per-PRI phase information at 0 dB:                  1000.0
  * quadratic ramp coefficient over 2048 PRIs of 100ns: 1.1295622957189463e-3 s^2
"""

import dataclasses
import itertools
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacbounds.model import (
    Block,
    ConfigError,
    Decoupling,
    Frame,
    ModulationConfig,
    ParamLayout,
    PathState,
    PulseShape,
    ScenarioConfig,
    Scheme,
    effective_bandwidth,
    received_snr,
    theta_layout,
)
from isacbounds import fim, model, signals
from isacbounds.fim import (
    DiagonalMatrix,
    LabeledMatrix,
    coeff_a_range,
    coeff_b_full,
    observation_fim_analytic,
    observation_fim_numeric,
)
from isacbounds.bounds import closed_form_theta_fim, crlb_report
from isacbounds.experiments import fim_deviation, reference_scenario, with_snr
from isacbounds.jacobians import ramp_slope
from isacbounds.signals import eta_point, mean_from_eta, mean_jacobian

from conftest import (ALL_KINDS, EDGE_ALPHA_FS, fd_step, frame_shapes, make_modulation,
                      sym_eigs)


# ------------------------------------------------------------- ramp coefficients

@given(n=st.integers(1, 300), t_f=st.floats(1e-8, 1e-6))
@settings(max_examples=60, deadline=None)
def test_coeff_full_closed_forms(n, t_f):
    ks = np.arange(n)
    assert coeff_b_full(t_f, n) == pytest.approx(
        np.sum(ramp_slope(ks, t_f) ** 2), rel=1e-12, abs=1e-40)


@given(start=st.integers(0, 200), count=st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_coeff_range_closed_forms(start, count):
    t_f = 1e-7
    ks = np.arange(start, start + count)
    assert coeff_a_range(t_f, start, count) == pytest.approx(
        np.sum(ramp_slope(ks, t_f)), rel=1e-12, abs=1e-30)


@given(n=st.integers(1, 10 ** 107), t_f=st.floats(1e-9, 1e-3))
@example(n=8 * 10 ** 106, t_f=1e-7)  # n (n-1) (2n-1) / 6 is past float64, the sum is not
@example(n=2 * 10 ** 107, t_f=1e-7)  # the sum is past float64 too
@settings(max_examples=200, deadline=None)
def test_coeff_full_is_the_exact_ramp_sum(n, t_f):
    # (2 pi t_f)**2 n (n-1) (2n-1) / 6 with pi as math.pi, to a few roundings,
    # and inf only where that sum is past float64
    exact = (2 * Fraction(math.pi) * Fraction(t_f)) ** 2 * Fraction(n * (n - 1) * (2 * n - 1), 6)
    got = coeff_b_full(t_f, n)
    eps = Fraction(np.finfo(float).eps)
    if got == math.inf:
        assert exact > Fraction(sys.float_info.max) * (1 - 4 * eps)
    else:
        assert abs(Fraction(got) - exact) <= 4 * eps * exact


def test_coeff_anchor_values():
    # sum over kappa of (2 pi kappa T_f)^2, 2048 PRIs of 100 ns
    assert coeff_b_full(1e-7, 2048) == pytest.approx(1.1295622957189463e-3, rel=1e-12)
    assert coeff_b_full(1e-7, 1) == 0.0


# --------------------------------------------------------- per-PRI information

def test_per_pri_information_anchors():
    sc = reference_scenario(n_f=8, n_paths=1)  # 0 dB per path
    lam_tau, lam_phi, lam_amp = sc.per_pri_information
    snr = received_snr(sc, sc.paths[0])
    assert snr == pytest.approx(1.0, rel=1e-9)
    B = effective_bandwidth(sc.pulse)
    assert lam_tau[0] == pytest.approx((2 * np.pi * B) ** 2 * sc.t_f * sc.f_s * snr,
                                       rel=1e-12)
    assert lam_tau[0] == pytest.approx(1.25e22, rel=1e-9)
    assert 8 * lam_tau[0] == pytest.approx(1e23, rel=1e-9)
    assert lam_phi[0] == pytest.approx(1000.0, rel=1e-9)
    assert lam_amp[0] == pytest.approx(lam_phi[0] / sc.paths[0].amp ** 2, rel=1e-12)


@pytest.mark.parametrize("f_s,alpha_fs", [(7.77e9, None), (10e9, None), (100e9, None),
                                          (10e9, EDGE_ALPHA_FS)])
@pytest.mark.parametrize("n_paths", [1, 2, 3])
@pytest.mark.parametrize("shift", [0.0, 0.37, 0.81])  # in samples
def test_per_pri_information_equals_whole_grid_sums(f_s, alpha_fs, n_paths, shift):
    sc = reference_scenario(n_f=2, n_paths=n_paths, f_s=f_s)
    pulse = sc.pulse if alpha_fs is None else PulseShape(alpha=alpha_fs / f_s)
    paths = tuple(dataclasses.replace(p, tau_l0=p.tau_l0 + shift / f_s, amp=(1 + l) * p.amp)
                  for l, p in enumerate(sc.paths))
    sc = dataclasses.replace(sc, pulse=pulse, paths=paths)
    # the pulse on the whole PRI grid, every path at once
    t = np.arange(sc.n_s) / f_s - np.array([p.tau_l0 for p in paths])[:, None]
    w = pulse.peak() * np.exp(-(t * t) / (2.0 * pulse.alpha ** 2))
    amps = np.array([p.amp for p in paths])
    lam_phi = sc.t_f * f_s * amps ** 2 * np.sum(w * w, axis=1) / f_s / (sc.t_f * sc.sigma2)
    want = ((2 * np.pi * effective_bandwidth(pulse)) ** 2 * lam_phi, lam_phi,
            lam_phi / amps ** 2)
    for got, ref in zip(sc.per_pri_information, want):
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)


def test_per_pri_information_samples_all_paths_in_one_window(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = model._pulse_window
    monkeypatch.setattr(model, "_pulse_window", counted)
    reference_scenario(n_paths=3).per_pri_information
    assert len(calls) == 1


def test_per_pri_information_is_sampled_once_per_scenario_record(monkeypatch):
    # reports alternating between two scenario records sample each record's
    # pulses once, whatever ran in between
    calls = []
    real = model._pulse_window

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(model, "_pulse_window", counted)
    a, b = reference_scenario(n_f=8), reference_scenario(n_f=16)
    for sc in (a, b, a, b):
        crlb_report(sc, make_modulation("ppm-pilot", sc.n_f))
    assert len(calls) == 2


def test_information_scales_with_snr_not_for_amp_rows():
    base = reference_scenario(n_f=2, n_paths=1)
    quiet = with_snr(base, -60.0)  # amplitude scaled by 1e-3
    lt0, lp0, la0 = base.per_pri_information
    lt1, lp1, la1 = quiet.per_pri_information
    assert lt1[0] == pytest.approx(1e-6 * lt0[0], rel=1e-9)
    assert lp1[0] == pytest.approx(1e-6 * lp0[0], rel=1e-9)
    # amplitude information does not depend on the amplitude itself
    assert la1[0] == pytest.approx(la0[0], rel=1e-9)


# ------------------------------------------------------ analytic matrix layout

def test_analytic_fim_block_structure_sensing():
    sc = reference_scenario(n_f=2, n_paths=2)
    mod = ModulationConfig(Scheme.SENSING)
    I = observation_fim_analytic(sc, mod)
    lay = Frame(sc, mod).eta
    assert I.data.shape == (lay.size, lay.size)
    # off-diagonal coupling between tau / phi / amp blocks vanishes
    assert np.all(I.block("tau", "phi") == 0.0)
    assert np.all(I.block("tau", "amp") == 0.0)
    assert np.all(I.block("phi", "amp") == 0.0)
    # per-PRI diagonal blocks repeat
    np.testing.assert_allclose(I.block("phi_0", "phi_0"),
                               I.block("phi_1", "phi_1"), rtol=1e-12)
    lam_tau, lam_phi, _ = sc.per_pri_information
    np.testing.assert_allclose(np.diag(I.block("tau", "tau")),
                               sc.n_f * lam_tau, rtol=1e-12)
    np.testing.assert_allclose(np.diag(I.block("phi_0", "phi_0")), lam_phi,
                               rtol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_analytic_fim_diagonal_by_block(kind):
    # per block: the number of pulses that carry the entry times one pulse's
    # lambda (the differential reference counts sfd_weight pulses), written
    # from the rule and not read off model.ETA_BLOCKS; a pilot kind also at
    # p = 1, n_f - 1 and n_f (at n_f no pulse carries tau_d or amp_d)
    n_f, w = 6, 2.5
    splits = (2, 1, n_f - 1, n_f) if kind.endswith("pilot") else (None,)
    for n_paths, p in itertools.product((1, 2, 3), splits):
        sc = reference_scenario(n_f=n_f, n_paths=n_paths)
        mod = make_modulation(kind, n_f)
        if p is not None:
            mod = dataclasses.replace(mod, p_pilots=p, d_data=n_f - p)
        lt, lp, la = sc.per_pri_information
        want = {f"phi_{k}": lp for k in range(n_f)}
        if mod.decoupling == Decoupling.PILOT:
            want.update(tau_p=p * lt, tau_d=(n_f - p) * lt, amp_p=p * la, amp_d=(n_f - p) * la)
        elif mod.decoupling == Decoupling.DIFFERENTIAL:
            want.update({f"t_{k}": lt for k in range(n_f)}, t_ref=w * lt, amp=n_f * la)
        else:
            want.update(tau=n_f * lt, amp=n_f * la)
        I = observation_fim_analytic(sc, dataclasses.replace(mod, sfd_weight=w))
        assert sum(hi - lo for lo, hi in map(I.layout.block, want)) == I.size
        for name, values in want.items():
            np.testing.assert_array_equal(np.diag(I.block(name, name)), values,
                                          err_msg=f"{name}, L = {n_paths}, p = {p}")
        np.testing.assert_array_equal(I.data, np.diag(np.diag(I.data)))


def _table_and_gather_diagonal(sc, mod):
    # the lambda diagonal built the long way, from the slot map and not from
    # the model.ETA_BLOCKS fill: every (slot, path) value's lambda in a
    # (3, slots, L) table, the reference delay weighted there, then gathered
    # into the eta entries the map names and counted
    frame = Frame(sc, mod)
    size, index = frame.eta.size, frame.slot_map
    lam = np.empty(index.shape)
    lam[:] = np.array(sc.per_pri_information)[:, None, :]
    known = index >= 0
    diag = np.zeros(size)
    lam[model.TAU, :index.shape[1] - sc.n_f] *= mod.sfd_weight
    diag[index[known]] = lam[known]
    diag *= np.bincount(index[known], minlength=size)
    return diag


@pytest.mark.parametrize("kind, n_f", [
    (kind, n_f) for kind in ALL_KINDS for n_f in (1, 2, 8, 64, 499)
    if n_f >= 2 or not kind.endswith("pilot")])  # a pilot split needs two PRIs
def test_analytic_diagonal_equals_the_table_and_gather_construction(kind, n_f):
    weights = (0.5, 1.0, 4.0) if kind == "ppm-diff" else (1.0,)
    for n_paths in (1, 2, 3):
        sc = reference_scenario(n_f=n_f, n_paths=n_paths)
        for w in weights:
            mod = dataclasses.replace(make_modulation(kind, n_f), sfd_weight=w)
            np.testing.assert_array_equal(observation_fim_analytic(sc, mod).diag,
                                          _table_and_gather_diagonal(sc, mod))


def test_analytic_fim_frame_additivity():
    mod = ModulationConfig(Scheme.SENSING)
    I2 = observation_fim_analytic(reference_scenario(n_f=2, n_paths=2), mod)
    I4 = observation_fim_analytic(reference_scenario(n_f=4, n_paths=2), mod)
    np.testing.assert_allclose(I4.block("tau", "tau"),
                               2.0 * I2.block("tau", "tau"), rtol=1e-12)


def test_analytic_fim_positive_semidefinite():
    for kind in ALL_KINDS:
        sc = reference_scenario(n_f=2, n_paths=2)
        I = observation_fim_analytic(sc, make_modulation(kind, 2))
        eigs = sym_eigs(I.data)
        assert eigs.min() >= -1e-8 * eigs.max(), kind


def test_sfd_weight_scales_reference_rows():
    sc = reference_scenario(n_f=2, n_paths=1)
    mod = ModulationConfig(Scheme.PPM, Decoupling.DIFFERENTIAL)
    I1 = observation_fim_analytic(sc, dataclasses.replace(mod, sfd_weight=1.0))
    I3 = observation_fim_analytic(sc, dataclasses.replace(mod, sfd_weight=3.0))
    np.testing.assert_allclose(I3.block("t_ref", "t_ref"),
                               3.0 * I1.block("t_ref", "t_ref"), rtol=1e-12)
    np.testing.assert_allclose(I3.block("t_0", "t_0"),
                               I1.block("t_0", "t_0"), rtol=1e-12)


def test_overflowing_sfd_weight_is_a_config_error():
    sc = reference_scenario(n_f=2, n_paths=1)
    mod = ModulationConfig(Scheme.PPM, Decoupling.DIFFERENTIAL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"\(t_ref_1, t_ref_1\) is inf"):
            observation_fim_analytic(sc, dataclasses.replace(mod, sfd_weight=1e300))


# -------------------------------------------------------- numeric cross-check

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_numeric_fim_matches_analytic(kind):
    n_f = 2
    sc = reference_scenario(n_f=n_f, n_paths=2)
    mod = make_modulation(kind, n_f)
    ana = observation_fim_analytic(sc, mod)
    num = observation_fim_numeric(sc, mod)
    assert num.layout.names == ana.layout.names
    assert fim_deviation(num.data, ana.data) < 1e-4


#: the criterion-1 tolerance on the probe (validate_suite's default rtol)
CRITERION_1_TOL = 2e-2


@pytest.mark.parametrize("scheme", (Scheme.PPM, Scheme.BPSK))
@pytest.mark.parametrize("n_f", range(1, 9))
@pytest.mark.parametrize("n_paths", (1, 2, 3))
def test_numeric_fim_of_an_all_pilot_split(scheme, n_f, n_paths):
    # no slot names tau_d or amp_d: the probe gives them no step and zero
    # rows and columns, as the closed form does, and reads no uninitialised
    # memory, so a second call gives the same bytes
    sc = reference_scenario(n_f=n_f, n_paths=n_paths)
    mod = ModulationConfig(scheme, Decoupling.PILOT, p_pilots=n_f, d_data=0)
    num = observation_fim_numeric(sc, mod)
    ana = observation_fim_analytic(sc, mod)
    assert fim_deviation(num.data, ana.data) < CRITERION_1_TOL
    lo, hi = num.layout.block("tau_d")[0], num.layout.block("amp_d")[0]
    unnamed = np.r_[lo:lo + n_paths, hi:hi + n_paths]
    assert not num.data[unnamed].any() and not num.data[:, unnamed].any()
    assert observation_fim_numeric(sc, mod).data.tobytes() == num.data.tobytes()


@pytest.mark.parametrize("f_s", (10e9, 100e9))
@pytest.mark.parametrize("n_paths", (1, 2, 3))
@pytest.mark.parametrize("weight", (0.25, 1.0, 2.5, 4.0))
def test_sampled_reference_pulse_carries_the_sfd_weight(weight, n_paths, f_s):
    # the closed form counts sfd_weight pulses on t_ref; the sampled model
    # places the reference pulse at sqrt(sfd_weight) times the path amplitude,
    # so the probe and Re(J^H J) / sigma2 of its Jacobian carry as much
    sc = dataclasses.replace(reference_scenario(n_f=3, n_paths=n_paths), f_s=f_s)
    mod = dataclasses.replace(make_modulation("ppm-diff", 3), sfd_weight=weight)
    ana = observation_fim_analytic(sc, mod).data
    assert fim_deviation(observation_fim_numeric(sc, mod).data, ana) < 1e-4
    jac = mean_jacobian(sc, mod)
    assert fim_deviation((jac.conj().T @ jac).real / sc.sigma2, ana) < 1e-12


def _whole_frame_probe(sc, mod):
    # central differences of the whole stacked frame, then one dense Gram
    # over every column
    frame = Frame(sc, mod)
    lay = frame.eta
    eta = eta_point(frame)
    cols = []
    for i, name in enumerate(lay.names):
        h = fd_step(sc, name, eta[i])
        up, dn = eta.copy(), eta.copy()
        up[i] += h
        dn[i] -= h
        cols.append((mean_from_eta(frame, up) - mean_from_eta(frame, dn)) / (2.0 * h))
    B = np.stack(cols, axis=1)
    return (B.conj().T @ B).real / sc.sigma2


def _per_entry_probe(sc, mod):
    # the probe one entry at a time: a single-point up and down evaluation of
    # the slots the entry drives, each slot sliced to its probe range, then
    # one Gram block per slot over the entries that drive it, in entry order
    frame = Frame(sc, mod)
    lay = frame.eta
    size, index = lay.size, frame.slot_map
    eta0 = eta_point(frame)
    h = np.array([fd_step(sc, name, eta0[i]) for i, name in enumerate(lay.names)])
    lo, hi = fim._probe_ranges(sc, index, eta0, h)
    cols = {}
    for i in range(size):
        up, dn = eta0.copy(), eta0.copy()
        up[i] += h[i]
        dn[i] -= h[i]
        slots = np.flatnonzero(np.any(index == i, axis=(0, 2)))
        mu_up = mean_from_eta(frame, up, slots).reshape(slots.size, -1)
        mu_dn = mean_from_eta(frame, dn, slots).reshape(slots.size, -1)
        for r, s in enumerate(slots.tolist()):
            cols[i, s] = (mu_up[r, lo[s]:hi[s]] - mu_dn[r, lo[s]:hi[s]]) / (2.0 * h[i])
    M = np.zeros((size, size))
    for s in range(index.shape[1]):
        entries = [i for i in range(size) if (i, s) in cols]
        flat = np.stack([cols[i, s] for i in entries]).view(np.float64)
        M[np.ix_(entries, entries)] += flat @ flat.T
    M /= sc.sigma2
    return 0.5 * (M + M.T)


@pytest.mark.parametrize("f_s", [10e9, 100e9])
@pytest.mark.parametrize("n_paths", [1, 2, 3])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_numeric_fim_equals_the_per_entry_probe_exactly(kind, n_paths, f_s):
    # one stacked evaluation per slot forms every difference and Gram block
    # exactly as evaluating each entry on its own does
    n_f = 3
    sc = dataclasses.replace(reference_scenario(n_f=n_f, n_paths=n_paths), f_s=f_s)
    mod = make_modulation(kind, n_f)
    np.testing.assert_array_equal(observation_fim_numeric(sc, mod).data,
                                  _per_entry_probe(sc, mod))


@pytest.mark.parametrize("f_s", [10e9, 100e9])
@pytest.mark.parametrize("n_paths", [1, 2, 3])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_numeric_fim_equals_whole_frame_probe(kind, n_paths, f_s):
    # the slot-local probe differs from the whole-frame one only in the
    # summation order of its Gram
    n_f = 3
    sc = dataclasses.replace(reference_scenario(n_f=n_f, n_paths=n_paths), f_s=f_s)
    mod = make_modulation(kind, n_f)
    got = observation_fim_numeric(sc, mod).data
    want = _whole_frame_probe(sc, mod)
    d = np.sqrt(np.diag(want))
    assert np.max(np.abs(got - want) / np.outer(d, d)) <= 1e-13


@pytest.mark.parametrize("f_s", [10e9, 100e9])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_numeric_fim_sample_range_covers_wide_delay_steps(kind, f_s, monkeypatch):
    # a 50 alpha delay step moves a pulse clear of its +-40 alpha window at
    # eta0: the probe's per-slot sample range must take in the shifted
    # pulses too, or their differences are cut off
    n_f = 3
    sc = dataclasses.replace(reference_scenario(n_f=n_f, n_paths=2), f_s=f_s)
    mod = make_modulation(kind, n_f)
    monkeypatch.setattr(fim, "DELAY_STEP", 50.0)
    got = observation_fim_numeric(sc, mod).data
    want = _whole_frame_probe(sc, mod)
    d = np.sqrt(np.diag(want))
    assert np.max(np.abs(got - want) / np.outer(d, d)) <= 1e-13


def test_numeric_fim_evaluates_each_slot_once_for_the_entries_it_drives(monkeypatch):
    # one stacked mean_from_eta call per slot, with one pulse-window pass;
    # its rows are eta0 +- h on one entry that drives the slot, so the probe
    # makes one up and one down evaluation per (entry, slot) pair the
    # per-slot map names, not per entry and PRI
    n_f = 8
    sc = reference_scenario(n_f=n_f, n_paths=3)
    mod = make_modulation("bpsk-pilot", n_f)
    frame = Frame(sc, mod)
    size, index = frame.eta.size, frame.slot_map
    names = frame.eta.names
    eta0 = eta_point(frame)
    want = 2 * sum(int(np.any(index == i, axis=(0, 2)).sum()) for i in range(size))
    assert (want, 2 * size * n_f) == (144, 576)
    windows, calls = [], []
    window, evaluate = signals._pulse_window, fim.mean_from_eta

    def counted(*args, **kwargs):
        windows.append(1)
        return window(*args, **kwargs)

    def recorded(frame, eta, slots=None):
        before = len(windows)
        out = evaluate(frame, eta, slots)
        calls.append((np.array(eta), list(slots), len(windows) - before))
        return out

    monkeypatch.setattr(signals, "_pulse_window", counted)
    monkeypatch.setattr(fim, "mean_from_eta", recorded)
    observation_fim_numeric(sc, mod)
    assert [slots for _, slots, _ in calls] == [[s] for s in range(n_f)]
    evaluations = []
    for eta, (s,), passes in calls:
        assert passes == 1
        for row in eta:
            (i,) = np.flatnonzero(row != eta0)
            assert np.any(index[:, s] == i), (names[i], s)
            h = fd_step(sc, names[i], eta0[i])
            assert row[i] in (eta0[i] + h, eta0[i] - h), names[i]
            evaluations.append((i, s, row[i] > eta0[i]))
    assert len(evaluations) == len(set(evaluations)) == want


def test_numeric_fim_positive_semidefinite():
    sc = reference_scenario(n_f=2, n_paths=1)
    num = observation_fim_numeric(sc, ModulationConfig(Scheme.SENSING))
    eigs = sym_eigs(num.data)
    assert eigs.min() >= -1e-8 * eigs.max()


def test_numeric_fim_custom_steps(monkeypatch):
    sc = reference_scenario(n_f=2, n_paths=1)
    mod = ModulationConfig(Scheme.SENSING)
    a = observation_fim_numeric(sc, mod)
    for name in ("DELAY_STEP", "PHASE_STEP", "AMP_STEP"):
        monkeypatch.setattr(fim, name, 2.0 * getattr(fim, name))
    b = observation_fim_numeric(sc, mod)
    assert fim_deviation(a.data, b.data) < 1e-5


@pytest.mark.parametrize("alpha", [0.2e-9, 20e-12, 2e-12])
@pytest.mark.parametrize("kind", ["sensing", "ppm-raw"])
def test_numeric_fim_is_as_accurate_at_every_pulse_width(kind, alpha):
    # the delay step is a fixed share of the pulse width, so the probe's
    # truncation error, (h / alpha)**2, is the same at 0.2 ns, 20 ps and 2 ps
    # (with f_s = 2 / alpha); a fixed 1e-13 s step gives 1.25e-3 at 2 ps
    base = reference_scenario(n_f=2, n_paths=1)
    pulse = dataclasses.replace(base.pulse, alpha=alpha)
    sc = dataclasses.replace(base, f_s=2.0 / alpha, pulse=pulse)
    mod = make_modulation(kind, 2)
    num = observation_fim_numeric(sc, mod).data
    assert fim_deviation(num, observation_fim_analytic(sc, mod).data) < 1e-6


@pytest.mark.parametrize("field,value,entry", [("alpha", 1e-321, "tau_1"),
                                               ("amp", 1e-318, "amp_1")])
def test_numeric_fim_refuses_a_step_that_is_not_positive(field, value, entry):
    # a pulse width or an amplitude near the bottom of the float range makes
    # its entry's step 0.0: refused by name, before the difference divides by it
    sc = reference_scenario(n_f=2, n_paths=1)
    if field == "alpha":
        sc = dataclasses.replace(sc, pulse=dataclasses.replace(sc.pulse, alpha=value))
    else:
        sc = dataclasses.replace(sc, paths=(dataclasses.replace(sc.paths[0], amp=value),))
    with pytest.raises(ConfigError, match=f"step for '{entry}' is 0.0; it must be finite and > 0"):
        observation_fim_numeric(sc, ModulationConfig(Scheme.SENSING))


@pytest.mark.parametrize("f_c,steps,entries", [
    (3993.6e6, {"DELAY_STEP": 1e-30}, "['tau_1']"),
    (3993.6e6, {"PHASE_STEP": 1e-30}, "['phi_0_1', 'phi_1_1']"),
    (3993.6e6, {"AMP_STEP": 1e-30}, "['amp_1']"),
    (1e18, {}, "['phi_0_1', 'phi_1_1']"),  # phases near 1e11 rad
])
def test_numeric_fim_refuses_a_step_lost_against_its_entry(f_c, steps, entries, monkeypatch):
    # eta0 + h == eta0 in float64: the difference and its diagonal are 0
    for name, value in steps.items():
        monkeypatch.setattr(fim, name, value)
    sc = dataclasses.replace(reference_scenario(n_f=2, n_paths=1), f_c=f_c)
    with pytest.raises(ConfigError, match=re.escape(
            f"wiped out the diagonal for {entries}: a step below the float spacing")) as err:
        observation_fim_numeric(sc, ModulationConfig(Scheme.SENSING))
    assert str(err.value).endswith("the squared difference of a signal too weak for "
                                   "float64 underflows")


def test_numeric_fim_guards():
    # 2 + 64 + 2 = 68 parameters is past the probe's budget
    sc = reference_scenario(n_f=32, n_paths=2)
    with pytest.raises(ConfigError):
        observation_fim_numeric(sc, ModulationConfig(Scheme.SENSING))
    # 8 PRIs x 100 ns at 1 THz = 8e5 samples, also past the budget
    sc = ScenarioConfig(f_c=3993.6e6, t_f=100e-9, n_f=8, f_s=1e12, sigma2=1.0,
                        paths=(PathState(20e-9),), pulse=PulseShape())
    with pytest.raises(ConfigError):
        observation_fim_numeric(sc, ModulationConfig(Scheme.SENSING))


# ----------------------------------------------------------- labeled matrices

def test_labeled_matrix_validation():
    sc = reference_scenario(n_f=2, n_paths=1)
    lay = Frame(sc, ModulationConfig(Scheme.SENSING)).eta
    with pytest.raises(ConfigError):
        LabeledMatrix(np.eye(lay.size + 1), lay)
    bad = np.eye(lay.size)
    bad[0, 1] = 0.5
    with pytest.raises(ConfigError):
        LabeledMatrix(bad, lay)


def test_labeled_matrix_symmetry_is_checked_per_pair():
    # a skew Doppler pair next to a delay block 23 orders of magnitude larger:
    # a tolerance relative to max |M| cannot see it
    lay = theta_layout(Scheme.SENSING, 2)
    M = np.eye(lay.size)
    M[0, 0] = M[1, 1] = 1e23
    fd1, dfd = lay.block("fd1")[0], lay.block("dfd")[0]
    M[fd1, dfd], M[dfd, fd1] = 0.9, -0.9
    with pytest.raises(ConfigError, match=r"not symmetric at \(fd1, dfd_2\)"):
        LabeledMatrix(M, lay)
    M[dfd, fd1] = 0.9 * (1.0 + 1e-12)  # roundoff-sized skew passes
    LabeledMatrix(M, lay)
    # where a diagonal entry is 0 the pair must match exactly
    M = np.eye(lay.size)
    M[fd1, fd1] = 0.0
    M[fd1, dfd], M[dfd, fd1] = 1e-300, 0.0
    with pytest.raises(ConfigError, match="not symmetric"):
        LabeledMatrix(M, lay)


def test_an_exact_transpose_is_not_scanned_for_symmetry(monkeypatch):
    # the closed form of every kind and the probe's symmetrised I_eta equal
    # their transposes bit for bit, so no pair of them is compared
    scans = []
    real = fim._first_apart
    monkeypatch.setattr(fim, "_first_apart", lambda *args: (scans.append(args), real(*args))[1])
    for kind in ALL_KINDS:
        for sc, mod in frame_shapes(kind, (1, 2, 8, 499, 500, 10 ** 20)):
            closed_form_theta_fim(Frame(sc, mod))
        for sc, mod in frame_shapes(kind, (2,), n_paths=(1, 3)):
            observation_fim_numeric(sc, mod)
    assert scans == []
    # a matrix off its transpose is still scanned, and refused as before
    lay = theta_layout(Scheme.SENSING, 1)
    M = np.eye(lay.size)
    M[0, 1] = 1e-3
    with pytest.raises(ConfigError, match=re.escape(
            "matrix is not symmetric at (tau1, fd1): "
            "|M_ij - M_ji| = 1.000e-03 vs sqrt(|M_ii M_jj|) = 1.000e+00")):
        LabeledMatrix(M, lay)
    assert len(scans) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-300.0, 300.0), min_size=n, max_size=n),
    st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n),
    st.integers(0, n - 1), st.integers(1, n - 1))))
def test_equilibrated_scale_spans_the_float_range(case):
    # diagonals from 1e-300 to 1e300: sqrt(M_ii M_jj) itself over- or underflows
    exponents, coupling, i, shift = case
    n, j = len(exponents), (i + shift) % len(exponents)
    root = 10.0 ** (np.array(exponents) / 2.0)
    upper = np.triu(np.reshape(coupling, (n, n)) * root[:, None] * root[None, :], 1)
    M = upper + upper.T + np.diag(root * root)
    scaled = fim._equilibrated(M, np.diag(M))
    assert np.all(np.isfinite(scaled))
    np.testing.assert_allclose(np.diag(scaled), 1.0, rtol=4 * np.finfo(float).eps)
    lay = ParamLayout((Block("x", n),))
    LabeledMatrix(M, lay)
    skewed = M.copy()
    r = np.sqrt(np.diag(M))
    skewed[i, j] += 1e-6 * r[i] * r[j]
    a, b = sorted((i, j))
    with pytest.raises(ConfigError, match=rf"not symmetric at \(x_{a + 1}, x_{b + 1}\)"):
        LabeledMatrix(skewed, lay)


def test_labeled_matrix_block_accessor():
    sc = reference_scenario(n_f=2, n_paths=2)
    mod = ModulationConfig(Scheme.SENSING)
    I = observation_fim_analytic(sc, mod)
    lay = Frame(sc, mod).eta
    sl = lay.block_slice("tau")
    np.testing.assert_array_equal(I.block("tau", "tau"), I.data[sl, sl])
    assert I.size == lay.size


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_labeled_matrices_refuse_non_finite_entries(bad):
    lay = Frame(reference_scenario(n_f=2, n_paths=1), ModulationConfig(Scheme.SENSING)).eta
    names = lay.names
    M = np.eye(lay.size)
    M[1, 2] = M[2, 1] = bad  # a NaN skew compares False against any tolerance
    with pytest.raises(ConfigError, match=rf"\({names[1]}, {names[2]}\) is {bad}"):
        LabeledMatrix(M, lay)
    d = np.ones(lay.size)
    d[2] = bad
    with pytest.raises(ConfigError, match=rf"\({names[2]}, {names[2]}\) is {bad}"):
        DiagonalMatrix(d, lay)


def test_diagonal_matrix_validation():
    lay = Frame(reference_scenario(n_f=2, n_paths=1), ModulationConfig(Scheme.SENSING)).eta
    for shape in ((lay.size + 1,), (lay.size, lay.size), ()):
        with pytest.raises(ConfigError, match="diagonal shape"):
            DiagonalMatrix(np.ones(shape), lay)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_diagonal_matrix_blocks_and_dense_form(kind):
    sc = reference_scenario(n_f=4, n_paths=2)
    I = observation_fim_analytic(sc, make_modulation(kind, 4))
    assert isinstance(I, DiagonalMatrix)
    assert "data" not in I.__dict__  # the dense form waits for a request
    dense = I.data
    assert I.data is dense  # and is then built once
    np.testing.assert_array_equal(dense, np.diag(I.diag))
    # the table's blocks, then the per-PRI blocks of each run
    runs = ("t", "phi") if kind == "ppm-diff" else ("phi",)
    names = [*I.layout.block_bounds, *(f"{run}_{k}" for run in runs for k in range(4))]
    for a in names:
        for b in names:
            ra, rb = I.layout.block_slice(a), I.layout.block_slice(b)
            np.testing.assert_array_equal(I.block(a, b), dense[ra, rb], err_msg=f"{a}, {b}")
