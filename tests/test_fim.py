"""Observation-domain information matrices: closed forms vs. the numeric probe.

The frozen anchors here were computed once from the closed forms and pinned:
  * per-PRI delay information at 0 dB, alpha = 0.2 ns:  1.25e22  (x8 = 1e23)
  * per-PRI phase information at 0 dB:                  1000.0
  * quadratic ramp coefficient over 2048 PRIs of 100ns: 1.1295622957189463e-3 s^2
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacbounds.model import (
    ConfigError,
    Decoupling,
    ModulationConfig,
    PathState,
    PulseShape,
    ScenarioConfig,
    Scheme,
    effective_bandwidth,
    eta_layout_for,
    received_snr,
    theta_layout,
)
from isacbounds import signals
from isacbounds.fim import (
    DEFAULT_FD,
    DiagonalMatrix,
    FdSteps,
    LabeledMatrix,
    coeff_a_range,
    coeff_b_full,
    observation_fim_analytic,
    observation_fim_numeric,
    per_pri_information,
)
from isacbounds.experiments import fim_deviation, reference_scenario, with_snr
from isacbounds.jacobians import ramp_slope
from isacbounds.signals import _slot_model, eta_point, mean_from_eta

from conftest import ALL_KINDS, make_modulation, sym_eigs


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


def test_coeff_anchor_values():
    # sum over kappa of (2 pi kappa T_f)^2, 2048 PRIs of 100 ns
    assert coeff_b_full(1e-7, 2048) == pytest.approx(1.1295622957189463e-3, rel=1e-12)
    assert coeff_b_full(1e-7, 1) == 0.0


# --------------------------------------------------------- per-PRI information

def test_per_pri_information_anchors():
    sc = reference_scenario(n_f=8, n_paths=1)  # 0 dB per path
    lam_tau, lam_phi, lam_amp = per_pri_information(sc)
    snr = received_snr(sc, sc.paths[0])
    assert snr == pytest.approx(1.0, rel=1e-9)
    B = effective_bandwidth(sc.pulse)
    assert lam_tau[0] == pytest.approx((2 * np.pi * B) ** 2 * sc.t_f * sc.f_s * snr,
                                       rel=1e-12)
    assert lam_tau[0] == pytest.approx(1.25e22, rel=1e-9)
    assert 8 * lam_tau[0] == pytest.approx(1e23, rel=1e-9)
    assert lam_phi[0] == pytest.approx(1000.0, rel=1e-9)
    assert lam_amp[0] == pytest.approx(lam_phi[0] / sc.paths[0].amp ** 2, rel=1e-12)


def test_information_scales_with_snr_not_for_amp_rows():
    base = reference_scenario(n_f=2, n_paths=1)
    quiet = with_snr(base, -60.0)  # amplitude scaled by 1e-3
    lt0, lp0, la0 = per_pri_information(base)
    lt1, lp1, la1 = per_pri_information(quiet)
    assert lt1[0] == pytest.approx(1e-6 * lt0[0], rel=1e-9)
    assert lp1[0] == pytest.approx(1e-6 * lp0[0], rel=1e-9)
    # amplitude information does not depend on the amplitude itself
    assert la1[0] == pytest.approx(la0[0], rel=1e-9)


# ------------------------------------------------------ analytic matrix layout

def test_analytic_fim_block_structure_sensing():
    sc = reference_scenario(n_f=2, n_paths=2)
    mod = ModulationConfig(Scheme.SENSING)
    I = observation_fim_analytic(sc, mod)
    lay = eta_layout_for(sc, mod)
    assert I.data.shape == (lay.size, lay.size)
    # off-diagonal coupling between tau / phi / amp blocks vanishes
    assert np.all(I.block("tau", "phi") == 0.0)
    assert np.all(I.block("tau", "amp") == 0.0)
    assert np.all(I.block("phi", "amp") == 0.0)
    # per-PRI diagonal blocks repeat
    np.testing.assert_allclose(I.block("phi_0", "phi_0"),
                               I.block("phi_1", "phi_1"), rtol=1e-12)
    lam_tau, lam_phi, _ = per_pri_information(sc)
    np.testing.assert_allclose(np.diag(I.block("tau", "tau")),
                               sc.n_f * lam_tau, rtol=1e-12)
    np.testing.assert_allclose(np.diag(I.block("phi_0", "phi_0")), lam_phi,
                               rtol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_analytic_fim_diagonal_by_block(kind):
    # per block: the number of pulses that carry the entry times one pulse's
    # lambda (the differential reference counts sfd_weight pulses)
    n_f, w = 6, 2.5
    sc = reference_scenario(n_f=n_f, n_paths=3)
    mod = make_modulation(kind, n_f)
    if "pilot" in kind:
        mod = dataclasses.replace(mod, p_pilots=2, d_data=4)
    lt, lp, la = per_pri_information(sc)
    want = {f"phi_{k}": lp for k in range(n_f)}
    if mod.decoupling == Decoupling.PILOT:
        want.update(tau_p=2 * lt, tau_d=4 * lt, amp_p=2 * la, amp_d=4 * la)
    elif mod.decoupling == Decoupling.DIFFERENTIAL:
        want.update({f"t_{k}": lt for k in range(n_f)}, t_ref=w * lt, amp=n_f * la)
    else:
        want.update(tau=n_f * lt, amp=n_f * la)
    I = observation_fim_analytic(sc, dataclasses.replace(mod, sfd_weight=w))
    assert sum(I.layout.block_size(name) for name in want) == I.size
    for name, values in want.items():
        np.testing.assert_array_equal(np.diag(I.block(name, name)), values, err_msg=name)
    np.testing.assert_array_equal(I.data, np.diag(np.diag(I.data)))


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


def _whole_frame_probe(sc, mod, steps=DEFAULT_FD):
    # central differences of the whole stacked frame, steps chosen by entry
    # name, then one dense Gram over every column
    lay = eta_layout_for(sc, mod)
    eta = eta_point(sc, mod)
    cols = []
    for i, name in enumerate(lay.names):
        if name.startswith(("tau", "t_")):
            h = steps.delay
        elif name.startswith("phi"):
            h = steps.phase
        else:
            h = steps.amp_rel * abs(eta[i])
        up, dn = eta.copy(), eta.copy()
        up[i] += h
        dn[i] -= h
        cols.append((mean_from_eta(sc, mod, up) - mean_from_eta(sc, mod, dn)) / (2.0 * h))
    B = np.stack(cols, axis=1)
    return (B.conj().T @ B).real / sc.sigma2


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


def test_numeric_fim_samples_only_the_slots_each_entry_drives(monkeypatch):
    # each entry re-evaluates the slots the per-slot map says it drives (one
    # sample_pulse call per slot, up and down), not the whole frame
    n_f = 8
    sc = reference_scenario(n_f=n_f, n_paths=3)
    mod = make_modulation("bpsk-pilot", n_f)
    size, _, index = _slot_model(sc, mod)
    want = 2 * sum(int(np.any(index == i, axis=(0, 2)).sum()) for i in range(size))
    assert (want, 2 * size * n_f) == (144, 576)
    calls = []
    sample = signals.sample_pulse

    def counted(*args, **kwargs):
        calls.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(signals, "sample_pulse", counted)
    observation_fim_numeric(sc, mod)
    assert len(calls) == want


def test_numeric_fim_positive_semidefinite():
    sc = reference_scenario(n_f=2, n_paths=1)
    num = observation_fim_numeric(sc, ModulationConfig(Scheme.SENSING))
    eigs = sym_eigs(num.data)
    assert eigs.min() >= -1e-8 * eigs.max()


def test_numeric_fim_custom_steps():
    sc = reference_scenario(n_f=2, n_paths=1)
    mod = ModulationConfig(Scheme.SENSING)
    a = observation_fim_numeric(sc, mod)
    b = observation_fim_numeric(sc, mod, steps=FdSteps(delay=2e-13, phase=2e-7,
                                                       amp_rel=2e-7))
    assert fim_deviation(a.data, b.data) < 1e-5


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
    lay = eta_layout_for(sc, ModulationConfig(Scheme.SENSING))
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


def test_labeled_matrix_block_accessor():
    sc = reference_scenario(n_f=2, n_paths=2)
    mod = ModulationConfig(Scheme.SENSING)
    I = observation_fim_analytic(sc, mod)
    lay = eta_layout_for(sc, mod)
    sl = lay.block_slice("tau")
    np.testing.assert_array_equal(I.block("tau", "tau"), I.data[sl, sl])
    assert I.size == lay.size


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_labeled_matrices_refuse_non_finite_entries(bad):
    lay = eta_layout_for(reference_scenario(n_f=2, n_paths=1), ModulationConfig(Scheme.SENSING))
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
    lay = eta_layout_for(reference_scenario(n_f=2, n_paths=1), ModulationConfig(Scheme.SENSING))
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
    for a in I.layout.block_bounds:
        for b in I.layout.block_bounds:
            ra, rb = I.layout.block_slice(a), I.layout.block_slice(b)
            np.testing.assert_array_equal(I.block(a, b), dense[ra, rb], err_msg=f"{a}, {b}")
