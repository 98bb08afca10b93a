"""EFIM / CRLB assembly, singularity diagnosis, and the differential pipeline.

Closed-form factors used below (equal path amplitudes, lam = per-PRI delay
information of one path):

  sensing, L paths, N_f PRIs      EFIM(tau1) = N_f * lam
  pilot PPM, L=3, split P+D       EFIM(tau1) = 3(P+D)P / (3P+D) * lam
  pilot PPM comm, any L           EFIM(q)    = L*P*D/(P+D) * lam
  differential, L=1, weight w     EFIM(tau1) = N_f * lam * w/(w+4)
  differential, L=3, weight 1     EFIM(tau1) = (3/7) * N_f * lam
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
    ParamLayout,
    SPEED_OF_LIGHT,
    Scheme,
    UndersampledPulseError,
    theta_layout,
)
from isacbounds import bounds
from isacbounds.fim import (
    LabeledMatrix,
    observation_fim_analytic,
    observation_fim_numeric,
    per_pri_information,
)
from isacbounds.jacobians import e_vector, h_matrix, jacobian_for
from isacbounds.bounds import (
    CoupledParametersError,
    assemble_theta_fim,
    closed_form_theta_fim,
    comm_efim_ppm,
    crlb,
    crlb_report,
    differential_pipeline,
    efim,
    range_crlb,
    schur_complement,
    singularity_report,
    zero_reference_cross,
)
from isacbounds.experiments import fim_deviation, reference_scenario, with_frame

from conftest import ALL_KINDS, make_modulation, sym_eigs
from differential_reference import differential_chain


def lam_per_pri(sc):
    lt, _, _ = per_pri_information(sc)
    return lt


def equilibrated_deviation(test, ref):
    """max |T_ij - R_ij| / sqrt(R_ii R_jj); entries with a zero scale must match exactly."""
    d = np.sqrt(np.diag(ref))
    scale = np.outer(d, d)
    diff = np.abs(test - ref)
    assert np.all(diff[scale == 0.0] == 0.0)
    return float(np.max(diff[scale > 0.0] / scale[scale > 0.0]))


# ------------------------------------------------------------ Schur complement

def test_schur_complement_two_by_two():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    out = schur_complement(M, np.array([0]), np.array([1]))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(1.5, rel=1e-15)


def test_schur_complement_matches_inverse_block():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(6, 6))
    M = A @ A.T + 6 * np.eye(6)
    keep, elim = np.array([0, 1]), np.array([2, 3, 4, 5])
    out = schur_complement(M, keep, elim)
    want = np.linalg.inv(np.linalg.inv(M)[np.ix_(keep, keep)])
    np.testing.assert_allclose(out, want, rtol=1e-10)


def test_schur_complement_rejects_singular_nuisance():
    M = np.array([[2.0, 1.0, 1.0],
                  [1.0, 1.0, 1.0],
                  [1.0, 1.0, 1.0]])  # elim block is rank one
    with pytest.raises(CoupledParametersError) as exc:
        schur_complement(M, np.array([0]), np.array([1, 2]),
                         elim_labels=("x", "y"))
    assert exc.value.report is not None


def test_coupled_error_is_diagnosed_on_first_read(ref8, monkeypatch):
    fim = assemble_theta_fim(ref8, ModulationConfig(Scheme.PPM, d_data=ref8.n_f))
    calls = []
    report = bounds.singularity_report

    def counted(*args, **kwargs):
        calls.append(1)
        return report(*args, **kwargs)

    monkeypatch.setattr(bounds, "singularity_report", counted)
    with pytest.raises(CoupledParametersError) as exc:
        efim(fim, "fd1")
    assert calls == []  # raising costs no SVD
    assert str(exc.value) == (
        "nuisance block is singular (rank 8 of 9); coupled columns: tau1~dtau_q; "
        "choose a decoupling strategy or drop the affected parameters")
    assert exc.value.report.coupled_columns == (("tau1", "dtau_q"),)
    assert len(calls) == 1  # built once, then kept
    # a report catches two such errors (fd1, amp) and diagnoses only I_theta
    calls.clear()
    rep = crlb_report(ref8, ModulationConfig(Scheme.PPM, d_data=ref8.n_f))
    assert rep.crlb["fd1"] is None and rep.crlb["amp"] is None
    assert len(calls) == 1


# --------------------------------------------------------- singularity report

def test_singularity_report_healthy():
    rep = singularity_report(np.eye(4), labels=("a", "b", "c", "d"))
    assert not rep.singular
    assert rep.rank == 4
    assert rep.coupled_columns == ()
    assert rep.zero_columns == ()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_singularity_report_pairs_columns_only_when_rank_deficient(monkeypatch, kind):
    # a coupled pair (i, j) has |S (e_i - e_j)| <= RANK_RTOL smax, which
    # already drops the rank: a full-rank report compares no column pair
    real, calls = np.linalg.norm, []

    def counting(x, *args, **kwargs):
        calls.append(kwargs.get("axis"))
        return real(x, *args, **kwargs)

    fim = assemble_theta_fim(reference_scenario(n_f=8), make_modulation(kind, 8))
    monkeypatch.setattr(np.linalg, "norm", counting)
    rep = singularity_report(fim)
    assert calls[0] == 0  # the column norms
    if rep.singular:
        assert len(calls) > 1
    else:
        assert calls == [0]


def test_singularity_report_coupled_pair():
    M = np.array([[1.0, 1.0, 0.0],
                  [1.0, 1.0, 0.0],
                  [0.0, 0.0, 2.0]])
    rep = singularity_report(M, labels=("u", "v", "w"))
    assert rep.singular
    assert rep.rank == 2
    assert rep.coupled_columns == (("u", "v"),)


def test_singularity_report_zero_column():
    M = np.diag([1.0, 0.0, 3.0])
    rep = singularity_report(M, labels=("u", "v", "w"))
    assert rep.singular
    assert rep.rank == 2
    assert rep.zero_columns == ("v",)


def test_singularity_report_subnormal_diagonal():
    # 1 / d = 1e320 overflows; scaling by one root per side does not
    with np.errstate(all="raise"):
        rep = singularity_report(np.diag([1e-320, 1e-320]), labels=("u", "v"))
    assert not rep.singular
    assert rep.rank == 2
    assert rep.coupled_columns == ()


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_singularity_report_refuses_non_finite_entries(bad):
    M = np.eye(3)
    M[2, 1] = bad
    with pytest.raises(ConfigError, match=rf"\(w, v\) is {bad}"):
        singularity_report(M, labels=("u", "v", "w"))


def test_singularity_report_survives_mixed_scales():
    # delay information sits ~23 decades above Doppler information; the rank
    # decision has to hold up under that
    M = np.diag([1e23, 1e23, 1.0, 1e-3])
    rep = singularity_report(M, labels=("t1", "t2", "f1", "f2"))
    assert not rep.singular
    assert rep.rank == 4
    # and a genuine coupling hidden among huge entries is still found
    N = np.diag([1e23, 1e23, 1e-3, 1e-3])
    N[2, 3] = N[3, 2] = 1e-3
    rep = singularity_report(N, labels=("t1", "t2", "f1", "f2"))
    assert rep.singular
    assert rep.coupled_columns == (("f1", "f2"),)


# ------------------------------------------------------------------- EFIM/CRLB

def test_efim_scalar_and_information_reduction(ref8):
    mod = ModulationConfig(Scheme.SENSING)
    fim = assemble_theta_fim(ref8, mod)
    lam = lam_per_pri(ref8)
    e = efim(fim, "tau1")
    assert e.shape == (1, 1)
    # Schur never adds information
    assert e[0, 0] <= fim.block("tau1", "tau1")[0, 0] * (1 + 1e-12)
    assert crlb(fim, "tau1") == pytest.approx(1.0 / e[0, 0], rel=1e-12)
    # equal amplitudes: eliminating the relative delays costs nothing extra
    assert e[0, 0] == pytest.approx(ref8.n_f * lam[0], rel=1e-10)


def test_efim_matches_scaled_full_inverse(ref8):
    for kind in ("sensing", "ppm-pilot", "bpsk-pilot", "ppm-diff"):
        mod = make_modulation(kind, ref8.n_f)
        fim = assemble_theta_fim(ref8, mod)
        M = fim.data
        d = np.sqrt(np.diag(M))
        Mi = np.linalg.inv(M / np.outer(d, d)) / np.outer(d, d)
        lay = fim.layout
        for target in ("tau1", "fd1"):
            sl = lay.block_slice(target)
            want = float(np.trace(Mi[sl, sl]))
            assert crlb(fim, target) == pytest.approx(want, rel=1e-8), \
                (kind, target)


def test_range_crlb_scaling(ref8):
    fim = assemble_theta_fim(ref8, ModulationConfig(Scheme.SENSING))
    assert range_crlb(fim) == pytest.approx(
        SPEED_OF_LIGHT ** 2 * crlb(fim, "tau1"), rel=1e-12)


def test_efim_refuses_annihilated_target(ref8):
    mod = ModulationConfig(Scheme.PPM, d_data=ref8.n_f)
    fim = assemble_theta_fim(ref8, mod)
    with pytest.raises(CoupledParametersError):
        efim(fim, "tau1")


def test_crlb_monotone_in_frame_length():
    mod = ModulationConfig(Scheme.SENSING)
    ranges, dopplers = [], []
    for n_f in (2, 4, 8, 16):
        fim = assemble_theta_fim(reference_scenario(n_f=n_f), mod)
        ranges.append(crlb(fim, "tau1"))
        dopplers.append(crlb(fim, "fd1"))
    assert all(a > b for a, b in zip(ranges, ranges[1:]))
    assert all(a > b for a, b in zip(dopplers, dopplers[1:]))


# --------------------------------------------------- closed form vs. products

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_closed_form_theta_fim_consistent_with_product(kind):
    sc = reference_scenario(n_f=4, n_paths=2)
    mod = make_modulation(kind, 4)
    # assemble_theta_fim cross-checks product vs. closed form at 1e-10 and
    # raises if they disagree; run it for the side effect and sanity-check PSD
    fim = assemble_theta_fim(sc, mod)
    closed = closed_form_theta_fim(sc, mod)
    assert fim_deviation(fim.data, closed.data) < 1e-10
    eigs = sym_eigs(fim.data)
    assert eigs.min() >= -1e-8 * eigs.max()


NON_DIFFERENTIAL = ("sensing", "ppm-pilot", "bpsk-pilot", "ppm-raw", "bpsk-raw")


@pytest.mark.parametrize("n_paths", (1, 2, 3))
@pytest.mark.parametrize("kind", NON_DIFFERENTIAL)
def test_product_route_equals_dense_triple_product(kind, n_paths):
    # J^T diag(lambda) J against the dense J^T I_eta J it replaces
    for n_f in (1, 8, 64, 499):
        sc = reference_scenario(n_f=n_f, n_paths=n_paths)
        if "pilot" in kind and n_f == 1:
            mod = ModulationConfig(kind.split("-")[0], Decoupling.PILOT, p_pilots=1, d_data=0)
        else:
            mod = make_modulation(kind, n_f)
        I = observation_fim_analytic(sc, mod)
        assert np.array_equal(I.data, np.diag(I.diag)), n_f
        J = jacobian_for(sc, mod).data
        fim = assemble_theta_fim(sc, mod)
        assert equilibrated_deviation(fim.data, J.T @ I.data @ J) <= 1e-13, n_f


@pytest.mark.parametrize("kind", ("ppm-pilot", "sensing"))
def test_product_route_never_builds_dense_i_eta(monkeypatch, kind):
    seen = []

    def capture(*args, **kwargs):
        seen.append(observation_fim_analytic(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(bounds, "observation_fim_analytic", capture)
    n_f = 499
    assemble_theta_fim(reference_scenario(n_f=n_f), make_modulation(kind, n_f))
    assert len(seen) == 1
    assert "data" not in seen[0].__dict__


def test_overflowing_sfd_weight_is_a_config_error():
    sc = reference_scenario(n_f=8)
    mod = make_modulation("ppm-diff", 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route, entry in ((differential_pipeline, r"\(tau1, tau1\) is nan"),
                             (closed_form_theta_fim, r"\(dtau_q, dtau_q\) is inf")):
            with pytest.raises(ConfigError, match=entry):
                route(sc, dataclasses.replace(mod, sfd_weight=1e300))


@pytest.mark.parametrize("kind", ("sensing", "ppm-pilot", "ppm-diff"))
def test_numeric_chain_matches_closed_form(kind):
    sc = reference_scenario(n_f=2, n_paths=1)
    mod = make_modulation(kind, 2)
    num = observation_fim_numeric(sc, mod)
    if kind == "ppm-diff":
        fim = differential_chain(sc, num).i_theta.data
    else:
        J = jacobian_for(sc, mod)
        assert J.row_layout.names == num.layout.names
        fim = J.data.T @ num.data @ J.data
    closed = closed_form_theta_fim(sc, mod)
    assert fim_deviation(fim, closed.data) < 1e-4


@pytest.mark.parametrize("kind,n_f", [("sensing", 8), ("bpsk-pilot", 8),
                                      ("ppm-diff", 8), ("ppm-diff", 2048)])
@pytest.mark.parametrize("block", ("delay", "doppler", "amp"))
def test_crosscheck_sees_every_block(monkeypatch, kind, n_f, block):
    # delay entries are ~23 orders of magnitude above the others; a gate on
    # the largest entry would let a wrong Doppler or amplitude block through
    real = bounds.closed_form_theta_fim

    def skewed(*args, **kwargs):
        out = real(*args, **kwargs)
        data = out.data.copy()
        sl = out.layout.block_slice(block)
        data[sl, sl] *= 1.0 + 1e-6
        return LabeledMatrix(data, out.layout)

    monkeypatch.setattr(bounds, "closed_form_theta_fim", skewed)
    with pytest.raises(RuntimeError, match="disagree"):
        assemble_theta_fim(reference_scenario(n_f=n_f), make_modulation(kind, n_f))


@pytest.mark.parametrize("n_paths", (1, 2, 3))
def test_structured_differential_matches_dense_chain(n_paths):
    for n_f in (1, 2, 4, 8, 64):
        sc = reference_scenario(n_f=n_f, n_paths=n_paths)
        mod = make_modulation("ppm-diff", n_f)
        for w in (0.5, 1.0, 4.0):
            weighted = dataclasses.replace(mod, sfd_weight=w)
            fast = differential_pipeline(sc, weighted)
            i_eta = observation_fim_analytic(sc, weighted)
            dense = differential_chain(sc, i_eta).i_theta
            assert fast.layout.names == dense.layout.names
            assert equilibrated_deviation(fast.data, dense.data) < 1e-12, (n_f, w)


def test_differential_chain_rejects_a_foreign_layout():
    sc = reference_scenario(n_f=4, n_paths=2)
    for mod, sc_eta in ((make_modulation("ppm-pilot", 4), sc),
                        (make_modulation("ppm-diff", 2), reference_scenario(n_f=2, n_paths=2))):
        with pytest.raises(ConfigError, match="layout"):
            differential_chain(sc, observation_fim_analytic(sc_eta, mod))


def test_differential_pipeline_builds_dense_chain_only_on_request():
    n_f = 100_000
    sc = reference_scenario(n_f=n_f)
    mod = make_modulation("ppm-diff", n_f)
    fim = differential_pipeline(sc, mod)
    closed = closed_form_theta_fim(sc, mod)
    assert equilibrated_deviation(fim.data, closed.data) < 1e-12


@pytest.mark.parametrize("n_f", (8, 2048))
@pytest.mark.parametrize("weight", (-4.0, -1.0, 0.0, float("nan"), float("inf"),
                                    float("-inf")))
def test_sfd_weight_checked_at_every_frame_length(n_f, weight):
    # the weight is checked once, when the modulation is built, so no route
    # (crlb_report, differential_pipeline, closed_form_theta_fim) can see it
    mod = make_modulation("ppm-diff", n_f)
    with pytest.raises(ConfigError, match="sfd_weight"):
        dataclasses.replace(mod, sfd_weight=weight)


@pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k != "ppm-diff"])
def test_only_differential_frames_read_sfd_weight(kind):
    # the crossover verb builds its differential arm from a pilot config, so
    # any frame may carry a weight
    sc = reference_scenario(n_f=8)
    mod = make_modulation(kind, 8)
    assert crlb_report(sc, dataclasses.replace(mod, sfd_weight=2.5)) == crlb_report(sc, mod)


def _with_amp(sc, amp):
    return dataclasses.replace(sc, paths=tuple(dataclasses.replace(p, amp=amp)
                                               for p in sc.paths))


@pytest.mark.parametrize("amp", (1e200, 1e145, 1e-200, 1e-160, 1e-155))
@pytest.mark.parametrize("kind", ("sensing", "ppm-diff"))
def test_extreme_amplitude_rejected(amp, kind):
    # amp**2 overflows (1e200), lambda_tau overflows (1e145), the SNR
    # underflows to 0, leaving lambda_alpha = 0/0 (1e-200), or lambda_phi is
    # subnormal (1e-160).  At 1e-155 every lambda is normal, but the n_f = 8
    # Doppler diagonal of I_theta is subnormal.
    sc = _with_amp(reference_scenario(n_paths=1), amp)
    mod = make_modulation(kind, sc.n_f)
    if amp == 1e-155:
        assert all(np.all(v >= np.finfo(float).tiny) for v in per_pri_information(sc))
        with pytest.raises(ConfigError, match=r"\[fd1, fd1\] .* subnormal"):
            crlb_report(sc, mod)
        return
    with pytest.raises(ConfigError, match="per-PRI information"):
        per_pri_information(sc)
    with pytest.raises(ConfigError, match="per-PRI information"):
        crlb_report(sc, mod)


@pytest.mark.parametrize("f_s,accepted", ((2.5e9, False), (5e9, True)),
                         ids=("alpha_fs_0.5", "alpha_fs_1"))
def test_undersampled_pulse_rejected(f_s, accepted):
    # alpha = 0.2 ns: alpha * f_s = 0.5 misses sum(w'^2)/f_s by 67 %; at 1 the
    # error is 0.2 %
    sc = reference_scenario(f_s=f_s)
    if accepted:
        per_pri_information(sc)
        return
    with pytest.raises(UndersampledPulseError, match=r"alpha \* f_s = 0\.5"):
        per_pri_information(sc)
    with pytest.raises(UndersampledPulseError):
        crlb_report(sc, ModulationConfig(Scheme.SENSING))


def test_huge_information_keeps_its_crlb():
    # lambda_tau ~ 1e167: the outer product of the EFIM diagonal overflows
    sc = _with_amp(reference_scenario(n_paths=1), 1e70)
    rep = crlb_report(sc, ModulationConfig(Scheme.SENSING))
    assert not rep.singular
    assert rep.crlb["tau1"] == pytest.approx(1.0 / (sc.n_f * lam_per_pri(sc)[0]), rel=1e-12)


# ----------------------------------------------------------- exact equalities

def test_bpsk_pilot_delay_block_equals_sensing(ref8):
    mod_b = make_modulation("bpsk-pilot", ref8.n_f)
    fim_b = closed_form_theta_fim(ref8, mod_b)
    fim_s = closed_form_theta_fim(ref8, ModulationConfig(Scheme.SENSING))
    np.testing.assert_allclose(fim_b.block("delay", "delay"),
                               fim_s.block("delay", "delay"), rtol=1e-10)


def test_bpsk_pilot_ranging_equals_sensing(ref8):
    rep_b = crlb_report(ref8, make_modulation("bpsk-pilot", ref8.n_f))
    rep_s = crlb_report(ref8, ModulationConfig(Scheme.SENSING))
    assert rep_b.crlb["tau1"] == pytest.approx(rep_s.crlb["tau1"], rel=1e-10)


def test_ppm_pilot_doppler_equals_sensing(ref8):
    rep_p = crlb_report(ref8, make_modulation("ppm-pilot", ref8.n_f))
    rep_s = crlb_report(ref8, ModulationConfig(Scheme.SENSING))
    assert rep_p.crlb["fd1"] == pytest.approx(rep_s.crlb["fd1"], rel=1e-10)


def test_pilot_ppm_ranging_closed_factor(ref8):
    lam = lam_per_pri(ref8)[0]
    fim = assemble_theta_fim(ref8, make_modulation("ppm-pilot", 8))
    P = D = 4
    want = 3 * (P + D) * P / (3 * P + D) * lam
    assert efim(fim, "tau1")[0, 0] == pytest.approx(want, rel=1e-10)


def test_comm_efim_closed_factor(ref8):
    lam = lam_per_pri(ref8)[0]
    for (p, d) in ((4, 4), (2, 6), (6, 2)):
        mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=p, d_data=d)
        got = comm_efim_ppm(ref8, mod)
        assert got == pytest.approx(3 * p * d / (p + d) * lam, rel=1e-10), (p, d)
    with pytest.raises(ConfigError):
        comm_efim_ppm(ref8, ModulationConfig(Scheme.SENSING))
    with pytest.raises(ConfigError):
        comm_efim_ppm(ref8, make_modulation("ppm-diff", 8))


# ---------------------------------------------------------------- singularity

def test_undecoupled_ppm_coupling(ref8):
    rep = crlb_report(ref8, ModulationConfig(Scheme.PPM, d_data=8))
    assert rep.singular
    assert rep.size - rep.rank == 1
    assert rep.coupled_columns == (("tau1", "dtau_q"),)
    assert all(v is None for v in rep.crlb.values())
    assert rep.range_crlb_m2 is None


def test_undecoupled_bpsk_coupling(ref8):
    rep = crlb_report(ref8, ModulationConfig(Scheme.BPSK, d_data=8))
    assert rep.singular
    assert rep.size - rep.rank == 1
    assert rep.coupled_columns == (("fd1", "phi_bpsk"),)
    assert all(v is None for v in rep.crlb.values())


def test_single_pri_has_no_doppler():
    sc = reference_scenario(n_f=1, n_paths=1)
    rep = crlb_report(sc, ModulationConfig(Scheme.SENSING))
    assert rep.singular
    assert rep.zero_columns == ("fd1",)
    assert rep.rank == rep.size - 1
    assert rep.crlb["fd1"] is None


def test_pilot_and_differential_full_rank(ref8):
    for kind in ("ppm-pilot", "bpsk-pilot", "ppm-diff"):
        rep = crlb_report(ref8, make_modulation(kind, 8))
        assert not rep.singular, kind
        assert rep.rank == rep.size, kind
        assert rep.crlb["tau1"] is not None and rep.crlb["fd1"] is not None


def test_pilot_without_data_reports_dead_offset_column():
    sc = reference_scenario(n_f=4, n_paths=1)
    mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=4, d_data=0)
    rep = crlb_report(sc, mod)
    assert rep.singular
    assert rep.zero_columns == ("dtau_q",)


# --------------------------------------------------------------- differential

def test_differential_doubling_and_reference_cross():
    sc = reference_scenario(n_f=4, n_paths=2)
    mod = make_modulation("ppm-diff", 4)
    res = differential_chain(sc, observation_fim_analytic(sc, mod))
    lam = lam_per_pri(sc)
    lam_ref = lam  # sfd_weight = 1: one pulse's worth
    for k in range(4):
        dd = res.i_diffseq_raw.block(f"delta_{k}", f"delta_{k}")
        np.testing.assert_allclose(np.diag(dd), lam_ref + lam, rtol=1e-14)
        for j in range(k + 1, 4):
            cross = res.i_diffseq_raw.block(f"delta_{k}", f"delta_{j}")
            np.testing.assert_allclose(np.diag(cross), lam_ref, rtol=1e-14)
            after = res.i_diffseq.block(f"delta_{k}", f"delta_{j}")
            assert np.all(after == 0.0)
        dt = res.i_diffseq_raw.block(f"delta_{k}", f"t_{k}")
        np.testing.assert_allclose(np.diag(dt), lam, rtol=1e-14)
    # the common-reference rows of the expanded matrix all replicate lam_ref
    r01 = res.i_ext.block("ref_0", "ref_1")
    np.testing.assert_allclose(np.diag(r01), lam_ref, rtol=1e-14)


def test_zero_reference_cross_touches_only_cross_terms():
    sc = reference_scenario(n_f=3, n_paths=1)
    res = differential_chain(sc, observation_fim_analytic(sc, make_modulation("ppm-diff", 3)))
    raw, cut = res.i_diffseq_raw.data, res.i_diffseq.data
    changed = np.argwhere(raw != cut)
    lay = res.i_diffseq.layout
    delta_idx = set()
    for k in range(3):
        lo, hi = lay.block_bounds[f"delta_{k}"]
        delta_idx.update(range(lo, hi))
    for i, j in changed:
        assert i in delta_idx and j in delta_idx and i != j
    # idempotent
    again = zero_reference_cross(res.i_diffseq)
    np.testing.assert_array_equal(again.data, cut)


def test_differential_theta_blocks_closed_form():
    sc = reference_scenario(n_f=4, n_paths=3)
    fim = differential_pipeline(sc, make_modulation("ppm-diff", 4))
    lam = np.diag(lam_per_pri(sc))
    H, E = h_matrix(3), e_vector(3)
    n_f = 4
    np.testing.assert_allclose(fim.block("tau1", "tau1"),
                               (n_f * H.T @ lam @ H)[:1, :1], rtol=1e-12)
    tt = fim.data[:3, :3]
    np.testing.assert_allclose(tt, n_f * H.T @ lam @ H, rtol=1e-12)
    np.testing.assert_allclose(fim.block("dtau_q", "dtau_q"),
                               5.0 * n_f * E.T @ lam @ E, rtol=1e-12)
    tq = fim.data[:3, 3:4]
    np.testing.assert_allclose(tq, 2.0 * n_f * H.T @ lam @ E, rtol=1e-12)


@pytest.mark.parametrize("n_paths,factor", [(1, 1.0 / 5.0), (3, 3.0 / 7.0)])
def test_differential_ranging_closed_factor(n_paths, factor):
    sc = reference_scenario(n_f=8, n_paths=n_paths)
    fim = assemble_theta_fim(sc, make_modulation("ppm-diff", 8))
    lam = lam_per_pri(sc)[0]
    assert efim(fim, "tau1")[0, 0] == pytest.approx(factor * 8 * lam, rel=1e-10)


def test_differential_sfd_weight_improves_ranging():
    sc = reference_scenario(n_f=8, n_paths=1)
    lam = lam_per_pri(sc)[0]
    mod = make_modulation("ppm-diff", 8)
    for w in (0.5, 1.0, 4.0):
        fim = assemble_theta_fim(sc, dataclasses.replace(mod, sfd_weight=w))
        want = w / (w + 4.0) * 8 * lam
        assert efim(fim, "tau1")[0, 0] == pytest.approx(want, rel=1e-10)


def test_differential_single_data_pri_loses_doppler():
    # one data PRI leaves no PRI-to-PRI phase ramp: the Doppler column dies,
    # and a dead column makes the joint bound undefined (everything is None)
    sc = reference_scenario(n_f=1, n_paths=1)
    rep = crlb_report(sc, make_modulation("ppm-diff", 1))
    assert rep.singular
    assert rep.zero_columns == ("fd1",)
    assert rep.crlb["fd1"] is None and rep.crlb["tau1"] is None
    sc2 = reference_scenario(n_f=2, n_paths=1)
    rep2 = crlb_report(sc2, make_modulation("ppm-diff", 2))
    assert not rep2.singular
    assert rep2.crlb["fd1"] is not None and rep2.crlb["tau1"] is not None


# -------------------------------------------------------------------- reports

def test_crlb_report_fields(ref8):
    rep = crlb_report(ref8, make_modulation("ppm-pilot", 8))
    assert rep.scheme == "ppm" and rep.decoupling == "pilot"
    assert set(rep.crlb) == {"tau1", "dtau_q", "fd1", "amp"}
    assert rep.range_crlb_m2 == pytest.approx(
        SPEED_OF_LIGHT ** 2 * rep.crlb["tau1"], rel=1e-12)
    rep_b = crlb_report(ref8, make_modulation("bpsk-pilot", 8))
    assert set(rep_b.crlb) == {"tau1", "phi_bpsk", "fd1", "amp"}


def per_target_crlbs(fim):
    """The reference route: one Schur complement per target, None where it fails."""
    values = {}
    for target in bounds.CRLB_TARGETS:
        if target in fim.layout.block_bounds:
            try:
                values[target] = crlb(fim, target)
            except CoupledParametersError:
                values[target] = None
    return values


def assert_same_crlbs(got, want):
    assert got.keys() == want.keys()
    for name, value in want.items():
        if value is None:
            assert got[name] is None, name
        else:
            assert got[name] == pytest.approx(value, rel=1e-12, abs=0.0), name


@pytest.mark.parametrize("kind, n_f", [
    (kind, n_f) for kind in ALL_KINDS for n_f in (1, 2, 8, 64, 500, 2048, 10 ** 5)
    if n_f >= 2 or not kind.endswith("pilot")])  # a pilot split needs two PRIs
def test_one_factor_crlbs_equal_per_target_loop(kind, n_f):
    for n_paths in (1, 2, 3):
        sc = reference_scenario(n_f=n_f, n_paths=n_paths)
        mod = make_modulation(kind, n_f)
        want = per_target_crlbs(assemble_theta_fim(sc, mod))
        assert_same_crlbs(crlb_report(sc, mod).crlb, want)


@pytest.mark.parametrize("n_paths", (1, 3))
def test_near_singular_frame_takes_the_per_target_route(monkeypatch, n_paths):
    # one pilot among 1e8 PRIs: the equilibrated I_theta is within 1e-8 of
    # singular, so the one-factor bar refuses it; the Schur route then finds
    # some blocks and loses others
    n_f = 10 ** 8
    sc = reference_scenario(n_f=n_f, n_paths=n_paths)
    mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=1, d_data=n_f - 1)
    fim = assemble_theta_fim(sc, mod)
    targets = [t for t in bounds.CRLB_TARGETS if t in fim.layout.block_bounds]
    assert bounds._one_factor_crlbs(fim, targets) is None
    want = per_target_crlbs(fim)
    assert None in want.values() and any(v is not None for v in want.values())
    calls = []
    monkeypatch.setattr(bounds, "crlb", lambda *a: calls.append(a[1]) or crlb(*a))
    assert_same_crlbs(crlb_report(sc, mod).crlb, want)
    assert calls == targets


def test_one_factor_route_skips_the_schur_complements(monkeypatch, ref8):
    def refuse(*args):
        raise AssertionError("per-target Schur complement on a nonsingular frame")

    monkeypatch.setattr(bounds, "crlb", refuse)
    for kind in ("sensing", "ppm-pilot", "bpsk-pilot", "ppm-diff"):
        rep = crlb_report(ref8, make_modulation(kind, 8))
        assert None not in rep.crlb.values(), kind


def test_report_builds_no_eta_names(monkeypatch):
    # ppm-pilot at n_f = 500 takes the product route through a 1,512-entry
    # eta layout; only the theta layout's ten names may be built
    built = []
    names = ParamLayout.names

    def counting(layout):
        built.append(layout.size)
        return names.func(layout)

    monkeypatch.setattr(ParamLayout, "names", property(counting))
    sc = reference_scenario(n_f=500)
    crlb_report(sc, make_modulation("ppm-pilot", 500))
    assert set(built) <= {theta_layout(Scheme.PPM, 3).size}


@given(kind=st.sampled_from(ALL_KINDS), n_f=st.sampled_from((2, 8)),
       snr_db=st.floats(-10.0, 20.0), shift=st.floats(-18e-9, 30e-9),
       f_c=st.floats(1e9, 10e9),
       dopplers=st.lists(st.floats(-5e3, 5e3), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_crlb_report_invariants(kind, n_f, snr_db, shift, f_c, dopplers):
    # delay, Doppler and data-parameter CRLBs scale as 1/SNR; the amplitude
    # CRLB and the rank structure stay put; none of them depends on a common
    # delay shift inside the PRI, on f_c or on the path Dopplers
    mod = make_modulation(kind, n_f)
    ref = crlb_report(reference_scenario(n_f=n_f), mod)  # 0 dB, no shift
    sc = reference_scenario(n_f=n_f, snr_db=snr_db, dopplers=tuple(dopplers))
    sc = dataclasses.replace(sc, f_c=f_c, paths=tuple(
        dataclasses.replace(p, tau_l0=p.tau_l0 + shift) for p in sc.paths))
    rep = crlb_report(sc, mod)
    for field in ("size", "singular", "rank", "coupled_columns", "zero_columns"):
        assert getattr(rep, field) == getattr(ref, field), field
    assert rep.crlb.keys() == ref.crlb.keys()
    snr = 10.0 ** (snr_db / 10.0)
    for name, want in ref.crlb.items():
        got = rep.crlb[name]
        if want is None:
            assert got is None, name
        elif name == "amp":
            assert got == pytest.approx(want, rel=1e-9)
        else:
            assert got * snr == pytest.approx(want, rel=1e-9), name


@given(n_paths=st.integers(1, 3),
       n_f_p=st.integers(3, 500).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
       snr_db=st.floats(-10.0, 30.0), shift=st.floats(-18e-9, 30e-9),
       dopplers=st.lists(st.floats(-5e3, 5e3), min_size=3, max_size=3),
       sfd_weight=st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_decoupling_separates_the_sensing_and_data_domains(n_paths, n_f_p, snr_db, shift,
                                                           dopplers, sfd_weight):
    # the paper's coupling claim as exact identities: a decoupled frame pays
    # for its data only in the parameter the data moves (PPM: delay, BPSK:
    # phase), so its other CRLBs are those of a sensing frame of equal length
    n_f, p = n_f_p
    d = n_f - p
    sc = reference_scenario(n_f=n_f, n_paths=n_paths, snr_db=snr_db,
                            dopplers=tuple(dopplers[:n_paths]))
    sc = dataclasses.replace(sc, paths=tuple(
        dataclasses.replace(path, tau_l0=path.tau_l0 + shift) for path in sc.paths))

    def pilot(scheme, p, d):
        return ModulationConfig(scheme=scheme, decoupling=Decoupling.PILOT,
                                p_pilots=p, d_data=d)

    sensing = crlb_report(sc, make_modulation("sensing", n_f)).crlb
    ppm = crlb_report(sc, pilot(Scheme.PPM, p, d)).crlb
    bpsk = crlb_report(sc, pilot(Scheme.BPSK, p, d)).crlb
    diff = crlb_report(sc, dataclasses.replace(make_modulation("ppm-diff", n_f),
                                               sfd_weight=sfd_weight)).crlb
    for name, frame, crlbs in (("fd1", "ppm-pilot", ppm), ("amp", "ppm-pilot", ppm),
                               ("fd1", "ppm-diff", diff), ("amp", "ppm-diff", diff),
                               ("tau1", "bpsk-pilot", bpsk), ("amp", "bpsk-pilot", bpsk)):
        assert crlbs[name] == pytest.approx(sensing[name], rel=1e-12), (frame, name)

    # data PRIs never remove delay information, and add less than pilots would
    longer = crlb_report(with_frame(sc, n_f + 1), pilot(Scheme.PPM, p, d + 1)).crlb
    assert longer["tau1"] <= ppm["tau1"] * (1 + 1e-12)
    assert sensing["tau1"] <= ppm["tau1"] * (1 + 1e-12)
    if p >= 2:
        pilots_only = crlb_report(with_frame(sc, p), make_modulation("sensing", p)).crlb
        assert ppm["tau1"] <= pilots_only["tau1"] * (1 + 1e-12)

    lam_tau = per_pri_information(sc)[0]
    assert comm_efim_ppm(sc, pilot(Scheme.PPM, p, d)) == pytest.approx(
        float(np.sum(lam_tau)) * p * d / (p + d), rel=1e-12)
