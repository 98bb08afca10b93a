"""EFIM / CRLB assembly, singularity diagnosis, and the differential pipeline.

Closed-form factors used below (equal path amplitudes, lam = per-PRI delay
information of one path):

  sensing, L paths, N_f PRIs      EFIM(tau1) = N_f * lam
  pilot PPM, L=3, split P+D       EFIM(tau1) = 3(P+D)P / (3P+D) * lam
  pilot PPM comm, any L           EFIM(q)    = L*P*D/(P+D) * lam
  differential, L=1, weight w     EFIM(tau1) = N_f * lam * w/(w+4)
  differential, L=3, weight 1     EFIM(tau1) = (3/7) * N_f * lam
"""

import numpy as np
import pytest

from isacbounds.model import (
    ConfigError,
    Decoupling,
    ModulationConfig,
    SPEED_OF_LIGHT,
    Scheme,
    theta_layout,
)
from isacbounds import bounds
from isacbounds.fim import (
    LabeledMatrix,
    observation_fim_analytic,
    observation_fim_numeric,
    per_pri_information,
)
from isacbounds.jacobians import e_vector, h_matrix
from isacbounds.bounds import (
    CoupledParametersError,
    DifferentialResult,
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


# --------------------------------------------------------- singularity report

def test_singularity_report_healthy():
    rep = singularity_report(np.eye(4), labels=("a", "b", "c", "d"))
    assert not rep.singular
    assert rep.rank == 4
    assert rep.coupled_columns == ()
    assert rep.zero_columns == ()


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


@pytest.mark.parametrize("kind", ("sensing", "ppm-pilot", "ppm-diff"))
def test_numeric_chain_matches_closed_form(kind):
    sc = reference_scenario(n_f=2, n_paths=1)
    mod = make_modulation(kind, 2)
    num = observation_fim_numeric(sc, mod)
    fim = assemble_theta_fim(sc, mod, i_eta=num)
    closed = closed_form_theta_fim(sc, mod)
    assert fim_deviation(fim.data, closed.data) < 1e-4


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
            fast = differential_pipeline(sc, mod, sfd_weight=w).i_theta
            i_eta = observation_fim_analytic(sc, mod, sfd_weight=w)
            dense = DifferentialResult(sc, mod, w, i_eta=i_eta).i_theta
            assert fast.layout.names == dense.layout.names
            assert equilibrated_deviation(fast.data, dense.data) < 1e-12, (n_f, w)


def test_differential_pipeline_builds_dense_chain_only_on_request():
    n_f = 100_000
    sc = reference_scenario(n_f=n_f)
    mod = make_modulation("ppm-diff", n_f)
    res = differential_pipeline(sc, mod)
    assert not {"i_eta", "i_ext", "i_diffseq_raw", "i_diffseq"} & set(vars(res))
    closed = closed_form_theta_fim(sc, mod)
    assert equilibrated_deviation(res.i_theta.data, closed.data) < 1e-12


@pytest.mark.parametrize("n_f", (8, 2048))
@pytest.mark.parametrize("weight", (-1.0, 0.0, float("nan"), float("inf")))
def test_sfd_weight_checked_at_every_frame_length(n_f, weight):
    sc = reference_scenario(n_f=n_f)
    mod = make_modulation("ppm-diff", n_f)
    with pytest.raises(ConfigError, match="sfd_weight"):
        crlb_report(sc, mod, sfd_weight=weight)
    with pytest.raises(ConfigError, match="sfd_weight"):
        differential_pipeline(sc, mod, sfd_weight=weight)


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
    res = differential_pipeline(sc, mod)
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
    res = differential_pipeline(sc, make_modulation("ppm-diff", 3))
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
    res = differential_pipeline(sc, make_modulation("ppm-diff", 4))
    lam = np.diag(lam_per_pri(sc))
    H, E = h_matrix(3), e_vector(3)
    n_f = 4
    np.testing.assert_allclose(res.i_theta.block("tau1", "tau1"),
                               (n_f * H.T @ lam @ H)[:1, :1], rtol=1e-12)
    tt = res.i_theta.data[:3, :3]
    np.testing.assert_allclose(tt, n_f * H.T @ lam @ H, rtol=1e-12)
    np.testing.assert_allclose(res.i_theta.block("dtau_q", "dtau_q"),
                               5.0 * n_f * E.T @ lam @ E, rtol=1e-12)
    tq = res.i_theta.data[:3, 3:4]
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
        fim = assemble_theta_fim(sc, mod, sfd_weight=w)
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
