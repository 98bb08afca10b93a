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
import inspect
import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacbounds.model import (
    DECOUPLINGS,
    ConfigError,
    Decoupling,
    Frame,
    ModulationConfig,
    ParamLayout,
    SPEED_OF_LIGHT,
    Scheme,
    UndersampledPulseError,
    amp_for_snr_db,
    eta_size,
    theta_layout,
)
from isacbounds import bounds, jacobians, signals
from isacbounds.fim import (
    LabeledMatrix,
    _equilibrated,
    observation_fim_analytic,
    observation_fim_numeric,
)
from isacbounds.jacobians import e_vector, h_matrix, jacobian_for, ramp_slope
from isacbounds.bounds import (
    CoupledParametersError,
    assemble_theta_fim,
    closed_form_theta_fim,
    comm_efim_ppm,
    crlb,
    crlb_report,
    differential_pipeline,
    efim,
    schur_complement,
    singularity_report,
    zero_reference_cross,
)
from isacbounds.experiments import fim_deviation, reference_scenario, with_frame, with_snr

from conftest import ALL_KINDS, frame_shapes, make_modulation, sym_eigs
from closed_form_reference import closed_form_by_products
from differential_reference import differential_chain
from exact_reference import exact_crlbs, exact_theta_fim


def lam_per_pri(sc):
    lt, _, _ = sc.per_pri_information
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


def test_schur_complement_with_nothing_to_eliminate_is_the_kept_block():
    M = np.arange(9.0).reshape(3, 3)
    keep = np.array([2, 0])
    np.testing.assert_array_equal(schur_complement(M, keep, np.array([], dtype=np.intp)),
                                  M[np.ix_(keep, keep)])


def test_schur_complement_matches_inverse_block():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(6, 6))
    M = A @ A.T + 6 * np.eye(6)
    keep, elim = np.array([0, 1]), np.array([2, 3, 4, 5])
    out = schur_complement(M, keep, elim)
    want = np.linalg.inv(np.linalg.inv(M)[np.ix_(keep, keep)])
    np.testing.assert_allclose(out, want, rtol=1e-10)


def test_schur_complement_keeps_the_callers_index_order():
    # unsorted, non-contiguous blocks: the result and the error follow keep and elim as given
    rng = np.random.default_rng(11)
    A = rng.normal(size=(6, 6))
    M = A @ A.T + 6 * np.eye(6)
    keep, elim = np.array([4, 1]), np.array([5, 0, 3, 2])
    want = np.linalg.inv(np.linalg.inv(M)[np.ix_(keep, keep)])
    np.testing.assert_allclose(schur_complement(M, keep, elim), want, rtol=1e-10)

    M[:, 3] = M[:, 0]  # columns 0 and 3 coincide, so the nuisance block is rank-deficient
    M[3, :] = M[0, :]
    with pytest.raises(CoupledParametersError) as exc:
        schur_complement(M, keep, elim, [f"e{i}" for i in elim])
    assert np.array_equal(exc.value.block, M[np.ix_(elim, elim)])
    assert exc.value.labels == ("e5", "e0", "e3", "e2")
    assert exc.value.report.coupled_columns == (("e0", "e3"),)


def test_schur_complement_rejects_singular_nuisance():
    M = np.array([[2.0, 1.0, 1.0],
                  [1.0, 1.0, 1.0],
                  [1.0, 1.0, 1.0]])  # elim block is rank one
    with pytest.raises(CoupledParametersError) as exc:
        schur_complement(M, np.array([0]), np.array([1, 2]),
                         elim_labels=("x", "y"))
    assert exc.value.report is not None


def test_coupled_error_is_diagnosed_on_first_read(ref8, monkeypatch):
    fim = assemble_theta_fim(Frame(ref8, ModulationConfig(Scheme.PPM, d_data=ref8.n_f)))
    calls = []
    report = bounds.singularity_report

    def counted(*args, **kwargs):
        calls.append(1)
        return report(*args, **kwargs)

    monkeypatch.setattr(bounds, "singularity_report", counted)
    with pytest.raises(CoupledParametersError) as exc:
        efim(fim, "fd1")
    assert calls == []  # raising costs no SVD
    assert str(exc.value) == "nuisance block is singular: coupled columns: tau1~dtau_q"
    assert exc.value.report.coupled_columns == (("tau1", "dtau_q"),)
    assert len(calls) == 1  # built once, then kept
    # a report catches two such errors (fd1, amp) and diagnoses only I_theta
    calls.clear()
    rep = crlb_report(ref8, ModulationConfig(Scheme.PPM, d_data=ref8.n_f))
    assert rep.crlb["fd1"] is None and rep.crlb["amp"] is None
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["ppm-raw", "bpsk-raw"])
def test_nuisance_error_is_worded_by_describe(kind, monkeypatch):
    # every error raised at the nuisance elimination is the block's verdict,
    # and raising it runs no SVD
    calls = []
    report = bounds.singularity_report
    monkeypatch.setattr(bounds, "singularity_report",
                        lambda *a: calls.append(1) or report(*a))
    nuisance = 0
    for sc, mod in frame_shapes(kind, (1, 2, 8, 64)):
        fim = assemble_theta_fim(Frame(sc, mod))
        for target in bounds.CRLB_TARGETS:
            if target not in fim.layout.block_bounds:
                continue
            try:
                efim(fim, target)
                continue
            except CoupledParametersError as exc:
                err = exc
            if err.block is None:  # the EFIM floor: a message, no report
                assert err.report is None and "EFIM_FLOOR" in str(err)
                continue
            nuisance += 1
            assert calls == []
            assert str(err) == "nuisance block is singular: " + err.report.describe()
            assert err.report.singular
            calls.clear()
    assert nuisance > 0


def test_nuisance_error_without_a_named_column_gives_the_rank():
    # columns 1, 2 and their sum: rank 2 of 3, with no equal pair and no zero
    # column, under the default labels
    V = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    M = np.eye(4)
    M[1:, 1:] = V @ V.T
    with pytest.raises(CoupledParametersError) as exc:
        schur_complement(M, np.array([0]), np.array([1, 2, 3]))
    assert exc.value.labels == ("elim_1", "elim_2", "elim_3")
    assert str(exc.value) == "nuisance block is singular: rank 2 of 3"


def test_nuisance_error_offers_no_remedy_it_did_not_check(ref8):
    # an all-pilot PPM frame is cured by a data PRI, not by a decoupling: the
    # error states the verdict only
    fim = assemble_theta_fim(Frame(ref8, ModulationConfig(Scheme.PPM, Decoupling.PILOT,
                                                          p_pilots=8, d_data=0)))
    with pytest.raises(CoupledParametersError) as exc:
        efim(fim, "tau1")
    assert str(exc.value) == "nuisance block is singular: zero columns: dtau_q"


def test_efim_floor_error_states_the_floor_not_a_remedy():
    # one pilot against 1e8 - 1 data PRIs: a full-rank I_theta whose tau1
    # information the elimination annihilates; no nuisance block is singular
    n_f = 10 ** 8
    mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=1, d_data=n_f - 1)
    fim = assemble_theta_fim(Frame(reference_scenario(n_f=n_f), mod))
    with pytest.raises(CoupledParametersError) as exc:
        efim(fim, "tau1")
    assert exc.value.report is None
    assert re.fullmatch(r"information on block 'tau1' is annihilated by the nuisance "
                        r"parameters: scaled EFIM eigenvalue \S+ <= EFIM_FLOOR = 1e-08",
                        str(exc.value))


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

    fim = assemble_theta_fim(Frame(reference_scenario(n_f=8), make_modulation(kind, 8)))
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


def test_singularity_report_takes_only_a_labeled_or_square_matrix():
    # a DiagonalMatrix would build its dense n_eta x n_eta form: refused
    # before that, by the shape numpy sees
    diag = observation_fim_analytic(reference_scenario(), make_modulation("ppm-pilot", 8))
    with pytest.raises(ConfigError, match=re.escape("square 2-D matrix, got shape ()")):
        singularity_report(diag)
    assert "data" not in vars(diag)
    for bad in (np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(ConfigError, match=re.escape(f"got shape {bad.shape}")):
            singularity_report(bad)


def test_singularity_report_pairs_columns_past_512():
    M = np.eye(600)
    M[0, 1] = M[1, 0] = 1.0  # columns 0 and 1 are both e_0 + e_1
    rep = singularity_report(M)
    assert rep.rank == 599
    assert rep.coupled_columns == (("col_0", "col_1"),)
    assert rep.zero_columns == ()


def all_pairs(M: np.ndarray, labels: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    """Reference search: every pair of live columns of the equilibrated
    matrix, one column-difference test each."""
    d = np.diag(M)
    s = np.where(d > 0.0, 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0)), 1.0)
    S = M * s[:, None] * s[None, :]
    tol = bounds.RANK_RTOL * np.linalg.svd(S, compute_uv=False)[0]
    norms = [np.linalg.norm(S[:, i]) for i in range(len(labels))]
    pairs = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if (norms[i] > tol and norms[j] > tol and np.linalg.norm(S[:, i] - S[:, j])
                    <= bounds.RANK_RTOL * max(norms[i], norms[j])):
                pairs.append((labels[i], labels[j]))
    return tuple(pairs)


@given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_singularity_report_finds_the_planted_pairs(n, seed):
    # copies of random PSD columns, at mixed scales, with some rows and
    # columns zeroed: the vectorised search names exactly the pairs that the
    # all-pairs loop names, and every planted copy is among them
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n + 1))
    G = rng.standard_normal((m, int(rng.integers(1, m + 1))))
    source = rng.integers(0, m, size=n)
    scale = 10.0 ** rng.uniform(-20.0, 20.0, size=m)
    M = ((G @ G.T) * np.outer(scale, scale))[np.ix_(source, source)]
    dead = rng.random(n) < 0.2
    M[dead, :] = 0.0
    M[:, dead] = 0.0
    labels = tuple(f"c{i}" for i in range(n))
    rep = singularity_report(M, labels)
    assert rep.coupled_columns == all_pairs(M, labels)
    planted = {(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
               if source[i] == source[j] and not dead[i] and not dead[j]}
    assert planted <= set(rep.coupled_columns)
    assert rep.zero_columns == tuple(labels[i] for i in np.flatnonzero(dead))


@pytest.mark.parametrize("coupled,zero,text", [
    ((("u", "v"), ("u", "w")), (), "coupled columns: u~v, u~w"),
    ((), ("x", "y"), "zero columns: x, y"),
    ((("u", "v"),), ("x",), "coupled columns: u~v; zero columns: x"),
    ((), (), "rank 2 of 3"),
])
def test_singularity_report_describe(coupled, zero, text):
    rep = bounds.SingularityReport(3, 2, True, 0.0, coupled, zero)
    assert rep.describe() == text


# ------------------------------------------------------------------- EFIM/CRLB

def test_efim_scalar_and_information_reduction(ref8):
    mod = ModulationConfig(Scheme.SENSING)
    fim = assemble_theta_fim(Frame(ref8, mod))
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
        fim = assemble_theta_fim(Frame(ref8, mod))
        M = fim.data
        d = np.sqrt(np.diag(M))
        Mi = np.linalg.inv(M / np.outer(d, d)) / np.outer(d, d)
        lay = fim.layout
        for target in ("tau1", "fd1"):
            sl = lay.block_slice(target)
            want = float(np.trace(Mi[sl, sl]))
            assert crlb(fim, target) == pytest.approx(want, rel=1e-8), \
                (kind, target)


def test_efim_refuses_annihilated_target(ref8):
    mod = ModulationConfig(Scheme.PPM, d_data=ref8.n_f)
    fim = assemble_theta_fim(Frame(ref8, mod))
    with pytest.raises(CoupledParametersError):
        efim(fim, "tau1")


def test_efim_refuses_an_empty_target(ref8_single):
    # one path has no delay offsets: the dtau block has no entry
    fim = assemble_theta_fim(Frame(ref8_single, ModulationConfig(Scheme.SENSING)))
    lo, hi = fim.layout.block("dtau")
    assert hi - lo == 0
    with pytest.raises(ConfigError, match="target block 'dtau' is empty"):
        efim(fim, "dtau")


def test_differential_pipeline_refuses_another_frame(ref8):
    with pytest.raises(ConfigError, match="differential_pipeline requires differential"):
        differential_pipeline(Frame(ref8, make_modulation("ppm-pilot", ref8.n_f)))


def one_pilot_frames():
    """One pilot against 1e8 - 1 data PRIs, L = 1..3: full rank, but the
    elimination annihilates some blocks."""
    n_f = 10 ** 8
    for n_paths in (1, 2, 3):
        yield (reference_scenario(n_f=n_f, n_paths=n_paths),
               ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=1, d_data=n_f - 1))


def outcome(call, *args):
    """The bytes of ``call(*args)``'s matrix, or its error type and text."""
    try:
        out = call(*args)
    except (ConfigError, CoupledParametersError) as exc:
        return type(exc).__name__, str(exc)
    return getattr(out, "data", out).tobytes()


def efim_by_eigvalsh(fim, target):
    """:func:`efim` with the floor tested by eigvalsh on every block."""
    lo, hi = fim.layout.block(target)
    at, names = np.arange(fim.size), fim.layout.names
    E = schur_complement(fim.data, at[lo:hi], np.concatenate((at[:lo], at[hi:])),
                         names[:lo] + names[hi:])
    diag = fim.data.diagonal()[lo:hi]
    if (diag <= 0.0).any():
        raise CoupledParametersError(f"block {target!r} carries no information")
    scaled = _equilibrated(E, diag)
    min_eig = float(np.linalg.eigvalsh(0.5 * (scaled + scaled.T))[0])
    if min_eig <= bounds.EFIM_FLOOR:
        raise CoupledParametersError(
            f"information on block {target!r} is annihilated by the nuisance "
            f"parameters: scaled EFIM eigenvalue {min_eig:.2e} <= EFIM_FLOOR = "
            f"{bounds.EFIM_FLOOR:g}")
    return E


def test_efim_equals_the_eigvalsh_floor_on_every_target():
    # every target of every singular frame_grid shape, and of the full-rank
    # one-pilot frames whose elimination annihilates tau1 and dtau_q
    frames = [(sc, mod) for kind in ALL_KINDS
              for sc, mod in frame_shapes(kind, (8, 64, 256, 499, 500, 2048, 10 ** 5))]
    singular = [(sc, mod) for sc, mod in frames if crlb_report(sc, mod).singular]
    assert len(singular) >= 2 * 7 * 3
    seen = set()
    for sc, mod in [*singular, *one_pilot_frames()]:
        fim = assemble_theta_fim(Frame(sc, mod))
        for target in bounds.CRLB_TARGETS:
            if target in fim.layout.block_bounds:
                want = outcome(efim_by_eigvalsh, fim, target)
                assert outcome(efim, fim, target) == want, (sc, mod, target)
                seen.add((target, isinstance(want, tuple)))
    # one-entry and wider blocks, kept and annihilated, all occur
    assert {("tau1", True), ("tau1", False), ("amp", False)} <= seen


def test_crlb_monotone_in_frame_length():
    mod = ModulationConfig(Scheme.SENSING)
    ranges, dopplers = [], []
    for n_f in (2, 4, 8, 16):
        fim = assemble_theta_fim(Frame(reference_scenario(n_f=n_f), mod))
        ranges.append(crlb(fim, "tau1"))
        dopplers.append(crlb(fim, "fd1"))
    assert all(a > b for a, b in zip(ranges, ranges[1:]))
    assert all(a > b for a, b in zip(dopplers, dopplers[1:]))


# --------------------------------------------------- closed form vs. products

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_closed_form_theta_fim_consistent_with_product(kind):
    sc = reference_scenario(n_f=4, n_paths=2)
    mod = make_modulation(kind, 4)
    frame = Frame(sc, mod)
    # assemble_theta_fim cross-checks product vs. closed form at 1e-10 and
    # raises if they disagree; run it for the side effect and sanity-check PSD
    fim = assemble_theta_fim(frame)
    closed = closed_form_theta_fim(frame)
    assert fim_deviation(fim.data, closed.data) < 1e-10
    eigs = sym_eigs(fim.data)
    assert eigs.min() >= -1e-8 * eigs.max()


def test_assembly_returns_the_closed_form():
    # the product only checks: every route returns the closed form's bytes
    for kind in ALL_KINDS:
        for sc, mod in frame_shapes(kind, (1, 2, 8, 499, 500, 2048)):
            frame = Frame(sc, mod)
            fim = assemble_theta_fim(frame)
            assert fim.data.tobytes() == closed_form_theta_fim(frame).data.tobytes(), (sc, mod)
            assert fim.layout is frame.theta


def test_assembly_checks_each_product_once(monkeypatch):
    # the product is formed first, compared once as a bare array and never
    # wrapped: the only LabeledMatrix either route builds is the closed form
    calls, wrapped = [], []

    def spy(name):
        real = getattr(bounds, name)

        def wrapper(*args):
            calls.append((name, args))
            return real(*args)
        return wrapper

    for name in ("jacobian_for", "differential_pipeline", "closed_form_theta_fim",
                 "_check_agreement"):
        monkeypatch.setattr(bounds, name, spy(name))
    check = LabeledMatrix.__post_init__
    monkeypatch.setattr(LabeledMatrix, "__post_init__",
                        lambda self: (wrapped.append(self), check(self)))
    routes = set()
    for kind in ALL_KINDS:
        for sc, mod in frame_shapes(kind, (1, 8, 499, 500, 2048)):
            frame = Frame(sc, mod)
            calls.clear()
            wrapped.clear()
            assemble_theta_fim(frame)
            names = [name for name, _ in calls]
            if mod.decoupling == Decoupling.DIFFERENTIAL:
                route = "differential_pipeline"
            elif eta_size(frame) <= bounds.PRODUCT_CHECK_MAX_ETA:
                route = "jacobian_for"
            else:
                route = None
            routes.add(route)
            if route is None:
                assert names == ["closed_form_theta_fim"], (sc, mod)
                assert len(wrapped) == 1
                continue
            assert names == [route, "closed_form_theta_fim", "_check_agreement"], (sc, mod)
            product, closed = calls[-1][1]
            assert type(product) is np.ndarray and isinstance(closed, LabeledMatrix)
            assert len(wrapped) == 1
    assert routes == {"differential_pipeline", "jacobian_for", None}


def test_a_non_finite_product_is_a_config_error_naming_its_entry(monkeypatch):
    # the bare product is still refused entry by entry, before the comparison
    real = bounds.jacobian_for

    def overflowing(frame):
        J = real(frame).copy()
        J[:, frame.theta.block("fd1")[0]] *= 1e300
        return J

    monkeypatch.setattr(bounds, "jacobian_for", overflowing)
    frame = Frame(reference_scenario(n_f=8, n_paths=1), make_modulation("sensing", 8))
    with np.errstate(over="ignore"), pytest.raises(
            ConfigError, match=r"information entry \(fd1, fd1\) is inf; the configuration "
                               "overflows float64"):
        assemble_theta_fim(frame)


def closed_form_frames():
    for kind in ALL_KINDS:
        yield from frame_shapes(kind, (1, 2, 3, 8, 64, 499, 500, 2048, 10 ** 5))
    yield from one_pilot_frames()


def test_closed_form_fill_equals_the_block_products():
    # the arrow-block fill sums each entry as the congruences sum it
    for sc, mod in closed_form_frames():
        frame = Frame(sc, mod)
        got = closed_form_theta_fim(frame).data
        assert got.tobytes() == closed_form_by_products(frame).data.tobytes(), (sc, mod)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n_paths", (1, 3))
def test_closed_form_fill_refuses_as_the_block_products_do(kind, n_paths):
    # at n_f = 1e120 the ramp sum alone is past float64; at amp = 1e-155 every
    # lambda is normal but the Doppler diagonal is subnormal
    sc = reference_scenario(n_f=8, n_paths=n_paths)
    frames = [(dataclasses.replace(sc, n_f=10 ** 120), make_modulation(kind, 10 ** 120)),
              (_with_amp(sc, 1e-155), make_modulation(kind, 8))]
    for sc, mod in frames:
        frame = Frame(sc, mod)
        want = outcome(closed_form_by_products, frame)
        assert isinstance(want, tuple) and want[0] == "ConfigError", (sc, mod)
        assert outcome(closed_form_theta_fim, frame) == want


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
        frame = Frame(sc, mod)
        I = observation_fim_analytic(sc, mod)
        assert np.array_equal(I.data, np.diag(I.diag)), n_f
        J = jacobian_for(frame)
        fim = assemble_theta_fim(frame)
        assert equilibrated_deviation(fim.data, J.T @ I.data @ J) <= 1e-13, n_f


@pytest.mark.parametrize("kind", ("ppm-pilot", "sensing"))
def test_product_route_never_builds_dense_i_eta(monkeypatch, kind):
    seen = []

    def capture(*args, **kwargs):
        seen.append(observation_fim_analytic(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(bounds, "observation_fim_analytic", capture)
    n_f = 499
    assemble_theta_fim(Frame(reference_scenario(n_f=n_f), make_modulation(kind, n_f)))
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
                route(Frame(sc, dataclasses.replace(mod, sfd_weight=1e300)))


@pytest.mark.parametrize("kind", ("sensing", "ppm-pilot", "ppm-diff"))
def test_a_frame_past_float64_is_a_config_error_without_warnings(kind):
    # the products overflow quietly and the first finite check to see an inf
    # entry names it
    n_f = 10 ** 300
    mod = make_modulation(kind, n_f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="overflows float64"):
            crlb_report(reference_scenario(n_f=n_f), mod)


@pytest.mark.parametrize("kind", ("sensing", "ppm-pilot", "ppm-diff"))
def test_numeric_chain_matches_closed_form(kind):
    sc = reference_scenario(n_f=2, n_paths=1)
    mod = make_modulation(kind, 2)
    frame = Frame(sc, mod)
    num = observation_fim_numeric(sc, mod)
    if kind == "ppm-diff":
        fim = differential_chain(sc, num).i_theta.data
    else:
        J = jacobian_for(frame)
        assert frame.eta.names == num.layout.names
        fim = J.T @ num.data @ J
    closed = closed_form_theta_fim(frame)
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
        assemble_theta_fim(Frame(reference_scenario(n_f=n_f), make_modulation(kind, n_f)))


def test_crosscheck_is_exact_where_a_diagonal_entry_is_zero(monkeypatch):
    # at n_f = 1 the Doppler diagonal is 0: a 1e-300 mismatch in its row is
    # no roundoff on the equilibrated scale
    real = bounds.closed_form_theta_fim

    def skewed(*args, **kwargs):
        out = real(*args, **kwargs)
        data = out.data.copy()
        fd1, tau1 = out.layout.block("fd1")[0], out.layout.block("tau1")[0]
        assert data[fd1, fd1] == 0.0
        data[fd1, tau1] = data[tau1, fd1] = data[fd1, tau1] + 1e-300
        return LabeledMatrix(data, out.layout)

    sc, mod = reference_scenario(n_f=1), ModulationConfig(Scheme.SENSING)
    frame = Frame(sc, mod)
    assemble_theta_fim(frame)
    monkeypatch.setattr(bounds, "closed_form_theta_fim", skewed)
    with pytest.raises(RuntimeError, match=r"disagree at \((tau1, fd1|fd1, tau1)\)"):
        assemble_theta_fim(frame)


@pytest.mark.parametrize("n_paths", (1, 2, 3))
def test_structured_differential_matches_dense_chain(n_paths):
    for n_f in (1, 2, 4, 8, 64):
        sc = reference_scenario(n_f=n_f, n_paths=n_paths)
        mod = make_modulation("ppm-diff", n_f)
        for w in (0.5, 1.0, 4.0):
            weighted = dataclasses.replace(mod, sfd_weight=w)
            frame = Frame(sc, weighted)
            fast = differential_pipeline(frame)
            i_eta = observation_fim_analytic(sc, weighted)
            dense = differential_chain(sc, i_eta).i_theta
            assert frame.theta.names == dense.layout.names
            assert equilibrated_deviation(fast, dense.data) < 1e-12, (n_f, w)


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
    frame = Frame(sc, mod)
    fim = differential_pipeline(frame)
    closed = closed_form_theta_fim(frame)
    assert type(fim) is np.ndarray
    assert equilibrated_deviation(fim, closed.data) < 1e-12


def test_differential_ramp_sum_runs_in_bounded_memory():
    # 10^7 PRIs are 77 chunks of the ramp sum; all at once they took 160 MB
    n_f = 10 ** 7
    sc = reference_scenario(n_f=n_f)
    mod = make_modulation("ppm-diff", n_f)
    tracemalloc.start()
    try:
        report = crlb_report(sc, mod)  # cross-checked against the closed form
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert report.crlb["tau1"] is not None


@pytest.mark.parametrize("n_f", (1, 2, 3, 2 ** 17, 10 ** 7, 10 ** 15, 10 ** 103))
def test_differential_ramp_sum_is_exact(n_f):
    # fd1 carries l_phi times sum_kappa (kappa s_1)**2, s_1 = ramp_slope(1, t_f),
    # to the few roundings of forming it
    sc = reference_scenario(n_f=n_f, n_paths=1)
    frame = Frame(sc, make_modulation("ppm-diff", n_f))
    fim = differential_pipeline(frame)
    squares = Fraction(n_f * (n_f - 1) * (2 * n_f - 1), 6)
    if n_f <= 2 ** 17:
        assert squares == sum(kappa * kappa for kappa in range(n_f))
    exact = squares * Fraction(ramp_slope(1, sc.t_f)) ** 2 * Fraction(sc.per_pri_information[1][0])
    fd1 = frame.theta.block("fd1")[0]
    got = Fraction(fim[fd1, fd1])
    assert abs(got - exact) <= 4 * Fraction(np.finfo(float).eps) * exact


def test_differential_doppler_past_the_float_range_of_its_ramp_sum():
    # sum kappa**2 at n_f = 1e103 is past float64, slope_1**2 times it is not:
    # the differential frame's fd1 stays the sensing frame's, as at every n_f
    n_f = 10 ** 103
    sc = reference_scenario(n_f=n_f)
    diff = crlb_report(sc, make_modulation("ppm-diff", n_f)).crlb["fd1"]
    sensing = crlb_report(sc, make_modulation("sensing", n_f)).crlb["fd1"]
    assert diff == pytest.approx(sensing, rel=1e-12)


@pytest.mark.parametrize("kind", ("sensing", "ppm-diff"))
def test_doppler_crlb_where_only_the_integer_ramp_factor_is_past_float64(kind):
    # n (n-1) (2n-1) / 6 at n_f = 8e106 is past float64, the fd1 information is
    # not: both routes report the CRLB, which falls as n_f**-3 from 6e106 on
    crlbs = [crlb_report(with_snr(reference_scenario(n_f=n_f), -40.0),
                         make_modulation(kind, n_f)).crlb["fd1"]
             for n_f in (6 * 10 ** 106, 8 * 10 ** 106)]
    assert crlbs[1] == pytest.approx(crlbs[0] * (6 / 8) ** 3, rel=1e-12)


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
        assert all(np.all(v >= np.finfo(float).tiny) for v in sc.per_pri_information)
        with pytest.raises(ConfigError, match=r"\[fd1, fd1\] .* subnormal"):
            crlb_report(sc, mod)
        return
    with pytest.raises(ConfigError, match="per-PRI information"):
        sc.per_pri_information
    with pytest.raises(ConfigError, match="per-PRI information"):
        crlb_report(sc, mod)


@pytest.mark.parametrize("f_s,accepted", ((2.5e9, False), (5e9, True)),
                         ids=("alpha_fs_0.5", "alpha_fs_1"))
def test_undersampled_pulse_rejected(f_s, accepted):
    # alpha = 0.2 ns: alpha * f_s = 0.5 misses sum(w'^2)/f_s by 67 %; at 1 the
    # error is 0.2 %
    sc = reference_scenario(f_s=f_s)
    if accepted:
        sc.per_pri_information
        return
    with pytest.raises(UndersampledPulseError, match=r"alpha \* f_s = 0\.5"):
        sc.per_pri_information
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
    fim_b = closed_form_theta_fim(Frame(ref8, mod_b))
    fim_s = closed_form_theta_fim(Frame(ref8, ModulationConfig(Scheme.SENSING)))
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
    fim = assemble_theta_fim(Frame(ref8, make_modulation("ppm-pilot", 8)))
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


def _exact_comm_efim(sc, p, d):
    """dtau_q EFIM of a pilot PPM frame by exact rational elimination.

    The delay rows and dtau_q carry p pilots H^T Lam H and d data PRIs
    [H E]^T Lam [H E] (Doppler and amplitudes are uncoupled from them); the
    float lambdas are taken exactly and the delays eliminated by Gaussian
    elimination.
    """
    lam = [Fraction(float(x)) for x in lam_per_pri(sc)]
    H = [[Fraction(float(x)) for x in row] for row in h_matrix(sc.n_paths)]
    L = sc.n_paths
    data = [row + [Fraction(1)] for row in H]  # path l of a data PRI: [H E]
    M = [[sum(lam[l] * ((p + d) * H[l][i] * H[l][j] if max(i, j) < L else
                        d * data[l][i] * data[l][j]) for l in range(L))
          for j in range(L + 1)] for i in range(L + 1)]
    for k in range(L):  # eliminate the delays, pivot by pivot
        for i in range(k + 1, L + 1):
            factor = M[i][k] / M[k][k]
            M[i] = [a - factor * b for a, b in zip(M[i], M[k])]
    return M[L][L]


@pytest.mark.parametrize("n_f", [10 ** 6, 10 ** 7])
@pytest.mark.parametrize("n_paths", [1, 2, 3])
def test_comm_efim_matches_exact_arithmetic(n_f, n_paths):
    # one pilot against n_f - 1 data PRIs: a Schur complement of the float
    # I_theta cancels to 1e-9 here, the closed form keeps every digit
    sc = reference_scenario(n_f=n_f, n_paths=n_paths)
    mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=1, d_data=n_f - 1)
    exact = _exact_comm_efim(sc, 1, n_f - 1)
    assert abs(Fraction(comm_efim_ppm(sc, mod)) - exact) <= Fraction(1, 10 ** 14) * exact


@pytest.mark.parametrize("n_f", [2, 8, 997, 10 ** 8, 10 ** 20])
@pytest.mark.parametrize("n_paths", [1, 2, 3])
def test_comm_efim_is_the_exact_pilot_gap(n_f, n_paths):
    # sum_l lambda_tau,l * p d / n_f in Fraction arithmetic, for one and two
    # pilots and for one data PRI
    sc = reference_scenario(n_f=n_f, n_paths=n_paths)
    total = sum(Fraction(x) for x in sc.per_pri_information[0].tolist())
    for p in sorted({1, 2, n_f - 1} - {n_f}):
        mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=p, d_data=n_f - p)
        exact = total * p * (n_f - p) / n_f
        got = Fraction(comm_efim_ppm(sc, mod))
        assert abs(got - exact) <= 4 * Fraction(math.ulp(float(exact))), (n_f, p)


def test_comm_efim_past_float64_is_a_config_error():
    n_f = 10 ** 300
    mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=n_f // 2, d_data=n_f // 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"\(dtau_q, dtau_q\) is inf"):
            comm_efim_ppm(reference_scenario(n_f=n_f), mod)


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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_singular_frames_have_no_finite_crlb(kind):
    # a null vector of I_theta lies outside a target block (its nuisance
    # block is singular) or has a component in it (the EFIM annihilates it)
    singular = 0
    for sc, mod in frame_shapes(kind, (1, 2, 8, 64, 500)):
        rep = crlb_report(sc, mod)
        if rep.singular:
            singular += 1
            assert set(rep.crlb.values()) == {None}, (sc.n_f, sc.n_paths, mod)
            assert rep.range_crlb_m2 is None
    assert singular > 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_min_sv_ratio_is_zero_exactly_on_singular_frames(kind):
    # a singular report's smallest singular value is at or below the rank
    # cut, so its ratio is 0 rather than roundoff; a nonsingular one is above
    for sc, mod in frame_shapes(kind, (1, 2, 8)):
        rep = crlb_report(sc, mod)
        assert (rep.min_sv_ratio == 0.0) == rep.singular, (sc.n_f, sc.n_paths, mod)
        assert rep.singular or rep.min_sv_ratio > bounds.RANK_RTOL


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
    frame = Frame(sc, make_modulation("ppm-diff", 4))
    fim = differential_pipeline(frame)
    tau1, dtau_q = (frame.theta.block_slice(name) for name in ("tau1", "dtau_q"))
    lam = np.diag(lam_per_pri(sc))
    H, E = h_matrix(3), e_vector(3)
    n_f = 4
    np.testing.assert_allclose(fim[tau1, tau1],
                               (n_f * H.T @ lam @ H)[:1, :1], rtol=1e-12)
    tt = fim[:3, :3]
    np.testing.assert_allclose(tt, n_f * H.T @ lam @ H, rtol=1e-12)
    np.testing.assert_allclose(fim[dtau_q, dtau_q],
                               5.0 * n_f * E.T @ lam @ E, rtol=1e-12)
    tq = fim[:3, 3:4]
    np.testing.assert_allclose(tq, 2.0 * n_f * H.T @ lam @ E, rtol=1e-12)


@pytest.mark.parametrize("n_paths,factor", [(1, 1.0 / 5.0), (3, 3.0 / 7.0)])
def test_differential_ranging_closed_factor(n_paths, factor):
    sc = reference_scenario(n_f=8, n_paths=n_paths)
    fim = assemble_theta_fim(Frame(sc, make_modulation("ppm-diff", 8)))
    lam = lam_per_pri(sc)[0]
    assert efim(fim, "tau1")[0, 0] == pytest.approx(factor * 8 * lam, rel=1e-10)


def test_differential_sfd_weight_improves_ranging():
    sc = reference_scenario(n_f=8, n_paths=1)
    lam = lam_per_pri(sc)[0]
    mod = make_modulation("ppm-diff", 8)
    for w in (0.5, 1.0, 4.0):
        fim = assemble_theta_fim(Frame(sc, dataclasses.replace(mod, sfd_weight=w)))
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
        want = per_target_crlbs(assemble_theta_fim(Frame(sc, mod)))
        assert_same_crlbs(crlb_report(sc, mod).crlb, want)


@pytest.mark.parametrize("n_paths", (1, 3))
def test_near_singular_frame_takes_the_per_target_route(monkeypatch, n_paths):
    # one pilot among 1e8 PRIs: the equilibrated I_theta is within 1e-8 of
    # singular, and the per-target route, the oracle, finds some blocks and
    # loses others to EFIM_FLOOR; the report runs no per-target elimination
    # and takes every CRLB from the formulas, exact to a few ulps
    n_f = 10 ** 8
    sc = reference_scenario(n_f=n_f, n_paths=n_paths)
    mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=1, d_data=n_f - 1)
    want = per_target_crlbs(assemble_theta_fim(Frame(sc, mod)))
    assert None in want.values() and any(v is not None for v in want.values())

    def refuse(*args):
        raise AssertionError("per-target Schur complement on a nonsingular frame")

    monkeypatch.setattr(bounds, "crlb", refuse)
    rep = crlb_report(sc, mod)
    assert not rep.singular and rep.crlb.keys() == want.keys()
    assert_crlbs_are_exact(rep, Frame(sc, mod))


def test_one_factor_route_skips_the_schur_complements(monkeypatch, ref8):
    def refuse(*args):
        raise AssertionError("per-target Schur complement on a nonsingular frame")

    monkeypatch.setattr(bounds, "crlb", refuse)
    for kind in ("sensing", "ppm-pilot", "bpsk-pilot", "ppm-diff"):
        rep = crlb_report(ref8, make_modulation(kind, 8))
        assert None not in rep.crlb.values(), kind


def test_one_factor_route_reads_the_verdict_off_its_eigenvalues(monkeypatch, ref8):
    calls = []
    real = bounds.singularity_report
    monkeypatch.setattr(bounds, "singularity_report",
                        lambda *args: calls.append(args) or real(*args))
    for kind in ("sensing", "ppm-pilot", "bpsk-pilot", "ppm-diff"):
        assert not crlb_report(ref8, make_modulation(kind, 8)).singular, kind
    assert calls == []
    for kind in ("ppm-raw", "bpsk-raw"):
        assert crlb_report(ref8, make_modulation(kind, 8)).singular, kind
    assert len(calls) == 2


def verdict_frames():
    """Every frame_grid shape, n_f 1 and 2 and the near-singular one-pilot frame."""
    for kind in ALL_KINDS:
        yield from frame_shapes(kind, (1, 2, 8, 64, 256, 499, 500, 2048, 10 ** 5))
    yield from one_pilot_frames()


def test_report_verdict_equals_the_svd_verdict():
    fields = ("size", "rank", "singular", "coupled_columns", "zero_columns")
    for sc, mod in verdict_frames():
        rep = crlb_report(sc, mod)
        svd = singularity_report(assemble_theta_fim(Frame(sc, mod)))
        assert [getattr(rep, f) for f in fields] == [getattr(svd, f) for f in fields], (sc, mod)
        assert abs(rep.min_sv_ratio - svd.min_sv_ratio) <= 1e-13, (sc, mod)


# ------------------------------------------------- the formulas against exact

EPS = float(np.finfo(float).eps)
#: the frame kinds a decoupling makes nonsingular, as frame_grid runs them
NONSINGULAR_KINDS = ("sensing", "ppm-pilot", "bpsk-pilot", "ppm-diff")
#: the formulas' own rounding, in ulps of the exact inverse of the exact
#: I_theta: a few roundings of positive terms, whatever the conditioning
FORMULA_ULPS = 8


def assembly_ulps(frame) -> int:
    """Bound on the assembled I_theta's entry error on the equilibrated scale,
    in ulps: the closed form and the differential product round each entry a
    few times; J^T diag(lambda) J sums one term per eta entry into an entry,
    and by Cauchy-Schwarz their magnitudes add up to at most sqrt(I_ii I_jj).
    The assembly returns the closed form on every route, so the product
    route's allowance is slack: the BPSK pilot test below holds it to 8."""
    size = eta_size(frame)
    product = (frame.modulation.decoupling != Decoupling.DIFFERENTIAL
               and size <= bounds.PRODUCT_CHECK_MAX_ETA)
    return 8 + (size if product else 0)


def exact_error(fim, exact_fim) -> float:
    """Largest |fim_ij - exact_ij| on the equilibrated scale of ``fim``."""
    root = np.sqrt(fim.diagonal())
    return max(float(abs(Fraction(x) - exact_fim[i][j])) / root[i] / root[j]
               for (i, j), x in np.ndenumerate(fim))


def assert_crlbs_are_exact(report, frame):
    """The report's CRLBs against both exact references.

    Against the exact inverse of the exact I_theta, within FORMULA_ULPS.
    Against the exact inverse of the float I_theta the report assembled,
    within that plus what its assembly error E does to an inverse: with x =
    ||E||_2 ||I~^-1||_2 on the equilibrated scale, each (I~^-1)_ii moves by at
    most x / (1 - x) of itself, and ||E||_2 <= n max|E_ij|, which
    :func:`assembly_ulps` bounds in turn.
    """
    fim = assemble_theta_fim(frame)
    exact_fim = exact_theta_fim(frame)
    error = exact_error(fim.data, exact_fim)
    assert error <= assembly_ulps(frame) * EPS
    x = fim.size * error / np.linalg.eigvalsh(_equilibrated(fim.data, fim.data.diagonal()))[0]
    assert x < 0.5
    for exact, rel in ((exact_crlbs(exact_fim, fim.layout, report.crlb), FORMULA_ULPS * EPS),
                       (exact_crlbs(fim.data, fim.layout, report.crlb),
                        FORMULA_ULPS * EPS + x / (1.0 - x))):
        for name, value in report.crlb.items():
            assert abs(Fraction(value) - exact[name]) <= Fraction(rel) * exact[name], name


@pytest.mark.parametrize("kind", NONSINGULAR_KINDS)
def test_report_crlbs_are_exact_on_every_frame_grid_shape(kind):
    for n_f in (8, 64, 256, 499, 500, 2048, 10 ** 5):
        sc, mod = reference_scenario(n_f=n_f), make_modulation(kind, n_f)
        rep = crlb_report(sc, mod)
        assert not rep.singular
        assert_crlbs_are_exact(rep, Frame(sc, mod))


@pytest.mark.parametrize("kind", NONSINGULAR_KINDS)
def test_report_crlbs_are_exact_past_the_index_range(kind):
    # counts past 2**63, and a BPSK pilot gap (2 pi t_f)**2 G past float64
    # (n_f > 1e80) while I_theta stays finite: the gap is kept over c
    for n_f in (10 ** 20, 10 ** 85, 10 ** 100):
        sc, mod = reference_scenario(n_f=n_f), make_modulation(kind, n_f)
        rep = crlb_report(sc, mod)
        assert not rep.singular
        assert_crlbs_are_exact(rep, Frame(sc, mod))


def drawn_frame(kind, n_f_p, sfd_weight, snr_db):
    """A ``kind`` frame of n_f PRIs, p of them pilots, one path per SNR."""
    n_f, p = n_f_p
    sc = reference_scenario(n_f=n_f, n_paths=len(snr_db))
    sc = dataclasses.replace(sc, paths=tuple(
        dataclasses.replace(path, amp=amp_for_snr_db(snr, sc.t_f, sc.sigma2))
        for path, snr in zip(sc.paths, snr_db)))
    mod = make_modulation(kind, n_f)
    if kind.endswith("pilot"):
        mod = dataclasses.replace(mod, p_pilots=p, d_data=n_f - p)
    return sc, dataclasses.replace(mod, sfd_weight=sfd_weight) if kind == "ppm-diff" else mod


#: n_f from 3 (bpsk-pilot's least) to 1e6, with a pilot count p of one, of
#: all but one PRI, or anything between
FRAME_SPLITS = st.one_of(st.integers(3, 1000), st.integers(3, 10 ** 6)).flatmap(
    lambda n: st.tuples(st.just(n), st.sampled_from((1, n - 1)) | st.integers(1, n - 1)))
#: one SNR per path over 60 dB: amplitudes over three decades
PATH_SNRS = st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=3)


@given(kind=st.sampled_from(NONSINGULAR_KINDS), n_f_p=FRAME_SPLITS,
       sfd_weight=st.floats(0.1, 10.0), snr_db=PATH_SNRS)
@example(kind="ppm-pilot", n_f_p=(10 ** 6, 1), sfd_weight=1.0, snr_db=[-30.0, 30.0, 0.0])
@example(kind="ppm-diff", n_f_p=(2048, 1), sfd_weight=0.1, snr_db=[-30.0, 0.0, 30.0])
@settings(max_examples=60, deadline=None)
def test_report_crlbs_are_exact(kind, n_f_p, sfd_weight, snr_db):
    sc, mod = drawn_frame(kind, n_f_p, sfd_weight, snr_db)
    rep = crlb_report(sc, mod)
    assert not rep.singular
    assert_crlbs_are_exact(rep, Frame(sc, mod))


@given(n_f_p=st.integers(300, 996).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
       snr_db=PATH_SNRS)
@example(n_f_p=(690, 222), snr_db=[13.55, 1.66])
@settings(max_examples=20, deadline=None)
def test_assembled_theta_fim_is_exact_on_bpsk_pilot_frames(n_f_p, snr_db):
    # near the product route's top size J^T diag(lambda) J is tens of ulps
    # off here (46 at the example); the closed form returned sums each entry
    # directly
    frame = Frame(*drawn_frame("bpsk-pilot", n_f_p, 1.0, snr_db))
    assert exact_error(assemble_theta_fim(frame).data, exact_theta_fim(frame)) <= 8 * EPS


@given(kind=st.sampled_from(ALL_KINDS), n_f_p=FRAME_SPLITS, all_pilot=st.booleans(),
       sfd_weight=st.floats(0.1, 10.0), snr_db=PATH_SNRS)
@settings(max_examples=60, deadline=None)
def test_a_crlb_is_missing_only_from_a_singular_report(kind, n_f_p, all_pilot, sfd_weight,
                                                       snr_db):
    n_f, p = n_f_p
    sc, mod = drawn_frame(kind, (n_f, n_f if all_pilot else p), sfd_weight, snr_db)
    rep = crlb_report(sc, mod)
    if not rep.singular:
        assert None not in rep.crlb.values(), rep.crlb
        assert all(math.isfinite(v) and v > 0.0 for v in rep.crlb.values()), rep.crlb


def test_nonsingular_report_factors_nothing(monkeypatch):
    # the verdict's eigvalsh is the report's one LAPACK call: no Cholesky, no
    # inverse, no per-target elimination and no SVD
    frames = [(reference_scenario(n_f=n_f, n_paths=L), make_modulation(kind, n_f))
              for kind in NONSINGULAR_KINDS for n_f in (2, 8, 500, 2048, 10 ** 5)
              for L in (1, 2, 3)]
    frames = [(sc, mod) for sc, mod in frames
              if sc.n_f >= DECOUPLINGS[mod.scheme][mod.decoupling]]
    assert len(frames) == 4 * 5 * 3 - 3  # no two-PRI BPSK split is nonsingular

    def refuse(*args, **kwargs):
        raise AssertionError("a nonsingular report factored its information matrix")

    for module, name in ((np.linalg, "cholesky"), (np.linalg, "inv"),
                         (bounds, "crlb"), (bounds, "singularity_report")):
        monkeypatch.setattr(module, name, refuse)
    for sc, mod in frames:
        rep = crlb_report(sc, mod)
        assert not rep.singular and None not in rep.crlb.values(), (sc.n_f, mod)


def test_product_routes_read_no_arrow(monkeypatch, ref8):
    # the cross-check is worth something only while J and the differential
    # product state the data terms apart from the closed form's arrows
    def refuse(*args):
        raise AssertionError("a product route read the arrow record")

    monkeypatch.setattr(bounds, "arrows", refuse)
    for kind in ALL_KINDS:
        jacobian_for(Frame(ref8, make_modulation(kind, 8)))
    differential_pipeline(Frame(ref8, make_modulation("ppm-diff", 8)))
    with pytest.raises(AssertionError, match="arrow record"):
        closed_form_theta_fim(Frame(ref8, make_modulation("ppm-diff", 8)))


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


def test_bound_path_calls_nothing_in_signals(monkeypatch):
    # the frame owns the eta layout and its slot map: I_eta, the Jacobian and
    # the assembly of every kind, product route included, never call the sampler
    shapes = [(kind, n_f) for kind in ALL_KINDS for n_f in (8, 500)]
    want = [crlb_report(reference_scenario(n_f=n_f), make_modulation(kind, n_f))
            for kind, n_f in shapes]

    def refuse(*args, **kwargs):
        raise AssertionError("the bound path called into signals")

    # each signals function where it is defined and wherever it was imported by name
    package = [module for name, module in sys.modules.items() if name.split(".")[0] == "isacbounds"]
    for module in package:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == signals.__name__:
                monkeypatch.setattr(module, name, refuse)
    assert not [name for name, obj in vars(jacobians).items()
                if getattr(obj, "__module__", None) == signals.__name__]
    got = [crlb_report(reference_scenario(n_f=n_f), make_modulation(kind, n_f))
           for kind, n_f in shapes]
    assert got == want


def test_report_builds_no_slot_map(monkeypatch):
    # J is filled from ETA_BLOCKS and I_eta from the per-path lambda: the slot
    # map serves the sampled model only, and no report, product route
    # included, builds it
    shapes = [shape for kind in ALL_KINDS
              for shape in frame_shapes(kind, (1, 2, 8, 64, 499, 500, 2048))]
    want = [crlb_report(sc, mod) for sc, mod in shapes]

    def refuse(frame):
        raise AssertionError("a report built the slot map")

    monkeypatch.setattr(Frame, "slot_map", property(refuse))
    with pytest.raises(AssertionError, match="slot map"):
        Frame(*shapes[0]).slot_map
    assert [crlb_report(sc, mod) for sc, mod in shapes] == want


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

    mod = pilot(Scheme.PPM, p, d)
    assert comm_efim_ppm(sc, mod) == pytest.approx(
        efim(assemble_theta_fim(Frame(sc, mod)), "dtau_q")[0, 0], rel=1e-12)

    # what the data costs, in closed form: the tau1 (PPM) or fd1 (BPSK) bound
    # over its sensing value, with s the data PRIs' index sum and
    # G = d sum_{k < n_f} k**2 - s**2 their exact Cauchy-Schwarz gap
    l_tau, l_phi, _ = (lam.tolist() for lam in sc.per_pri_information)
    s = d * (2 * p + d - 1) // 2
    G = d * (n_f * (n_f - 1) * (2 * n_f - 1) // 6) - s * s
    for got, want in ((ppm["tau1"] / sensing["tau1"], 1 + d * l_tau[0] / (p * sum(l_tau))),
                      (diff["tau1"] / sensing["tau1"],
                       1 + 4 * l_tau[0] / (sfd_weight * sum(l_tau))),
                      (bpsk["fd1"] / sensing["fd1"], 1 + l_phi[0] * s * s / (G * sum(l_phi))),
                      (ppm["dtau_q"] * comm_efim_ppm(sc, mod), 1.0)):
        assert got == pytest.approx(want, rel=1e-12)
