"""Physical-parameter information matrices, EFIMs and CRLBs.

The pipeline is

    I_eta  (observation FIM, :mod:`isacbounds.fim`; diagonal, diag(lambda))
      -> I_theta = J^T I_eta J          (structural Jacobians)
      -> EFIM(block) = A - B^T C^{-1} B (Schur complement onto a target block)
      -> CRLB(block) = tr(EFIM^{-1})    (and c**2 * CRLB(tau1) for ranging).

The stages take a :class:`~isacbounds.model.Frame`, which :func:`crlb_report`
builds once from its scenario and modulation.  :func:`assemble_theta_fim`
returns :func:`closed_form_theta_fim`, built directly from the closed-form
block expressions, for every frame, and forms a product only to check it.
Differential frames run through :func:`differential_pipeline` at every size;
other frames form J^T diag(lambda) J from the diagonal of I_eta, in
O(n_eta n_theta^2) and with no n_eta x n_eta matrix, up to
``PRODUCT_CHECK_MAX_ETA`` eta entries.  Either product, a bare array refused
where formed if not finite, must agree with the closed form entry-wise to
1e-10 of the geometric mean of their diagonal entries; it is never returned.

Each domain of I_theta is an arrow read off lambda (:class:`Arrow`): in
per-path coordinates a scaled diagonal plus one nuisance column, which one
Sherman-Morrison step inverts.  :func:`crlb_report` takes its verdict from
:func:`singularity_report`, which reads the rank off one eigendecomposition
of the equilibrated I_theta, and a nonsingular frame's CRLBs from those
formulas, with no factorization.  Only a singular frame gets the per-target
Schur elimination, which uses a Cholesky factorization of the nuisance
block; if that block is singular (the defining symptom of sensing/data
coupling in the undecoupled PPM and BPSK frames) a
:class:`CoupledParametersError` is raised naming the offending columns,
rather than silently pseudo-inverting.

A differential frame duplicates the reference arrival time per data PRI,
rotates it to the difference sequence [t^k - t^ref, t^k] by the square
+-1-banded transform, zeroes the cross-PRI difference correlations (which all
equal the reference-pulse information) -- the independence approximation
that makes per-PRI differential demodulation tractable -- and collapses the
result onto theta.  After the cut every PRI contributes the same
(delta_k, t_k) block, so :func:`differential_pipeline` scales one per-PRI
block and adds the closed Doppler-ramp sum, with no matrix of the dense chain.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import (
    ConfigError,
    Decoupling,
    Frame,
    ModulationConfig,
    ScenarioConfig,
    Scheme,
    SPEED_OF_LIGHT,
    eta_size,
)
from .fim import (
    LabeledMatrix,
    _equilibrated,
    _first_apart,
    _require_finite,
    _require_symmetric,
    coeff_a_range,
    coeff_b_full,
    observation_fim_analytic,
    squares_below,
)
from .jacobians import e_vector, h_matrix, jacobian_for

RANK_RTOL = 1e-10

#: above this eta size a non-differential frame forms no product to check its
#: closed-form assembly against (it is checked against the product at smaller
#: sizes and against the numeric probe by the validation suite); differential
#: frames are checked at every size
PRODUCT_CHECK_MAX_ETA = 3000


class CoupledParametersError(RuntimeError):
    """A CRLB block cannot be had: its nuisance block is singular, or the
    elimination annihilates its information.

    An error raised where the nuisance block is singular keeps that ``block``
    and its column ``labels``; its ``report`` (the block's
    :class:`SingularityReport`) and its message are built on first read, so
    a caller that only catches the error pays for no eigendecomposition.  Any
    other error has its message and no report.
    """

    def __init__(self, message: str = "", block: np.ndarray | None = None,
                 labels: Sequence[str] = ()):
        super().__init__(message)
        self.block, self.labels = block, tuple(labels)

    @cached_property
    def report(self) -> SingularityReport | None:
        return None if self.block is None else singularity_report(self.block, self.labels)

    def __str__(self) -> str:
        if self.report is None:
            return super().__str__()
        return f"nuisance block is singular: {self.report.describe()}"


# =========================================================================
# Singularity diagnosis
# =========================================================================


@dataclass(frozen=True)
class SingularityReport:
    """Rank structure of a symmetric information matrix."""

    size: int
    rank: int
    singular: bool
    min_sv_ratio: float  # 0.0 when singular: s_min <= RANK_RTOL s_max counts as zero
    coupled_columns: tuple[tuple[str, str], ...]
    zero_columns: tuple[str, ...]

    def describe(self) -> str:
        """The verdict in words: "coupled columns: a~b; zero columns: x", or
        "rank r of n" when no column is named."""
        parts = []
        if self.coupled_columns:
            parts.append("coupled columns: "
                         + ", ".join(f"{a}~{b}" for a, b in self.coupled_columns))
        if self.zero_columns:
            parts.append("zero columns: " + ", ".join(self.zero_columns))
        return "; ".join(parts) or f"rank {self.rank} of {self.size}"


def singularity_report(mat: LabeledMatrix | np.ndarray,
                       labels: tuple[str, ...] | None = None) -> SingularityReport:
    """Rank report of a symmetric information matrix, with duplicate/zero
    column identification: the package's one rank verdict.

    The matrix is equilibrated first (information matrices mix units, so a
    raw threshold would count every small-unit block as deficient); the
    absolute eigenvalues s of the scaled symmetric matrix, from one
    ``eigvalsh``, are its singular values.  While s_min > ``RANK_RTOL`` s_max
    it is full rank, ``min_sv_ratio`` s_min / s_max, and nothing more is
    computed: a zero column i or a coupled pair (i, j) would leave |S e_i| or
    |S (e_i - e_j)| / sqrt(2) at or below RANK_RTOL s_max, and neither is
    below s_min.  Otherwise rank counts the s above ``RANK_RTOL`` s_max,
    all-zero columns of the scaled matrix are listed, and column pairs whose
    difference is below ``RANK_RTOL`` relative to their size are reported as
    coupled (the structurally indistinguishable parameter directions), at
    every size: the Gram matrix of the live columns proposes the candidates,
    and each is confirmed by that column-difference test.  A
    :class:`~isacbounds.fim.LabeledMatrix` was checked where it was formed;
    an array with a NaN or +-inf entry, one that is not symmetric (``eigvalsh``
    reads one triangle), or one that is not square and 2-D raises ConfigError.
    """
    if isinstance(mat, LabeledMatrix):
        data = mat.data
        labels = mat.layout.names
    else:
        data = np.asarray(mat)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ConfigError(f"singularity_report needs a square 2-D matrix, "
                              f"got shape {data.shape}")
        if labels is None:
            labels = tuple(f"col_{i}" for i in range(data.shape[1]))
        _require_finite(data, labels)
        _require_symmetric(data, labels)
    n = data.shape[1]
    scaled = _equilibrated(data, data.diagonal())
    s = np.abs(np.linalg.eigvalsh(scaled)).tolist()
    smax = max(s, default=0.0)
    if smax == 0.0:
        return SingularityReport(n, 0, True, 0.0, (), tuple(labels))
    tol = RANK_RTOL * smax
    if (smin := min(s)) > tol:
        return SingularityReport(n, n, False, smin / smax, (), ())
    rank = sum(x > tol for x in s)

    norms = np.linalg.norm(scaled, axis=0)
    zero_cols = tuple(labels[i] for i in np.flatnonzero(norms <= tol))
    live = np.flatnonzero(norms > tol)
    cols = scaled[:, live]
    gram = cols.T @ cols
    sq = gram.diagonal()
    # |s_i - s_j|^2 read off the Gram matrix is off by at most about
    # 2 (n + 2) eps max(|s_i|^2, |s_j|^2); twice that slack lets no pair
    # of the exact test below slip through
    slack = RANK_RTOL ** 2 + 4 * (n + 3) * np.finfo(float).eps
    near = sq[:, None] + sq[None, :] - 2.0 * gram <= slack * np.maximum.outer(sq, sq)
    i, j = np.nonzero(near)
    upper = i < j
    i, j = i[upper], j[upper]
    gap = np.linalg.norm(cols[:, i] - cols[:, j], axis=0)
    hit = gap <= RANK_RTOL * np.maximum(norms[live[i]], norms[live[j]])
    coupled = tuple((labels[a], labels[b]) for a, b in zip(live[i[hit]], live[j[hit]]))
    return SingularityReport(n, rank, True, 0.0, coupled, zero_cols)


# =========================================================================
# Schur complements, EFIM, CRLB
# =========================================================================


def schur_complement(M: np.ndarray, keep: np.ndarray, elim: np.ndarray,
                     elim_labels: Sequence[str] | None = None) -> np.ndarray:
    """A - B^T C^{-1} B with C = M[elim, elim], via Cholesky of C.

    Raises CoupledParametersError when C is not positive definite; the error
    keeps C, its columns named by ``elim_labels`` (default ``elim_<i>``).
    """
    A = M.take(keep, 0).take(keep, 1)
    if elim.size == 0:
        return A
    rows = M.take(elim, 0)
    B, C = rows.take(keep, 1), rows.take(elim, 1)
    try:
        low = np.linalg.cholesky(C)
        # an exactly dependent direction can survive the factorization on a
        # roundoff-sized pivot; the squared pivot over the diagonal entry is
        # the scale-free leftover of that direction, so gate it explicitly
        dependent = (low.diagonal() ** 2 / C.diagonal() <= RANK_RTOL).any()
    except np.linalg.LinAlgError:
        dependent = True
    if dependent:
        raise CoupledParametersError(block=C, labels=(
            [f"elim_{i}" for i in elim] if elim_labels is None else elim_labels))
    Y = np.linalg.solve(low, B)  # B^T C^{-1} B = Y^T Y with C = low low^T
    return A - Y.T @ Y


#: scaled EFIM eigenvalues at or below this are treated as annihilated: the
#: nuisance elimination removed the block's information entirely (up to
#: roundoff), so no finite CRLB exists for it
EFIM_FLOOR = 1e-8


def efim(fim: LabeledMatrix, target: str) -> np.ndarray:
    """Equivalent FIM of a named block after eliminating all other parameters.

    Raises CoupledParametersError when the nuisance block cannot be
    eliminated (singular) or when the elimination cancels the target block's
    information to roundoff (the target direction itself is unidentifiable).
    """
    lo, hi = fim.layout.block(target)
    if hi == lo:
        raise ConfigError(f"target block {target!r} is empty")
    at, names = np.arange(fim.size), fim.layout.names
    E = schur_complement(fim.data, at[lo:hi], np.concatenate((at[:lo], at[hi:])),
                         names[:lo] + names[hi:])

    diag = fim.data.diagonal()[lo:hi]
    if (diag <= 0.0).any():
        raise CoupledParametersError(f"block {target!r} carries no information")
    if hi - lo == 1:  # a 1 x 1 scaled EFIM is its own eigenvalue
        root = math.sqrt(diag[0])
        min_eig = float(E[0, 0]) / root / root
    else:
        scaled = _equilibrated(E, diag)
        min_eig = float(np.linalg.eigvalsh(0.5 * (scaled + scaled.T))[0])
    if min_eig <= EFIM_FLOOR:
        raise CoupledParametersError(
            f"information on block {target!r} is annihilated by the nuisance "
            f"parameters: scaled EFIM eigenvalue {min_eig:.2e} <= EFIM_FLOOR = {EFIM_FLOOR:g}")
    return E


def crlb(fim: LabeledMatrix, target: str) -> float:
    """tr(EFIM(target)^{-1}): the CRLB on the named block."""
    return float(np.trace(np.linalg.inv(efim(fim, target))))


# =========================================================================
# Closed-form theta assembly
# =========================================================================


def _congruence(H_l: np.ndarray, diag: np.ndarray, H_r: np.ndarray) -> np.ndarray:
    return H_l.T @ (diag[:, None] * H_r)


class Arrow(NamedTuple):
    """One domain of I_theta in per-path coordinates (tau_l = tau1 + dtau_l,
    alike for Doppler): c diag(lambda), and where the data moves the domain,
    the nuisance column cross lambda and its corner own sum(lambda).  ``gap``
    = own - cross**2 / c, stated exactly: the nuisance's information left
    once the paths are known, per unit sum(lambda); 0 if none is left."""

    root: str
    c: float
    nuisance: str | None = None
    cross: float = 0.0
    own: float = 0.0
    gap: float = 0.0


def _delay_arrow(frame: Frame) -> Arrow:
    """The delay arrow of ``frame``, c = n_f: PPM data adds dtau_q."""
    n_f, mod = frame.scenario.n_f, frame.modulation
    if mod.scheme != Scheme.PPM:
        return Arrow("tau1", n_f)
    if mod.decoupling == Decoupling.DIFFERENTIAL:
        w = mod.sfd_weight
        return Arrow("tau1", n_f, "dtau_q", 2.0 * n_f, (w + 4.0) * n_f, w * n_f)
    # d of the n_f PRIs carry data: d - d**2 / n_f = p d / n_f
    p, d = frame.data.start, frame.data.stop - frame.data.start
    return Arrow("tau1", n_f, "dtau_q", d, d, p * d / n_f)


def _doppler_arrow(frame: Frame) -> Arrow:
    """The Doppler arrow of ``frame``, c = :func:`~isacbounds.fim.coeff_b_full`:
    BPSK data adds phi_bpsk."""
    n_f, t_f, mod = frame.scenario.n_f, frame.scenario.t_f, frame.modulation
    ramp = coeff_b_full(t_f, n_f)
    if mod.scheme != Scheme.BPSK:
        return Arrow("fd1", ramp)
    if mod.decoupling != Decoupling.PILOT:
        # Doppler-equivalent data phase: the quadratic ramp sum
        return Arrow("fd1", ramp, "phi_bpsk", ramp, ramp)
    # raw data phase, a unit ramp on the d data PRIs: with s their index sum
    # and Q = squares_below(n_f), d - s**2 / Q, its numerator exact (Q = 0 on
    # a one-PRI frame, all pilot)
    p, d = frame.data.start, frame.data.stop - frame.data.start
    s, squares = d * (2 * p + d - 1) // 2, squares_below(n_f)
    return Arrow("fd1", ramp, "phi_bpsk", coeff_a_range(t_f, p, d), d,
                 (d * squares - s * s) / max(squares, 1))


def arrows(frame: Frame) -> tuple[Arrow, Arrow]:
    """The delay arrow and the Doppler arrow of ``frame``."""
    return _delay_arrow(frame), _doppler_arrow(frame)


def closed_form_theta_fim(frame: Frame) -> LabeledMatrix:
    """I_theta assembled directly from the closed-form block expressions.

    Every frame kind carries the path delays, the Doppler phase ramp and the
    amplitudes of its n_f PRIs.  PPM adds the data shift dtau_q, a common
    offset of the d data pulses (of every pulse against its own copy of the
    reference in a differential frame); BPSK adds the data phase phi_bpsk.
    The symmetric pulse zeroes every delay/phase/amplitude cross block, so
    those are simply absent.

    With H and E the primitives of :mod:`isacbounds.jacobians`, lambda one
    kind's per-path information and c, cross and own the coefficients of its
    :func:`arrows`, c H^T diag(lambda) H has c sum(lambda) at its corner,
    c lambda_2 .. c lambda_L along its first row and column and on the rest
    of its diagonal, and zeros elsewhere; cross H^T diag(lambda) E is the
    column cross [sum(lambda), lambda_2, .., lambda_L] and own E^T
    diag(lambda) E the scalar own sum(lambda).  The amplitudes are
    n_f lambda_alpha on the diagonal.  Each entry is written once, summed
    left to right as the matrix products sum it, so no product is formed.
    """
    scenario, layout, n_f = frame.scenario, frame.theta, frame.scenario.n_f
    l_tau, l_phi, l_alpha = (lam.tolist() for lam in scenario.per_pri_information)
    sum_tau, sum_phi = l_tau[0], l_phi[0]
    for x_tau, x_phi in zip(l_tau[1:], l_phi[1:]):
        sum_tau += x_tau
        sum_phi += x_phi
    n, at = layout.size, layout.block_bounds
    flat = [0.0] * (n * n)  # row-major; a float product past float64 is a quiet inf

    def line(i: int, j: int, step: int, values: list) -> None:
        """Write ``values`` from entry (i, j) on, every ``step``-th flat entry:
        along row i (1), down column j (n) or down the diagonal (n + 1)."""
        first = i * n + j
        flat[first:first + step * len(values):step] = values

    def arrow(c, total: float, lam: list) -> list:
        """c [sum(lambda), lambda_2, .., lambda_L]"""
        return [c * total] + [c * x for x in lam[1:]]

    # c H^T diag(lambda) H on (tau1, dtau) and on the Doppler block, then
    # c H^T diag(lambda) E down the nuisance column q and along its row
    for a, total, lam in zip(arrows(frame), (sum_tau, sum_phi), (l_tau, l_phi)):
        lo = at[a.root][0]
        column = arrow(a.c, total, lam)
        for step in (1, n, n + 1):
            line(lo, lo, step, column)
        if a.nuisance is not None:
            q, column = at[a.nuisance][0], arrow(a.cross, total, lam)
            line(lo, q, n, column)
            line(q, lo, 1, column)
            flat[q * (n + 1)] = a.own * total
    amp = at["amp"][0]
    line(amp, amp, n + 1, [n_f * x for x in l_alpha])
    # exact zeros are structurally dead columns (Doppler at n_f = 1); a
    # subnormal diagonal has lost its precision and would break the checks
    for k, v in enumerate(flat[::n + 1]):
        if 0.0 < v < sys.float_info.min:
            name = layout.names[k]
            raise ConfigError(
                f"I_theta[{name}, {name}] = {v:.3e} is subnormal; "
                "the information is too small to represent (raise the path amplitudes)"
            )
    return LabeledMatrix(np.array(flat).reshape(n, n), layout)


# =========================================================================
# Differential pipeline
# =========================================================================


def zero_reference_cross(i_diffseq: LabeledMatrix) -> LabeledMatrix:
    """Zero the (delta_i, delta_j), i != j blocks of the difference-sequence FIM.

    Those blocks all equal the reference-pulse information (every difference
    shares the same reference); dropping them treats the per-PRI differential
    measurements as independent, the working model that
    :func:`differential_pipeline` builds in.
    """
    layout = i_diffseq.layout
    data = i_diffseq.data.copy()
    deltas = [slice(*span) for name, span in layout.block_bounds.items() if name.startswith("delta_")]
    for a in deltas:
        for b in deltas:
            if a != b:
                data[a, b] = 0.0
    return LabeledMatrix(data, layout)


def differential_pipeline(frame: Frame) -> np.ndarray:
    """I_theta of a differential frame, J^T I_diffseq J summed per PRI.

    After the cut, PRI k contributes the (delta_k, t_k) block, with w the
    ``sfd_weight`` of the frame's reference pulse,
    B = [[(w+1) Lam_tau, Lam_tau], [Lam_tau, Lam_tau]] through the delay rows
    J_k = [[0 | E], [H | E]], its phases Lam_phi through the Doppler ramp
    slope_k H, and the amplitudes n_f Lam_alpha once: O(L^3) time.  The
    squared slopes sum to :func:`~isacbounds.fim.coeff_b_full`, inf only past
    float64.  Returns the plain array that ``frame.theta`` names; a NaN or
    +-inf entry raises ConfigError naming it.
    """
    scenario, modulation, layout = frame.scenario, frame.modulation, frame.theta
    if modulation.decoupling != Decoupling.DIFFERENTIAL:
        raise ConfigError("differential_pipeline requires differential decoupling")
    L, n_f = scenario.n_paths, scenario.n_f
    l_tau, l_phi, l_alpha = scenario.per_pri_information
    lam = np.diag(l_tau)
    H, E = h_matrix(L), e_vector(L)
    J_k = np.zeros((2 * L, L + 1))  # [[0 | E], [H | E]], the same for every PRI
    J_k[L:, :L] = H
    J_k[:L, L:] = J_k[L:, L:] = E

    M = np.zeros((layout.size, layout.size))
    delay, doppler, amp = (layout.block_slice(b) for b in ("delay", "doppler", "amp"))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below if not finite
        B = np.empty((2 * L, 2 * L))  # [[(w+1) lam, lam], [lam, lam]]
        B[:L, :L] = (modulation.sfd_weight + 1.0) * lam
        B[:L, L:] = B[L:, :L] = B[L:, L:] = lam
        M[delay, delay] = n_f * (J_k.T @ B @ J_k)
        M[doppler, doppler] = coeff_b_full(scenario.t_f, n_f) * _congruence(H, l_phi, H)
        M[amp, amp] = np.diag(n_f * l_alpha)
    _require_finite(M, layout)
    return M


# =========================================================================
# Theta assembly (product path + closed-form cross-check)
# =========================================================================


def _check_agreement(product: np.ndarray, closed: LabeledMatrix) -> None:
    """Raise unless the product I_theta agrees with the closed form:
    |P_ij - C_ij| <= AGREE_RTOL sqrt(C_ii C_jj) everywhere, exactly where C_ii
    or C_jj is 0.  On this equilibrated scale every block counts alike, though
    delay entries are ~23 orders above Doppler ones, and an asymmetric product
    is seen as it departs from the symmetric closed form."""
    if apart := _first_apart(product, closed.data, closed.data.diagonal()):
        i, j, diff, scale = apart
        names = closed.layout.names
        raise RuntimeError(
            "matrix-product and closed-form I_theta disagree at "
            f"({names[i]}, {names[j]}): |diff| = {diff:.3e}, sqrt(C_ii C_jj) = {scale:.3e}"
        )


def assemble_theta_fim(frame: Frame) -> LabeledMatrix:
    """I_theta of a frame: :func:`closed_form_theta_fim`, checked against a
    product where one is formed.

    Differential frames form :func:`differential_pipeline`; other frames
    with at most ``PRODUCT_CHECK_MAX_ETA`` eta entries form J^T diag(lambda) J,
    with lambda the diagonal of I_eta (its dense form is never built).  Either
    product is a bare array, refused with ConfigError where it is formed if an
    entry is NaN or +-inf, and compared once, entry-wise, with the closed form
    on the equilibrated scale at 1e-10; a mismatch raises.  Larger
    non-differential frames form no product.  The closed form is returned on
    every route: it sums each entry directly, so it is the nearer of the two
    to the exact I_theta.
    """
    if frame.modulation.decoupling == Decoupling.DIFFERENTIAL:
        product = differential_pipeline(frame)
    elif eta_size(frame) <= PRODUCT_CHECK_MAX_ETA:
        i_eta = observation_fim_analytic(frame.scenario, frame.modulation)
        J = jacobian_for(frame)
        product = _congruence(J, i_eta.diag, J)
        _require_finite(product, frame.theta)
    else:
        return closed_form_theta_fim(frame)
    closed = closed_form_theta_fim(frame)
    _check_agreement(product, closed)
    return closed


# =========================================================================
# Reports
# =========================================================================

#: theta blocks a CRLB is attempted for, when present in the layout
CRLB_TARGETS = ("tau1", "dtau_q", "fd1", "phi_bpsk", "amp")


@dataclass(frozen=True)
class CrlbReport(SingularityReport):
    """Singularity structure and per-block CRLBs of one configuration."""

    scheme: str
    decoupling: str
    crlb: dict
    range_crlb_m2: float | None


def _formula_crlbs(frame: Frame) -> dict:
    """The CRLB of every target block of a nonsingular frame, in the order of
    ``CRLB_TARGETS``, from its arrows in Python floats.  One Sherman-Morrison
    step inverts each domain: with S = sum(lambda), the root's CRLB is
    1 / (c lambda_1) + (cross / c)**2 / (S gap) and the nuisance's
    1 / (S gap); the amplitudes' is sum_l 1 / (n_f lambda_alpha,l)."""
    *lambdas, l_alpha = (lam.tolist() for lam in frame.scenario.per_pri_information)
    values = {}
    for a, lam in zip(arrows(frame), lambdas):
        values[a.root] = 1.0 / (a.c * lam[0])
        if a.nuisance is not None:
            values[a.nuisance] = 1.0 / (sum(lam) * a.gap)
            values[a.root] += (a.cross / a.c) ** 2 * values[a.nuisance]
    values["amp"] = sum(1.0 / (frame.scenario.n_f * x) for x in l_alpha)
    return values


def crlb_report(scenario: ScenarioConfig, modulation: ModulationConfig) -> CrlbReport:
    """Assemble I_theta, diagnose its rank and compute the available CRLBs.

    The verdict is :func:`singularity_report` of I_theta, one eigendecomposition
    of the equilibrated matrix, and the report carries its fields.  A
    nonsingular frame takes every CRLB from :func:`_formula_crlbs`, with no
    factorization.  A singular one runs :func:`crlb` per target, and a block
    whose elimination raises CoupledParametersError gets a ``None`` CRLB.
    """
    frame = Frame(scenario, modulation)
    fim = assemble_theta_fim(frame)
    verdict = singularity_report(fim)
    if not verdict.singular:
        values = _formula_crlbs(frame)
    else:
        values = {}
        for target in (t for t in CRLB_TARGETS if t in fim.layout.block_bounds):
            try:
                values[target] = crlb(fim, target)
            except CoupledParametersError:
                values[target] = None
    rng = None if values.get("tau1") is None else SPEED_OF_LIGHT ** 2 * values["tau1"]
    return CrlbReport(**vars(verdict), scheme=modulation.scheme.value,
                      decoupling=modulation.decoupling.value, crlb=values, range_crlb_m2=rng)


# =========================================================================
# Communication EFIM (PPM data shift)
# =========================================================================


def comm_efim_ppm(scenario: ScenarioConfig, modulation: ModulationConfig) -> float:
    """Equivalent Fisher information of the PPM data shift dtau_q.

    Defined for the pilot split with at least one pilot and one data PRI
    (without pilots the shift is inseparable from the delays).  Eliminating
    the delays from the frame's p pilot and d data PRIs leaves
    sum_l lambda_tau,l * p d / n_f, the gap of its delay arrow: it scales
    linearly with SNR and stays below the data PRIs' own d * sum_l lambda_tau,l,
    the cost of the sensing nuisance.  ConfigError past float64.
    """
    if modulation.scheme != Scheme.PPM or modulation.decoupling != Decoupling.PILOT:
        raise ConfigError("comm_efim_ppm is defined for pilot-decoupled PPM")
    frame = Frame(scenario, modulation)
    if not frame.data:
        raise ConfigError("comm_efim_ppm needs at least one data PRI")
    value = sum(scenario.per_pri_information[0].tolist()) * _delay_arrow(frame).gap
    _require_finite(np.array([value]), ("dtau_q",))
    return value
