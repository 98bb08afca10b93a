"""Physical-parameter information matrices, EFIMs and CRLBs.

The pipeline is

    I_eta  (observation FIM, :mod:`isacbounds.fim`; diagonal, diag(lambda))
      -> I_theta = J^T I_eta J          (structural Jacobians)
      -> EFIM(block) = A - B^T C^{-1} B (Schur complement onto a target block)
      -> CRLB(block) = tr(EFIM^{-1})    (and c**2 * CRLB(tau1) for ranging).

The stages take a :class:`~isacbounds.model.Frame`, which :func:`crlb_report`
builds once from its scenario and modulation.  :func:`assemble_theta_fim` has
one route per frame kind.  Differential frames run through
:func:`differential_pipeline`; other frames form the product J^T diag(lambda) J
from the diagonal of I_eta, in O(n_eta n_theta^2) and with no n_eta x n_eta
matrix, while eta has at most ``PRODUCT_CHECK_MAX_ETA`` entries.  Either
product is required to agree with :func:`closed_form_theta_fim`, built
directly from the closed-form block expressions, entry-wise to 1e-10 of the
geometric mean of their diagonal entries.  Larger non-differential frames
return the closed form without a product.

The Schur elimination uses a Cholesky factorization of the nuisance block; if
that block is singular (which is the defining symptom of sensing/data
coupling in the undecoupled PPM and BPSK frames) a
:class:`CoupledParametersError` is raised naming the offending columns,
rather than silently pseudo-inverting.  :func:`crlb_report` runs those
per-target eliminations and the :func:`singularity_report` SVD only for a
frame that one Cholesky factorization of the equilibrated I_theta cannot vouch
for; any other frame takes its CRLBs and rank from that factor's matrix.

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

import numpy as np

from .model import (
    ConfigError,
    Decoupling,
    Frame,
    ModulationConfig,
    ScenarioConfig,
    Scheme,
    SPEED_OF_LIGHT,
)
from .fim import (
    LabeledMatrix,
    _equilibrated,
    _first_apart,
    _require_finite,
    coeff_a_range,
    coeff_b_full,
    observation_fim_analytic,
)
from .jacobians import e_vector, h_matrix, jacobian_for, ramp_slope

RANK_RTOL = 1e-10

#: above this eta size a non-differential frame skips the dense product and
#: returns the closed-form assembly (verified against the product at smaller
#: sizes and against the numeric probe by the validation suite); differential
#: frames are checked at every size
PRODUCT_CHECK_MAX_ETA = 3000


class CoupledParametersError(RuntimeError):
    """A CRLB block cannot be had: its nuisance block is singular, or the
    elimination annihilates its information.

    An error raised where the nuisance block is singular keeps that ``block``
    and its column ``labels``; its ``report`` (the block's
    :class:`SingularityReport`) and its message are built on first read, so
    a caller that only catches the error pays for no SVD.  Any other error
    has its message and no report.
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
    """SVD-based rank report with duplicate/zero column identification.

    The matrix is equilibrated first (information matrices mix units, so a
    raw threshold would count every small-unit block as deficient), then
    rank counts singular values above ``RANK_RTOL`` times the largest one.
    Column pairs of the scaled matrix whose difference is below ``RANK_RTOL``
    relative to their size are reported as coupled (the structurally
    indistinguishable parameter directions); all-zero columns are listed
    separately.  A coupled pair (i, j) leaves |S (e_i - e_j)| / sqrt(2) <=
    RANK_RTOL smax / sqrt(2), far above the SVD's roundoff, so only a
    rank-deficient matrix is searched for pairs, at every size: the Gram
    matrix of the live columns proposes the candidates, and each is confirmed
    by that column-difference test.  A NaN or +-inf entry, or an array that
    is not square and 2-D, raises ConfigError.
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
    n = data.shape[1]
    scaled = _equilibrated(data, data.diagonal())
    s = np.linalg.svd(scaled, compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        return SingularityReport(n, 0, True, 0.0, (), tuple(labels))
    tol = RANK_RTOL * smax
    rank = int(np.sum(s > tol))
    ratio = float(s[-1] / smax) if rank == n else 0.0

    norms = np.linalg.norm(scaled, axis=0)
    zero_cols = tuple(labels[i] for i in np.flatnonzero(norms <= tol))
    coupled: tuple[tuple[str, str], ...] = ()
    if rank < n:
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
    return SingularityReport(n, rank, rank < n, ratio, coupled, zero_cols)


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


def closed_form_theta_fim(frame: Frame) -> LabeledMatrix:
    """I_theta assembled directly from the closed-form block expressions.

    Every frame kind carries the path delays, the Doppler phase ramp and the
    amplitudes of its n_f PRIs.  PPM adds the data shift dtau_q, a common
    offset of the d data pulses (of every pulse against its own copy of the
    reference in a differential frame); BPSK adds the data phase phi_bpsk.
    The symmetric pulse zeroes every delay/phase/amplitude cross block, so
    those are simply absent.

    With H and E the primitives of :mod:`isacbounds.jacobians` and lambda
    one kind's per-path information, every block is an arrow read off
    lambda: c H^T diag(lambda) H has c sum(lambda) at its corner,
    c lambda_2 .. c lambda_L along its first row and column and on the rest
    of its diagonal, and zeros elsewhere; c H^T diag(lambda) E is the column
    c [sum(lambda), lambda_2, .., lambda_L] and c E^T diag(lambda) E the
    scalar c sum(lambda).  The amplitudes are n_f lambda_alpha on the
    diagonal.  Each entry is written once, summed left to right as the
    matrix products sum it, so no product is formed.
    """
    scenario, modulation, layout = frame.scenario, frame.modulation, frame.theta
    n_f, t_f = scenario.n_f, scenario.t_f
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

    # c H^T diag(lambda) H on (tau1, dtau) and on the Doppler block
    for lo, column in ((at["tau1"][0], arrow(n_f, sum_tau, l_tau)),
                       (at["doppler"][0], arrow(coeff_b_full(t_f, n_f), sum_phi, l_phi))):
        for step in (1, n, n + 1):
            line(lo, lo, step, column)
    amp = at["amp"][0]
    line(amp, amp, n + 1, [n_f * x for x in l_alpha])

    scheme, dec = modulation.scheme, modulation.decoupling
    if scheme == Scheme.PPM:
        if dec == Decoupling.DIFFERENTIAL:
            cross, own = 2.0 * n_f, (modulation.sfd_weight + 4.0) * n_f
        else:
            cross = own = modulation.d_data if dec == Decoupling.PILOT else n_f
        lo, q = at["tau1"][0], at["dtau_q"][0]
        column, corner = arrow(cross, sum_tau, l_tau), own * sum_tau
    elif scheme == Scheme.BPSK:
        if dec == Decoupling.PILOT:
            # raw data phase: unit ramp on the D data PRIs
            p, d = modulation.p_pilots, modulation.d_data
            cross, own = coeff_a_range(t_f, p, d), d
        else:
            # Doppler-equivalent data phase: shares the quadratic ramp sum
            cross = own = coeff_b_full(t_f, n_f)
        lo, q = at["doppler"][0], at["phi_bpsk"][0]
        column, corner = arrow(cross, sum_phi, l_phi), own * sum_phi
    if scheme != Scheme.SENSING:
        # c H^T diag(lambda) E down column q, its transpose along row q
        line(lo, q, n, column)
        line(q, lo, 1, column)
        flat[q * (n + 1)] = corner
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


def differential_pipeline(frame: Frame) -> LabeledMatrix:
    """I_theta of a differential frame, J^T I_diffseq J summed per PRI.

    After the cut, PRI k contributes the (delta_k, t_k) block, with w the
    ``sfd_weight`` of the frame's reference pulse,
    B = [[(w+1) Lam_tau, Lam_tau], [Lam_tau, Lam_tau]] through the delay rows
    J_k = [[0 | E], [H | E]], its phases Lam_phi through the Doppler ramp
    slope_k H, and the amplitudes n_f Lam_alpha once: O(L^3) time.  The
    squared slopes sum to slope_1**2 n (n-1) (2n-1) / 6, its integer factor
    exact and scaled by 2**-shift while it meets slope_1**2: only a sum past
    float64 is inf (LabeledMatrix refuses that entry).
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
    squares = n_f * (n_f - 1) * (2 * n_f - 1) // 6  # sum of kappa**2, exactly
    shift = max(0, squares.bit_length() - 1000)  # squares / 2**shift is a float

    M = np.zeros((layout.size, layout.size))
    delay, doppler, amp = (layout.block_slice(b) for b in ("delay", "doppler", "amp"))
    with np.errstate(over="ignore", invalid="ignore"):  # LabeledMatrix refuses inf/NaN
        B = np.empty((2 * L, 2 * L))  # [[(w+1) lam, lam], [lam, lam]]
        B[:L, :L] = (modulation.sfd_weight + 1.0) * lam
        B[:L, L:] = B[L:, :L] = B[L:, L:] = lam
        M[delay, delay] = n_f * (J_k.T @ B @ J_k)
        slope = ramp_slope(1, scenario.t_f)
        ramp = np.ldexp(slope * slope * (squares / (1 << shift)), shift)
        M[doppler, doppler] = ramp * _congruence(H, l_phi, H)
        M[amp, amp] = np.diag(n_f * l_alpha)
    return LabeledMatrix(M, layout)


# =========================================================================
# Theta assembly (product path + closed-form cross-check)
# =========================================================================


def _check_agreement(product: LabeledMatrix, closed: LabeledMatrix) -> None:
    """Raise unless |P_ij - C_ij| <= AGREE_RTOL sqrt(C_ii C_jj) everywhere,
    exactly where C_ii or C_jj is 0: on this equilibrated scale every block
    counts alike, though delay entries are ~23 orders above Doppler ones."""
    if apart := _first_apart(product.data, closed.data, closed.data.diagonal()):
        i, j, diff, scale = apart
        names = closed.layout.names
        raise RuntimeError(
            "matrix-product and closed-form I_theta disagree at "
            f"({names[i]}, {names[j]}): |diff| = {diff:.3e}, sqrt(C_ii C_jj) = {scale:.3e}"
        )


def assemble_theta_fim(frame: Frame) -> LabeledMatrix:
    """I_theta of a frame.

    Differential frames take :func:`differential_pipeline`; other frames
    with at most ``PRODUCT_CHECK_MAX_ETA`` eta entries take J^T diag(lambda) J,
    with lambda the diagonal of I_eta (its dense form is never built).
    That product is returned after an entry-wise comparison with
    :func:`closed_form_theta_fim` on the equilibrated scale at 1e-10, and a
    mismatch raises.  Larger non-differential frames return the closed form.
    """
    if frame.modulation.decoupling == Decoupling.DIFFERENTIAL:
        product = differential_pipeline(frame)
    elif frame.eta.size <= PRODUCT_CHECK_MAX_ETA:
        i_eta = observation_fim_analytic(frame.scenario, frame.modulation)
        J = jacobian_for(frame)
        product = LabeledMatrix(_congruence(J, i_eta.diag, J), frame.theta)
    else:
        return closed_form_theta_fim(frame)
    _check_agreement(product, closed_form_theta_fim(frame))
    return product


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


#: the one-factorization route of :func:`crlb_report` is taken only when
#: every 1 / (I~^-1)_kk exceeds RANK_RTOL by this factor (I~ the
#: equilibrated I_theta).  For a positive-definite I~ the squared Cholesky
#: pivot of entry k in any principal submatrix is at least 1 / (I~^-1)_kk,
#: so each per-target nuisance factorization would then clear its RANK_RTOL
#: pivot gate; the factor covers the roundoff between those factorizations
#: and this one.  It also keeps out every frame whose equilibrated smallest
#: singular value is within RANK_RTOL of the largest, for n_theta <= 31:
#: there min_k 1 / (I~^-1)_kk <= n_theta**2 RANK_RTOL.
_ONE_FACTOR_MARGIN = 1e3


def _one_factor_crlbs(fim: LabeledMatrix, targets: list[str]) -> tuple[dict, np.ndarray] | None:
    """Every target's CRLB from one Cholesky factorization, and the
    eigenvalues of the factored matrix; None on a dead direction or a failed
    factorization, ``_ONE_FACTOR_MARGIN`` pivot bar or ``EFIM_FLOOR``.

    With I~ = D^-1/2 I D^-1/2 (unit diagonal) and its inverse from the
    factor, block b's scaled EFIM is inv((I~^-1)_bb), its CRLB
    sum_{i in b} (I~^-1)_ii / I_ii.  The floor test of :func:`efim` takes
    lambda_max((I~^-1)_bb) <= tr((I~^-1)_bb), less a millionth for roundoff,
    and an eigvalsh only where that trace cannot settle it.
    """
    diag = fim.data.diagonal()
    if not (diag > 0.0).all():
        return None
    scaled = _equilibrated(fim.data, diag)
    try:
        low = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        return None
    low_inv = np.linalg.inv(low)
    inv = low_inv.T @ low_inv
    inv_diag = inv.diagonal()
    if not (inv_diag * (_ONE_FACTOR_MARGIN * RANK_RTOL) < 1.0).all():
        return None
    crlbs = inv_diag / diag
    traces, entries = inv_diag.tolist(), crlbs.tolist()
    values = {}
    for target in targets:
        lo, hi = fim.layout.block_bounds[target]
        if hi - lo == 1:  # a one-entry (I~^-1)_bb is its own trace and eigenvalue
            trace, value = traces[lo], entries[lo]
        else:
            trace, value = inv_diag[lo:hi].sum(), float(crlbs[lo:hi].sum())
        if not trace * EFIM_FLOOR < 1.0 - 1e-6:
            top = trace if hi - lo == 1 else np.linalg.eigvalsh(inv[lo:hi, lo:hi])[-1]
            if not 1.0 / top > EFIM_FLOOR:
                return None
        values[target] = value
    return values, np.linalg.eigvalsh(scaled)


def crlb_report(scenario: ScenarioConfig, modulation: ModulationConfig) -> CrlbReport:
    """Assemble I_theta, diagnose its rank and compute the available CRLBs.

    A frame that clears the gates of :func:`_one_factor_crlbs` gets every
    CRLB from that factor, and from the eigenvalues w of the factored matrix
    the verdict of :func:`singularity_report` while w_min > RANK_RTOL w_max:
    full rank, ``min_sv_ratio`` w_min / w_max.  Any other frame gets that
    report's SVD and runs :func:`crlb` per target, and a block whose
    elimination raises CoupledParametersError gets a ``None`` CRLB.
    """
    fim = assemble_theta_fim(Frame(scenario, modulation))
    targets = [t for t in CRLB_TARGETS if t in fim.layout.block_bounds]
    values, w = _one_factor_crlbs(fim, targets) or (None, None)
    if w is None or not w[0] > RANK_RTOL * w[-1]:
        rep = singularity_report(fim)
        verdict = (rep.size, rep.rank, rep.singular, rep.min_sv_ratio,
                   rep.coupled_columns, rep.zero_columns)
    else:
        verdict = (fim.size, fim.size, False, float(w[0] / w[-1]), (), ())
    if values is None:
        values = {}
        for target in targets:
            try:
                values[target] = crlb(fim, target)
            except CoupledParametersError:
                values[target] = None
    rng = None if values.get("tau1") is None else SPEED_OF_LIGHT ** 2 * values["tau1"]
    return CrlbReport(*verdict, modulation.scheme.value, modulation.decoupling.value,
                      values, rng)


# =========================================================================
# Communication EFIM (PPM data shift)
# =========================================================================


def comm_efim_ppm(scenario: ScenarioConfig, modulation: ModulationConfig) -> float:
    """Equivalent Fisher information of the PPM data shift dtau_q.

    Defined for the pilot split with at least one pilot and one data PRI
    (without pilots the shift is inseparable from the delays).  Eliminating
    the delays from the frame's p pilot and d data PRIs leaves
    sum_l lambda_tau,l * p d / (p + d), in closed form: it scales linearly
    with SNR and stays below the data PRIs' own d * sum_l lambda_tau,l, the
    cost of the sensing nuisance.  ConfigError past float64.
    """
    if modulation.scheme != Scheme.PPM or modulation.decoupling != Decoupling.PILOT:
        raise ConfigError("comm_efim_ppm is defined for pilot-decoupled PPM")
    data = Frame(scenario, modulation).data
    p, d = data.start, data.stop - data.start
    if d < 1:
        raise ConfigError("comm_efim_ppm needs at least one data PRI")
    value = sum(scenario.per_pri_information[0].tolist()) * (p * d / (p + d))
    _require_finite(np.array([value]), ("dtau_q",))
    return value
