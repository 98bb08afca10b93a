"""Physical-parameter information matrices, EFIMs and CRLBs.

The pipeline is

    I_eta  (observation FIM, :mod:`isacbounds.fim`; diagonal, diag(lambda))
      -> I_theta = J^T I_eta J          (structural Jacobians)
      -> EFIM(block) = A - B^T C^{-1} B (Schur complement onto a target block)
      -> CRLB(block) = tr(EFIM^{-1})    (and c**2 * CRLB(tau1) for ranging).

:func:`assemble_theta_fim` has one route per frame kind.  Differential frames
run through :func:`differential_pipeline`; other frames form the product
J^T diag(lambda) J from the diagonal of I_eta, in O(n_eta n_theta^2) and with
no n_eta x n_eta matrix, while eta has at most ``PRODUCT_CHECK_MAX_ETA``
entries.  Either product is required to agree with
:func:`closed_form_theta_fim`, built directly from the closed-form block
expressions, entry-wise to 1e-10 of the geometric mean of their diagonal
entries.  Larger non-differential frames return the closed form without a
product.

The Schur elimination uses a Cholesky factorization of the nuisance block; if
that block is singular (which is the defining symptom of sensing/data
coupling in the undecoupled PPM and BPSK frames) a
:class:`CoupledParametersError` is raised naming the offending columns,
rather than silently pseudo-inverting.  :func:`crlb_report` runs those
per-target eliminations only for a frame that one Cholesky factorization of
the equilibrated I_theta cannot vouch for; every other frame gets all its
CRLBs from that one factor and its inverse.

A differential frame duplicates the reference arrival time per data PRI,
rotates it to the difference sequence [t^k - t^ref, t^k] by the square
+-1-banded transform, zeroes the cross-PRI difference correlations (which all
equal the reference-pulse information) -- the independence approximation
that makes per-PRI differential demodulation tractable -- and collapses the
result onto theta.  After the cut every PRI contributes the same
(delta_k, t_k) block, so :func:`differential_pipeline` sums per-PRI blocks
plus the Doppler-ramp weights, with no matrix of the dense chain.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    ConfigError,
    Decoupling,
    ModulationConfig,
    ScenarioConfig,
    Scheme,
    SPEED_OF_LIGHT,
    eta_layout_for,
    theta_layout_for,
    validate_modulation,
)
from .fim import (
    DiagonalMatrix,
    LabeledMatrix,
    _require_finite,
    coeff_a_range,
    coeff_b_full,
    observation_fim_analytic,
    per_pri_information,
)
from .jacobians import e_vector, h_matrix, jacobian_for, ramp_slope

RANK_RTOL = 1e-10
ASSEMBLY_RTOL = 1e-10

#: above this eta size a non-differential frame skips the dense product and
#: returns the closed-form assembly (verified against the product at smaller
#: sizes and against the numeric probe by the validation suite); differential
#: frames are checked at every size
PRODUCT_CHECK_MAX_ETA = 3000


class CoupledParametersError(RuntimeError):
    """A nuisance block required by a Schur complement is singular.

    ``report`` is the :class:`SingularityReport` of that block, if any.  With
    ``diagnose`` (a function returning the message and the report) both are
    built on first read, so a caller that only catches the error pays for no
    diagnosis.
    """

    def __init__(self, message: str = "", report: "SingularityReport | None" = None,
                 diagnose: "Callable[[], tuple[str, SingularityReport]] | None" = None):
        super().__init__(message)
        self._message = message
        self._report = report
        self._diagnose = diagnose

    def _diagnosed(self) -> None:
        if self._diagnose is not None:
            self._message, self._report = self._diagnose()
            self._diagnose = None

    @property
    def report(self) -> "SingularityReport | None":
        self._diagnosed()
        return self._report

    def __str__(self) -> str:
        self._diagnosed()
        return self._message


# =========================================================================
# Singularity diagnosis
# =========================================================================


@dataclass(frozen=True)
class SingularityReport:
    """Rank structure of a symmetric information matrix."""

    size: int
    rank: int
    singular: bool
    min_sv_ratio: float
    coupled_columns: tuple[tuple[str, str], ...]
    zero_columns: tuple[str, ...]


def _equilibrate(data: np.ndarray) -> np.ndarray:
    """Symmetric diagonal scaling: unit diagonal where positive, rows/columns
    with a non-positive diagonal left untouched (they are dead directions).

    Information matrices mix units (s^-2 for delays, dimensionless phases),
    so a raw singular-value threshold would count every small-unit block as
    deficient.  Rank statements below are about the scaled matrix.
    """
    d = np.diag(data).copy()
    s = np.where(d > 0.0, 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0)), 1.0)
    # one root per side: outer(s, s) = 1/d overflows for subnormal d
    return data * s[:, None] * s[None, :]


def singularity_report(mat: LabeledMatrix | DiagonalMatrix | np.ndarray,
                       labels: tuple[str, ...] | None = None) -> SingularityReport:
    """SVD-based rank report with duplicate/zero column identification.

    The matrix is diagonally equilibrated first, then rank counts singular
    values above ``RANK_RTOL`` times the largest one.  Column pairs of the
    scaled matrix whose difference is below ``RANK_RTOL`` relative to their
    size are reported as coupled (these are the structurally
    indistinguishable parameter directions); all-zero columns are listed
    separately.  A coupled pair (i, j) leaves |S (e_i - e_j)| / sqrt(2) <=
    RANK_RTOL smax / sqrt(2), far above the SVD's roundoff, so only a
    rank-deficient matrix is searched for pairs.  A NaN or +-inf entry raises
    ConfigError.
    """
    if isinstance(mat, (LabeledMatrix, DiagonalMatrix)):
        data = mat.data
        labels = mat.layout.names
    else:
        data = np.asarray(mat)
        if labels is None:
            labels = tuple(f"col_{i}" for i in range(data.shape[1]))
    _require_finite(data, labels)
    n = data.shape[1]
    scaled = _equilibrate(data)
    s = np.linalg.svd(scaled, compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        return SingularityReport(n, 0, True, 0.0, (), tuple(labels))
    tol = RANK_RTOL * smax
    rank = int(np.sum(s > tol))
    ratio = float(s[-1] / smax)

    norms = np.linalg.norm(scaled, axis=0)
    zero_cols = tuple(labels[i] for i in np.flatnonzero(norms <= tol))
    coupled: list[tuple[str, str]] = []
    if rank < n <= 512:
        for i in range(n):
            if norms[i] <= tol:
                continue
            for j in range(i + 1, n):
                if norms[j] <= tol:
                    continue
                d = np.linalg.norm(scaled[:, i] - scaled[:, j])
                if d <= RANK_RTOL * max(norms[i], norms[j]):
                    coupled.append((labels[i], labels[j]))
    return SingularityReport(n, rank, rank < n, ratio, tuple(coupled), zero_cols)


# =========================================================================
# Schur complements, EFIM, CRLB
# =========================================================================


def schur_complement(M: np.ndarray, keep: np.ndarray, elim: np.ndarray,
                     elim_labels: Sequence[str] | Callable[[], Sequence[str]] | None = None
                     ) -> np.ndarray:
    """A - B^T C^{-1} B with C = M[elim, elim], via Cholesky of C.

    Raises CoupledParametersError when C is not positive definite; its
    message and singularity report, which name the columns of C by
    ``elim_labels`` (or a function returning them), are built on first read.
    """
    A = M[np.ix_(keep, keep)]
    if elim.size == 0:
        return A.copy()
    B = M[np.ix_(elim, keep)]
    C = M[np.ix_(elim, elim)]

    def _diagnose() -> tuple[str, SingularityReport]:
        labels = elim_labels() if callable(elim_labels) else elim_labels
        rep = singularity_report(C, tuple(labels or (f"elim_{i}" for i in elim)))
        detail = []
        if rep.coupled_columns:
            detail.append("coupled columns: " + ", ".join(f"{a}~{b}" for a, b in rep.coupled_columns))
        if rep.zero_columns:
            detail.append("zero columns: " + ", ".join(rep.zero_columns))
        message = (f"nuisance block is singular (rank {rep.rank} of {rep.size}); "
                   + ("; ".join(detail) if detail else "no duplicate columns identified")
                   + "; choose a decoupling strategy or drop the affected parameters")
        return message, rep

    try:
        low = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        raise CoupledParametersError(diagnose=_diagnose) from None
    # an exactly dependent direction can survive the factorization on a
    # roundoff-sized pivot; the squared pivot over the diagonal entry is the
    # scale-free leftover of that direction, so gate it explicitly
    pivot_ratio = np.diag(low) ** 2 / np.diag(C)
    if np.any(pivot_ratio <= RANK_RTOL):
        raise CoupledParametersError(diagnose=_diagnose)
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
    keep = np.arange(lo, hi)
    elim = np.array([i for i in range(fim.size) if not lo <= i < hi], dtype=int)
    E = schur_complement(fim.data, keep, elim,
                         lambda: [fim.layout.names[i] for i in elim])

    diag = np.diag(fim.data)[lo:hi]
    if np.any(diag <= 0.0):
        raise CoupledParametersError(f"block {target!r} carries no information")
    root = np.sqrt(diag)  # outer(diag, diag) itself overflows past ~1e154
    scaled = E / np.outer(root, root)
    min_eig = float(np.linalg.eigvalsh(0.5 * (scaled + scaled.T))[0])
    if min_eig <= EFIM_FLOOR:
        raise CoupledParametersError(
            f"information on block {target!r} is annihilated by the nuisance "
            f"parameters (scaled EFIM eigenvalue {min_eig:.2e}); the direction "
            "is unidentifiable without a decoupling strategy"
        )
    return E


def crlb(fim: LabeledMatrix, target: str) -> float:
    """tr(EFIM(target)^{-1}): the CRLB on the named block."""
    return float(np.trace(np.linalg.inv(efim(fim, target))))


def range_crlb(fim: LabeledMatrix) -> float:
    """Ranging CRLB in m**2: c**2 times the delay CRLB of the first path."""
    return SPEED_OF_LIGHT ** 2 * crlb(fim, "tau1")


# =========================================================================
# Closed-form theta assembly
# =========================================================================


def _congruence(H_l: np.ndarray, diag: np.ndarray, H_r: np.ndarray) -> np.ndarray:
    return H_l.T @ (diag[:, None] * H_r)


def closed_form_theta_fim(scenario: ScenarioConfig,
                          modulation: ModulationConfig) -> LabeledMatrix:
    """I_theta assembled directly from the closed-form block expressions.

    Every frame kind carries the path delays, the Doppler phase ramp and the
    amplitudes of its n_f PRIs.  PPM adds the data shift dtau_q, a common
    offset of the d data pulses (of every pulse against its own copy of the
    reference in a differential frame); BPSK adds the data phase phi_bpsk.
    The symmetric pulse zeroes every delay/phase/amplitude cross block, so
    those are simply absent.
    """
    validate_modulation(scenario, modulation)
    layout = theta_layout_for(scenario, modulation)
    L, n_f, t_f = scenario.n_paths, scenario.n_f, scenario.t_f
    H = h_matrix(L)
    E = e_vector(L)
    l_tau1, l_phi1, l_alpha1 = per_pri_information(scenario)
    M = np.zeros((layout.size, layout.size))

    def put(rows: slice, cols: slice, block: np.ndarray) -> None:
        M[rows, cols] = block
        if rows != cols:
            M[cols, rows] = block.T

    lo = layout.block("delay")[0]
    tau = slice(lo, lo + L)  # tau1 and dtau: the delay block without dtau_q
    doppler, amp = layout.block_slice("doppler"), layout.block_slice("amp")
    put(tau, tau, n_f * _congruence(H, l_tau1, H))
    put(doppler, doppler, coeff_b_full(t_f, n_f) * _congruence(H, l_phi1, H))
    put(amp, amp, np.diag(n_f * l_alpha1))

    scheme, dec = modulation.scheme, modulation.decoupling
    if scheme == Scheme.PPM:
        if dec == Decoupling.DIFFERENTIAL:
            cross, own = 2.0 * n_f, (modulation.sfd_weight + 4.0) * n_f
        else:
            cross = own = modulation.d_data if dec == Decoupling.PILOT else n_f
        q = layout.block_slice("dtau_q")
        put(tau, q, cross * _congruence(H, l_tau1, E))
        with np.errstate(over="ignore"):  # LabeledMatrix refuses an overflowed weight
            put(q, q, own * _congruence(E, l_tau1, E))
    elif scheme == Scheme.BPSK:
        if dec == Decoupling.PILOT:
            # raw data phase: unit ramp on the D data PRIs
            p, d = modulation.p_pilots, modulation.d_data
            cross, own = coeff_a_range(t_f, p, d), d
        else:
            # Doppler-equivalent data phase: shares the quadratic ramp sum
            cross = own = coeff_b_full(t_f, n_f)
        b = layout.block_slice("phi_bpsk")
        put(doppler, b, cross * _congruence(H, l_phi1, E))
        put(b, b, own * _congruence(E, l_phi1, E))
    # exact zeros are structurally dead columns (Doppler at n_f = 1); a
    # subnormal diagonal has lost its precision and would break the checks
    diag = np.diag(M)
    subnormal = np.flatnonzero((diag > 0.0) & (diag < np.finfo(float).tiny))
    if subnormal.size:
        name = layout.names[subnormal[0]]
        raise ConfigError(
            f"I_theta[{name}, {name}] = {diag[subnormal[0]]:.3e} is subnormal; "
            "the information is too small to represent (raise the path amplitudes)"
        )
    return LabeledMatrix(M, layout)


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


def differential_pipeline(scenario: ScenarioConfig,
                          modulation: ModulationConfig) -> LabeledMatrix:
    """I_theta of a differential frame, J^T I_diffseq J summed per PRI.

    After the cut, PRI k contributes the (delta_k, t_k) block, with w the
    ``modulation.sfd_weight`` of the reference pulse,
    B = [[(w+1) Lam_tau, Lam_tau], [Lam_tau, Lam_tau]] through the delay rows
    J_k = [[0 | E], [H | E]], its phases Lam_phi through the Doppler ramp
    slope_k H, and the amplitudes n_f Lam_alpha once: O(n_f + L^3).
    """
    if modulation.decoupling != Decoupling.DIFFERENTIAL:
        raise ConfigError("differential_pipeline requires differential decoupling")
    L, n_f = scenario.n_paths, scenario.n_f
    l_tau, l_phi, l_alpha = per_pri_information(scenario)
    lam = np.diag(l_tau)
    H, E = h_matrix(L), e_vector(L)
    J_k = np.block([[np.zeros((L, L)), E], [H, E]])  # the same for every PRI
    ramp = float(np.sum(ramp_slope(np.arange(n_f), scenario.t_f) ** 2))

    layout = theta_layout_for(scenario, modulation)
    M = np.zeros((layout.size, layout.size))
    delay, doppler, amp = (layout.block_slice(b) for b in ("delay", "doppler", "amp"))
    with np.errstate(over="ignore", invalid="ignore"):  # LabeledMatrix refuses inf/NaN
        B = np.block([[(modulation.sfd_weight + 1.0) * lam, lam], [lam, lam]])
        M[delay, delay] = n_f * (J_k.T @ B @ J_k)
    M[doppler, doppler] = ramp * _congruence(H, l_phi, H)
    M[amp, amp] = np.diag(n_f * l_alpha)
    return LabeledMatrix(M, layout)


# =========================================================================
# Theta assembly (product path + closed-form cross-check)
# =========================================================================


def _check_agreement(product: LabeledMatrix, closed: LabeledMatrix) -> None:
    """Raise unless |P_ij - C_ij| <= ASSEMBLY_RTOL sqrt(C_ii C_jj) everywhere.

    On this equilibrated scale every block counts alike (delay entries are
    ~23 orders of magnitude above Doppler ones); where a diagonal entry of C
    is 0 the match must be exact.
    """
    d = np.sqrt(np.diag(closed.data))
    scale = np.outer(d, d)
    diff = np.abs(product.data - closed.data)
    bad = ~(diff <= ASSEMBLY_RTOL * scale)  # NaN counts as a mismatch
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        names = closed.layout.names
        raise RuntimeError(
            "matrix-product and closed-form I_theta disagree at "
            f"({names[i]}, {names[j]}): |diff| = {diff[i, j]:.3e}, "
            f"sqrt(C_ii C_jj) = {scale[i, j]:.3e}"
        )


def assemble_theta_fim(scenario: ScenarioConfig,
                       modulation: ModulationConfig) -> LabeledMatrix:
    """I_theta for any scenario/modulation pair.

    Differential frames take :func:`differential_pipeline`; other frames
    with at most ``PRODUCT_CHECK_MAX_ETA`` eta entries take J^T diag(lambda) J,
    with lambda the diagonal of I_eta (its dense form is never built).
    That product is returned after an entry-wise comparison with
    :func:`closed_form_theta_fim` on the equilibrated scale at 1e-10, and a
    mismatch raises.  Larger non-differential frames return the closed form.
    """
    validate_modulation(scenario, modulation)
    if modulation.decoupling == Decoupling.DIFFERENTIAL:
        product = differential_pipeline(scenario, modulation)
    elif eta_layout_for(scenario, modulation).size <= PRODUCT_CHECK_MAX_ETA:
        i_eta = observation_fim_analytic(scenario, modulation)
        J = jacobian_for(scenario, modulation)
        product = LabeledMatrix(_congruence(J.data, i_eta.diag, J.data), J.col_layout)
    else:
        return closed_form_theta_fim(scenario, modulation)
    _check_agreement(product, closed_form_theta_fim(scenario, modulation))
    return product


# =========================================================================
# Reports
# =========================================================================

#: theta blocks a CRLB is attempted for, when present in the layout
CRLB_TARGETS = ("tau1", "dtau_q", "fd1", "phi_bpsk", "amp")


@dataclass(frozen=True)
class CrlbReport:
    """Singularity structure and per-block CRLBs of one configuration."""

    scheme: str
    decoupling: str
    size: int
    singular: bool
    rank: int
    min_sv_ratio: float
    coupled_columns: tuple[tuple[str, str], ...]
    zero_columns: tuple[str, ...]
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


def _one_factor_crlbs(fim: LabeledMatrix, targets: list[str]) -> dict | None:
    """Every target's CRLB from one Cholesky factorization, or None.

    With I~ = D^-1/2 I D^-1/2 (unit diagonal) and its inverse from the one
    factor, block b's scaled EFIM is inv((I~^-1)_bb) and its CRLB is
    sum_{i in b} (I~^-1)_ii / I_ii.  None when the matrix has a dead
    direction, fails the factorization or the ``_ONE_FACTOR_MARGIN`` pivot
    bar, or any target fails the ``EFIM_FLOOR`` test of :func:`efim`: the
    caller then runs the per-target Schur complements, which name the cause.
    """
    diag = np.diag(fim.data)
    if not np.all(diag > 0.0):
        return None
    root = np.sqrt(diag)
    try:
        low = np.linalg.cholesky(fim.data / root[:, None] / root[None, :])
    except np.linalg.LinAlgError:
        return None
    low_inv = np.linalg.inv(low)
    inv = low_inv.T @ low_inv
    if not np.all(np.diag(inv) * (_ONE_FACTOR_MARGIN * RANK_RTOL) < 1.0):
        return None
    values = {}
    for target in targets:
        b = fim.layout.block_slice(target)
        block = inv[b, b]
        # min eigenvalue of the scaled EFIM inv(block)
        if not 1.0 / np.linalg.eigvalsh(block)[-1] > EFIM_FLOOR:
            return None
        values[target] = float(np.sum(np.diag(block) / diag[b]))
    return values


def crlb_report(scenario: ScenarioConfig, modulation: ModulationConfig) -> CrlbReport:
    """Assemble I_theta, diagnose its rank and compute the available CRLBs.

    A frame that clears the gates of :func:`_one_factor_crlbs` gets every
    CRLB from one factorization of the equilibrated I_theta.  Any other
    frame runs :func:`crlb` per target: blocks whose Schur elimination hits
    a singular nuisance matrix get a ``None`` CRLB, and the coupled/zero
    columns explain which directions are unidentifiable.
    """
    fim = assemble_theta_fim(scenario, modulation)
    rep = singularity_report(fim)
    targets = [t for t in CRLB_TARGETS if t in fim.layout.block_bounds]
    values = _one_factor_crlbs(fim, targets)
    if values is None:
        values = {}
        for target in targets:
            try:
                values[target] = crlb(fim, target)
            except CoupledParametersError:
                values[target] = None
    rng = None if values.get("tau1") is None else SPEED_OF_LIGHT ** 2 * values["tau1"]
    return CrlbReport(
        scheme=modulation.scheme.value,
        decoupling=modulation.decoupling.value,
        size=fim.size,
        singular=rep.singular,
        rank=rep.rank,
        min_sv_ratio=rep.min_sv_ratio,
        coupled_columns=rep.coupled_columns,
        zero_columns=rep.zero_columns,
        crlb=values,
        range_crlb_m2=rng,
    )


# =========================================================================
# Communication EFIM (PPM data shift)
# =========================================================================


def comm_efim_ppm(scenario: ScenarioConfig, modulation: ModulationConfig) -> float:
    """Equivalent Fisher information of the PPM data shift dtau_q.

    Defined for the pilot split with at least one pilot and one data PRI
    (without pilots the shift is inseparable from the delays).  Scales
    linearly with SNR and is strictly below the data-PRI arrival-time
    information D * lambda_tau: the sensing nuisance always costs something.
    """
    if modulation.scheme != Scheme.PPM or modulation.decoupling != Decoupling.PILOT:
        raise ConfigError("comm_efim_ppm is defined for pilot-decoupled PPM")
    if modulation.d_data < 1:
        raise ConfigError("comm_efim_ppm needs at least one data PRI")
    fim = assemble_theta_fim(scenario, modulation)
    E = efim(fim, "dtau_q")
    return float(E[0, 0])
