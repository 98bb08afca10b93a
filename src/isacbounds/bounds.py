"""Physical-parameter information matrices, EFIMs and CRLBs.

The pipeline is

    I_eta  (observation FIM, :mod:`isacbounds.fim`)
      -> I_theta = J^T I_eta J          (structural Jacobians)
      -> EFIM(block) = A - B^T C^{-1} B (Schur complement onto a target block)
      -> CRLB(block) = tr(EFIM^{-1})    (and c**2 * CRLB(tau1) for ranging).

Every I_theta is assembled twice -- once as the matrix product above and once
directly from the closed-form block expressions -- and the two are required
to agree to 1e-10 relative.  The Schur elimination uses a Cholesky
factorization of the nuisance block; if that block is singular (which is the
defining symptom of sensing/data coupling in the undecoupled PPM and BPSK
frames) a :class:`CoupledParametersError` is raised naming the offending
columns, rather than silently pseudo-inverting.

Differential frames run through :func:`differential_pipeline`: the reference
arrival time is duplicated per data PRI, rotated to the difference sequence
[t^k - t^ref, t^k] by the square +-1-banded transform, the cross-PRI
difference correlations (which all equal the reference-pulse information) are
zeroed -- the independence approximation that makes per-PRI differential
demodulation tractable -- and the result is collapsed onto theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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
    LabeledMatrix,
    coeff_a_range,
    coeff_b_full,
    observation_fim_analytic,
    per_pri_information,
)
from .jacobians import (
    differential_maps,
    e_vector,
    h_matrix,
    jacobian_for,
    sfd_expansion,
)

RANK_RTOL = 1e-10
ASSEMBLY_RTOL = 1e-10

#: above this eta size the product-path cross-check is skipped and the
#: closed-form assembly (verified against the product at smaller sizes and
#: against the numeric probe by the validation suite) is returned directly
PRODUCT_CHECK_MAX_ETA = 3000


class CoupledParametersError(RuntimeError):
    """A nuisance block required by a Schur complement is singular."""

    def __init__(self, message: str, report: "SingularityReport | None" = None):
        super().__init__(message)
        self.report = report


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
    return data * np.outer(s, s)


def singularity_report(mat: LabeledMatrix | np.ndarray,
                       labels: tuple[str, ...] | None = None,
                       tol: float = RANK_RTOL) -> SingularityReport:
    """SVD-based rank report with duplicate/zero column identification.

    The matrix is diagonally equilibrated first, then rank counts singular
    values above ``tol`` times the largest one.  Column pairs of the scaled
    matrix whose difference is below ``tol`` relative to their size are
    reported as coupled (these are the structurally indistinguishable
    parameter directions); all-zero columns are listed separately.
    """
    if isinstance(mat, LabeledMatrix):
        data = mat.data
        labels = mat.layout.names
    else:
        data = np.asarray(mat)
        if labels is None:
            labels = tuple(f"col_{i}" for i in range(data.shape[1]))
    n = data.shape[1]
    scaled = _equilibrate(data)
    s = np.linalg.svd(scaled, compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        return SingularityReport(n, 0, True, 0.0, (), tuple(labels))
    rank = int(np.sum(s > tol * smax))
    ratio = float(s[-1] / smax)

    norms = np.linalg.norm(scaled, axis=0)
    zero_cols = tuple(labels[i] for i in np.flatnonzero(norms <= tol * smax))
    coupled: list[tuple[str, str]] = []
    if n <= 512:
        for i in range(n):
            if norms[i] <= tol * smax:
                continue
            for j in range(i + 1, n):
                if norms[j] <= tol * smax:
                    continue
                d = np.linalg.norm(scaled[:, i] - scaled[:, j])
                if d <= tol * max(norms[i], norms[j]):
                    coupled.append((labels[i], labels[j]))
    return SingularityReport(n, rank, rank < n, ratio, tuple(coupled), zero_cols)


# =========================================================================
# Schur complements, EFIM, CRLB
# =========================================================================


def schur_complement(M: np.ndarray, keep: np.ndarray, elim: np.ndarray,
                     elim_labels: tuple[str, ...] | None = None) -> np.ndarray:
    """A - B^T C^{-1} B with C = M[elim, elim], via Cholesky of C.

    Raises CoupledParametersError when C is not positive definite.
    """
    A = M[np.ix_(keep, keep)]
    if elim.size == 0:
        return A.copy()
    B = M[np.ix_(elim, keep)]
    C = M[np.ix_(elim, elim)]

    def _raise_singular() -> None:
        rep = singularity_report(C, elim_labels or tuple(f"elim_{i}" for i in elim))
        detail = []
        if rep.coupled_columns:
            detail.append("coupled columns: " + ", ".join(f"{a}~{b}" for a, b in rep.coupled_columns))
        if rep.zero_columns:
            detail.append("zero columns: " + ", ".join(rep.zero_columns))
        raise CoupledParametersError(
            f"nuisance block is singular (rank {rep.rank} of {rep.size}); "
            + ("; ".join(detail) if detail else "no duplicate columns identified")
            + "; choose a decoupling strategy or drop the affected parameters",
            rep,
        ) from None

    try:
        cf = cho_factor(C, lower=True)
    except np.linalg.LinAlgError:
        _raise_singular()
    # an exactly dependent direction can survive the factorization on a
    # roundoff-sized pivot; the squared pivot over the diagonal entry is the
    # scale-free leftover of that direction, so gate it explicitly
    pivot_ratio = np.diag(cf[0]) ** 2 / np.diag(C)
    if np.any(pivot_ratio <= RANK_RTOL):
        _raise_singular()
    return A - B.T @ cho_solve(cf, B)


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
    labels = tuple(fim.layout.names[i] for i in elim)
    E = schur_complement(fim.data, keep, elim, labels)

    diag = np.diag(fim.data)[lo:hi]
    if np.any(diag <= 0.0):
        raise CoupledParametersError(f"block {target!r} carries no information")
    scaled = E / np.sqrt(np.outer(diag, diag))
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
    E = efim(fim, target)
    if E.shape == (1, 1):
        if E[0, 0] <= 0.0:
            raise CoupledParametersError(
                f"EFIM of {target!r} is not positive ({E[0, 0]:.3e})"
            )
        return float(1.0 / E[0, 0])
    return float(np.trace(np.linalg.inv(E)))


def range_crlb(fim: LabeledMatrix) -> float:
    """Ranging CRLB in m**2: c**2 times the delay CRLB of the first path."""
    return SPEED_OF_LIGHT ** 2 * crlb(fim, "tau1")


# =========================================================================
# Closed-form theta assembly
# =========================================================================


def _congruence(H_l: np.ndarray, diag: np.ndarray, H_r: np.ndarray) -> np.ndarray:
    return H_l.T @ (diag[:, None] * H_r)


def closed_form_theta_fim(scenario: ScenarioConfig, modulation: ModulationConfig,
                          sfd_weight: float = 1.0) -> LabeledMatrix:
    """I_theta assembled directly from the closed-form block expressions.

    The delay part is a congruence of the arrival-time information with the
    [H | E] structure of the scheme; the Doppler part carries the phase-ramp
    coefficient sums; the symmetric pulse zeroes every delay/phase/amplitude
    cross block, so those are simply absent.
    """
    validate_modulation(scenario, modulation)
    layout = theta_layout_for(scenario, modulation)
    L = scenario.n_paths
    H = h_matrix(L)
    E = e_vector(L)
    l_tau1, l_phi1, l_alpha1 = per_pri_information(scenario)
    n_f = scenario.n_f
    t_f = scenario.t_f
    M = np.zeros((layout.size, layout.size))

    def put(row: str, col: str, block: np.ndarray) -> None:
        r, c = layout.block_slice(row), layout.block_slice(col)
        M[r, c] = block
        if row != col:
            M[c, r] = np.asarray(block).T

    scheme, dec = modulation.scheme, modulation.decoupling
    if scheme == Scheme.PPM and dec == Decoupling.DIFFERENTIAL:
        put("delay", "delay", np.block([
            [n_f * _congruence(H, l_tau1, H), 2.0 * n_f * _congruence(H, l_tau1, E)],
            [2.0 * n_f * _congruence(E, l_tau1, H), (sfd_weight + 4.0) * n_f * _congruence(E, l_tau1, E)],
        ]))
        put("doppler", "doppler", coeff_b_full(t_f, n_f) * _congruence(H, l_phi1, H))
        put("amp", "amp", np.diag(n_f * l_alpha1))
    elif scheme == Scheme.PPM:
        if dec == Decoupling.PILOT:
            p, d = modulation.p_pilots, modulation.d_data
        else:
            p, d = 0, n_f
        total = p + d
        put("delay", "delay", np.block([
            [total * _congruence(H, l_tau1, H), d * _congruence(H, l_tau1, E)],
            [d * _congruence(E, l_tau1, H), d * _congruence(E, l_tau1, E)],
        ]))
        put("doppler", "doppler", coeff_b_full(t_f, total) * _congruence(H, l_phi1, H))
        put("amp", "amp", np.diag(total * l_alpha1))
    elif scheme == Scheme.BPSK:
        if dec == Decoupling.PILOT:
            p, d = modulation.p_pilots, modulation.d_data
        else:
            p, d = 0, n_f
        total = p + d
        put("delay", "delay", total * _congruence(H, l_tau1, H))
        put("doppler", "doppler", coeff_b_full(t_f, total) * _congruence(H, l_phi1, H))
        if dec == Decoupling.PILOT:
            # raw data phase: unit ramp on the D data PRIs
            put("doppler", "phi_bpsk", coeff_a_range(t_f, p, d) * _congruence(H, l_phi1, E))
            put("phi_bpsk", "phi_bpsk", d * _congruence(E, l_phi1, E))
        else:
            # Doppler-equivalent data phase: shares the quadratic ramp sum
            put("doppler", "phi_bpsk", coeff_b_full(t_f, total) * _congruence(H, l_phi1, E))
            put("phi_bpsk", "phi_bpsk", coeff_b_full(t_f, total) * _congruence(E, l_phi1, E))
        put("amp", "amp", np.diag(total * l_alpha1))
    else:  # sensing-only
        put("delay", "delay", n_f * _congruence(H, l_tau1, H))
        put("doppler", "doppler", coeff_b_full(t_f, n_f) * _congruence(H, l_phi1, H))
        put("amp", "amp", np.diag(n_f * l_alpha1))
    return LabeledMatrix(M, layout)


# =========================================================================
# Differential pipeline
# =========================================================================


@dataclass
class DifferentialResult:
    """Intermediate and final matrices of the differential-frame pipeline."""

    i_eta: LabeledMatrix          # physical observation FIM
    i_ext: LabeledMatrix          # reference duplicated per data PRI
    i_diffseq_raw: LabeledMatrix  # difference sequence, correlations intact
    i_diffseq: LabeledMatrix      # after zeroing cross-PRI difference blocks
    i_theta: LabeledMatrix


def zero_reference_cross(i_diffseq: LabeledMatrix) -> LabeledMatrix:
    """Zero the (delta_i, delta_j), i != j blocks of the difference-sequence FIM.

    Those blocks all equal the reference-pulse information (every difference
    shares the same reference); dropping them treats the per-PRI differential
    measurements as independent, which is the tractable working model.
    """
    layout = i_diffseq.layout
    data = i_diffseq.data.copy()
    deltas = sorted(name for name in layout.block_bounds if name.startswith("delta_"))
    for i, a in enumerate(deltas):
        for b in deltas[i + 1:]:
            data[layout.block_slice(a), layout.block_slice(b)] = 0.0
            data[layout.block_slice(b), layout.block_slice(a)] = 0.0
    return LabeledMatrix(data, layout)


def differential_pipeline(scenario: ScenarioConfig, modulation: ModulationConfig,
                          sfd_weight: float = 1.0,
                          i_eta: LabeledMatrix | None = None) -> DifferentialResult:
    """Full differential-frame chain from I_eta to I_theta.

    ``i_eta`` may be supplied externally (e.g. the numeric probe); by default
    the closed-form observation FIM is used with the reference arrival-time
    information scaled by ``sfd_weight``.
    """
    if modulation.decoupling != Decoupling.DIFFERENTIAL:
        raise ConfigError("differential_pipeline requires differential decoupling")
    if i_eta is None:
        i_eta = observation_fim_analytic(scenario, modulation, sfd_weight=sfd_weight)
    L, n_f = scenario.n_paths, scenario.n_f
    G = sfd_expansion(L, n_f)
    if tuple(G.col_layout.names) != tuple(i_eta.layout.names):
        raise ConfigError("observation FIM layout does not match the differential maps")
    P, J = differential_maps(L, n_f, scenario.t_f)

    i_ext = LabeledMatrix(G.data @ i_eta.data @ G.data.T, G.row_layout)
    raw = LabeledMatrix(P.data.T @ i_ext.data @ P.data, P.col_layout)
    cut = zero_reference_cross(raw)
    i_theta = LabeledMatrix(J.data.T @ cut.data @ J.data, J.col_layout)
    return DifferentialResult(i_eta, i_ext, raw, cut, i_theta)


# =========================================================================
# Theta assembly (product path + closed-form cross-check)
# =========================================================================


def assemble_theta_fim(scenario: ScenarioConfig, modulation: ModulationConfig,
                       sfd_weight: float = 1.0,
                       i_eta: LabeledMatrix | None = None,
                       check: bool | None = None) -> LabeledMatrix:
    """I_theta for any scenario/modulation pair.

    The matrix-product path (J^T I_eta J, or the differential pipeline) is
    authoritative; unless disabled it is compared entry-wise against the
    closed-form assembly at 1e-10 relative and a mismatch raises.  For very
    large frames (eta larger than ``PRODUCT_CHECK_MAX_ETA``) the closed-form
    assembly is returned directly.

    ``i_eta`` substitutes an externally computed observation FIM (the numeric
    probe) into the product path; no closed-form comparison is done then.
    """
    validate_modulation(scenario, modulation)
    if i_eta is None:
        eta_size = eta_layout_for(scenario, modulation).size
        if check is None:
            check = eta_size <= PRODUCT_CHECK_MAX_ETA
        if not check:
            return closed_form_theta_fim(scenario, modulation, sfd_weight)
        i_eta_mat = observation_fim_analytic(scenario, modulation, sfd_weight=sfd_weight)
        product = _product_theta(scenario, modulation, i_eta_mat, sfd_weight)
        closed = closed_form_theta_fim(scenario, modulation, sfd_weight)
        scale = max(1.0, float(np.max(np.abs(closed.data))))
        diff = float(np.max(np.abs(product.data - closed.data)))
        if diff > ASSEMBLY_RTOL * scale:
            raise RuntimeError(
                "matrix-product and closed-form I_theta disagree "
                f"(max |diff| = {diff:.3e}, scale = {scale:.3e})"
            )
        return product
    return _product_theta(scenario, modulation, i_eta, sfd_weight)


def _product_theta(scenario: ScenarioConfig, modulation: ModulationConfig,
                   i_eta: LabeledMatrix, sfd_weight: float) -> LabeledMatrix:
    if modulation.decoupling == Decoupling.DIFFERENTIAL:
        return differential_pipeline(scenario, modulation, sfd_weight, i_eta).i_theta
    J = jacobian_for(scenario, modulation)
    if tuple(J.row_layout.names) != tuple(i_eta.layout.names):
        raise ConfigError("observation FIM layout does not match the Jacobian rows")
    return LabeledMatrix(J.data.T @ i_eta.data @ J.data, J.col_layout)


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


def crlb_report(scenario: ScenarioConfig, modulation: ModulationConfig,
                sfd_weight: float = 1.0) -> CrlbReport:
    """Assemble I_theta, diagnose its rank and compute the available CRLBs.

    Blocks whose Schur elimination hits a singular nuisance matrix get a
    ``None`` CRLB; the coupled/zero columns explain which directions are
    unidentifiable.
    """
    fim = assemble_theta_fim(scenario, modulation, sfd_weight=sfd_weight)
    rep = singularity_report(fim)
    values: dict = {}
    for target in CRLB_TARGETS:
        if target not in fim.layout.block_bounds:
            continue
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
    if modulation.p_pilots < 1:
        raise ConfigError("comm_efim_ppm needs at least one pilot PRI")
    fim = assemble_theta_fim(scenario, modulation)
    E = efim(fim, "dtau_q")
    return float(E[0, 0])
