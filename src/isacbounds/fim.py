"""Observation-domain Fisher information: numeric probe and closed forms.

For the complex AWGN model ``r = mu(eta) + noise`` with independent real and
imaginary noise components of variance ``sigma2`` each, the Fisher
information matrix of the real parameter vector eta is

    I_eta[i, j] = Re{ (d mu / d eta_i)^H (d mu / d eta_j) } / sigma2.

Because the pulses of different PRIs occupy disjoint slots, and pulses of
different paths are kept at least 12 alpha apart, I_eta is block diagonal in
the :func:`isacbounds.model.eta_layout_for` blocks, with closed-form diagonal
values per path:

    lambda_tau   = (2 pi B)**2 * M * t_f * f_s * SNR_l      (arrival times)
    lambda_phi   =              t_f * f_s * SNR_l            (per-PRI phase)
    lambda_alpha =          M * t_f * f_s * SNR_l / amp**2   (amplitudes)

where B is the effective bandwidth, M the number of PRIs the parameter
touches, and SNR_l the per-pulse received SNR of the path.  The symmetric
pulse makes the arrival-time / amplitude cross information exactly zero.

Frame-phase ramp coefficients used by the physical-parameter assembly
(:mod:`isacbounds.bounds`) also live here: ``coeff_a`` sums ``2 pi kappa t_f``
and ``coeff_b`` sums its square over a PRI index range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ConfigError,
    Decoupling,
    ModulationConfig,
    ParamLayout,
    ScenarioConfig,
    Scheme,
    SUPPORT_SIGMAS,
    effective_bandwidth,
    eta_layout_for,
    received_snr,
    validate_modulation,
)
from .signals import eta_point, mean_from_eta, n_slots

# numeric-probe guard rails: beyond this the finite-difference sweep is too
# slow to be useful and the closed forms are the intended path
MAX_FD_PARAMS = 64
MAX_FD_SAMPLES = 200_000

SYMMETRY_RTOL = 1e-10


# =========================================================================
# Labeled matrices
# =========================================================================


@dataclass
class LabeledMatrix:
    """Square matrix addressed by the named blocks of a ParamLayout."""

    data: np.ndarray
    layout: ParamLayout

    def __post_init__(self):
        n = self.layout.size
        if self.data.shape != (n, n):
            raise ConfigError(
                f"matrix shape {self.data.shape} does not match layout size {n}"
            )
        scale = float(np.max(np.abs(self.data))) or 1.0
        skew = float(np.max(np.abs(self.data - self.data.T)))
        if skew > SYMMETRY_RTOL * scale:
            raise ConfigError(
                f"matrix is not symmetric (max |M - M^T| = {skew:.3e} "
                f"vs scale {scale:.3e})"
            )

    @property
    def size(self) -> int:
        return self.layout.size

    def block(self, row_name: str, col_name: str | None = None) -> np.ndarray:
        """View of the (row_name, col_name) block; col defaults to row."""
        r = self.layout.block_slice(row_name)
        c = self.layout.block_slice(col_name if col_name is not None else row_name)
        return self.data[r, c]


# =========================================================================
# Frame-phase ramp coefficients
# =========================================================================


def coeff_a(t_f: float, kappas) -> float:
    """Sum of the per-PRI phase-ramp slopes 2 pi kappa t_f over a PRI range."""
    k = np.asarray(list(kappas), dtype=float)
    return float(np.sum(2.0 * math.pi * k * t_f))


def coeff_b(t_f: float, kappas) -> float:
    """Sum of the squared phase-ramp slopes (2 pi kappa t_f)**2 over a range."""
    k = np.asarray(list(kappas), dtype=float)
    return float(np.sum((2.0 * math.pi * k * t_f) ** 2))


def coeff_a_full(t_f: float, n_f: int) -> float:
    """coeff_a over kappa = 0 .. n_f-1 in closed form: pi t_f n (n - 1)."""
    return math.pi * t_f * n_f * (n_f - 1)


def coeff_b_full(t_f: float, n_f: int) -> float:
    """coeff_b over kappa = 0 .. n_f-1: (2 pi t_f)**2 n (n-1) (2n-1) / 6."""
    return (2.0 * math.pi * t_f) ** 2 * n_f * (n_f - 1) * (2 * n_f - 1) / 6.0


def coeff_a_range(t_f: float, start: int, count: int) -> float:
    """coeff_a over kappa = start .. start+count-1: pi t_f count (2 start + count - 1)."""
    return math.pi * t_f * count * (2 * start + count - 1)


def coeff_b_range(t_f: float, start: int, count: int) -> float:
    """coeff_b over kappa = start .. start+count-1 (difference of full sums)."""
    return coeff_b_full(t_f, start + count) - coeff_b_full(t_f, start)


# =========================================================================
# Closed-form per-path information
# =========================================================================


def per_pri_information(scenario: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda_tau, lambda_phi, lambda_alpha) of a single PRI, per path."""
    bw2 = (2.0 * math.pi * effective_bandwidth(scenario.pulse)) ** 2
    snr = np.array([received_snr(scenario, p) for p in scenario.paths])
    amps = np.array([p.amp for p in scenario.paths])
    base = scenario.t_f * scenario.f_s * snr
    return bw2 * base, base, base / amps ** 2


def require_sfd_weight(sfd_weight: float) -> None:
    """Raise ConfigError unless the differential reference weight is finite and > 0."""
    if not (math.isfinite(sfd_weight) and sfd_weight > 0.0):
        raise ConfigError(f"sfd_weight must be finite and > 0, got {sfd_weight}")


# =========================================================================
# Analytic observation FIM
# =========================================================================


def observation_fim_analytic(scenario: ScenarioConfig, modulation: ModulationConfig,
                             sfd_weight: float = 1.0) -> LabeledMatrix:
    """Closed-form I_eta for the given scenario/modulation pair.

    ``sfd_weight`` scales the arrival-time information of the differential
    reference pulse relative to a single data pulse (1.0 = one pulse's worth).

    The matrix is exactly block diagonal; this relies on the path-separation
    invariant (>= 12 alpha), which is re-checked here.
    """
    validate_modulation(scenario, modulation)
    half = SUPPORT_SIGMAS * scenario.pulse.alpha
    taus = [p.tau_l0 for p in scenario.paths]
    if any(t2 - t1 < 2 * half for t1, t2 in zip(taus, taus[1:])):
        raise ConfigError(
            "closed-form I_eta requires paths separated by >= "
            f"{2 * SUPPORT_SIGMAS} alpha; use the numeric probe otherwise"
        )
    require_sfd_weight(sfd_weight)

    layout = eta_layout_for(scenario, modulation)
    l_tau, l_phi, l_alpha = per_pri_information(scenario)
    M = np.zeros((layout.size, layout.size))

    def put(name: str, values: np.ndarray) -> None:
        lo, hi = layout.block(name)
        M[range(lo, hi), range(lo, hi)] = values

    if modulation.decoupling == Decoupling.PILOT and modulation.scheme != Scheme.SENSING:
        p, d = modulation.p_pilots, modulation.d_data
        put("tau_p", p * l_tau)
        put("tau_d", d * l_tau)
        put("amp_p", p * l_alpha)
        put("amp_d", d * l_alpha)
    elif modulation.decoupling == Decoupling.DIFFERENTIAL:
        put("t_ref", sfd_weight * l_tau)
        for k in range(scenario.n_f):
            put(f"t_{k}", l_tau)
        put("amp", scenario.n_f * l_alpha)
    else:
        put("tau", scenario.n_f * l_tau)
        put("amp", scenario.n_f * l_alpha)
    for k in range(scenario.n_f):
        put(f"phi_{k}", l_phi)
    return LabeledMatrix(M, layout)


# =========================================================================
# Numeric observation FIM (finite-difference probe)
# =========================================================================


@dataclass(frozen=True)
class FdSteps:
    """Central-difference step sizes for the numeric probe."""

    delay: float = 1e-13    # seconds, for arrival-time entries
    phase: float = 1e-7     # radians
    amp_rel: float = 1e-7   # relative, for amplitude entries


DEFAULT_FD = FdSteps()


def _fd_step(name: str, value: float, steps: FdSteps) -> float:
    if name.startswith(("tau", "t_")):
        return steps.delay
    if name.startswith("phi"):
        return steps.phase
    if name.startswith("amp"):
        return steps.amp_rel * abs(value)
    raise ConfigError(f"no finite-difference step rule for parameter {name!r}")


def observation_fim_numeric(scenario: ScenarioConfig, modulation: ModulationConfig,
                            steps: FdSteps = DEFAULT_FD) -> LabeledMatrix:
    """I_eta via central differences of the mean vector.

    Independent of the closed forms (the mean is re-evaluated at shifted
    parameter values); used to cross-check the analytic path.  Guarded to
    ``MAX_FD_PARAMS`` parameters and ``MAX_FD_SAMPLES`` stacked samples.
    """
    validate_modulation(scenario, modulation)
    layout = eta_layout_for(scenario, modulation)
    if layout.size > MAX_FD_PARAMS:
        raise ConfigError(
            f"numeric probe limited to {MAX_FD_PARAMS} parameters, "
            f"layout has {layout.size}"
        )
    total = n_slots(scenario, modulation) * scenario.n_s
    if total > MAX_FD_SAMPLES:
        raise ConfigError(
            f"numeric probe limited to {MAX_FD_SAMPLES} samples, frame has {total}"
        )

    eta0 = eta_point(scenario, modulation)
    cols = np.zeros((total, layout.size), dtype=complex)
    for i, name in enumerate(layout.names):
        h = _fd_step(name, eta0[i], steps)
        if not h > 0.0:
            raise ConfigError(f"finite-difference step for {name!r} is not positive")
        up = eta0.copy()
        dn = eta0.copy()
        up[i] += h
        dn[i] -= h
        cols[:, i] = (mean_from_eta(scenario, modulation, up, layout)
                      - mean_from_eta(scenario, modulation, dn, layout)) / (2.0 * h)

    M = (cols.conj().T @ cols).real / scenario.sigma2
    M = 0.5 * (M + M.T)
    if np.any(np.diag(M) <= 0.0):
        bad = [layout.names[i] for i in np.flatnonzero(np.diag(M) <= 0.0)]
        raise ConfigError(
            f"finite-difference step wiped out the diagonal for {bad}; "
            "reduce the step sizes"
        )
    return LabeledMatrix(M, layout)
