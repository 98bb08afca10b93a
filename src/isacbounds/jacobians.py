"""Structural Jacobians linking observation parameters to physical ones.

The observation vector eta (arrival times, per-PRI phases, amplitudes) is an
affine function of the physical vector theta (reference delay and offsets,
Doppler, data shift/phase, amplitudes), so the physical-parameter information
matrix is the congruence

    I_theta = J^T I_eta J,        J = d eta / d theta.

J is assembled from two primitives:

  * ``H`` (L x L): first column all ones, remaining columns the unit vectors
    of paths 2..L -- it maps [tau1, dtau_2..L] to the absolute per-path values;
  * ``E`` (L x 1): all ones -- it maps a shift common to every path.

Per-PRI phase rows use the ramp slope 2 pi kappa t_f (``L_kappa = 2 pi kappa
t_f H``), since both Doppler and the Doppler-equivalent data phase enter the
PRI-``kappa`` phase through that factor.

Differential frames need two extra maps (see :func:`differential_maps`): the
observation list is first expanded so that the reference arrival time appears
once per data PRI (``sfd_expansion``), then rotated to the difference
sequence [t^k - t^ref, t^k] by the square, +-1-banded ``P_diff``.
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
    _layout,
    eta_layout,
    theta_layout,
)


@dataclass
class StructMatrix:
    """Dense matrix with row/column ParamLayouts for named-block access."""

    data: np.ndarray
    row_layout: ParamLayout
    col_layout: ParamLayout

    def __post_init__(self):
        expect = (self.row_layout.size, self.col_layout.size)
        if self.data.shape != expect:
            raise ConfigError(f"matrix shape {self.data.shape} != layouts {expect}")

    def block(self, row_name: str, col_name: str) -> np.ndarray:
        return self.data[self.row_layout.block_slice(row_name),
                         self.col_layout.block_slice(col_name)]


# =========================================================================
# Primitives
# =========================================================================


def h_matrix(n_paths: int) -> np.ndarray:
    """L x L map from [tau1, dtau_2..L] to absolute per-path delays."""
    H = np.zeros((n_paths, n_paths))
    H[:, 0] = 1.0
    for l in range(1, n_paths):
        H[l, l] = 1.0
    return H


def e_vector(n_paths: int) -> np.ndarray:
    """L x 1 all-ones map of a common shift onto every path."""
    return np.ones((n_paths, 1))


def ramp_slope(kappa: int | np.ndarray, t_f: float) -> float | np.ndarray:
    """Phase-ramp slope 2 pi kappa t_f of PRI ``kappa`` (elementwise on an array)."""
    return 2.0 * math.pi * kappa * t_f


def l_kappa(n_paths: int, kappa: int, t_f: float) -> np.ndarray:
    """L_kappa = 2 pi kappa t_f * H (per-PRI phase rows of the Jacobian)."""
    return ramp_slope(kappa, t_f) * h_matrix(n_paths)


# =========================================================================
# Scheme Jacobians (eta rows x theta columns)
# =========================================================================


def jacobian(scheme: Scheme, decoupling: Decoupling, n_paths: int, n_f: int,
             p_pilots: int = 0, d_data: int = 0, t_f: float = 100e-9) -> StructMatrix:
    """d eta / d theta for the non-differential configurations.

    Rows follow :func:`isacbounds.model.eta_layout`, columns
    :func:`isacbounds.model.theta_layout`.  Differential frames are handled by
    :func:`differential_maps` instead.
    """
    if decoupling == Decoupling.DIFFERENTIAL:
        raise ConfigError("use differential_maps() for differential frames")
    rows = eta_layout(scheme, decoupling, n_paths, n_f, p_pilots, d_data)
    cols = theta_layout(scheme, n_paths)
    L = n_paths
    H = h_matrix(L)
    E = e_vector(L)
    J = np.zeros((rows.size, cols.size))

    def put(row_name: str, col_name: str, block: np.ndarray) -> None:
        J[rows.block_slice(row_name), cols.block_slice(col_name)] = block

    pilot_split = scheme != Scheme.SENSING and decoupling == Decoupling.PILOT
    if pilot_split:
        put("tau_p", "delay", np.hstack([H, np.zeros((L, 1))]) if scheme == Scheme.PPM else H)
        if scheme == Scheme.PPM:
            put("tau_d", "delay", np.hstack([H, E]))
        else:
            put("tau_d", "delay", H)
        put("amp_p", "amp", np.eye(L))
        put("amp_d", "amp", np.eye(L))
    else:
        if scheme == Scheme.PPM:
            put("tau", "delay", np.hstack([H, E]))
        else:
            put("tau", "delay", H)
        put("amp", "amp", np.eye(L))

    for k in range(n_f):
        put(f"phi_{k}", "doppler", l_kappa(L, k, t_f))
        if scheme == Scheme.BPSK:
            if pilot_split:
                # raw data phase: unit sensitivity on data PRIs only
                if k >= p_pilots:
                    put(f"phi_{k}", "phi_bpsk", E)
            else:
                # Doppler-equivalent data phase: ramp-slope sensitivity
                put(f"phi_{k}", "phi_bpsk", ramp_slope(k, t_f) * E)
    return StructMatrix(J, rows, cols)


def jacobian_for(scenario: ScenarioConfig, modulation: ModulationConfig) -> StructMatrix:
    return jacobian(modulation.scheme, modulation.decoupling, scenario.n_paths,
                    scenario.n_f, modulation.p_pilots, modulation.d_data,
                    scenario.t_f)


# =========================================================================
# Differential maps
# =========================================================================


def _interleaved_layout(first: str, n_paths: int, n_f: int) -> ParamLayout:
    """[first_0, t_0, first_1, t_1, ...], then per-PRI phases and amplitudes."""
    paths = range(1, n_paths + 1)

    def entries(block: str) -> tuple[str, list[str]]:
        return block, [f"{block}_{l}" for l in paths]

    blocks = [entries(f"{prefix}_{k}") for k in range(n_f) for prefix in (first, "t")]
    blocks += [entries(f"phi_{k}") for k in range(n_f)]
    blocks.append(entries("amp"))
    layout = _layout(blocks)
    layout.block_bounds["phi"] = (layout.block("phi_0")[0], layout.block(f"phi_{n_f - 1}")[1])
    return layout


def eta_ext_layout(n_paths: int, n_f: int) -> ParamLayout:
    """Expanded differential observation list: the reference arrival time is
    duplicated once per data PRI, interleaved as [ref_0, t_0, ref_1, t_1, ...],
    followed by the per-PRI phases and the amplitudes."""
    return _interleaved_layout("ref", n_paths, n_f)


def diffseq_layout(n_paths: int, n_f: int) -> ParamLayout:
    """Difference-sequence vector: [delta_0, t_0, delta_1, t_1, ...] with
    delta_k = t_k - t_ref, then per-PRI phases and amplitudes."""
    return _interleaved_layout("delta", n_paths, n_f)


def sfd_expansion(n_paths: int, n_f: int) -> StructMatrix:
    """Duplication map G from the physical differential eta to the expanded
    list (every ``ref_k`` row reads the single ``t_ref`` entry).

    The expanded information matrix is G I_eta G^T; the duplicated reference
    rows are then perfectly correlated, which is exactly what the difference
    transform re-expresses.
    """
    rows = eta_ext_layout(n_paths, n_f)
    cols = eta_layout(Scheme.PPM, Decoupling.DIFFERENTIAL, n_paths, n_f)
    G = np.zeros((rows.size, cols.size))
    eye = np.eye(n_paths)
    for k in range(n_f):
        G[rows.block_slice(f"ref_{k}"), cols.block_slice("t_ref")] = eye
        G[rows.block_slice(f"t_{k}"), cols.block_slice(f"t_{k}")] = eye
        G[rows.block_slice(f"phi_{k}"), cols.block_slice(f"phi_{k}")] = eye
    G[rows.block_slice("amp"), cols.block_slice("amp")] = eye
    return StructMatrix(G, rows, cols)


def differential_maps(n_paths: int, n_f: int, t_f: float) -> tuple[StructMatrix, StructMatrix]:
    """(P_diff, J_diff) for the differential pipeline.

    ``P_diff`` is the square, +-1-banded change of variables between the
    expanded observation list and the difference sequence; the transformed
    information matrix is ``P_diff^T I_ext P_diff`` (its determinant has
    magnitude 1, so no information is created or destroyed by the rotation).

    ``J_diff`` maps theta (PPM physical parameters) to the difference
    sequence: delta rows depend on the data shift only, t rows on the
    absolute delays and the data shift, phase rows carry the Doppler ramp.
    """
    ext = eta_ext_layout(n_paths, n_f)
    seq = diffseq_layout(n_paths, n_f)
    theta = theta_layout(Scheme.PPM, n_paths)
    L = n_paths
    eye = np.eye(L)
    H = h_matrix(L)
    E = e_vector(L)

    P = np.zeros((ext.size, seq.size))
    for k in range(n_f):
        P[ext.block_slice(f"ref_{k}"), seq.block_slice(f"delta_{k}")] = -eye
        P[ext.block_slice(f"t_{k}"), seq.block_slice(f"delta_{k}")] = eye
        P[ext.block_slice(f"t_{k}"), seq.block_slice(f"t_{k}")] = eye
        P[ext.block_slice(f"phi_{k}"), seq.block_slice(f"phi_{k}")] = eye
    P[ext.block_slice("amp"), seq.block_slice("amp")] = eye

    J = np.zeros((seq.size, theta.size))
    for k in range(n_f):
        J[seq.block_slice(f"delta_{k}"), theta.block_slice("dtau_q")] = E
        J[seq.block_slice(f"t_{k}"), theta.block_slice("tau1")] = H[:, :1]
        J[seq.block_slice(f"t_{k}"), theta.block_slice("dtau")] = H[:, 1:]
        J[seq.block_slice(f"t_{k}"), theta.block_slice("dtau_q")] = E
        J[seq.block_slice(f"phi_{k}"), theta.block_slice("doppler")] = l_kappa(L, k, t_f)
    J[seq.block_slice("amp"), theta.block_slice("amp")] = np.eye(L)
    return StructMatrix(P, ext, seq), StructMatrix(J, seq, theta)
