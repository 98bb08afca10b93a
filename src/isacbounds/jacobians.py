"""Structural Jacobians linking observation parameters to physical ones.

The observation vector eta (arrival times, per-PRI phases, amplitudes) is an
affine function of the physical vector theta (reference delay and offsets,
Doppler, data shift/phase, amplitudes), so the physical-parameter information
matrix is the congruence

    I_theta = J^T I_eta J,        J = d eta / d theta.

:func:`jacobian_for` reads J off the per-slot map of :mod:`isacbounds.signals`,
which names the eta entry behind every pulse's delay, phase and amplitude; the
pilot/differential/unsplit split is decided there, not here.  Each slot's
derivatives are built from two primitives:

  * ``H`` (L x L): first column all ones, remaining columns the unit vectors
    of paths 2..L -- it maps [tau1, dtau_2..L] to the absolute per-path values;
  * ``E`` (L x 1): all ones -- it maps a shift common to every path.

Per-PRI phase rows carry the ramp slope 2 pi kappa t_f times H, since both
Doppler and the Doppler-equivalent data phase enter the PRI-``kappa`` phase
through that factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ConfigError,
    ModulationConfig,
    ParamLayout,
    ScenarioConfig,
    Scheme,
    eta_layout_for,
    theta_layout_for,
)
from .signals import _AMP, _PHI, _TAU, _slot_model, bound_bits


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
    H = np.eye(n_paths)
    H[:, 0] = 1.0
    return H


def e_vector(n_paths: int) -> np.ndarray:
    """L x 1 all-ones map of a common shift onto every path."""
    return np.ones((n_paths, 1))


def ramp_slope(kappa: int | np.ndarray, t_f: float) -> float | np.ndarray:
    """Phase-ramp slope 2 pi kappa t_f of PRI ``kappa`` (elementwise on an array)."""
    return 2.0 * math.pi * kappa * t_f


# =========================================================================
# Jacobian (eta rows x theta columns)
# =========================================================================


def jacobian_for(scenario: ScenarioConfig, modulation: ModulationConfig) -> StructMatrix:
    """d eta / d theta, read off the per-slot map of :mod:`isacbounds.signals`.

    Rows follow :func:`isacbounds.model.eta_layout_for`, columns
    :func:`isacbounds.model.theta_layout_for`.  Each (slot, path) delay moves
    with H (plus the data bit through dtau_q), each phase with the ramp slope
    times H (plus the data bit through phi_bpsk: raw on pilot splits, riding
    the ramp otherwise) and each amplitude with I; those derivatives are
    written into the eta rows the map names.  For a differential frame this
    is the plain chain rule through the same map.
    """
    rows = eta_layout_for(scenario, modulation)
    cols = theta_layout_for(scenario, modulation)
    size, _, index = _slot_model(scenario, modulation)
    L, n_f = scenario.n_paths, scenario.n_f
    ref = index.shape[1] - n_f  # the differential reference slot, if any
    bits = np.zeros(index.shape[1])
    bits[ref:] = bound_bits(scenario, modulation)
    slope = np.zeros(index.shape[1])
    slope[ref:] = ramp_slope(np.arange(n_f), scenario.t_f)
    H = h_matrix(L)

    # derivative of every slot value, in the (3, slots, L) order of the map
    D = np.zeros(index.shape + (cols.size,))
    lo = cols.block("delay")[0]
    D[_TAU, :, :, lo:lo + L] = H
    D[_PHI, :, :, cols.block_slice("doppler")] = slope[:, None, None] * H
    D[_AMP, :, :, cols.block_slice("amp")] = np.eye(L)
    if modulation.scheme == Scheme.PPM:
        D[_TAU, :, :, cols.block_slice("dtau_q")] = bits[:, None, None]
    elif modulation.scheme == Scheme.BPSK:
        data_phase = bits if modulation.p_pilots else slope * bits
        D[_PHI, :, :, cols.block_slice("phi_bpsk")] = data_phase[:, None, None]

    known = index >= 0
    J = np.zeros((size, cols.size))
    J[index[known]] = D[known]
    return StructMatrix(J, rows, cols)
