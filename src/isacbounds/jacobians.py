"""Structural Jacobians linking observation parameters to physical ones.

The observation vector eta (arrival times, per-PRI phases, amplitudes) is an
affine function of the physical vector theta (reference delay and offsets,
Doppler, data shift/phase, amplitudes), so the physical-parameter information
matrix is the congruence

    I_theta = J^T I_eta J,        J = d eta / d theta.

:func:`jacobian_for` writes J straight through the frame's slot map
(:attr:`isacbounds.model.Frame.slot_map`), which names the eta entry behind
every pulse's delay, phase and amplitude; the pilot/differential/unsplit
split is decided there, not here.  Each kind's derivative rows are built
from two primitives and assigned to the rows the map names, with no
intermediate table:

  * ``H`` (L x L): first column all ones, remaining columns the unit vectors
    of paths 2..L -- it maps [tau1, dtau_2..L] to the absolute per-path values;
  * ``E`` (L x 1): all ones -- it maps a shift common to every path.

Per-PRI phase rows carry the ramp slope 2 pi kappa t_f times H, since both
Doppler and the Doppler-equivalent data phase enter the PRI-``kappa`` phase
through that factor.
"""

from __future__ import annotations

import math

import numpy as np

from .model import AMP, PHI, TAU, Decoupling, Frame, Scheme


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


def jacobian_for(frame: Frame) -> np.ndarray:
    """d eta / d theta, written through the frame's slot map.

    A ``(frame.eta.size, frame.theta.size)`` array: rows follow
    ``frame.eta``, columns ``frame.theta``.  Each (slot, path) delay moves
    with H, each phase with the ramp slope times H and each amplitude with I;
    on the data PRIs ``frame.data`` the delay also moves with dtau_q and the
    phase with phi_bpsk (raw on pilot splits, riding the ramp otherwise).
    Those derivatives are assigned directly to the eta rows the map names.
    For a differential frame this is the plain chain rule through the same map.
    """
    scenario, modulation, ref, cols = frame.scenario, frame.modulation, frame.ref, frame.theta
    index, data = frame.slot_map, slice(frame.data.start, frame.data.stop)
    L, n_f = scenario.n_paths, scenario.n_f
    slope = ramp_slope(np.arange(n_f), scenario.t_f)[:, None]
    H = h_matrix(L)
    # the reference slot's phase and amplitude are known: only its delay has a
    # row.  Path l of a slot moves with row l of the primitive; rows shared by
    # several slots (unsplit delays and amplitudes) get the same values
    tau, phi, amp = index[TAU], index[PHI, ref:], index[AMP, ref:]
    lo = cols.block("delay")[0]
    J = np.zeros((frame.eta.size, cols.size))
    J[tau, lo:lo + L] = H
    J[phi, cols.block_slice("doppler")] = slope[..., None] * H
    J[amp, cols.block_slice("amp")] = np.eye(L)
    if modulation.scheme == Scheme.PPM:
        J[tau[ref:][data], cols.block("dtau_q")[0]] = 1.0
    elif modulation.scheme == Scheme.BPSK:
        J[phi[data], cols.block("phi_bpsk")[0]] = (1.0 if modulation.decoupling == Decoupling.PILOT
                                                  else slope[data])
    return J
