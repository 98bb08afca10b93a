"""Structural Jacobians linking observation parameters to physical ones.

The observation vector eta (arrival times, per-PRI phases, amplitudes) is an
affine function of the physical vector theta (reference delay and offsets,
Doppler, data shift/phase, amplitudes), so the physical-parameter information
matrix is the congruence

    I_theta = J^T I_eta J,        J = d eta / d theta.

:func:`jacobian_for` fills J block by block from :data:`isacbounds.model.ETA_BLOCKS`,
as :mod:`isacbounds.fim` fills I_eta (the slot map serves the sampled model
only), from two primitives:

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

from .model import ETA_BLOCKS, PHI, RUN, TAU, Decoupling, Frame, Scheme, eta_size


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
    """d eta / d theta, filled block by block from :data:`~isacbounds.model.ETA_BLOCKS`.

    Rows follow ``frame.eta``, columns ``frame.theta``.  A block's rows of L
    entries are whole slices: delay rows get H, a phase run each PRI's ramp
    slope times H, amplitude rows I; a block that drives no slot (an
    all-pilot split's tail) keeps zero rows.  Rows on ``frame.data``'s slots
    (a tail block, or the run rows kappa in ``frame.data``) also move the
    delay with dtau_q and the phase with phi_bpsk (raw on pilot splits,
    riding the ramp otherwise).  On a differential frame: the chain rule.
    """
    scenario, modulation, cols, data = frame.scenario, frame.modulation, frame.theta, frame.data
    L, n_f, pilot = scenario.n_paths, scenario.n_f, modulation.decoupling == Decoupling.PILOT
    slope, H, lo = ramp_slope(np.arange(n_f), scenario.t_f), h_matrix(L), cols.block("delay")[0]
    # per kind: the theta columns its rows move and their derivative
    moves = ((slice(lo, lo + L), H), (cols.block_slice("doppler"), slope[:, None, None] * H),
             (cols.block_slice("amp"), np.eye(L)))
    # the kind of row the data move, their theta entry and its derivative
    data_kind, data_col, data_value = {
        Scheme.PPM: (TAU, "dtau_q", 1.0),
        Scheme.BPSK: (PHI, "phi_bpsk", 1.0 if pilot else slope[data.start:data.stop, None]),
    }.get(modulation.scheme, (None, None, None))
    # per HEAD, TAIL and RUN: a block's rows that drive a slot, and those on data slots
    driving = (slice(int(frame.split > 0)), slice(int(frame.slots > frame.split)), slice(n_f))
    on_data = (slice(0), slice(int(data.stop > data.start)), slice(data.start, data.stop))
    grid, row = np.zeros((eta_size(frame) // L, L, cols.size)), 0
    for _, kind, drives, _ in ETA_BLOCKS[modulation.decoupling]:
        block = grid[row:row + (n_f if drives == RUN else 1)]
        row += len(block)
        columns, value = moves[kind]
        block[driving[drives], :, columns] = value
        if kind == data_kind:
            block[on_data[drives], :, cols.block(data_col)[0]] = data_value
    return grid.reshape(-1, cols.size)
