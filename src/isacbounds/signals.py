"""Noise-free received signal (mean vector) and its parameter Jacobian.

The observation model per frame is

    r[k] = mu[k](eta) + noise,      k = 0 .. n_slots * n_s - 1

where ``mu`` stacks the PRIs of one frame (plus, for differential frames, one
leading reference slot) and ``eta`` is the observation-domain parameter
vector of the frame: per-path arrival times, one carrier phase per PRI and
path, and per-path amplitudes, laid out by :attr:`~isacbounds.model.Frame.eta`
and tied to the pulses by :attr:`~isacbounds.model.Frame.slot_map`.  This
module is the sampled model and its oracle; the bounds never call it.

Within a PRI the Doppler of a path only rotates the carrier; the envelope
distortion over a single PRI is negligible at the bandwidths considered, so
the path contribution in PRI ``kappa`` is

    amp_l * exp(j phi_l^kappa) * w(t - tau_l^kappa),
    phi_l^kappa = 2 pi (f_dl kappa t_f - f_c tau_l0)   [- xi_bpsk q_kappa].

PPM moves the data-PRI pulse by ``xi_ppm * q_kappa``; BPSK rotates it by
``xi_bpsk * q_kappa``.  Only the data PRIs of the frame are modulated.  All
bound-level computations use the all-ones data word, which is also the
default here: the (tau, phi, amp) of every pulse at that word is
:attr:`~isacbounds.model.Frame.pulses`, kept on the frame beside its slot map;
this module holds no state of its own.  :func:`mean_vector` and
:func:`mean_jacobian` take a scenario and a modulation and check them as one
:class:`~isacbounds.model.Frame`; the stages below them take that frame.
"""

from __future__ import annotations

import numpy as np

from .model import (
    ConfigError,
    Frame,
    ModulationConfig,
    ScenarioConfig,
    _pulse_values,
    _pulse_window,
)


# =========================================================================
# Per-slot model
# =========================================================================

# Every term of the stacked mean is amp * exp(j phi) * w(t - tau) for one
# (slot, path) pair.  The model is a (3, n_slots, L) table of those values,
# ``frame.pulses`` at the default word, beside the frame's slot map of the
# same shape, naming the eta entry of each.


def _windows(scenario: ScenarioConfig, tau: np.ndarray
             ) -> tuple[list[int], int, np.ndarray, np.ndarray, np.ndarray]:
    """One :func:`isacbounds.model._pulse_window` pass over the distinct
    centers of ``tau``: its ``(firsts, width, t, values)``, one row per
    distinct center, and the row of each entry of ``tau``.

    Window values depend only on the center and the sample, so the pulses at
    one center share a row bit for bit.
    """
    centers, which = np.unique(tau.reshape(-1), return_inverse=True)
    firsts, width, t, w = _pulse_window(scenario.pulse, centers, scenario)
    return firsts, width, t, w, which.reshape(tau.shape)


def _evaluate(scenario: ScenarioConfig, table: np.ndarray) -> np.ndarray:
    """Stacked mean of slot tables: shape ``(..., 3, n_slots, L)`` gives
    ``(..., n_slots * n_s)``.

    Each (slot, path) pulse adds ``coef * w`` into its sample window
    (:func:`isacbounds.model._pulse_window`), in path order; every other
    sample of the slot is an exact zero of the pulse formula and stays 0.
    """
    tau, phi, amp = np.moveaxis(table, -3, 0)
    coef = amp * np.exp(1j * phi)
    ns = scenario.n_s
    L = tau.shape[-1]
    firsts, width, _, w, which = _windows(scenario, tau)
    mu = np.zeros(tau.shape[:-1] + (ns,), dtype=complex)
    for row, cs, us in zip(mu.reshape(-1, ns), coef.reshape(-1, L),
                           which.reshape(-1, L).tolist()):
        for c, u in zip(cs, us):
            first = firsts[u]
            row[first:first + width] += c * w[u]
    return mu.reshape(tau.shape[:-2] + (tau.shape[-2] * ns,))


# =========================================================================
# Mean vector and its parameter Jacobian
# =========================================================================


def _check_bits(frame: Frame, bits: np.ndarray) -> np.ndarray:
    """An explicit data word as int64, one 0 or 1 per PRI and 0 off the data PRIs."""
    n_f, data = frame.scenario.n_f, frame.data
    bits = np.asarray(bits)
    if bits.shape != (n_f,):
        raise ConfigError(
            f"bits must have one entry per PRI (n_f = {n_f}), got shape {bits.shape}"
        )
    if bits.dtype.kind not in "biuf" or np.any((bits != 0) & (bits != 1)):
        raise ConfigError("bits must be binary")
    if np.any(bits[:data.start] != 0) or np.any(bits[data.stop:] != 0):
        raise ConfigError(f"bits outside the data PRIs {data} must be 0")
    return bits.astype(np.int64)


def mean_vector(scenario: ScenarioConfig, modulation: ModulationConfig,
                bits: np.ndarray | None = None) -> np.ndarray:
    """Noise-free stacked frame mean, complex ndarray of length n_slots * n_s.

    Slot ``kappa`` (or ``kappa + 1`` for differential frames, whose slot 0 is
    the unmodulated reference pulse) holds the sum over paths of the carrier-
    rotated, amplitude-scaled pulse at that PRI's path positions.  ``bits``,
    one bool, integer or real 0 or 1 per PRI and 0 off the data PRIs,
    replaces the default all-ones data word.
    """
    frame = Frame(scenario, modulation)
    table = frame.pulses if bits is None else _pulse_values(frame, _check_bits(frame, bits))
    return _evaluate(scenario, table)


def eta_point(frame: Frame) -> np.ndarray:
    """Operating value of eta at the all-ones data word, laid out by ``frame.eta``.

    For the unsplit schemes the per-path arrival time absorbs the (common)
    PPM data shift; for the pilot split the pilot and data arrival times are
    separate entries; for differential frames the reference time and each
    data-PRI arrival time are separate entries.
    """
    index = frame.slot_map
    eta = np.zeros(frame.eta.size)
    unknown = index >= 0
    eta[index[unknown]] = frame.pulses[unknown]
    return eta


def mean_from_eta(frame: Frame, eta: np.ndarray, slots=None) -> np.ndarray:
    """Mean vector as a function of eta (used by the finite-difference probe).

    ``eta`` follows ``frame.eta``; a stack of points, shape ``(k, n_eta)``,
    gives one mean per row, shape ``(k, len(slots) * n_s)``, each equal to
    the call on that row alone.
    The stack is evaluated with one pulse window per distinct center.
    ``mean_from_eta(frame, eta_point(frame))`` equals
    ``mean_vector(frame.scenario, frame.modulation)`` at the all-ones data word.
    ``slots`` lists the slots to evaluate (all by default); the result stacks
    them in that order, n_s samples each, and equals the matching rows of the
    whole-frame mean exactly.
    """
    size, table, index = frame.eta.size, frame.pulses, frame.slot_map
    eta = np.asarray(eta, dtype=float)
    if eta.ndim not in (1, 2) or eta.shape[-1] != size:
        raise ConfigError(f"eta must have shape ({size},) or (k, {size}), got {eta.shape}")
    slots = _check_slots(slots, index.shape[1])
    index = index[:, slots]
    return _evaluate(frame.scenario, np.where(index >= 0, eta[..., index], table[:, slots]))


def _check_slots(slots, count: int) -> np.ndarray:
    """``slots`` as an index array, any empty sequence selecting none;
    ConfigError unless integers in [0, count)."""
    if slots is None:
        return np.arange(count)
    picked = np.asarray(slots)
    if picked.shape == (0,):  # an empty list reads as float
        picked = np.arange(0)
    if (picked.ndim != 1 or picked.dtype.kind not in "iu"
            or np.any(picked < 0) or np.any(picked >= count)):
        raise ConfigError(
            f"slots must be a sequence of integers in [0, {count}), got {slots!r}"
        )
    return picked


def mean_jacobian(scenario: ScenarioConfig, modulation: ModulationConfig) -> np.ndarray:
    """Analytic d mu / d eta at the all-ones operating point.

    Returns
    -------
    ndarray, shape (n_slots * n_s, layout.size), complex
        Column ``i`` is the derivative of the stacked mean with respect to
        eta entry ``i`` of :attr:`isacbounds.model.Frame.eta`.  Phase
        columns are ``j *`` (the slot's path contribution); arrival-time
        columns use the analytic pulse derivative.  Only the rows of each
        pulse's sample window (:func:`isacbounds.model._pulse_window`) are
        written; every other entry is 0.
    """
    frame = Frame(scenario, modulation)
    size, (tau, phi, amp), index = frame.eta.size, frame.pulses, frame.slot_map
    ns = scenario.n_s
    rot = np.exp(1j * phi)
    coef = amp * rot
    firsts, width, t, w, which = _windows(scenario, tau)
    dw = (t / scenario.pulse.alpha ** 2) * w  # as pulse_time_derivative forms it
    J = np.zeros((tau.shape[0] * ns, size), dtype=complex)
    for slot, us in enumerate(which.tolist()):
        c = coef[slot][:, None]
        # d/dtau, d/dphi, d/damp of each path's term, in TAU, PHI, AMP order
        terms = (c * dw[us], 1j * c * w[us], rot[slot][:, None] * w[us])
        for cols, term in zip(index[:, slot], terms):
            for col, u, values in zip(cols.tolist(), us, term):
                if col >= 0:
                    lo = slot * ns + firsts[u]
                    J[lo:lo + width, col] = values
    return J
