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
default here.  :func:`mean_vector` and :func:`mean_jacobian` take a scenario
and a modulation and check them as one :class:`~isacbounds.model.Frame`; the
stages below them take that frame.
"""

from __future__ import annotations

import functools

import numpy as np

from .model import (
    AMP,
    PHI,
    TAU,
    ConfigError,
    Frame,
    ModulationConfig,
    ScenarioConfig,
    Scheme,
    _pulse_window,
)

TWO_PI = 2.0 * np.pi


# =========================================================================
# Bits and phases
# =========================================================================


def bound_bits(frame: Frame) -> np.ndarray:
    """Default data word for bound evaluation: 1 on data PRIs, 0 elsewhere."""
    bits = np.zeros(frame.scenario.n_f, dtype=np.int64)
    bits[frame.data.start:frame.data.stop] = 1
    return bits


def _check_bits(frame: Frame, bits: np.ndarray | None) -> np.ndarray:
    if bits is None:
        return bound_bits(frame)
    n_f, data = frame.scenario.n_f, frame.data
    bits = np.asarray(bits)
    if bits.shape != (n_f,):
        raise ConfigError(
            f"bits must have one entry per PRI (n_f = {n_f}), got shape {bits.shape}"
        )
    if np.any((bits != 0) & (bits != 1)):
        raise ConfigError("bits must be binary")
    if np.any(bits[:data.start] != 0) or np.any(bits[data.stop:] != 0):
        raise ConfigError(f"bits outside the data PRIs {data} must be 0")
    return bits.astype(np.int64)


def phase_values(frame: Frame, bits: np.ndarray | None = None) -> np.ndarray:
    """Carrier phase phi_l^kappa in radians, shape (n_f, L).

    phi_l^kappa = 2 pi (f_dl * kappa * t_f - f_c * tau_l0), with the BPSK data
    rotation -xi_bpsk * q_kappa added on data PRIs.
    """
    scenario, modulation = frame.scenario, frame.modulation
    bits = _check_bits(frame, bits)
    kappa = np.arange(scenario.n_f)[:, None]
    f_d = np.array([p.f_dl for p in scenario.paths])[None, :]
    tau0 = np.array([p.tau_l0 for p in scenario.paths])[None, :]
    phi = TWO_PI * (f_d * kappa * scenario.t_f - scenario.f_c * tau0)
    if modulation.scheme == Scheme.BPSK:
        phi = phi - modulation.xi_bpsk * bits[:, None]
    return phi


def pri_delays(frame: Frame, bits: np.ndarray | None = None) -> np.ndarray:
    """Pulse position of each path in each PRI, shape (n_f, L).

    tau_l^kappa = tau_l0 + xi_ppm * q_kappa for PPM data PRIs, tau_l0 otherwise.
    """
    scenario, modulation = frame.scenario, frame.modulation
    bits = _check_bits(frame, bits)
    tau0 = np.array([p.tau_l0 for p in scenario.paths])[None, :]
    tau = np.broadcast_to(tau0, (scenario.n_f, scenario.n_paths)).copy()
    if modulation.scheme == Scheme.PPM:
        tau = tau + modulation.xi_ppm * bits[:, None].astype(float)
    return tau


# =========================================================================
# Per-slot model
# =========================================================================

# Every term of the stacked mean is amp * exp(j phi) * w(t - tau) for one
# (slot, path) pair.  The model is a (3, n_slots, L) table of those values,
# beside the frame's slot map of the same shape, naming the eta entry of each.


def _slot_table(frame: Frame, bits: np.ndarray) -> np.ndarray:
    """(tau, phi, amp) of every (slot, path) pulse at a data word.

    A differential frame's slot 0 is its reference (start-frame) pulse, at
    the path delays and carrier phase -2 pi f_c tau_l0; the last n_f slots
    are the frame's PRIs.
    """
    scenario, ref = frame.scenario, frame.ref
    tau0 = np.array([p.tau_l0 for p in scenario.paths])
    table = np.empty((3, frame.slots, scenario.n_paths))
    table[TAU, :ref] = tau0
    table[PHI, :ref] = -TWO_PI * scenario.f_c * tau0
    table[TAU, ref:] = pri_delays(frame, bits)
    table[PHI, ref:] = phase_values(frame, bits)
    table[AMP] = [p.amp for p in scenario.paths]
    return table


@functools.lru_cache(maxsize=32)
def _slot_model(frame: Frame) -> tuple[int, np.ndarray, np.ndarray]:
    """(eta size, table at the all-ones word, slot map), built once per frame.

    The arrays are shared between calls and therefore read-only.
    """
    table = _slot_table(frame, bound_bits(frame))
    table.setflags(write=False)
    return frame.eta.size, table, frame.slot_map


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


def mean_vector(scenario: ScenarioConfig, modulation: ModulationConfig,
                bits: np.ndarray | None = None) -> np.ndarray:
    """Noise-free stacked frame mean, complex ndarray of length n_slots * n_s.

    Slot ``kappa`` (or ``kappa + 1`` for differential frames, whose slot 0 is
    the unmodulated reference pulse) holds the sum over paths of the carrier-
    rotated, amplitude-scaled pulse at that PRI's path positions.
    """
    frame = Frame(scenario, modulation)
    return _evaluate(scenario, _slot_table(frame, _check_bits(frame, bits)))


def eta_point(frame: Frame) -> np.ndarray:
    """Operating value of eta at the all-ones data word, laid out by ``frame.eta``.

    For the unsplit schemes the per-path arrival time absorbs the (common)
    PPM data shift; for the pilot split the pilot and data arrival times are
    separate entries; for differential frames the reference time and each
    data-PRI arrival time are separate entries.
    """
    size, table, index = _slot_model(frame)
    eta = np.zeros(size)
    unknown = index >= 0
    eta[index[unknown]] = table[unknown]
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
    size, table, index = _slot_model(frame)
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
    size, (tau, phi, amp), index = _slot_model(Frame(scenario, modulation))
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
