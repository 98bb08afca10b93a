"""Observation-domain Fisher information: numeric probe and closed forms.

For the complex AWGN model ``r = mu(eta) + noise`` with independent real and
imaginary noise components of variance ``sigma2`` each, the Fisher
information matrix of the real parameter vector eta is

    I_eta[i, j] = Re{ (d mu / d eta_i)^H (d mu / d eta_j) } / sigma2.

Because the pulses of different PRIs occupy disjoint slots, and pulses of
different paths are kept at least 12 alpha apart, I_eta is diagonal.  Each
pulse of path l adds one pulse's worth per (slot, path) value

    lambda_tau   = (2 pi B)**2 * t_f * f_s * SNR_l      (arrival time)
    lambda_phi   =              t_f * f_s * SNR_l       (carrier phase)
    lambda_alpha =              t_f * f_s * SNR_l / amp**2   (amplitude)

to the eta entry that drives it, so an entry touched by M pulses carries
M lambda: each block of :data:`isacbounds.model.ETA_BLOCKS` is filled with
its kind's per-path lambda times the pulses of one slot it drives.  B is the
effective bandwidth and SNR_l the per-pulse received SNR of the path; the
three per-path values are the scenario record's memo
:attr:`~isacbounds.model.ScenarioConfig.per_pri_information`.  The
symmetric pulse makes the arrival-time / amplitude cross information exactly
zero, so :func:`observation_fim_analytic` returns I_eta as its diagonal, a
:class:`DiagonalMatrix` whose dense form is built only on request.

The ramp sums of the assembly (:mod:`isacbounds.bounds`) also live here: the
one statement of the sum of ``(2 pi kappa t_f)**2`` over the frame,
:func:`coeff_b_full`, and :func:`coeff_a_range`, ``2 pi kappa t_f`` over a PRI range.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    AMP,
    ETA_BLOCKS,
    TAU,
    ConfigError,
    Frame,
    ModulationConfig,
    ParamLayout,
    ScenarioConfig,
    _window_starts,
)
from .signals import eta_point, mean_from_eta

# numeric-probe guard rails: beyond this the finite-difference sweep is too
# slow to be useful and the closed forms are the intended path
MAX_FD_PARAMS = 64
MAX_FD_SAMPLES = 200_000

#: entries of two information matrices agree within this much of sqrt|d_i d_j|
AGREE_RTOL = 1e-10


# =========================================================================
# Labeled matrices and the equilibrated scale
# =========================================================================


def _equilibrated(data: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """data_ij / sqrt(d_i) / sqrt(d_j), d = ``diag``, leaving rows and columns with
    d <= 0 unscaled: one root per side, as sqrt(d_i d_j) overflows past 1e154."""
    root = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    return data / root[:, None] / root[None, :]


def _first_apart(a: np.ndarray, b: np.ndarray, diag: np.ndarray) -> tuple | None:
    """The first (i, j) where |a_ij - b_ij| > AGREE_RTOL sqrt|d_i| sqrt|d_j|, with
    that difference and sqrt|d_i d_j|, or None: exact where a diagonal entry is
    0, and NaN counts as apart."""
    root = np.sqrt(np.abs(diag))
    diff = np.abs(a - b)
    # the tolerance factor first: root_i * root_j alone can overflow
    close = diff <= (AGREE_RTOL * root)[:, None] * root[None, :]
    if close.all():
        return None
    i, j = np.argwhere(~close)[0]
    return i, j, diff[i, j], float(root[i]) * float(root[j])


def _require_finite(values: np.ndarray, labels: ParamLayout | Sequence[str]) -> None:
    """Raise ConfigError naming the first NaN or +-inf entry of a square
    matrix (2-D ``values``) or of a diagonal (1-D ``values``).

    A layout's names are read only to word the error.
    """
    bad = ~np.isfinite(values)
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        i, j = at if len(at) == 2 else at * 2
        names = labels.names if isinstance(labels, ParamLayout) else labels
        raise ConfigError(
            f"information entry ({names[i]}, {names[j]}) is {values[at]}; "
            "the configuration overflows float64"
        )


@dataclass
class LabeledMatrix:
    """Square matrix addressed by the named blocks of a ParamLayout.

    Unless M is exactly its transpose, symmetry is checked pair by pair against
    the diagonal: |M_ij - M_ji| <= AGREE_RTOL sqrt(|M_ii M_jj|), exactly where a
    diagonal entry is 0, so a skew block of small units is seen next to a block
    some orders of magnitude larger.
    """

    data: np.ndarray
    layout: ParamLayout

    def __post_init__(self):
        M, n = self.data, self.layout.size
        if M.shape != (n, n):
            raise ConfigError(f"matrix shape {M.shape} does not match layout size {n}")
        _require_finite(M, self.layout)
        if not (M == M.T).all() and (apart := _first_apart(M, M.T, M.diagonal())):
            i, j, skew, scale = apart
            names = self.layout.names
            raise ConfigError(
                f"matrix is not symmetric at ({names[i]}, {names[j]}): "
                f"|M_ij - M_ji| = {skew:.3e} vs sqrt(|M_ii M_jj|) = {scale:.3e}"
            )

    @property
    def size(self) -> int:
        return self.layout.size

    def block(self, row_name: str, col_name: str | None = None) -> np.ndarray:
        """View of the (row_name, col_name) block; col defaults to row."""
        r = self.layout.block_slice(row_name)
        c = self.layout.block_slice(col_name if col_name is not None else row_name)
        return self.data[r, c]


@dataclass
class DiagonalMatrix:
    """Diagonal square matrix addressed by the named blocks of a ParamLayout.

    Only the diagonal is stored.  ``data``, the dense matrix, is built on
    first access and cached; a diagonal matrix is symmetric by construction,
    so only the shape and finiteness of ``diag`` are checked.
    """

    diag: np.ndarray
    layout: ParamLayout

    def __post_init__(self):
        n = self.layout.size
        if self.diag.shape != (n,):
            raise ConfigError(
                f"diagonal shape {self.diag.shape} does not match layout size {n}"
            )
        _require_finite(self.diag, self.layout)

    @property
    def size(self) -> int:
        return self.layout.size

    @cached_property
    def data(self) -> np.ndarray:
        return np.diag(self.diag)

    def block(self, row_name: str, col_name: str | None = None) -> np.ndarray:
        """The (row_name, col_name) block as a new array; col defaults to row."""
        r = self.layout.block_slice(row_name)
        c = self.layout.block_slice(col_name if col_name is not None else row_name)
        out = np.zeros((r.stop - r.start, c.stop - c.start))
        k = np.arange(max(r.start, c.start), min(r.stop, c.stop))
        out[k - r.start, k - c.start] = self.diag[k]
        return out


# =========================================================================
# Frame-phase ramp coefficients
# =========================================================================


def squares_below(n_f: int) -> int:
    """Sum of kappa**2 over kappa < n_f, exactly: n (n-1) (2n-1) / 6."""
    return n_f * (n_f - 1) * (2 * n_f - 1) // 6


def coeff_b_full(t_f: float, n_f: int) -> float:
    """Sum of (2 pi kappa t_f)**2 over kappa < n_f, for the closed form and the
    differential product: (2 pi t_f)**2 times :func:`squares_below`, that
    integer scaled by 2**-shift while it meets (2 pi t_f)**2; inf past float64."""
    squares = squares_below(n_f)
    shift = max(0, squares.bit_length() - 1000)  # squares / 2**shift is a float
    slope = 2.0 * math.pi * t_f
    try:
        return math.ldexp(slope * slope * (squares / (1 << shift)), shift)
    except OverflowError:
        return math.inf


def coeff_a_range(t_f: float, start: int, count: int) -> float:
    """Slope sum over kappa = start .. start+count-1: pi t_f count (2 start + count - 1)."""
    return math.pi * t_f * count * (2 * start + count - 1)


# =========================================================================
# Analytic observation FIM
# =========================================================================


def observation_fim_analytic(scenario: ScenarioConfig,
                             modulation: ModulationConfig) -> DiagonalMatrix:
    """Closed-form I_eta for the given scenario/modulation pair, as its diagonal.

    Every (slot, path) pulse gives one pulse's lambda (the scenario's
    ``per_pri_information``) to the eta entry that drives its delay, phase or
    amplitude, so each block of :data:`~isacbounds.model.ETA_BLOCKS` is filled
    with its kind's lambda times the pulses of one slot it drives:
    ``p_pilots`` before the split, or ``modulation.sfd_weight`` for the
    differential reference; the slots from the split on after it; 1 in each
    per-PRI block.  Slots are disjoint and paths are >= 12 alpha apart (a
    ScenarioConfig invariant), so the matrix is exactly diagonal: it is
    returned as a :class:`DiagonalMatrix`, and its dense n_eta x n_eta form
    is built only when ``.data`` is read.  A weight that overflows the
    reference information raises ConfigError.
    """
    frame = Frame(scenario, modulation)
    lam = scenario.per_pri_information
    # per kind of slot set: the pulses one entry counts, and the rows of L
    # entries a block holds (the same sets as Frame.slot_map)
    sets = ((modulation.p_pilots + frame.ref * modulation.sfd_weight, 1),
            (frame.slots - frame.split, 1), (1, scenario.n_f))
    diag = np.empty(frame.eta.size)
    grid, row = diag.reshape(-1, scenario.n_paths), 0
    with np.errstate(over="ignore"):  # DiagonalMatrix refuses an inf entry
        for _, kind, drives, _ in ETA_BLOCKS[modulation.decoupling]:
            pulses, rows = sets[drives]
            grid[row:row + rows] = lam[kind] * pulses
            row += rows
    return DiagonalMatrix(diag, frame.eta)


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


def _probe_ranges(scenario: ScenarioConfig, index: np.ndarray,
                  eta0: np.ndarray, h: np.ndarray) -> tuple[list[int], list[int]]:
    """Per slot, the sample range [lo, hi) outside which every evaluation of
    the probe is an exact zero.

    The probe places each pulse at its eta0 arrival time (each one an entry
    of the slot map ``index``), or that time +- h on the delay entry it
    perturbs; the range is the union of the pulse windows of
    :func:`isacbounds.model._pulse_window` at all of those centers.
    """
    tau = index[TAU]
    center, step = eta0[tau], h[tau]
    centers = np.stack([center, center + step, center - step], axis=-1)
    firsts, width = _window_starts(scenario.pulse, centers, scenario)
    firsts = np.reshape(firsts, (tau.shape[0], -1))
    return firsts.min(axis=1).tolist(), (firsts.max(axis=1) + width).tolist()


def observation_fim_numeric(scenario: ScenarioConfig, modulation: ModulationConfig,
                            steps: FdSteps = DEFAULT_FD) -> LabeledMatrix:
    """I_eta via central differences of the mean vector.

    Independent of the closed forms (the mean is re-evaluated at shifted
    parameter values); used to cross-check the analytic path.  The frame's
    slot map gives each entry's step (by its kind: delay, phase or
    amplitude) and the slots it drives.  Only those slots are
    re-evaluated: the others cancel exactly in the difference.  Slots occupy
    disjoint samples, so I_eta is the sum over slots of the Gram block
    Re(B_s^H B_s) / sigma2 of the columns B_s of the entries slot s touches.
    Each slot is evaluated once, by one stacked :func:`mean_from_eta` call
    over the up and down points of all of its entries, which share one pulse
    window per distinct center.  Its differences and Gram block are formed
    over one sample range, the union of the pulse windows at every center
    the probe evaluates there (:func:`_probe_ranges`); outside it both
    evaluations are exact zeros.
    An entry that no slot names (the data arrival times and amplitudes of
    an all-pilot split) gets no step and carries a zero row and column, as
    in :func:`observation_fim_analytic`; the wiped-diagonal check covers
    only the named entries.
    Guarded to ``MAX_FD_PARAMS`` parameters and ``MAX_FD_SAMPLES`` stacked
    samples.
    """
    frame = Frame(scenario, modulation)
    layout = frame.eta
    if layout.size > MAX_FD_PARAMS:
        raise ConfigError(
            f"numeric probe limited to {MAX_FD_PARAMS} parameters, "
            f"layout has {layout.size}"
        )
    total = frame.slots * scenario.n_s
    if total > MAX_FD_SAMPLES:
        raise ConfigError(
            f"numeric probe limited to {MAX_FD_SAMPLES} samples, frame has {total}"
        )

    size, index = layout.size, frame.slot_map
    known = index >= 0
    # an entry that no slot names (tau_d, amp_d of an all-pilot split) gets no
    # step, no slot, and a zero row and column
    named = np.zeros(size, dtype=bool)
    named[index[known]] = True
    eta0 = eta_point(frame)
    h = np.zeros(size)
    for rows, step in zip(index, (steps.delay, steps.phase, steps.amp_rel)):
        h[rows[rows >= 0]] = step
    amp = index[AMP][known[AMP]]
    h[amp] *= np.abs(eta0[amp])  # relative amplitude steps
    bad = np.flatnonzero(named & ~(np.isfinite(h) & (h > 0.0)))
    if bad.size:
        raise ConfigError(f"finite-difference step for {layout.names[bad[0]]!r} is "
                          f"{float(h[bad[0]])}; it must be finite and > 0")
    lo, hi = _probe_ranges(scenario, index, eta0, h)

    # Re(B_s^H B_s) as one real product over the interleaved (re, im) samples
    M = np.zeros((size, size))
    for s in range(frame.slots):
        entries = index[:, s][known[:, s]]  # ascending: delays, phases, amplitudes
        m, rows = entries.size, np.arange(entries.size)
        # eta0 + h_i e_i, then eta0 - h_i e_i, for every entry i slot s drives
        points = np.repeat(eta0[None, :], 2 * m, axis=0)
        points[rows, entries] += h[entries]
        points[rows + m, entries] -= h[entries]
        mu = mean_from_eta(frame, points, [s])[:, lo[s]:hi[s]]
        # times 1 / (2h): the bits numpy's complex-by-real division gives
        flat = (mu[:m] - mu[m:]).view(np.float64) * (1.0 / (2.0 * h[entries]))[:, None]
        M[np.ix_(entries, entries)] += flat @ flat.T
    M /= scenario.sigma2
    M = 0.5 * (M + M.T)
    wiped = np.flatnonzero(named & (M.diagonal() <= 0.0))
    if wiped.size:
        bad = [layout.names[i] for i in wiped]
        raise ConfigError(
            f"finite-difference step wiped out the diagonal for {bad}: a step below "
            "the float spacing of its entry moves nothing; raise the step sizes"
        )
    return LabeledMatrix(M, layout)
