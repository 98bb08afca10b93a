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

to the eta entry that the per-slot map of :mod:`isacbounds.signals` names
for it, so an entry touched by M pulses carries M lambda.  B is the effective
bandwidth and SNR_l the per-pulse received SNR of the path.  The symmetric
pulse makes the arrival-time / amplitude cross information exactly zero.
:func:`observation_fim_analytic` therefore returns I_eta as its diagonal, a
:class:`DiagonalMatrix`, whose dense form is built only on request.

The closed-form ramp sums of the assembly (:mod:`isacbounds.bounds`) also
live here: :func:`coeff_b_full` sums ``(2 pi kappa t_f)**2`` over the frame
and :func:`coeff_a_range` sums ``2 pi kappa t_f`` over a PRI range.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .model import (
    ConfigError,
    ModulationConfig,
    ParamLayout,
    SUPPORT_SIGMAS,
    ScenarioConfig,
    UndersampledPulseError,
    effective_bandwidth,
    eta_layout_for,
    sample_pulse,
)
from .signals import _AMP, _TAU, _slot_model, eta_point, mean_from_eta, n_slots

# numeric-probe guard rails: beyond this the finite-difference sweep is too
# slow to be useful and the closed forms are the intended path
MAX_FD_PARAMS = 64
MAX_FD_SAMPLES = 200_000

SYMMETRY_RTOL = 1e-10


# =========================================================================
# Labeled matrices
# =========================================================================


def _require_finite(values: np.ndarray, labels: ParamLayout | Sequence[str]) -> None:
    """Raise ConfigError naming the first NaN or +-inf entry of a square
    matrix (2-D ``values``) or of a diagonal (1-D ``values``).

    A layout's names are read only to word the error.
    """
    bad = ~np.isfinite(values)
    if np.any(bad):
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

    Symmetry is checked pair by pair against the diagonal:
    |M_ij - M_ji| <= SYMMETRY_RTOL sqrt(|M_ii M_jj|), exactly where a
    diagonal entry is 0, so a skew block of small units is seen next to a
    block some orders of magnitude larger.
    """

    data: np.ndarray
    layout: ParamLayout

    def __post_init__(self):
        n = self.layout.size
        if self.data.shape != (n, n):
            raise ConfigError(
                f"matrix shape {self.data.shape} does not match layout size {n}"
            )
        _require_finite(self.data, self.layout)
        root = np.sqrt(np.abs(np.diag(self.data)))
        skew = np.abs(self.data - self.data.T)
        # the tolerance factor first: root_i * root_j alone can overflow
        bad = skew > (SYMMETRY_RTOL * root)[:, None] * root[None, :]
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            names = self.layout.names
            raise ConfigError(
                f"matrix is not symmetric at ({names[i]}, {names[j]}): "
                f"|M_ij - M_ji| = {skew[i, j]:.3e} vs "
                f"sqrt(|M_ii M_jj|) = {float(root[i]) * float(root[j]):.3e}"
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


def coeff_b_full(t_f: float, n_f: int) -> float:
    """Sum of (2 pi kappa t_f)**2 over kappa < n_f: (2 pi t_f)**2 n (n-1) (2n-1) / 6."""
    return (2.0 * math.pi * t_f) ** 2 * n_f * (n_f - 1) * (2 * n_f - 1) / 6.0


def coeff_a_range(t_f: float, start: int, count: int) -> float:
    """Slope sum over kappa = start .. start+count-1: pi t_f count (2 start + count - 1)."""
    return math.pi * t_f * count * (2 * start + count - 1)


# =========================================================================
# Closed-form per-path information
# =========================================================================


#: largest relative error of the sampled pulse energy sum(w**2)/f_s (against
#: 1) and derivative energy sum(w'**2)/f_s (against (2 pi B)**2) at which the
#: closed forms are used
SAMPLING_RTOL = 1e-2


def per_pri_information(scenario: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda_tau, lambda_phi, lambda_alpha) of a single PRI, per path.

    Raises UndersampledPulseError when, for any path, the sampled pulse
    energy or derivative energy misses its closed form by more than
    ``SAMPLING_RTOL``: the closed forms then overstate the information.
    Raises ConfigError unless every value is finite and at least the
    smallest normal float: an amplitude whose square over- or underflows has
    no usable information.

    The arrays are read-only: the last scenario's values are kept, so the
    product and closed-form sides of one report sample the pulses once.
    """
    return _per_pri_information(scenario)


@lru_cache(maxsize=1)
def _per_pri_information(
        scenario: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pulse, f_s = scenario.pulse, scenario.f_s
    half = SUPPORT_SIGMAS * pulse.alpha
    energy = np.empty(scenario.n_paths)
    slope_energy = np.empty(scenario.n_paths)  # alpha**4 sum(w'**2) / f_s
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # one path at a time: a (L, n_s) sampling is slower at 10^4 samples
        for l, path in enumerate(scenario.paths):
            w = sample_pulse(pulse, path.tau_l0, scenario)
            energy[l] = np.dot(w, w) / f_s  # as received_snr forms it
            # w' = -(t - tau) / alpha**2 * w, summed over the +-6 alpha support
            lo = max(0, math.ceil((path.tau_l0 - half) * f_s))
            hi = min(scenario.n_s, math.floor((path.tau_l0 + half) * f_s) + 1)
            uw = (np.arange(lo, hi) / f_s - path.tau_l0) * w[lo:hi]
            slope_energy[l] = np.dot(uw, uw) / f_s
        # (2 pi B)**2 = 1 / (2 alpha**2) for the Gaussian pulse
        error = np.maximum(np.abs(energy - 1.0),
                           np.abs(2.0 * slope_energy / pulse.alpha ** 2 - 1.0))
    if not np.all(error <= SAMPLING_RTOL):  # NaN counts as a failure
        raise UndersampledPulseError(
            f"the sampled pulse and derivative energies miss their closed forms by "
            f"up to {np.max(error):.3g} (tolerance {SAMPLING_RTOL:g}) at "
            f"alpha * f_s = {pulse.alpha * f_s:.3g}; raise f_s or widen the pulse"
        )
    bw2 = (2.0 * math.pi * effective_bandwidth(pulse)) ** 2
    amps = np.array([p.amp for p in scenario.paths])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        snr = amps * amps * energy / (scenario.t_f * scenario.sigma2)
        base = scenario.t_f * f_s * snr
        lams = bw2 * base, base, base / (amps * amps)
    tiny = np.finfo(float).tiny
    if not all(np.all(np.isfinite(v) & (v >= tiny)) for v in lams):
        raise ConfigError(
            f"per-PRI information is not finite and normal at per-pulse SNR "
            f"{snr.tolist()}; the path amplitudes are out of range"
        )
    for values in lams:
        values.setflags(write=False)
    return lams


# =========================================================================
# Analytic observation FIM
# =========================================================================


def observation_fim_analytic(scenario: ScenarioConfig,
                             modulation: ModulationConfig) -> DiagonalMatrix:
    """Closed-form I_eta for the given scenario/modulation pair, as its diagonal.

    Every (slot, path) pulse gives one pulse's lambda to the eta entry that
    the per-slot map of :mod:`isacbounds.signals` names for its delay, phase
    and amplitude; the differential reference pulse counts
    ``modulation.sfd_weight`` pulses on its delay.  Slots are disjoint and
    paths are >= 12 alpha apart (a ScenarioConfig invariant), so the matrix is
    exactly diagonal: it is returned as a :class:`DiagonalMatrix`, and its
    dense n_eta x n_eta form is built only when ``.data`` is read.  A weight
    that overflows the reference information raises ConfigError.
    """
    layout = eta_layout_for(scenario, modulation)
    size, _, index = _slot_model(scenario, modulation)
    lam = np.empty(index.shape)
    lam[:] = np.array(per_pri_information(scenario))[:, None, :]
    known = index >= 0
    diag = np.zeros(size)
    with np.errstate(over="ignore"):  # DiagonalMatrix refuses an inf entry
        lam[_TAU, :index.shape[1] - scenario.n_f] *= modulation.sfd_weight  # reference
        # every pulse of an entry carries the same lambda: write it once and
        # count the pulses, so n_f * lambda is formed exactly as a product
        diag[index[known]] = lam[known]
        diag *= np.bincount(index[known], minlength=size)
    return DiagonalMatrix(diag, layout)


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


def observation_fim_numeric(scenario: ScenarioConfig, modulation: ModulationConfig,
                            steps: FdSteps = DEFAULT_FD) -> LabeledMatrix:
    """I_eta via central differences of the mean vector.

    Independent of the closed forms (the mean is re-evaluated at shifted
    parameter values); used to cross-check the analytic path.  The per-slot
    map of :mod:`isacbounds.signals` gives each entry's step (by its kind:
    delay, phase or amplitude) and the slots it drives.  Only those slots are
    re-evaluated: the others cancel exactly in the difference.  Slots occupy
    disjoint samples, so I_eta is the sum over slots of the Gram block
    Re(B_s^H B_s) / sigma2 of the columns B_s of the entries slot s touches.
    Guarded to ``MAX_FD_PARAMS`` parameters and ``MAX_FD_SAMPLES`` stacked
    samples.
    """
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

    size, _, index = _slot_model(scenario, modulation)
    known = index >= 0
    which, slot, _ = np.nonzero(known)
    kind = np.empty(size, dtype=np.intp)
    kind[index[known]] = which
    drives = np.zeros((size, index.shape[1]), dtype=bool)  # entry -> its slots
    drives[index[known], slot] = True
    eta0 = eta_point(scenario, modulation)
    h = np.array([steps.delay, steps.phase, steps.amp_rel])[kind]
    h[kind == _AMP] *= np.abs(eta0[kind == _AMP])  # relative amplitude steps
    pieces = []  # entry i's column, one row of n_s samples per slot it drives
    for i, name in enumerate(layout.names):
        if not h[i] > 0.0:
            raise ConfigError(f"finite-difference step for {name!r} is not positive")
        up = eta0.copy()
        dn = eta0.copy()
        up[i] += h[i]
        dn[i] -= h[i]
        slots = np.flatnonzero(drives[i])
        diff = (mean_from_eta(scenario, modulation, up, slots)
                - mean_from_eta(scenario, modulation, dn, slots)) / (2.0 * h[i])
        pieces.append(diff.reshape(slots.size, scenario.n_s))

    # Re(B_s^H B_s) as one real product over the interleaved (re, im) samples
    row = np.cumsum(drives, axis=1) - 1  # row of slot s in pieces[i]
    M = np.zeros((size, size))
    for s in range(index.shape[1]):
        entries = np.flatnonzero(drives[:, s])
        flat = np.stack([pieces[i][row[i, s]] for i in entries]).view(np.float64)
        M[np.ix_(entries, entries)] += flat @ flat.T
    M /= scenario.sigma2
    M = 0.5 * (M + M.T)
    if np.any(np.diag(M) <= 0.0):
        bad = [layout.names[i] for i in np.flatnonzero(np.diag(M) <= 0.0)]
        raise ConfigError(
            f"finite-difference step wiped out the diagonal for {bad}; "
            "reduce the step sizes"
        )
    return LabeledMatrix(M, layout)
