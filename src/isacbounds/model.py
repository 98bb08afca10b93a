"""Physical-layer model for an impulse-radio UWB joint ranging/communication link.

This module holds the configuration records (pulse shape, propagation paths,
frame scenario, modulation choice), the parameter-vector layouts used by the
information-matrix machinery, and the handful of scalar quantities that the
rest of the package is expressed in: effective bandwidth, per-pulse received
SNR and the regulatory energy budget.

Conventions used throughout the package:
  * all quantities are SI (seconds, Hz, joules); helper parsing for unit
    suffixes lives in the CLI layer only,
  * the transmitted pulse is an energy-normalized Gaussian with RMS width
    ``alpha``; its amplitude spectrum is Gaussian as well, which makes the
    effective (RMS) bandwidth available in closed form,
  * one frame = ``n_f`` pulse repetition intervals (PRIs) of length ``t_f``;
    pulse ``kappa`` lives in slot ``kappa`` (``kappa = 0 .. n_f-1``),
  * noise is circularly-symmetric complex AWGN; ``sigma2`` is the variance of
    each real component per complex sample (the information matrices in
    :mod:`isacbounds.fim` are normalized by this quantity).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType

import numpy as np

# =========================================================================
# Constants
# =========================================================================

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: Half-width of the pulse support, in units of alpha.  Outside +-6 alpha the
#: Gaussian tail is below 2e-8 of the peak, so clipping there is harmless for
#: every tolerance used in this package.
SUPPORT_SIGMAS = 6.0

#: Half-width, in units of alpha, beyond which the sampled Gaussian is an
#: exact zero: exp(-40**2 / 2) underflows to 0.0 in float64.
UNDERFLOW_SIGMAS = 40.0

#: UWB regulatory energy budget: at most 37 nJ transmitted per 1 ms window.
REG_ENERGY_LIMIT_J = 37e-9
REG_WINDOW_S = 1e-3

#: Minimum -10 dB bandwidth for a signal to count as UWB (informational).
UWB_MIN_BANDWIDTH_HZ = 500e6


class ConfigError(ValueError):
    """A configuration record violates one of its invariants."""


class LeakageError(ConfigError):
    """A pulse support (delay +- 6 alpha, plus modulation shift) exits its PRI."""


class UndersampledPulseError(ConfigError):
    """The sample grid is too coarse for the pulse; the closed forms do not hold."""


def _require_finite(record: str, **values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{record} {name} must be finite, got {value}")


# =========================================================================
# Configuration records
# =========================================================================


@dataclass(frozen=True)
class PulseShape:
    """Energy-normalized Gaussian monocycle envelope.

    w(t) = (1 / (alpha sqrt(pi)))**(1/2) * exp(-t**2 / (2 alpha**2))

    Attributes
    ----------
    alpha : float
        RMS pulse width in seconds (Table-like default 0.2 ns).
    e_tb : float
        Transmitted energy per pulse in joules, used only by the regulatory
        check; the estimation bounds are expressed through received SNR.
    """

    alpha: float = 0.2e-9
    e_tb: float = 3.7e-12

    def __post_init__(self):
        _require_finite("pulse", alpha=self.alpha, e_tb=self.e_tb)
        if not self.alpha > 0.0:
            raise ConfigError(f"pulse alpha must be > 0, got {self.alpha}")
        if not self.e_tb > 0.0:
            raise ConfigError(f"pulse energy e_tb must be > 0, got {self.e_tb}")

    def peak(self) -> float:
        """Peak value w(0) = (alpha sqrt(pi))**(-1/2)."""
        return (self.alpha * math.sqrt(math.pi)) ** -0.5


@dataclass(frozen=True)
class PathState:
    """One resolvable propagation path.

    Attributes
    ----------
    tau_l0 : float
        Path delay at the start of the frame, seconds.
    f_dl : float
        Doppler shift of the path, Hz.
    amp : float
        Real received amplitude (> 0); ``amp**2 / (t_f sigma2)`` is the
        per-pulse received SNR of the path.
    """

    tau_l0: float
    f_dl: float = 0.0
    amp: float = 1.0

    def __post_init__(self):
        _require_finite("path", tau_l0=self.tau_l0, f_dl=self.f_dl, amp=self.amp)
        if not self.amp > 0.0:
            raise ConfigError(f"path amplitude must be > 0, got {self.amp}")
        if not self.tau_l0 >= 0.0:
            raise ConfigError(f"path delay must be >= 0, got {self.tau_l0}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Frame-level scenario: carrier, PRI grid, noise level and paths.

    Attributes
    ----------
    f_c : float   carrier frequency, Hz
    t_f : float   PRI duration, seconds
    n_f : int     pulses per frame
    f_s : float   complex sampling rate, Hz
    sigma2 : float  noise variance per real component of each complex sample
    paths : tuple[PathState, ...]   resolvable paths, delays strictly increasing
    pulse : PulseShape
    """

    f_c: float
    t_f: float
    n_f: int
    f_s: float
    sigma2: float
    paths: tuple[PathState, ...]
    pulse: PulseShape = field(default_factory=PulseShape)

    def __post_init__(self):
        _require_finite("scenario", f_c=self.f_c, t_f=self.t_f, f_s=self.f_s,
                        sigma2=self.sigma2)
        # a tuple keeps the record hashable (signals caches per scenario)
        object.__setattr__(self, "paths", tuple(self.paths))
        if not self.t_f > 0.0:
            raise ConfigError(f"t_f must be > 0, got {self.t_f}")
        if not (isinstance(self.n_f, int) and self.n_f >= 1):
            raise ConfigError(f"n_f must be an integer >= 1, got {self.n_f!r}")
        if not self.f_s > 0.0:
            raise ConfigError(f"f_s must be > 0, got {self.f_s}")
        if not self.sigma2 > 0.0:
            raise ConfigError(f"sigma2 must be > 0, got {self.sigma2}")
        if not self.f_c >= 0.0:
            raise ConfigError(f"f_c must be >= 0, got {self.f_c}")
        if len(self.paths) < 1:
            raise ConfigError("at least one path is required")
        if self.n_s < 2:
            raise ConfigError("t_f * f_s must give at least 2 samples per PRI")
        half = SUPPORT_SIGMAS * self.pulse.alpha
        taus = [p.tau_l0 for p in self.paths]
        if any(t2 <= t1 for t1, t2 in zip(taus, taus[1:])):
            raise ConfigError("path delays must be strictly increasing")
        for t1, t2 in zip(taus, taus[1:]):
            if t2 - t1 < 2.0 * half:
                raise ConfigError(
                    f"paths at {t1} s and {t2} s are closer than the "
                    f"{2 * half} s resolvability separation (2 x {SUPPORT_SIGMAS} alpha)"
                )
        for t in taus:
            if t - half < 0.0 or t + half >= self.t_f:
                raise LeakageError(
                    f"path delay {t} s places the +-{SUPPORT_SIGMAS} alpha pulse "
                    f"support outside the PRI [0, {self.t_f}) s"
                )

    # -- derived sizes -----------------------------------------------------

    @property
    def n_s(self) -> int:
        """Samples per PRI (round(t_f * f_s))."""
        return int(round(self.t_f * self.f_s))

    @property
    def n_paths(self) -> int:
        return len(self.paths)


class Scheme(str, Enum):
    """Per-pulse modulation of the data PRIs."""

    SENSING = "sensing"   # no data modulation at all
    PPM = "ppm"           # data shifts the pulse position by xi_ppm * bit
    BPSK = "bpsk"         # data rotates the pulse phase by xi_bpsk * bit


class Decoupling(str, Enum):
    """Frame-level strategy for separating data from the sensing parameters."""

    NONE = "none"
    PILOT = "pilot"                 # p_pilots unmodulated PRIs, then d_data data PRIs
    DIFFERENTIAL = "differential"   # extra start-frame reference pulse, PPM only


@dataclass(frozen=True)
class ModulationConfig:
    """Modulation scheme, frame split and decoupling strategy.

    ``p_pilots + d_data`` must equal the scenario ``n_f`` whenever the frame is
    split (checked by :func:`validate_modulation`, which needs the scenario).
    For ``decoupling = NONE`` or ``DIFFERENTIAL`` every PRI carries data.
    ``sfd_weight`` is the arrival-time information of the differential
    reference (start-of-frame) pulse in units of one data pulse (1.0 = one
    pulse's worth); only differential frames read it, as only PPM frames read
    ``xi_ppm``.
    """

    scheme: Scheme = Scheme.SENSING
    decoupling: Decoupling = Decoupling.NONE
    xi_ppm: float = 2.0e-9
    xi_bpsk: float = math.pi
    p_pilots: int = 0
    d_data: int = 0
    sfd_weight: float = 1.0

    def __post_init__(self):
        # accept plain strings for the two enums
        try:
            object.__setattr__(self, "scheme", Scheme(self.scheme))
            object.__setattr__(self, "decoupling", Decoupling(self.decoupling))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        _require_finite("modulation", xi_ppm=self.xi_ppm, xi_bpsk=self.xi_bpsk,
                        sfd_weight=self.sfd_weight)
        if not self.sfd_weight > 0.0:
            raise ConfigError(f"sfd_weight must be > 0, got {self.sfd_weight}")
        if self.scheme == Scheme.SENSING:
            if self.decoupling != Decoupling.NONE:
                raise ConfigError("sensing-only frames take no decoupling strategy")
            if self.p_pilots != 0 or self.d_data != 0:
                raise ConfigError("sensing-only frames have no pilot/data split")
        if self.decoupling == Decoupling.DIFFERENTIAL and self.scheme != Scheme.PPM:
            raise ConfigError("differential decoupling is defined for PPM only")
        if self.p_pilots < 0 or self.d_data < 0:
            raise ConfigError("p_pilots and d_data must be >= 0")
        if self.decoupling == Decoupling.PILOT and self.p_pilots < 1:
            raise ConfigError("pilot decoupling needs at least one pilot PRI")
        if self.scheme == Scheme.PPM and not self.xi_ppm > 0.0:
            raise ConfigError(f"xi_ppm must be > 0 for PPM, got {self.xi_ppm}")
        if self.scheme == Scheme.BPSK and self.xi_bpsk == 0.0:
            raise ConfigError("xi_bpsk must be nonzero for BPSK")


def validate_modulation(scenario: ScenarioConfig, modulation: ModulationConfig) -> None:
    """Check the frame split and modulation shifts against a scenario.

    Raises ConfigError / LeakageError on inconsistency; returns None when the
    pair is usable by the information-matrix pipeline.
    """
    n_f = scenario.n_f
    if modulation.scheme == Scheme.SENSING:
        pass
    elif modulation.decoupling == Decoupling.PILOT:
        if modulation.p_pilots + modulation.d_data != n_f:
            raise ConfigError(
                f"pilot split {modulation.p_pilots}+{modulation.d_data} "
                f"does not cover the frame (n_f = {n_f})"
            )
    else:  # NONE or DIFFERENTIAL with a data scheme: every PRI carries data
        if modulation.p_pilots != 0:
            raise ConfigError("p_pilots must be 0 unless decoupling = pilot")
        if modulation.d_data not in (0, n_f):
            raise ConfigError(
                f"without a pilot split d_data must be 0 or n_f = {n_f}, "
                f"got {modulation.d_data}"
            )
    if modulation.scheme == Scheme.PPM:
        half = SUPPORT_SIGMAS * scenario.pulse.alpha
        worst = max(p.tau_l0 for p in scenario.paths) + modulation.xi_ppm
        if worst + half >= scenario.t_f:
            raise LeakageError(
                f"PPM shift xi_ppm = {modulation.xi_ppm} s pushes the latest "
                f"path support past the PRI boundary {scenario.t_f} s"
            )


# =========================================================================
# Parameter layouts
# =========================================================================


@dataclass(frozen=True)
class Block:
    """One block of ``width`` entries named ``name_first`` .. ``name_{first+width-1}``.

    With ``first=None`` the block has one entry, named like the block.
    """

    name: str
    width: int
    first: int | None = 1

    def entry_names(self) -> list[str]:
        if self.first is None:
            return [self.name]
        return [f"{self.name}_{l}" for l in range(self.first, self.first + self.width)]


@dataclass(frozen=True)
class PerPri:
    """``count`` PRIs; PRI k holds the block ``prefix_k`` of ``width`` entries
    ``prefix_k_l`` (l = 1..width); ``aggregate``, if given, spans the whole run.
    """

    prefix: str
    count: int
    width: int
    aggregate: str | None = None

    @property
    def size(self) -> int:
        return self.count * self.width


@dataclass(frozen=True)
class ParamLayout:
    """Ordered real parameter vector with named blocks.

    The vector is ``segments`` laid end to end: :class:`Block` and
    :class:`PerPri` runs.  ``spans`` adds aggregate blocks, each from the
    start of one named block to the end of another.  Block ranges are
    half-open index ranges (start, stop) and may overlap, so that both
    aggregate blocks (e.g. ``"phi"``) and per-PRI sub-blocks (e.g.
    ``"phi_3"``) are addressable.

    ``size`` and the bounds of every :class:`Block`, run aggregate and span
    are computed at construction, by arithmetic over the segments.  The
    per-entry ``names`` and the per-PRI sub-blocks, O(n_f) of each, are built
    on first read only and then kept: the information-matrix pipeline reads
    names only to word an error.
    """

    segments: tuple[Block | PerPri, ...]
    spans: tuple[tuple[str, str, str], ...] = ()
    size: int = field(init=False, repr=False, compare=False)
    _bounds: dict[str, tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bounds: dict[str, tuple[int, int]] = {}
        lo = 0
        for seg in self.segments:
            if isinstance(seg, Block):
                bounds[seg.name] = (lo, lo + seg.width)
                lo += seg.width
            else:
                if seg.aggregate is not None:
                    bounds[seg.aggregate] = (lo, lo + seg.size)
                lo += seg.size
        for name, first, last in self.spans:
            bounds[name] = (bounds[first][0], bounds[last][1])
        object.__setattr__(self, "size", lo)
        object.__setattr__(self, "_bounds", bounds)

    @cached_property
    def names(self) -> tuple[str, ...]:
        """One label per scalar entry."""
        names: list[str] = []
        for seg in self.segments:
            if isinstance(seg, Block):
                names += seg.entry_names()
            else:
                names += [f"{seg.prefix}_{k}_{l}" for k in range(seg.count)
                          for l in range(1, seg.width + 1)]
        return tuple(names)

    @cached_property
    def block_bounds(self) -> Mapping[str, tuple[int, int]]:
        """Every block name -> (start, stop), per-PRI sub-blocks included."""
        bounds: dict[str, tuple[int, int]] = {}
        lo = 0
        for seg in self.segments:
            if isinstance(seg, Block):
                bounds[seg.name] = (lo, lo + seg.width)
                lo += seg.width
                continue
            for k in range(seg.count):
                bounds[f"{seg.prefix}_{k}"] = (lo, lo + seg.width)
                lo += seg.width
        bounds.update(self._bounds)  # aggregates last
        return MappingProxyType(bounds)

    def block(self, name: str) -> tuple[int, int]:
        bounds = self._bounds.get(name)
        if bounds is None:
            bounds = self.block_bounds.get(name)
        if bounds is None:
            raise KeyError(
                f"unknown block {name!r}; available: {sorted(self.block_bounds)}"
            )
        return bounds

    def block_slice(self, name: str) -> slice:
        lo, hi = self.block(name)
        return slice(lo, hi)

    def block_size(self, name: str) -> int:
        lo, hi = self.block(name)
        return hi - lo


def theta_layout(scheme: Scheme, n_paths: int) -> ParamLayout:
    """Layout of the physical parameter vector theta.

    Order (L = n_paths):
      * sensing:  [tau1, dtau (L-1), fd1, dfd (L-1), amp (L)]
      * ppm:      [tau1, dtau, dtau_q, fd1, dfd, amp]
      * bpsk:     [tau1, dtau, fd1, dfd, phi_bpsk, amp]

    ``dtau``/``dfd`` are the delay/Doppler offsets of paths 2..L relative to
    path 1; ``dtau_q`` is the common PPM data shift; ``phi_bpsk`` the common
    BPSK data phase.  The aggregate block ``"delay"`` spans tau1 + dtau (+
    dtau_q for PPM), the block ``"doppler"`` spans fd1 + dfd.
    """
    offsets = n_paths - 1
    segments = [Block("tau1", 1, None), Block("dtau", offsets, 2)]
    if scheme == Scheme.PPM:
        segments.append(Block("dtau_q", 1, None))
    segments += [Block("fd1", 1, None), Block("dfd", offsets, 2)]
    if scheme == Scheme.BPSK:
        segments.append(Block("phi_bpsk", 1, None))
    segments.append(Block("amp", n_paths))
    delay_end = "dtau_q" if scheme == Scheme.PPM else "dtau"
    return ParamLayout(tuple(segments),
                       (("delay", "tau1", delay_end), ("doppler", "fd1", "dfd")))


def eta_layout(scheme: Scheme, decoupling: Decoupling, n_paths: int, n_f: int,
               p_pilots: int = 0, d_data: int = 0) -> ParamLayout:
    """Layout of the observation-domain parameter vector eta.

    Order (L = n_paths, per-PRI blocks are PRI-major / path-minor):
      * no split:      [tau (L), phi per PRI (n_f x L), amp (L)]
      * pilot split:   [tau_p (L), tau_d (L), phi per PRI ((P+D) x L),
                        amp_p (L), amp_d (L)]
      * differential:  [t_ref (L), t per data PRI (n_f x L),
                        phi per data PRI (n_f x L), amp (L)]

    Every per-PRI group also gets its own sub-block (``phi_k``, ``t_k``); the
    aggregate ``"phi"`` spans the phases and, in a differential frame,
    ``"t_abs"`` the per-PRI arrival times.
    """
    L = n_paths
    if scheme != Scheme.SENSING and decoupling == Decoupling.PILOT:
        segments = (Block("tau_p", L), Block("tau_d", L),
                    PerPri("phi", p_pilots + d_data, L, "phi"),
                    Block("amp_p", L), Block("amp_d", L))
    elif scheme == Scheme.PPM and decoupling == Decoupling.DIFFERENTIAL:
        segments = (Block("t_ref", L), PerPri("t", n_f, L, "t_abs"),
                    PerPri("phi", n_f, L, "phi"), Block("amp", L))
    else:
        segments = (Block("tau", L), PerPri("phi", n_f, L, "phi"), Block("amp", L))
    return ParamLayout(segments)


def theta_layout_for(scenario: ScenarioConfig, modulation: ModulationConfig) -> ParamLayout:
    return theta_layout(modulation.scheme, scenario.n_paths)


def eta_layout_for(scenario: ScenarioConfig, modulation: ModulationConfig) -> ParamLayout:
    validate_modulation(scenario, modulation)
    return eta_layout(modulation.scheme, modulation.decoupling, scenario.n_paths,
                      scenario.n_f, modulation.p_pilots, modulation.d_data)


# =========================================================================
# Pulse-level operations
# =========================================================================


def time_grid(scenario: ScenarioConfig) -> np.ndarray:
    """Sample instants t_k = k / f_s of one PRI, length n_s."""
    return np.arange(scenario.n_s) / scenario.f_s


def _window_starts(shape: PulseShape, centers: np.ndarray,
                   scenario: ScenarioConfig) -> tuple[list[int], int]:
    """First sample and common width of each center's window; see :func:`_pulse_window`."""
    half = SUPPORT_SIGMAS * shape.alpha
    # Python-float arithmetic: a call handles only a handful of centers
    centers = np.asarray(centers, dtype=float).ravel().tolist()
    for center in centers:
        if not center >= 0.0:  # also catches NaN
            raise LeakageError(f"pulse center tau = {center} s is not >= 0")
        if center + half >= scenario.t_f:
            raise LeakageError(
                f"pulse center tau = {center} s leaks past the PRI boundary "
                f"{scenario.t_f} s (support +-{SUPPORT_SIGMAS} alpha)"
            )
    n_s, f_s = scenario.n_s, scenario.f_s
    span = UNDERFLOW_SIGMAS * shape.alpha
    firsts = [math.ceil((center - span) * f_s) - 1 for center in centers]
    width = n_s
    if 2.0 * shape.alpha ** 2 >= sys.float_info.min:
        width = min(n_s, max((math.floor((center + span) * f_s) + 2 - first
                              for center, first in zip(centers, firsts)),
                             default=0))
    return [min(max(first, 0), n_s - width) for first in firsts], width


def _pulse_window(shape: PulseShape, centers: np.ndarray,
                  scenario: ScenarioConfig) -> tuple[list[int], int, np.ndarray, np.ndarray]:
    """The samples of w(t - tau) that can be nonzero, for each of ``centers``.

    Every sampler of the package scatters from this one window.  Returns
    ``(firsts, width, t, values)``: center ``i`` (in C order) owns the PRI
    samples ``firsts[i] .. firsts[i] + width - 1``, at time offsets ``t[i]``
    from the center, where the pulse is ``values[i]``; ``t`` and ``values``
    have shape ``(centers.size, width)``.  The window spans the samples
    within ``UNDERFLOW_SIGMAS`` alpha of the center, plus one either side, at
    a width common to the call; one that runs off the grid slides back inside
    it (its extra samples are computed exactly).  Every sample outside a
    window is an exact zero of the formula in float64, so scattering the
    windows reproduces the whole-grid formula bit for bit.  When 2 alpha**2
    underflows, t * t / (2 alpha**2) can be 0 / 0 anywhere: the window is
    then the whole PRI.

    Raises LeakageError unless every center satisfies ``0 <= tau`` and
    ``tau + 6 alpha < t_f``.
    """
    flat = np.asarray(centers, dtype=float).reshape(-1)
    firsts, width = _window_starts(shape, flat, scenario)
    t = (np.array(firsts, dtype=np.intp)[:, None] + np.arange(width)) / scenario.f_s \
        - flat[:, None]
    c = (shape.alpha * math.sqrt(math.pi)) ** -0.5
    return firsts, width, t, c * np.exp(-(t * t) / (2.0 * shape.alpha ** 2))


def _scatter(centers: np.ndarray, firsts: list[int], width: int,
             rows: np.ndarray, n_s: int) -> np.ndarray:
    """Window rows placed on a zero PRI grid, shape ``centers.shape + (n_s,)``."""
    out = np.zeros((len(firsts), n_s))
    for row, first, value in zip(out, firsts, rows):
        row[first:first + width] = value
    return out.reshape(centers.shape + (n_s,))


def sample_pulse(shape: PulseShape, tau: float | np.ndarray,
                 scenario: ScenarioConfig) -> np.ndarray:
    """Sample w(t - tau) on the PRI grid.

    Parameters
    ----------
    shape : PulseShape
    tau : float or array_like
        Pulse center(s) inside the PRI, seconds.  Each must satisfy
        ``0 <= tau`` and ``tau + 6 alpha < t_f`` so that no energy bleeds into
        the next PRI.

    Returns
    -------
    ndarray, shape ``np.shape(tau) + (n_s,)``
        Real pulse samples, one row per center.  The unit-energy property
        ``sum(w**2) / f_s ~= 1`` holds whenever the +-6 alpha support lies
        fully inside the PRI.

    Each row is the center's sample window (see :func:`_pulse_window`) on a
    zero grid, bit-identical to evaluating the formula on the whole grid.
    """
    centers = np.asarray(tau, dtype=float)
    firsts, width, _, values = _pulse_window(shape, centers, scenario)
    return _scatter(centers, firsts, width, values, scenario.n_s)


def pulse_time_derivative(shape: PulseShape, tau: float | np.ndarray,
                          scenario: ScenarioConfig) -> np.ndarray:
    """Sample d/dtau w(t - tau) = (t - tau) / alpha**2 * w(t - tau).

    Takes the center(s) and returns the shape of :func:`sample_pulse`.
    Antisymmetric about the pulse center; its squared-integral equals
    1 / (2 alpha**2) = (2 pi B)**2 with B the effective bandwidth.  Formed
    on each center's sample window only and scattered like
    :func:`sample_pulse`.
    """
    centers = np.asarray(tau, dtype=float)
    firsts, width, t, values = _pulse_window(shape, centers, scenario)
    return _scatter(centers, firsts, width, (t / shape.alpha ** 2) * values, scenario.n_s)


def effective_bandwidth(shape: PulseShape) -> float:
    """RMS (effective) bandwidth of the Gaussian pulse, Hz.

    B**2 = int f**2 |W(f)|**2 df / int |W(f)|**2 df
         = (1 / (2 pi)**2) * int w'(t)**2 dt / int w(t)**2 dt,
    which for the Gaussian envelope evaluates to B = 1 / (2 sqrt(2) pi alpha).
    """
    return 1.0 / (2.0 * math.sqrt(2.0) * math.pi * shape.alpha)


def received_snr(scenario: ScenarioConfig, path: PathState) -> float:
    """Per-pulse received SNR of one path.

    SNR_l = amp**2 * (int_0^{t_f} w(t - tau)**2 dt) / (t_f * sigma2); with the
    unit-energy pulse fully inside the PRI this is amp**2 / (t_f * sigma2).
    The time integral is evaluated on the sample grid so that the value stays
    faithful if a pulse is placed near (but inside) the PRI edge.
    """
    w = sample_pulse(scenario.pulse, path.tau_l0, scenario)
    energy = float(np.dot(w, w)) / scenario.f_s
    return path.amp * path.amp * energy / (scenario.t_f * scenario.sigma2)


def amp_for_snr(snr: float, t_f: float, sigma2: float) -> float:
    """Amplitude giving a target per-pulse received SNR (unit-energy pulse)."""
    if not snr > 0.0:
        raise ConfigError(f"target SNR must be > 0, got {snr}")
    return math.sqrt(snr * t_f * sigma2)


# =========================================================================
# Regulatory check
# =========================================================================


@dataclass(frozen=True)
class RegulatoryReport:
    """Energy-budget report for the 37 nJ / 1 ms UWB limit."""

    pulses_per_window: float
    energy_per_window_j: float
    limit_j: float
    e_tb_ceiling_j: float
    margin_j: float
    passed: bool
    bandwidth_hz: float
    meets_uwb_floor: bool


def check_regulatory(scenario: ScenarioConfig) -> RegulatoryReport:
    """Check the transmitted energy against the 37 nJ per 1 ms budget.

    With one pulse per PRI the average pulse rate is 1 / t_f, so the budget
    caps the per-pulse energy at ``REG_ENERGY_LIMIT_J * t_f / REG_WINDOW_S``
    (3.7 pJ at t_f = 100 ns).  The boundary value passes with zero margin.
    """
    pulses = REG_WINDOW_S / scenario.t_f
    energy = scenario.pulse.e_tb * pulses
    ceiling = REG_ENERGY_LIMIT_J / pulses
    bw = effective_bandwidth(scenario.pulse)
    return RegulatoryReport(
        pulses_per_window=pulses,
        energy_per_window_j=energy,
        limit_j=REG_ENERGY_LIMIT_J,
        e_tb_ceiling_j=ceiling,
        margin_j=REG_ENERGY_LIMIT_J - energy,
        passed=bool(energy <= REG_ENERGY_LIMIT_J * (1.0 + 1e-12)),
        bandwidth_hz=bw,
        meets_uwb_floor=bool(bw >= UWB_MIN_BANDWIDTH_HZ),
    )
