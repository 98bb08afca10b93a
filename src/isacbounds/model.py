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
import operator
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

#: Most samples a pulse window may span (f_s = 1e15 Hz at alpha = 0.2 ns
#: takes 16e6); a wider one is refused before anything is allocated.
MAX_WINDOW_SAMPLES = 1 << 24

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


def _check_count(name: str, value, least: int, segment: str | None = None) -> None:
    """ConfigError unless ``value`` is an integer (``operator.index``; no bool)
    of at least ``least``; ``segment`` names the layout segment holding it."""
    if type(value) is int and value >= least:  # every layout checks a handful: keep it cheap
        return
    if isinstance(value, bool) or not hasattr(type(value), "__index__") or value < least:
        where = "" if segment is None else f"layout segment {segment!r}: "
        raise ConfigError(f"{where}{name} must be an integer >= {least}, got {value!r}")


def _store_counts(record, least: int, **values) -> None:
    """Store each value on the frozen ``record`` as a Python int, refusing any
    value that :func:`_check_count` refuses."""
    for name, value in values.items():
        _check_count(name, value, least)
        object.__setattr__(record, name, operator.index(value))


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
        # a tuple keeps the record hashable
        object.__setattr__(self, "paths", tuple(self.paths))
        if not self.t_f > 0.0:
            raise ConfigError(f"t_f must be > 0, got {self.t_f}")
        _store_counts(self, 1, n_f=self.n_f)
        if self.n_f > sys.float_info.max / 2:  # the closed-form frame sums take 2 n_f
            raise ConfigError(f"n_f must be <= {sys.float_info.max / 2:.4g} (2 n_f is a float)")
        if not self.f_s > 0.0:
            raise ConfigError(f"f_s must be > 0, got {self.f_s}")
        if not self.sigma2 > 0.0:
            raise ConfigError(f"sigma2 must be > 0, got {self.sigma2}")
        if not self.f_c >= 0.0:
            raise ConfigError(f"f_c must be >= 0, got {self.f_c}")
        if len(self.paths) < 1:
            raise ConfigError("at least one path is required")
        if not math.isfinite(self.t_f * self.f_s):
            raise ConfigError(f"t_f * f_s = {self.t_f} s * {self.f_s} Hz overflows float64")
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

    @cached_property
    def per_pri_information(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lambda_tau, lambda_phi, lambda_alpha) of a single PRI, per path.

        Raises UndersampledPulseError when, for any path, the sampled pulse
        energy or derivative energy misses its closed form by more than
        ``SAMPLING_RTOL``: the closed forms then overstate the information.
        Raises ConfigError unless every value is finite and at least the
        smallest normal float: an amplitude whose square over- or underflows
        has no usable information.

        Kept on this record once computed (an equal but distinct record
        samples again); the arrays are read-only.
        """
        return _sampled_information(self)


class Scheme(str, Enum):
    """Per-pulse modulation of the data PRIs."""

    SENSING = "sensing"   # no data modulation at all
    PPM = "ppm"           # data shifts the pulse position by xi_ppm * bit
    BPSK = "bpsk"         # data rotates the pulse phase by xi_bpsk * bit


class Decoupling(str, Enum):
    """Frame-level strategy for separating data from the sensing parameters."""

    NONE = "none"
    PILOT = "pilot"                 # p_pilots unmodulated PRIs, then d_data data PRIs
    DIFFERENTIAL = "differential"   # extra start-frame reference pulse


#: the decouplings each scheme admits, each with the least n_f at which its frame
#: can be nonsingular (None: at no n_f).  Doppler needs a second PRI; a BPSK pilot
#: split a third, since its ramp and its data phase each need a PRI past the first
DECOUPLINGS = {
    Scheme.SENSING: {Decoupling.NONE: 2},
    Scheme.PPM: {Decoupling.NONE: None, Decoupling.PILOT: 2, Decoupling.DIFFERENTIAL: 2},
    Scheme.BPSK: {Decoupling.NONE: None, Decoupling.PILOT: 3},
}


@dataclass(frozen=True)
class ModulationConfig:
    """Modulation scheme, frame split and decoupling strategy.

    :class:`Frame` checks the split against a scenario's ``n_f``.
    ``sfd_weight`` is the arrival-time information of the differential
    reference (start-of-frame) pulse in units of one data pulse (1.0 = one
    pulse's worth; the sampled reference pulse carries that many pulses'
    energy); only differential frames read it, as only PPM frames read
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
        _store_counts(self, 0, p_pilots=self.p_pilots, d_data=self.d_data)
        if not self.sfd_weight > 0.0:
            raise ConfigError(f"sfd_weight must be > 0, got {self.sfd_weight}")
        admitted = DECOUPLINGS[self.scheme]
        if self.decoupling not in admitted:
            raise ConfigError(f"{self.scheme.value} frames take decoupling {' or '.join(admitted)}"
                              f", not {self.decoupling.value}")
        if self.scheme == Scheme.SENSING and (self.p_pilots != 0 or self.d_data != 0):
            raise ConfigError("sensing-only frames have no pilot/data split")
        if self.decoupling == Decoupling.PILOT and self.p_pilots < 1:
            raise ConfigError("pilot decoupling needs at least one pilot PRI")
        if self.scheme == Scheme.PPM and not self.xi_ppm > 0.0:
            raise ConfigError(f"xi_ppm must be > 0 for PPM, got {self.xi_ppm}")
        if self.scheme == Scheme.BPSK and self.xi_bpsk == 0.0:
            raise ConfigError("xi_bpsk must be nonzero for BPSK")


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

    ``size`` and ``block_bounds`` (every :class:`Block`, run aggregate and
    span) are computed at construction, by arithmetic over the segments;
    :meth:`block` finds a run's per-PRI sub-block from its index the same
    way, so no lookup is O(n_f).  The per-entry ``names``, O(n_f), are built
    on first read only and then kept: the information-matrix pipeline reads
    names only to word an error.
    """

    segments: tuple[Block | PerPri, ...]
    spans: tuple[tuple[str, str, str], ...] = ()
    size: int = field(init=False, repr=False, compare=False)
    block_bounds: Mapping[str, tuple[int, int]] = field(init=False, repr=False, compare=False)
    _runs: dict[str, tuple[int, PerPri]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bounds: dict[str, tuple[int, int]] = {}
        runs: dict[str, tuple[int, PerPri]] = {}
        lo = 0
        for seg in self.segments:
            if isinstance(seg, Block):
                _check_count("width", seg.width, 0, seg.name)
                bounds[seg.name] = (lo, lo + seg.width)
                lo += seg.width
            else:
                _check_count("count", seg.count, 0, seg.prefix)
                _check_count("width", seg.width, 0, seg.prefix)
                runs[seg.prefix] = (lo, seg)
                if seg.aggregate is not None:
                    bounds[seg.aggregate] = (lo, lo + seg.size)
                lo += seg.size
        for name, first, last in self.spans:
            bounds[name] = (bounds[first][0], bounds[last][1])
        object.__setattr__(self, "size", lo)
        object.__setattr__(self, "block_bounds", MappingProxyType(bounds))
        object.__setattr__(self, "_runs", runs)

    @cached_property
    def names(self) -> tuple[str, ...]:
        """One label per scalar entry."""
        names: list[str] = []
        for seg in self.segments:
            if isinstance(seg, Block) and seg.first is None:
                names.append(seg.name)
            elif isinstance(seg, Block):
                names += [f"{seg.name}_{l}" for l in range(seg.first, seg.first + seg.width)]
            else:
                names += [f"{seg.prefix}_{k}_{l}" for k in range(seg.count)
                          for l in range(1, seg.width + 1)]
        return tuple(names)

    def block(self, name: str) -> tuple[int, int]:
        """(start, stop) of a ``block_bounds`` entry or of a run's ``prefix_k``."""
        bounds = self.block_bounds.get(name)
        if bounds is not None:
            return bounds
        prefix, _, k = name.rpartition("_")
        if prefix in self._runs:
            lo, run = self._runs[prefix]
            # "phi_3", not "phi_03" or "phi_+3"; more digits than the count is out of range
            canonical = k.isascii() and k.isdigit() and (k == "0" or k[0] != "0")
            if canonical and len(k) <= len(str(run.count)) and int(k) < run.count:
                lo += int(k) * run.width
                return lo, lo + run.width
        runs = "".join(f", {p}_<k> for k < {run.count}" for p, (_, run) in self._runs.items())
        raise KeyError(f"unknown block {name!r}; available: {sorted(self.block_bounds)}{runs}")

    def block_slice(self, name: str) -> slice:
        lo, hi = self.block(name)
        return slice(lo, hi)


#: the one-entry theta blocks, the same in every layout
_TAU1, _DTAU_Q, _FD1, _PHI_BPSK = (Block(name, 1, None)
                                   for name in ("tau1", "dtau_q", "fd1", "phi_bpsk"))


def theta_layout(scheme: Scheme, n_paths: int) -> ParamLayout:
    """Layout of the physical parameter vector theta.

    Order (L = n_paths):
      * sensing:  [tau1, dtau (L-1), fd1, dfd (L-1), amp (L)]
      * ppm:      [tau1, dtau, dtau_q, fd1, dfd, amp]
      * bpsk:     [tau1, dtau, fd1, dfd, phi_bpsk, amp]

    ``dtau``/``dfd`` are the delay/Doppler offsets of paths 2..L relative to
    path 1; ``dtau_q`` is the common PPM data shift; ``phi_bpsk`` the common
    BPSK data phase.  The aggregate block ``"delay"`` spans tau1 + dtau (+
    dtau_q for PPM), the block ``"doppler"`` spans fd1 + dfd.  ConfigError
    unless ``n_paths`` is an integer >= 1.
    """
    _check_count("n_paths", n_paths, 1)
    offsets = n_paths - 1
    segments = [_TAU1, Block("dtau", offsets, 2)]
    if scheme == Scheme.PPM:
        segments.append(_DTAU_Q)
    segments += [_FD1, Block("dfd", offsets, 2)]
    if scheme == Scheme.BPSK:
        segments.append(_PHI_BPSK)
    segments.append(Block("amp", n_paths))
    delay_end = "dtau_q" if scheme == Scheme.PPM else "dtau"
    return ParamLayout(tuple(segments),
                       (("delay", "tau1", delay_end), ("doppler", "fd1", "dfd")))


def eta_layout(decoupling: Decoupling, n_paths: int, n_f: int) -> ParamLayout:
    """Layout of the observation-domain parameter vector eta.

    Order (L = n_paths, per-PRI blocks are PRI-major / path-minor):
      * no split:      [tau (L), phi per PRI (n_f x L), amp (L)]
      * pilot split:   [tau_p (L), tau_d (L), phi per PRI (n_f x L),
                        amp_p (L), amp_d (L)]
      * differential:  [t_ref (L), t per data PRI (n_f x L),
                        phi per data PRI (n_f x L), amp (L)]

    The decoupling decides it (:data:`DECOUPLINGS` admits splits only on data
    schemes).  Every per-PRI group is its own block (``phi_k``, ``t_k``); the
    aggregate ``"phi"`` spans the phases and, in a differential frame,
    ``"t_abs"`` the per-PRI arrival times.  ConfigError unless ``n_paths``
    and ``n_f`` are integers >= 1.
    """
    _check_count("n_paths", n_paths, 1)
    _check_count("n_f", n_f, 1)
    L = n_paths
    if decoupling == Decoupling.PILOT:
        segments = (Block("tau_p", L), Block("tau_d", L),
                    PerPri("phi", n_f, L, "phi"),
                    Block("amp_p", L), Block("amp_d", L))
    elif decoupling == Decoupling.DIFFERENTIAL:
        segments = (Block("t_ref", L), PerPri("t", n_f, L, "t_abs"),
                    PerPri("phi", n_f, L, "phi"), Block("amp", L))
    else:
        segments = (Block("tau", L), PerPri("phi", n_f, L, "phi"), Block("amp", L))
    return ParamLayout(segments)


#: the kinds of value each (slot, path) pulse has, in the order of the first
#: axis of :attr:`Frame.slot_map`: arrival time, carrier phase, amplitude
TAU, PHI, AMP = range(3)


@dataclass(frozen=True)
class Frame:
    """A scenario and a modulation checked against each other.

    The package's one statement of the frame split: ``data`` is the range of
    data PRIs (none on a sensing-only frame, ``p_pilots`` .. n_f - 1 on a
    pilot split, every PRI otherwise; count it by ``stop - start``, as
    ``len()`` overflows past 2**63 - 1); ``ref`` is 1 for a differential
    frame's reference slot, else 0; ``slots`` = ref + n_f pulse slots.  The
    theta and eta layouts, the eta ``slot_map`` and the ``pulses`` at the
    default data word are built on first read and live as long as the frame.
    Equality and hash cover the scenario and modulation only.
    """

    scenario: ScenarioConfig
    modulation: ModulationConfig
    data: range = field(init=False, repr=False, compare=False)
    ref: int = field(init=False, repr=False, compare=False)
    slots: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scenario, modulation, n_f = self.scenario, self.modulation, self.scenario.n_f
        if modulation.scheme == Scheme.SENSING:
            data = range(0)
        elif modulation.decoupling == Decoupling.PILOT:
            if modulation.p_pilots + modulation.d_data != n_f:
                raise ConfigError(
                    f"pilot split {modulation.p_pilots}+{modulation.d_data} "
                    f"does not cover the frame (n_f = {n_f})"
                )
            data = range(modulation.p_pilots, n_f)
        else:  # NONE or DIFFERENTIAL with a data scheme: every PRI carries data
            if modulation.p_pilots != 0:
                raise ConfigError("p_pilots must be 0 unless decoupling = pilot")
            if modulation.d_data not in (0, n_f):
                raise ConfigError(
                    f"without a pilot split d_data must be 0 or n_f = {n_f}, "
                    f"got {modulation.d_data}"
                )
            data = range(n_f)
        if modulation.scheme == Scheme.PPM:
            half = SUPPORT_SIGMAS * scenario.pulse.alpha
            worst = max(p.tau_l0 for p in scenario.paths) + modulation.xi_ppm
            if worst + half >= scenario.t_f:
                raise LeakageError(
                    f"PPM shift xi_ppm = {modulation.xi_ppm} s pushes the latest "
                    f"path support past the PRI boundary {scenario.t_f} s"
                )
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "ref", int(modulation.decoupling == Decoupling.DIFFERENTIAL))
        object.__setattr__(self, "slots", self.ref + n_f)

    @cached_property
    def theta(self) -> ParamLayout:
        return theta_layout(self.modulation.scheme, self.scenario.n_paths)

    @cached_property
    def eta(self) -> ParamLayout:
        return eta_layout(self.modulation.decoupling, self.scenario.n_paths, self.scenario.n_f)

    @cached_property
    def slot_map(self) -> np.ndarray:
        """The eta entry that sets each (slot, path) pulse's ``TAU``, ``PHI``
        and ``AMP`` value, shape ``(3, slots, L)``, -1 where the value is
        known (only the differential reference slot's phase and amplitude, so
        a reader may skip them by taking those two kinds from slot ``ref`` on).
        Read-only.  The one place the decoupling decides which unknown drives
        each slot: pilot and data PRIs have their own arrival times and
        amplitudes, differential frames one arrival time per PRI plus the
        reference pulse's, unsplit frames one arrival time and amplitude per path.
        """
        n_f, L, ref = self.scenario.n_f, self.scenario.n_paths, self.ref
        p, at = self.modulation.p_pilots, self.eta.block_bounds
        index = np.full((3, self.slots, L), -1, dtype=np.intp)
        # every block below holds one entry per path, or per (PRI, path)
        index[PHI, ref:] = np.arange(*at["phi"]).reshape(n_f, L)
        if self.modulation.decoupling == Decoupling.PILOT:
            index[TAU, :p] = np.arange(*at["tau_p"])
            index[TAU, p:] = np.arange(*at["tau_d"])
            index[AMP, :p] = np.arange(*at["amp_p"])
            index[AMP, p:] = np.arange(*at["amp_d"])
        elif self.modulation.decoupling == Decoupling.DIFFERENTIAL:
            index[TAU, 0] = np.arange(*at["t_ref"])
            index[TAU, 1:] = np.arange(*at["t_abs"]).reshape(n_f, L)
            index[AMP, 1:] = np.arange(*at["amp"])
        else:
            index[TAU] = np.arange(*at["tau"])
            index[AMP] = np.arange(*at["amp"])
        index.setflags(write=False)
        return index

    @cached_property
    def pulses(self) -> np.ndarray:
        """The ``TAU``, ``PHI`` and ``AMP`` value of each (slot, path) pulse
        at the default data word (ones on ``data``, zeros elsewhere), shape
        ``(3, slots, L)`` and indexed like :attr:`slot_map`.  Read-only: the
        operating point of the sampled model, where every bound is evaluated.
        """
        word = np.zeros(self.scenario.n_f, dtype=np.int64)
        word[self.data.start:self.data.stop] = 1
        table = _pulse_values(self, word)
        table.setflags(write=False)
        return table


def _pulse_values(frame: Frame, word: np.ndarray) -> np.ndarray:
    """(tau, phi, amp) of every (slot, path) pulse of ``frame`` at the data
    word ``word`` (one checked 0 or 1 per PRI), shape ``(3, slots, L)``.

    The one statement of the pulse law.  In PRI kappa path l sits at
    tau_l0 + xi_ppm q_kappa (PPM) or tau_l0, with carrier phase
    2 pi (f_dl kappa t_f - f_c tau_l0) - xi_bpsk q_kappa (BPSK) or without
    the data rotation; a differential frame's slot 0 is its reference
    (start-frame) pulse, at tau_l0 and phase -2 pi f_c tau_l0, its amplitude
    sqrt(sfd_weight) times the path's so that it carries ``sfd_weight``
    pulses' energy.
    """
    scenario, modulation, ref = frame.scenario, frame.modulation, frame.ref
    paths, two_pi = scenario.paths, 2.0 * math.pi
    tau0 = np.array([p.tau_l0 for p in paths])
    f_d = np.array([p.f_dl for p in paths])
    table = np.empty((3, frame.slots, len(paths)))
    tau, phi, amp = table
    tau[:] = tau0
    phi[:ref] = -two_pi * scenario.f_c * tau0
    phi[ref:] = two_pi * (f_d * np.arange(scenario.n_f)[:, None] * scenario.t_f
                          - scenario.f_c * tau0)
    amp[:] = [p.amp for p in paths]
    amp[:ref] *= math.sqrt(modulation.sfd_weight)
    if modulation.scheme == Scheme.PPM:
        tau[ref:] += modulation.xi_ppm * word[:, None]
    elif modulation.scheme == Scheme.BPSK:
        phi[ref:] -= modulation.xi_bpsk * word[:, None]
    return table


# =========================================================================
# Pulse-level operations
# =========================================================================


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
    if width > MAX_WINDOW_SAMPLES:
        raise ConfigError(f"f_s = {f_s} Hz samples the alpha = {shape.alpha} s pulse on a window "
                          f"of {width} samples, above MAX_WINDOW_SAMPLES = {MAX_WINDOW_SAMPLES}")
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
    ``tau + 6 alpha < t_f``, and ConfigError past ``MAX_WINDOW_SAMPLES``.
    """
    flat = np.asarray(centers, dtype=float).reshape(-1)
    firsts, width = _window_starts(shape, flat, scenario)
    t = (np.array(firsts, dtype=np.intp)[:, None] + np.arange(width)) / scenario.f_s \
        - flat[:, None]
    return firsts, width, t, shape.peak() * np.exp(-(t * t) / (2.0 * shape.alpha ** 2))


#: largest relative error of the sampled pulse energy sum(w**2)/f_s (against
#: 1) and derivative energy sum(w'**2)/f_s (against (2 pi B)**2) at which the
#: closed forms are used
SAMPLING_RTOL = 1e-2


def _sampled_information(scenario: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """See :attr:`ScenarioConfig.per_pri_information`."""
    pulse, f_s = scenario.pulse, scenario.f_s
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # every path's pulse on its own sample window, t its offset from the
        # center: the energies sum(w**2) / f_s and alpha**4 sum(w'**2) / f_s
        _, _, t, w = _pulse_window(pulse, [p.tau_l0 for p in scenario.paths], scenario)
        energy = (w * w).sum(axis=1) / f_s
        slope_energy = ((t * w) ** 2).sum(axis=1) / f_s
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
    The time integral is evaluated on the sample grid, over the path's pulse
    window (:func:`_pulse_window`), so that the value stays faithful if a
    pulse is placed near (but inside) the PRI edge.
    """
    _, _, _, w = _pulse_window(scenario.pulse, [path.tau_l0], scenario)
    energy = float(np.dot(w[0], w[0])) / scenario.f_s
    return path.amp * path.amp * energy / (scenario.t_f * scenario.sigma2)


def amp_for_snr(snr: float, t_f: float, sigma2: float) -> float:
    """Amplitude giving a target per-pulse received SNR (unit-energy pulse).

    ConfigError naming the value unless ``snr``, ``t_f`` and ``sigma2`` are > 0,
    and naming all three when their product leaves the float range.
    """
    for name, value in (("target SNR", snr), ("t_f", t_f), ("sigma2", sigma2)):
        if not value > 0.0:
            raise ConfigError(f"{name} must be > 0, got {value}")
    if not 0.0 < snr * t_f * sigma2 < math.inf:
        raise ConfigError(f"SNR * t_f * sigma2 = {snr} * {t_f} * {sigma2} leaves the float range")
    return math.sqrt(snr * t_f * sigma2)


def amp_for_snr_db(snr_db: float, t_f: float, sigma2: float) -> float:
    """:func:`amp_for_snr` at an SNR of ``snr_db`` dB; ConfigError naming
    ``snr_db`` when 10**(snr_db / 10) leaves the float range."""
    try:
        snr = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        snr = math.inf
    if not 0.0 < snr < math.inf:
        raise ConfigError(f"snr_db = {snr_db} dB is beyond the float range of the SNR")
    return amp_for_snr(snr, t_f, sigma2)


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
