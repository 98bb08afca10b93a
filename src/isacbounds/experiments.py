"""Reference configurations, parameter sweeps and bound-curve experiments.

This layer turns the matrix machinery into the tables behind the usual bound
plots: root ranging/Doppler CRLB versus SNR, data-assistance comparisons
across frame splits, the pilot-versus-differential crossover in the number of
data pulses, and the rate/ranging trade-off frontier.  Everything is pure and
deterministic: identical inputs give byte-identical CSV output.

One evaluator, :func:`_evaluate`, turns a configured frame into table cells
for all three tables: sweep rows, both crossover arms (run on the sweep's
``d_data`` axis) and frontier rows.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ConfigError,
    Decoupling,
    Frame,
    ModulationConfig,
    PathState,
    PulseShape,
    ScenarioConfig,
    Scheme,
    amp_for_snr_db,
    effective_bandwidth,
    pulse_time_derivative,
    received_snr,
    sample_pulse,
)
from .fim import _equilibrated, observation_fim_analytic, observation_fim_numeric
from .bounds import assemble_theta_fim, comm_efim_ppm, crlb_report
from . import __version__ as _pkg_version

# =========================================================================
# Reference configuration
# =========================================================================

#: baseline link parameters used throughout the examples and tests
REF_F_C = 3993.6e6      # Hz
REF_T_F = 100e-9        # s
REF_F_S = 10e9          # Hz
REF_ALPHA = 0.2e-9      # s
REF_E_TB = 3.7e-12      # J (exactly the 37 nJ/ms budget at t_f = 100 ns)
REF_SIGMA2 = 1.0
REF_DELAYS = (20e-9, 40e-9, 60e-9)


def reference_scenario(n_f: int = 8, n_paths: int = 3, snr_db: float = 0.0,
                       f_s: float = REF_F_S,
                       dopplers: tuple[float, ...] | None = None) -> ScenarioConfig:
    """Baseline scenario: equal-SNR paths at 20/40/60 ns, zero Doppler."""
    if not 1 <= n_paths <= len(REF_DELAYS):
        raise ConfigError(f"n_paths must be in 1..{len(REF_DELAYS)}")
    amp = amp_for_snr_db(snr_db, REF_T_F, REF_SIGMA2)
    if dopplers is None:
        dopplers = (0.0,) * n_paths
    if len(dopplers) != n_paths:
        raise ConfigError(f"{len(dopplers)} dopplers given for {n_paths} paths")
    paths = tuple(PathState(tau_l0=REF_DELAYS[i], f_dl=dopplers[i], amp=amp)
                  for i in range(n_paths))
    return ScenarioConfig(f_c=REF_F_C, t_f=REF_T_F, n_f=n_f, f_s=f_s,
                          sigma2=REF_SIGMA2, paths=paths,
                          pulse=PulseShape(alpha=REF_ALPHA, e_tb=REF_E_TB))


def with_snr(scenario: ScenarioConfig, snr_db: float) -> ScenarioConfig:
    """Same scenario with every path amplitude set to the given per-pulse SNR."""
    amp = amp_for_snr_db(snr_db, scenario.t_f, scenario.sigma2)
    paths = tuple(dataclasses.replace(p, amp=amp) for p in scenario.paths)
    return dataclasses.replace(scenario, paths=paths)


def with_frame(scenario: ScenarioConfig, n_f: int) -> ScenarioConfig:
    return dataclasses.replace(scenario, n_f=n_f)


# =========================================================================
# Data rate
# =========================================================================


def data_rate(scenario: ScenarioConfig, modulation: ModulationConfig) -> float:
    """Raw data rate in bit/s: one bit per data PRI over the frame span.

    rate = D / (n_f * t_f), D the data PRIs of the frame: none when
    sensing-only, all when differential or undecoupled.  Raises ConfigError
    unless the pair is valid.
    """
    data = Frame(scenario, modulation).data
    return (data.stop - data.start) / (scenario.n_f * scenario.t_f)


# =========================================================================
# Sweeps
# =========================================================================

SWEEP_AXES = ("snr_db", "n_f", "d_data", "pilot_ratio")
SWEEP_OUTPUTS = ("root_range_crlb_m", "root_doppler_crlb_hz", "rate_bps", "comm_efim")

#: most points a configured range may span: a sweep or crossover scan is
#: refused beyond it before any of its points is built
MAX_SWEEP_POINTS = 100_000


def check_sweep_axis(axis: str) -> str:
    """``axis``; ConfigError unless it is one of ``SWEEP_AXES``."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; use one of {SWEEP_AXES}")
    return axis


def check_sweep_outputs(outputs) -> tuple[str, ...]:
    """``outputs`` as a tuple; ConfigError unless each is one of ``SWEEP_OUTPUTS``."""
    outputs = tuple(outputs)
    bad = [o for o in outputs if o not in SWEEP_OUTPUTS]
    if bad:
        raise ConfigError(f"unknown sweep outputs {bad}; use a subset of {SWEEP_OUTPUTS}")
    return outputs


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis over a fixed scenario/modulation pair."""

    axis: str
    values: tuple[float, ...]
    outputs: tuple[str, ...]
    scenario: ScenarioConfig
    modulation: ModulationConfig

    def __post_init__(self):
        check_sweep_axis(self.axis)
        check_sweep_outputs(self.outputs)
        if len(self.values) == 0:
            raise ConfigError("sweep needs at least one axis value")


@dataclass
class ResultTable:
    """Column-labeled rows plus a provenance header for CSV export."""

    columns: tuple[str, ...]
    rows: list[tuple]
    provenance: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([row[i] for row in self.rows], dtype=object)

    def values(self, name: str) -> np.ndarray:
        """Numeric column as float (errors/non-numeric become NaN)."""
        out = []
        for v in self.column(name):
            try:
                out.append(float(v))
            except (TypeError, ValueError):
                out.append(math.nan)
        return np.array(out)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            for key in sorted(self.provenance):
                fh.write(f"# {key} = {self.provenance[key]}\n")
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow(row)


def _count(axis: str, value) -> int:
    """``value`` as an int; ConfigError naming it unless it is integral."""
    if not (isinstance(value, int) or float(value).is_integer()):  # NaN, inf are not
        raise ConfigError(f"{axis} value {value!r} is not an integer")
    return int(value)


def _provenance(scenario: ScenarioConfig, modulation: ModulationConfig | None = None,
                **keys) -> dict:
    """The CSV header of a table: the generator and the scenario, the
    modulation when the table has one, then the table's own ``keys``."""
    record = {
        "generator": f"isacbounds {_pkg_version}",
        "f_c_hz": scenario.f_c,
        "t_f_s": scenario.t_f,
        "n_f": scenario.n_f,
        "f_s_hz": scenario.f_s,
        "sigma2": scenario.sigma2,
        "alpha_s": scenario.pulse.alpha,
        "paths": ";".join(f"tau={p.tau_l0},fd={p.f_dl},amp={p.amp}" for p in scenario.paths),
    }
    if modulation is not None:
        record.update(scheme=modulation.scheme.value, decoupling=modulation.decoupling.value,
                      p_pilots=modulation.p_pilots, d_data=modulation.d_data,
                      sfd_weight=modulation.sfd_weight)
    return {**record, **keys}


def _configure_point(spec: SweepSpec, value: float) -> tuple[ScenarioConfig, ModulationConfig]:
    scenario, modulation = spec.scenario, spec.modulation
    if spec.axis == "snr_db":
        return with_snr(scenario, float(value)), modulation
    if spec.axis == "n_f":
        n = _count("n_f", value)
        if modulation.decoupling == Decoupling.PILOT:
            ratio = modulation.p_pilots / (modulation.p_pilots + modulation.d_data)
            p = int(round(ratio * n))
            modulation = dataclasses.replace(modulation, p_pilots=p, d_data=n - p)
        elif modulation.scheme != Scheme.SENSING:
            modulation = dataclasses.replace(modulation, d_data=n)
        return with_frame(scenario, n), modulation
    if spec.axis == "d_data":
        if modulation.scheme == Scheme.SENSING:
            raise ConfigError("d_data sweep needs a data-bearing scheme")
        # the frame is its pilots (none off a pilot split) plus the data PRIs
        modulation = dataclasses.replace(modulation, d_data=_count("d_data", value))
        return with_frame(scenario, modulation.p_pilots + modulation.d_data), modulation
    # pilot_ratio
    if modulation.decoupling != Decoupling.PILOT:
        raise ConfigError("pilot_ratio sweep needs pilot decoupling")
    n = scenario.n_f
    if not 0.0 <= float(value) <= 1.0:  # refused before value * n can overflow
        raise ConfigError(f"pilot_ratio {value} leaves no valid split of {n} PRIs")
    p = int(round(float(value) * n))
    modulation = dataclasses.replace(modulation, p_pilots=p, d_data=n - p)
    return scenario, modulation


def _blank_cells(outputs) -> dict:
    return {**dict.fromkeys(outputs, math.nan), "error": ""}


def _evaluate(scenario: ScenarioConfig, modulation: ModulationConfig, cells: dict) -> dict:
    """Fill the output cells of one configured frame and its ``error`` text.

    ``cells`` comes from :func:`_blank_cells`.  A value the report cannot give
    stays NaN.  ``error`` is a singular frame's verdict, or else names the
    unavailable CRLB.  Exceptions propagate, and the cells filled before the
    raise keep their values.
    """
    report = crlb_report(scenario, modulation)
    if report.singular:
        cells["error"] = "information matrix singular: " + report.describe()
    crlbs = {"root_range_crlb_m": ("ranging", report.range_crlb_m2),
             "root_doppler_crlb_hz": ("Doppler", report.crlb.get("fd1"))}
    for out in cells:
        if out in crlbs:
            what, v = crlbs[out]
            if v is not None:
                cells[out] = math.sqrt(v)
            elif not cells["error"]:
                cells["error"] = f"{what} CRLB unavailable"
        elif out == "rate_bps":
            cells[out] = data_rate(scenario, modulation)
        elif out == "comm_efim":
            cells[out] = comm_efim_ppm(scenario, modulation)
    return cells


def _sweep_row(spec: SweepSpec, value: float) -> tuple:
    cells = _blank_cells(spec.outputs)
    try:
        _evaluate(*_configure_point(spec, value), cells)
    except ConfigError as exc:  # a refused row; a defect raises
        cells["error"] = cells["error"] or f"{type(exc).__name__}: {exc}"
    return (value, *cells.values())


def run_sweep(spec: SweepSpec) -> ResultTable:
    """Evaluate the sweep, one row per axis value, in axis order.

    Rows refused by a configuration check (ConfigError: leakage, an
    undersampled pulse, ...) carry NaN outputs and the error message in the
    last column; any other exception propagates.
    """
    rows = [_sweep_row(spec, v) for v in spec.values]
    return ResultTable(columns=(spec.axis, *spec.outputs, "error"), rows=rows,
                       provenance=_provenance(spec.scenario, spec.modulation, axis=spec.axis,
                                              outputs=",".join(spec.outputs)))


# =========================================================================
# Crossover and frontier searches
# =========================================================================


@dataclass(frozen=True)
class CrossoverResult:
    """First data-PRI count where the differential frame out-ranges the pilot one."""

    d_cross: int | None
    found: bool
    snr_invariant: bool
    snrs_checked: tuple[float, ...]
    table: ResultTable


def find_crossover(scenario: ScenarioConfig, p_pilots: int, d_values,
                   xi_ppm: float = 2.0e-9, sfd_weight: float = 1.0,
                   check_snrs_db: tuple[float, ...] = (0.0, 20.0)) -> CrossoverResult:
    """Scan data-PRI counts for the pilot-vs-differential ranging crossover.

    The pilot arm keeps ``p_pilots`` pilots and appends ``d`` data PRIs; the
    differential arm spends all ``d`` PRIs on data plus the reference pulse,
    whose ``sfd_weight`` goes into that arm's :class:`ModulationConfig` (a bad
    pilot count, weight, ``xi_ppm`` or ``d`` raises ConfigError before the scan).
    Both arms run on the sweep engine's ``d_data`` axis.  The crossover index
    is where the differential root ranging CRLB first drops below the pilot
    one; it is checked at every SNR in ``check_snrs_db`` (the bounds scale
    identically with SNR, so the index must not move).
    """
    arms = {
        "pilot": ModulationConfig(scheme=Scheme.PPM, decoupling=Decoupling.PILOT,
                                  xi_ppm=xi_ppm, p_pilots=p_pilots),
        "differential": ModulationConfig(scheme=Scheme.PPM, decoupling=Decoupling.DIFFERENTIAL,
                                         xi_ppm=xi_ppm, sfd_weight=sfd_weight),
    }
    if not check_snrs_db:
        raise ConfigError("the crossover needs at least one check SNR")
    d_values = tuple(_count("d_data", d) for d in d_values)
    ranging = ("root_range_crlb_m",)
    per_snr_cross: list[int | None] = []
    rows = []
    for snr_db in check_snrs_db:
        sc = with_snr(scenario, snr_db)
        # a sweep refuses an empty axis; an empty d range finds no crossover
        pilot, diff = (run_sweep(SweepSpec("d_data", d_values, ranging, sc, mod)).rows
                       if d_values else [] for mod in arms.values())
        cross: int | None = None
        for (d, p_rng, p_err), (_, d_rng, d_err) in zip(pilot, diff):
            # strict improvement beyond roundoff: exact ties are not a crossover
            if (cross is None and math.isfinite(p_rng) and math.isfinite(d_rng)
                    and d_rng < p_rng * (1.0 - 1e-9)):
                cross = d
            err = "; ".join(f"{arm} arm: {e}" for arm, e in zip(arms, (p_err, d_err)) if e)
            rows.append((snr_db, d, p_rng, d_rng, err))
        per_snr_cross.append(cross)
    table = ResultTable(
        columns=("snr_db", "d_data", "pilot_root_range_crlb_m",
                 "differential_root_range_crlb_m", "error"),
        rows=rows,
        provenance=_provenance(scenario, p_pilots=p_pilots, sfd_weight=sfd_weight, xi_ppm=xi_ppm,
                               check_snrs_db=",".join(str(v) for v in check_snrs_db)),
    )
    first = per_snr_cross[0]
    invariant = all(c == first for c in per_snr_cross)
    return CrossoverResult(d_cross=first, found=first is not None,
                           snr_invariant=invariant, snrs_checked=tuple(check_snrs_db),
                           table=table)


def pareto_table(scenario: ScenarioConfig, n_total: int, snr_db: float = 0.0,
                 xi_ppm: float = 2.0e-9) -> ResultTable:
    """Rate / ranging frontier over the pilot split of an n_total-PRI PPM frame.

    One row per pilot count p = 1 .. n_total (d = n_total - p); the all-pilot
    endpoint is the sensing-only frame.  More pilots always rank better on
    ranging and worse on rate, so no row dominates another.
    """
    if n_total < 2:
        raise ConfigError("the frontier needs at least 2 PRIs")
    sc = with_snr(with_frame(scenario, n_total), snr_db)
    rows = []
    for p in range(1, n_total + 1):
        d = n_total - p
        mod = (ModulationConfig(scheme=Scheme.PPM, decoupling=Decoupling.PILOT,
                                xi_ppm=xi_ppm, p_pilots=p, d_data=d) if d > 0
               else ModulationConfig(scheme=Scheme.SENSING))
        cells = _evaluate(sc, mod, _blank_cells(("rate_bps", "root_range_crlb_m")))
        rows.append((p, d, *cells.values()))
    return ResultTable(
        columns=("p_pilots", "d_data", "rate_bps", "root_range_crlb_m", "error"),
        rows=rows,
        provenance=_provenance(scenario, n_total=n_total, snr_db=snr_db, xi_ppm=xi_ppm),
    )


# =========================================================================
# Self-validation suite
# =========================================================================


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def fim_deviation(test: np.ndarray, ref: np.ndarray) -> float:
    """Largest entry of |test - ref| on the equilibrated scale of ``ref``, its
    diagonal floored at 1e-9 of the largest entry (at 1 if none is positive)
    so that zero blocks divide by no zero."""
    d = np.diag(ref)
    d = np.maximum(d, 1e-9 * d.max() if d.max() > 0 else 1.0)
    return float(np.max(np.abs(_equilibrated(test - ref, d))))


def validate_suite(rtol: float = 0.02) -> list[CheckResult]:
    """Fast oracle checks: closed forms against quadrature and the numeric probe."""
    if not 0.0 < rtol < math.inf:  # NaN fails this too
        raise ConfigError(f"validate tolerance must be finite and > 0, got {rtol}")
    checks: list[CheckResult] = []

    sc = reference_scenario(n_f=2, n_paths=1)
    w = sample_pulse(sc.pulse, 20e-9, sc)
    energy = float(np.dot(w, w)) / sc.f_s
    checks.append(CheckResult("pulse-energy-quadrature", abs(energy - 1.0) < 1e-6,
                              f"sum w^2 / f_s = {energy:.12f}"))

    dw = pulse_time_derivative(sc.pulse, 20e-9, sc)
    target = (2.0 * math.pi * effective_bandwidth(sc.pulse)) ** 2
    got = float(np.dot(dw, dw)) / sc.f_s
    checks.append(CheckResult("derivative-energy-bandwidth",
                              abs(got / target - 1.0) < 1e-6,
                              f"sum w'^2 / f_s = {got:.6e} vs (2 pi B)^2 = {target:.6e}"))

    _, lam_phi, _ = sc.per_pri_information
    snr = received_snr(sc, sc.paths[0])
    checks.append(CheckResult("per-pri-phase-information",
                              abs(lam_phi[0] / (sc.t_f * sc.f_s * snr) - 1.0) < 1e-9,
                              f"lambda_phi = {lam_phi[0]:.6e}"))

    probes = [
        (reference_scenario(n_f=2, n_paths=1), ModulationConfig(scheme=Scheme.SENSING)),
        (reference_scenario(n_f=2, n_paths=2),
         ModulationConfig(scheme=Scheme.PPM, d_data=2)),
        (reference_scenario(n_f=4, n_paths=1),
         ModulationConfig(scheme=Scheme.BPSK, d_data=4)),
        (reference_scenario(n_f=4, n_paths=1),
         ModulationConfig(scheme=Scheme.PPM, decoupling=Decoupling.PILOT,
                          p_pilots=2, d_data=2)),
        (reference_scenario(n_f=2, n_paths=1),
         ModulationConfig(scheme=Scheme.PPM, decoupling=Decoupling.DIFFERENTIAL,
                          d_data=2)),
    ]
    for scenario, modulation in probes:
        name = f"numeric-vs-analytic-{modulation.scheme.value}-{modulation.decoupling.value}"
        try:
            num = observation_fim_numeric(scenario, modulation)
            ana = observation_fim_analytic(scenario, modulation)
            dev = fim_deviation(num.data, ana.data)
            checks.append(CheckResult(name, dev < rtol, f"max deviation {dev:.3e}"))
        except Exception as exc:
            checks.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))

    for scenario, modulation in probes:
        name = f"assembly-consistency-{modulation.scheme.value}-{modulation.decoupling.value}"
        try:
            assemble_theta_fim(Frame(scenario, modulation))
            checks.append(CheckResult(name, True, "product == closed form @1e-10"))
        except Exception as exc:
            checks.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return checks
