"""Reference configurations, parameter sweeps and bound-curve experiments.

This layer turns the matrix machinery into the tables behind the usual bound
plots: root ranging/Doppler CRLB versus SNR, data-assistance comparisons
across frame splits, the pilot-versus-differential crossover in the number of
data pulses, and the rate/ranging trade-off frontier.  Everything is pure and
deterministic: identical inputs give byte-identical CSV output.
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
    ModulationConfig,
    PathState,
    PulseShape,
    ScenarioConfig,
    Scheme,
    amp_for_snr,
    effective_bandwidth,
    received_snr,
)
from .fim import observation_fim_analytic, observation_fim_numeric, per_pri_information
from .bounds import comm_efim_ppm, crlb_report
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
    amp = amp_for_snr(10.0 ** (snr_db / 10.0), REF_T_F, REF_SIGMA2)
    if dopplers is None:
        dopplers = (0.0,) * n_paths
    paths = tuple(PathState(tau_l0=REF_DELAYS[i], f_dl=dopplers[i], amp=amp)
                  for i in range(n_paths))
    return ScenarioConfig(f_c=REF_F_C, t_f=REF_T_F, n_f=n_f, f_s=f_s,
                          sigma2=REF_SIGMA2, paths=paths,
                          pulse=PulseShape(alpha=REF_ALPHA, e_tb=REF_E_TB))


def with_snr(scenario: ScenarioConfig, snr_db: float) -> ScenarioConfig:
    """Same scenario with every path amplitude set to the given per-pulse SNR."""
    amp = amp_for_snr(10.0 ** (snr_db / 10.0), scenario.t_f, scenario.sigma2)
    paths = tuple(dataclasses.replace(p, amp=amp) for p in scenario.paths)
    return dataclasses.replace(scenario, paths=paths)


def with_frame(scenario: ScenarioConfig, n_f: int) -> ScenarioConfig:
    return dataclasses.replace(scenario, n_f=n_f)


# =========================================================================
# Data rate
# =========================================================================


def data_rate(scenario: ScenarioConfig, modulation: ModulationConfig) -> float:
    """Raw data rate in bit/s: one bit per data PRI over the frame span.

    rate = D / ((P + D) * t_f).  Sensing-only frames carry nothing;
    differential and undecoupled frames use every PRI (rate 1 / t_f).
    """
    if modulation.scheme == Scheme.SENSING:
        return 0.0
    if modulation.decoupling == Decoupling.PILOT:
        p, d = modulation.p_pilots, modulation.d_data
    else:
        p, d = 0, scenario.n_f
    if d == 0:
        return 0.0
    return d / ((p + d) * scenario.t_f)


# =========================================================================
# Sweeps
# =========================================================================

SWEEP_AXES = ("snr_db", "n_f", "d_data", "pilot_ratio")
SWEEP_OUTPUTS = ("root_range_crlb_m", "root_doppler_crlb_hz", "rate_bps", "comm_efim")


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis over a fixed scenario/modulation pair."""

    axis: str
    values: tuple[float, ...]
    outputs: tuple[str, ...]
    scenario: ScenarioConfig
    modulation: ModulationConfig

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}; use one of {SWEEP_AXES}")
        bad = [o for o in self.outputs if o not in SWEEP_OUTPUTS]
        if bad:
            raise ConfigError(f"unknown sweep outputs {bad}; use a subset of {SWEEP_OUTPUTS}")
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


def _configure_point(spec: SweepSpec, value: float) -> tuple[ScenarioConfig, ModulationConfig]:
    scenario, modulation = spec.scenario, spec.modulation
    if spec.axis == "snr_db":
        return with_snr(scenario, float(value)), modulation
    if spec.axis == "n_f":
        n = int(round(value))
        if modulation.decoupling == Decoupling.PILOT:
            total = modulation.p_pilots + modulation.d_data
            ratio = modulation.p_pilots / total if total else 0.5
            p = int(round(ratio * n))
            modulation = dataclasses.replace(modulation, p_pilots=p, d_data=n - p)
        elif modulation.scheme != Scheme.SENSING:
            modulation = dataclasses.replace(modulation, d_data=n)
        return with_frame(scenario, n), modulation
    if spec.axis == "d_data":
        d = int(round(value))
        if modulation.decoupling == Decoupling.PILOT:
            modulation = dataclasses.replace(modulation, d_data=d)
            return with_frame(scenario, modulation.p_pilots + d), modulation
        if modulation.scheme == Scheme.SENSING:
            raise ConfigError("d_data sweep needs a data-bearing scheme")
        modulation = dataclasses.replace(modulation, d_data=d)
        return with_frame(scenario, d), modulation
    # pilot_ratio
    if modulation.decoupling != Decoupling.PILOT:
        raise ConfigError("pilot_ratio sweep needs pilot decoupling")
    n = scenario.n_f
    p = int(round(float(value) * n))
    if not 0 <= p <= n:
        raise ConfigError(f"pilot_ratio {value} leaves no valid split of {n} PRIs")
    modulation = dataclasses.replace(modulation, p_pilots=p, d_data=n - p)
    return scenario, modulation


def _eval_point(spec: SweepSpec, value: float) -> tuple:
    error = ""
    results: dict[str, float] = {o: math.nan for o in spec.outputs}
    try:
        scenario, modulation = _configure_point(spec, value)
        report = crlb_report(scenario, modulation)
        for out in spec.outputs:
            if out == "root_range_crlb_m":
                if report.range_crlb_m2 is not None:
                    results[out] = math.sqrt(report.range_crlb_m2)
                else:
                    error = error or "ranging CRLB unavailable (singular nuisance block)"
            elif out == "root_doppler_crlb_hz":
                v = report.crlb.get("fd1")
                if v is not None:
                    results[out] = math.sqrt(v)
                else:
                    error = error or "Doppler CRLB unavailable (singular nuisance block)"
            elif out == "rate_bps":
                results[out] = data_rate(scenario, modulation)
            elif out == "comm_efim":
                results[out] = comm_efim_ppm(scenario, modulation)
        if report.singular and not error:
            error = "information matrix singular: " + _describe_singularity(report)
    except Exception as exc:  # keep sweeping, report per row
        error = error or f"{type(exc).__name__}: {exc}"
    return (value, *[results[o] for o in spec.outputs], error)


def _describe_singularity(report) -> str:
    parts = []
    if report.coupled_columns:
        parts.append("coupled " + ", ".join(f"{a}~{b}" for a, b in report.coupled_columns))
    if report.zero_columns:
        parts.append("zero " + ", ".join(report.zero_columns))
    return "; ".join(parts) or f"rank {report.rank} of {report.size}"


def run_sweep(spec: SweepSpec) -> ResultTable:
    """Evaluate the sweep, one row per axis value, in axis order.

    Rows that fail (singular configurations, leakage, ...) carry NaN outputs
    and the error message in the last column; the sweep always completes.
    """
    rows = [_eval_point(spec, v) for v in spec.values]
    sc, mod = spec.scenario, spec.modulation
    provenance = {
        "generator": f"isacbounds {_pkg_version}",
        "axis": spec.axis,
        "outputs": ",".join(spec.outputs),
        "scheme": mod.scheme.value,
        "decoupling": mod.decoupling.value,
        "p_pilots": mod.p_pilots,
        "d_data": mod.d_data,
        "sfd_weight": mod.sfd_weight,
        "f_c_hz": sc.f_c,
        "t_f_s": sc.t_f,
        "n_f": sc.n_f,
        "f_s_hz": sc.f_s,
        "sigma2": sc.sigma2,
        "alpha_s": sc.pulse.alpha,
        "paths": ";".join(f"tau={p.tau_l0},fd={p.f_dl},amp={p.amp}" for p in sc.paths),
    }
    return ResultTable(columns=(spec.axis, *spec.outputs, "error"),
                       rows=rows, provenance=provenance)


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


def _ranging_pair(scenario: ScenarioConfig, p_pilots: int, d: int,
                  differential: ModulationConfig) -> tuple[float, float, str]:
    """(pilot root-range CRLB, differential root-range CRLB, error) at d data PRIs.

    Both arms share the ``xi_ppm`` of the ``differential`` arm's modulation.
    """
    error = ""
    pilot = math.nan
    diff = math.nan
    try:
        mod_p = ModulationConfig(scheme=Scheme.PPM, decoupling=Decoupling.PILOT,
                                 xi_ppm=differential.xi_ppm, p_pilots=p_pilots, d_data=d)
        rep = crlb_report(with_frame(scenario, p_pilots + d), mod_p)
        if rep.range_crlb_m2 is not None:
            pilot = math.sqrt(rep.range_crlb_m2)
        else:
            error = "pilot arm singular"
    except Exception as exc:
        error = f"pilot arm: {type(exc).__name__}: {exc}"
    try:
        mod_d = dataclasses.replace(differential, d_data=d)
        rep = crlb_report(with_frame(scenario, d), mod_d)
        if rep.range_crlb_m2 is not None:
            diff = math.sqrt(rep.range_crlb_m2)
        else:
            error = (error + "; " if error else "") + "differential arm singular"
    except Exception as exc:
        error = (error + "; " if error else "") + f"differential arm: {type(exc).__name__}: {exc}"
    return pilot, diff, error


def find_crossover(scenario: ScenarioConfig, p_pilots: int, d_values,
                   xi_ppm: float = 2.0e-9, sfd_weight: float = 1.0,
                   check_snrs_db: tuple[float, ...] = (0.0, 20.0)) -> CrossoverResult:
    """Scan data-PRI counts for the pilot-vs-differential ranging crossover.

    The pilot arm keeps ``p_pilots`` pilots and appends ``d`` data PRIs; the
    differential arm spends all ``d`` PRIs on data plus the reference pulse,
    whose ``sfd_weight`` goes into that arm's :class:`ModulationConfig` (so a
    bad weight or ``xi_ppm`` raises ConfigError before the scan).  The
    crossover index is where the differential root ranging CRLB first drops
    below the pilot one; it is checked at every SNR in ``check_snrs_db`` (the
    bounds scale identically with SNR, so the index must not move).
    """
    d_values = [int(d) for d in d_values]
    if p_pilots < 1:
        raise ConfigError("the pilot arm needs at least one pilot PRI")
    differential = ModulationConfig(scheme=Scheme.PPM, decoupling=Decoupling.DIFFERENTIAL,
                                    xi_ppm=xi_ppm, sfd_weight=sfd_weight)
    per_snr_cross: list[int | None] = []
    rows = []
    for snr_db in check_snrs_db:
        sc = with_snr(scenario, snr_db)
        cross: int | None = None
        for d in d_values:
            pilot, diff, err = _ranging_pair(sc, p_pilots, d, differential)
            # strict improvement beyond roundoff: exact ties are not a crossover
            if (cross is None and math.isfinite(pilot) and math.isfinite(diff)
                    and diff < pilot * (1.0 - 1e-9)):
                cross = d
            rows.append((snr_db, d, pilot, diff, err))
        per_snr_cross.append(cross)
    table = ResultTable(
        columns=("snr_db", "d_data", "pilot_root_range_crlb_m",
                 "differential_root_range_crlb_m", "error"),
        rows=rows,
        provenance={"generator": f"isacbounds {_pkg_version}",
                    "p_pilots": p_pilots, "sfd_weight": sfd_weight},
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
        if d > 0:
            mod = ModulationConfig(scheme=Scheme.PPM, decoupling=Decoupling.PILOT,
                                   xi_ppm=xi_ppm, p_pilots=p, d_data=d)
        else:
            mod = ModulationConfig(scheme=Scheme.SENSING)
        rep = crlb_report(sc, mod)
        rng = math.sqrt(rep.range_crlb_m2) if rep.range_crlb_m2 is not None else math.nan
        rows.append((p, d, data_rate(sc, mod), rng, ""))
    return ResultTable(
        columns=("p_pilots", "d_data", "rate_bps", "root_range_crlb_m", "error"),
        rows=rows,
        provenance={"generator": f"isacbounds {_pkg_version}",
                    "n_total": n_total, "snr_db": snr_db},
    )


# =========================================================================
# Self-validation suite
# =========================================================================


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def fim_deviation(test: np.ndarray, ref: np.ndarray, floor_rel: float = 1e-9) -> float:
    """Largest entry deviation, normalized per entry by the geometric mean of
    the two reference diagonal entries (with a floor for zero blocks)."""
    d = np.diag(ref).copy()
    floor = floor_rel * float(np.max(d)) if np.max(d) > 0 else 1.0
    d = np.maximum(d, floor)
    scale = np.sqrt(np.outer(d, d))
    return float(np.max(np.abs(test - ref) / scale))


def validate_suite(rtol: float = 0.02) -> list[CheckResult]:
    """Fast oracle checks: closed forms against quadrature and the numeric probe."""
    checks: list[CheckResult] = []

    sc = reference_scenario(n_f=2, n_paths=1)
    from .model import sample_pulse, pulse_time_derivative

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

    lam_tau, lam_phi, _ = per_pri_information(sc)
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

    from .bounds import assemble_theta_fim

    for scenario, modulation in probes:
        name = f"assembly-consistency-{modulation.scheme.value}-{modulation.decoupling.value}"
        try:
            assemble_theta_fim(scenario, modulation)
            checks.append(CheckResult(name, True, "product == closed form @1e-10"))
        except Exception as exc:
            checks.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return checks
