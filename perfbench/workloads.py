"""Seeded inputs, operations and correctness gates of the three workloads.

A workload is a list of operations.  Each operation is one public call into
``isacbounds`` (timed by the worker) together with a gate that checks its
output.  The seed varies only the physics inputs -- an SNR offset, a common
delay shift and per-path Dopplers -- and the order of the ``sweep_curves``
requests.  Frame shapes, which set the amount of work, never depend on it.

Every gate rests on laws of the model that hold exactly:

* delay, Doppler and data-phase CRLBs scale as 1/SNR, the amplitude CRLB
  does not depend on SNR;
* no CRLB changes under a common delay shift or under per-path Dopplers;
* a sweep, crossover or Pareto row equals the single-point ``crlb_report``
  of its configuration.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import isacbounds as ib
from isacbounds import cli

# Reference link (the package's reference scenario, restated so the
# benchmark builds its own configurations).
F_C = 3993.6e6
T_F = 100e-9
F_S = 10e9
ALPHA = 0.2e-9
E_TB = 3.7e-12
SIGMA2 = 1.0
DELAYS = (20e-9, 40e-9, 60e-9)
XI_PPM = 2e-9

KINDS = ("sensing", "ppm-pilot", "bpsk-pilot", "ppm-raw", "bpsk-raw", "ppm-diff")
SNR_TARGETS = ("tau1", "dtau_q", "fd1", "phi_bpsk")  # CRLBs that scale as 1/SNR

RTOL = 1e-9          # CRLB / row equality
PRINTED_RTOL = 1e-6  # values the CLI prints with 7 significant digits


# =========================================================================
# Seeded inputs
# =========================================================================


@dataclass(frozen=True)
class Inputs:
    """Physics inputs drawn from the seed."""

    snr_db: float
    shift: float
    dopplers: tuple[float, ...]


#: the inputs the goldens were taken at
REFERENCE = Inputs(snr_db=0.0, shift=0.0, dopplers=(0.0,) * len(DELAYS))


def generate(seed: int) -> tuple[Inputs, random.Random]:
    """Inputs for one seed, plus the generator that orders requests.

    The delay shift keeps every pulse support (+-6 alpha, plus the PPM
    shift) inside the PRI with a 1 ns margin; the 20 ns path spacing, well
    above the 12 alpha the closed forms need, is untouched by a common shift.
    """
    rng = random.Random(seed)
    half = 6.0 * ALPHA
    lo = half - DELAYS[0] + 1e-9
    hi = T_F - half - XI_PPM - DELAYS[-1] - 1e-9
    inputs = Inputs(
        snr_db=rng.uniform(-10.0, 20.0),
        shift=rng.uniform(lo, hi),
        dopplers=tuple(rng.uniform(-5e3, 5e3) for _ in DELAYS),
    )
    return inputs, rng


def amplitude(snr_db: float) -> float:
    return math.sqrt(10.0 ** (snr_db / 10.0) * T_F * SIGMA2)


def scenario(inp: Inputs, n_f: int, n_paths: int = 3, f_s: float = F_S,
             snr_db: float | None = None) -> ib.ScenarioConfig:
    amp = amplitude(inp.snr_db if snr_db is None else snr_db)
    paths = tuple(ib.PathState(tau_l0=DELAYS[i] + inp.shift, f_dl=inp.dopplers[i], amp=amp)
                  for i in range(n_paths))
    return ib.ScenarioConfig(f_c=F_C, t_f=T_F, n_f=n_f, f_s=f_s, sigma2=SIGMA2,
                             paths=paths, pulse=ib.PulseShape(alpha=ALPHA, e_tb=E_TB))


def modulation(kind: str, n_f: int, p_pilots: int | None = None) -> ib.ModulationConfig:
    """Modulation for a compact kind label; pilot kinds split the frame evenly
    unless ``p_pilots`` is given."""
    if kind == "sensing":
        return ib.ModulationConfig(scheme="sensing")
    scheme, how = kind.split("-")
    if how == "raw":
        return ib.ModulationConfig(scheme=scheme, d_data=n_f, xi_ppm=XI_PPM)
    if how == "diff":
        return ib.ModulationConfig(scheme="ppm", decoupling="differential", d_data=n_f,
                                   xi_ppm=XI_PPM)
    p = n_f // 2 if p_pilots is None else p_pilots
    return ib.ModulationConfig(scheme=scheme, decoupling="pilot", p_pilots=p,
                               d_data=n_f - p, xi_ppm=XI_PPM)


# =========================================================================
# Operations
# =========================================================================


@dataclass
class Op:
    """One public call and its gate.

    ``verify(result)`` returns a list of problems (empty when correct);
    ``configs(result)`` the configurations the call evaluated;
    ``fingerprint(result)`` the numbers a repeat of the call must reproduce.
    ``perturb`` alters an output slightly, for the benchmark's self-test.
    ``light`` marks a short operation that the end-to-end run calls again
    after every heavy (not light) one, to sample its latency all through
    the run.
    """

    label: str
    call: Callable[[], object]
    verify: Callable[[object], list]
    configs: Callable[[object], int]
    fingerprint: Callable[[object], list]
    perturb: Callable[[object], object] | None = None
    light: bool = False


def close(got, want, rtol: float = RTOL) -> bool:
    """Equality at ``rtol`` with None/NaN matching only themselves."""
    if want is None or got is None:
        return got is None and want is None
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return abs(got - want) <= rtol * abs(want)


def same_fingerprint(got: list, want: list) -> bool:
    if len(got) != len(want):
        return False
    return all(close(g, w) if isinstance(w, float) else g == w for g, w in zip(got, want))


def _report_fingerprint(rep) -> list:
    return [rep.singular, rep.rank, *[rep.crlb[k] for k in sorted(rep.crlb)]]


def _perturb_report(rep):
    key = next(k for k in sorted(rep.crlb) if rep.crlb[k] is not None)
    return replace(rep, crlb={**rep.crlb, key: rep.crlb[key] * (1.0 + 1e-6)})


def report_record(rep) -> dict:
    """JSON form of a CrlbReport, as stored in the goldens."""
    return {
        "size": rep.size, "singular": rep.singular, "rank": rep.rank,
        "coupled_columns": [list(p) for p in rep.coupled_columns],
        "zero_columns": list(rep.zero_columns),
        "crlb": dict(rep.crlb), "range_crlb_m2": rep.range_crlb_m2,
    }


def expected_record(golden: dict, inp: Inputs) -> dict:
    """Golden taken at the reference inputs, moved to ``inp`` by the exact laws."""
    scale = 10.0 ** (-inp.snr_db / 10.0)
    out = dict(golden)
    out["crlb"] = {k: (None if v is None else v * scale if k in SNR_TARGETS else v)
                   for k, v in golden["crlb"].items()}
    rng = golden["range_crlb_m2"]
    out["range_crlb_m2"] = None if rng is None else rng * scale
    return out


def check_record(got: dict, want: dict) -> list:
    problems = [f"{key}: {got[key]!r} != {want[key]!r}"
                for key in ("size", "singular", "rank", "coupled_columns", "zero_columns")
                if got[key] != want[key]]
    if set(got["crlb"]) != set(want["crlb"]):
        problems.append(f"crlb blocks {sorted(got['crlb'])} != {sorted(want['crlb'])}")
    problems += [f"crlb[{k}] = {got['crlb'].get(k)!r}, want {v!r}"
                 for k, v in want["crlb"].items() if not close(got["crlb"].get(k), v)]
    if not close(got["range_crlb_m2"], want["range_crlb_m2"]):
        problems.append(f"range {got['range_crlb_m2']!r} != {want['range_crlb_m2']!r}")
    return problems


# =========================================================================
# frame_grid
# =========================================================================

FRAME_SIZES = (8, 64, 256, 499, 500, 2048, 100_000)
#: operations that take 0.25 s or more at the seed commit; the other 34 are light
FRAME_GRID_HEAVY = {(256, "ppm-diff"), (499, "ppm-diff")} | {(100_000, k) for k in KINDS}


def frame_grid_shapes() -> list[tuple[int, str]]:
    return [(n_f, kind) for n_f in FRAME_SIZES for kind in KINDS]


def frame_grid(inp: Inputs, rng: random.Random, goldens: dict, workdir: Path) -> list[Op]:
    """One crlb_report per (n_f, kind); no two operations share a frame shape."""
    ops = []
    for n_f, kind in frame_grid_shapes():
        sc, mod = scenario(inp, n_f), modulation(kind, n_f)
        want = expected_record(goldens[f"{n_f}/{kind}"], inp)
        ops.append(Op(
            label=f"{kind}@{n_f}",
            call=lambda sc=sc, mod=mod: ib.crlb_report(sc, mod),
            verify=lambda rep, want=want: check_record(report_record(rep), want),
            configs=lambda rep: 1,
            fingerprint=_report_fingerprint,
            perturb=_perturb_report,
            light=(n_f, kind) not in FRAME_GRID_HEAVY,
        ))
    return ops


# =========================================================================
# oracle
# =========================================================================

#: criterion-1 grid: (paths, n_f, kind)
ORACLE_GRID = (
    (1, 1, "sensing"), (1, 2, "ppm-raw"), (1, 4, "bpsk-raw"), (1, 8, "ppm-pilot"),
    (2, 1, "ppm-diff"), (2, 2, "bpsk-pilot"), (2, 4, "sensing"), (2, 8, "ppm-raw"),
    (3, 1, "bpsk-raw"), (3, 2, "ppm-diff"), (3, 4, "ppm-pilot"), (3, 8, "bpsk-pilot"),
)
ORACLE_RATES = ((10e9, 2e-2), (100e9, 2e-3))  # sampling rate, criterion-1 tolerance
VALIDATE_CHECKS = 13
VALIDATE_PROBES = 5


def fim_deviation(test: np.ndarray, ref: np.ndarray) -> float:
    """Worst entry deviation scaled by the geometric mean of the reference
    diagonal entries (floored at 1e-9 of the largest), as in criterion 1."""
    d = np.diag(ref).copy()
    d = np.maximum(d, 1e-9 * float(np.max(d)))
    return float(np.max(np.abs(test - ref) / np.sqrt(np.outer(d, d))))


def _mean_energy(sc: ib.ScenarioConfig, mod: ib.ModulationConfig) -> float:
    """||mu||^2 / f_s: unit-energy pulses that never overlap, one per path
    and slot (plus the differential reference slot)."""
    slots = sc.n_f + (1 if mod.decoupling.value == "differential" else 0)
    return slots * sum(p.amp ** 2 for p in sc.paths)


def _array_fingerprint(x: np.ndarray) -> list:
    sample = x.ravel()[::97]
    return [list(x.shape), float(np.vdot(sample, sample).real), float(np.abs(sample).sum())]


def real_gram(jac: np.ndarray) -> np.ndarray:
    """Re(J^H J) from one real product over the interleaved (re, im) columns."""
    g = jac.view(np.float64).T @ jac.view(np.float64)
    return g[0::2, 0::2] + g[1::2, 1::2]


def oracle(inp: Inputs, rng: random.Random, goldens: dict, workdir: Path) -> list[Op]:
    """Criterion-1 grid at both sampling rates: the finite-difference probe,
    the closed form, the mean vector and its Jacobian, then validate_suite,
    directly and as the CLI's ``validate`` verb."""
    ops = []
    for n_paths, n_f, kind in ORACLE_GRID:
        for f_s, tol in ORACLE_RATES:
            sc, mod = scenario(inp, n_f, n_paths, f_s), modulation(kind, n_f)
            tag = f"{kind}/L{n_paths}/n{n_f}/{f_s / 1e9:g}GHz"
            ref: dict = {}

            def analytic_ref(sc=sc, mod=mod, ref=ref):
                if "fim" not in ref:
                    ref["fim"] = ib.observation_fim_analytic(sc, mod)
                return ref["fim"]

            def check_mean(mu, sc=sc, mod=mod):
                energy = float(np.vdot(mu, mu).real) / sc.f_s
                want = _mean_energy(sc, mod)
                return [] if close(energy, want) else [f"mean energy {energy!r} != {want!r}"]

            def check_jacobian(jac, sc=sc, analytic_ref=analytic_ref):
                sb = real_gram(jac) / sc.sigma2
                dev = fim_deviation(sb, analytic_ref().data)
                return [] if dev <= RTOL else [f"Re(J^H J)/sigma2 deviates {dev:.3e}"]

            def check_analytic(fim, analytic_ref=analytic_ref):
                want = analytic_ref()
                ok = fim.layout.names == want.layout.names and np.array_equal(fim.data, want.data)
                return [] if ok else ["closed-form I_eta is not reproducible"]

            def check_numeric(fim, tol=tol, analytic_ref=analytic_ref):
                want = analytic_ref()
                if fim.layout.names != want.layout.names:
                    return ["numeric and analytic layouts differ"]
                dev = fim_deviation(fim.data, want.data)
                return [] if dev < tol else [f"numeric vs analytic deviation {dev:.3e} >= {tol}"]

            fim_fp = lambda fim: [float(v) for v in fim.data.ravel()]
            ops += [
                Op(f"mean_vector {tag}", lambda sc=sc, mod=mod: ib.mean_vector(sc, mod),
                   check_mean, lambda r: 0, _array_fingerprint,
                   perturb=lambda mu: mu * (1.0 + 1e-6)),
                Op(f"mean_jacobian {tag}", lambda sc=sc, mod=mod: ib.mean_jacobian(sc, mod),
                   check_jacobian, lambda r: 0, _array_fingerprint),
                Op(f"analytic {tag}",
                   lambda sc=sc, mod=mod: ib.observation_fim_analytic(sc, mod),
                   check_analytic, lambda r: 0, fim_fp),
                Op(f"numeric {tag}", lambda sc=sc, mod=mod: ib.observation_fim_numeric(sc, mod),
                   check_numeric, lambda r: 1, fim_fp),
            ]

    def check_validate(checks):
        bad = [f"{c.name}: {c.detail}" for c in checks if not c.passed]
        if len(checks) != VALIDATE_CHECKS:
            bad.append(f"{len(checks)} checks, want {VALIDATE_CHECKS}")
        return bad

    ops.append(Op("validate_suite", lambda: ib.validate_suite(), check_validate,
                  lambda r: VALIDATE_PROBES, lambda checks: [c.passed for c in checks]))
    ops.append(cli_validate_op(CliCounter(workdir)))  # the same suite through the CLI
    return ops


# =========================================================================
# sweep_curves
# =========================================================================

SNR_VALUES = tuple(float(v) for v in range(0, 31, 2))
SWEEP_N_F = 128
CROSS_PILOTS = 4
CROSS_D = tuple(range(2, 41))
CROSS_WINDOW = (18, 26)
PARETO_N = 64
CLI_PARETO_N = 16
CLI_SWEEP_N_F = 32
ROOT_OUTPUTS = ("root_range_crlb_m", "root_doppler_crlb_hz", "rate_bps")


def data_rate(sc: ib.ScenarioConfig, mod: ib.ModulationConfig) -> float:
    if mod.scheme.value == "sensing":
        return 0.0
    p, d = (mod.p_pilots, mod.d_data) if mod.decoupling.value == "pilot" else (0, sc.n_f)
    return 0.0 if d == 0 else d / ((p + d) * sc.t_f)


def expected_row(sc, mod, outputs) -> tuple[list, bool]:
    """Row values of a single-point evaluation and whether the row must carry
    an error message (an output is unavailable or the matrix is singular)."""
    rep = ib.crlb_report(sc, mod)
    values, error = [], rep.singular
    for out in outputs:
        if out == "root_range_crlb_m":
            v = rep.range_crlb_m2
        elif out == "root_doppler_crlb_hz":
            v = rep.crlb.get("fd1")
        elif out == "rate_bps":
            values.append(data_rate(sc, mod))
            continue
        else:  # comm_efim
            values.append(ib.comm_efim_ppm(sc, mod))
            continue
        error = error or v is None
        values.append(math.nan if v is None else math.sqrt(v))
    return values, error


def check_rows(rows, expected) -> list:
    """``rows``: (values, error text); ``expected``: (values, error expected)."""
    problems = []
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, want {len(expected)}"]
    for i, ((got, err), (want, want_err)) in enumerate(zip(rows, expected)):
        if not all(close(g, w) for g, w in zip(got, want)) or len(got) != len(want):
            problems.append(f"row {i}: {got} != {want}")
        if bool(err) != want_err:
            problems.append(f"row {i}: error {err!r}, expected {'one' if want_err else 'none'}")
    return problems


def sweep_point(inp, base_n_f, n_paths, kind, axis, value):
    """Independent restatement of the sweep axes: the single-point
    configuration a sweep row must reproduce."""
    mod = modulation(kind, base_n_f)
    pilot = mod.decoupling.value == "pilot"
    if axis == "snr_db":
        return scenario(inp, base_n_f, n_paths, snr_db=value), mod
    if axis == "n_f":
        n = int(round(value))
        if pilot:
            p = int(round(mod.p_pilots / (mod.p_pilots + mod.d_data) * n))
            mod = replace(mod, p_pilots=p, d_data=n - p)
        elif mod.scheme.value != "sensing":
            mod = replace(mod, d_data=n)
        return scenario(inp, n, n_paths), mod
    if axis == "d_data":
        d = int(round(value))
        mod = replace(mod, d_data=d)
        return scenario(inp, mod.p_pilots + d if pilot else d, n_paths), mod
    p = int(round(value * base_n_f))  # pilot_ratio
    return scenario(inp, base_n_f, n_paths), replace(mod, p_pilots=p, d_data=base_n_f - p)


def table_rows(table) -> list:
    return [(list(row[1:-1]), row[-1]) for row in table.rows]


def _table_fingerprint(table) -> list:
    return [v for row in table.rows for v in row]


def _perturb_table(table):
    rows = [tuple(table.rows[0][:1]) + (table.rows[0][1] * (1.0 + 1e-6),)
            + tuple(table.rows[0][2:])] + table.rows[1:]
    return replace(table, rows=rows)


def sweep_op(inp, kind, axis, values, n_f, n_paths=3, outputs=ROOT_OUTPUTS) -> Op:
    spec = ib.SweepSpec(axis=axis, values=tuple(values), outputs=tuple(outputs),
                        scenario=scenario(inp, n_f, n_paths), modulation=modulation(kind, n_f))

    def verify(table):
        want = [expected_row(*sweep_point(inp, n_f, n_paths, kind, axis, v), outputs)
                for v in values]
        bad = check_rows(table_rows(table), want)
        if [row[0] for row in table.rows] != list(values):
            bad.append("sweep rows are not in axis order")
        return bad

    return Op(f"run_sweep {axis} {kind} L{n_paths} n{n_f}", lambda: ib.run_sweep(spec),
              verify, lambda t: len(t.rows), _table_fingerprint, _perturb_table)


def crossover_rows(inp, rows) -> list:
    """Expected (pilot, differential) root ranging CRLBs of crossover rows."""
    out = []
    for snr_db, d, *_ in rows:
        inp_s = replace(inp, snr_db=float(snr_db))
        pilot = expected_row(scenario(inp_s, CROSS_PILOTS + int(d)),
                             modulation("ppm-pilot", CROSS_PILOTS + int(d), CROSS_PILOTS),
                             ("root_range_crlb_m",))[0][0]
        diff = expected_row(scenario(inp_s, int(d)), modulation("ppm-diff", int(d)),
                            ("root_range_crlb_m",))[0][0]
        out.append(([pilot, diff], False))
    return out


def check_crossover(inp, rows, d_cross) -> list:
    bad = check_rows([(list(r[2:4]), r[4]) for r in rows], crossover_rows(inp, rows))
    lo, hi = CROSS_WINDOW
    if d_cross is None or not lo <= d_cross <= hi:
        bad.append(f"crossover at d = {d_cross}, outside [{lo}, {hi}]")
    return bad


def pareto_rows(inp, n_total, rows) -> list:
    out = []
    for p, d, *_ in rows:
        p, d = int(p), int(d)
        mod = modulation("ppm-pilot", n_total, p) if d > 0 else modulation("sensing", n_total)
        out.append(expected_row(scenario(inp, n_total), mod, ("rate_bps", "root_range_crlb_m")))
    return out


def cli_settings(inp: Inputs, n_f: int, kind: str, n_paths: int = 3) -> list:
    """``--set`` flags that make the CLI build exactly ``scenario``/``modulation``."""
    mod = modulation(kind, n_f)
    values = {
        "scenario.f_c": F_C, "scenario.t_f": T_F, "scenario.n_f": n_f, "scenario.f_s": F_S,
        "scenario.sigma2": SIGMA2, "scenario.alpha": ALPHA, "scenario.e_tb": E_TB,
        "scenario.delays": ",".join(repr(d + inp.shift) for d in DELAYS[:n_paths]),
        "scenario.dopplers": ",".join(repr(f) for f in inp.dopplers[:n_paths]),
        "scenario.snr_db": inp.snr_db,
        "modulation.scheme": mod.scheme.value, "modulation.decoupling": mod.decoupling.value,
        "modulation.xi_ppm": mod.xi_ppm, "modulation.p_pilots": mod.p_pilots,
        "modulation.d_data": mod.d_data,
    }
    flags = []
    for key, value in values.items():
        flags += ["--set", f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"]
    return flags


@dataclass
class CliRun:
    code: int
    text: str
    csv_path: Path | None

    @property
    def csv_bytes(self) -> int:
        return self.csv_path.stat().st_size if self.csv_path and self.csv_path.exists() else 0


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))[1:]
    return [[float(c) for c in row[:-1]] + [row[-1]] for row in rows]


_CRLB_LINE = re.compile(r"^crlb\[(\w+)\]: (.*)$", re.M)


class CliCounter:
    """Numbers each CLI call so every call writes into a directory of its own."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.n = 0

    def run(self, argv: list, csv_name: str | None) -> CliRun:
        out = None
        if csv_name is not None:
            self.n += 1
            out = self.workdir / f"cli-{self.n}"
            argv = argv + ["--out", str(out)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return CliRun(code, buf.getvalue(), out / csv_name if out else None)


def cli_ops(inp: Inputs, workdir: Path) -> list[Op]:
    runner = CliCounter(workdir)
    ops = []
    for n_f in (8, 64):
        for kind in KINDS:
            argv = ["bounds", *cli_settings(inp, n_f, kind)]

            def verify(run, n_f=n_f, kind=kind):
                rep = ib.crlb_report(scenario(inp, n_f), modulation(kind, n_f))
                want_code = 3 if rep.singular else 0
                bad = [] if run.code == want_code else [f"exit {run.code}, want {want_code}"]
                printed = dict(_CRLB_LINE.findall(run.text))
                if set(printed) != set(rep.crlb):
                    return bad + [f"printed CRLBs {sorted(printed)} != {sorted(rep.crlb)}"]
                for name, value in rep.crlb.items():
                    got = None if printed[name].startswith("unavailable") else float(printed[name])
                    if not close(got, value, PRINTED_RTOL):
                        bad.append(f"printed crlb[{name}] {printed[name]} != {value!r}")
                return bad

            ops.append(Op(f"cli bounds {kind} n{n_f}", lambda argv=argv: runner.run(argv, None),
                          verify, lambda r: 1, lambda r: [r.code, r.text]))

    sweep_values = tuple(float(v) for v in range(0, 31, 5))
    sweep_argv = ["sweep", *cli_settings(inp, CLI_SWEEP_N_F, "ppm-pilot"),
                  "--set", "sweep.axis=snr_db",
                  "--set", "sweep.values=" + ",".join(repr(v) for v in sweep_values),
                  "--set", "sweep.outputs=" + ",".join(ROOT_OUTPUTS)]

    def verify_sweep(run):
        if run.code != 0:
            return [f"exit {run.code}"]
        rows = read_csv(run.csv_path)
        want = [expected_row(*sweep_point(inp, CLI_SWEEP_N_F, 3, "ppm-pilot", "snr_db", v),
                             ROOT_OUTPUTS) for v in sweep_values]
        return check_rows([(r[1:-1], r[-1]) for r in rows], want)

    cross_argv = ["crossover", *cli_settings(inp, CROSS_PILOTS * 2, "ppm-pilot"),
                  "--set", f"sweep.start={CROSS_D[0]}", "--set", f"sweep.stop={CROSS_D[-1]}"]

    def verify_cross(run):
        if run.code != 0:
            return [f"exit {run.code}"]
        found = re.search(r"from d_data = (\d+)", run.text)
        rows = read_csv(run.csv_path)
        return check_crossover(inp, rows, int(found.group(1)) if found else None)

    pareto_argv = ["pareto", *cli_settings(inp, CLI_PARETO_N, "sensing")]

    def verify_pareto(run):
        if run.code != 0:
            return [f"exit {run.code}"]
        rows = read_csv(run.csv_path)
        got = [(r[2:4], r[4]) for r in rows]
        return check_rows(got, pareto_rows(inp, CLI_PARETO_N, rows))

    csv_fp = lambda r: [r.code, r.csv_path.read_text() if r.csv_path else r.text]
    ops += [
        Op("cli sweep", lambda: runner.run(sweep_argv, "sweep_snr_db.csv"), verify_sweep,
           lambda r: len(sweep_values), csv_fp),
        Op("cli crossover", lambda: runner.run(cross_argv, "crossover.csv"), verify_cross,
           lambda r: 2 * 2 * len(CROSS_D), csv_fp),
        Op("cli pareto", lambda: runner.run(pareto_argv, "pareto.csv"), verify_pareto,
           lambda r: CLI_PARETO_N, csv_fp),
        cli_validate_op(runner),
    ]
    return ops


def cli_validate_op(runner: CliCounter) -> Op:
    def verify(run):
        want = f"{VALIDATE_CHECKS}/{VALIDATE_CHECKS} checks passed"
        return [] if run.code == 0 and want in run.text else [f"exit {run.code}: {run.text[-200:]}"]

    return Op("cli validate", lambda: runner.run(["validate"], None), verify,
              lambda r: VALIDATE_PROBES, lambda r: [r.code, r.text])


def sweep_curves(inp: Inputs, rng: random.Random, goldens: dict, workdir: Path) -> list[Op]:
    """Requests of a plotting script, in a seeded order."""
    snrs = tuple(inp.snr_db + v for v in SNR_VALUES)
    decoupled = ("sensing", "ppm-pilot", "bpsk-pilot", "ppm-diff")
    # one path for ppm-diff: its three-path sweep alone would take most of a pass
    ops = [sweep_op(inp, kind, "snr_db", snrs, SWEEP_N_F, n_paths)
           for kind in decoupled for n_paths in ((1,) if kind == "ppm-diff" else (1, 2, 3))]
    ops += [sweep_op(inp, kind, "n_f", (8.0, 16.0, 32.0, 64.0, 128.0), 8) for kind in decoupled]
    d_values = tuple(float(d) for d in range(4, 65, 4))
    ops += [
        sweep_op(inp, "ppm-pilot", "d_data", d_values, 8,
                 outputs=("root_range_crlb_m", "comm_efim", "rate_bps")),
        sweep_op(inp, "bpsk-pilot", "d_data", d_values, 8),
        sweep_op(inp, "ppm-diff", "d_data", d_values, 8),
    ]
    ratios = tuple(i / 16 for i in range(1, 17))
    ops += [sweep_op(inp, kind, "pilot_ratio", ratios, 64, outputs=("root_range_crlb_m", "rate_bps"))
            for kind in ("ppm-pilot", "bpsk-pilot")]

    check_snrs = (inp.snr_db, inp.snr_db + 20.0)
    cross_sc = scenario(inp, 8)

    def verify_cross(res):
        bad = check_crossover(inp, res.table.rows, res.d_cross)
        if not res.snr_invariant or res.snrs_checked != check_snrs:
            bad.append(f"crossover moves with SNR over {res.snrs_checked}")
        return bad

    ops.append(Op("find_crossover",
                  lambda: ib.find_crossover(cross_sc, CROSS_PILOTS, CROSS_D, xi_ppm=XI_PPM,
                                            check_snrs_db=check_snrs),
                  verify_cross, lambda r: 2 * len(r.table.rows),
                  lambda r: [r.d_cross, *_table_fingerprint(r.table)]))

    pareto_sc = scenario(inp, PARETO_N)
    ops.append(Op("pareto_table",
                  lambda: ib.pareto_table(pareto_sc, PARETO_N, snr_db=inp.snr_db, xi_ppm=XI_PPM),
                  lambda t: check_rows([(list(r[2:4]), r[4]) for r in t.rows],
                                       pareto_rows(inp, PARETO_N, t.rows)),
                  lambda t: len(t.rows), _table_fingerprint))
    ops += cli_ops(inp, workdir)
    rng.shuffle(ops)
    return ops


WORKLOADS = {"frame_grid": frame_grid, "sweep_curves": sweep_curves, "oracle": oracle}
