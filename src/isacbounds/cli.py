"""Command-line front end.

Verbs
-----
bounds     print the CRLB / coupling report for one configuration
sweep      sweep one axis and write a CSV bound table
crossover  locate the pilot-vs-differential ranging crossover in d_data
pareto     rate / ranging frontier over the pilot split
validate   run the built-in oracle checks (closed forms vs numeric probe)

Configuration comes from an INI file with [scenario], [modulation] and
[sweep] sections; every key can be overridden with ``--set section.key=value``.
Values accept unit suffixes (``t_f = 100ns``, ``f_s = 10GHz``, ``e_tb = 3.7pJ``).

Exit codes: 0 success, 1 a failed ``validate`` check, 2 configuration (or
i/o) error, 3 the requested configuration has a singular information matrix
(sensing/data coupling without decoupling), 4 internal error (any other
exception, printed as ``internal error: <Type>: <message>`` and its traceback).
"""

from __future__ import annotations

import argparse
import configparser
import decimal
import functools
import math
import re
import sys
import traceback
from pathlib import Path

from . import __version__
from .model import (
    DECOUPLINGS,
    ConfigError,
    Decoupling,
    Frame,
    ModulationConfig,
    PathState,
    PulseShape,
    ScenarioConfig,
    Scheme,
    amp_for_snr_db,
    check_regulatory,
)
from .bounds import crlb_report
from .experiments import (
    MAX_SWEEP_POINTS,
    SweepSpec,
    _count,
    check_sweep_axis,
    check_sweep_outputs,
    data_rate,
    find_crossover,
    pareto_table,
    run_sweep,
    validate_suite,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_INTERNAL = 4

# =========================================================================
# Quantity parsing
# =========================================================================

#: decimal exponent of each unit, applied exactly: "100ns" is 1e-07, not 100 * 1e-9
_UNIT_EXPONENT = {
    "": 0,
    "s": 0, "ms": -3, "us": -6, "ns": -9, "ps": -12,
    "hz": 0, "khz": 3, "mhz": 6, "ghz": 9, "thz": 12,
    "j": 0, "mj": -3, "uj": -6, "nj": -9, "pj": -12,
}

#: scaleb here is exact; past the float range it gives inf or 0, as float() does
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN, traps=[])

_QUANTITY_RE = re.compile(r"^\s*([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z]*)\s*$")


def _parse_exact(text: str) -> decimal.Decimal:
    """The exact SI value of '100ns', '10GHz', '1e20' ..., within the float range."""
    m = _QUANTITY_RE.match(str(text))
    if not m:
        raise ConfigError(f"cannot parse quantity {text!r}")
    value, unit = m.groups()
    key = unit.lower()
    if key not in _UNIT_EXPONENT:
        raise ConfigError(f"unknown unit {unit!r} in {text!r}")
    try:
        number = decimal.Decimal(value).scaleb(_UNIT_EXPONENT[key], _EXACT)
    except decimal.InvalidOperation:
        raise ConfigError(f"cannot parse quantity {text!r}") from None
    value = float(number)  # inf past the range, 0 below it: nonzero must stay nonzero
    if not math.isfinite(value) or (value == 0.0) != number.is_zero():
        raise ConfigError(f"quantity {text!r} is beyond the float range")
    return number


def parse_quantity(text: str) -> float:
    """Parse '100ns', '10GHz', '3.7pJ', '1e-7' ... into a finite SI float."""
    return float(_parse_exact(text))


def parse_int(text: str) -> int:
    """Parse an integer exactly, digit for digit ('1e20' is 10**20)."""
    number = _parse_exact(text)
    value = int(number)
    if value != number:
        raise ConfigError(f"expected an integer, got {text!r}")
    return value


def parse_list(text: str) -> list[float]:
    items = [s for s in str(text).split(",") if s.strip()]
    if not items:
        raise ConfigError(f"expected a comma-separated list, got {text!r}")
    return [parse_quantity(s) for s in items]


def _optional_list(text: str) -> list[float] | None:
    return parse_list(text) if text.strip() else None


def _sweep_outputs(text: str) -> tuple[str, ...]:
    return check_sweep_outputs([s.strip() for s in text.split(",") if s.strip()])


def _choice(kind: type[Scheme] | type[Decoupling]):
    """Parser of an enum key: the member whose value the text names, in any case."""
    def parse(text: str):
        try:
            return kind(text.lower())
        except ValueError:
            raise ConfigError(f"unknown {kind.__name__.lower()} {text!r}; "
                              f"use one of {tuple(m.value for m in kind)}") from None
    return parse


# =========================================================================
# Config assembly
# =========================================================================

#: every config key, as {section: {key: (default text, parser)}}; the file and
#: --set strip each value
CONFIG_KEYS = {
    "scenario": {
        "f_c": ("3993.6MHz", parse_quantity),
        "t_f": ("100ns", parse_quantity),
        "n_f": ("8", parse_int),
        "f_s": ("10GHz", parse_quantity),
        "sigma2": ("1.0", parse_quantity),
        "alpha": ("0.2ns", parse_quantity),
        "e_tb": ("3.7pJ", parse_quantity),
        "delays": ("20ns,40ns,60ns", parse_list),
        "dopplers": ("", _optional_list),
        "snr_db": ("0", parse_quantity),
        "amps": ("", _optional_list),
    },
    "modulation": {
        "scheme": ("sensing", _choice(Scheme)),
        "decoupling": ("none", _choice(Decoupling)),
        "xi_ppm": ("2ns", parse_quantity),
        "xi_bpsk": (str(math.pi), parse_quantity),
        "p_pilots": ("0", parse_int),
        "d_data": ("0", parse_int),
        "sfd_weight": ("1.0", parse_quantity),
    },
    "sweep": {
        "axis": ("snr_db", check_sweep_axis),
        "start": ("0", parse_quantity),
        "stop": ("30", parse_quantity),
        "step": ("5", parse_quantity),
        "values": ("", _optional_list),
        "outputs": ("root_range_crlb_m,root_doppler_crlb_hz,rate_bps", _sweep_outputs),
    },
}


def load_config(path: str | None, overrides: list[str]) -> dict[str, dict]:
    """Parsed config values: the defaults, then the file, then ``--set``."""
    entries = [(section, key, text) for section, keys in CONFIG_KEYS.items()
               for key, (text, _) in keys.items()]
    if path is not None:
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        for section in parser.sections():
            if section not in CONFIG_KEYS:
                raise ConfigError(
                    f"unknown config section [{section}]; use one of {sorted(CONFIG_KEYS)}"
                )
            entries += [(section, key, value) for key, value in parser.items(section)]
    for item in overrides or []:
        target, eq, value = item.partition("=")
        section, dot, key = target.partition(".")
        if not (eq and dot):
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        entries.append((section.strip(), key.strip(), value.strip()))
    cfg = {section: {} for section in CONFIG_KEYS}
    for section, key, text in entries:
        if key not in CONFIG_KEYS.get(section, {}):
            raise ConfigError(f"unknown config entry {section}.{key}")
        try:
            cfg[section][key] = CONFIG_KEYS[section][key][1](text)
        except ConfigError as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from None
    return cfg


def config_default(section: str, key: str):
    """The parsed default value of one config key."""
    text, parse = CONFIG_KEYS[section][key]
    return parse(text)


def build_scenario(cfg: dict[str, dict]) -> ScenarioConfig:
    sc = cfg["scenario"]
    n_paths = len(sc["delays"])
    dopplers = sc["dopplers"] or [0.0] * n_paths
    if len(dopplers) != n_paths:
        raise ConfigError("dopplers list must match delays list")
    if sc["amps"] is None:
        amps = [amp_for_snr_db(sc["snr_db"], sc["t_f"], sc["sigma2"])] * n_paths
    elif sc["snr_db"] != config_default("scenario", "snr_db"):
        raise ConfigError("scenario.amps and scenario.snr_db both set the path "
                          "amplitudes; unset one of them")
    elif len(sc["amps"]) != n_paths:
        raise ConfigError("amps list must match delays list")
    else:
        amps = sc["amps"]
    paths = tuple(PathState(tau_l0=d, f_dl=f, amp=a)
                  for d, f, a in zip(sc["delays"], dopplers, amps))
    return ScenarioConfig(
        f_c=sc["f_c"], t_f=sc["t_f"], n_f=sc["n_f"], f_s=sc["f_s"], sigma2=sc["sigma2"],
        paths=paths, pulse=PulseShape(alpha=sc["alpha"], e_tb=sc["e_tb"]),
    )


def build_modulation(cfg: dict[str, dict]) -> ModulationConfig:
    return ModulationConfig(**cfg["modulation"])


def sweep_values(cfg: dict[str, dict]) -> tuple[float, ...]:
    sw = cfg["sweep"]
    if sw["values"] is not None:
        return tuple(sw["values"])
    start, stop, step = sw["start"], sw["stop"], sw["step"]
    if step <= 0 or stop < start:
        raise ConfigError(f"bad sweep range start={start} stop={stop} step={step}")
    steps = (stop - start) / step + 1e-9  # inf when the quotient overflows
    if not steps < MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep.start = {start} to sweep.stop = {stop} in steps of "
                          f"sweep.step = {step} spans more than {MAX_SWEEP_POINTS} points")
    n = int(math.floor(steps)) + 1
    return tuple(start + i * step for i in range(n))


# =========================================================================
# Verbs
# =========================================================================


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_bounds(args) -> int:
    cfg = load_config(args.config, args.set)
    scenario = build_scenario(cfg)
    modulation = build_modulation(cfg)
    report = crlb_report(scenario, modulation)
    reg = check_regulatory(scenario)
    data = Frame(scenario, modulation).data  # the split the frame holds, not the one given

    print(f"scheme={report.scheme} decoupling={report.decoupling} "
          f"n_f={scenario.n_f} L={scenario.n_paths} "
          f"p={data.start} d={data.stop - data.start}")
    print(f"effective bandwidth: {reg.bandwidth_hz / 1e6:.1f} MHz "
          f"(-10 dB bandwidth {reg.bandwidth_10db_hz / 1e6:.1f} MHz)")
    print(f"regulatory: {reg.energy_per_window_j * 1e9:.3f} nJ per 1 ms "
          f"(limit {reg.limit_j * 1e9:.0f} nJ, per-pulse ceiling "
          f"{reg.e_tb_ceiling_j * 1e12:.2f} pJ) -> {'pass' if reg.passed else 'FAIL'}")
    print(f"information matrix: size {report.size}, rank {report.rank}, "
          f"min sv ratio {report.min_sv_ratio:.2e}")
    for name, value in report.crlb.items():
        if value is None:
            print(f"crlb[{name}]: unavailable")
        else:
            print(f"crlb[{name}]: {value:.6e}")
    if report.range_crlb_m2 is not None:
        print(f"root range crlb: {math.sqrt(report.range_crlb_m2):.6e} m")
    fd = report.crlb.get("fd1")
    if fd is not None:
        print(f"root doppler crlb: {math.sqrt(fd):.6e} Hz")
    print(f"data rate: {data_rate(scenario, modulation):.6e} bit/s")
    if not report.singular:
        return EXIT_OK
    # the verdict, then what lifts it: a decoupling admitted at this n_f, a second PRI
    verdict = [report.describe()]
    lifts = [d.value for d, least in DECOUPLINGS[modulation.scheme].items()
             if d != Decoupling.NONE and scenario.n_f >= least]
    if modulation.decoupling == Decoupling.NONE and lifts:
        verdict.append(f"pick a {' or '.join(lifts)} decoupling")
    if "fd1" in report.zero_columns:
        verdict.append("Doppler needs n_f >= 2")
    print(f"configuration is SINGULAR: {'; '.join(verdict)}")
    return EXIT_SINGULAR


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.set)
    sw = cfg["sweep"]
    spec = SweepSpec(
        axis=sw["axis"],
        values=sweep_values(cfg),
        outputs=sw["outputs"],
        scenario=(_snr_scenario(cfg, "sweep on the snr_db axis") if sw["axis"] == "snr_db"
                  else build_scenario(cfg)),
        modulation=build_modulation(cfg),
    )
    table = run_sweep(spec)
    path = _out_dir(args) / f"sweep_{spec.axis}.csv"
    table.to_csv(path)
    print(f"wrote {path} ({len(table.rows)} rows)")
    for row in table.rows:
        cells = "  ".join(f"{v:.6e}" if isinstance(v, float) else str(v) for v in row[:-1])
        tail = f"  [{row[-1]}]" if row[-1] else ""
        print(f"  {cells}{tail}")
    return EXIT_OK


def _snr_scenario(cfg: dict[str, dict], verb: str) -> ScenarioConfig:
    """Scenario of a verb that sets every path amplitude from an SNR itself."""
    if cfg["scenario"]["amps"] is not None:
        raise ConfigError(f"{verb} sets the path amplitudes from an SNR; unset scenario.amps")
    return build_scenario(cfg)


def cmd_crossover(args) -> int:
    cfg = load_config(args.config, args.set)
    scenario = _snr_scenario(cfg, "crossover")
    modulation = build_modulation(cfg)
    if (modulation.scheme, modulation.decoupling) != (Scheme.PPM, Decoupling.PILOT):
        raise ConfigError("crossover compares PPM pilot and differential frames; set "
                          "modulation.scheme = ppm and modulation.decoupling = pilot")
    sw = cfg["sweep"]
    for key in ("values", "step"):
        if sw[key] != config_default("sweep", key):
            raise ConfigError(f"crossover scans sweep.start..sweep.stop; unset sweep.{key}")
    start, d_hi = (_count(f"sweep.{key}", sw[key]) for key in ("start", "stop"))
    d_lo = max(start, 2)  # one data PRI cannot carry the Doppler ramp
    if d_hi < d_lo:
        raise ConfigError(f"crossover scans no d_data: sweep.stop = {d_hi} is below "
                          f"the first scanned d_data {d_lo}")
    if d_hi - d_lo >= MAX_SWEEP_POINTS:
        raise ConfigError(f"crossover scans d_data from {d_lo} to sweep.stop = "
                          f"{sw['stop']:g}: more than {MAX_SWEEP_POINTS} points")
    if d_lo != start:
        print(f"scanning d_data in [{d_lo}, {d_hi}]: sweep.start = {start} is raised to "
              f"{d_lo}, as one data PRI cannot carry the Doppler ramp")
    result = find_crossover(
        scenario, modulation.p_pilots, range(d_lo, d_hi + 1),
        xi_ppm=modulation.xi_ppm, sfd_weight=modulation.sfd_weight,
    )
    if args.out:
        path = _out_dir(args) / "crossover.csv"
        result.table.to_csv(path)
        print(f"wrote {path}")
    if result.found:
        print(f"differential frame out-ranges the {modulation.p_pilots}-pilot frame "
              f"from d_data = {result.d_cross}")
        print(f"SNR-invariant across {result.snrs_checked} dB: "
              f"{'yes' if result.snr_invariant else 'NO'}")
    else:
        print(f"no crossover for d_data in [{d_lo}, {d_hi}]; "
              "extend the range with --set sweep.stop=<d>")
    return EXIT_OK


def cmd_pareto(args) -> int:
    cfg = load_config(args.config, args.set)
    if cfg["scenario"]["n_f"] > MAX_SWEEP_POINTS:
        raise ConfigError(f"scenario.n_f: pareto would build more than {MAX_SWEEP_POINTS} frames")
    scenario = _snr_scenario(cfg, "pareto")
    for key, value in cfg["modulation"].items():
        if key != "xi_ppm" and value != config_default("modulation", key):
            raise ConfigError(f"pareto chooses its own frames and reads only "
                              f"modulation.xi_ppm; unset modulation.{key}")
    modulation = build_modulation(cfg)
    table = pareto_table(scenario, scenario.n_f, snr_db=cfg["scenario"]["snr_db"],
                         xi_ppm=modulation.xi_ppm)
    path = _out_dir(args) / "pareto.csv"
    table.to_csv(path)
    print(f"wrote {path} ({len(table.rows)} rows)")
    print(f"{'p':>4} {'d':>4} {'rate bit/s':>14} {'root range m':>14}")
    for p, d, rate, rng, _err in table.rows:
        print(f"{p:>4} {d:>4} {rate:>14.6e} {rng:>14.6e}")
    return EXIT_OK


def cmd_validate(args) -> int:
    checks = validate_suite(rtol=args.tol)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
    print(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return 0 if all(c.passed for c in checks) else 1


# =========================================================================
# Entry point
# =========================================================================


@functools.cache  # a constant tree: built once per process, not per call
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isacbounds",
        description="CRLB / Fisher-information bounds for pulse-based UWB "
                    "joint sensing and communication frames",
    )
    parser.add_argument("--version", action="version", version=f"isacbounds {__version__}")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="INI file with [scenario]/[modulation]/[sweep]")
    config.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override a config entry (repeatable)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output directory for CSV files")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=0.02,
                     help="relative tolerance of the oracle checks")
    subs = parser.add_subparsers(dest="verb", required=True)
    # each verb takes only the options it reads
    for name, fn, doc, parents in (
        ("bounds", cmd_bounds, "CRLB and coupling report for one configuration", [config]),
        ("sweep", cmd_sweep, "sweep one axis and write a CSV bound table", [config, out]),
        ("crossover", cmd_crossover, "pilot vs differential ranging crossover", [config, out]),
        ("pareto", cmd_pareto, "rate / ranging frontier over the pilot split", [config, out]),
        ("validate", cmd_validate, "run the built-in oracle checks", [tol]),
    ):
        subs.add_parser(name, help=doc, parents=parents).set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # a defect, not a bad input: keep its traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
