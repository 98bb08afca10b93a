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
import math
import re
import sys
import traceback
from pathlib import Path

from . import __version__
from .model import (
    ConfigError,
    Decoupling,
    ModulationConfig,
    PathState,
    PulseShape,
    ScenarioConfig,
    Scheme,
    amp_for_snr,
    check_regulatory,
    effective_bandwidth,
)
from .bounds import crlb_report
from .experiments import (
    SweepSpec,
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

_UNIT_SCALE = {
    "": 1.0,
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12,
    "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12,
    "j": 1.0, "mj": 1e-3, "uj": 1e-6, "nj": 1e-9, "pj": 1e-12,
}

_QUANTITY_RE = re.compile(r"^\s*([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z]*)\s*$")


def parse_quantity(text: str) -> float:
    """Parse '100ns', '10GHz', '3.7pJ', '1e-7' ... into an SI float."""
    m = _QUANTITY_RE.match(str(text))
    if not m:
        raise ConfigError(f"cannot parse quantity {text!r}")
    value, unit = m.groups()
    key = unit.lower()
    if key not in _UNIT_SCALE:
        raise ConfigError(f"unknown unit {unit!r} in {text!r}")
    try:
        return float(value) * _UNIT_SCALE[key]
    except ValueError:
        raise ConfigError(f"cannot parse quantity {text!r}") from None


def parse_int(text: str) -> int:
    v = parse_quantity(text)
    i = int(round(v))
    if abs(v - i) > 1e-9 * max(1.0, abs(v)):
        raise ConfigError(f"expected an integer, got {text!r}")
    return i


def parse_list(text: str) -> list[float]:
    items = [s for s in str(text).split(",") if s.strip()]
    if not items:
        raise ConfigError(f"expected a comma-separated list, got {text!r}")
    return [parse_quantity(s) for s in items]


# =========================================================================
# Config assembly
# =========================================================================

DEFAULTS = {
    "scenario": {
        "f_c": "3993.6MHz",
        "t_f": "100ns",
        "n_f": "8",
        "f_s": "10GHz",
        "sigma2": "1.0",
        "alpha": "0.2ns",
        "e_tb": "3.7pJ",
        "delays": "20ns,40ns,60ns",
        "dopplers": "",
        "snr_db": "0",
        "amps": "",
    },
    "modulation": {
        "scheme": "sensing",
        "decoupling": "none",
        "xi_ppm": "2ns",
        "xi_bpsk": str(math.pi),
        "p_pilots": "0",
        "d_data": "0",
        "sfd_weight": "1.0",
    },
    "sweep": {
        "axis": "snr_db",
        "start": "0",
        "stop": "30",
        "step": "5",
        "values": "",
        "outputs": "root_range_crlb_m,root_doppler_crlb_hz,rate_bps",
    },
}


def load_config(path: str | None, overrides: list[str]) -> dict[str, dict[str, str]]:
    cfg = {section: dict(keys) for section, keys in DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
        for section in parser.sections():
            if section not in cfg:
                raise ConfigError(
                    f"unknown config section [{section}]; use one of {sorted(cfg)}"
                )
            for key, value in parser.items(section):
                if key not in cfg[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                cfg[section][key] = value
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip()
        if section not in cfg or key not in cfg[section]:
            raise ConfigError(f"unknown config entry {section}.{key}")
        cfg[section][key] = value.strip()
    return cfg


def build_scenario(cfg: dict[str, dict[str, str]]) -> ScenarioConfig:
    sc = cfg["scenario"]
    delays = parse_list(sc["delays"])
    n_paths = len(delays)
    dopplers = parse_list(sc["dopplers"]) if sc["dopplers"].strip() else [0.0] * n_paths
    if len(dopplers) != n_paths:
        raise ConfigError("dopplers list must match delays list")
    t_f = parse_quantity(sc["t_f"])
    sigma2 = parse_quantity(sc["sigma2"])
    if sc["amps"].strip():
        amps = parse_list(sc["amps"])
        if len(amps) != n_paths:
            raise ConfigError("amps list must match delays list")
    else:
        amp = amp_for_snr(10.0 ** (parse_quantity(sc["snr_db"]) / 10.0), t_f, sigma2)
        amps = [amp] * n_paths
    paths = tuple(PathState(tau_l0=d, f_dl=f, amp=a)
                  for d, f, a in zip(delays, dopplers, amps))
    return ScenarioConfig(
        f_c=parse_quantity(sc["f_c"]),
        t_f=t_f,
        n_f=parse_int(sc["n_f"]),
        f_s=parse_quantity(sc["f_s"]),
        sigma2=sigma2,
        paths=paths,
        pulse=PulseShape(alpha=parse_quantity(sc["alpha"]),
                         e_tb=parse_quantity(sc["e_tb"])),
    )


def build_modulation(cfg: dict[str, dict[str, str]]) -> ModulationConfig:
    mo = cfg["modulation"]
    try:
        scheme = Scheme(mo["scheme"].strip().lower())
        decoupling = Decoupling(mo["decoupling"].strip().lower())
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ModulationConfig(
        scheme=scheme,
        decoupling=decoupling,
        xi_ppm=parse_quantity(mo["xi_ppm"]),
        xi_bpsk=parse_quantity(mo["xi_bpsk"]),
        p_pilots=parse_int(mo["p_pilots"]),
        d_data=parse_int(mo["d_data"]),
        sfd_weight=parse_quantity(mo["sfd_weight"]),
    )


def sweep_values(cfg: dict[str, dict[str, str]]) -> tuple[float, ...]:
    sw = cfg["sweep"]
    if sw["values"].strip():
        return tuple(parse_list(sw["values"]))
    start = parse_quantity(sw["start"])
    stop = parse_quantity(sw["stop"])
    step = parse_quantity(sw["step"])
    if step <= 0 or stop < start:
        raise ConfigError(f"bad sweep range start={start} stop={stop} step={step}")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
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

    print(f"scheme={report.scheme} decoupling={report.decoupling} "
          f"n_f={scenario.n_f} L={scenario.n_paths} "
          f"p={modulation.p_pilots} d={modulation.d_data}")
    print(f"effective bandwidth: {effective_bandwidth(scenario.pulse) / 1e6:.1f} MHz")
    print(f"regulatory: {reg.energy_per_window_j * 1e9:.3f} nJ per 1 ms "
          f"(limit {reg.limit_j * 1e9:.0f} nJ, per-pulse ceiling "
          f"{reg.e_tb_ceiling_j * 1e12:.2f} pJ) -> {'pass' if reg.passed else 'FAIL'}")
    print(f"information matrix: size {report.size}, rank {report.rank}, "
          f"min sv ratio {report.min_sv_ratio:.2e}")
    if report.coupled_columns:
        print("coupled columns: "
              + ", ".join(f"{a} ~ {b}" for a, b in report.coupled_columns))
    if report.zero_columns:
        print("zero columns: " + ", ".join(report.zero_columns))
    for name, value in report.crlb.items():
        if value is None:
            print(f"crlb[{name}]: unavailable (singular nuisance block)")
        else:
            print(f"crlb[{name}]: {value:.6e}")
    if report.range_crlb_m2 is not None:
        print(f"root range crlb: {math.sqrt(report.range_crlb_m2):.6e} m")
    fd = report.crlb.get("fd1")
    if fd is not None:
        print(f"root doppler crlb: {math.sqrt(fd):.6e} Hz")
    print(f"data rate: {data_rate(scenario, modulation):.6e} bit/s")
    if report.singular:
        print(f"configuration is SINGULAR: {_singular_advice(report, scenario.n_f)}")
        return EXIT_SINGULAR
    return EXIT_OK


def _singular_advice(report, n_f: int) -> str:
    """What a singular frame lacks, by frame kind.

    Raw PPM/BPSK frames need a decoupling.  Sensing and decoupled frames take
    none, so they are told which columns are dead or coupled instead.
    """
    if report.scheme != Scheme.SENSING.value and report.decoupling == Decoupling.NONE.value:
        advice = "pick a pilot or differential decoupling"
    else:
        lost = [*report.zero_columns, *(f"{a} ~ {b}" for a, b in report.coupled_columns)]
        advice = (f"this {report.scheme} frame cannot resolve "
                  f"{', '.join(lost) or f'rank {report.rank} of {report.size}'}")
    return advice + ("; Doppler needs n_f >= 2" if n_f < 2 else "")


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.set)
    sw = cfg["sweep"]
    spec = SweepSpec(
        axis=sw["axis"].strip(),
        values=sweep_values(cfg),
        outputs=tuple(s.strip() for s in sw["outputs"].split(",") if s.strip()),
        scenario=build_scenario(cfg),
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


def cmd_crossover(args) -> int:
    cfg = load_config(args.config, args.set)
    scenario = build_scenario(cfg)
    modulation = build_modulation(cfg)
    if modulation.p_pilots < 1:
        raise ConfigError("crossover needs modulation.p_pilots >= 1 for the pilot arm")
    sw = cfg["sweep"]
    d_lo = parse_int(sw["start"])
    d_hi = parse_int(sw["stop"])
    if d_lo < 2:
        d_lo = 2  # a single data PRI cannot carry the Doppler ramp
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
    scenario = build_scenario(cfg)
    snr_db = parse_quantity(cfg["scenario"]["snr_db"])
    xi_ppm = parse_quantity(cfg["modulation"]["xi_ppm"])
    table = pareto_table(scenario, scenario.n_f, snr_db=snr_db, xi_ppm=xi_ppm)
    path = _out_dir(args) / "pareto.csv"
    table.to_csv(path)
    print(f"wrote {path} ({len(table.rows)} rows)")
    print(f"{'p':>4} {'d':>4} {'rate bit/s':>14} {'root range m':>14}")
    for p, d, rate, rng, _err in table.rows:
        print(f"{p:>4} {d:>4} {rate:>14.6e} {rng:>14.6e}")
    return EXIT_OK


def cmd_validate(args) -> int:
    checks = validate_suite(rtol=args.tol)
    worst = 0
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
        if not c.passed:
            worst = 1
    print(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return worst


# =========================================================================
# Entry point
# =========================================================================


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
