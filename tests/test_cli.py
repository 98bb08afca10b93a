"""Command line interface: parsing, exit codes, and file outputs."""

import argparse
import contextlib
import csv
import dataclasses
import io
import math
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacbounds.model import (DECOUPLINGS, ConfigError, Decoupling, Frame, ModulationConfig,
                              Scheme)
from isacbounds import bounds, cli, experiments
from isacbounds.cli import CONFIG_KEYS
from isacbounds.bounds import crlb_report
from isacbounds.experiments import MAX_SWEEP_POINTS, data_rate, reference_scenario, with_snr
from isacbounds.fim import LabeledMatrix

from exact_reference import exact_crlbs, exact_theta_fim


# ------------------------------------------------------------------ parsing

@pytest.mark.parametrize("text,value", [
    ("100ns", 100e-9),
    ("2ns", 2e-9),
    ("1.5us", 1.5e-6),
    ("1ms", 1e-3),
    ("2s", 2.0),
    ("10GHz", 10e9),
    ("3993.6MHz", 3993.6e6),
    ("500kHz", 5e5),
    ("1THz", 1e12),
    ("3.7pJ", 3.7e-12),
    ("37nJ", 37e-9),
    ("2.5", 2.5),
    ("-3", -3.0),
    (" 8 ", 8.0),
])
def test_parse_quantity(text, value):
    assert cli.parse_quantity(text) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("text,value", [("100ns", 1e-07), ("0.2ns", 2e-10), ("60ns", 6e-08),
                                        ("3993.6MHz", 3993.6e6), ("3.7pJ", 3.7e-12),
                                        ("1e-07", 1e-07)])
def test_parse_quantity_scales_units_exactly(text, value):
    assert cli.parse_quantity(text) == value


def test_default_config_is_the_reference_scenario():
    assert cli.build_scenario(cli.load_config(None, [])) == reference_scenario()


def test_default_config_is_the_default_modulation():
    assert cli.build_modulation(cli.load_config(None, [])) == ModulationConfig()


@pytest.mark.parametrize("text", ["abc", "1.2.3ns", "", "ns", "10 lightyears"])
def test_parse_quantity_rejects(text):
    with pytest.raises(ConfigError):
        cli.parse_quantity(text)


@pytest.mark.parametrize("text", ["1e-400", "-1e-400", "1e-330", "1e-400ns"])
def test_parse_quantity_refuses_an_underflow(text):
    # a nonzero value below the float range would silently become 0
    with pytest.raises(ConfigError, match="beyond the float range"):
        cli.parse_quantity(text)


@pytest.mark.parametrize("text,value", [("0", 0.0), ("0e-400", 0.0), ("5e-324", 5e-324)])
def test_parse_quantity_keeps_zero_and_subnormals(text, value):
    assert cli.parse_quantity(text) == value


def test_bounds_names_an_underflowing_key(capsys):
    assert cli.main(["bounds", "--set", "scenario.snr_db=1e-400"]) == 2
    assert "scenario.snr_db: quantity '1e-400'" in capsys.readouterr().err


def test_parse_int_and_list():
    assert cli.parse_int("8") == 8
    assert cli.parse_int(" 16 ") == 16
    with pytest.raises(ConfigError):
        cli.parse_int("2.5")
    assert cli.parse_list("0,10,20") == [0.0, 10.0, 20.0]
    assert cli.parse_list("2ns, 4ns") == [2e-9, 4e-9]


@pytest.mark.parametrize("text,value", [("99999999999999999999", 99999999999999999999),
                                        ("9007199254740993", 2 ** 53 + 1),
                                        ("1e20", 10 ** 20), ("8.0", 8)])
def test_parse_int_is_exact(text, value):
    assert cli.parse_int(text) == value


@pytest.mark.parametrize("text", ["8.0000000001", "1e-400", "100ns", "1e400"])
def test_parse_int_refuses_a_non_integer(text):
    with pytest.raises(ConfigError):
        cli.parse_int(text)


def test_bounds_keeps_the_given_pilot_split(capsys):
    code = cli.main(["bounds", "--set", "scenario.n_f=1e20", "--set", "modulation.scheme=ppm",
                     "--set", "modulation.decoupling=pilot",
                     "--set", "modulation.p_pilots=50000000000000000001",
                     "--set", "modulation.d_data=49999999999999999999"])
    assert code == 0
    assert "p=50000000000000000001 d=49999999999999999999" in capsys.readouterr().out


@pytest.mark.parametrize("sets, header, code", [
    ([], "scheme=sensing decoupling=none n_f=8 L=3 p=0 d=0", 0),
    (["modulation.scheme=ppm"], "scheme=ppm decoupling=none n_f=8 L=3 p=0 d=8", 3),
    (["modulation.scheme=bpsk"], "scheme=bpsk decoupling=none n_f=8 L=3 p=0 d=8", 3),
    (["modulation.scheme=ppm", "modulation.decoupling=differential"],
     "scheme=ppm decoupling=differential n_f=8 L=3 p=0 d=8", 0)],
    ids=["sensing", "ppm-raw", "bpsk-raw", "ppm-diff"])
def test_bounds_header_prints_the_split_the_frame_holds(capsys, sets, header, code):
    # d_data = 0 and d_data = n_f make the same unsplit frame: the header
    # prints its data PRIs, which the data rate counts, not the given d_data
    for d_data in ("0", "8") if sets else ("0",):
        args = [arg for key in [*sets, f"modulation.d_data={d_data}"] for arg in ("--set", key)]
        assert cli.main(["bounds", *args]) == code
        assert capsys.readouterr().out.splitlines()[0] == header


def test_bounds_names_a_non_integer_key(capsys):
    assert cli.main(["bounds", "--set", "modulation.d_data=8.0000000001"]) == 2
    assert "modulation.d_data: expected an integer" in capsys.readouterr().err


def test_load_config_rejects_unknown_keys(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[scenario]\nwhatever = 1\n")
    with pytest.raises(ConfigError):
        cli.load_config(str(ini), [])
    ini.write_text("[nosuchsection]\nn_f = 8\n")
    with pytest.raises(ConfigError):
        cli.load_config(str(ini), [])
    with pytest.raises(ConfigError):
        cli.load_config(None, ["modulation.scheme"])  # missing '='


def test_load_config_layering(tmp_path):
    ini = tmp_path / "ok.ini"
    ini.write_text("[scenario]\nn_f = 16\nsnr_db = 10\n")
    cfg = cli.load_config(str(ini), ["scenario.n_f=32"])
    assert cfg["scenario"]["n_f"] == 32         # --set beats the file
    assert cfg["scenario"]["snr_db"] == 10.0    # file beats defaults
    assert cfg["modulation"]["scheme"] == "sensing"


def test_an_empty_unknown_section_is_refused(tmp_path, capsys):
    ini = tmp_path / "empty.ini"
    ini.write_text("[foo]\n")
    assert cli.main(["bounds", "--config", str(ini)]) == 2
    assert "unknown config section [foo]" in capsys.readouterr().err


@pytest.mark.parametrize("key", [f"{section}.{key}" for section, keys in cli.CONFIG_KEYS.items()
                                 for key in keys])
def test_every_malformed_value_is_refused_by_name(key, capsys):
    # even by a verb that never reads the key
    assert cli.main(["bounds", "--set", f"{key}=abc"]) == 2
    assert f"configuration error: {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("verb,sets", [
    ("bounds", ["sweep.axis=bogus"]),
    ("bounds", ["sweep.outputs=bogus"]),
    ("pareto", ["scenario.n_f=4", "sweep.axis=bogus"]),
])
def test_sweep_names_are_checked_by_every_verb(verb, sets, tmp_path, capsys):
    # a verb that never sweeps still refuses an axis or output the sweep would
    code = cli.main([verb, *(["--out", str(tmp_path)] if verb != "bounds" else []),
                     *(arg for item in sets for arg in ("--set", item))])
    assert code == 2
    key = sets[-1].split("=")[0]
    assert f"configuration error: {key}: unknown " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("verb,sets", [
    ("sweep", ["scenario.n_f=1e999"]),
    ("sweep", ["sweep.stop=1e999"]),
    ("crossover", ["modulation.scheme=ppm", "modulation.decoupling=pilot",
                   "modulation.p_pilots=2", "modulation.d_data=6", "sweep.stop=1e999"]),
    ("bounds", ["modulation.p_pilots=1e999"]),
    ("bounds", ["scenario.f_c=1e999GHz"]),
])
def test_a_quantity_beyond_the_float_range_is_refused_by_name(verb, sets, tmp_path, capsys):
    code = cli.main([verb, *(["--out", str(tmp_path)] if verb != "bounds" else []),
                     *(arg for item in sets for arg in ("--set", item))])
    assert code == 2
    key = sets[-1].split("=")[0]
    assert f"configuration error: {key}: quantity " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("verb,sets", [
    ("sweep", ["modulation.scheme=bogus"]),
    ("pareto", ["scenario.n_f=4", "modulation.decoupling=Bogus"]),
])
def test_an_unknown_enum_value_is_refused_by_name(verb, sets, tmp_path, capsys):
    code = cli.main([verb, "--out", str(tmp_path),
                     *(arg for item in sets for arg in ("--set", item))])
    assert code == 2
    key, value = sets[-1].split("=")
    assert f"configuration error: {key}: unknown {key.split('.')[1]} {value!r}" in (
        capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_enum_values_are_read_in_any_case():
    cfg = cli.load_config(None, ["modulation.scheme=PPM", "modulation.decoupling=Pilot"])
    assert cfg["modulation"]["scheme"] is Scheme.PPM
    assert cfg["modulation"]["decoupling"] is Decoupling.PILOT


@pytest.mark.parametrize("sets", [["sweep.step=1e-320"],
                                  ["sweep.start=-1e308", "sweep.stop=1e308"],
                                  ["sweep.stop=100000", "sweep.step=1"]])
def test_sweep_refuses_a_range_beyond_the_point_limit(sets, tmp_path, capsys):
    code = cli.main(["sweep", "--out", str(tmp_path),
                     *(arg for item in sets for arg in ("--set", item))])
    assert code == 2
    err = capsys.readouterr().err
    assert "sweep.start" in err and "sweep.step" in err
    assert f"more than {MAX_SWEEP_POINTS} points" in err
    assert not list(tmp_path.iterdir())


def test_sweep_values_reach_the_point_limit_exactly():
    cfg = cli.load_config(None, [f"sweep.stop={MAX_SWEEP_POINTS - 1}", "sweep.step=1"])
    assert len(cli.sweep_values(cfg)) == MAX_SWEEP_POINTS


def test_crossover_refuses_a_range_beyond_the_point_limit(tmp_path, capsys):
    code = cli.main(["crossover", "--out", str(tmp_path),
                     "--set", "modulation.scheme=ppm", "--set", "modulation.decoupling=pilot",
                     "--set", "modulation.p_pilots=4", "--set", "sweep.stop=1e300"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"sweep.stop = 1e+300: more than {MAX_SWEEP_POINTS} points" in err
    assert not list(tmp_path.iterdir())


def test_pareto_refuses_a_frame_beyond_the_point_limit(tmp_path, capsys, monkeypatch):
    # one report per pilot count: the cap applies before the first frame
    calls = []
    monkeypatch.setattr(experiments, "crlb_report", lambda *a: calls.append(a))
    code = cli.main(["pareto", "--out", str(tmp_path),
                     "--set", f"scenario.n_f={MAX_SWEEP_POINTS + 1}"])
    assert code == 2
    assert "scenario.n_f" in capsys.readouterr().err
    assert calls == []
    assert not list(tmp_path.iterdir())


# --------------------------------------------------------------- bounds verb

def test_bounds_default_run(capsys):
    assert cli.main(["bounds"]) == 0
    out = capsys.readouterr().out
    assert "scheme=sensing" in out
    assert "root range crlb: 9.480270e-04 m" in out
    assert "regulatory" in out and "-> pass" in out
    assert "effective bandwidth: 562.7 MHz (-10 dB bandwidth 2415.1 MHz)" in out
    assert "rank 9" in out


def test_bounds_runs_a_frame_past_the_index_range(capsys):
    assert cli.main(["bounds", "--set", "scenario.n_f=1e20"]) == 0
    assert "data rate: 0.000000e+00 bit/s" in capsys.readouterr().out


def test_bounds_past_float64_is_a_config_error_without_warnings(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["bounds", "--set", "scenario.n_f=1e300"]) == 2
    assert "overflows float64" in capsys.readouterr().err


def test_bounds_singular_configuration_exits_3(capsys):
    code = cli.main(["bounds", "--set", "modulation.scheme=ppm",
                     "--set", "modulation.d_data=8"])
    assert code == 3
    out = capsys.readouterr().out
    assert out.endswith("configuration is SINGULAR: coupled columns: tau1~dtau_q; "
                        "pick a pilot or differential decoupling\n")
    assert out.count("tau1~dtau_q") == 1 and " ~ " not in out  # the verdict, once


def test_bounds_prints_a_singular_frame_ratio_as_below_the_rank_cut(capsys):
    # a singular report's ratio is 0: its smallest singular value is at or
    # below the rank cut (plain-SI ppm-raw at the default n_f = 8)
    assert cli.main(["bounds", "--set", "modulation.scheme=ppm",
                     "--set", "modulation.d_data=8"]) == 3
    out = capsys.readouterr().out
    assert "information matrix: size 10, rank 9, min sv ratio 0.00e+00\n" in out
    assert cli.main(["bounds"]) == 0
    ratio = capsys.readouterr().out.split("min sv ratio ")[1].split("\n")[0]
    assert float(ratio) > bounds.RANK_RTOL


def test_bounds_singular_sensing_frame_names_dead_columns(capsys):
    # a sensing frame takes no decoupling: say what it cannot resolve
    assert cli.main(["bounds", "--set", "scenario.n_f=1"]) == 3
    out = capsys.readouterr().out
    assert ("configuration is SINGULAR: zero columns: fd1, dfd_2, dfd_3; "
            "Doppler needs n_f >= 2\n") in out
    assert "decoupling" not in out.splitlines()[-1]


def _bounds_args(settings):
    args = ["bounds"]
    for item in settings:
        args += ["--set", item]
    return args


@pytest.mark.parametrize("settings,verdict", [
    (("modulation.scheme=bpsk", "modulation.d_data=8"),
     "coupled columns: fd1~phi_bpsk; pick a pilot decoupling"),
    (("modulation.scheme=ppm", "modulation.decoupling=pilot", "modulation.p_pilots=8",
      "modulation.d_data=0"), "zero columns: dtau_q"),
    (("scenario.n_f=1", "modulation.scheme=ppm", "modulation.decoupling=differential",
      "modulation.d_data=1"), "zero columns: fd1, dfd_2, dfd_3; Doppler needs n_f >= 2"),
    (("scenario.n_f=1", "modulation.scheme=ppm", "modulation.d_data=1"),
     "coupled columns: tau1~dtau_q; zero columns: fd1, dfd_2, dfd_3; Doppler needs n_f >= 2"),
    (("scenario.n_f=2", "modulation.scheme=bpsk", "modulation.d_data=2"),
     "coupled columns: fd1~phi_bpsk"),
])
def test_bounds_singular_line_is_the_verdict_and_what_lifts_it(capsys, settings, verdict):
    # the report's describe(), a decoupling DECOUPLINGS admits for an
    # undecoupled frame, and a second PRI for a dead Doppler column
    assert cli.main(_bounds_args(settings)) == 3
    out = capsys.readouterr().out
    assert out.endswith(f"\nconfiguration is SINGULAR: {verdict}\n")
    assert ", min sv ratio 0.00e+00\n" in out


#: one pilot against 1e8 - 1 data PRIs: within 1e-8 of singular, yet every
#: CRLB is had, in closed form
ONE_PILOT = ("scenario.n_f=1e8", "modulation.scheme=ppm", "modulation.decoupling=pilot",
             "modulation.p_pilots=1", "modulation.d_data=99999999")


@pytest.mark.parametrize("settings", [
    ("modulation.scheme=ppm", "modulation.d_data=8"),
    ("modulation.scheme=bpsk", "modulation.d_data=8"),
    ("scenario.n_f=1",),
    ONE_PILOT,
])
def test_bounds_prints_an_unavailable_crlb_without_a_cause(capsys, settings):
    cfg = cli.load_config(None, list(settings))
    scenario, modulation = cli.build_scenario(cfg), cli.build_modulation(cfg)
    report = crlb_report(scenario, modulation)
    missing = [name for name, value in report.crlb.items() if value is None]
    assert bool(missing) == (settings != ONE_PILOT)
    cli.main(_bounds_args(settings))
    lines = capsys.readouterr().out.splitlines()
    for name in missing:
        assert f"crlb[{name}]: unavailable" in lines
    assert sum(ln.startswith("crlb[") and "unavailable" in ln for ln in lines) == len(missing)
    if not missing:  # the exact tau1, to the seven digits printed
        frame = Frame(scenario, modulation)
        exact = exact_crlbs(exact_theta_fim(frame), frame.theta, ["tau1"])["tau1"]
        assert f"crlb[tau1]: {float(exact):.6e}" in lines


@pytest.mark.parametrize("delays", ["20ns", "20ns,40ns,60ns"])
@pytest.mark.parametrize("n_f", [1, 2, 3])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_bounds_advises_only_a_decoupling_whose_frame_is_nonsingular(capsys, scheme, n_f,
                                                                     delays):
    # the frames the advice could name, built here: one pilot, or all PRIs
    # differential
    sc = cli.build_scenario(cli.load_config(None, [f"scenario.delays={delays}"]))
    sc = dataclasses.replace(sc, n_f=n_f)
    splits = {Decoupling.PILOT: dict(p_pilots=1, d_data=n_f - 1),
              Decoupling.DIFFERENTIAL: dict(d_data=n_f)}
    want = [d.value for d in DECOUPLINGS[scheme] if d in splits
            and not crlb_report(sc, ModulationConfig(scheme, d, **splits[d])).singular]
    d_data = 0 if scheme == Scheme.SENSING else n_f
    code = cli.main(_bounds_args((f"scenario.delays={delays}", f"scenario.n_f={n_f}",
                                  f"modulation.scheme={scheme.value}",
                                  f"modulation.d_data={d_data}")))
    verdict = capsys.readouterr().out.splitlines()[-1]
    advice = [clause for clause in verdict.split("; ") if clause.startswith("pick a ")]
    if want:
        assert code == 3 and advice == [f"pick a {' or '.join(want)} decoupling"]
    else:
        assert advice == []


def test_bounds_refuses_a_sample_grid_that_cannot_hold_a_pulse(capsys):
    assert cli.main(["bounds", "--set", "scenario.f_s=1e20"]) == 2
    err = capsys.readouterr().err
    assert "f_s = 1e+20 Hz" in err and "MAX_WINDOW_SAMPLES" in err and "Traceback" not in err


def test_bounds_refuses_a_decoupling_the_scheme_does_not_admit(capsys):
    # the advice for a raw BPSK frame names only frames that build
    assert cli.main(["bounds", "--set", "modulation.scheme=bpsk",
                     "--set", "modulation.decoupling=differential",
                     "--set", "modulation.d_data=8"]) == 2
    assert "bpsk frames take decoupling none or pilot" in capsys.readouterr().err


def test_bounds_pilot_configuration(capsys):
    code = cli.main(["bounds",
                     "--set", "modulation.scheme=ppm",
                     "--set", "modulation.decoupling=pilot",
                     "--set", "modulation.p_pilots=4",
                     "--set", "modulation.d_data=4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "crlb[dtau_q]" in out
    assert "data rate: 5.000000e+06" in out


def test_bounds_snr_override_scales_range(capsys):
    assert cli.main(["bounds", "--set", "scenario.snr_db=20"]) == 0
    out = capsys.readouterr().out
    assert "root range crlb: 9.480270e-05 m" in out


def test_bounds_unit_suffixes_accepted(capsys):
    code = cli.main(["bounds", "--set", "scenario.t_f=100ns",
                     "--set", "scenario.f_s=10GHz",
                     "--set", "scenario.alpha=0.2ns"])
    assert code == 0
    assert "root range crlb: 9.480270e-04 m" in capsys.readouterr().out


def test_exit_codes_for_config_errors(capsys):
    assert cli.main(["bounds", "--set", "scenario.bogus=1"]) == 2
    assert cli.main(["bounds", "--set", "scenario.n_f=abc"]) == 2
    assert cli.main(["bounds", "--config", "/nonexistent.ini"]) == 2
    assert cli.main(["bounds", "--set", "modulation.scheme=chirp"]) == 2
    assert cli.main(["bounds", "--set", "scenario.f_s=1.5.3"]) == 2
    assert ("configuration error: scenario.f_s: cannot parse quantity '1.5.3'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("sets,message", [
    (["scenario.delays=,"], "scenario.delays: expected a comma-separated list, got ','"),
    (["scenario.dopplers=1,2"], "dopplers list must match delays list"),
    (["scenario.amps=1,2"], "amps list must match delays list"),
])
def test_bounds_refuses_a_list_that_misses_the_paths(sets, message, capsys):
    assert cli.main(["bounds", *(arg for item in sets for arg in ("--set", item))]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


def test_sweep_refuses_a_zero_step(tmp_path, capsys):
    assert cli.main(["sweep", "--out", str(tmp_path), "--set", "sweep.step=0"]) == 2
    assert "bad sweep range start=0.0 stop=30.0 step=0.0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("verb", ["sweep", "pareto"])
def test_an_out_path_under_a_regular_file_is_an_io_error(verb, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main([verb, "--out", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "Traceback" not in err


def test_bounds_rejects_out_of_range_amplitude(capsys):
    code = cli.main(["bounds", "--set", "scenario.delays=20ns",
                     "--set", "scenario.amps=1e200"])
    assert code == 2
    assert "per-PRI information" in capsys.readouterr().err


@pytest.mark.parametrize("amp,frame", (("1e-160", []),
                                       ("1e-160", ["--set", "modulation.scheme=ppm",
                                                   "--set", "modulation.decoupling=differential"]),
                                       ("1e-155", [])),
                         ids=("sensing-1e-160", "ppm-diff-1e-160", "sensing-1e-155"))
def test_bounds_rejects_subnormal_information(amp, frame, capsys):
    # the cross-check, the equilibration and the Schur step all lose their
    # meaning on subnormal entries: refuse before any of them runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["bounds", "--set", "scenario.delays=20ns",
                         "--set", f"scenario.amps={amp}", *frame])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize("alpha", ("0.05ns", "1e-30", "1e-200"))
def test_bounds_rejects_undersampled_pulse(alpha, capsys):
    code = cli.main(["bounds", "--set", f"scenario.alpha={alpha}"])
    assert code == 2
    err = capsys.readouterr().err
    assert "alpha * f_s" in err
    assert "amplitude" not in err


@pytest.mark.parametrize("key,value", [("t_f", "-1"), ("t_f", "0"), ("t_f", "1e300"),
                                       ("sigma2", "-1"), ("sigma2", "0"),
                                       ("snr_db", "1e6"), ("snr_db", "1e300"),
                                       ("n_f", "1e308")])
def test_bounds_refuses_a_value_outside_the_model_by_its_key(key, value, capsys):
    # the dB -> amplitude step, the samples per PRI and the frame length
    # refuse these before any arithmetic fails, and blame the key, not the
    # amplitude it sets
    assert cli.main(["bounds", "--set", f"scenario.{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and key in err
    assert "amplitude" not in err


def test_sweep_reports_a_refused_row_and_exits_4_on_a_defect(monkeypatch, tmp_path, capsys):
    argv = ["sweep", "--out", str(tmp_path), "--set", "sweep.values=0,1e6"]
    assert cli.main(argv) == 0
    assert "[ConfigError: snr_db = 1000000.0 dB" in capsys.readouterr().out
    # axis values whose arithmetic would overflow are refused rows too
    pilot = ["--set", "modulation.scheme=ppm", "--set", "modulation.decoupling=pilot",
             "--set", "modulation.p_pilots=4", "--set", "modulation.d_data=4"]
    for axis, values, refusal in (("pilot_ratio", "0.5,1e308", "[ConfigError: pilot_ratio 1e+308"),
                                  ("n_f", "8,1e308", "[ConfigError: n_f must be <= 8.988e+307")):
        assert cli.main(["sweep", "--out", str(tmp_path), *pilot, "--set", f"sweep.axis={axis}",
                         "--set", f"sweep.values={values}"]) == 0
        assert refusal in capsys.readouterr().out

    def defect(*args):
        raise RuntimeError("not a configuration error")

    monkeypatch.setattr(experiments, "crlb_report", defect)
    assert cli.main(argv) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err.startswith(
        "internal error: RuntimeError: not a configuration error")


def test_unexpected_exception_exits_4(monkeypatch, capsys):
    real = bounds.closed_form_theta_fim

    def skewed(*args, **kwargs):
        out = real(*args, **kwargs)
        return LabeledMatrix(out.data * (1.0 + 1e-6), out.layout)

    monkeypatch.setattr(bounds, "closed_form_theta_fim", skewed)
    assert cli.main(["bounds"]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: ")
    assert "(tau1, tau1)" in err


@pytest.mark.parametrize("argv", (["bounds", "--out", "unused"],
                                  ["bounds", "--tol", "5"],
                                  ["validate", "--set", "scenario.n_f=4"],
                                  ["validate", "--out", "unused"],
                                  ["sweep", "--tol", "5"]))
def test_verbs_refuse_options_they_do_not_read(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    runs = (["validate"], ["bounds", "--set", "scenario.n_f=64"])
    fresh = []
    for argv in runs:
        cli.make_parser.cache_clear()
        fresh.append((cli.main(argv), capsys.readouterr().out))

    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.make_parser.cache_clear()
    again, counts = [], []
    for argv in runs:
        again.append((cli.main(argv), capsys.readouterr().out))
        counts.append(len(built))
    assert again == fresh
    assert [code for code, _ in fresh] == [0, 0]
    assert counts[0] > 1 and counts[1] == counts[0]


# --------------------------------------------------------------- sweep verb

@pytest.mark.parametrize("n_f", ("8", "2048"))
@pytest.mark.parametrize("weight", ("-4", "-1", "0"))
def test_bounds_rejects_bad_sfd_weight(n_f, weight, capsys):
    code = cli.main(["bounds", "--set", f"scenario.n_f={n_f}",
                     "--set", "modulation.scheme=ppm",
                     "--set", "modulation.decoupling=differential",
                     "--set", f"modulation.d_data={n_f}",
                     "--set", f"modulation.sfd_weight={weight}"])
    assert code == 2
    assert "sfd_weight" in capsys.readouterr().err


def test_bounds_rejects_overflowing_sfd_weight(capsys):
    # a finite weight whose reference information overflows float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["bounds", "--set", "modulation.scheme=ppm",
                         "--set", "modulation.decoupling=differential",
                         "--set", "modulation.sfd_weight=1e300"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: information entry (tau1, tau1) is ")


def test_sweep_writes_csv(tmp_path, capsys):
    code = cli.main(["sweep", "--out", str(tmp_path),
                     "--set", "modulation.scheme=ppm",
                     "--set", "modulation.decoupling=pilot",
                     "--set", "modulation.p_pilots=4",
                     "--set", "modulation.d_data=4",
                     "--set", "sweep.axis=snr_db",
                     "--set", "sweep.start=0", "--set", "sweep.stop=20",
                     "--set", "sweep.step=10"])
    assert code == 0
    path = tmp_path / "sweep_snr_db.csv"
    assert path.exists()
    lines = path.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert any("generator = isacbounds" in ln for ln in meta)
    body = [ln for ln in lines if not ln.startswith("# ")]
    assert body[0].startswith("snr_db,")
    assert len(body) == 4  # header + 3 rows


def test_sweep_reads_sfd_weight_from_the_modulation(tmp_path, capsys):
    sets = ["modulation.scheme=ppm", "modulation.decoupling=differential",
            "modulation.d_data=8", "modulation.sfd_weight=2.5",
            "sweep.axis=snr_db", "sweep.values=0,10"]
    code = cli.main(["sweep", "--out", str(tmp_path),
                     *(arg for item in sets for arg in ("--set", item))])
    assert code == 0
    lines = (tmp_path / "sweep_snr_db.csv").read_text().splitlines()
    assert "# sfd_weight = 2.5" in lines
    cfg = cli.load_config(None, sets)
    scenario, modulation = cli.build_scenario(cfg), cli.build_modulation(cfg)
    assert modulation.sfd_weight == 2.5
    unweighted = dataclasses.replace(modulation, sfd_weight=1.0)
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("# ")))[1:]
    for snr_db, root_range, root_doppler, rate, error in rows:
        sc = with_snr(scenario, float(snr_db))
        report = crlb_report(sc, modulation)
        assert float(root_range) == math.sqrt(report.range_crlb_m2)
        assert float(root_doppler) == math.sqrt(report.crlb["fd1"])
        assert float(rate) == data_rate(sc, modulation)
        assert error == ""
        assert report.range_crlb_m2 < crlb_report(sc, unweighted).range_crlb_m2


def test_sweep_rejects_unknown_outputs(tmp_path, capsys):
    code = cli.main(["sweep", "--out", str(tmp_path),
                     "--set", "sweep.outputs=root_range_crlb_m,bogus"])
    assert code == 2
    assert "unknown sweep outputs" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["bounds", "sweep"])
def test_amps_refuse_an_snr_away_from_its_default(verb, tmp_path, capsys):
    # given amps set every amplitude, so the SNR would be ignored
    sweep = ["--out", str(tmp_path), "--set", "sweep.axis=n_f", "--set", "sweep.values=2,4"]
    argv = [verb, *(sweep if verb == "sweep" else []),
            "--set", "scenario.amps=1e-3,2e-3,5e-3"]
    assert cli.main([*argv, "--set", "scenario.snr_db=30"]) == 2
    err = capsys.readouterr().err
    assert "scenario.amps" in err and "scenario.snr_db" in err
    assert not list(tmp_path.iterdir())
    assert cli.main([*argv, "--set", "scenario.snr_db=0"]) == 0


def test_sweep_off_the_snr_axis_reads_amps(tmp_path):
    bodies = []
    for amps in ("", "1e-3,2e-3,5e-3"):
        out = tmp_path / str(len(bodies))
        assert cli.main(["sweep", "--out", str(out), "--set", "sweep.axis=n_f",
                         "--set", "sweep.values=2,4", "--set", f"scenario.amps={amps}"]) == 0
        bodies.append([ln for ln in (out / "sweep_n_f.csv").read_text().splitlines()
                       if not ln.startswith("# ")])
    assert bodies[0][0] == bodies[1][0]
    assert bodies[0][1:] != bodies[1][1:]


def test_sweep_explicit_values(tmp_path):
    code = cli.main(["sweep", "--out", str(tmp_path),
                     "--set", "sweep.axis=n_f",
                     "--set", "sweep.values=2,4,8"])
    assert code == 0
    body = [ln for ln in (tmp_path / "sweep_n_f.csv").read_text().splitlines()
            if not ln.startswith("# ")]
    assert len(body) == 4


# ----------------------------------------------------- crossover/pareto verbs

def test_crossover_verb(tmp_path, capsys):
    code = cli.main(["crossover", "--out", str(tmp_path),
                     "--set", "modulation.scheme=ppm",
                     "--set", "modulation.decoupling=pilot",
                     "--set", "modulation.p_pilots=4",
                     "--set", "modulation.d_data=4",
                     "--set", "sweep.start=2", "--set", "sweep.stop=30"])
    assert code == 0
    out = capsys.readouterr().out
    assert "d_data = 22" in out
    assert "SNR-invariant" in out
    assert "scanning" not in out  # sweep.start = 2 needs no raise
    assert (tmp_path / "crossover.csv").exists()


def test_crossover_says_when_its_range_holds_none(tmp_path, capsys):
    # the 4-pilot crossover is at d_data = 22, past this scan
    code = cli.main(["crossover", "--out", str(tmp_path),
                     "--set", "modulation.scheme=ppm", "--set", "modulation.decoupling=pilot",
                     "--set", "modulation.p_pilots=4", "--set", "modulation.d_data=4",
                     "--set", "sweep.start=2", "--set", "sweep.stop=5"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "no crossover for d_data in [2, 5]; extend the range with --set sweep.stop=<d>")
    assert (tmp_path / "crossover.csv").exists()


@pytest.mark.parametrize("start", ["0", "1"])
def test_crossover_says_when_it_raises_the_start(start, capsys):
    code = cli.main(["crossover", "--set", "modulation.scheme=ppm",
                     "--set", "modulation.decoupling=pilot",
                     "--set", "modulation.p_pilots=4", "--set", "modulation.d_data=4",
                     "--set", f"sweep.start={start}", "--set", "sweep.stop=30"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (f"scanning d_data in [2, 30]: sweep.start = {start} is raised to 2, "
                      "as one data PRI cannot carry the Doppler ramp")
    assert "d_data = 22" in out[1]


@pytest.mark.parametrize("sets,message", [
    (["sweep.values=3,4"], "unset sweep.values"),
    (["sweep.start=10", "sweep.stop=5"], "sweep.stop = 5 is below the first scanned d_data 10"),
    (["sweep.start=0", "sweep.stop=1"], "sweep.stop = 1 is below the first scanned d_data 2"),
    (["sweep.start=2", "sweep.stop=30", "sweep.step=7"], "unset sweep.step"),
])
def test_crossover_refuses_a_range_it_would_not_scan(sets, message, tmp_path, capsys):
    code = cli.main(["crossover", "--out", str(tmp_path),
                     "--set", "modulation.scheme=ppm", "--set", "modulation.decoupling=pilot",
                     "--set", "modulation.p_pilots=4", "--set", "modulation.d_data=4",
                     *(arg for item in sets for arg in ("--set", item))])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "crossover.csv").exists()


def test_crossover_names_a_fractional_start(tmp_path, capsys):
    code = cli.main(["crossover", "--out", str(tmp_path),
                     "--set", "modulation.scheme=ppm", "--set", "modulation.decoupling=pilot",
                     "--set", "modulation.p_pilots=4", "--set", "modulation.d_data=4",
                     "--set", "sweep.start=2.5", "--set", "sweep.stop=30"])
    assert code == 2
    assert "sweep.start value 2.5 is not an integer" in capsys.readouterr().err
    assert not (tmp_path / "crossover.csv").exists()


def test_sweep_names_a_fractional_frame_count(tmp_path, capsys):
    code = cli.main(["sweep", "--out", str(tmp_path), "--set", "sweep.axis=n_f",
                     "--set", "sweep.values=8.7,8"])
    assert code == 0
    with open(tmp_path / "sweep_n_f.csv", newline="") as fh:
        rows = [row for row in csv.reader(fh) if not row[0].startswith("#")][1:]
    assert rows[0][0] == "8.7" and rows[0][-1] == "ConfigError: n_f value 8.7 is not an integer"
    assert rows[0][1] == "nan"
    assert float(rows[1][1]) == pytest.approx(9.480270e-04, rel=1e-6) and rows[1][-1] == ""


@pytest.mark.parametrize("scheme,decoupling", [("bpsk", "pilot"), ("ppm", "differential"),
                                               ("ppm", "none")])
def test_crossover_refuses_a_frame_it_does_not_scan(scheme, decoupling, tmp_path, capsys):
    # the scan compares PPM pilot and PPM differential frames whatever the
    # [modulation] section says, so any other frame would be ignored
    d_data = "6" if decoupling == "pilot" else "8"
    code = cli.main(["crossover", "--out", str(tmp_path),
                     "--set", f"modulation.scheme={scheme}",
                     "--set", f"modulation.decoupling={decoupling}",
                     "--set", f"modulation.p_pilots={2 if decoupling == 'pilot' else 0}",
                     "--set", f"modulation.d_data={d_data}", "--set", "sweep.stop=12"])
    assert code == 2
    err = capsys.readouterr().err
    assert "modulation.scheme = ppm and modulation.decoupling = pilot" in err
    assert not (tmp_path / "crossover.csv").exists()


def test_pareto_verb(tmp_path, capsys):
    code = cli.main(["pareto", "--out", str(tmp_path),
                     "--set", "scenario.n_f=8"])
    assert code == 0
    out = capsys.readouterr().out
    assert (tmp_path / "pareto.csv").exists()
    assert "root range m" in out


@pytest.mark.parametrize("key", ["modulation.scheme=bogus", "modulation.sfd_weight=-1"])
def test_pareto_verb_validates_the_modulation_section(tmp_path, capsys, key):
    # the table reads only xi_ppm, but a bad [modulation] key is still a
    # configuration error, as it is for every other verb
    code = cli.main(["pareto", "--out", str(tmp_path), "--set", "scenario.n_f=4",
                     "--set", key])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "pareto.csv").exists()


@pytest.mark.parametrize("key", ["scheme=ppm", "decoupling=pilot", "xi_bpsk=1.0",
                                 "p_pilots=2", "d_data=2", "sfd_weight=2"])
def test_pareto_refuses_modulation_keys_it_does_not_read(key, tmp_path, capsys):
    # the table picks its own frames from xi_ppm alone; any other
    # [modulation] value set away from its default would have no effect
    code = cli.main(["pareto", "--out", str(tmp_path), "--set", "scenario.n_f=4",
                     "--set", f"modulation.{key}"])
    assert code == 2
    assert f"unset modulation.{key.split('=')[0]}" in capsys.readouterr().err
    assert not (tmp_path / "pareto.csv").exists()


def test_pareto_accepts_modulation_keys_at_their_defaults(tmp_path):
    code = cli.main(["pareto", "--out", str(tmp_path), "--set", "scenario.n_f=4",
                     "--set", "modulation.scheme= Sensing", "--set", "modulation.p_pilots=0",
                     "--set", "modulation.sfd_weight=1", "--set", f"modulation.xi_bpsk={math.pi}",
                     "--set", "modulation.xi_ppm=1ns"])
    assert code == 0
    assert (tmp_path / "pareto.csv").exists()


@pytest.mark.parametrize("verb,csv_name", [("crossover", "crossover.csv"),
                                           ("pareto", "pareto.csv"),
                                           ("sweep", "sweep_snr_db.csv")])
def test_snr_verbs_refuse_amps(verb, csv_name, tmp_path, capsys):
    # these tables set every amplitude from an SNR (sweep on its default
    # snr_db axis), so given amps would be ignored
    code = cli.main([verb, "--out", str(tmp_path), "--set", "scenario.n_f=4",
                     "--set", "scenario.amps=1e-3,2e-3,5e-3",
                     "--set", "modulation.scheme=ppm", "--set", "modulation.decoupling=pilot",
                     "--set", "modulation.p_pilots=2", "--set", "modulation.d_data=2"])
    assert code == 2
    assert "scenario.amps" in capsys.readouterr().err
    assert not (tmp_path / csv_name).exists()


def test_pareto_verb_refuses_a_leaking_shift(tmp_path, capsys):
    code = cli.main(["pareto", "--out", str(tmp_path), "--set", "scenario.n_f=4",
                     "--set", "modulation.xi_ppm=60ns"])
    assert code == 2
    assert "xi_ppm" in capsys.readouterr().err
    assert not (tmp_path / "pareto.csv").exists()


# ------------------------------------------------------------- validate verb

def test_validate_verb(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 13
    assert "FAIL" not in out


def test_validate_verb_fails_a_tolerance_the_probe_cannot_meet(capsys):
    # the probe agrees with the closed form to about 1e-7, not to 1e-300
    assert cli.main(["validate", "--tol", "1e-300"]) == 1
    out = capsys.readouterr().out.splitlines()
    failed = [line for line in out if line.startswith("FAIL  ")]
    assert failed and all("numeric-vs-analytic" in line for line in failed)
    assert out[-1] == f"{13 - len(failed)}/13 checks passed"


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_validate_verb_refuses_a_bad_tolerance(tol, capsys):
    assert cli.main(["validate", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert "tolerance" in captured.err
    assert "PASS" not in captured.out


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "isacbounds.cli", "bounds"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "root range crlb" in proc.stdout


def test_report_runs_without_scipy():
    # scipy is a test-only dependency: importing the package and the CLI and
    # computing one report must not load it
    code = (
        "import sys\n"
        "import isacbounds, isacbounds.cli\n"
        "from isacbounds.bounds import crlb_report\n"
        "from isacbounds.experiments import reference_scenario\n"
        "from isacbounds.model import Decoupling, ModulationConfig, Scheme\n"
        "crlb_report(reference_scenario(n_f=8), ModulationConfig(\n"
        "    Scheme.PPM, Decoupling.PILOT, p_pilots=4, d_data=4))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------------- fuzzed verbs

#: the numbers each drawn key takes: zero, a sign, the float range's edges, non-numbers
FUZZ_NUMBERS = ("0", "-1", "1e-300", "5e-324", "1", "2", "1e6", "1e300", "nan", "inf")
#: the names a name key takes: its valid ones plus a bogus one
FUZZ_NAMES = {
    "modulation.scheme": [s.value for s in Scheme],
    "modulation.decoupling": [d.value for d in Decoupling],
    "sweep.axis": list(experiments.SWEEP_AXES),
    "sweep.outputs": list(experiments.SWEEP_OUTPUTS),
}
#: a configuration each verb runs on, the drawn keys set over it
FUZZ_BASE = {
    "bounds": [], "sweep": [], "pareto": [],
    "crossover": ["modulation.scheme=ppm", "modulation.decoupling=pilot", "modulation.p_pilots=1",
                  "modulation.d_data=1", "sweep.start=2", "sweep.stop=8"],
}
#: most memory a refused run may trace (the largest seen is about 0.13 MB)
FUZZ_PEAK_BYTES = 1_000_000


def _fuzz_value(key):
    section, name = key.split(".")
    if key in FUZZ_NAMES:
        return st.sampled_from(FUZZ_NAMES[key] + ["bogus"])
    if CONFIG_KEYS[section][name][1] in (cli.parse_list, cli._optional_list):
        return st.lists(st.sampled_from(FUZZ_NUMBERS), min_size=1, max_size=3).map(",".join)
    return st.sampled_from(FUZZ_NUMBERS)


def _fuzz_settings():
    keys = [f"{section}.{key}" for section, keys in CONFIG_KEYS.items() for key in keys]
    return st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True).flatmap(
        lambda drawn: st.tuples(*(_fuzz_value(k).map(lambda v, k=k: f"{k}={v}") for k in drawn)))


def _run_quietly(verb, sets, traced=False):
    """cli.main on ``verb`` with ``sets`` over the verb's base, its output in a
    fresh directory: the exit code, stderr and the traced memory peak (or 0)."""
    with tempfile.TemporaryDirectory() as out:
        argv = [verb, *(arg for item in (*FUZZ_BASE[verb], *sets) for arg in ("--set", item))]
        if verb != "bounds":
            argv += ["--out", out]
        stderr = io.StringIO()
        if traced:
            tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return code, stderr.getvalue(), peak


@given(verb=st.sampled_from(sorted(FUZZ_BASE)), sets=_fuzz_settings())
@settings(max_examples=150, deadline=None)
def test_every_verb_answers_any_drawn_config_with_an_exit_code(verb, sets):
    # 150 examples in about 4 s: any value of one or two keys ends in a report
    # (0, or 3 from bounds on a singular frame) or a named refusal (2), never
    # a traceback, and a refusal, run again under tracemalloc, stays small
    code, err, _ = _run_quietly(verb, sets)
    assert code in ((0, 2, 3) if verb == "bounds" else (0, 2)), (sets, err)
    assert "Traceback" not in err, sets
    if code == 2:
        assert err.startswith(("configuration error: ", "i/o error: ")), (sets, err)
        assert _run_quietly(verb, sets, traced=True)[2] < FUZZ_PEAK_BYTES, sets
