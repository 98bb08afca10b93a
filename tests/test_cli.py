"""Command line interface: parsing, exit codes, and file outputs."""

import csv
import dataclasses
import math
import subprocess
import sys
import warnings

import pytest

from isacbounds.model import ConfigError, ModulationConfig
from isacbounds import bounds, cli
from isacbounds.bounds import crlb_report
from isacbounds.experiments import data_rate, reference_scenario, with_snr
from isacbounds.fim import LabeledMatrix


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


def test_parse_int_and_list():
    assert cli.parse_int("8") == 8
    assert cli.parse_int(" 16 ") == 16
    with pytest.raises(ConfigError):
        cli.parse_int("2.5")
    assert cli.parse_list("0,10,20") == [0.0, 10.0, 20.0]
    assert cli.parse_list("2ns, 4ns") == [2e-9, 4e-9]


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


#: keys whose text is checked where it is used, not when the config is loaded
_STRING_KEYS = ("modulation.scheme", "modulation.decoupling")


@pytest.mark.parametrize("key", [f"{section}.{key}" for section, keys in cli.CONFIG_KEYS.items()
                                 for key in keys if f"{section}.{key}" not in _STRING_KEYS])
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


# --------------------------------------------------------------- bounds verb

def test_bounds_default_run(capsys):
    assert cli.main(["bounds"]) == 0
    out = capsys.readouterr().out
    assert "scheme=sensing" in out
    assert "root range crlb: 9.480270e-04 m" in out
    assert "regulatory" in out and "-> pass" in out
    assert "rank 9" in out


def test_bounds_singular_configuration_exits_3(capsys):
    code = cli.main(["bounds", "--set", "modulation.scheme=ppm",
                     "--set", "modulation.d_data=8"])
    assert code == 3
    out = capsys.readouterr().out
    assert "coupled columns: tau1 ~ dtau_q" in out
    assert "SINGULAR: pick a pilot or differential decoupling\n" in out


def test_bounds_prints_a_singular_frame_ratio_as_below_the_rank_cut(capsys):
    # the smallest singular value of a singular frame is roundoff, so its
    # digits are not printed (plain-SI ppm-raw at the default n_f = 8)
    assert cli.main(["bounds", "--set", "modulation.scheme=ppm",
                     "--set", "modulation.d_data=8"]) == 3
    out = capsys.readouterr().out
    assert f"information matrix: size 10, rank 9, min sv ratio <= {bounds.RANK_RTOL:g}\n" in out
    assert cli.main(["bounds"]) == 0
    ratio = capsys.readouterr().out.split("min sv ratio ")[1].split("\n")[0]
    assert float(ratio) > bounds.RANK_RTOL


def test_bounds_singular_sensing_frame_names_dead_columns(capsys):
    # a sensing frame takes no decoupling: say what it cannot resolve
    assert cli.main(["bounds", "--set", "scenario.n_f=1"]) == 3
    out = capsys.readouterr().out
    assert ("configuration is SINGULAR: this sensing frame cannot resolve "
            "fd1, dfd_2, dfd_3; Doppler needs n_f >= 2\n") in out
    assert "decoupling" not in out.splitlines()[-1]


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
