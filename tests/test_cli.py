"""Command line interface: parsing, exit codes, and file outputs."""

import subprocess
import sys

import pytest

from isacbounds.model import ConfigError
from isacbounds import cli


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
    assert cfg["scenario"]["n_f"] == "32"       # --set beats the file
    assert cfg["scenario"]["snr_db"] == "10"    # file beats defaults
    assert cfg["modulation"]["scheme"] == "sensing"


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
    assert "SINGULAR" in out


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


def test_exit_codes_for_config_errors():
    assert cli.main(["bounds", "--set", "scenario.bogus=1"]) == 2
    assert cli.main(["bounds", "--set", "scenario.n_f=abc"]) == 2
    assert cli.main(["bounds", "--config", "/nonexistent.ini"]) == 2
    assert cli.main(["bounds", "--set", "modulation.scheme=chirp"]) == 2


# --------------------------------------------------------------- sweep verb

@pytest.mark.parametrize("n_f", ("8", "2048"))
@pytest.mark.parametrize("weight", ("-1", "0"))
def test_bounds_rejects_bad_sfd_weight(n_f, weight, capsys):
    code = cli.main(["bounds", "--set", f"scenario.n_f={n_f}",
                     "--set", "modulation.scheme=ppm",
                     "--set", "modulation.decoupling=differential",
                     "--set", f"modulation.d_data={n_f}",
                     "--set", f"modulation.sfd_weight={weight}"])
    assert code == 2
    assert "sfd_weight" in capsys.readouterr().err


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
    assert (tmp_path / "crossover.csv").exists()


def test_pareto_verb(tmp_path, capsys):
    code = cli.main(["pareto", "--out", str(tmp_path),
                     "--set", "scenario.n_f=8"])
    assert code == 0
    out = capsys.readouterr().out
    assert (tmp_path / "pareto.csv").exists()
    assert "root range m" in out


# ------------------------------------------------------------- validate verb

def test_validate_verb(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 13
    assert "FAIL" not in out


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "isacbounds.cli", "bounds"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "root range crlb" in proc.stdout
