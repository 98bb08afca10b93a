"""Acceptance gate.

Each test covers one acceptance criterion end to end and prints a single
``[acceptance] criterion N (<name>): PASS|FAIL`` line (visible with
``pytest -rA`` or ``-s``).  Tolerances are stated inline next to each check.

Frozen reference values (computed from the closed forms and pinned):
  root range CRLB, 1 path, 8 PRIs, 0 dB   : 9.48026992620368e-4 m
  root Doppler CRLB, 1 path, 2048 PRIs, 0 dB : 0.9409031149368619 Hz
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from isacbounds.model import (
    Decoupling,
    Frame,
    ModulationConfig,
    Scheme,
    check_regulatory,
)
from isacbounds.fim import observation_fim_analytic, observation_fim_numeric
from isacbounds.bounds import (
    assemble_theta_fim,
    closed_form_theta_fim,
    crlb_report,
    efim,
)
from isacbounds.experiments import (
    fim_deviation,
    find_crossover,
    reference_scenario,
    with_snr,
)

from conftest import make_modulation
from differential_reference import differential_chain

ROOT_RANGE_0DB_M = 9.48026992620368e-4
ROOT_DOPPLER_2048_0DB_HZ = 0.9409031149368619


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS")


def _root_range_m(sc, mod, **kw):
    rep = crlb_report(sc, mod, **kw)
    return float(np.sqrt(rep.range_crlb_m2))


def _root_doppler_hz(sc, mod, **kw):
    rep = crlb_report(sc, mod, **kw)
    return float(np.sqrt(rep.crlb["fd1"]))


# --------------------------------------------------------------- criterion 1

def test_criterion_1_numeric_oracle_agreement():
    """Finite differences vs. closed forms over 12 path/frame combinations.

    Tolerance: normalized worst-entry deviation <= 2e-2 at 10 GHz sampling
    and <= 2e-3 at 100 GHz sampling; wall clock under two minutes.
    """
    grid = {
        (1, 1): "sensing", (1, 2): "ppm-raw", (1, 4): "bpsk-raw", (1, 8): "ppm-pilot",
        (2, 1): "ppm-diff", (2, 2): "bpsk-pilot", (2, 4): "sensing", (2, 8): "ppm-raw",
        (3, 1): "bpsk-raw", (3, 2): "ppm-diff", (3, 4): "ppm-pilot", (3, 8): "bpsk-pilot",
    }
    t0 = time.monotonic()
    with criterion(1, "numeric oracle agreement"):
        for (n_paths, n_f), kind in grid.items():
            mod = make_modulation(kind, n_f)
            for f_s, tol in ((10e9, 2e-2), (100e9, 2e-3)):
                sc = reference_scenario(n_f=n_f, n_paths=n_paths, f_s=f_s)
                ana = observation_fim_analytic(sc, mod)
                num = observation_fim_numeric(sc, mod)
                dev = fim_deviation(num.data, ana.data)
                assert dev < tol, (kind, n_paths, n_f, f_s, dev)
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f} s"


# --------------------------------------------------------------- criterion 2

def test_criterion_2_singularity_detection():
    """Structural couplings are detected with the exact offending columns.

    Undecoupled PPM/BPSK lose exactly one rank to one coupled pair; a single
    PRI kills the Doppler column; pilot and differential frames stay regular.
    """
    with criterion(2, "singularity detection"):
        sc = reference_scenario()
        rep = crlb_report(sc, ModulationConfig(Scheme.PPM, d_data=8))
        assert rep.singular
        assert rep.size - rep.rank == 1
        assert rep.coupled_columns == (("tau1", "dtau_q"),)
        assert all(v is None for v in rep.crlb.values())

        rep = crlb_report(sc, ModulationConfig(Scheme.BPSK, d_data=8))
        assert rep.singular
        assert rep.size - rep.rank == 1
        assert rep.coupled_columns == (("fd1", "phi_bpsk"),)

        rep = crlb_report(reference_scenario(n_f=1, n_paths=1),
                          ModulationConfig(Scheme.SENSING))
        assert rep.singular
        assert rep.zero_columns == ("fd1",)
        assert rep.rank == rep.size - 1

        for kind in ("ppm-pilot", "bpsk-pilot", "ppm-diff"):
            rep = crlb_report(sc, make_modulation(kind, 8))
            assert not rep.singular and rep.rank == rep.size, kind


# --------------------------------------------------------------- criterion 3

def test_criterion_3_exact_decoupling_identities():
    """Pilot decoupling costs nothing where the modulation is invisible.

    All three identities hold to a relative 1e-10: the BPSK delay block equals
    the sensing-only delay block, pilot-BPSK ranging equals sensing-only
    ranging, and pilot-PPM Doppler equals sensing-only Doppler.
    """
    with criterion(3, "exact decoupling identities"):
        sc = reference_scenario()
        mod_s = ModulationConfig(Scheme.SENSING)

        fim_b = closed_form_theta_fim(Frame(sc, make_modulation("bpsk-pilot", 8)))
        fim_s = closed_form_theta_fim(Frame(sc, mod_s))
        np.testing.assert_allclose(fim_b.block("delay", "delay"),
                                   fim_s.block("delay", "delay"), rtol=1e-10)

        rep_b = crlb_report(sc, make_modulation("bpsk-pilot", 8))
        rep_s = crlb_report(sc, mod_s)
        assert rep_b.crlb["tau1"] == pytest.approx(rep_s.crlb["tau1"], rel=1e-10)

        rep_p = crlb_report(sc, make_modulation("ppm-pilot", 8))
        assert rep_p.crlb["fd1"] == pytest.approx(rep_s.crlb["fd1"], rel=1e-10)


# --------------------------------------------------------------- criterion 4

def test_criterion_4_reference_curve_anchors():
    """Frozen anchor points and threshold crossings of the bound curves.

    Root range CRLB at 20 dB (1 path, 8 PRIs) matches the pinned value to
    1e-6 relative and crosses 1e-4 m inside [10, 30] dB; root Doppler CRLB at
    0 dB (2048 PRIs) matches to 1e-6 relative and crosses 1 Hz inside
    [-3, 3] dB.
    """
    with criterion(4, "reference curve anchors"):
        mod = ModulationConfig(Scheme.SENSING)
        sc = reference_scenario(n_f=8, n_paths=1)
        got = _root_range_m(with_snr(sc, 20.0), mod)
        assert got == pytest.approx(ROOT_RANGE_0DB_M / 10.0, rel=1e-6)

        def range_at(snr_db):
            return _root_range_m(with_snr(sc, snr_db), mod)
        lo, hi = 10.0, 30.0
        assert range_at(lo) > 1e-4 > range_at(hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if range_at(mid) > 1e-4:
                lo = mid
            else:
                hi = mid
        assert 10.0 < 0.5 * (lo + hi) < 30.0
        # closed form for the crossing: 20*log10(anchor / 1e-4)
        want = 20.0 * np.log10(ROOT_RANGE_0DB_M / 1e-4)
        assert 0.5 * (lo + hi) == pytest.approx(want, abs=1e-6)

        sc2048 = reference_scenario(n_f=2048, n_paths=1)
        got = _root_doppler_hz(sc2048, mod)
        assert got == pytest.approx(ROOT_DOPPLER_2048_0DB_HZ, rel=1e-6)

        def doppler_at(snr_db):
            return _root_doppler_hz(with_snr(sc2048, snr_db), mod)
        assert doppler_at(-3.0) > 1.0 > doppler_at(3.0)
        want = 20.0 * np.log10(ROOT_DOPPLER_2048_0DB_HZ / 1.0)
        assert -3.0 < want < 3.0


# --------------------------------------------------------------- criterion 5

def test_criterion_5_pilot_vs_differential_crossover():
    """Short frames favor the pilot split; long data runs favor differential.

    At 8 PRIs the differential frame ranges worse than a 4+4 pilot frame; the
    break-even data length against 4 pilots lies in [18, 26] and does not move
    with SNR.
    """
    with criterion(5, "pilot vs differential crossover"):
        sc = reference_scenario()
        pilot = _root_range_m(sc, make_modulation("ppm-pilot", 8))
        diff = _root_range_m(sc, make_modulation("ppm-diff", 8))
        assert diff > pilot

        res = find_crossover(sc, p_pilots=4, d_values=range(2, 41))
        assert res.found
        assert 18 <= res.d_cross <= 26
        assert res.snr_invariant


# --------------------------------------------------------------- criterion 6

def test_criterion_6_data_assistance_orderings():
    """How much each data scheme helps, at an even pilot/data split.

    Ranging information (equal amplitudes, P = D, per-path per-PRI delay
    information lam): BPSK keeps every PRI (2P lam), PPM keeps the pilots
    plus half the data benefit (1.5P lam), pilots alone keep P lam.  Doppler:
    PPM matches the full frame, BPSK pays for the unknown phase offset,
    pilots alone trail far behind.
    """
    with criterion(6, "data assistance orderings"):
        sc = reference_scenario()          # 8 PRIs, L = 3, 0 dB
        sc_half = reference_scenario(n_f=4)
        lam = sc.per_pri_information[0][0]
        P = 4

        fim_b = assemble_theta_fim(Frame(sc, make_modulation("bpsk-pilot", 8)))
        fim_p = assemble_theta_fim(Frame(sc, make_modulation("ppm-pilot", 8)))
        fim_0 = assemble_theta_fim(Frame(sc_half, ModulationConfig(Scheme.SENSING)))
        e_b = efim(fim_b, "tau1")[0, 0]
        e_p = efim(fim_p, "tau1")[0, 0]
        e_0 = efim(fim_0, "tau1")[0, 0]
        assert e_b == pytest.approx(2.0 * P * lam, rel=1e-9)
        assert e_p == pytest.approx(1.5 * P * lam, rel=1e-9)
        assert e_0 == pytest.approx(1.0 * P * lam, rel=1e-9)
        assert e_b > e_p > e_0

        mod_s = ModulationConfig(Scheme.SENSING)
        d_p = _root_doppler_hz(sc, make_modulation("ppm-pilot", 8))
        d_b = _root_doppler_hz(sc, make_modulation("bpsk-pilot", 8))
        d_0 = _root_doppler_hz(sc_half, mod_s)
        d_full = _root_doppler_hz(sc, mod_s)
        assert d_p == pytest.approx(d_full, rel=1e-10)  # PPM: full-frame Doppler
        assert d_p < d_b < d_0


# --------------------------------------------------------------- criterion 7

def test_criterion_7_differential_noise_doubling():
    """Differencing against the reference doubles the effective noise.

    Every per-PRI difference-delay diagonal equals (reference + data)
    information exactly, and every cross term between difference delays
    carries exactly the common reference information, to machine precision.
    """
    with criterion(7, "differential noise doubling"):
        sc = reference_scenario(n_f=4, n_paths=2)
        res = differential_chain(sc, observation_fim_analytic(sc, make_modulation("ppm-diff", 4)))
        lam = sc.per_pri_information[0]
        for k in range(4):
            dd = np.diag(res.i_diffseq_raw.block(f"delta_{k}", f"delta_{k}"))
            np.testing.assert_allclose(dd, 2.0 * lam, rtol=1e-14)
            for j in range(k + 1, 4):
                cross = np.diag(res.i_diffseq_raw.block(f"delta_{k}", f"delta_{j}"))
                np.testing.assert_allclose(cross, lam, rtol=1e-14)


# --------------------------------------------------------------- criterion 8

def test_criterion_8_regulatory_boundary():
    """The reference design sits exactly on the emission limit and passes.

    10^4 pulses per millisecond at 3.7 pJ each totals 37 nJ, the limit; the
    pulse bandwidth clears the 500 MHz floor.
    """
    with criterion(8, "regulatory boundary"):
        rep = check_regulatory(reference_scenario())
        assert rep.passed
        assert rep.pulses_per_window == 10000
        assert rep.energy_per_window_j == pytest.approx(37e-9, rel=1e-12)
        assert abs(rep.margin_j) <= 1e-9 * rep.limit_j
        assert rep.meets_uwb_floor
        assert rep.bandwidth_hz > 500e6
