"""Reference scenario, sweeps, the pilot-vs-differential crossover, pareto."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacbounds.model import (
    ConfigError,
    Decoupling,
    Frame,
    ModulationConfig,
    SPEED_OF_LIGHT,
    Scheme,
    received_snr,
)
from isacbounds.bounds import comm_efim_ppm, crlb_report
from isacbounds import experiments
from isacbounds.experiments import (
    SWEEP_AXES,
    CrossoverResult,
    ResultTable,
    SweepSpec,
    data_rate,
    fim_deviation,
    find_crossover,
    pareto_table,
    reference_scenario,
    run_sweep,
    validate_suite,
    with_frame,
    with_snr,
)

from conftest import ALL_KINDS, default_word, frame_shapes, make_modulation


def test_reference_scenario_values():
    sc = reference_scenario()
    assert sc.f_c == 3993.6e6
    assert sc.t_f == 100e-9
    assert sc.f_s == 10e9
    assert sc.n_f == 8
    assert tuple(p.tau_l0 for p in sc.paths) == (20e-9, 40e-9, 60e-9)
    for p in sc.paths:
        assert received_snr(sc, p) == pytest.approx(1.0, rel=1e-9)
    sc20 = reference_scenario(snr_db=20.0)
    assert received_snr(sc20, sc20.paths[0]) == pytest.approx(100.0, rel=1e-9)


@pytest.mark.parametrize("dopplers", [(1.0,), (1.0, 2.0, 3.0, 4.0)])
def test_reference_scenario_refuses_a_doppler_count_off_the_path_count(dopplers):
    with pytest.raises(ConfigError, match=f"{len(dopplers)} dopplers given for 3 paths"):
        reference_scenario(n_paths=3, dopplers=dopplers)


def test_reference_scenario_refuses_a_path_it_has_no_delay_for():
    with pytest.raises(ConfigError, match=r"n_paths must be in 1\.\.3"):
        reference_scenario(n_paths=4)


def test_pareto_refuses_a_frame_without_a_split():
    with pytest.raises(ConfigError, match="the frontier needs at least 2 PRIs"):
        pareto_table(reference_scenario(n_f=1), n_total=1)


@pytest.mark.parametrize("snr_db", [1e6, 1e300, -1e6])
def test_snr_helpers_refuse_an_snr_beyond_the_float_range_by_name(snr_db):
    for make in (lambda: reference_scenario(snr_db=snr_db),
                 lambda: with_snr(reference_scenario(), snr_db)):
        with pytest.raises(ConfigError, match=re.escape(f"snr_db = {snr_db} dB")):
            make()


def test_with_helpers_do_not_mutate():
    sc = reference_scenario()
    sc2 = with_frame(with_snr(sc, 10.0), 16)
    assert sc.n_f == 8 and sc2.n_f == 16
    assert received_snr(sc2, sc2.paths[0]) == pytest.approx(10.0, rel=1e-9)
    assert received_snr(sc, sc.paths[0]) == pytest.approx(1.0, rel=1e-9)


def test_data_rate():
    sc = reference_scenario(n_f=8)
    assert data_rate(sc, ModulationConfig(Scheme.SENSING)) == 0.0
    assert data_rate(sc, ModulationConfig(Scheme.PPM, Decoupling.PILOT,
                                          p_pilots=4, d_data=4)) == pytest.approx(5e6)
    assert data_rate(sc, ModulationConfig(Scheme.BPSK, d_data=8)) == pytest.approx(1e7)
    assert data_rate(sc, make_modulation("ppm-diff", 8)) == pytest.approx(1e7)


@pytest.mark.parametrize("kind", [*ALL_KINDS, "ppm-pilot-d0"])
def test_data_rate_counts_the_data_bits(kind):
    sc = reference_scenario(n_f=6)
    if kind == "ppm-pilot-d0":
        mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=6, d_data=0)
    else:
        mod = make_modulation(kind, sc.n_f)
    assert data_rate(sc, mod) == default_word(Frame(sc, mod)).sum() / (sc.n_f * sc.t_f)


def _parent_bound_bits(sc, mod):
    # the per-kind construction the data-PRI range replaced, as the reference
    bits = np.zeros(sc.n_f, dtype=np.int64)
    if mod.scheme == Scheme.SENSING:
        return bits
    if mod.decoupling == Decoupling.PILOT:
        bits[mod.p_pilots:] = 1
    else:
        bits[:] = 1
    return bits


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bound_bits_and_data_rate_match_the_per_kind_rules(kind):
    base = make_modulation(kind, 2)
    for n_f in (1, 2, 8, 64, 499):
        if base.decoupling == Decoupling.PILOT:
            mods = [dataclasses.replace(base, p_pilots=p, d_data=n_f - p)
                    for p in range(1, n_f + 1)]
        else:
            mods = [make_modulation(kind, n_f)]
        for L in (1, 2, 3):
            sc = reference_scenario(n_f=n_f, n_paths=L)
            for mod in mods:
                want = _parent_bound_bits(sc, mod)
                np.testing.assert_array_equal(default_word(Frame(sc, mod)), want)
                assert data_rate(sc, mod) == int(want.sum()) / (sc.n_f * sc.t_f)


def test_data_rate_counts_a_frame_past_the_index_range():
    # 10**20 PRIs: no array, and no len() of a range beyond 2**63 - 1
    n_f = 10 ** 20
    sc = reference_scenario(n_f=n_f)
    mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=1, d_data=n_f - 1)
    assert data_rate(sc, mod) == (n_f - 1) / (n_f * sc.t_f)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_data_rate_allocates_nothing_per_pri(kind):
    n_f = 10 ** 7
    sc, mod = reference_scenario(n_f=n_f), make_modulation(kind, n_f)
    tracemalloc.start()
    try:
        data_rate(sc, mod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000


def test_data_rate_refuses_a_split_that_misses_the_frame():
    mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=2, d_data=3)
    with pytest.raises(ConfigError, match="does not cover the frame"):
        data_rate(reference_scenario(n_f=8), mod)


# ------------------------------------------------------------------- sweeps

def _pilot_spec(**kw):
    base = dict(
        axis="snr_db", values=(0.0, 10.0, 20.0),
        outputs=("root_range_crlb_m", "root_doppler_crlb_hz", "rate_bps"),
        scenario=reference_scenario(),
        modulation=ModulationConfig(Scheme.PPM, Decoupling.PILOT,
                                    p_pilots=4, d_data=4),
    )
    base.update(kw)
    return SweepSpec(**base)


def test_sweep_snr_slope():
    tab = run_sweep(_pilot_spec())
    rr = tab.values("root_range_crlb_m")
    rd = tab.values("root_doppler_crlb_hz")
    # root CRLBs fall by 10x per 20 dB
    assert rr[2] == pytest.approx(rr[0] / 10.0, rel=1e-9)
    assert rd[2] == pytest.approx(rd[0] / 10.0, rel=1e-9)
    assert rr[1] == pytest.approx(rr[0] * 10 ** (-0.5), rel=1e-9)
    # rate does not depend on SNR
    np.testing.assert_allclose(tab.values("rate_bps"), 5e6, rtol=1e-12)
    assert all(err == "" for err in tab.column("error"))


def _csv_text(tab, tmp_path, name):
    path = tmp_path / name
    tab.to_csv(path)
    return path.read_text()


def test_sweep_deterministic_and_parallel_identical(tmp_path):
    a = _csv_text(run_sweep(_pilot_spec()), tmp_path, "a.csv")
    b = _csv_text(run_sweep(_pilot_spec()), tmp_path, "b.csv")
    assert a == b


def test_sweep_frame_axis_keeps_pilot_ratio():
    spec = _pilot_spec(axis="n_f", values=(4, 8, 16),
                       outputs=("root_range_crlb_m", "rate_bps"))
    tab = run_sweep(spec)
    # the pilot fraction p/n stays at 1/2, so the rate stays at 1/(2 t_f)
    np.testing.assert_allclose(tab.values("rate_bps"), 5e6, rtol=1e-12)
    rr = tab.values("root_range_crlb_m")
    assert rr[0] > rr[1] > rr[2]


def test_sweep_records_errors_and_completes():
    spec = SweepSpec(axis="snr_db", values=(0.0, 10.0),
                     outputs=("root_range_crlb_m",),
                     scenario=reference_scenario(n_f=4, n_paths=1),
                     modulation=ModulationConfig(Scheme.PPM, d_data=4))
    tab = run_sweep(spec)
    assert len(tab.rows) == 2
    for row in tab.rows:
        assert math.isnan(row[1])
        assert row[-1] != ""


def test_sweep_names_the_coupled_columns():
    spec = SweepSpec(axis="snr_db", values=(0.0,), outputs=("rate_bps",),
                     scenario=reference_scenario(n_f=4, n_paths=1),
                     modulation=ModulationConfig(Scheme.PPM, d_data=4))
    assert list(run_sweep(spec).column("error")) == [
        "information matrix singular: coupled columns: tau1~dtau_q"]


def _sweep_point(axis, value, sc, mod):
    """The (scenario, modulation) a sweep row stands for, built by hand: the
    n_f axis keeps the pilot share, d_data grows the frame after the pilots,
    pilot_ratio re-splits a fixed frame."""
    pilot = mod.decoupling == Decoupling.PILOT
    if axis == "snr_db":
        return with_snr(sc, value), mod
    if axis == "pilot_ratio":
        if not pilot:
            raise ConfigError("no pilots to re-split")
        p = round(value * sc.n_f)
        return sc, dataclasses.replace(mod, p_pilots=p, d_data=sc.n_f - p)
    n = int(value)
    if axis == "n_f":
        if pilot:
            p = round(n * mod.p_pilots / (mod.p_pilots + mod.d_data))
            return with_frame(sc, n), dataclasses.replace(mod, p_pilots=p, d_data=n - p)
        if mod.scheme == Scheme.SENSING:
            return with_frame(sc, n), mod
        return with_frame(sc, n), dataclasses.replace(mod, d_data=n)
    if mod.scheme == Scheme.SENSING:
        raise ConfigError("no data PRIs to sweep")
    frame = mod.p_pilots + n if pilot else n
    return with_frame(sc, frame), dataclasses.replace(mod, d_data=n)


_AXIS_VALUES = {
    "snr_db": st.floats(-10.0, 30.0),
    "n_f": st.integers(0, 24).map(float),
    "d_data": st.integers(0, 20).map(float),
    "pilot_ratio": st.floats(0.0, 1.0),
}


@given(kind=st.sampled_from(ALL_KINDS), axis=st.sampled_from(SWEEP_AXES), data=st.data())
@settings(max_examples=80, deadline=None)
def test_sweep_row_equals_its_single_point_report(kind, axis, data):
    values = data.draw(st.lists(_AXIS_VALUES[axis], min_size=1, max_size=3), label="values")
    sc, mod = reference_scenario(n_f=6, n_paths=2), make_modulation(kind, 6)
    outputs = ("root_range_crlb_m", "root_doppler_crlb_hz", "rate_bps")
    if kind == "ppm-pilot":
        outputs += ("comm_efim",)
    table = run_sweep(SweepSpec(axis=axis, values=tuple(values), outputs=outputs,
                                scenario=sc, modulation=mod))
    assert [row[0] for row in table.rows] == values
    for value, row in zip(values, table.rows):
        got = dict(zip(outputs, row[1:-1]))
        try:
            point = _sweep_point(axis, value, sc, mod)
            rep = crlb_report(*point)
        except ConfigError:
            assert row[-1] and all(math.isnan(v) for v in got.values()), row
            continue
        fd = rep.crlb.get("fd1")
        want = {
            "root_range_crlb_m": math.nan if rep.range_crlb_m2 is None
            else math.sqrt(rep.range_crlb_m2),
            "root_doppler_crlb_hz": math.nan if fd is None else math.sqrt(fd),
            "rate_bps": data_rate(*point),
        }
        if "comm_efim" in outputs:
            try:
                want["comm_efim"] = comm_efim_ppm(*point)
            except ConfigError:
                want["comm_efim"] = math.nan
        for name, v in want.items():
            if math.isnan(v):
                assert math.isnan(got[name]) and row[-1], (name, row)
            else:
                assert got[name] == pytest.approx(v, rel=1e-12), (name, row)
        if rep.singular:
            assert row[-1], row


def test_sweep_row_keeps_the_cells_before_a_raising_output():
    # a ppm-pilot frame with no data PRI has a rate, but no comm EFIM; it is
    # singular, so its error is the verdict
    spec = _pilot_spec(axis="d_data", values=(0,), outputs=("rate_bps", "comm_efim"))
    (row,) = run_sweep(spec).rows
    assert row[1] == 0.0
    assert math.isnan(row[2]) and row[3] == "information matrix singular: zero columns: dtau_q"


def test_sweep_row_of_a_nonsingular_frame_names_a_raising_output():
    # a differential frame is nonsingular and has no pilot-split comm EFIM
    spec = _pilot_spec(modulation=make_modulation("ppm-diff", 8),
                       outputs=("rate_bps", "comm_efim"), values=(0.0,))
    (row,) = run_sweep(spec).rows
    assert row[1] == 1e7 and math.isnan(row[2])
    assert row[3] == "ConfigError: comm_efim_ppm is defined for pilot-decoupled PPM"


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_singular_row_error_is_the_verdict_whatever_the_outputs(kind):
    singular = 0
    for sc, mod in frame_shapes(kind, (1, 2, 8)):
        rep = crlb_report(sc, mod)
        if not rep.singular:
            continue
        singular += 1
        # the CLI's default outputs (CRLBs first), a rate only, a raising output
        for outputs in (("root_range_crlb_m", "root_doppler_crlb_hz", "rate_bps"),
                        ("rate_bps",), ("comm_efim",)):
            spec = SweepSpec("snr_db", (0.0,), outputs, sc, mod)
            (row,) = run_sweep(spec).rows
            assert row[-1] == "information matrix singular: " + rep.describe(), (outputs, mod)
    assert singular > 0


def test_nonsingular_row_says_which_crlb_is_unavailable(monkeypatch):
    # a nonsingular report whose tau1 is missing: the row names the ranging
    # CRLB, with no cause, and keeps the Doppler one
    report = crlb_report

    def without_tau1(*args):
        rep = report(*args)
        return dataclasses.replace(rep, crlb={**rep.crlb, "tau1": None}, range_crlb_m2=None)

    monkeypatch.setattr(experiments, "crlb_report", without_tau1)
    spec = _pilot_spec(values=(0.0,))
    (row,) = run_sweep(spec).rows
    assert math.isnan(row[1]) and math.isfinite(row[2])
    assert row[-1] == "ranging CRLB unavailable"


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        _pilot_spec(axis="bogus")
    with pytest.raises(ConfigError):
        _pilot_spec(outputs=("root_range_crlb_m", "nope"))
    with pytest.raises(ConfigError):
        _pilot_spec(values=())


def test_result_table_csv_format(tmp_path):
    tab = run_sweep(_pilot_spec())
    text = _csv_text(tab, tmp_path, "fmt.csv")
    lines = text.splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert any("generator = isacbounds" in ln for ln in meta)
    assert any("axis = snr_db" in ln for ln in meta)
    header = lines[len(meta)]
    assert header.split(",")[0] == "snr_db"
    assert header.split(",")[-1] == "error"
    data = lines[len(meta) + 1:]
    assert len(data) == 3
    assert float(data[0].split(",")[0]) == 0.0
    # no timestamps anywhere: identical on a rewrite
    assert text == _csv_text(tab, tmp_path, "fmt2.csv")


def _header(tab, tmp_path, name):
    lines = _csv_text(tab, tmp_path, name).splitlines()
    return dict(ln[2:].split(" = ", 1) for ln in lines if ln.startswith("# "))


def test_every_table_header_records_its_scenario(tmp_path):
    sc = reference_scenario(n_f=4, n_paths=2, snr_db=3.0, dopplers=(5.0, -7.0))
    scenario_keys = {
        "f_c_hz": sc.f_c, "t_f_s": sc.t_f, "n_f": sc.n_f, "f_s_hz": sc.f_s,
        "sigma2": sc.sigma2, "alpha_s": sc.pulse.alpha,
        "paths": ";".join(f"tau={p.tau_l0},fd={p.f_dl},amp={p.amp}" for p in sc.paths),
    }
    tables = {
        "sweep": (run_sweep(_pilot_spec(scenario=sc, modulation=make_modulation("ppm-pilot", 4))),
                  {"axis": "snr_db", "scheme": "ppm", "decoupling": "pilot", "p_pilots": 2}),
        "crossover": (find_crossover(sc, 2, (2, 3), xi_ppm=3e-9, sfd_weight=2.5).table,
                      {"p_pilots": 2, "sfd_weight": 2.5, "xi_ppm": 3e-9,
                       "check_snrs_db": "0.0,20.0"}),
        "pareto": (pareto_table(sc, 4, snr_db=3.0, xi_ppm=3e-9),
                   {"n_total": 4, "snr_db": 3.0, "xi_ppm": 3e-9}),
    }
    for name, (tab, own) in tables.items():
        header = _header(tab, tmp_path, f"{name}.csv")
        assert header["generator"].startswith("isacbounds "), name
        for key, value in {**scenario_keys, **own}.items():
            assert header[key] == str(value), (name, key)


def test_fim_deviation_metric():
    ref = np.diag([4.0, 9.0])
    test = ref.copy()
    assert fim_deviation(test, ref) == 0.0
    test[0, 1] = test[1, 0] = 0.06
    assert fim_deviation(test, ref) == pytest.approx(0.01, rel=1e-12)
    # floor keeps exact zero diagonals from dividing by zero
    z = np.zeros((2, 2))
    assert fim_deviation(z, z) == 0.0


def test_fim_deviation_survives_a_huge_diagonal():
    # sqrt(d_i d_j) overflows past d ~ 1.3e154; one root per side does not
    assert fim_deviation(np.diag([2e200, 1.0]), np.diag([1e200, 1.0])) == 1.0
    assert fim_deviation(np.diag([2e20, 1.0]), np.diag([1e20, 1.0])) == 1.0


@pytest.mark.parametrize("axis,kind,bad,good", [("n_f", "sensing", 8.7, 8.0),
                                                ("n_f", "ppm-pilot", 7.5, 8.0),
                                                ("d_data", "ppm-pilot", 4.4, 4.0),
                                                ("d_data", "ppm-diff", 4.4, 4.0)])
def test_integer_axes_name_a_fractional_value(axis, kind, bad, good):
    # the value is refused, not rounded to a neighbouring frame; the sweep completes
    spec = SweepSpec(axis=axis, values=(bad, good, math.nan), outputs=("root_range_crlb_m",),
                     scenario=reference_scenario(n_f=8), modulation=make_modulation(kind, 8))
    rows = run_sweep(spec).rows
    assert rows[0][-1] == f"ConfigError: {axis} value {bad} is not an integer"
    assert math.isnan(rows[0][1])
    assert rows[2][-1] == f"ConfigError: {axis} value nan is not an integer"
    whole = run_sweep(dataclasses.replace(spec, values=(int(good),))).rows[0]
    assert rows[1][1:] == whole[1:] and rows[1][-1] == ""


#: a value each axis takes on an even ppm pilot split of 8 PRIs
_GOOD_AXIS_VALUE = {"snr_db": 10.0, "n_f": 8, "d_data": 4, "pilot_ratio": 0.5}


@pytest.mark.parametrize("axis,kind,bad,refusal", [
    *(pytest.param(axis, "ppm-pilot", bad,
                   f"{axis} value {bad!r} is not a real number in the float range",
                   id=f"{axis}-{name}")
      for axis in SWEEP_AXES for name, bad in (("1e400", 10 ** 400), ("str", "x"),
                                               ("bool", True))),
    pytest.param("d_data", "sensing", 4, "d_data sweep needs a data-bearing scheme",
                 id="d_data-sensing"),
])
def test_sweep_refuses_a_value_it_cannot_take_as_a_row(axis, kind, bad, refusal):
    # a value that is no real number in the float range (a bool is none) is a
    # refused row naming the axis and the value; the next value still runs
    good = _GOOD_AXIS_VALUE[axis]
    spec = SweepSpec(axis=axis, values=(bad, good), outputs=("root_range_crlb_m",),
                     scenario=reference_scenario(n_f=8), modulation=make_modulation(kind, 8))
    rows = run_sweep(spec).rows
    assert rows[0][0] is bad and math.isnan(rows[0][1])
    assert rows[0][-1] == f"ConfigError: {refusal}"
    assert (rows[1][-1] == "") == (kind != "sensing")


# ----------------------------------------------------------------- crossover

@pytest.mark.parametrize("n_paths,expected", [(1, 21), (3, 22)])
def test_crossover_matches_reference(n_paths, expected):
    sc = reference_scenario(n_paths=n_paths)
    res = find_crossover(sc, p_pilots=4, d_values=range(2, 41))
    assert isinstance(res, CrossoverResult)
    assert res.found
    assert res.d_cross == expected
    assert res.snr_invariant
    assert res.snrs_checked == (0.0, 20.0)
    # the table stacks one block per checked SNR, each covering every d tried
    snr = res.table.values("snr_db")
    d_col = res.table.values("d_data")
    pil = res.table.values("pilot_root_range_crlb_m")
    dif = res.table.values("differential_root_range_crlb_m")
    at0 = snr == 0.0
    assert list(d_col[at0]) == list(range(2, 41))
    assert list(d_col[~at0]) == list(range(2, 41))
    i = list(d_col[at0]).index(expected)
    assert dif[at0][i] < pil[at0][i]
    # one step earlier there is no *strict* win (at L=1, d=20 is an exact tie)
    assert dif[at0][i - 1] >= pil[at0][i - 1] * (1.0 - 1e-9)


def test_crossover_not_found_when_range_too_short():
    sc = reference_scenario(n_paths=1)
    res = find_crossover(sc, p_pilots=4, d_values=range(2, 10))
    assert not res.found
    assert res.d_cross is None


def test_crossover_rows_equal_their_single_point_reports():
    sc, p_pilots, xi = reference_scenario(n_paths=2), 3, 2.0e-9
    res = find_crossover(sc, p_pilots, range(0, 7), xi_ppm=xi)
    assert [row[:2] for row in res.table.rows] == [(s, d) for s in (0.0, 20.0) for d in range(7)]
    for snr_db, d, pilot, diff, error in res.table.rows:
        arms = {
            "pilot": (p_pilots + d, dict(decoupling=Decoupling.PILOT, p_pilots=p_pilots)),
            "differential": (d, dict(decoupling=Decoupling.DIFFERENTIAL)),
        }
        for (arm, (n_f, kw)), got in zip(arms.items(), (pilot, diff)):
            try:
                mod = ModulationConfig(scheme=Scheme.PPM, xi_ppm=xi, d_data=d, **kw)
                m2 = crlb_report(with_frame(with_snr(sc, snr_db), n_f), mod).range_crlb_m2
            except ConfigError:
                m2 = None
            if m2 is None:
                assert math.isnan(got) and f"{arm} arm: " in error, (arm, d, error)
            else:
                assert got == math.sqrt(m2), (arm, snr_db, d)
                assert f"{arm} arm: " not in error, (arm, d, error)
    # d = 0 and 1 carry no differential ranging; from d = 2 both arms do
    assert all(row[4] for row in res.table.rows if row[1] < 2)
    assert not any(row[4] for row in res.table.rows if row[1] >= 2)


def test_crossover_refuses_configs_before_the_scan():
    sc = reference_scenario()
    with pytest.raises(ConfigError, match="check SNR"):
        find_crossover(sc, 4, range(2, 5), check_snrs_db=())
    with pytest.raises(ConfigError, match="pilot"):
        find_crossover(sc, 0, range(2, 5))


def test_crossover_refuses_a_fractional_d():
    sc = reference_scenario()
    with pytest.raises(ConfigError, match="d_data value 2.7 is not an integer"):
        find_crossover(sc, 4, [2.7, 3.2])
    # integral floats scan the same frames as ints
    assert (find_crossover(sc, 4, [2.0, 3.0]).table.rows
            == find_crossover(sc, 4, [2, 3]).table.rows)


@pytest.mark.parametrize("bad", ("x", True))
def test_crossover_refuses_a_d_that_is_not_a_real_number(bad):
    with pytest.raises(ConfigError, match=f"d_data value {bad!r} is not a real number"):
        find_crossover(reference_scenario(), 4, [bad])


def test_crossover_of_an_empty_range_finds_nothing():
    res = find_crossover(reference_scenario(), 4, [])
    assert not res.found and res.snr_invariant and res.table.rows == []


# -------------------------------------------------------------------- pareto

def test_pareto_frontier_shape():
    tab = pareto_table(reference_scenario(), n_total=8)
    p = tab.values("p_pilots")
    d = tab.values("d_data")
    assert list(p) == [1, 2, 3, 4, 5, 6, 7, 8]
    assert list(d) == [7, 6, 5, 4, 3, 2, 1, 0]
    rate = tab.values("rate_bps")
    rr = tab.values("root_range_crlb_m")
    # trading data PRIs for pilots: rate falls, ranging improves
    assert all(a > b for a, b in zip(rate, rate[1:]))
    assert all(a > b for a, b in zip(rr, rr[1:]))
    assert rate[-1] == 0.0  # all-pilot endpoint carries no data
    # no row dominates another (it is a frontier)
    rows = list(zip(rate, rr))
    for i, (ra, ca) in enumerate(rows):
        for j, (rb, cb) in enumerate(rows):
            if i != j:
                assert not (rb >= ra and cb <= ca and (rb > ra or cb < ca))


def test_pareto_rows_equal_their_single_point_reports():
    sc = reference_scenario()
    tab = pareto_table(sc, n_total=8, snr_db=3.0)
    frame = with_snr(with_frame(sc, 8), 3.0)
    for p, d, rate, rng, error in tab.rows:
        mod = (ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=p, d_data=d) if d
               else ModulationConfig(Scheme.SENSING))
        assert rate == data_rate(frame, mod)
        assert rng == math.sqrt(crlb_report(frame, mod).range_crlb_m2)
        assert error == ""


@pytest.mark.parametrize("n_total", (16, 64))
@pytest.mark.parametrize("n_paths", (1, 3))
def test_pareto_rows_lie_on_the_closed_form_frontier(n_total, n_paths):
    # rate = d / (n t_f), range CRLB = c**2 (1 / lambda_tau1 + d / (p S)) / n
    # with S = sum_l lambda_tau,l and p = n - d; the all-pilot row (d = 0) is
    # the sensing frame's c**2 / (n lambda_tau1)
    sc = reference_scenario(n_paths=n_paths)
    tab = pareto_table(sc, n_total=n_total, snr_db=3.0)
    l_tau = with_snr(with_frame(sc, n_total), 3.0).per_pri_information[0].tolist()
    assert [row[:2] for row in tab.rows] == [(p, n_total - p) for p in range(1, n_total + 1)]
    for p, d, rate, rng, error in tab.rows:
        assert rate == pytest.approx(d / (n_total * sc.t_f), rel=1e-12)
        want = SPEED_OF_LIGHT * math.sqrt((1.0 / l_tau[0] + d / (p * sum(l_tau))) / n_total)
        assert rng == pytest.approx(want, rel=1e-12), (p, d)
        assert error == ""
    sensing = crlb_report(with_snr(with_frame(sc, n_total), 3.0), ModulationConfig(Scheme.SENSING))
    assert tab.rows[-1][3] == pytest.approx(math.sqrt(sensing.range_crlb_m2), rel=1e-12)


def test_result_table_values_turn_a_non_numeric_cell_into_nan():
    tab = ResultTable(columns=("x", "error"),
                      rows=[(1.5, ""), (None, "singular"), ("n/a", "singular"), (2, "")])
    np.testing.assert_array_equal(tab.values("x"), [1.5, math.nan, math.nan, 2.0])


# ----------------------------------------------------------- validation suite

def test_validate_suite_all_green():
    results = validate_suite()
    assert len(results) == 13
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    names = [r.name for r in results]
    assert len(set(names)) == len(names)


def test_validate_suite_records_a_check_that_raises_as_failed(monkeypatch):
    # a probe or an assembly that raises fails its own check, worded by the
    # exception's type, and every other check still runs
    def raises_on_differential(call):
        def patched(*args):
            frame = args[0] if len(args) == 1 else Frame(*args)
            if frame.modulation.decoupling == Decoupling.DIFFERENTIAL:
                raise ZeroDivisionError("patched")
            return call(*args)
        return patched

    for name in ("observation_fim_numeric", "assemble_theta_fim"):
        monkeypatch.setattr(experiments, name,
                            raises_on_differential(getattr(experiments, name)))
    results = validate_suite()
    assert len(results) == 13
    failed = {r.name: r.detail for r in results if not r.passed}
    assert failed == {"numeric-vs-analytic-ppm-differential": "ZeroDivisionError: patched",
                      "assembly-consistency-ppm-differential": "ZeroDivisionError: patched"}
