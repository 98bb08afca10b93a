"""Structural Jacobians from observation parameters to the sensing parameters.

Every entry of these matrices is 0, +-1, or a PRI ramp slope 2 pi kappa T_f;
the tests pin that alphabet and the exact placement of each block.
"""

import numpy as np
import pytest

from isacbounds.model import (
    AMP,
    PHI,
    TAU,
    Decoupling,
    Frame,
    ModulationConfig,
    Scheme,
    theta_layout,
)
from isacbounds.jacobians import (
    e_vector,
    h_matrix,
    jacobian_for,
    ramp_slope,
)
from isacbounds.experiments import reference_scenario

from conftest import ALL_KINDS, default_word, make_modulation
from differential_reference import differential_maps

T_F = 1e-7


def frame_jacobian(scheme, dec, n_paths, n_f, p_pilots=0, d_data=0):
    """jacobian_for on the reference scenario (PRI T_F) with the given frame,
    as an ``(array, rows, cols)`` triple with the frame's eta and theta layouts."""
    sc = reference_scenario(n_f=n_f, n_paths=n_paths)
    assert sc.t_f == T_F
    frame = Frame(sc, ModulationConfig(scheme, dec, p_pilots=p_pilots, d_data=d_data))
    return jacobian_for(frame), frame.eta, frame.theta


def block(matrix, row_name, col_name):
    """The (row_name, col_name) block of an ``(array, rows, cols)`` triple."""
    data, rows, cols = matrix
    return data[rows.block_slice(row_name), cols.block_slice(col_name)]


def test_h_matrix_values():
    np.testing.assert_array_equal(h_matrix(1), [[1.0]])
    np.testing.assert_array_equal(h_matrix(3),
                                  [[1, 0, 0], [1, 1, 0], [1, 0, 1]])
    # first column all ones, rest a shifted identity
    H = h_matrix(5)
    np.testing.assert_array_equal(H[:, 0], np.ones(5))
    np.testing.assert_array_equal(H[1:, 1:], np.eye(4))
    assert abs(np.linalg.det(H)) == pytest.approx(1.0)


def test_e_vector_and_ramp():
    np.testing.assert_array_equal(e_vector(3), [[1.0], [1.0], [1.0]])
    assert ramp_slope(0, T_F) == 0.0
    assert ramp_slope(5, T_F) == pytest.approx(2 * np.pi * 5 * T_F, rel=1e-15)
    # the per-PRI phase rows of a Jacobian: 2 pi kappa T_f times H
    np.testing.assert_allclose(ramp_slope(3, T_F) * h_matrix(2),
                               2 * np.pi * 3 * T_F * np.array([[1, 0], [1, 1]]), rtol=1e-15)


def _entry_alphabet(data, n_f, t_f):
    ok = {0.0, 1.0, -1.0}
    ok.update(ramp_slope(k, t_f) for k in range(n_f))
    ok.update(-ramp_slope(k, t_f) for k in range(n_f))
    return all(any(abs(v - w) < 1e-18 for w in ok) for v in np.ravel(data))


@pytest.mark.parametrize("scheme,dec,p,d", [
    (Scheme.SENSING, Decoupling.NONE, 0, 0),
    (Scheme.PPM, Decoupling.NONE, 0, 4),
    (Scheme.BPSK, Decoupling.NONE, 0, 4),
    (Scheme.PPM, Decoupling.PILOT, 2, 2),
    (Scheme.BPSK, Decoupling.PILOT, 2, 2),
])
def test_jacobian_entry_alphabet(scheme, dec, p, d):
    J, _, _ = frame_jacobian(scheme, dec, 2, 4, p_pilots=p, d_data=d)
    assert _entry_alphabet(J, 4, T_F)


def test_jacobian_sensing_blocks():
    L, n_f = 3, 2
    J = frame_jacobian(Scheme.SENSING, Decoupling.NONE, L, n_f)
    data, _, cols = J
    assert data.shape == (L + n_f * L + L, cols.size)
    assert cols.names == theta_layout(Scheme.SENSING, L).names
    np.testing.assert_array_equal(block(J, "tau", "delay"), h_matrix(L))
    for k in range(n_f):
        np.testing.assert_allclose(block(J, f"phi_{k}", "doppler"),
                                   ramp_slope(k, T_F) * h_matrix(L), rtol=1e-15)
    np.testing.assert_array_equal(block(J, "amp", "amp"), np.eye(L))
    # nothing else is populated
    assert np.all(block(J, "tau", "doppler") == 0)
    assert np.all(block(J, "phi_0", "delay") == 0)


def test_jacobian_ppm_delay_columns():
    L, n_f = 2, 4
    J = frame_jacobian(Scheme.PPM, Decoupling.NONE, L, n_f, d_data=n_f)
    want = np.hstack([h_matrix(L), e_vector(L)])
    np.testing.assert_array_equal(block(J, "tau", "delay"), want)
    Jp = frame_jacobian(Scheme.PPM, Decoupling.PILOT, L, n_f, p_pilots=2, d_data=2)
    # pilot PRIs see no PPM shift: separate arrival rows per segment
    np.testing.assert_array_equal(
        block(Jp, "tau_p", "delay"),
        np.hstack([h_matrix(L), np.zeros((L, 1))]))
    np.testing.assert_array_equal(block(Jp, "tau_d", "delay"), want)


def test_jacobian_bpsk_phase_offset_column():
    L, n_f = 2, 4
    # undecoupled: the offset column rides the PRI ramp, same as Doppler
    J = frame_jacobian(Scheme.BPSK, Decoupling.NONE, L, n_f, d_data=n_f)
    for k in range(n_f):
        np.testing.assert_allclose(
            block(J, f"phi_{k}", "phi_bpsk"),
            ramp_slope(k, T_F) * e_vector(L), rtol=1e-15)
    # pilot-decoupled: data PRIs carry unit sensitivity, pilots none
    Jp = frame_jacobian(Scheme.BPSK, Decoupling.PILOT, L, n_f, p_pilots=2, d_data=2)
    for k in range(2):
        assert np.all(block(Jp, f"phi_{k}", "phi_bpsk") == 0.0)
    for k in range(2, 4):
        np.testing.assert_array_equal(block(Jp, f"phi_{k}", "phi_bpsk"),
                                      e_vector(L))
    # the Doppler sub-block is untouched by the data modulation
    for k in range(n_f):
        np.testing.assert_allclose(block(Jp, f"phi_{k}", "doppler"),
                                   ramp_slope(k, T_F) * h_matrix(L), rtol=1e-15)


def test_jacobian_for_matches_plain():
    sc = reference_scenario(n_f=4, n_paths=2)
    mod = ModulationConfig(Scheme.PPM, Decoupling.PILOT, p_pilots=2, d_data=2)
    frame = Frame(sc, mod)
    assert jacobian_for(frame).shape == (frame.eta.size, frame.theta.size)


def test_jacobian_differential_delay_rows():
    # the reference pulse carries no data shift; every data PRI carries it
    L, n_f = 2, 3
    J = frame_jacobian(Scheme.PPM, Decoupling.DIFFERENTIAL, L, n_f)
    np.testing.assert_array_equal(block(J, "t_ref", "delay"),
                                  np.hstack([h_matrix(L), np.zeros((L, 1))]))
    for k in range(n_f):
        np.testing.assert_array_equal(block(J, f"t_{k}", "delay"),
                                      np.hstack([h_matrix(L), e_vector(L)]))
        np.testing.assert_allclose(block(J, f"phi_{k}", "doppler"),
                                   ramp_slope(k, T_F) * h_matrix(L), rtol=1e-15)
    np.testing.assert_array_equal(block(J, "amp", "amp"), np.eye(L))
    assert _entry_alphabet(J[0], n_f, T_F)


# ------------------------------------------------------------- differential

def test_sfd_expansion_duplicates_reference():
    L, n_f = 2, 3
    (G, lay, _), _, _ = differential_maps(reference_scenario(n_f=n_f, n_paths=L))
    eta_names = (
        [f"tref{l}" for l in range(L)]
        + [f"t{k}{l}" for k in range(n_f) for l in range(L)]
        + [f"phi{k}{l}" for k in range(n_f) for l in range(L)]
        + [f"amp{l}" for l in range(L)]
    )
    vec = np.arange(len(eta_names), dtype=float)
    ext = G @ vec
    assert ext.shape == (lay.size,)
    # each ref_k block is a copy of the t_ref entries
    for k in range(n_f):
        np.testing.assert_array_equal(ext[lay.block_slice(f"ref_{k}")], vec[:L])
    # everything else passes through once
    np.testing.assert_array_equal(ext[lay.block_slice("amp")], vec[-L:])


def test_differential_maps_structure():
    L, n_f = 2, 3
    _, P, J = differential_maps(reference_scenario(n_f=n_f, n_paths=L))
    data, ext, seq = P
    assert data.shape == (ext.size, seq.size)
    assert ext.size == seq.size
    # unimodular: the reparameterization loses nothing
    assert abs(np.linalg.det(data)) == pytest.approx(1.0, rel=1e-12)
    for k in range(n_f):
        np.testing.assert_array_equal(block(P, f"ref_{k}", f"delta_{k}"),
                                      -np.eye(L))
        np.testing.assert_array_equal(block(P, f"t_{k}", f"delta_{k}"), np.eye(L))
        np.testing.assert_array_equal(block(P, f"t_{k}", f"t_{k}"), np.eye(L))
        np.testing.assert_array_equal(block(P, f"ref_{k}", f"t_{k}"),
                                      np.zeros((L, L)))
    # theta-side rows of the differential-sequence Jacobian
    lay_t = theta_layout(Scheme.PPM, L)
    assert J[2].names == lay_t.names
    for k in range(n_f):
        np.testing.assert_array_equal(block(J, f"delta_{k}", "dtau_q"),
                                      e_vector(L))
        assert np.all(block(J, f"delta_{k}", "tau1") == 0.0)
        np.testing.assert_array_equal(
            block(J, f"t_{k}", "delay"),
            np.hstack([h_matrix(L), e_vector(L)]))
        np.testing.assert_allclose(block(J, f"phi_{k}", "doppler"),
                                   ramp_slope(k, T_F) * h_matrix(L), rtol=1e-15)
    np.testing.assert_array_equal(block(J, "amp", "amp"), np.eye(L))


def test_differential_entry_alphabet():
    _, P, J = differential_maps(reference_scenario(n_f=4, n_paths=2))
    assert _entry_alphabet(P[0], 4, T_F)
    assert _entry_alphabet(J[0], 4, T_F)


# ------------------------------------------------------------- slot-map writes

def _table_and_gather_jacobian(sc, mod):
    # J built the long way: every slot value's derivative row in a dense
    # (3, slots, L, n_theta) table, then gathered into the eta rows the map
    # names for it
    frame = Frame(sc, mod)
    cols = frame.theta
    size, index = frame.eta.size, frame.slot_map
    L, n_f = sc.n_paths, sc.n_f
    ref = index.shape[1] - n_f
    bits = np.zeros(index.shape[1])
    bits[ref:] = default_word(frame)
    slope = np.zeros(index.shape[1])
    slope[ref:] = ramp_slope(np.arange(n_f), sc.t_f)
    H = h_matrix(L)
    D = np.zeros(index.shape + (cols.size,))
    lo = cols.block("delay")[0]
    D[TAU, :, :, lo:lo + L] = H
    D[PHI, :, :, cols.block_slice("doppler")] = slope[:, None, None] * H
    D[AMP, :, :, cols.block_slice("amp")] = np.eye(L)
    if mod.scheme == Scheme.PPM:
        D[TAU, :, :, cols.block_slice("dtau_q")] = bits[:, None, None]
    elif mod.scheme == Scheme.BPSK:
        data_phase = bits if mod.p_pilots else slope * bits
        D[PHI, :, :, cols.block_slice("phi_bpsk")] = data_phase[:, None, None]
    known = index >= 0
    J = np.zeros((size, cols.size))
    J[index[known]] = D[known]
    return J


@pytest.mark.parametrize("kind, n_f", [
    (kind, n_f) for kind in ALL_KINDS for n_f in (1, 2, 8, 64, 499)
    if n_f >= 2 or not kind.endswith("pilot")])  # a pilot split needs two PRIs
def test_jacobian_equals_the_table_and_gather_construction(kind, n_f):
    for n_paths in (1, 2, 3):
        sc = reference_scenario(n_f=n_f, n_paths=n_paths)
        mod = make_modulation(kind, n_f)
        np.testing.assert_array_equal(jacobian_for(Frame(sc, mod)),
                                      _table_and_gather_jacobian(sc, mod))
