"""The closed-form I_theta written as matrix products, the reference for
:func:`isacbounds.bounds.closed_form_theta_fim`.

Every block is formed as the congruence it states, c H^T diag(lambda) H,
c H^T diag(lambda) E or c E^T diag(lambda) E, and put in place with its
transpose; the runtime fills the same entries from lambda without a product.
"""

import numpy as np

from isacbounds.fim import LabeledMatrix, coeff_a_range, coeff_b_full
from isacbounds.jacobians import e_vector, h_matrix
from isacbounds.model import ConfigError, Decoupling, Frame, Scheme


def _congruence(H_l: np.ndarray, diag: np.ndarray, H_r: np.ndarray) -> np.ndarray:
    return H_l.T @ (diag[:, None] * H_r)


def closed_form_by_products(frame: Frame) -> LabeledMatrix:
    """I_theta of ``frame`` from the block congruences, with the runtime's
    refusals: an inf or NaN entry (LabeledMatrix) and a subnormal diagonal."""
    scenario, modulation, layout = frame.scenario, frame.modulation, frame.theta
    L, n_f, t_f = scenario.n_paths, scenario.n_f, scenario.t_f
    H = h_matrix(L)
    E = e_vector(L)
    l_tau1, l_phi1, l_alpha1 = scenario.per_pri_information
    M = np.zeros((layout.size, layout.size))

    def put(rows: slice, cols: slice, block: np.ndarray) -> None:
        M[rows, cols] = block
        if rows != cols:
            M[cols, rows] = block.T

    lo = layout.block("delay")[0]
    tau = slice(lo, lo + L)  # tau1 and dtau: the delay block without dtau_q
    doppler, amp = layout.block_slice("doppler"), layout.block_slice("amp")
    with np.errstate(over="ignore", invalid="ignore"):  # LabeledMatrix refuses inf/NaN
        put(tau, tau, n_f * _congruence(H, l_tau1, H))
        put(doppler, doppler, coeff_b_full(t_f, n_f) * _congruence(H, l_phi1, H))
        put(amp, amp, np.diag(n_f * l_alpha1))

        scheme, dec = modulation.scheme, modulation.decoupling
        if scheme == Scheme.PPM:
            if dec == Decoupling.DIFFERENTIAL:
                cross, own = 2.0 * n_f, (modulation.sfd_weight + 4.0) * n_f
            else:
                cross = own = modulation.d_data if dec == Decoupling.PILOT else n_f
            q = layout.block_slice("dtau_q")
            put(tau, q, cross * _congruence(H, l_tau1, E))
            put(q, q, own * _congruence(E, l_tau1, E))
        elif scheme == Scheme.BPSK:
            if dec == Decoupling.PILOT:
                p, d = modulation.p_pilots, modulation.d_data
                cross, own = coeff_a_range(t_f, p, d), d
            else:
                cross = own = coeff_b_full(t_f, n_f)
            b = layout.block_slice("phi_bpsk")
            put(doppler, b, cross * _congruence(H, l_phi1, E))
            put(b, b, own * _congruence(E, l_phi1, E))
    diag = M.diagonal()
    subnormal = np.flatnonzero((diag > 0.0) & (diag < np.finfo(float).tiny))
    if subnormal.size:
        name = layout.names[subnormal[0]]
        raise ConfigError(
            f"I_theta[{name}, {name}] = {diag[subnormal[0]]:.3e} is subnormal; "
            "the information is too small to represent (raise the path amplitudes)"
        )
    return LabeledMatrix(M, layout)
