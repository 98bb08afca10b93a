"""Exact rational references for I_theta and its CRLBs.

Every float is a dyadic rational, so ``Fraction`` holds it exactly, and
Gauss-Jordan elimination over ``Fraction`` inverts a matrix with no rounding
at all.  So :func:`exact_crlbs` of a float I_theta is the true inverse of
that matrix, the value every float route only approximates, and
:func:`exact_theta_fim` is I_theta itself, summed exactly from the per-PRI
information lambda, t_f and the integer counts of the frame.  The one
irrational constant, pi, is taken as the float ``math.pi`` the package
computes with.  An exact 10 x 10 inverse takes a few milliseconds.
"""

import math
from fractions import Fraction

from isacbounds.model import Decoupling, Frame, Scheme


def exact_inverse(matrix) -> list[list[Fraction]]:
    """The exact inverse of a square matrix of floats or Fractions, by
    Gauss-Jordan elimination; ZeroDivisionError when it is singular."""
    rows = matrix.tolist() if hasattr(matrix, "tolist") else matrix
    n = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError(f"singular matrix: no pivot in column {col}")
        work[col], work[pivot] = work[pivot], work[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def exact_crlbs(matrix, layout, targets) -> dict[str, Fraction]:
    """tr of each target block of the exact inverse of ``matrix``, whose rows
    and columns ``layout`` names."""
    inverse = exact_inverse(matrix)
    values = {}
    for target in targets:
        lo, hi = layout.block(target)
        values[target] = sum(inverse[i][i] for i in range(lo, hi))
    return values


def exact_theta_fim(frame: Frame) -> list[list[Fraction]]:
    """I_theta of ``frame``, summed exactly over its pulses.

    Path l's pulse in PRI kappa moves with tau1 and dtau_l, its phase with
    2 pi kappa t_f (fd1 + dfd_l), and its amplitude alone.  PPM data moves
    the pulse by dtau_q; a differential frame sees every PRI through the
    working model's difference delta_k (information (w + 1) lambda, moved by
    dtau_q only) beside t_k (lambda, moved by the path and dtau_q), lambda
    between them.  BPSK data turns the phase by phi_bpsk on each data PRI,
    or by the Doppler ramp itself on a raw frame.  Sums over kappa are the
    integer counts d, sum kappa and sum kappa**2.
    """
    scenario, modulation, layout = frame.scenario, frame.modulation, frame.theta
    n_f, n = scenario.n_f, layout.size
    p, d = frame.data.start, frame.data.stop - frame.data.start
    l_tau, l_phi, l_alpha = ([Fraction(x) for x in lam.tolist()]
                             for lam in scenario.per_pri_information)
    slope = 2 * Fraction(math.pi) * Fraction(scenario.t_f)  # phase per PRI per Hz
    squares = (n_f - 1) * n_f * (2 * n_f - 1) // 6  # sum of kappa**2 over the frame
    data_sum = (p + n_f - 1) * d // 2  # sum of the data PRI indices
    at = layout.block_bounds
    out = [[Fraction(0)] * n for _ in range(n)]

    def add(weight, u: dict, v: dict) -> None:
        """out += weight u v^T for sparse vectors {index: value}."""
        for i, x in u.items():
            for j, y in v.items():
                out[i][j] += weight * x * y

    def sym(weight, u: dict, v: dict) -> None:
        add(weight, u, v)
        add(weight, v, u)

    scheme, dec = modulation.scheme, modulation.decoupling
    for l in range(scenario.n_paths):
        delay = {at["tau1"][0]: 1, **({at["dtau"][0] + l - 1: 1} if l else {})}
        doppler = {at["fd1"][0]: 1, **({at["dfd"][0] + l - 1: 1} if l else {})}
        lam = l_tau[l]
        if scheme == Scheme.PPM:
            q = {at["dtau_q"][0]: 1}
            moved = {**delay, **q}
            if dec == Decoupling.DIFFERENTIAL:
                w = Fraction(modulation.sfd_weight)
                add(n_f * (w + 1) * lam, q, q)
                sym(n_f * lam, q, moved)
                add(n_f * lam, moved, moved)
            else:
                add(p * lam, delay, delay)
                add(d * lam, moved, moved)
        else:
            add(n_f * lam, delay, delay)
        lam = l_phi[l]
        if scheme == Scheme.BPSK and dec == Decoupling.PILOT:
            e = {at["phi_bpsk"][0]: 1}
            add(squares * slope ** 2 * lam, doppler, doppler)
            sym(data_sum * slope * lam, doppler, e)
            add(d * lam, e, e)
        elif scheme == Scheme.BPSK:
            turned = {**doppler, at["phi_bpsk"][0]: 1}
            add(squares * slope ** 2 * lam, turned, turned)
        else:
            add(squares * slope ** 2 * lam, doppler, doppler)
        amp = {at["amp"][0] + l: 1}
        add(n_f * l_alpha[l], amp, amp)
    return out
