"""The dense differential chain, the reference for the differential route.

A differential frame is a reparameterization of the same eta: duplicate the
reference arrival time once per data PRI, rotate to the difference sequence
[t^k - t^ref, t^k], zero the cross-PRI difference correlations
(:func:`isacbounds.bounds.zero_reference_cross`) and collapse onto theta.
Here every step is an explicit dense matrix, O((n_f L)^3), so that
:func:`isacbounds.bounds.differential_pipeline` and the closed form can be
checked against the chain as written.
"""

from dataclasses import dataclass

import numpy as np

from isacbounds.bounds import zero_reference_cross
from isacbounds.fim import DiagonalMatrix, LabeledMatrix
from isacbounds.jacobians import StructMatrix, jacobian_for
from isacbounds.model import (
    Block,
    ConfigError,
    Decoupling,
    ModulationConfig,
    ParamLayout,
    PerPri,
    ScenarioConfig,
    Scheme,
)


def interleaved_layout(first: str, n_paths: int, n_f: int) -> ParamLayout:
    """[first_0, t_0, first_1, t_1, ...], then per-PRI phases and amplitudes."""
    pairs = tuple(Block(f"{prefix}_{k}", n_paths) for k in range(n_f) for prefix in (first, "t"))
    return ParamLayout(pairs + (PerPri("phi", n_f, n_paths, "phi"), Block("amp", n_paths)))


def differential_maps(
        scenario: ScenarioConfig) -> tuple[StructMatrix, StructMatrix, StructMatrix]:
    """(G, P, J_diff): the three dense maps of the differential chain.

    ``G`` duplicates the reference: every ``ref_k`` row of the expanded
    observation list [ref_0, t_0, ref_1, t_1, ..., phases, amplitudes] reads
    ``t_ref``, every other row passes its eta entry through once.  ``P``
    (expanded rows, difference-sequence columns) is the identity with -1 on
    the ``ref_k`` diagonal and +1 at (t_k, delta_k), so P^T takes the
    expanded list to [delta_0, t_0, delta_1, t_1, ...] with
    delta_k = t_k - t_ref; |det P| = 1, so the rotation creates or destroys
    no information.

    ``J_diff`` = P^T G J maps theta to the difference sequence, with J the
    ``jacobian_for`` Jacobian of the differential PPM frame (validated at the
    default ``xi_ppm``, on which J does not depend).
    """
    L, n_f = scenario.n_paths, scenario.n_f
    frame = ModulationConfig(Scheme.PPM, Decoupling.DIFFERENTIAL, d_data=n_f)
    J = jacobian_for(scenario, frame)
    ext = interleaved_layout("ref", L, n_f)
    seq = interleaved_layout("delta", L, n_f)
    paths = np.arange(L)
    ref = 2 * L * np.arange(n_f)[:, None] + paths  # ref_k rows; t_k sits L further

    G = np.zeros((ext.size, J.row_layout.size))
    G[ref, paths] = 1.0
    G[np.delete(np.arange(ext.size), ref.ravel()), np.arange(L, J.row_layout.size)] = 1.0
    P = np.eye(ext.size)
    P[ref, ref] = -1.0
    P[ref + L, ref] = 1.0
    return (StructMatrix(G, ext, J.row_layout), StructMatrix(P, ext, seq),
            StructMatrix(P.T @ G @ J.data, seq, J.col_layout))


@dataclass(frozen=True)
class DifferentialChain:
    """The dense matrices of the differential chain, in order.

    ``i_ext`` is I_eta with the reference duplicated per data PRI,
    ``i_diffseq_raw`` the difference sequence with its correlations intact,
    ``i_diffseq`` the same after the cross-PRI cut, and ``i_theta`` its
    collapse onto theta.
    """

    i_ext: LabeledMatrix
    i_diffseq_raw: LabeledMatrix
    i_diffseq: LabeledMatrix
    i_theta: LabeledMatrix


def differential_chain(scenario: ScenarioConfig,
                       i_eta: LabeledMatrix | DiagonalMatrix) -> DifferentialChain:
    """Run a differential-frame I_eta, closed form or probed, through the dense chain.

    A scenario whose paths leave no room for the default ``xi_ppm`` raises
    LeakageError from ``jacobian_for``.
    """
    G, P, J = differential_maps(scenario)
    if G.col_layout != i_eta.layout:
        raise ConfigError("observation FIM layout does not match the differential maps")
    i_ext = LabeledMatrix(G.data @ i_eta.data @ G.data.T, G.row_layout)
    raw = LabeledMatrix(P.data.T @ i_ext.data @ P.data, P.col_layout)
    cut = zero_reference_cross(raw)
    return DifferentialChain(i_ext, raw, cut,
                             LabeledMatrix(J.data.T @ cut.data @ J.data, J.col_layout))
