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
from isacbounds.jacobians import jacobian_for
from isacbounds.model import (
    Block,
    ConfigError,
    Decoupling,
    Frame,
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


#: a dense map with the layouts of its rows and of its columns
Map = tuple[np.ndarray, ParamLayout, ParamLayout]


def differential_maps(scenario: ScenarioConfig) -> tuple[Map, Map, Map]:
    """(G, P, J_diff): the three dense maps of the differential chain, each
    an ``(array, rows, cols)`` triple.

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
    frame = Frame(scenario, ModulationConfig(Scheme.PPM, Decoupling.DIFFERENTIAL, d_data=n_f))
    J, eta = jacobian_for(frame), frame.eta
    ext = interleaved_layout("ref", L, n_f)
    seq = interleaved_layout("delta", L, n_f)
    paths = np.arange(L)
    ref = 2 * L * np.arange(n_f)[:, None] + paths  # ref_k rows; t_k sits L further

    G = np.zeros((ext.size, eta.size))
    G[ref, paths] = 1.0
    G[np.delete(np.arange(ext.size), ref.ravel()), np.arange(L, eta.size)] = 1.0
    P = np.eye(ext.size)
    P[ref, ref] = -1.0
    P[ref + L, ref] = 1.0
    return (G, ext, eta), (P, ext, seq), (P.T @ G @ J, seq, frame.theta)


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
    (G, ext, eta), (P, _, seq), (J, _, theta) = differential_maps(scenario)
    if eta != i_eta.layout:
        raise ConfigError("observation FIM layout does not match the differential maps")
    i_ext = LabeledMatrix(G @ i_eta.data @ G.T, ext)
    raw = LabeledMatrix(P.T @ i_ext.data @ P, seq)
    cut = zero_reference_cross(raw)
    return DifferentialChain(i_ext, raw, cut, LabeledMatrix(J.T @ cut.data @ J, theta))
