"""Shared helpers for the test suite.

Most tests run on small frames (n_f <= 8, L <= 3) so the whole suite stays
fast; the `kind` shorthand covers every scheme/decoupling combination the
engine supports.
"""

import dataclasses

import numpy as np
import pytest

from isacbounds import fim
from isacbounds.model import Decoupling, ModulationConfig, Scheme, _pulse_values
from isacbounds.experiments import reference_scenario


def make_modulation(kind: str, n_f: int) -> ModulationConfig:
    """Build a ModulationConfig from a compact label.

    Kinds: sensing, ppm-raw, bpsk-raw, ppm-pilot, bpsk-pilot, ppm-diff.
    Pilot kinds split the frame evenly (requires n_f >= 2).
    """
    if kind == "sensing":
        return ModulationConfig(scheme=Scheme.SENSING)
    if kind == "ppm-raw":
        return ModulationConfig(scheme=Scheme.PPM, d_data=n_f)
    if kind == "bpsk-raw":
        return ModulationConfig(scheme=Scheme.BPSK, d_data=n_f)
    if kind == "ppm-pilot":
        return ModulationConfig(scheme=Scheme.PPM, decoupling=Decoupling.PILOT,
                                p_pilots=n_f // 2, d_data=n_f - n_f // 2)
    if kind == "bpsk-pilot":
        return ModulationConfig(scheme=Scheme.BPSK, decoupling=Decoupling.PILOT,
                                p_pilots=n_f // 2, d_data=n_f - n_f // 2)
    if kind == "ppm-diff":
        return ModulationConfig(scheme=Scheme.PPM, decoupling=Decoupling.DIFFERENTIAL,
                                d_data=n_f)
    raise ValueError(f"unknown modulation kind {kind!r}")


ALL_KINDS = ("sensing", "ppm-raw", "bpsk-raw", "ppm-pilot", "bpsk-pilot", "ppm-diff")


def frame_shapes(kind: str, n_fs, n_paths=(1, 2, 3)):
    """(scenario, modulation) pairs of one kind over n_f x L: the kind's own
    frame where it is defined, and on a pilot kind the all-pilot split with
    no data PRI too."""
    pilot = kind.endswith("pilot")
    for n_f in n_fs:
        mods = [make_modulation(kind, n_f)] if n_f >= 2 or not pilot else []
        if pilot:
            mods.append(dataclasses.replace(make_modulation(kind, 2), p_pilots=n_f, d_data=0))
        for L in n_paths:
            for mod in mods:
                yield reference_scenario(n_f=n_f, n_paths=L), mod


def fd_step(sc, name: str, value: float) -> float:
    """The numeric probe's central-difference step for an eta entry, chosen by
    its name, read from the ``fim`` constants at call time."""
    if name.startswith(("tau", "t_")):
        return fim.DELAY_STEP * sc.pulse.alpha
    if name.startswith("phi"):
        return fim.PHASE_STEP
    return fim.AMP_STEP * abs(value)


def default_word(frame) -> np.ndarray:
    """The data word of ``frame.pulses``, read back: 1 on each PRI whose
    pulse differs from the pulse law at the all-zeros word."""
    zero = _pulse_values(frame, np.zeros(frame.scenario.n_f, dtype=np.int64))
    return np.any(frame.pulses != zero, axis=(0, 2))[frame.ref:].astype(np.int64)


#: alpha * f_s just above the sampling edge: per_pri_information accepts the
#: pulse, one percent narrower it does not
EDGE_ALPHA_FS = 0.901


@pytest.fixture
def ref8():
    """Reference scenario: n_f=8, three paths at 20/40/60 ns, 0 dB per path."""
    return reference_scenario()


@pytest.fixture
def ref8_single():
    """Reference scenario with a single path (L=1)."""
    return reference_scenario(n_paths=1)


def sym_eigs(mat: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (mat + mat.T))
