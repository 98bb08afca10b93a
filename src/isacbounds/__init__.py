"""Estimation-theoretic performance bounds for pulse-based UWB joint
ranging/Doppler sensing and low-rate communication.

Public surface:

* :mod:`isacbounds.model` -- configuration records, pulse, SNR, regulatory check
* :mod:`isacbounds.signals` -- frame mean vector and its parameter Jacobian
* :mod:`isacbounds.fim` -- observation Fisher information (closed form + probe)
* :mod:`isacbounds.jacobians` -- structural maps to the physical parameters
* :mod:`isacbounds.bounds` -- EFIM / CRLB, coupling diagnosis, differential pipeline
* :mod:`isacbounds.experiments` -- reference setups, sweeps, crossover, frontier
"""

__version__ = "0.1.0"

from .model import (
    ConfigError,
    Decoupling,
    Frame,
    LeakageError,
    ModulationConfig,
    ParamLayout,
    PathState,
    PulseShape,
    RegulatoryReport,
    ScenarioConfig,
    Scheme,
    UndersampledPulseError,
    amp_for_snr,
    check_regulatory,
    effective_bandwidth,
    received_snr,
    sample_pulse,
)
from .signals import mean_jacobian, mean_vector
from .fim import (
    DiagonalMatrix,
    FdSteps,
    LabeledMatrix,
    observation_fim_analytic,
    observation_fim_numeric,
)
from .jacobians import StructMatrix, e_vector, h_matrix
from .bounds import (
    CoupledParametersError,
    CrlbReport,
    SingularityReport,
    assemble_theta_fim,
    comm_efim_ppm,
    crlb,
    crlb_report,
    differential_pipeline,
    efim,
    range_crlb,
    singularity_report,
)
from .experiments import (
    CrossoverResult,
    ResultTable,
    SweepSpec,
    data_rate,
    find_crossover,
    pareto_table,
    reference_scenario,
    run_sweep,
    validate_suite,
    with_frame,
    with_snr,
)

__all__ = [
    "__version__",
    "ConfigError", "Decoupling", "Frame", "LeakageError", "ModulationConfig", "ParamLayout",
    "PathState", "PulseShape", "RegulatoryReport", "ScenarioConfig", "Scheme",
    "UndersampledPulseError",
    "amp_for_snr", "check_regulatory", "effective_bandwidth", "received_snr",
    "sample_pulse",
    "mean_jacobian", "mean_vector",
    "DiagonalMatrix", "FdSteps", "LabeledMatrix",
    "observation_fim_analytic", "observation_fim_numeric",
    "StructMatrix", "e_vector", "h_matrix",
    "CoupledParametersError", "CrlbReport", "SingularityReport",
    "assemble_theta_fim", "comm_efim_ppm", "crlb", "crlb_report",
    "differential_pipeline", "efim", "range_crlb", "singularity_report",
    "CrossoverResult", "ResultTable", "SweepSpec", "data_rate", "find_crossover",
    "pareto_table", "reference_scenario", "run_sweep", "validate_suite",
    "with_frame", "with_snr",
]
