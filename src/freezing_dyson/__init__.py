"""Finite free convolution, beta-ensemble freezing limits, and the Monte Carlo
machinery that verifies their law-of-large-numbers and central-limit
predictions.

Each public name is imported from its submodule on first use (PEP 562), so
``import freezing_dyson`` loads no submodule, and code that only touches the
exact side never loads the SDE and CLT modules.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_PUBLIC = {
    "elemsym": (
        "MonicPolynomial",
        "RootTuple",
        "elementary_symmetric",
        "newton_esp_from_power_sums",
        "partial_esp",
        "roots_of_monic",
    ),
    "errors": (
        "DimensionMismatch",
        "FreezingDysonError",
        "InvalidParameter",
        "NoConvergence",
        "NonFiniteOutput",
        "NotRealRooted",
        "StepUnstable",
    ),
    "finfree": (
        "MKLift",
        "boxplus",
        "hermite_roots",
        "laguerre_roots",
        "markov_krein_lift",
        "markov_krein_project",
    ),
    "orthopoly": (
        "JacobiMatrix",
        "OrthogonalSystem",
        "SpectralMeasure",
        "dual",
        "dual_hermite_system",
        "dual_laguerre_system",
        "dual_spectral_weights_cd",
        "eigen_tridiag",
        "hermite_jacobi",
        "hermite_zeros",
        "laguerre_jacobi",
        "laguerre_zeros",
        "primitive",
        "scaled_primitive",
        "spectral_measure",
    ),
    "dynamics": (
        "GkTrajectory",
        "MomentSequence",
        "gaussian_closed_polynomial",
        "gaussian_gk",
        "gaussian_limit_closed",
        "laguerre_closed_polynomial",
        "laguerre_gk",
        "laguerre_limit_closed",
        "limit_roots",
        "moment_sequence",
    ),
    "stochastic": (
        "PathEnsemble",
        "SimConfig",
        "simulate_dyson",
        "simulate_laguerre",
    ),
    "stats": (
        "CovarianceReport",
        "EkDriftReport",
        "PrimitiveCltReport",
        "ProcessCltReport",
        "build_q_matrix_gaussian",
        "build_q_matrix_laguerre",
        "clt_covariance_gaussian",
        "clt_covariance_laguerre",
        "ek_drift_report",
        "primitive_clt_check",
        "process_clt_check",
        "within_tolerance",
    ),
}
_SUBMODULE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
