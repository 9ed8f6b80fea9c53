"""Finite free convolution, beta-ensemble freezing limits, and the Monte Carlo
machinery that verifies their law-of-large-numbers and central-limit
predictions."""

__version__ = "0.1.0"

from .elemsym import (
    MonicPolynomial,
    RootTuple,
    elementary_symmetric,
    newton_esp_from_power_sums,
    partial_esp,
    roots_of_monic,
)
from .errors import (
    DimensionMismatch,
    FreezingDysonError,
    InvalidParameter,
    NoConvergence,
    NonFiniteOutput,
    NotRealRooted,
    StepUnstable,
)
from .finfree import (
    FFFOperator,
    MKLift,
    boxplus,
    fff,
    fff_product_convolution,
    hermite_roots,
    laguerre_roots,
    markov_krein_lift,
    markov_krein_project,
)
from .orthopoly import (
    JacobiMatrix,
    OrthogonalSystem,
    SpectralMeasure,
    dual,
    dual_hermite_system,
    dual_laguerre_system,
    eigen_tridiag,
    hermite_jacobi,
    hermite_zeros,
    laguerre_freezing_matrix,
    laguerre_jacobi,
    laguerre_zeros,
    primitive,
    scaled_primitive,
    spectral_measure,
)
from .dynamics import (
    GkTrajectory,
    MomentSequence,
    gaussian_gk,
    gaussian_limit_closed,
    laguerre_gk,
    laguerre_limit_closed,
    limit_roots,
    moment_sequence,
)
from .stochastic import (
    PathEnsemble,
    SimConfig,
    sample_ble,
    sample_gbe,
    simulate_dyson,
    simulate_laguerre,
)
from .stats import (
    CovarianceReport,
    MomentProcessEstimate,
    build_q_matrix_gaussian,
    build_q_matrix_laguerre,
    clt_covariance_gaussian,
    clt_covariance_laguerre,
    ek_drift_report,
    moment_process_estimate,
    primitive_clt_check,
    process_clt_check,
)
