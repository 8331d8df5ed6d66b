"""softplex: simulation and statistical verification of soft random geometric complexes.

Builds random clique and ball-intersection complexes over binomial or
Poisson point clouds, applies downward-closed per-dimension face thinning,
estimates the limit constants of the face-count asymptotics by Monte Carlo,
and verifies the mean/variance/covariance scaling laws and central limit
behavior empirically at desk scale.
"""

from .densities import (
    Density,
    GaussianIsotropic,
    PiecewiseConstantGrid,
    UniformBox,
    density_from_config,
)
from .errors import (
    ConfigurationError,
    DegenerateSampleError,
    InputError,
    MemoryGuardError,
    SoftplexError,
)
from .point_process import PointCloud, sample_binomial, sample_poisson
from .geometry import (
    ALL_SPACE,
    GeometricGraph,
    RegionSpec,
    build_graph,
    region_from_config,
    threshold_pairs,
    threshold_pairs_bruteforce,
)
from .complexes import (
    FaceCounts,
    SimplicialComplex,
    build_cech,
    build_complex,
    build_rips,
    downward_closed,
    euler_characteristic,
    face_counts,
    min_enclosing_ball,
    min_enclosing_ball_radius,
    rips_bruteforce,
    soft_thin,
)
from .constants import (
    ConstantEstimate,
    MomentPrediction,
    RegimeReport,
    estimate_mu,
    estimate_nu,
    estimate_phi,
    estimate_theta,
    poisson_d1_ratios,
    poisson_unit_square_mean_f1,
    predicted_moments,
    regime_check,
    retention_exponent,
    unit_ball_volume,
)
from .experiments import (
    CltReport,
    ExperimentConfig,
    ReplicationResult,
    clt_report,
    config_from_dict,
    depoisson_compare,
    kolmogorov_threshold,
    ks_statistic,
    moment_diagnostics,
    normalize,
    run_experiment,
    statistic_samples,
    variance_ratio_report,
)

__version__ = "0.1.0"
