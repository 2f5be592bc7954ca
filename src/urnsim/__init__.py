"""urnsim: simulation and numerics for infinite occupancy (urn) schemes
with regularly varying cell probabilities."""

from .config import ExperimentConfig, load_config
from .distributions import (
    CellDistribution,
    DistributionError,
    DistributionSpec,
    build_distribution,
    slowly_varying,
    smoothed_slowly_varying,
)
from .moments import (
    MomentReport,
    NormalizerSpec,
    T_LSTAR_REGIME,
    asym_mean_coeff,
    asym_var_coeff,
    binomial_tail_at_least,
    depoissonization_gap,
    exact_mean,
    exact_var,
    gamma_tail_partial_sum,
    mean_difference,
    mean_increment_check,
    moment_report,
    normalizer,
    variance_sandwich_check,
)
from .simulate import (
    CheckpointGrid,
    CoupledTrajectory,
    OccupancyState,
    poisson_increments,
    run_coupled,
)
from .studies import (
    STUDIES,
    StudyResult,
    aggregate,
    run_study,
    write_study_outputs,
)

__version__ = "0.1.0"
