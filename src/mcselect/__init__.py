"""Monte-Carlo marginal-likelihood model selection.

Estimates p(y | model) by direct Monte-Carlo under data-centered priors
(uniform-on-ellipsoid, Gaussian importance sampling, truncated Gaussian,
uniform-on-box, stratified box), selects the MAP model, and provides
AIC/BIC baselines plus the polynomial-order experiments built on them.
"""

from .numerics import (
    EmptyInput,
    NotPositiveDefinite,
    DimensionMismatch,
    cholesky,
    cholesky_solve,
    log_det,
    chi2_cdf,
    unit_ball_volume,
)
from .models import (
    Dataset,
    Design,
    FittedModel,
    ParseError,
    polynomial_regressors,
    build_design,
    polynomial_design,
    log_likelihood,
    fit,
    fit_nested,
    generate_data,
    save_dataset_csv,
    load_dataset_y,
)
from .regions import (
    Ellipsoid,
    Box,
    BoxCollapsed,
    BoxPartition,
    PartitionTooLarge,
    default_mu,
    build_ellipsoid,
    bounding_box,
    partition,
)
from .sampling import (
    AcceptanceTooLow,
    SampleBatch,
    random_stream,
    standard_normal,
    accept_reject,
    sample_uniform_box,
    sample_uniform_ellipsoid,
    sample_ellipsoid_direct,
    sample_gaussian,
    sample_truncated_gaussian,
)
from .estimators import (
    MarginalEstimate,
    CriterionScore,
    aic,
    bic,
    ue_estimate,
    ueg_estimate,
    ge_estimate,
    ub_estimate,
    ub_stratified_estimate,
    stratification_segments,
)
from .selection import (
    EmptyCandidates,
    SelectionOutcome,
    select_map,
    select_criterion,
)
from .experiments import (
    ConfigError,
    NoViableCandidate,
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
    select_once,
    write_report,
)

__version__ = "0.1.0"
