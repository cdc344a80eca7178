"""Monotone binary regression: NPMLE, weak-impact limit laws, MC harness."""

from .estimator import (
    StepEstimate,
    inverse_process,
    log_likelihood,
    npmle_fit,
    pava_fit,
    switch_check,
)
from .limits import (
    DEFAULT_TWO_SIDED_GRID,
    LimitBatch,
    PathGrid,
    chernoff_abs_mean,
    chernoff_cov_integral,
    mu_n,
    sample_limit_batch,
    scaled_chernoff_constant,
)
from .metrics import QuadratureCfg, hellinger, ks_two_sample, l1_error, sup_norm_on
from .model import (
    FeatureLaw,
    HypothesisCube,
    HypothesisPair,
    LinkSpec,
    Sample,
    Scenario,
    build_assouad_cube,
    build_pointwise_hypotheses,
    in_slope_band,
    link_eval,
    link_slope,
    phi_n,
)
from .streams import stream

__version__ = "0.1.0"
