"""List-decodable mean estimation for bounded-covariance data.

Given n points of which only an alpha-fraction (alpha < 1/2) are clean
samples from an unknown distribution with covariance at most sigma^2 I,
produce a short list of candidate means, at least one of which is close to
the true mean. The estimator is iterative and purely spectral: each branch
is filtered along the top eigendirection of its weighted covariance, by
certifying, soft downweighting, or splitting into two overlapping halves.
"""

from .config import ConfigError, RunConfig
from .dataio import (
    DataFormatError,
    load_hypotheses_json,
    load_points,
    load_points_binary,
    load_points_csv,
    save_hypotheses_json,
    save_points_binary,
    save_points_csv,
)
from .driver import (
    BranchState,
    DriverStep,
    HypothesisList,
    RunStats,
    SubroutineResult,
    list_decode_mean,
    main_subroutine,
    postprocess_unscale,
    preprocess_rescale,
)
from .experiment import load_config, parse_config, run_experiment, run_sweep
from .instances import InstanceSpec, gen_instance
from .listreduce import ReduceConfig, reduce_list
from .multifilter import (
    InfeasibleSplit,
    MultifilterOutcome,
    SplitParams,
    basic_multifilter,
    find_split,
    quantile_interval,
    soft_downweight,
    truncated_variance,
)
from .report import Report, TraceEvent, TraceRecorder, alpha_good, evaluate, write_trace_csv
from .wdata import (
    EigenPair,
    PointSet,
    WeightFn,
    approx_top_eigenpair,
    project,
    weighted_mean,
    weighted_variance,
)

__version__ = "0.1.0"
