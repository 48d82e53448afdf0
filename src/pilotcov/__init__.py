"""Covariance estimation for massive MIMO uplink training under pilot
contamination, with time-varying pilot schedules."""

from .channel import (
    draw_channels,
    observe,
    squared_rows,
)
from .errors import (
    ConfigError,
    IdentifiabilityError,
    InfeasibleConstraintError,
    InvalidProfileError,
    SingularSystemError,
)
from .estimators import (
    adaptive_estimate,
    adaptive_update,
    estimate_all_rows_ml,
    estimate_obs_covariances,
    llf_gradient,
    ml_fixed_point,
    negative_llf,
    shared_scaling_estimate,
    shared_scaling_fixed_point,
    two_step_reconstruct,
)
from .experiment import (
    ExperimentConfig,
    Record,
    emit_csv,
    load_experiment_config,
    load_result_csv,
    run_experiment,
)
from .linklevel import (
    ls_channel_estimate,
    mmse_channel_estimate,
    rzf_filter,
    uplink_sum_rate,
)
from .scenario import (
    BandLimited,
    RandomSparse,
    ScenarioConfig,
    Uniform,
    generate_covariance_set,
    genie_covariances,
)
from .schedule import (
    Schedule,
    load_schedule,
    make_example_schedule_442,
    make_random_schedule,
    min_schedule_length,
    rank_and_condition,
    save_schedule,
)

__version__ = "0.1.0"
