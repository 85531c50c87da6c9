"""Adaptive look-back window selection for online risk forecasting.

Selects, at every time step, the longest stretch of recent history that is
statistically indistinguishable from the present, then fits the forecast
on it.  Thresholds for the stability tests are calibrated by bootstrap
(iid or moving-block); deterministic threshold families, fixed rolling
windows, and the full-history forecaster ship as baselines, together with
simulation scenarios, evaluation metrics, and a batch CLI.
"""

from types import ModuleType as _ModuleType

from .baselines import (
    SAWSConfig,
    full_window_forecast,
    rolling_forecast,
    saws_threshold,
)
from .bootstrap import (
    BootstrapConfig,
    ThresholdValue,
    block_length,
    block_resample,
    bootstrap_gaps,
    bootstrap_threshold,
    empirical_quantile,
    iid_resample,
)
from .estimators import FitResult, fit_mean, fit_target, fit_var, fit_var_es, tail_es_given_v
from .metrics import (
    ExperimentTensor,
    GaussianTruth,
    SkewedTTruth,
    cumulative_loss,
    cumulative_risk_mean,
    cumulative_risk_var,
    mab,
    mean_variance,
    mse,
)
from .pipeline import (
    BacktestConfig,
    ConfigError,
    DataError,
    ForecastRecord,
    LossSeries,
    MetricsReport,
    emit_results,
    load_price_csv,
    run_backtest,
    run_experiment,
)
from .scenarios import (
    ScenarioPath,
    gen_garch,
    gen_setting_a,
    gen_setting_b,
    generate,
    skewed_t_quantile,
    skewed_t_sample,
)
from .scoring import (
    Mean,
    VaR,
    VaRES,
    empirical_score,
    joint_vares_score,
    pinball_score,
    pointwise_score,
    squared_loss,
)
from .selection import (
    CallableThreshold,
    CandidateGridConfig,
    FixedThreshold,
    SelectionTrace,
    bonferroni_level,
    candidate_windows,
    pairwise_test,
    rejection_probability_gaussian,
    select_window,
)

__version__ = "0.1.0"

# every public name imported above, so each export is listed once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
