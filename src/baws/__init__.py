"""Adaptive look-back window selection for online risk forecasting.

Selects, at every time step, the longest stretch of recent history that is
statistically indistinguishable from the present, then fits the forecast
on it.  Thresholds for the stability tests are calibrated by bootstrap
(iid or moving-block); deterministic threshold families, fixed rolling
windows and the full-history window ship as baselines, together with
simulation scenarios, evaluation metrics, and a batch CLI.
"""

from types import ModuleType as _ModuleType

from .baselines import SAWSConfig, rolling_forecast
from .bootstrap import (
    BootstrapConfig,
    block_length,
    bootstrap_gaps,
    empirical_quantile,
)
from .errors import ConfigError, DataError
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
    generate,
    skewed_t_cdf,
    skewed_t_partial_expectation,
    skewed_t_quantile,
    skewed_t_sample,
)
from .scoring import (
    FitResult,
    Mean,
    VaR,
    VaRES,
    fit_target,
    joint_vares_score,
    pinball_score,
    pointwise_score,
    squared_loss,
)
from .selection import (
    CandidateGridConfig,
    SelectionTrace,
    bonferroni_level,
    candidate_windows,
    rejection_probability_gaussian,
    select_window,
)

__version__ = "0.1.0"

# every public name imported above, so each export is listed once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
