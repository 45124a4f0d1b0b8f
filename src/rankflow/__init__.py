"""rankflow: stochastic ranking process analysis.

Simulate move-to-front ranking dynamics at finite catalog size, evaluate
the infinite-catalog limit curves and long-tail sales-share functionals in
closed form, and fit hidden power-law sales-rate parameters (N, a, b) to
observed ranking trajectories.
"""

from .dist import (
    SalesRateDistribution,
    discrete_rates,
    laplace_transform,
    load_rates_csv,
)
from .fit import (
    FitOptions,
    FitResult,
    RankingTrajectory,
    Regime,
    chi2,
    classify_regime,
    fit_pareto,
)
from .limit import (
    DivergenceError,
    SalesShareReport,
    build_share_report,
    invert_y_c,
    nonstationary_joint_cdf,
    q_of_r,
    sales_share_potential,
    sales_share_ranking,
    stationary_joint_cdf,
    x_c,
    y_c,
    y_c_short_time,
)
from .sim import (
    CapacityError,
    MissingSnapshotError,
    SimulationConfig,
    SimulationRun,
    empirical_joint_measure,
    run_simulation,
    synthesize_noisy_trajectory,
    x_c_trajectory,
)
from .special import gamma_recursion_shift, upper_incomplete_gamma

__version__ = "0.1.0"

__all__ = [
    "SalesRateDistribution",
    "discrete_rates",
    "gamma_recursion_shift",
    "laplace_transform",
    "load_rates_csv",
    "upper_incomplete_gamma",
    "FitOptions",
    "FitResult",
    "RankingTrajectory",
    "Regime",
    "chi2",
    "classify_regime",
    "fit_pareto",
    "DivergenceError",
    "SalesShareReport",
    "build_share_report",
    "invert_y_c",
    "nonstationary_joint_cdf",
    "q_of_r",
    "sales_share_potential",
    "sales_share_ranking",
    "stationary_joint_cdf",
    "x_c",
    "y_c",
    "y_c_short_time",
    "CapacityError",
    "MissingSnapshotError",
    "SimulationConfig",
    "SimulationRun",
    "empirical_joint_measure",
    "run_simulation",
    "synthesize_noisy_trajectory",
    "x_c_trajectory",
    "__version__",
]
