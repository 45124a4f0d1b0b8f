"""rankflow: stochastic ranking process analysis.

Simulate move-to-front ranking dynamics at finite catalog size, evaluate
the infinite-catalog limit curves and long-tail sales-share functionals in
closed form, and fit hidden power-law sales-rate parameters (N, a, b) to
observed ranking trajectories.
"""

import importlib

__version__ = "0.1.0"

# the public names of each module, imported on first use (PEP 562), so that
# `import rankflow` loads no numpy and `rankflow.cli` can set numpy's
# environment before it does
_PUBLIC = {
    "dist": ["SalesRateDistribution", "discrete_rates", "laplace_transform",
             "load_rates_csv", "save_rates_csv"],
    "fit": ["Descent", "FitOptions", "FitResult", "RankingTrajectory", "chi2", "fit_pareto"],
    "limit": ["DivergenceError", "SalesShareReport", "build_share_report", "invert_y_c",
              "nonstationary_joint_cdf", "sales_share_potential", "sales_share_ranking",
              "stationary_joint_cdf", "y_c"],
    "sim": ["CapacityError", "SimulationConfig", "SimulationRun", "empirical_joint_measure",
            "load_events_csv", "load_snapshot_csv", "run_simulation",
            "synthesize_noisy_trajectory"],
}
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
