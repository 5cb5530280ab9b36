"""Hedged AMM liquidity positions: sizing, liquidation risk, simulation.

The package is organized as a pipeline:

- config_domain: parameter records, validation, scenario files, calibration
- analytics: closed-form P&L moments, Sharpe ratio and the optimal hedge h*
- liquidation_fpt: first-passage liquidation probability and the cap h_bar
- montecarlo: path generation, the accounting kernel and aggregation
- experiments: table/figure reproduction on top of the simulator
- cli: the `ammhedge` command
"""

from .analytics import (h_min_variance, h_star, joint_mgf_exponent, pnl_decomposition,
                        pnl_variance, sharpe, variance_components, verify_soc)
from .config_domain import (DAYS_PER_YEAR, DEFAULT_SEED, SCENARIO_KEYS, JumpParams,
                            MarketParams, PositionParams, RateParams, Scenario,
                            ScenarioError, SimConfig, apply_overrides, baseline_scenario,
                            estimate_market_params, load_scenario, parse_rebalance,
                            parse_scenario, read_price_csv, scenario_hash, validate,
                            validate_scenario)
from .experiments import (PRESETS, Table, get_preset, reproduce, run_analytic_vs_mc,
                          run_hedge_grid, run_jump_stress, run_liquidation_stats,
                          run_rebalancing_comparison, run_robustness_pairs, run_sensitivity,
                          write_table)
from .liquidation_fpt import (fpt_inputs, h_bar, h_double_star, liquidation_probability,
                              sigma_tilde)
from .montecarlo import (BatchResult, SummaryStats, aggregate, run_scenario, simulate_batch,
                         write_path_dump)

__version__ = "0.1.0"

__all__ = [
    "MarketParams", "RateParams", "PositionParams", "JumpParams", "SimConfig",
    "Scenario", "ScenarioError", "validate", "validate_scenario",
    "parse_scenario", "load_scenario", "apply_overrides", "parse_rebalance",
    "scenario_hash", "baseline_scenario",
    "estimate_market_params", "read_price_csv",
    "SCENARIO_KEYS", "DAYS_PER_YEAR", "DEFAULT_SEED",
    "joint_mgf_exponent", "variance_components", "pnl_decomposition", "pnl_variance", "sharpe",
    "h_star", "h_min_variance", "verify_soc",
    "sigma_tilde", "fpt_inputs", "liquidation_probability",
    "h_bar", "h_double_star",
    "BatchResult", "SummaryStats", "simulate_batch", "aggregate",
    "run_scenario", "write_path_dump",
    "Table", "PRESETS", "get_preset", "run_hedge_grid", "run_analytic_vs_mc",
    "run_liquidation_stats", "run_rebalancing_comparison", "run_sensitivity",
    "run_robustness_pairs", "run_jump_stress", "reproduce", "write_table",
    "__version__",
]
