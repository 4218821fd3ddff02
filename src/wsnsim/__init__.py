"""Deterministic round-based simulator for energy-efficient WSN clustering.

Implements LEACH, SEP, and adaptive variants that cap the number of
cluster-heads per round, weight election by residual energy, adapt the
election probability to the surviving population, and pick cluster-heads by
an energy-distance ratio.
"""
from .model import FieldConfig, RadioParams
from .reporting import SimulationSummary, write_round_csv, write_summary_json
from .simulator import RoundRecord, algorithm_names, run_simulation

__all__ = [
    "FieldConfig", "RadioParams", "run_simulation", "algorithm_names",
    "RoundRecord", "SimulationSummary", "write_round_csv", "write_summary_json",
]
