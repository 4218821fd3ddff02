"""Deterministic round-based simulator for energy-efficient WSN clustering.

Implements LEACH, SEP, and adaptive variants that cap the number of
cluster-heads per round, weight election by residual energy, adapt the
election probability to the surviving population, and pick cluster-heads by
an energy-distance ratio.
"""
from .analysis import (AnalysisInputs, ClusterBudget, adaptive_probability,
                       max_clusters, optimal_distance,
                       representative_bs_distance, total_energy)
from .election import (ElectionOutcome, ElectionPolicy, elect_cluster_heads,
                       energy_threshold, leach_threshold, refresh_epoch,
                       sep_probabilities)
from .membership import (ClusterAssignment, JoinPolicy, assign_members,
                         energy_distance_ratio)
from .model import (FieldConfig, Network, RadioParams, aggregation_energy,
                    deploy_field, distance_threshold, rx_energy, tx_energy)
from .reporting import (SimulationSummary, stability_metrics, write_round_csv,
                        write_summary_json)
from .simulator import (AlgorithmSpec, RoundRecord, SimulationState, algorithm,
                        algorithm_names, learning_update, run_round,
                        run_simulation)

__all__ = [
    "AnalysisInputs", "ClusterBudget", "adaptive_probability", "max_clusters",
    "optimal_distance", "representative_bs_distance", "total_energy",
    "ElectionOutcome", "ElectionPolicy", "elect_cluster_heads",
    "energy_threshold", "leach_threshold", "refresh_epoch", "sep_probabilities",
    "ClusterAssignment", "JoinPolicy", "assign_members", "energy_distance_ratio",
    "FieldConfig", "Network", "RadioParams", "aggregation_energy", "deploy_field",
    "distance_threshold", "rx_energy", "tx_energy",
    "SimulationSummary", "stability_metrics", "write_round_csv",
    "write_summary_json",
    "AlgorithmSpec", "RoundRecord", "SimulationState", "algorithm",
    "algorithm_names", "learning_update", "run_round", "run_simulation",
]
