"""Closed-form network-energy quantities and the adaptive election probability.

The per-round network energy, as a function of the cluster radius d, has one
interior minimum; its argmin gives the optimal radius, from which the maximum
sensible number of cluster-heads per round follows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FieldConfig, Network, RadioParams, ordered_sum


@dataclass(frozen=True)
class AnalysisInputs:
    radio: RadioParams
    field: FieldConfig
    bs_distance: float  # representative head-to-BS distance, m

    def __post_init__(self) -> None:
        if self.bs_distance <= 0:
            raise ValueError(f"bs_distance must be positive, got {self.bs_distance!r}")


def total_energy(inputs: AnalysisInputs, d: float) -> float:
    """Per-round network energy with cluster radius d.

    Electronics and aggregation terms are d-independent; the head-uplink term
    scales with the cluster count M^2/(2*pi*d^2) and the member term with d^2.
    """
    if d <= 0:
        raise ValueError(f"d must be positive, got {d!r}")
    r = inputs.radio
    n = inputs.field.node_count
    m_side = inputs.field.side_m
    l = r.packet_bits
    const = 2 * l * r.elec_energy_per_bit * n + l * r.aggregation_energy_per_bit * n
    uplink = l * r.mp_amp * inputs.bs_distance ** 4 * m_side ** 2 / (2 * math.pi * d ** 2)
    members = n * l * r.fs_amp * d ** 2
    return const + uplink + members


def optimal_distance(inputs: AnalysisInputs) -> float:
    """Cluster radius minimizing total_energy (closed form)."""
    r = inputs.radio
    n = inputs.field.node_count
    m_side = inputs.field.side_m
    return (r.mp_amp * m_side ** 2 / (2 * math.pi * n * r.fs_amp)) ** 0.25 * inputs.bs_distance


@dataclass(frozen=True)
class ClusterBudget:
    """Maximum heads per round: raw real value, plus the integer cap."""

    raw: float
    rounded: int


def max_clusters(inputs: AnalysisInputs) -> ClusterBudget:
    """Maximum number of cluster-heads permitted per round.

    raw = M^2 / (2*pi*d_opt^2); the cap rounds half-up with a floor of 1.
    """
    d_opt = optimal_distance(inputs)
    raw = inputs.field.side_m ** 2 / (2 * math.pi * d_opt ** 2)
    return ClusterBudget(raw=raw, rounded=max(1, int(math.floor(raw + 0.5))))


def adaptive_probability(kappa_max: float, alive_count: int) -> float:
    """Election probability for the next round: kappa_max over alive nodes, capped at 1."""
    if kappa_max <= 0:
        raise ValueError(f"kappa_max must be positive, got {kappa_max!r}")
    if alive_count < 1:
        raise ValueError(f"alive_count must be >= 1, got {alive_count!r}")
    return min(1.0, kappa_max / alive_count)


def bs_distances(xy: np.ndarray, bs: tuple[float, float]) -> np.ndarray:
    """math.hypot distance to the base station of each column of the (2, N) `xy`."""
    return np.array(list(map(math.hypot, (xy[0] - bs[0]).tolist(),
                             (xy[1] - bs[1]).tolist())))


def representative_bs_distance(network: Network, bs: tuple[float, float]) -> float:
    """Mean Euclidean distance from alive nodes to the base station."""
    alive = int(np.count_nonzero(network.alive))
    if not alive:
        raise ValueError("no alive nodes")
    return ordered_sum(bs_distances(network.xy[:, network.alive], bs)) / alive
