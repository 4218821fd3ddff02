"""Closed-form network-energy quantities and the adaptive election probability.

The per-round network energy, as a function of the cluster radius d, has one
interior minimum; its argmin gives the optimal radius, from which the maximum
sensible number of cluster-heads per round follows.
"""
from __future__ import annotations

import math

import numpy as np

from .model import RadioParams, ordered_sum


def optimal_distance(radio: RadioParams, side_m: float, node_count: int,
                     bs_distance: float) -> float:
    """Cluster radius minimizing the per-round network energy (closed form)."""
    if bs_distance <= 0:
        raise ValueError(f"bs_distance must be positive, got {bs_distance!r}")
    ratio = radio.mp_amp * (side_m * side_m) / (2 * math.pi * node_count * radio.fs_amp)
    return math.sqrt(math.sqrt(ratio)) * bs_distance


def max_clusters(radio: RadioParams, side_m: float, node_count: int,
                 bs_distance: float) -> float:
    """Maximum cluster-heads per round, kappa = M^2 / (2*pi*d_opt^2); +inf if d_opt^2 is 0."""
    d_opt = optimal_distance(radio, side_m, node_count, bs_distance)
    d_opt2 = d_opt * d_opt
    return side_m * side_m / (2 * math.pi * d_opt2) if d_opt2 > 0 else math.inf


def adaptive_probability(kappa_max: float, alive_count: int) -> float:
    """Election probability for the next round: kappa_max over alive nodes, capped at 1."""
    return min(1.0, kappa_max / alive_count)


def representative_bs_distance(bs_dist: np.ndarray, alive: np.ndarray) -> float:
    """Mean distance to the base station of the `alive` nodes, added left to
    right in id order; `bs_dist` holds every node's distance."""
    return ordered_sum(bs_dist[alive]) / int(np.count_nonzero(alive))
