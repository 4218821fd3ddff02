"""The round engine: election, membership, energy accounting, and the
algorithm registry tying the LEACH/SEP variant names to their knobs."""
from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass

import numpy as np

from . import reporting
from .analysis import adaptive_probability, max_clusters, representative_bs_distance
from .election import elect_cluster_heads, refresh_epoch, tier_probabilities
from .membership import assign_members
from .model import (FieldConfig, Network, RadioParams, _require, _require_int, check_range,
                    deploy_field, head_costs, ordered_sum, round_half_up, tx_energies)
from .reporting import RoundRecord

RNG_ALGORITHM = "python-random-mt19937"

LEACH = "leach"
SEP = "sep"


@dataclass(frozen=True)
class AlgorithmSpec:
    """Registry entry: which mechanisms a named variant enables."""

    name: str
    base: str                     # LEACH or SEP
    energy_weighted: bool         # scale the threshold by the residual-energy fraction
    join_beta: int | None         # join the nearest head (None), or the lowest d^beta / E_res
    capped: bool                  # limit heads per round to the cluster budget
    adaptive_p: bool              # re-derive the election probability each round
    learning_kappa: bool          # re-derive the cluster budget each round


# Variant suffix -> (energy_weighted, join_beta, capped, adaptive_p, learning_kappa);
# -kef-a-b joins on E_res^a / d^b, with a = 1.
_VARIANTS = {
    "": (False, None, False, False, False),
    "-kp": (False, None, True, True, False),
    "-kep": (True, None, True, True, False),
    "-kef-1-1": (True, 1, True, False, False),
    "-kef-1-1-p": (True, 1, True, True, False),
    "-kef-1-1-p-learning": (True, 1, True, True, True),
    "-kef-1-2": (True, 2, True, False, False),
    "-kef-1-2-p": (True, 2, True, True, False),
    "-kef-1-2-p-learning": (True, 2, True, True, True),
}
REGISTRY = {base + suffix: AlgorithmSpec(base + suffix, base, *knobs)
            for base in (LEACH, SEP) for suffix, knobs in _VARIANTS.items()}


def algorithm_names() -> list[str]:
    return list(REGISTRY)


def algorithm(algo: AlgorithmSpec | str) -> AlgorithmSpec:
    """The registry entry named `algo`, in any case, or equal to the spec `algo`."""
    name = algo.lower() if isinstance(algo, str) else getattr(algo, "name", None)
    spec = REGISTRY.get(name) if isinstance(name, str) else None
    if spec is None or not isinstance(algo, str) and algo != spec:
        raise ValueError(f"unknown algorithm {algo!r}; known: {', '.join(REGISTRY)}")
    return spec


def _geometry_caches(network: Network, bs: tuple[float, float],
                     radio: RadioParams) -> tuple[np.ndarray, np.ndarray]:
    """Set-up: each node's distance sqrt(dx*dx + dy*dy) to the BS, which the
    kappa mean reads, and its cost of one packet over the squared distance."""
    d2 = np.square(network.xy[0] - bs[0]) + np.square(network.xy[1] - bs[1])
    return np.sqrt(d2), tx_energies(radio, d2)


def _checked_kappa(radio: RadioParams, side_m: float, bs_dist: np.ndarray, alive: np.ndarray,
                   count: int, fallback: float = np.inf) -> float:
    """The budget of the `count` nodes in `alive`: `max_clusters` at their mean
    BS distance, or `fallback` where it is 0; finite and positive, as it caps a round."""
    d_bs = representative_bs_distance(bs_dist, alive)
    kappa = max_clusters(radio, side_m, count, d_bs) if d_bs > 0 else fallback
    _require("kappa of side_m, node_count, fs_amp and mp_amp", kappa,
             0 < kappa < np.inf, "finite and positive")
    return kappa


def learning_update(net: Network, radio: RadioParams, field: FieldConfig) -> float:
    """Re-derive the cluster budget from the surviving population.

    The closed form (`max_clusters`) is re-evaluated with the alive count in
    place of the total node count and the mean alive-node-to-BS distance as
    the representative uplink distance. Before any death these are exactly
    the a-priori inputs, so the budget is a fixed point until the first death.
    Both depend on the alive set alone: the budget is derived again only
    when the alive count differs from `net.learned_at`. It is written to
    `net.kappa_max_raw` and returned.
    """
    alive = net.alive
    count = int(np.count_nonzero(alive))
    if count != net.learned_at:
        net.learned_at, net.kappa_max_raw = count, _checked_kappa(
            radio, field.side_m, net.bs_dist, alive, count, net.kappa_max_raw)
    return net.kappa_max_raw


def run_round(net: Network, algo: AlgorithmSpec, radio: RadioParams,
              field: FieldConfig, rng: random.Random) -> RoundRecord:
    """Execute one full round and advance the run state `net`.

    Election and membership are decided first; the steady state then charges
    members for the uplink to their head, heads for receive + aggregate +
    BS uplink, and headless nodes for a direct BS uplink. Each alive node has
    one role and is charged once; the consumed total adds members, then
    heads, then headless nodes, each in id order. Deaths take effect at the
    end of the round; the adapted probability and (when learning) the
    cluster budget are recomputed last for the next round. The dead-advanced
    count is redone only on a death (see `model.Network`).
    """
    sep_params = ((field.advanced_energy_factor, field.advanced_fraction)
                  if algo.base == SEP else None)
    tier_probs = tier_probabilities(field.base_probability, sep_params, net.p_effective)
    refresh_epoch(net, tier_probs, net.round)
    cap = max(1, round_half_up(net.kappa_max_raw)) if algo.capped else None
    heads = elect_cluster_heads(net, tier_probs, net.round, rng,
                                energy_weighted=algo.energy_weighted,
                                by_alive_mean=algo.adaptive_p, cap=cap).heads
    assignment = assign_members(net, heads, algo.join_beta)

    if heads.size:   # with heads, every alive non-head is a member
        if net.head_costs is None:
            net.head_costs = head_costs(radio, np.arange(len(net) + 1))
        counts = np.bincount(assignment.head_ids, minlength=len(net))[heads]
        charged = np.concatenate((assignment.member_ids, heads))
        cost = np.concatenate((tx_energies(radio, assignment.d2),
                               net.head_costs[counts] + net.uplink[heads]))
    else:            # without, every alive node goes direct to the BS
        charged = assignment.unassigned_ids
        cost = net.uplink[charged]
    residual = net.e_res[charged]
    drawn = np.minimum(cost, residual)
    net.e_res[charged] = residual - drawn
    np.greater(net.e_res, 0.0, out=net.alive)
    net.cumulative_consumed += ordered_sum(drawn)

    n = len(net)
    alive = int(np.count_nonzero(net.alive))
    if net.dead_advanced[0] != alive:
        net.dead_advanced = (alive, int(np.count_nonzero(net.advanced & ~net.alive)))
    dead_advanced = net.dead_advanced[1]
    # In the CSV's column order; positional arguments cost half of keywords.
    record = RoundRecord(net.round, alive, n - alive, n - alive - dead_advanced,
                         dead_advanced, heads.size, ordered_sum(net.e_res),
                         net.p_effective, net.kappa_max_raw)

    if alive > 0:
        # The budget evolves first so the adapted probability sees it.
        if algo.learning_kappa:
            learning_update(net, radio, field)
        if algo.adaptive_p:
            net.p_effective = adaptive_probability(net.kappa_max_raw, alive)
    net.round += 1
    return record


def _config_hash(field: FieldConfig, radio: RadioParams) -> str:
    text = repr((field, radio))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def start_run(net: Network, field: FieldConfig, radio: RadioParams) -> Network:
    """Set-up: round 0 at the field's p, each node's BS distance and uplink
    cost, and the a-priori budget at the field's node count; returns `net`."""
    net.bs_dist, net.uplink = _geometry_caches(net, field.bs_position, radio)
    net.kappa_max_raw = _checked_kappa(radio, field.side_m, net.bs_dist, net.alive,
                                       field.node_count)
    net.round, net.p_effective = 0, field.base_probability
    return net


def run_simulation(field: FieldConfig, radio: RadioParams,
                   algo: AlgorithmSpec | str, seed: int) -> "reporting.SimulationSummary":
    """Deploy a field and run rounds until max_rounds or total extinction."""
    algo = algorithm(algo)
    seed = _require_int("seed", seed, 0)   # random.Random(-s) would replay seed s
    check_range(field.side_m, field.node_count, radio)
    rng = random.Random(seed)
    net = start_run(deploy_field(field, rng), field, radio)

    series = reporting.RoundSeries()
    consumed_series = array("d")
    alive = len(net)
    while alive and net.round < field.max_rounds:
        series.append(record := run_round(net, algo, radio, field, rng))
        consumed_series.append(net.cumulative_consumed)
        alive = record.alive

    return reporting.SimulationSummary(
        algorithm=algo.name, seed=seed, series=series,
        metadata={"rng_algorithm": RNG_ALGORITHM,
                  "config_hash": _config_hash(field, radio)},
        initial_energy_total=ordered_sum(net.e0),
        consumed_series=consumed_series)
