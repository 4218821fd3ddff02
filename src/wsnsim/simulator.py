"""The round engine: election, membership, energy accounting, and the
algorithm registry tying the LEACH/SEP variant names to their knobs."""
from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import reporting
from .analysis import adaptive_probability, max_clusters, representative_bs_distance
from .election import elect_cluster_heads, refresh_epoch, tier_probabilities
from .membership import assign_members
from .model import (FieldConfig, Network, RadioParams, _require, aggregation_energy,
                    deploy_field, ordered_sum, round_half_up, rx_energy,
                    tx_energies)
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


def _build_registry() -> dict[str, AlgorithmSpec]:
    reg = {}

    def add(name, base, weighted, beta, capped, adaptive, learning=False):
        reg[name] = AlgorithmSpec(name=name, base=base, energy_weighted=weighted,
                                  join_beta=beta, capped=capped, adaptive_p=adaptive,
                                  learning_kappa=learning)

    for base in (LEACH, SEP):
        add(base, base, False, None, capped=False, adaptive=False)
        add(f"{base}-kp", base, False, None, capped=True, adaptive=True)
        add(f"{base}-kep", base, True, None, capped=True, adaptive=True)
        for beta in (1, 2):   # -kef-a-b: E_res^a / d^b, with a = 1
            stem = f"{base}-kef-1-{beta}"
            add(stem, base, True, beta, capped=True, adaptive=False)
            add(f"{stem}-p", base, True, beta, capped=True, adaptive=True)
            add(f"{stem}-p-learning", base, True, beta, capped=True, adaptive=True, learning=True)
    return reg


REGISTRY: dict[str, AlgorithmSpec] = _build_registry()


def algorithm_names() -> list[str]:
    return list(REGISTRY)


def algorithm(name: str) -> AlgorithmSpec:
    spec = REGISTRY.get(name.lower())
    if spec is None:
        raise ValueError(f"unknown algorithm {name!r}; "
                         f"known: {', '.join(REGISTRY)}")
    return spec


@dataclass
class SimulationState:
    """Mutable per-run state: the network, what is fixed per run, and caches.

    A fresh state derives each cache on first use. The learned budget and the
    dead-advanced count are tagged with the alive count they were derived at:
    deaths only shrink the alive set, so within a run the count identifies it.
    """

    network: Network
    round: int
    kappa_max_raw: float
    p_effective: float
    bs_dist: np.ndarray           # each node's sqrt(dx*dx + dy*dy) to the BS, m
    uplink: np.ndarray            # each node's cost of one packet over bs_dist, J
    cumulative_consumed: float = 0.0
    head_costs: np.ndarray | None = None   # a head's rx + aggregation by member count, J
    learned: tuple[int, float] = (-1, 0.0)      # (alive count, its learned kappa)
    dead_advanced: tuple[int, int] = (-1, 0)    # (alive count, its dead advanced nodes)


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


def learning_update(state: SimulationState, radio: RadioParams,
                    field: FieldConfig) -> float:
    """Re-derive the cluster budget from the surviving population.

    The closed form (`max_clusters`) is re-evaluated with the alive count in
    place of the total node count and the mean alive-node-to-BS distance as
    the representative uplink distance. Before any death these are exactly
    the a-priori inputs, so the budget is a fixed point until the first death.
    Both depend on the alive set alone: the budget is derived again only when
    the alive count differs from the one in `state.learned`.
    """
    alive = state.network.alive
    count = int(np.count_nonzero(alive))
    if count != state.learned[0]:
        state.learned = (count, _checked_kappa(radio, field.side_m, state.bs_dist, alive,
                                               count, state.kappa_max_raw))
    return state.learned[1]


def run_round(state: SimulationState, algo: AlgorithmSpec, radio: RadioParams,
              field: FieldConfig, rng: random.Random) -> RoundRecord:
    """Execute one full round and advance the state.

    Election and membership are decided first; the steady state then charges
    members for the uplink to their head, heads for receive + aggregate +
    BS uplink, and headless nodes for a direct BS uplink. Each alive node has
    one role and is charged once; the consumed total adds members, then
    heads, then headless nodes, each in id order. Deaths take effect at the
    end of the round; the adapted probability and (when learning) the
    cluster budget are recomputed last for the next round. The dead-advanced
    count is redone only on a death (see SimulationState).
    """
    net = state.network
    sep_params = ((field.advanced_energy_factor, field.advanced_fraction)
                  if algo.base == SEP else None)
    tier_probs = tier_probabilities(field.base_probability, sep_params, state.p_effective)
    refresh_epoch(net, tier_probs, state.round)
    cap = max(1, round_half_up(state.kappa_max_raw)) if algo.capped else None
    heads = elect_cluster_heads(net, tier_probs, state.round, rng,
                                energy_weighted=algo.energy_weighted,
                                by_alive_mean=algo.adaptive_p, cap=cap).heads
    assignment = assign_members(net, heads, algo.join_beta)

    if heads.size:   # with heads, every alive non-head is a member
        if state.head_costs is None:
            c = np.arange(len(net) + 1)
            state.head_costs = c * rx_energy(radio) + aggregation_energy(radio) * (c + 1)
        counts = np.bincount(assignment.head_ids, minlength=len(net))[heads]
        charged = np.concatenate((assignment.member_ids, heads))
        cost = np.concatenate((tx_energies(radio, assignment.d2),
                               state.head_costs[counts] + state.uplink[heads]))
    else:            # without, every alive node goes direct to the BS
        charged = assignment.unassigned_ids
        cost = state.uplink[charged]
    residual = net.e_res[charged]
    drawn = np.minimum(cost, residual)
    net.e_res[charged] = residual - drawn
    np.greater(net.e_res, 0.0, out=net.alive)
    state.cumulative_consumed += ordered_sum(drawn)

    n = len(net)
    alive = int(np.count_nonzero(net.alive))
    if state.dead_advanced[0] != alive:
        state.dead_advanced = (alive, int(np.count_nonzero(net.advanced & ~net.alive)))
    dead_advanced = state.dead_advanced[1]
    # In the CSV's column order; positional arguments cost half of keywords.
    record = RoundRecord(state.round, alive, n - alive, n - alive - dead_advanced,
                         dead_advanced, heads.size, ordered_sum(net.e_res),
                         state.p_effective, state.kappa_max_raw)

    if alive > 0:
        # The budget evolves first so the adapted probability sees it.
        if algo.learning_kappa:
            state.kappa_max_raw = learning_update(state, radio, field)
        if algo.adaptive_p:
            state.p_effective = adaptive_probability(state.kappa_max_raw, alive)
    state.round += 1
    return record


def _config_hash(field: FieldConfig, radio: RadioParams) -> str:
    text = repr((field, radio))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@lru_cache(maxsize=64)
def _check_range(side_m: float, node_count: int, radio: RadioParams) -> None:
    """Raise unless every charge of a run is finite: the uplink over the field
    diagonal's d^2 = 2 * side_m^2, which no d^2 of a run exceeds, and the last
    head-cost entry plus that uplink, which no head's charge exceeds. Once per
    (side, node count, radio): a pass is cached, and a failure raises on every call."""
    diag = 2.0 * side_m * side_m
    with np.errstate(over="ignore"):
        worst = float(tx_energies(radio, np.array(diag)))   # sums with it must not warn
    _require("side_m", side_m, diag > 0 and worst < np.inf,
             "such that the diagonal's d^2 = 2 * side_m^2 is positive and its uplink finite")
    head = node_count * rx_energy(radio) + aggregation_energy(radio) * (node_count + 1) + worst
    _require("node_count * packet_bits * elec_energy_per_bit + (node_count + 1) * packet_bits"
             " * aggregation_energy_per_bit + the diagonal's uplink", head, head < np.inf, "finite")


def run_simulation(field: FieldConfig, radio: RadioParams,
                   algo: AlgorithmSpec | str, seed: int) -> "reporting.SimulationSummary":
    """Deploy a field and run rounds until max_rounds or total extinction."""
    if isinstance(algo, str):
        algo = algorithm(algo)
    _check_range(field.side_m, field.node_count, radio)
    rng = random.Random(seed)
    network = deploy_field(field, rng)
    bs_dist, uplink = _geometry_caches(network, field.bs_position, radio)
    kappa = _checked_kappa(radio, field.side_m, bs_dist, network.alive, field.node_count)
    state = SimulationState(network=network, round=0, kappa_max_raw=kappa,
                            p_effective=field.base_probability, bs_dist=bs_dist,
                            uplink=uplink)

    series = reporting.RoundSeries()
    consumed_series = array("d")
    alive = len(network)
    while alive and len(consumed_series) < field.max_rounds:
        record = run_round(state, algo, radio, field, rng)
        series.append(record)
        consumed_series.append(state.cumulative_consumed)
        alive = record.alive

    first, half, last = reporting.stability_metrics(series, field.node_count)
    return reporting.SimulationSummary(
        algorithm=algo.name, seed=seed,
        first_death_round=first, half_death_round=half, last_death_round=last,
        rounds_executed=len(series), series=series,
        metadata={"rng_algorithm": RNG_ALGORITHM,
                  "config_hash": _config_hash(field, radio)},
        initial_energy_total=ordered_sum(network.e0),
        consumed_series=consumed_series)
