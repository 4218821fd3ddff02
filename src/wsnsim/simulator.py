"""The round engine: election, membership, energy accounting, and the
algorithm registry tying the LEACH/SEP variant names to their knobs."""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

import numpy as np

from . import reporting
from .analysis import (AnalysisInputs, adaptive_probability, max_clusters,
                       representative_bs_distance)
from .election import (ENERGY_WEIGHTED, PLAIN, ElectionPolicy,
                       elect_cluster_heads, refresh_epoch)
from .membership import ENERGY_DISTANCE, NEAREST, JoinPolicy, assign_members
from .model import (ADVANCED, FieldConfig, Node, RadioParams, _tx_energy,
                    aggregation_energy, deploy_field, round_half_up, rx_energy)

RNG_ALGORITHM = "python-random-mt19937"

LEACH = "leach"
SEP = "sep"


@dataclass(frozen=True)
class AlgorithmSpec:
    """Registry entry: which mechanisms a named variant enables."""

    name: str
    base: str                     # LEACH or SEP
    threshold_kind: str           # PLAIN or ENERGY_WEIGHTED
    join: JoinPolicy
    capped: bool                  # limit heads per round to the cluster budget
    adaptive_p: bool              # re-derive the election probability each round
    learning_kappa: bool          # re-derive the cluster budget each round


def _build_registry() -> dict[str, AlgorithmSpec]:
    nearest = JoinPolicy(NEAREST)
    reg = {}

    def add(name, base, threshold, join, capped, adaptive, learning=False):
        reg[name] = AlgorithmSpec(name=name, base=base, threshold_kind=threshold,
                                  join=join, capped=capped, adaptive_p=adaptive,
                                  learning_kappa=learning)

    for base in (LEACH, SEP):
        add(base, base, PLAIN, nearest, capped=False, adaptive=False)
        add(f"{base}-kp", base, PLAIN, nearest, capped=True, adaptive=True)
        add(f"{base}-kep", base, ENERGY_WEIGHTED, nearest, capped=True, adaptive=True)
        for alpha, beta in ((1, 1), (1, 2)):
            join = JoinPolicy(ENERGY_DISTANCE, alpha=float(alpha), beta=float(beta))
            stem = f"{base}-kef-{alpha}-{beta}"
            add(stem, base, ENERGY_WEIGHTED, join, capped=True, adaptive=False)
            add(f"{stem}-p", base, ENERGY_WEIGHTED, join, capped=True, adaptive=True)
            add(f"{stem}-p-learning", base, ENERGY_WEIGHTED, join, capped=True,
                adaptive=True, learning=True)
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


@dataclass(frozen=True)
class RoundRecord:
    round: int
    alive: int
    dead_total: int
    dead_normal: int
    dead_advanced: int
    head_count: int
    residual_energy_total: float
    p_used: float
    kappa_used: float


@dataclass
class SimulationState:
    """Mutable per-run state; owns the node list and static geometry caches."""

    nodes: list[Node]
    round: int
    kappa_max_raw: float
    p_effective: float
    xy: np.ndarray                # (2, N) node coordinates, column = node id
    bs_dist: list[float]          # node-to-BS distances (np.hypot), uplink cost
    bs_dist_mean: list[float]     # the same by math.hypot, for the learning mean
    cumulative_consumed: float = 0.0
    initial_total: float = 0.0


def _geometry_caches(nodes: list[Node], bs: tuple[float, float]
                     ) -> tuple[np.ndarray, list[float], list[float]]:
    """O(N) static geometry: coordinates, and BS distances by np.hypot and by
    representative_bs_distance's math.hypot (they differ in some last bits)."""
    xy = np.array([[n.x for n in nodes], [n.y for n in nodes]], dtype=float)
    bs_dist = np.hypot(xy[0] - bs[0], xy[1] - bs[1]).tolist()
    return xy, bs_dist, [n.distance_to(*bs) for n in nodes]


def _election_policy(algo: AlgorithmSpec, field: FieldConfig,
                     kappa_raw: float) -> ElectionPolicy:
    cap = max(1, round_half_up(kappa_raw)) if algo.capped else None
    sep_params = None
    if algo.base == SEP:
        sep_params = (field.advanced_energy_factor, field.advanced_fraction)
    return ElectionPolicy(threshold_kind=algo.threshold_kind,
                          base_probability=field.base_probability,
                          sep_params=sep_params,
                          adaptive=algo.adaptive_p,
                          cap=cap)


def learning_update(state: SimulationState, radio: RadioParams,
                    field: FieldConfig) -> float:
    """Re-derive the cluster budget from the surviving population.

    The closed form (`max_clusters`) is re-evaluated with the alive count in
    place of the total node count and the mean alive-node-to-BS distance as
    the representative uplink distance. Before any death these are exactly
    the a-priori inputs, so the budget is a fixed point until the first death.
    The mean adds set-up distances in id order, as representative_bs_distance does.
    """
    alive_dist = [d for n, d in zip(state.nodes, state.bs_dist_mean) if n.alive]
    if not alive_dist:
        raise ValueError("no alive nodes")
    d_bs = sum(alive_dist) / len(alive_dist)
    if d_bs <= 0:
        return state.kappa_max_raw
    inputs = AnalysisInputs(radio=radio,
                            field=replace(field, node_count=len(alive_dist)),
                            bs_distance=d_bs)
    return max_clusters(inputs).raw


def run_round(state: SimulationState, algo: AlgorithmSpec, radio: RadioParams,
              field: FieldConfig, rng: random.Random) -> RoundRecord:
    """Execute one full round and advance the state.

    Election and membership are decided first; the steady state then charges
    members for the uplink to their head, heads for receive + aggregate +
    BS uplink, and headless nodes for a direct BS uplink. Deaths take effect
    at the end of the round; the adapted probability and (when learning) the
    cluster budget are recomputed last for the next round.
    """
    nodes = state.nodes
    policy = _election_policy(algo, field, state.kappa_max_raw)
    p_adp = state.p_effective if algo.adaptive_p else None
    tier_probs = policy.tier_probabilities(p_adp)
    refresh_epoch(nodes, tier_probs, state.round)
    outcome = elect_cluster_heads(nodes, policy, state.round, p_adp, rng)
    assignment = assign_members(nodes, outcome.heads, algo.join, state.xy)

    l = radio.packet_bits
    kappa_used = state.kappa_max_raw
    p_used = state.p_effective
    consumed = 0.0
    member_counts = dict.fromkeys(outcome.heads, 0)
    for (mid, hid), d in zip(assignment.members.items(), assignment.distances):
        consumed += nodes[mid].drain(_tx_energy(radio, l, d))
        member_counts[hid] += 1
    for hid in outcome.heads:
        mc = member_counts[hid]
        cost = (mc * rx_energy(radio, l)
                + aggregation_energy(radio, l, mc + 1)
                + _tx_energy(radio, l, state.bs_dist[hid]))
        consumed += nodes[hid].drain(cost)
    for uid in assignment.unassigned:
        consumed += nodes[uid].drain(_tx_energy(radio, l, state.bs_dist[uid]))

    state.cumulative_consumed += consumed
    alive = dead_normal = dead_advanced = 0
    residual = 0.0
    for node in nodes:
        residual += node.residual_energy
        if node.alive:
            alive += 1
        elif node.tier == ADVANCED:
            dead_advanced += 1
        else:
            dead_normal += 1
    record = RoundRecord(round=state.round, alive=alive,
                         dead_total=dead_normal + dead_advanced,
                         dead_normal=dead_normal, dead_advanced=dead_advanced,
                         head_count=len(outcome.heads),
                         residual_energy_total=residual,
                         p_used=p_used, kappa_used=kappa_used)

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


def run_simulation(field: FieldConfig, radio: RadioParams,
                   algo: AlgorithmSpec | str, seed: int) -> "reporting.SimulationSummary":
    """Deploy a field and run rounds until max_rounds or total extinction."""
    if isinstance(algo, str):
        algo = algorithm(algo)
    rng = random.Random(seed)
    nodes = deploy_field(field, rng)
    xy, bs_dist, bs_dist_mean = _geometry_caches(nodes, field.bs_position)
    d_bs0 = representative_bs_distance(nodes, field.bs_position)
    if d_bs0 <= 0:
        raise ValueError("all nodes co-located with the base station; "
                         "cluster budget undefined")
    budget = max_clusters(AnalysisInputs(radio=radio, field=field, bs_distance=d_bs0))
    state = SimulationState(nodes=nodes, round=0, kappa_max_raw=budget.raw,
                            p_effective=field.base_probability,
                            xy=xy, bs_dist=bs_dist, bs_dist_mean=bs_dist_mean,
                            initial_total=sum(n.initial_energy for n in nodes))

    series: list[RoundRecord] = []
    consumed_series: list[float] = []
    for _ in range(field.max_rounds):
        if not any(n.alive for n in nodes):
            break
        series.append(run_round(state, algo, radio, field, rng))
        consumed_series.append(state.cumulative_consumed)

    first, half, last = reporting.stability_metrics(series, field.node_count)
    return reporting.SimulationSummary(
        algorithm=algo.name, seed=seed,
        first_death_round=first, half_death_round=half, last_death_round=last,
        rounds_executed=len(series), series=series,
        metadata={"rng_algorithm": RNG_ALGORITHM,
                  "config_hash": _config_hash(field, radio)},
        initial_energy_total=state.initial_total,
        consumed_series=consumed_series)
