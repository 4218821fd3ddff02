"""The round engine: election, membership, energy accounting, and the
algorithm registry tying the LEACH/SEP variant names to their knobs."""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

import numpy as np

from . import reporting
from .analysis import (AnalysisInputs, adaptive_probability, bs_distances,
                       max_clusters, representative_bs_distance)
from .election import (ENERGY_WEIGHTED, PLAIN, ElectionPolicy,
                       elect_cluster_heads, refresh_epoch)
from .membership import ENERGY_DISTANCE, NEAREST, JoinPolicy, assign_members
from .model import (FieldConfig, Network, RadioParams, aggregation_energy,
                    deploy_field, ordered_sum, round_half_up, rx_energy,
                    tx_energies)

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
    """Mutable per-run state: the network, and what is fixed per run."""

    network: Network
    round: int
    kappa_max_raw: float
    p_effective: float
    uplink: np.ndarray            # each node's cost of one packet to the BS, J
    bs_dist_mean: np.ndarray      # node-to-BS distances by math.hypot, for the learning mean
    policy: ElectionPolicy | None = None   # built from kappa_max_raw when None
    cumulative_consumed: float = 0.0
    initial_total: float = 0.0


def _geometry_caches(network: Network, bs: tuple[float, float],
                     radio: RadioParams) -> tuple[np.ndarray, np.ndarray]:
    """Set-up: each node's uplink cost at its np.hypot distance to the BS,
    and its math.hypot distance for the learning mean (they differ in some
    last bits, and each result follows its own)."""
    dist = np.hypot(network.xy[0] - bs[0], network.xy[1] - bs[1])
    return tx_energies(radio, radio.packet_bits, dist), bs_distances(network.xy, bs)


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
    alive = state.network.alive
    count = int(np.count_nonzero(alive))
    if not count:
        raise ValueError("no alive nodes")
    d_bs = ordered_sum(state.bs_dist_mean[alive]) / count
    if d_bs <= 0:
        return state.kappa_max_raw
    inputs = AnalysisInputs(radio=radio, field=replace(field, node_count=count),
                            bs_distance=d_bs)
    return max_clusters(inputs).raw


def run_round(state: SimulationState, algo: AlgorithmSpec, radio: RadioParams,
              field: FieldConfig, rng: random.Random) -> RoundRecord:
    """Execute one full round and advance the state.

    Election and membership are decided first; the steady state then charges
    members for the uplink to their head, heads for receive + aggregate +
    BS uplink, and headless nodes for a direct BS uplink. Each alive node has
    one role and is charged once; the consumed total adds members, then
    heads, then headless nodes, each in id order. Deaths take effect at the
    end of the round; the adapted probability and (when learning) the
    cluster budget are recomputed last for the next round.
    """
    net = state.network
    if state.policy is None:
        state.policy = _election_policy(algo, field, state.kappa_max_raw)
    p_adp = state.p_effective if algo.adaptive_p else None
    refresh_epoch(net, state.policy.tier_probabilities(p_adp), state.round)
    outcome = elect_cluster_heads(net, state.policy, state.round, p_adp, rng)
    heads = np.array(outcome.heads, dtype=np.intp)
    assignment = assign_members(net, heads, algo.join)

    l = radio.packet_bits
    counts = np.bincount(assignment.head_ids, minlength=len(net))[heads]
    head_cost = (counts * rx_energy(radio, l) + aggregation_energy(radio, l, 1) * (counts + 1)
                 + state.uplink[heads])
    headless = assignment.unassigned_ids
    charged = np.concatenate((assignment.member_ids, heads, headless))
    cost = np.concatenate((tx_energies(radio, l, assignment.distances), head_cost,
                           state.uplink[headless]))
    residual = net.e_res[charged]
    drawn = np.minimum(cost, residual)
    net.e_res[charged] = residual - drawn
    np.greater(net.e_res, 0.0, out=net.alive)
    state.cumulative_consumed += ordered_sum(drawn)

    n = len(net)
    alive = int(np.count_nonzero(net.alive))
    dead_advanced = int(np.count_nonzero(net.advanced & ~net.alive))
    record = RoundRecord(round=state.round, alive=alive, dead_total=n - alive,
                         dead_normal=n - alive - dead_advanced,
                         dead_advanced=dead_advanced, head_count=heads.size,
                         residual_energy_total=ordered_sum(net.e_res),
                         p_used=state.p_effective, kappa_used=state.kappa_max_raw)

    if alive > 0:
        # The budget evolves first so the adapted probability sees it.
        if algo.learning_kappa:
            kappa = learning_update(state, radio, field)
            if kappa != state.kappa_max_raw:
                state.kappa_max_raw, state.policy = kappa, None
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
    network = deploy_field(field, rng)
    uplink, bs_dist_mean = _geometry_caches(network, field.bs_position, radio)
    d_bs0 = representative_bs_distance(network, field.bs_position)
    if d_bs0 <= 0:
        raise ValueError("all nodes co-located with the base station; "
                         "cluster budget undefined")
    budget = max_clusters(AnalysisInputs(radio=radio, field=field, bs_distance=d_bs0))
    state = SimulationState(network=network, round=0, kappa_max_raw=budget.raw,
                            p_effective=field.base_probability, uplink=uplink,
                            bs_dist_mean=bs_dist_mean,
                            initial_total=ordered_sum(network.e0))

    series: list[RoundRecord] = []
    consumed_series: list[float] = []
    alive = len(network)
    while alive and len(series) < field.max_rounds:
        series.append(run_round(state, algo, radio, field, rng))
        consumed_series.append(state.cumulative_consumed)
        alive = series[-1].alive

    first, half, last = reporting.stability_metrics(series, field.node_count)
    return reporting.SimulationSummary(
        algorithm=algo.name, seed=seed,
        first_death_round=first, half_death_round=half, last_death_round=last,
        rounds_executed=len(series), series=series,
        metadata={"rng_algorithm": RNG_ALGORITHM,
                  "config_hash": _config_hash(field, radio)},
        initial_energy_total=state.initial_total,
        consumed_series=consumed_series)
