"""A scalar reference round engine: one `Node` object per sensor, one Python
step per node.

This is the engine wsnsim ran before its state became arrays, kept as a test
oracle. It shares only scalar pieces with the package (the config types, the
closed-form analysis, the registry, `tier_probabilities` and reporting), and it
joins members on a full member x head table of squared distances instead of
the package's blocked and grid-pruned join. Every float total is a
left-to-right loop, the order the package's `np.cumsum` totals reproduce on
every Python version.

`network_of` turns a list of `Node`s into the package's `Network`, so unit
tests can describe small fields node by node.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from wsnsim import reporting
from wsnsim.analysis import adaptive_probability, max_clusters
from wsnsim.election import epoch_length, leach_threshold, tier_probabilities
from wsnsim.membership import NEAREST
from wsnsim.model import FieldConfig, Network, RadioParams, round_half_up
from wsnsim.simulator import (RNG_ALGORITHM, SEP, AlgorithmSpec, RoundRecord, _config_hash,
                              algorithm)

NORMAL = "normal"
ADVANCED = "advanced"


@dataclass
class Node:
    """One sensor node: position, tier, and mutable energy/role state."""

    id: int
    x: float
    y: float
    tier: str
    initial_energy: float
    residual_energy: float = field(default=-1.0)
    alive: bool = True
    eligible: bool = True
    last_head_round: int | None = None

    def __post_init__(self) -> None:
        if self.residual_energy < 0:
            self.residual_energy = self.initial_energy

    def distance_to(self, x: float, y: float) -> float:
        return math.hypot(self.x - x, self.y - y)

    def drain(self, amount: float) -> float:
        """Subtract energy, clamped at zero. Returns the amount actually drawn."""
        if amount < 0:
            raise ValueError(f"drain amount must be >= 0, got {amount!r}")
        drawn = min(amount, self.residual_energy)
        self.residual_energy -= drawn
        self.alive = self.residual_energy > 0
        return drawn


def network_of(nodes: list[Node]) -> Network:
    """The package's Network holding the state of `nodes` (nodes[i].id == i)."""
    assert [n.id for n in nodes] == list(range(len(nodes)))
    net = Network(np.array([[n.x for n in nodes], [n.y for n in nodes]], dtype=float),
                  np.array([n.tier == ADVANCED for n in nodes], dtype=bool),
                  np.array([n.initial_energy for n in nodes], dtype=float))
    net.e_res[:] = [n.residual_energy for n in nodes]
    net.alive[:] = [n.alive for n in nodes]
    net.eligible[:] = [n.eligible for n in nodes]
    return net


def ordered_sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def tx_energy(radio: RadioParams, bits: int, distance: float) -> float:
    if distance <= math.sqrt(radio.fs_amp / radio.mp_amp):
        return bits * radio.elec_energy_per_bit + bits * radio.fs_amp * distance ** 2
    return bits * radio.elec_energy_per_bit + bits * radio.mp_amp * distance ** 4


def deploy_field(config: FieldConfig, rng: random.Random) -> list[Node]:
    n = config.node_count
    positions = [(rng.uniform(0.0, config.side_m), rng.uniform(0.0, config.side_m))
                 for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    advanced_ids = set(order[:round_half_up(config.advanced_fraction * n)])
    e0 = config.initial_energy
    e_adv = e0 * (1.0 + config.advanced_energy_factor)
    return [Node(id=i, x=x, y=y, tier=ADVANCED, initial_energy=e_adv) if i in advanced_ids
            else Node(id=i, x=x, y=y, tier=NORMAL, initial_energy=e0)
            for i, (x, y) in enumerate(positions)]


def representative_bs_distance(nodes: list[Node], bs: tuple[float, float]) -> float:
    alive = [n for n in nodes if n.alive]
    if not alive:
        raise ValueError("no alive nodes")
    return ordered_sum(float(np.hypot(n.x - bs[0], n.y - bs[1])) for n in alive) / len(alive)


def refresh_epoch(nodes: list[Node], tier_probs: dict[str, float], round_no: int) -> None:
    for tier, p in tier_probs.items():
        if round_no % epoch_length(p) == 0:
            for node in nodes:
                if node.alive and node.tier == tier:
                    node.eligible = True


def elect_cluster_heads(nodes: list[Node], tier_probs: dict[str, float], round_no: int,
                        rng: random.Random, energy_weighted: bool, adaptive: bool,
                        cap: int | None) -> list[int]:
    tier_thresholds = {tier: leach_threshold(p, round_no)
                       for tier, p in tier_probs.items()}
    mean_fraction = 1.0
    if energy_weighted and adaptive:
        fractions = [n.residual_energy / n.initial_energy for n in nodes if n.alive]
        if fractions:
            mean_fraction = ordered_sum(fractions) / len(fractions)
    candidates = []
    for node in nodes:
        if not (node.alive and node.eligible):
            continue
        thr = tier_thresholds[node.tier]
        if energy_weighted:
            thr *= node.residual_energy / node.initial_energy
            if adaptive:
                thr = min(1.0, thr / mean_fraction)
        if rng.random() < thr:
            candidates.append(node)
    if cap is not None and len(candidates) > cap:
        candidates.sort(key=lambda n: (-n.residual_energy, n.id))
        candidates = candidates[:cap]
    for node in candidates:
        node.eligible = False
        node.last_head_round = round_no
    return sorted(n.id for n in candidates)


def full_table_assign(nodes: list[Node], heads: list[int], policy
                      ) -> tuple[dict[int, int], list[int], list[float]]:
    """(member -> head, unassigned, member distances) from the full table of
    squared distances d2 = dx*dx + dy*dy: the nearest join takes the lowest
    d2, the energy-distance join the lowest max(d2, 1e-24)^(beta/2) / E^alpha
    (sqrt for beta 1), a co-located member (d2 = 0) joins that head, and ties
    go to the lower head id. The distances are np.hypot of the chosen pairs."""
    head_ids = sorted(heads)
    head_set = set(head_ids)
    member_ids = [n.id for n in nodes if n.alive and n.id not in head_set]
    if not head_ids:
        return {}, member_ids, []
    if not member_ids:
        return {}, [], []
    by_id = {n.id: n for n in nodes}
    hx = np.array([by_id[h].x for h in head_ids])
    hy = np.array([by_id[h].y for h in head_ids])
    mx = np.array([by_id[m].x for m in member_ids])
    my = np.array([by_id[m].y for m in member_ids])
    dx, dy = mx[:, None] - hx[None, :], my[:, None] - hy[None, :]
    d2 = dx * dx + dy * dy
    if policy.kind == NEAREST:
        choice = np.argmin(d2, axis=1)   # first occurrence -> lowest head id
    else:
        energies = np.array([by_id[h].residual_energy for h in head_ids])
        floored = np.maximum(d2, 1e-24)
        scaled = np.sqrt(floored) if policy.beta == 1.0 else floored ** (policy.beta / 2.0)
        with np.errstate(divide="ignore"):   # a head of zero energy scores +inf
            score = scaled / energies[None, :] ** policy.alpha
        score[d2 == 0] = 0.0
        choice = np.argmin(score, axis=1)
    dist = np.hypot(dx, dy)
    members = {m: head_ids[c] for m, c in zip(member_ids, choice)}
    return members, [], [float(dist[i, c]) for i, c in enumerate(choice)]


@dataclass
class State:
    nodes: list[Node]
    round: int
    kappa_max_raw: float
    p_effective: float
    cumulative_consumed: float = 0.0


def learning_update(state: State, radio: RadioParams, field: FieldConfig,
                    bs: tuple[float, float]) -> float:
    alive = sum(n.alive for n in state.nodes)
    d_bs = representative_bs_distance(state.nodes, bs)
    if d_bs <= 0:
        return state.kappa_max_raw
    return max_clusters(radio, field.side_m, alive, d_bs)


def run_round(state: State, algo: AlgorithmSpec, radio: RadioParams,
              field: FieldConfig, rng: random.Random) -> RoundRecord:
    nodes = state.nodes
    sep_params = ((field.advanced_energy_factor, field.advanced_fraction)
                  if algo.base == SEP else None)
    p_adp = state.p_effective if algo.adaptive_p else None
    tier_probs = dict(zip((NORMAL, ADVANCED),
                          tier_probabilities(field.base_probability, sep_params, p_adp)))
    cap = max(1, round_half_up(state.kappa_max_raw)) if algo.capped else None
    refresh_epoch(nodes, tier_probs, state.round)
    heads = elect_cluster_heads(nodes, tier_probs, state.round, rng,
                                algo.energy_weighted, algo.adaptive_p,
                                cap)
    members, unassigned, distances = full_table_assign(nodes, heads, algo.join)

    l = radio.packet_bits
    bs = field.bs_position
    consumed = 0.0
    member_counts = dict.fromkeys(heads, 0)
    for (mid, hid), d in zip(members.items(), distances):
        consumed += nodes[mid].drain(tx_energy(radio, l, d))
        member_counts[hid] += 1
    for hid in heads:
        mc = member_counts[hid]
        cost = (mc * (l * radio.elec_energy_per_bit)
                + l * radio.aggregation_energy_per_bit * (mc + 1)
                + tx_energy(radio, l, float(np.hypot(nodes[hid].x - bs[0],
                                                     nodes[hid].y - bs[1]))))
        consumed += nodes[hid].drain(cost)
    for uid in unassigned:
        consumed += nodes[uid].drain(tx_energy(
            radio, l, float(np.hypot(nodes[uid].x - bs[0], nodes[uid].y - bs[1]))))

    state.cumulative_consumed += consumed
    alive = sum(n.alive for n in nodes)
    dead_advanced = sum(not n.alive and n.tier == ADVANCED for n in nodes)
    record = RoundRecord(round=state.round, alive=alive,
                         dead_total=len(nodes) - alive,
                         dead_normal=len(nodes) - alive - dead_advanced,
                         dead_advanced=dead_advanced, head_count=len(heads),
                         residual_energy_total=ordered_sum(n.residual_energy for n in nodes),
                         p_used=state.p_effective, kappa_used=state.kappa_max_raw)
    if alive > 0:
        if algo.learning_kappa:
            state.kappa_max_raw = learning_update(state, radio, field, bs)
        if algo.adaptive_p:
            state.p_effective = adaptive_probability(state.kappa_max_raw, alive)
    state.round += 1
    return record


def run_simulation(field: FieldConfig, radio: RadioParams,
                   algo: AlgorithmSpec | str, seed: int) -> reporting.SimulationSummary:
    if isinstance(algo, str):
        algo = algorithm(algo)
    rng = random.Random(seed)
    nodes = deploy_field(field, rng)
    d_bs0 = representative_bs_distance(nodes, field.bs_position)
    kappa = max_clusters(radio, field.side_m, field.node_count, d_bs0)
    state = State(nodes=nodes, round=0, kappa_max_raw=kappa,
                  p_effective=field.base_probability)
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
        initial_energy_total=ordered_sum(n.initial_energy for n in nodes),
        consumed_series=consumed_series)
