"""Per-round cluster-head self-election.

Every alive node that has not yet served in the current epoch draws a uniform
number and elects itself when the draw falls below a rotating threshold. The
threshold can be weighted by residual energy, the per-node probability can be
two-tier (advanced nodes favored) and/or adapted to the alive population, and
the elected set can be capped.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import Network, ordered_sum, round_half_up, uniforms


@lru_cache(maxsize=1024)   # per p, not per round: a run's p moves only on a death
def epoch_length(p: float) -> int:
    """Rounds per rotation epoch for probability p (nearest integer, >= 1)."""
    return max(1, round_half_up(1.0 / p))


def leach_threshold(p: float, round_no: int) -> float:
    """Rotating self-election threshold; rises toward 1 at the epoch's end."""
    # The epoch has round(1/p) slots, so the denominator stays >= p/2.
    return min(1.0, p / (1.0 - p * (round_no % epoch_length(p))))


@lru_cache(maxsize=1024)   # per p, not per round: a run's p moves only on a death
def tier_probabilities(p: float, sep_params: tuple[float, float] | None,
                       p_run: float) -> tuple[float, float]:
    """Effective (normal, advanced) probabilities, clamped to [1e-12, 1].

    `p_run` is the run's probability this round: the base p, or the adapted
    one. `sep_params` (a, m) splits p as SEP does, into p / (1 + a*m) and
    (1 + a) times that, whose population-weighted mean is p, and scales both
    by p_run / p, which is exactly 1 at p_run = p.
    """
    if sep_params is not None:
        a, m = sep_params
        p_nrm = p / (1.0 + a * m)
        scale = p_run / p
        p_nrm, p_adv = p_nrm * scale, p_nrm * (1.0 + a) * scale
    else:
        p_nrm = p_adv = p_run
    return min(1.0, max(p_nrm, 1e-12)), min(1.0, max(p_adv, 1e-12))


@dataclass
class ElectionOutcome:
    heads: np.ndarray             # intp node ids, ascending
    candidates_before_cap: int


def refresh_epoch(network: Network, tier_probs: tuple[float, float], round_no: int) -> None:
    """Re-admit alive nodes to the candidate pool at their tier's epoch boundary."""
    for p, advanced in zip(tier_probs, (False, True)):
        if round_no % epoch_length(p) == 0:
            in_tier = network.advanced if advanced else ~network.advanced
            network.eligible |= network.alive & in_tier


def elect_cluster_heads(network: Network, tier_probs: tuple[float, float], round_no: int,
                        rng: random.Random, energy_weighted: bool = False,
                        by_alive_mean: bool = False, cap: int | None = None
                        ) -> ElectionOutcome:
    """Run one round of self-election; returns the (possibly capped) head set.

    Each alive eligible node draws one `rng.random()` value, in node-id
    order, through `model.uniforms` (one `getrandbits` call from 256 draws
    on, with the same bits), which keeps the outcome a pure function of
    (network, arguments, rng state). A node's
    threshold is the rotating one of its tier's p in `tier_probs` (normal,
    advanced). When the candidate set exceeds `cap`, the cap-many
    highest-residual-energy candidates are kept, ties broken by lower id.
    Heads leave the candidate pool until their tier's next epoch boundary.

    An `energy_weighted` threshold is scaled by the node's residual-energy
    fraction and, `by_alive_mean`, divided by the alive nodes' mean fraction
    (clipped at 1), so the weighting shares the adapted head budget among the
    nodes instead of shrinking it as the network drains.
    """
    ids = (network.alive & network.eligible).nonzero()[0]
    draws = uniforms(rng, ids.size)
    # The rotating threshold depends only on the tier's p and the round: one
    # scalar when both tiers share p.
    p_nrm, p_adv = tier_probs
    thr = leach_threshold(p_nrm, round_no)
    if p_adv != p_nrm:
        thr = np.where(network.advanced[ids], leach_threshold(p_adv, round_no), thr)
    if energy_weighted:   # scaled by the residual-energy fraction
        fraction = network.e_res / network.e0
        thr = thr * fraction[ids]
        if by_alive_mean and ids.size:   # divided by the alive-mean fraction
            alive = fraction[network.alive]
            thr = np.minimum(1.0, thr / (ordered_sum(alive) / alive.size))
    candidates = ids[draws < thr]
    before_cap = candidates.size
    if cap is not None and before_cap > cap:
        best = np.lexsort((candidates, -network.e_res[candidates]))[:cap]
        candidates = np.sort(candidates[best])
    network.eligible[candidates] = False
    return ElectionOutcome(heads=candidates, candidates_before_cap=before_cap)
