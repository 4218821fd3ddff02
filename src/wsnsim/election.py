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
from itertools import repeat, starmap

import numpy as np

from .model import ADVANCED, NORMAL, Network, ordered_sum, round_half_up

PLAIN = "plain"
ENERGY_WEIGHTED = "energy_weighted"


def epoch_length(p: float) -> int:
    """Rounds per rotation epoch for probability p (nearest integer, >= 1)."""
    return max(1, round_half_up(1.0 / p))


def leach_threshold(p: float, round_no: int) -> float:
    """Rotating self-election threshold; rises toward 1 at the epoch's end."""
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p!r}")
    # The epoch has round(1/p) slots, so the denominator stays >= p/2.
    return min(1.0, p / (1.0 - p * (round_no % epoch_length(p))))


def sep_probabilities(p: float, a: float, m_frac: float) -> tuple[float, float]:
    """Two-tier election probabilities (normal, advanced).

    The advanced tier is weighted by (1+a); the population-weighted mean of the
    two probabilities equals p.
    """
    p_nrm = p / (1.0 + a * m_frac)
    return p_nrm, p_nrm * (1.0 + a)


@dataclass(frozen=True)
class ElectionPolicy:
    """How thresholds and per-tier probabilities are formed each round."""

    threshold_kind: str = PLAIN             # PLAIN or ENERGY_WEIGHTED
    base_probability: float = 0.1
    sep_params: tuple[float, float] | None = None   # (a, m) for two-tier weighting
    adaptive: bool = False                  # substitute the adapted probability
    cap: int | None = None                  # max heads per round

    def __post_init__(self) -> None:
        if self.threshold_kind not in (PLAIN, ENERGY_WEIGHTED):
            raise ValueError(f"unknown threshold_kind {self.threshold_kind!r}")
        if not 0 < self.base_probability <= 1:
            raise ValueError(
                f"base_probability must be in (0, 1], got {self.base_probability!r}")
        if self.cap is not None and self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap!r}")

    def tier_probabilities(self, p_adp: float | None = None) -> dict[str, float]:
        """Effective probability per tier, after SEP weighting and adaptation.

        For two-tier policies the adapted probability rescales both tiers by
        p_adp / p, preserving the (1+a) ratio between them.
        """
        if self.adaptive and p_adp is None:
            raise ValueError("adaptive policy needs the adapted probability")
        if self.sep_params is not None:
            a, m_frac = self.sep_params
            p_nrm, p_adv = sep_probabilities(self.base_probability, a, m_frac)
            if self.adaptive:
                scale = p_adp / self.base_probability
                p_nrm, p_adv = p_nrm * scale, p_adv * scale
        else:
            p_nrm = p_adv = p_adp if self.adaptive else self.base_probability
        clamp = lambda q: min(1.0, max(q, 1e-12))
        return {NORMAL: clamp(p_nrm), ADVANCED: clamp(p_adv)}


@dataclass(frozen=True)
class ElectionOutcome:
    heads: list[int]
    candidates_before_cap: int


def refresh_epoch(network: Network, tier_probs: dict[str, float], round_no: int) -> None:
    """Re-admit alive nodes to the candidate pool at their tier's epoch boundary."""
    for tier, p in tier_probs.items():
        if round_no % epoch_length(p) == 0:
            in_tier = network.advanced if tier == ADVANCED else ~network.advanced
            network.eligible |= network.alive & in_tier


def elect_cluster_heads(network: Network, policy: ElectionPolicy, round_no: int,
                        p_adp: float | None, rng: random.Random) -> ElectionOutcome:
    """Run one round of self-election; returns the (possibly capped) head set.

    Draws happen in node-id order for alive eligible nodes only, which keeps
    the outcome a pure function of (network, policy, round, rng state). When
    the candidate set exceeds the cap, the cap-many highest-residual-energy
    candidates are kept, ties broken by lower id. Heads leave the candidate
    pool until their tier's next epoch boundary.

    An adaptive energy-weighted policy divides each energy threshold by the
    mean residual-energy fraction of the alive nodes (clipped at 1), so the
    weighting shares the adapted head budget among the nodes instead of
    shrinking it as the network drains.
    """
    tier_probs = policy.tier_probabilities(p_adp)
    ids = (network.alive & network.eligible).nonzero()[0]
    draws = np.fromiter(starmap(rng.random, repeat((), ids.size)), float, ids.size)
    # The rotating threshold depends only on the tier's p and the round.
    thr = np.where(network.advanced[ids], leach_threshold(tier_probs[ADVANCED], round_no),
                   leach_threshold(tier_probs[NORMAL], round_no))
    if policy.threshold_kind == ENERGY_WEIGHTED:   # scaled by the residual-energy fraction
        fraction = network.e_res / network.e0
        thr = thr * fraction[ids]
        if policy.adaptive and ids.size:   # divided by the alive-mean fraction
            alive = network.alive
            thr = np.minimum(1.0, thr / (ordered_sum(fraction[alive])
                                         / int(np.count_nonzero(alive))))
    candidates = ids[draws < thr]
    before_cap = candidates.size
    if policy.cap is not None and before_cap > policy.cap:
        best = np.lexsort((candidates, -network.e_res[candidates]))[:policy.cap]
        candidates = np.sort(candidates[best])
    network.eligible[candidates] = False
    return ElectionOutcome(heads=candidates.tolist(), candidates_before_cap=before_cap)
