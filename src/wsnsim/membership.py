"""Cluster membership: each alive non-head joins exactly one head.

Two join rules: nearest head by Euclidean distance, or highest
energy-distance ratio E_res^alpha / d^beta using the head's residual energy
at the start of the round.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Node

NEAREST = "nearest"
ENERGY_DISTANCE = "energy_distance"

_DISTANCE_FLOOR = 1e-12  # co-located member/head; the ratio limit is +inf
_NEAR_D2 = 1e-20         # d^2 below which the floor or co-location may decide
_BLOCK = 32768           # member x head entries per block; temporaries stay in cache
_EXACT_PAIRS = 4096      # smaller calls skip the screen: its fixed cost beats its saving
_SCREEN_REL = 1e-9       # screen margin, far above d^2 vs hypot rounding (+ subnormals)


@dataclass(frozen=True)
class JoinPolicy:
    kind: str = NEAREST
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (NEAREST, ENERGY_DISTANCE):
            raise ValueError(f"unknown join kind {self.kind!r}")
        if self.kind == ENERGY_DISTANCE and (self.alpha <= 0 or self.beta <= 0):
            raise ValueError("energy_distance join needs alpha, beta > 0")


@dataclass(frozen=True)
class ClusterAssignment:
    members: dict[int, int]     # member node id -> head node id
    unassigned: list[int]       # direct-to-BS fallback (no heads this round)
    distances: list[float]      # member-to-head distances, in `members` order


def energy_distance_ratio(e_res: float, distance: float,
                          alpha: float, beta: float) -> float:
    """Attraction of a head with residual energy e_res at the given distance."""
    if e_res < 0:
        raise ValueError(f"e_res must be >= 0, got {e_res!r}")
    distance = max(distance, _DISTANCE_FLOOR)
    return e_res ** alpha / distance ** beta


def assign_members(nodes: list[Node], heads: list[int], policy: JoinPolicy,
                   xy: np.ndarray) -> ClusterAssignment:
    """Assign every alive non-head node to a head per the join policy.

    Ties go to the lower head id. `nodes` is the whole field in id order
    (nodes[i].id == i); column i of the (2, N) `xy` is node i's position.
    Member x head distances are computed per call in blocks: O(N + block) memory.
    """
    head_ids = sorted(heads)
    if xy.shape != (2, len(nodes)) or any(nodes[h].id != h for h in head_ids):
        raise ValueError("assign_members needs nodes[i].id == i and xy of shape (2, N)")
    head_set = set(head_ids)
    member_ids = [n.id for n in nodes if n.alive and n.id not in head_set]
    if not (head_ids and member_ids):   # without heads all go direct to the BS
        return ClusterAssignment({}, [] if head_ids else member_ids, [])

    (hx, hy), (mx, my) = (np.take(xy, ids, axis=1) for ids in (head_ids, member_ids))
    weights = None if policy.kind == NEAREST else \
        np.array([nodes[h].residual_energy for h in head_ids]) ** policy.alpha
    if len(member_ids) * len(head_ids) <= _EXACT_PAIRS:
        choice = _exact_choice(mx, my, hx, hy, weights, policy.beta)
    else:
        rows = max(1, _BLOCK // len(head_ids))
        buf = np.empty((2, rows, len(head_ids)))   # shared: fresh blocks page-fault
        with np.errstate(all="ignore"):   # inf/nan screen scores are re-decided
            choice = np.concatenate([
                _screen_block(mx[lo:lo + rows], my[lo:lo + rows], hx, hy,
                              weights, policy.beta, buf)
                for lo in range(0, len(member_ids), rows)])
    dist = np.hypot(mx - hx[choice], my - hy[choice])   # no dearer than a table read-back
    members = dict(zip(member_ids, [head_ids[c] for c in choice.tolist()]))
    return ClusterAssignment(members, [], dist.tolist())


def _screen_block(mx, my, hx, hy, weights, beta, buf) -> np.ndarray:
    """Best head per row by a screen score (lower wins): d^2 or d^beta / E^alpha.
    Rows with a runner-up within _SCREEN_REL of the best (d^2 and np.hypot can
    order near-equal distances apart) or a head inside the floor are re-decided."""
    d2, dy2 = buf[:, :len(mx)]
    np.square(np.subtract(mx[:, None], hx, out=d2), out=d2)
    d2 += np.square(np.subtract(my[:, None], hy, out=dy2), out=dy2)
    near = weights is not None and d2.min(axis=1) <= _NEAR_D2
    if weights is not None:
        if beta != 2.0:
            d2 **= beta / 2.0
        d2 /= weights
    choice = d2.argmin(axis=1)
    best = np.take_along_axis(d2, choice[:, None], 1)[:, 0]
    np.put_along_axis(d2, choice[:, None], np.inf, 1)
    margin = best * (1.0 + _SCREEN_REL) + np.finfo(float).tiny
    redo = np.flatnonzero(near | ~(d2.min(axis=1) > margin))   # nan rows too
    if redo.size:
        choice[redo] = _exact_choice(mx[redo], my[redo], hx, hy, weights, beta)
    return choice


def _exact_choice(mx, my, hx, hy, weights, beta) -> np.ndarray:
    """The join rule on full np.hypot distances; first occurrence wins ties."""
    dist = np.hypot(mx[:, None] - hx, my[:, None] - hy)
    if weights is None:
        return np.argmin(dist, axis=1)
    ratio = weights / np.maximum(dist, _DISTANCE_FLOOR) ** beta
    # A member sitting on a head joins it outright, whatever that head's energy.
    ratio[dist <= 0] = np.inf
    return np.argmax(ratio, axis=1)
