"""Cluster membership: each alive non-head joins exactly one head.

Two join rules: nearest head by Euclidean distance, or highest
energy-distance ratio E_res^alpha / d^beta using the head's residual energy
at the start of the round.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Network

NEAREST = "nearest"
ENERGY_DISTANCE = "energy_distance"

_DISTANCE_FLOOR = 1e-12  # co-located member/head; the ratio limit is +inf
_NEAR_D2 = 1e-20         # d^2 below which the floor or co-location may decide
_BLOCK = 32768           # member x candidate entries per block; temporaries stay in cache
_HEADS_PER_CELL = 4      # grid density: a 3x3 block holds ~36 candidate heads
_EXACT_PAIRS = 4096      # smaller calls skip the screen: its fixed cost beats its saving
_GRID_HEADS = 128        # fewer heads: a grid of ~30 cells prunes less than it costs
_SCREEN_REL = 1e-9       # screen margin, far above d^2 vs hypot rounding (+ subnormals)
_TINY = np.finfo(float).tiny
_NEIGHBOURS = np.array([[-1, -1, -1, 0, 0, 0, 1, 1, 1],
                        [-1, 0, 1, -1, 0, 1, -1, 0, 1]])[:, :, None]   # 3x3 cell offsets


@dataclass(frozen=True)
class JoinPolicy:
    kind: str = NEAREST
    alpha: float = 1.0
    beta: float = 1.0


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Each member's head and distance, as arrays over the members in id order."""

    member_ids: np.ndarray      # alive non-heads, ascending
    head_ids: np.ndarray        # the head each member joined
    distances: np.ndarray       # member-to-head distances
    unassigned_ids: np.ndarray  # direct-to-BS fallback (no heads this round)

    @cached_property
    def members(self) -> dict[int, int]:   # member node id -> head node id
        return dict(zip(self.member_ids.tolist(), self.head_ids.tolist()))

    @property
    def unassigned(self) -> list[int]:
        return self.unassigned_ids.tolist()


def assign_members(network: Network, heads, policy: JoinPolicy) -> ClusterAssignment:
    """Assign every alive non-head node to a head per the join policy.

    Ties go to the lower head id. Each member is scored against the heads of
    its 3x3 block of grid cells (against all heads when there are few), in
    blocks of member rows: O(N + H + block) memory.
    """
    head_ids = np.sort(np.asarray(heads, dtype=np.intp))
    joining = network.alive.copy()
    joining[head_ids] = False
    member_ids = joining.nonzero()[0]
    if not (head_ids.size and member_ids.size):   # without heads all go direct to the BS
        none = member_ids[:0]
        return ClusterAssignment(none, none, np.empty(0), none if head_ids.size else member_ids)

    h, m = (np.take(network.xy, ids, axis=1) for ids in (head_ids, member_ids))
    weights = None if policy.kind == NEAREST else network.e_res[head_ids] ** policy.alpha
    if member_ids.size * head_ids.size <= _EXACT_PAIRS:
        choice = _exact_choice(m, h, weights, policy.beta)
    else:
        with np.errstate(all="ignore"):   # inf/nan screen scores are re-decided
            choice = _screened_choice(m, h, weights, policy.beta)
    dist = np.hypot(m[0] - h[0, choice], m[1] - h[1, choice])   # no dearer than a table read-back
    return ClusterAssignment(member_ids, head_ids[choice], dist, member_ids[:0])


def _screened_choice(m, h, weights, beta) -> np.ndarray:
    """Best head per member (columns of the (2, M) `m` and (2, H) `h`) by a
    screen score, lower wins: d^2, or d^beta / E^alpha.

    With _GRID_HEADS heads or more, each member is screened only against the
    heads of its 3x3 block of grid cells (see _grid). A row a head outside
    its block could win is screened again on every head, so where the guard
    often fails the join costs about an all-heads screen, not a full
    np.hypot table. With fewer heads a grid prunes less than it costs, and
    every row is screened on every head. A row whose screen is not clear is
    decided by _exact_choice on all heads: the runner-up is within
    _SCREEN_REL of the best (d^2 and np.hypot can order near-equal distances
    apart), or a head is inside the distance floor.
    """
    n_heads = h.shape[1]
    every = np.arange(n_heads)[None, :]   # a one-row table: all heads

    def screen_all(p):
        k = p.shape[1]
        return _screen(p, h, weights, beta, every, np.zeros(k, dtype=np.intp),
                       np.full(k, np.inf))

    if n_heads < _GRID_HEADS:
        choice, redo = screen_all(m)
    else:
        choice, redo = _screen(m, h, weights, beta, *_grid(m, h, weights, beta))
        rows = np.flatnonzero(redo)
        if rows.size:
            choice[rows], redo[rows] = screen_all(m[:, rows])
    rows = np.flatnonzero(redo)
    step = max(1, _BLOCK // n_heads)   # the full rows are blocked too
    for k in range(0, rows.size, step):
        r = rows[k:k + step]
        choice[r] = _exact_choice(m[:, r], h, weights, beta)
    return choice


def _grid(m, h, weights, beta):
    """A candidate table of heads per grid cell, each member's row in it, and
    a lower bound per member on the screen score of every head not in its row.

    The heads are binned on a uniform grid over their bounding box, and row c
    of the table lists the heads of the 3x3 block of cells around cell c. A
    member outside the box takes the nearest edge cell.
    """
    n_heads = h.shape[1]
    cells = max(1, round(n_heads / _HEADS_PER_CELL))
    origin = h.min(axis=1, keepdims=True)
    span = h.max(axis=1, keepdims=True) - origin
    span_x, span_y = span.ravel().tolist()
    if span_x > 0 and span_y > 0:   # cells as square as the box allows
        nx = round(min(cells, math.sqrt(cells * span_x / span_y))) or 1
        shape = (nx, max(1, round(cells / nx)))
    else:                           # all heads on one line, or on one point
        shape = (cells if span_x > 0 else 1, cells if span_y > 0 else 1)
    n = np.array(shape)[:, None]
    size = np.where(span > 0, span / n, 1.0)

    def cell_of(p):   # (2, k) positions -> (2, k) cell indices, clamped to the grid
        return np.clip(np.floor((p - origin) / size), 0, n - 1).astype(np.intp)

    # Candidate table: row c lists, in ascending head index, every head in the
    # 3x3 block around cell c; short rows are padded with the sentinel index
    # n_heads, a head at +inf that never wins.
    t = cell_of(h)[:, None, :] + _NEIGHBOURS                    # (2, 9, H)
    inside = ((t >= 0) & (t < n[:, :, None])).all(axis=0)
    key = (t[0] * shape[1] + t[1]) * n_heads + np.arange(n_heads)
    target, head = np.divmod(np.sort(key[inside]), n_heads)
    counts = np.bincount(target, minlength=shape[0] * shape[1])
    table = np.full((counts.size, counts.max()), n_heads)
    table[target, np.arange(target.size) - (np.cumsum(counts) - counts)[target]] = head

    # Guard: every head outside a member's block lies at least `gap` away,
    # the distance to the block's nearest inner edge, as no head lies beyond
    # a grid edge. A member outside the heads' box keeps a finite gap, and its
    # row usually fails the guard because its best head is far. The slack
    # covers rounding in the cell and edge arithmetic.
    slack = _SCREEN_REL * max(np.abs(h).max(), np.abs(m).max())
    i = cell_of(m)
    below = np.where(i >= 2, m - (origin + (i - 1) * size), np.inf)
    above = np.where(i <= n - 3, origin + (i + 2) * size - m, np.inf)
    gap = np.maximum(np.minimum(below, above).min(axis=0) - slack, 0.0)
    member_cell = i[0] * shape[1] + i[1]
    # For the energy-distance join the bound is divided by the largest head
    # weight, so it is loose once head energies spread apart late in a run.
    guard = gap * gap if weights is None else gap ** beta / weights.max()
    return table, member_cell, guard


def _screen(m, h, weights, beta, table, member_row, guard):
    """Screen each member against the heads of its `table` row; returns the
    best head index per member and whether the row must be re-decided: the
    runner-up is within _SCREEN_REL of the best, a head is inside the
    distance floor, or `guard` (a lower bound on every other head's score)
    does not clear the best. Rows go in blocks through one reused buffer."""
    tx, ty = np.append(h, [[np.inf], [np.inf]], axis=1)[:, table]
    tw = None if weights is None else np.append(weights, 1.0)[table]
    mx, my = m
    width = table.shape[1]
    rows = max(1, _BLOCK // width)
    buf = np.empty((2, min(rows, len(mx)), width))   # shared: fresh blocks page-fault
    row = np.arange(rows)
    choice = np.empty(len(mx), dtype=np.intp)
    redo = np.empty(len(mx), dtype=bool)
    for lo in range(0, len(mx), rows):   # mode="clip": np.take fills `out` unbuffered
        part = slice(lo, lo + rows)
        c = member_row[part]
        r = row[:len(c)]
        d2, dy2 = buf[:, :len(c)]
        np.take(tx, c, axis=0, out=d2, mode="clip")
        np.square(np.subtract(d2, mx[part, None], out=d2), out=d2)
        np.take(ty, c, axis=0, out=dy2, mode="clip")
        d2 += np.square(np.subtract(dy2, my[part, None], out=dy2), out=dy2)
        near = weights is not None and d2.min(axis=1) <= _NEAR_D2
        if weights is not None:
            if beta != 2.0:
                d2 **= beta / 2.0
            d2 /= np.take(tw, c, axis=0, out=dy2, mode="clip")
        col = d2.argmin(axis=1)
        best = d2[r, col]
        d2[r, col] = np.inf
        margin = best * (1.0 + _SCREEN_REL) + _TINY
        choice[part] = table[c, col]
        redo[part] = near | ~(d2.min(axis=1) > margin) | ~(guard[part] > margin)  # nan too
    return choice, redo


def _exact_choice(m, h, weights, beta) -> np.ndarray:
    """The join rule on full np.hypot distances; first occurrence wins ties."""
    dist = np.hypot(m[0, :, None] - h[0], m[1, :, None] - h[1])
    if weights is None:
        return np.argmin(dist, axis=1)
    ratio = weights / np.maximum(dist, _DISTANCE_FLOOR) ** beta
    # A member sitting on a head joins it outright, whatever that head's energy.
    ratio[dist <= 0] = np.inf
    return np.argmax(ratio, axis=1)
