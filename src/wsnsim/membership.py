"""Cluster membership: each alive non-head joins exactly one head.

Two join rules: nearest head, or highest energy-distance ratio
E_res^alpha / d^beta using the head's residual energy at the start of the
round. Both are decided on one score per member-head pair, computed from the
squared distance d^2 = dx*dx + dy*dy in IEEE doubles (see _score).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Network

NEAREST = "nearest"
ENERGY_DISTANCE = "energy_distance"

_D2_FLOOR = 1e-24        # a 1e-12 m distance floor, squared: only co-located pairs score 0
_BLOCK = 32768           # member x candidate entries per block; temporaries stay in cache
_HEADS_PER_CELL = 4      # grid density: a 3x3 block holds ~36 candidate heads
_GRID_HEADS = 128        # fewer heads: a grid of ~30 cells prunes less than it costs
_SLACK = 1e-9            # guard margin per unit of coordinate: covers cell and edge rounding
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
    """Assign every alive non-head node to the head of lowest _score.

    Ties go to the lower head id. With fewer than _GRID_HEADS heads each
    member is scored on every head; with more, on the heads of its 3x3 block
    of grid cells, and again on every head when one outside the block could
    win. Rows go in blocks: O(N + H + block) memory. The reported distances
    are np.hypot of the chosen pairs.
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
    beta = policy.beta
    with np.errstate(all="ignore"):   # a head of zero energy scores +inf
        if head_ids.size < _GRID_HEADS:
            choice = _all_heads(m, h, weights, beta)
        else:
            choice, clear = _screen(m, h, weights, beta, *_grid(m, h, weights, beta))
            rows = np.flatnonzero(~clear)
            choice[rows] = _all_heads(m[:, rows], h, weights, beta)
    dist = np.hypot(m[0] - h[0, choice], m[1] - h[1, choice])
    return ClusterAssignment(member_ids, head_ids[choice], dist, member_ids[:0])


def _score(d2, weights, beta):
    """The join score of squared distances `d2` to heads of `weights`
    (E_res^alpha), lower wins: d^2 for the nearest join (weights None), else
    max(d^2, _D2_FLOOR)^(beta/2) / weight, and 0 for a co-located pair.
    Overwrites `d2`."""
    if weights is None:
        return d2
    zero = d2 == 0
    np.maximum(d2, _D2_FLOOR, out=d2)
    if beta == 1.0:
        np.sqrt(d2, out=d2)
    elif beta != 2.0:
        d2 **= beta / 2.0
    d2 /= weights
    d2[zero] = 0.0
    return d2


def _all_heads(m, h, weights, beta) -> np.ndarray:
    """Best head index per member (columns of the (2, M) `m`) on every head
    (columns of the (2, H) `h`), in blocks of member rows."""
    hx, hy = h
    step = max(1, _BLOCK // h.shape[1])
    buf = np.empty((2, min(step, m.shape[1]), h.shape[1]))   # shared: fresh blocks page-fault
    choice = np.empty(m.shape[1], dtype=np.intp)
    for lo in range(0, m.shape[1], step):
        mx, my = m[:, lo:lo + step, None]
        d2, dy2 = buf[:, :len(mx)]
        np.square(np.subtract(mx, hx, out=d2), out=d2)
        d2 += np.square(np.subtract(my, hy, out=dy2), out=dy2)
        choice[lo:lo + step] = _score(d2, weights, beta).argmin(axis=1)
    return choice


def _grid(m, h, weights, beta):
    """A candidate table of heads per grid cell, each member's row in it, and
    a lower bound per member on the score of every head not in its row.

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
    slack = _SLACK * max(np.abs(h).max(), np.abs(m).max())
    i = cell_of(m)
    below = np.where(i >= 2, m - (origin + (i - 1) * size), np.inf)
    above = np.where(i <= n - 3, origin + (i + 2) * size - m, np.inf)
    gap = np.maximum(np.minimum(below, above).min(axis=0) - slack, 0.0)
    member_cell = i[0] * shape[1] + i[1]
    # For the energy-distance join the bound takes the largest head weight,
    # so it is loose once head energies spread apart late in a run.
    guard = _score(gap * gap, None if weights is None else weights.max(), beta)
    return table, member_cell, guard


def _screen(m, h, weights, beta, table, member_row, guard):
    """Score each member on the heads of its `table` row; returns the best
    head index per member and whether that best is strictly below `guard`
    (a lower bound on every other head's score). Rows go in blocks through
    one reused buffer."""
    tx, ty = np.append(h, [[np.inf], [np.inf]], axis=1)[:, table]
    tw = None if weights is None else np.append(weights, 1.0)[table]
    mx, my = m
    width = table.shape[1]
    rows = max(1, _BLOCK // width)
    buf = np.empty((2, min(rows, len(mx)), width))   # shared: fresh blocks page-fault
    row = np.arange(rows)
    choice = np.empty(len(mx), dtype=np.intp)
    clear = np.empty(len(mx), dtype=bool)
    for lo in range(0, len(mx), rows):   # mode="clip": np.take fills `out` unbuffered
        part = slice(lo, lo + rows)
        c = member_row[part]
        d2, dy2 = buf[:, :len(c)]
        np.take(tx, c, axis=0, out=d2, mode="clip")
        np.square(np.subtract(d2, mx[part, None], out=d2), out=d2)
        np.take(ty, c, axis=0, out=dy2, mode="clip")
        d2 += np.square(np.subtract(dy2, my[part, None], out=dy2), out=dy2)
        w = None if tw is None else np.take(tw, c, axis=0, out=dy2, mode="clip")
        score = _score(d2, w, beta)
        col = score.argmin(axis=1)
        choice[part] = table[c, col]
        clear[part] = score[row[:len(c)], col] < guard[part]
    return choice, clear
