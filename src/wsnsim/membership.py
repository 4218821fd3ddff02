"""Cluster membership: each alive non-head joins exactly one head.

Two join rules, chosen by `beta`: nearest head (None), or highest
energy-distance ratio E_res / d^beta for beta 1 or 2, using the head's
residual energy at the start of the round. Both are decided on one score per
member-head pair, computed from the squared distance d^2 = dx*dx + dy*dy in
IEEE doubles (see _score), which the charge reads.

With many heads a member is scored only on the heads of nearby grid cells.
Nodes never move, so each node's cell and guard gap are computed once per run
and grid shape (see _bin_nodes), and a round only bins its heads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Network

_BLOCK = 32768           # member x candidate entries per block; temporaries stay in cache
_HEADS_PER_CELL = 2      # grid density: a 3x3 block holds ~18 candidate heads (36 for E/d)
_GRID_HEADS = 64         # fewer heads: scoring every head is as fast as the grid
_SLACK = 1e-9            # guard margin per unit of coordinate: covers cell and edge rounding
_NEIGHBOURS = np.array([[-1, -1, -1, 0, 0, 0, 1, 1, 1],
                        [-1, 0, 1, -1, 0, 1, -1, 0, 1]])   # 3x3 cell offsets


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Each member's head and squared distance, as arrays over the members in id order."""

    member_ids: np.ndarray      # alive non-heads, ascending
    head_ids: np.ndarray        # the head each member joined
    d2: np.ndarray              # member-to-head squared distances, m^2
    unassigned_ids: np.ndarray  # direct-to-BS fallback (no heads this round)

    @cached_property
    def members(self) -> dict[int, int]:   # member node id -> head node id
        return dict(zip(self.member_ids.tolist(), self.head_ids.tolist()))

    @property
    def unassigned(self) -> list[int]:
        return self.unassigned_ids.tolist()


def assign_members(network: Network, heads, beta: int | None) -> ClusterAssignment:
    """Assign every alive non-head node to the head of lowest _score: the
    nearest for `beta` None, else the lowest d^beta / E_res (beta 1 or 2).

    Ties go to the lower head id. With fewer than _GRID_HEADS heads each
    member is scored on every head; with more, on the heads of its 3x3 block
    of grid cells, and again on every head when one outside the block could
    win. Rows go in blocks: O(N + H + block) memory. The reported d2 is
    dx*dx + dy*dy of the chosen pairs, the value the nearest join scored.
    """
    head_ids = np.array(heads, dtype=np.intp)
    head_ids.sort()
    joining = network.alive.copy()
    joining[head_ids] = False
    member_ids = joining.nonzero()[0]
    if not (head_ids.size and member_ids.size):   # without heads all go direct to the BS
        none = member_ids[:0]
        return ClusterAssignment(none, none, np.empty(0), none if head_ids.size else member_ids)

    h, m = network.xy.take(head_ids, axis=1), network.xy.take(member_ids, axis=1)
    weights = None if beta is None else network.e_res[head_ids]
    if head_ids.size < _GRID_HEADS:
        choice = _all_heads(m, h, weights, beta)
    else:
        choice, clear = _screen(m, h, weights, beta,
                                *_grid(network, head_ids, member_ids, weights, beta))
        rows = np.flatnonzero(~clear)
        choice[rows] = _all_heads(m[:, rows], h, weights, beta)
    d = m - h.take(choice, axis=1)
    d *= d
    return ClusterAssignment(member_ids, head_ids[choice], d[0] + d[1], member_ids[:0])


def _score(d2, weights, beta):
    """The join score of squared distances `d2` to heads of `weights`
    (E_res), lower wins: d^2 for the nearest join (weights None), else
    sqrt(d^2) / weight for beta 1 and d^2 / weight for beta 2, so a
    co-located pair scores 0, as a run's heads hold energy. Overwrites `d2`."""
    if weights is None:
        return d2
    if beta == 1:
        np.sqrt(d2, out=d2)
    with np.errstate(all="ignore"):   # E = 0 scores +inf; a tiny E may overflow
        d2 /= weights
    return d2


def _all_heads(m, h, weights, beta) -> np.ndarray:
    """Best head index per member (columns of the (2, M) `m`) on every head
    (columns of the (2, H) `h`), in blocks of member rows."""
    heads = h[:, None, :]
    step = max(1, _BLOCK // h.shape[1])
    buf = np.empty((2, min(step, m.shape[1]), h.shape[1]))   # shared: fresh blocks page-fault
    choice = np.empty(m.shape[1], dtype=np.intp)
    for lo in range(0, m.shape[1], step):
        block = m[:, lo:lo + step, None]
        d = np.subtract(block, heads, out=buf[:, :block.shape[1]])
        np.multiply(d, d, out=d)
        d2 = np.add(d[0], d[1], out=d[0])   # dx*dx + dy*dy
        choice[lo:lo + step] = _score(d2, weights, beta).argmin(axis=1)
    return choice


def _grid(network, head_ids, member_ids, weights, beta):
    """A candidate table of heads per grid cell, each member's row in it, and
    a lower bound per member on the score of every head not in its row.

    Row c of the table lists the heads of the 3x3 block of cells around cell
    c. The grid, each node's cell and each node's guard gap come from
    `_bin_nodes`, once per run and cell count.
    """
    n_heads = head_ids.size
    # E/d's guard is the loosest: twice the density re-scores fewer rows, at more time per round
    density = _HEADS_PER_CELL * (2 if beta == 1 else 1)
    cells = max(1, round(n_heads / density))
    cells &= -1 << max(0, cells.bit_length() - 3)   # keep 3 leading bits: a run builds few grids
    if cells not in network.grids:   # built in the first round that needs it
        network.grids[cells] = _bin_nodes(network.xy, cells)
    (nx, ny), cell, gap2 = network.grids[cells]

    # Candidate table: row c lists, in ascending head index, every head in the
    # 3x3 block around cell c; short rows are padded with the sentinel index
    # n_heads, a head at +inf that never wins. Listed head-major, each head's
    # 9 target cells sort stably into rows of ascending head index.
    target = (cell.take(head_ids)[:, None] + (_NEIGHBOURS[0] * ny + _NEIGHBOURS[1])).ravel()
    order = target.astype(np.min_scalar_type(nx * ny)).argsort(kind="stable")   # radix up to 16 bits
    target = target[order]
    counts = np.bincount(target, minlength=nx * ny)
    table = np.full((counts.size, counts.max()), n_heads)
    table[target, np.arange(target.size) - (np.cumsum(counts) - counts)[target]] = order // 9
    # For the energy-distance join the bound takes the largest head weight,
    # so it is loose once head energies spread apart late in a run.
    guard = _score(gap2.take(member_ids), None if weights is None else weights.max(), beta)
    return table, cell.take(member_ids), guard


def _bin_nodes(xy, cells):
    """A grid of about `cells` cells, as square as the bounding box of all
    nodes allows, with a border of empty cells so that each 3x3 block lies at
    fixed offsets from its centre: its (rows, columns), each node's flat cell
    index, and each node's squared guard gap. Every node outside a node's 3x3
    block lies at least the gap away: the distance to the block's nearest
    inner edge (+inf where the block reaches the grid edge on every side),
    less a slack that covers rounding in the cell and edge arithmetic.
    """
    origin = xy.min(axis=1, keepdims=True)
    span = xy.max(axis=1, keepdims=True) - origin
    span_x, span_y = span.ravel().tolist()
    if span_x > 0 and span_y > 0:
        nx = round(min(cells, math.sqrt(cells * span_x / span_y))) or 1
        shape = (nx, max(1, round(cells / nx)))
    else:   # all nodes on one line, or on one point
        shape = (cells if span_x > 0 else 1, cells if span_y > 0 else 1)
    n = np.array(shape)[:, None]
    size = np.where(span > 0, span / n, 1.0)
    i = np.clip(np.floor((xy - origin) / size), 0, n - 1).astype(np.intp)
    below = np.where(i >= 2, xy - (origin + (i - 1) * size), np.inf)
    above = np.where(i <= n - 3, origin + (i + 2) * size - xy, np.inf)
    gap = np.maximum(np.minimum(below, above).min(axis=0) - _SLACK * np.abs(xy).max(), 0.0)
    cell = (i[0] + 1) * (shape[1] + 2) + (i[1] + 1)
    return (shape[0] + 2, shape[1] + 2), cell.astype(np.min_scalar_type(cell.max())), gap * gap


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
