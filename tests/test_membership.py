import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_engine import Node, full_table_assign, network_of
from wsnsim import FieldConfig, RadioParams, membership, run_simulation, simulator
from wsnsim.membership import ClusterAssignment, assign_members
from wsnsim.model import deploy_field


def node(i, x, y, energy=0.5):
    return Node(id=i, x=x, y=y, tier="normal", initial_energy=1.0,
                residual_energy=energy)


def assign(nodes, heads, beta):
    return assign_members(network_of(nodes), heads, beta)


def same_assignment(a, b):
    """Equal member, head, squared-distance and unassigned arrays."""
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("member_ids", "head_ids", "d2", "unassigned_ids"))


def random_instance(rng, n_nodes, n_heads, equal_energy=False):
    nodes = [node(i, rng.uniform(0, 100), rng.uniform(0, 100),
                  energy=0.5 if equal_energy else rng.uniform(0.01, 1.0))
             for i in range(n_nodes)]
    heads = rng.sample(range(n_nodes), n_heads)
    return nodes, heads


class TestEnergyDistanceRatio:
    """The energy-distance join picks the head with the highest E_res / d^beta."""

    def test_reference_value(self):
        # beta 2: head 1 (E 0.5 at d 10) scores 0.005, head 2 at
        # d 5 scores 0.0048 with E 0.12 and 0.0052 with E 0.13.
        for e2, joined in ((0.12, 1), (0.13, 2)):
            nodes = [node(0, 0.0, 0.0), node(1, 10.0, 0.0, 0.5), node(2, 0.0, 5.0, e2)]
            assert assign(nodes, [1, 2], 2).members == {0: joined}

    def test_dead_head_never_attracts(self):
        nodes = [node(0, 0.0, 0.0), node(1, 1.0, 0.0, 0.0), node(2, 50.0, 0.0, 0.1)]
        assert assign(nodes, [1, 2], 1).members == {0: 2}

    def test_homogeneity_in_distance(self):
        # beta 1: twice the distance halves the score, so heads at d 4 (E 0.35)
        # and d 8 (E 0.7) tie, and the tie goes to the lower id.
        for e2, joined in ((0.7, 1), (0.7 * (1 + 1e-9), 2)):
            nodes = [node(0, 0.0, 0.0), node(1, 4.0, 0.0, 0.35), node(2, 0.0, 8.0, e2)]
            assert assign(nodes, [1, 2], 1).members == {0: joined}

    def test_sub_picometre_distances_are_scored_as_they_are(self):
        # Equal energies: the nearer head wins at any scale, here at 0.4e-12 m
        # against 0.8e-12 m; the model has no distance floor.
        nodes = [node(0, 0.0, 0.0), node(1, 0.8e-12, 0.0), node(2, 0.0, 0.4e-12)]
        for beta in (None, 1, 2):
            assert assign(nodes, [1, 2], beta).members == {0: 2}


class TestAssignMembers:
    def test_no_heads_all_unassigned(self):
        nodes = [node(i, i, 0.0) for i in range(5)]
        out = assign(nodes, [], None)
        assert out.members == {}
        assert out.unassigned == [0, 1, 2, 3, 4]

    def test_single_head_takes_all(self):
        nodes = [node(i, i * 10.0, 0.0) for i in range(6)]
        out = assign(nodes, [2], None)
        assert out.members == {i: 2 for i in range(6) if i != 2}
        assert out.unassigned == []

    def test_nearest_assignment(self):
        nodes = [node(0, 0, 0), node(1, 100, 0), node(2, 10, 0), node(3, 90, 0)]
        out = assign(nodes, [0, 1], None)
        assert out.members == {2: 0, 3: 1}

    def test_equidistant_unequal_energy_joins_richer_head(self):
        heads = [node(0, 0.0, 0.0, energy=0.2), node(1, 20.0, 0.0, energy=0.8)]
        member = node(2, 10.0, 0.0)
        nodes = heads + [member]
        out = assign(nodes, [0, 1], 1)
        assert out.members == {2: 1}

    def test_exact_tie_goes_to_lower_head_id(self):
        heads = [node(0, 0.0, 0.0, energy=0.5), node(1, 20.0, 0.0, energy=0.5)]
        member = node(2, 10.0, 0.0)
        for beta in (None, 2):
            out = assign(heads + [member], [0, 1], beta)
            assert out.members == {2: 0}

    def test_colocated_member_joins_that_head(self):
        heads = [node(0, 10.0, 10.0, energy=0.0), node(1, 10.5, 10.0, energy=0.9)]
        member = node(2, 10.0, 10.0)
        nodes = heads + [member]
        out = assign(nodes, [0, 1], 2)
        assert out.members == {2: 0}

    def test_dead_nodes_not_assigned(self):
        nodes = [node(0, 0, 0), node(1, 50, 0), node(2, 10, 0)]
        nodes[2].drain(1.0)
        out = assign(nodes, [0], None)
        assert out.members == {1: 0}

    def test_partition_property(self):
        rng = random.Random(21)
        for _ in range(50):
            nodes, heads = random_instance(rng, 30, 4)
            out = assign(nodes, heads, 2)
            alive = {n.id for n in nodes if n.alive}
            assigned = set(out.members) | set(out.unassigned) | set(heads)
            assert assigned == alive
            assert not set(out.members) & set(heads)

    def test_equal_energy_reduces_to_nearest(self):
        rng = random.Random(22)
        for _ in range(100):
            nodes, heads = random_instance(rng, 25, 5, equal_energy=True)
            for beta in (1, 2):
                by_ratio = assign(nodes, heads, beta)
                by_dist = assign(nodes, heads, None)
                assert same_assignment(by_ratio, by_dist)

    def test_deterministic(self):
        rng = random.Random(23)
        nodes, heads = random_instance(rng, 40, 6)
        assert same_assignment(assign(nodes, heads, 1), assign(nodes, heads, 1))

    def test_brute_force_oracle_small_instances(self):
        # Exhaustive pairwise scores in Python floats, no vectorization: the
        # package's numpy arithmetic must decide bit for bit as
        # dx*dx + dy*dy and math.sqrt do, with no fused or reordered operation.
        rng = random.Random(24)
        for _ in range(100):
            n = rng.randrange(2, 11)
            nodes, heads = random_instance(rng, n, rng.randrange(1, n))
            beta = rng.choice([1, 2])
            out = assign(nodes, heads, beta)
            by_id = {x.id: x for x in nodes}
            for m in (x for x in nodes if x.alive and x.id not in set(heads)):
                best, best_score = None, math.inf
                for h in sorted(heads):
                    dx, dy = m.x - by_id[h].x, m.y - by_id[h].y
                    d2 = dx * dx + dy * dy
                    scaled = math.sqrt(d2) if beta == 1 else d2
                    energy = by_id[h].residual_energy
                    score = scaled / energy if energy else math.inf
                    if score < best_score:   # strict: ties keep the lower head id
                        best, best_score = h, score
                assert out.members[m.id] == best


def reference_assign(nodes, heads, beta):
    """The join rule on a full member x head table, unblocked and unpruned."""
    members, unassigned, d2 = full_table_assign(list(nodes), heads, beta)
    return ClusterAssignment(np.array(list(members), dtype=np.intp),
                             np.array(list(members.values()), dtype=np.intp),
                             np.array(d2), np.array(unassigned, dtype=np.intp))


ORACLE_POLICIES = [None, 1, 2]   # the nearest join, and E_res / d and E_res / d^2


def _nudge(rng, v):
    """v, or one ulp either side of it."""
    return rng.choice((v, v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)))


def oracle_instance(rng, kind, n_max=40):
    """Nodes and heads for one oracle case of the given kind."""
    n = rng.randrange(2, n_max + 1)
    if kind == "lattice":       # exact distance and ratio ties, co-location
        pos = [(rng.randrange(8) * 2.5, rng.randrange(8) * 2.5) for _ in range(n)]
        energy = [rng.choice((0.25, 0.5, 1.0)) for _ in range(n)]
    elif kind == "ring":        # near-equidistant heads around one member
        radius = rng.uniform(1.0, 60.0)
        pos = [(0.0, 0.0)]
        for _ in range(n - 1):
            t = rng.uniform(0.0, 2.0 * math.pi)
            pos.append((radius * math.cos(t), radius * math.sin(t)))
        energy = [0.5] * n
    else:
        pos = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        energy = [rng.uniform(0.01, 1.0) for _ in range(n)]
    if kind == "edges":         # on the cell edges of a [0, 100] head box, or one ulp off
        lattice = 100.0 / rng.choice((12, 60))
        pos = [tuple(_nudge(rng, rng.randrange(int(100 / lattice) + 1) * lattice)
                     for _ in "xy") for _ in range(n)]
    if kind == "energy-span":   # head energies over three decades
        energy = [10.0 ** rng.uniform(-3.0, 0.0) for _ in range(n)]
    if kind == "strong-head":   # weak heads, and one far stronger that wins from afar
        energy = [10.0 ** rng.uniform(-3.0, -1.0) for _ in range(n)]
        energy[rng.randrange(n)] = 1.0
    if kind == "colocated":     # on another node, or 1e-13 m or 2e-12 m off it
        for i in range(1, n):
            if rng.random() < 0.4:
                x, y = pos[rng.randrange(i)]
                pos[i] = (x + rng.choice((0.0, 0.0, 1e-13, 2e-12)), y)
    if kind in ("zero-energy", "colocated"):
        energy = [0.0 if rng.random() < 0.3 else e for e in energy]
    nodes = [node(i, x, y, energy=e)
             for i, ((x, y), e) in enumerate(zip(pos, energy))]
    if kind == "ring":
        heads = list(range(1, n))
    else:
        heads = rng.sample(range(n), rng.randrange(1, n))
    if kind == "edges" and len(heads) >= 2:   # the head box is exactly [0, 100]^2
        (nodes[heads[0]].x, nodes[heads[0]].y), (nodes[heads[1]].x, nodes[heads[1]].y) = \
            (0.0, 0.0), (100.0, 100.0)
    if kind == "corner":        # heads packed in one corner: most guards fail
        for h in heads:
            nodes[h].x, nodes[h].y = rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)
    if kind == "far-head":      # one head far off stretches the grid over empty cells
        far = nodes[rng.choice(heads)]
        far.x, far.y = rng.choice((-1.0, 1.0)) * rng.uniform(1e3, 1e5), rng.uniform(0.0, 100.0)
    if kind == "dead":
        for nd in nodes:
            if nd.id not in heads and rng.random() < 0.4:
                nd.drain(nd.residual_energy)
    return nodes, heads


class TestAssignMembersOracle:
    """Both paths, grid and all-heads, must decide exactly as the full table."""

    @pytest.mark.parametrize("kind", ["random", "lattice", "ring", "colocated",
                                      "zero-energy", "dead", "corner", "edges",
                                      "energy-span", "strong-head", "far-head"])
    @pytest.mark.parametrize("block", [None, 7])
    def test_matches_full_table(self, kind, block, monkeypatch):
        # Every size goes through the grid screen, not the all-heads path
        # of calls with few heads.
        monkeypatch.setattr(membership, "_GRID_HEADS", 0)
        if block is not None:   # many blocks per call, and a grid of many cells
            monkeypatch.setattr(membership, "_BLOCK", block)
            monkeypatch.setattr(membership, "_HEADS_PER_CELL", 0.25)
        self.check(random.Random(f"{kind}-{block}"), kind)

    @pytest.mark.parametrize("kind", ["random", "lattice", "ring", "colocated",
                                      "zero-energy", "strong-head"])
    def test_all_heads_screen_matches_full_table(self, kind, monkeypatch):
        # Fewer heads than _GRID_HEADS: every row is scored on all heads,
        # in blocks of a few rows.
        assert 40 < membership._GRID_HEADS   # oracle_instance has at most 40 nodes
        monkeypatch.setattr(membership, "_BLOCK", 7)
        self.check(random.Random(f"all-heads-{kind}"), kind)

    @staticmethod
    def check(rng, kind):
        for _ in range(150):
            nodes, heads = oracle_instance(rng, kind)
            net = network_of(nodes)
            for beta in ORACLE_POLICIES:
                assert same_assignment(assign_members(net, heads, beta),
                                       reference_assign(nodes, heads, beta)), \
                    (kind, beta)

    def test_multi_block_instance(self):
        rng = random.Random(25)
        nodes, _ = random_instance(rng, 5500, 1)
        heads = rng.sample(range(5500), 500)   # 5 000 x 500, many blocks of rows
        assert 5000 * 9 * membership._HEADS_PER_CELL > membership._BLOCK
        net = network_of(nodes)
        for beta in ORACLE_POLICIES:
            assert same_assignment(assign_members(net, heads, beta),
                                   reference_assign(nodes, heads, beta))

    def test_squared_distance_order_beats_hypot_order(self):
        # d^2 ranks head 1 nearer, np.hypot ranks head 0 nearer; the
        # decision follows d^2, and the reported value is head 1's d^2.
        nodes = [node(0, 7.736670605309533, 28.18991754207212),
                 node(1, 28.52235084173048, -6.403360488456255),
                 node(2, 0.0, 0.0)]
        dx2 = [nodes[h].x * nodes[h].x + nodes[h].y * nodes[h].y for h in (0, 1)]
        dist = [float(np.hypot(nodes[h].x, nodes[h].y)) for h in (0, 1)]
        assert dx2[1] < dx2[0] and dist[0] < dist[1]
        for beta in ORACLE_POLICIES:
            out = assign(nodes, [0, 1], beta)
            assert out.members == {2: 1}
            assert out.d2.tolist() == [dx2[1]]


class TestGridPruning:
    """The 3x3 block settles almost every row; few are scored again on all heads."""

    @staticmethod
    def count_rows(network, heads, beta, monkeypatch):
        """Rows sent to the all-heads path after the grid's pass."""
        rows = []
        all_heads = membership._all_heads
        monkeypatch.setattr(membership, "_all_heads",
                            lambda m, *args: (rows.append(m.shape[1]), all_heads(m, *args))[1])
        out = assign_members(network, heads, beta)
        assert same_assignment(out, reference_assign(network, heads, beta))
        return sum(rows)

    @pytest.mark.parametrize("policy", ORACLE_POLICIES, ids=["policy0", "policy1", "policy2"])
    def test_few_rows_are_redecided(self, policy, monkeypatch):
        # The simulator's own deployment: uniform positions, 0.5 J normal and
        # 1.0 J advanced heads, as on a large field's early rounds.
        network = deploy_field(FieldConfig(node_count=5000), random.Random(26))
        heads = random.Random(27).sample(range(5000), 500)
        assert self.count_rows(network, heads, policy, monkeypatch) < 0.02 * 4500

    def test_guard_failures_are_screened_not_tabled(self, monkeypatch):
        # One head ten times stronger than the rest, as head energies spread
        # late in a lifetime run: its weight bounds every guard, and most rows
        # fail it. They are scored on all heads, in blocks of rows.
        network = deploy_field(FieldConfig(node_count=5000), random.Random(26))
        heads = random.Random(27).sample(range(5000), 500)
        network.e_res[heads] = 0.05
        network.e_res[heads[0]] = 0.5
        rows = self.count_rows(network, heads, 1, monkeypatch)
        assert rows > 0.5 * 4500, rows


@st.composite
def node_positions(draw):
    """(2, N) node positions: uniform, on a lattice of twelfths of the box
    (co-located nodes, nodes on cell edges or one ulp off), on one line or on
    one point, at sides from 1e-155 to 1e80, some far from the origin."""
    n = draw(st.integers(1, 40))
    side = draw(st.sampled_from((1e-155, 1e-3, 1.0, 100.0, 1e80)))
    layout = draw(st.sampled_from(("uniform", "lattice", "row", "column", "diagonal", "point")))
    unit = (st.tuples(st.integers(0, 12), st.sampled_from((-1, 0, 0, 1))).map(
        lambda k: np.nextafter(k[0] / 12, k[1] * np.inf) if k[1] else k[0] / 12)
        if layout == "lattice" else st.floats(0.0, 1.0))
    xy = np.array(draw(st.lists(st.tuples(unit, unit), min_size=n, max_size=n))).T * side
    if layout == "lattice" and n >= 2:   # the box spans the whole lattice
        xy[:, :2] = [[0.0, side], [0.0, side]]
    if layout in ("row", "point"):
        xy[1] = xy[1, 0]
    if layout in ("column", "point"):
        xy[0] = xy[0, 0]
    if layout == "diagonal":
        xy[1] = xy[0]
    return xy + draw(st.sampled_from((0.0, side, 1e3 * side)))


class TestRunGrid:
    """The grid over all nodes, built once per run and cell count."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(node_positions(), st.integers(1, 64))
    def test_guard_gap_bounds_every_node_outside_the_block(self, xy, cells):
        # Sound guard: no node outside a node's 3x3 block is nearer, in the
        # d^2 that the join scores, than the node's cached squared gap.
        (rows, cols), cell, gap2 = membership._bin_nodes(xy, cells)
        i, j = np.divmod(cell.astype(np.intp), cols)
        assert ((1 <= i) & (i <= rows - 2) & (1 <= j) & (j <= cols - 2)).all()
        outside = (abs(i[:, None] - i) >= 2) | (abs(j[:, None] - j) >= 2)
        dx, dy = xy[0][:, None] - xy[0], xy[1][:, None] - xy[1]
        d2 = dx * dx + dy * dy
        assert (gap2[:, None] <= d2)[outside].all()

    def test_fresh_network_has_no_grid(self):
        network = deploy_field(FieldConfig(node_count=2000), random.Random(28))
        assert network.grids == {}
        assign_members(network, random.Random(29).sample(range(2000), 200), None)
        assert len(network.grids) == 1
        assert deploy_field(FieldConfig(node_count=2000), random.Random(28)).grids == {}

    def test_grid_shapes_change_and_nodes_die_between_calls(self):
        network = deploy_field(FieldConfig(node_count=3000), random.Random(30))
        network.e_res[:] = np.random.default_rng(31).uniform(0.01, 1.0, 3000)
        rng = random.Random(32)
        for count in (600, 70, 300, 70, 600, 150, 2000):
            alive = np.flatnonzero(network.alive).tolist()
            heads = rng.sample(alive, count)
            for beta in ORACLE_POLICIES:
                assert same_assignment(assign_members(network, heads, beta),
                                       reference_assign(network, heads, beta)), (count, beta)
            dead = rng.sample(alive, 100)
            network.e_res[dead] = 0.0
            network.alive[dead] = False
        assert len(network.grids) >= 5

    def test_large_field_run_builds_few_grids(self, monkeypatch):
        networks = []
        join = simulator.assign_members
        monkeypatch.setattr(simulator, "assign_members", lambda network, *args: (
            networks.append(network), join(network, *args))[1])
        run_simulation(FieldConfig(node_count=5000, max_rounds=40), RadioParams(), "leach", 0)
        assert len(networks) == 40 and all(n is networks[0] for n in networks)
        assert 1 <= len(networks[0].grids) <= 4
