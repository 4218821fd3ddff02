import math
import random

import numpy as np
import pytest

from wsnsim import (ClusterAssignment, JoinPolicy, Node, assign_members,
                    energy_distance_ratio)
from wsnsim import membership
from wsnsim.membership import ENERGY_DISTANCE, NEAREST


def node(i, x, y, energy=0.5):
    return Node(id=i, x=x, y=y, tier="normal", initial_energy=1.0,
                residual_energy=energy)


def coords(nodes):
    """The (2, N) coordinate array assign_members reads, column = node id."""
    return np.array([[n.x for n in nodes], [n.y for n in nodes]], dtype=float)


def random_instance(rng, n_nodes, n_heads, equal_energy=False):
    nodes = [node(i, rng.uniform(0, 100), rng.uniform(0, 100),
                  energy=0.5 if equal_energy else rng.uniform(0.01, 1.0))
             for i in range(n_nodes)]
    heads = rng.sample(range(n_nodes), n_heads)
    return nodes, heads


class TestEnergyDistanceRatio:
    def test_reference_value(self):
        assert energy_distance_ratio(0.5, 10.0, 1, 2) == pytest.approx(0.005)

    def test_dead_head_never_attracts(self):
        assert energy_distance_ratio(0.0, 5.0, 1, 1) == 0.0

    def test_homogeneity_in_distance(self):
        r1 = energy_distance_ratio(0.7, 4.0, 1, 1)
        r2 = energy_distance_ratio(0.7, 8.0, 1, 1)
        assert r2 == pytest.approx(r1 / 2)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            energy_distance_ratio(-0.1, 5.0, 1, 1)


class TestJoinPolicyValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            JoinPolicy(kind="fuzzy")

    def test_energy_distance_needs_positive_exponents(self):
        with pytest.raises(ValueError):
            JoinPolicy(kind=ENERGY_DISTANCE, alpha=0.0, beta=2.0)


class TestAssignMembers:
    def test_no_heads_all_unassigned(self):
        nodes = [node(i, i, 0.0) for i in range(5)]
        out = assign_members(nodes, [], JoinPolicy(NEAREST), coords(nodes))
        assert out.members == {}
        assert out.unassigned == [0, 1, 2, 3, 4]

    def test_single_head_takes_all(self):
        nodes = [node(i, i * 10.0, 0.0) for i in range(6)]
        out = assign_members(nodes, [2], JoinPolicy(NEAREST), coords(nodes))
        assert out.members == {i: 2 for i in range(6) if i != 2}
        assert out.unassigned == []

    def test_nearest_assignment(self):
        nodes = [node(0, 0, 0), node(1, 100, 0), node(2, 10, 0), node(3, 90, 0)]
        out = assign_members(nodes, [0, 1], JoinPolicy(NEAREST), coords(nodes))
        assert out.members == {2: 0, 3: 1}

    def test_equidistant_unequal_energy_joins_richer_head(self):
        heads = [node(0, 0.0, 0.0, energy=0.2), node(1, 20.0, 0.0, energy=0.8)]
        member = node(2, 10.0, 0.0)
        nodes = heads + [member]
        out = assign_members(nodes, [0, 1],
                             JoinPolicy(ENERGY_DISTANCE, alpha=1, beta=1), coords(nodes))
        assert out.members == {2: 1}

    def test_exact_tie_goes_to_lower_head_id(self):
        heads = [node(0, 0.0, 0.0, energy=0.5), node(1, 20.0, 0.0, energy=0.5)]
        member = node(2, 10.0, 0.0)
        for policy in (JoinPolicy(NEAREST),
                       JoinPolicy(ENERGY_DISTANCE, alpha=1, beta=2)):
            out = assign_members(heads + [member], [0, 1], policy,
                                 coords(heads + [member]))
            assert out.members == {2: 0}

    def test_colocated_member_joins_that_head(self):
        heads = [node(0, 10.0, 10.0, energy=0.0), node(1, 10.5, 10.0, energy=0.9)]
        member = node(2, 10.0, 10.0)
        nodes = heads + [member]
        out = assign_members(nodes, [0, 1],
                             JoinPolicy(ENERGY_DISTANCE, alpha=1, beta=2), coords(nodes))
        assert out.members == {2: 0}

    def test_dead_nodes_not_assigned(self):
        nodes = [node(0, 0, 0), node(1, 50, 0), node(2, 10, 0)]
        nodes[2].drain(1.0)
        out = assign_members(nodes, [0], JoinPolicy(NEAREST), coords(nodes))
        assert out.members == {1: 0}

    def test_partition_property(self):
        rng = random.Random(21)
        for _ in range(50):
            nodes, heads = random_instance(rng, 30, 4)
            policy = JoinPolicy(ENERGY_DISTANCE, alpha=1, beta=2)
            out = assign_members(nodes, heads, policy, coords(nodes))
            alive = {n.id for n in nodes if n.alive}
            assigned = set(out.members) | set(out.unassigned) | set(heads)
            assert assigned == alive
            assert not set(out.members) & set(heads)

    def test_equal_energy_reduces_to_nearest(self):
        rng = random.Random(22)
        for _ in range(100):
            nodes, heads = random_instance(rng, 25, 5, equal_energy=True)
            for alpha, beta in ((1, 1), (1, 2), (2, 3)):
                by_ratio = assign_members(nodes, heads,
                                          JoinPolicy(ENERGY_DISTANCE, alpha, beta),
                                          coords(nodes))
                by_dist = assign_members(nodes, heads, JoinPolicy(NEAREST),
                                         coords(nodes))
                assert by_ratio == by_dist

    def test_deterministic(self):
        rng = random.Random(23)
        nodes, heads = random_instance(rng, 40, 6)
        policy = JoinPolicy(ENERGY_DISTANCE, alpha=1, beta=1)
        assert assign_members(nodes, heads, policy, coords(nodes)) == \
            assign_members(nodes, heads, policy, coords(nodes))

    def test_brute_force_oracle_small_instances(self):
        # Exhaustive pairwise ratio evaluation, no vectorization, as an
        # independent check.
        rng = random.Random(24)
        for _ in range(100):
            n = rng.randrange(2, 11)
            nodes, heads = random_instance(rng, n, rng.randrange(1, n))
            alpha, beta = rng.choice([(1, 1), (1, 2)])
            out = assign_members(nodes, heads,
                                 JoinPolicy(ENERGY_DISTANCE, alpha, beta),
                                 coords(nodes))
            by_id = {x.id: x for x in nodes}
            for m in (x for x in nodes if x.alive and x.id not in set(heads)):
                best, best_ratio = None, -1.0
                for h in sorted(heads):
                    d = math.hypot(m.x - by_id[h].x, m.y - by_id[h].y)
                    if d == 0:
                        ratio = math.inf
                    else:
                        ratio = by_id[h].residual_energy ** alpha / d ** beta
                    if ratio > best_ratio:
                        best, best_ratio = h, ratio
                assert out.members[m.id] == best


def reference_assign(nodes, heads, policy):
    """Full-table np.hypot assignment: the pre-blocking fallback, verbatim."""
    head_ids = sorted(heads)
    head_set = set(head_ids)
    member_ids = [n.id for n in nodes if n.alive and n.id not in head_set]
    if not head_ids:
        return ClusterAssignment(members={}, unassigned=member_ids, distances=[])
    if not member_ids:
        return ClusterAssignment(members={}, unassigned=[], distances=[])

    by_id = {n.id: n for n in nodes}
    hx = np.array([by_id[h].x for h in head_ids])
    hy = np.array([by_id[h].y for h in head_ids])
    mx = np.array([by_id[m].x for m in member_ids])
    my = np.array([by_id[m].y for m in member_ids])
    dist = np.hypot(mx[:, None] - hx[None, :], my[:, None] - hy[None, :])

    if policy.kind == NEAREST:
        choice = np.argmin(dist, axis=1)   # first occurrence -> lowest head id
    else:
        energies = np.array([by_id[h].residual_energy for h in head_ids])
        safe = np.maximum(dist, 1e-12)
        ratio = energies[None, :] ** policy.alpha / safe ** policy.beta
        ratio[dist <= 0] = np.inf
        choice = np.argmax(ratio, axis=1)
    members = {m: head_ids[c] for m, c in zip(member_ids, choice)}
    distances = [float(dist[i, c]) for i, c in enumerate(choice)]
    return ClusterAssignment(members=members, unassigned=[], distances=distances)


ORACLE_POLICIES = [JoinPolicy(NEAREST)] + [
    JoinPolicy(ENERGY_DISTANCE, alpha=a, beta=b)
    for a, b in ((1.0, 1.0), (1.0, 2.0), (1.0, 3.0), (2.0, 3.0))]


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
    if kind == "colocated":     # on another node, or inside the distance floor
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
    if kind == "dead":
        for nd in nodes:
            if nd.id not in heads and rng.random() < 0.4:
                nd.drain(nd.residual_energy)
    return nodes, heads


class TestAssignMembersContract:
    """Node ids index both `nodes` and the columns of `xy`; anything else is refused."""

    def test_reordered_node_list_rejected(self):
        nodes = [node(i, 10.0 * i, 0.0, energy=0.1 * (i + 1)) for i in range(4)]
        xy = coords(nodes)
        with pytest.raises(ValueError, match="nodes\\[i\\].id == i"):
            assign_members(nodes[::-1], [0, 3], JoinPolicy(ENERGY_DISTANCE), xy)

    def test_subset_node_list_rejected(self):
        nodes = [node(i, 10.0 * i, 0.0) for i in range(4)]
        with pytest.raises(ValueError, match="shape"):
            assign_members(nodes[1:], [1], JoinPolicy(NEAREST), coords(nodes))


class TestAssignMembersOracle:
    """The blocked d^2 screen must decide exactly as the full np.hypot table."""

    @pytest.mark.parametrize("kind", ["random", "lattice", "ring", "colocated",
                                      "zero-energy", "dead"])
    @pytest.mark.parametrize("block", [None, 7])
    def test_matches_full_table(self, kind, block, monkeypatch):
        # Every size goes through the d^2 screen, not the small-call path.
        monkeypatch.setattr(membership, "_EXACT_PAIRS", 0)
        if block is not None:   # many blocks per call, split mid-row-set
            monkeypatch.setattr(membership, "_BLOCK", block)
        rng = random.Random(f"{kind}-{block}")
        for _ in range(150):
            nodes, heads = oracle_instance(rng, kind)
            xy = coords(nodes)
            for policy in ORACLE_POLICIES:
                assert assign_members(nodes, heads, policy, xy) == \
                    reference_assign(nodes, heads, policy), (kind, policy)

    def test_multi_block_instance(self):
        rng = random.Random(25)
        nodes, _ = random_instance(rng, 700, 1)
        heads = rng.sample(range(700), 60)   # 640 x 60 pairs > one block
        assert 640 * 60 > membership._BLOCK
        xy = coords(nodes)
        for policy in ORACLE_POLICIES:
            assert assign_members(nodes, heads, policy, xy) == \
                reference_assign(nodes, heads, policy)

    def test_hypot_order_beats_squared_distance_order(self):
        # d^2 ranks head 1 nearer, np.hypot ranks head 0 nearer; the
        # decision must follow np.hypot.
        nodes = [node(0, 7.736670605309533, 28.18991754207212),
                 node(1, 28.52235084173048, -6.403360488456255),
                 node(2, 0.0, 0.0)]
        dx2 = [nodes[h].x ** 2 + nodes[h].y ** 2 for h in (0, 1)]
        dist = [float(np.hypot(nodes[h].x, nodes[h].y)) for h in (0, 1)]
        assert dx2[1] < dx2[0] and dist[0] < dist[1]
        for policy in ORACLE_POLICIES:
            out = assign_members(nodes, [0, 1], policy, coords(nodes))
            assert out.members == {2: 0}
            assert out.distances == [dist[0]]
