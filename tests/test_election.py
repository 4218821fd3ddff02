import random
import statistics

import pytest

from reference_engine import Node, network_of
from wsnsim import (ElectionPolicy, elect_cluster_heads, energy_threshold,
                    leach_threshold, refresh_epoch, sep_probabilities)
from wsnsim.election import ENERGY_WEIGHTED, epoch_length


def make_nodes(count, energy=0.5, tier="normal"):
    return [Node(id=i, x=float(i), y=0.0, tier=tier, initial_energy=energy)
            for i in range(count)]


def make_network(count, energy=0.5, tier="normal"):
    return network_of(make_nodes(count, energy, tier))


class TestLeachThreshold:
    def test_epoch_start(self):
        assert leach_threshold(0.1, 0, True) == pytest.approx(0.1)

    def test_last_slot_forces_election(self):
        assert leach_threshold(0.1, 9, True) == pytest.approx(1.0)

    def test_ineligible_is_zero(self):
        for r in range(20):
            assert leach_threshold(0.1, r, False) == 0.0

    def test_range_and_growth_within_epoch(self):
        prev = 0.0
        for r in range(10):
            t = leach_threshold(0.1, r, True)
            assert 0.1 <= t <= 1.0
            assert t >= prev
            prev = t

    def test_arbitrary_p_stays_in_unit_interval(self):
        rng = random.Random(31)
        for _ in range(500):
            p = rng.uniform(1e-3, 1.0)
            r = rng.randrange(0, 5000)
            assert 0.0 <= leach_threshold(p, r, True) <= 1.0

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            leach_threshold(0.0, 0, True)
        with pytest.raises(ValueError):
            leach_threshold(1.5, 0, True)


class TestEnergyThreshold:
    def test_full_energy_equals_plain(self):
        for r in range(10):
            assert energy_threshold(0.1, r, True, 0.5, 0.5) == \
                leach_threshold(0.1, r, True)

    def test_dead_node_zero(self):
        assert energy_threshold(0.1, 3, True, 0.0, 0.5) == 0.0

    def test_half_energy(self):
        assert energy_threshold(0.1, 0, True, 0.25, 0.5) == pytest.approx(0.05)

    def test_rejects_energy_above_initial(self):
        with pytest.raises(ValueError):
            energy_threshold(0.1, 0, True, 0.6, 0.5)


class TestSepProbabilities:
    def test_reference_values(self):
        p_nrm, p_adv = sep_probabilities(0.1, 1.0, 0.1)
        assert p_nrm == pytest.approx(0.1 / 1.1)
        assert p_adv == pytest.approx(0.2 / 1.1)

    def test_homogeneous_degenerates_to_single_tier(self):
        p_nrm, p_adv = sep_probabilities(0.1, 0.0, 0.1)
        assert p_nrm == p_adv == pytest.approx(0.1)

    def test_weighted_mean_identity(self):
        rng = random.Random(13)
        for _ in range(200):
            p = rng.uniform(0.01, 0.5)
            a = rng.uniform(0.0, 5.0)
            m = rng.uniform(0.05, 0.95)
            p_nrm, p_adv = sep_probabilities(p, a, m)
            assert p_adv == pytest.approx((1 + a) * p_nrm)
            assert m * p_adv + (1 - m) * p_nrm == pytest.approx(p)


class TestElectClusterHeads:
    def test_no_eligible_nodes_means_no_heads(self):
        net = make_network(10)
        net.eligible[:] = False
        out = elect_cluster_heads(net, ElectionPolicy(), 3, None, random.Random(1))
        assert out.heads == []
        assert out.candidates_before_cap == 0

    def test_last_slot_with_cap_selects_highest_energy(self):
        nodes = make_nodes(100)
        # distinct energies 0.01..1.00 scrambled against id order
        rng = random.Random(5)
        energies = [(i + 1) / 100 for i in range(100)]
        rng.shuffle(energies)
        for n, e in zip(nodes, energies):
            n.initial_energy = 1.0
            n.residual_energy = e
        policy = ElectionPolicy(base_probability=0.1, cap=10)
        out = elect_cluster_heads(network_of(nodes), policy, 9, None, random.Random(2))
        assert out.candidates_before_cap == 100
        assert len(out.heads) == 10
        top = sorted(nodes, key=lambda n: (-n.residual_energy, n.id))[:10]
        assert out.heads == sorted(n.id for n in top)

    def test_cap_tie_breaks_by_lower_id(self):
        net = make_network(6, energy=0.5)
        policy = ElectionPolicy(base_probability=0.5, cap=3)
        out = elect_cluster_heads(net, policy, 1, None, random.Random(3))
        # p=0.5, r=1: threshold 1 -> all 6 candidates, equal energy: ids 0,1,2
        assert out.heads == [0, 1, 2]

    def test_cap_selection_invariant_under_energy_scaling(self):
        rng = random.Random(7)
        nodes_a = make_nodes(50)
        for n in nodes_a:
            n.residual_energy = rng.uniform(0.01, 0.5)
        nodes_b = [Node(id=n.id, x=n.x, y=n.y, tier=n.tier,
                        initial_energy=n.initial_energy * 3,
                        residual_energy=n.residual_energy * 3)
                   for n in nodes_a]
        policy = ElectionPolicy(base_probability=0.3, cap=5)
        out_a = elect_cluster_heads(network_of(nodes_a), policy, 2, None, random.Random(9))
        out_b = elect_cluster_heads(network_of(nodes_b), policy, 2, None, random.Random(9))
        assert out_a.heads == out_b.heads

    def test_deterministic_given_seed(self):
        policy = ElectionPolicy(base_probability=0.1)
        out1 = elect_cluster_heads(make_network(100), policy, 0, None, random.Random(4))
        out2 = elect_cluster_heads(make_network(100), policy, 0, None, random.Random(4))
        assert out1 == out2

    def test_elected_nodes_leave_candidate_pool(self):
        net = make_network(20)
        policy = ElectionPolicy(base_probability=0.5)
        out = elect_cluster_heads(net, policy, 0, None, random.Random(6))
        assert out.heads  # p=0.5 over 20 nodes: some heads with this seed
        for hid in out.heads:
            assert not net.eligible[hid]

    def test_dead_nodes_never_elected(self):
        nodes = make_nodes(20)
        for n in nodes[:10]:
            n.drain(n.residual_energy + 1)
        policy = ElectionPolicy(base_probability=1.0)
        out = elect_cluster_heads(network_of(nodes), policy, 0, None, random.Random(8))
        assert set(out.heads) == {n.id for n in nodes[10:]}

    def test_expected_head_count_matches_base_probability(self):
        # Over full epochs each node serves exactly once, so the long-run
        # per-round head count under p with N alive nodes averages p*N.
        net = make_network(100)
        policy = ElectionPolicy(base_probability=0.1)
        rng = random.Random(12)
        counts = []
        rounds = 2000
        for r in range(rounds):
            refresh_epoch(net, policy.tier_probabilities(), r)
            counts.append(len(elect_cluster_heads(net, policy, r, None, rng).heads))
        mean = statistics.fmean(counts)
        se = statistics.stdev(counts) / rounds ** 0.5
        assert abs(mean - 10.0) <= 3 * se + 1e-9

    def test_adaptive_energy_weighting_keeps_head_count_at_budget(self):
        # At an epoch start every alive node is a candidate, so the expected
        # head count is the sum of the thresholds. Dividing the energy weights
        # by their alive mean makes that sum p_adp * alive, the adapted
        # budget, however unevenly the nodes are drained. (Later slots are
        # not forced for below-mean nodes, so only this slot is exact.)
        nodes = make_nodes(100)
        rng = random.Random(21)
        for n in nodes:
            n.residual_energy = n.initial_energy * rng.uniform(0.1, 1.0)
        net = network_of(nodes)
        policy = ElectionPolicy(threshold_kind=ENERGY_WEIGHTED,
                                base_probability=0.1, adaptive=True)
        p_adp = 0.2
        counts = []
        trials = 2000
        for _ in range(trials):
            refresh_epoch(net, policy.tier_probabilities(p_adp), 0)
            counts.append(len(elect_cluster_heads(net, policy, 0, p_adp,
                                                  rng).heads))
        mean = statistics.fmean(counts)
        se = statistics.stdev(counts) / trials ** 0.5
        assert abs(mean - p_adp * len(nodes)) <= 3 * se + 1e-9

    def test_adaptive_policy_requires_p_adp(self):
        policy = ElectionPolicy(adaptive=True)
        with pytest.raises(ValueError):
            elect_cluster_heads(make_network(5), policy, 0, None, random.Random(1))

    def test_sep_adaptive_preserves_tier_ratio(self):
        policy = ElectionPolicy(base_probability=0.1, sep_params=(1.0, 0.1),
                                adaptive=True)
        probs = policy.tier_probabilities(p_adp=0.2)
        assert probs["advanced"] == pytest.approx(2 * probs["normal"])
        base = ElectionPolicy(base_probability=0.1, sep_params=(1.0, 0.1))
        doubled = {t: 2 * p for t, p in base.tier_probabilities().items()}
        assert probs == pytest.approx(doubled)


class TestRefreshEpoch:
    def test_epoch_length_rounding(self):
        assert epoch_length(0.1) == 10
        assert epoch_length(0.24) == 4
        assert epoch_length(1.0) == 1
        assert epoch_length(0.9) == 1

    def test_reeligible_at_boundaries(self):
        net = make_network(5)
        probs = {"normal": 0.1, "advanced": 0.1}
        net.eligible[:] = False
        refresh_epoch(net, probs, 5)
        assert not any(net.eligible)
        refresh_epoch(net, probs, 10)
        assert all(net.eligible)

    def test_elected_at_round_three_sits_out_rest_of_epoch(self):
        net = make_network(1)
        probs = {"normal": 0.1, "advanced": 0.1}
        net.eligible[0] = False  # served at round 3
        for r in range(4, 10):
            refresh_epoch(net, probs, r)
            assert not net.eligible[0]
        refresh_epoch(net, probs, 10)
        assert net.eligible[0]

    def test_dead_nodes_stay_out(self):
        nodes = make_nodes(3)
        for n in nodes:
            n.drain(1.0)
            n.eligible = False
        net = network_of(nodes)
        refresh_epoch(net, {"normal": 0.1, "advanced": 0.1}, 0)
        assert not any(net.eligible)
