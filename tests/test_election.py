import random
import statistics

import pytest

import reference_engine
from reference_engine import ADVANCED, NORMAL, Node, network_of
from wsnsim.election import (elect_cluster_heads, epoch_length, leach_threshold,
                             refresh_epoch, sep_probabilities, tier_probabilities)

P = (0.1, 0.1)   # the default (normal, advanced) pair: p = 0.1 on one tier


def make_nodes(count, energy=0.5, tier="normal"):
    return [Node(id=i, x=float(i), y=0.0, tier=tier, initial_energy=energy)
            for i in range(count)]


def make_network(count, energy=0.5, tier="normal"):
    return network_of(make_nodes(count, energy, tier))


class TestLeachThreshold:
    def test_epoch_start(self):
        assert leach_threshold(0.1, 0) == pytest.approx(0.1)

    def test_last_slot_forces_election(self):
        assert leach_threshold(0.1, 9) == pytest.approx(1.0)

    def test_range_and_growth_within_epoch(self):
        prev = 0.0
        for r in range(10):
            t = leach_threshold(0.1, r)
            assert 0.1 <= t <= 1.0
            assert t >= prev
            prev = t

    def test_arbitrary_p_stays_in_unit_interval(self):
        rng = random.Random(31)
        for _ in range(500):
            p = rng.uniform(1e-3, 1.0)
            r = rng.randrange(0, 5000)
            assert 0.0 <= leach_threshold(p, r) <= 1.0


class TestEnergyThreshold:
    """An energy-weighted election scales each candidate's threshold by its
    residual-energy fraction."""

    def test_full_energy_equals_plain(self):
        for r in range(10):
            plain = elect_cluster_heads(make_network(50), P, r, random.Random(r))
            assert plain.heads.size
            weighted = elect_cluster_heads(make_network(50), P, r, random.Random(r),
                                           energy_weighted=True)
            assert weighted.heads.tolist() == plain.heads.tolist()
            assert weighted.candidates_before_cap == plain.candidates_before_cap

    def test_dead_node_zero(self):
        # In the epoch's last slot the plain threshold is 1, so every
        # candidate is elected but the one with no residual energy.
        net = make_network(5)
        net.e_res[2] = 0.0
        out = elect_cluster_heads(net, P, 9, random.Random(3), energy_weighted=True)
        assert out.heads.tolist() == [0, 1, 3, 4]

    def test_half_energy(self):
        # Threshold 0.1 * 0.5 at an epoch start: a node is elected exactly
        # when its draw, taken in id order, is below 0.05.
        net = make_network(200)
        net.e_res[:] = 0.25
        out = elect_cluster_heads(net, P, 0, random.Random(11), energy_weighted=True)
        rng = random.Random(11)
        expected = [i for i in range(200) if rng.random() < 0.05]
        assert expected and out.heads.tolist() == expected


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
        # Round 9 is the epoch's last slot, where an eligible node's threshold is 1.
        net = make_network(10)
        net.eligible[:] = False
        out = elect_cluster_heads(net, P, 9, random.Random(1))
        assert out.heads.tolist() == []
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
        out = elect_cluster_heads(network_of(nodes), P, 9, random.Random(2), cap=10)
        assert out.candidates_before_cap == 100
        assert len(out.heads) == 10
        top = sorted(nodes, key=lambda n: (-n.residual_energy, n.id))[:10]
        assert out.heads.tolist() == sorted(n.id for n in top)

    def test_cap_tie_breaks_by_lower_id(self):
        net = make_network(6, energy=0.5)
        out = elect_cluster_heads(net, (0.5, 0.5), 1, random.Random(3), cap=3)
        # p=0.5, r=1: threshold 1 -> all 6 candidates, equal energy: ids 0,1,2
        assert out.heads.tolist() == [0, 1, 2]

    def test_cap_selection_invariant_under_energy_scaling(self):
        rng = random.Random(7)
        nodes_a = make_nodes(50)
        for n in nodes_a:
            n.residual_energy = rng.uniform(0.01, 0.5)
        nodes_b = [Node(id=n.id, x=n.x, y=n.y, tier=n.tier,
                        initial_energy=n.initial_energy * 3,
                        residual_energy=n.residual_energy * 3)
                   for n in nodes_a]
        out_a, out_b = (elect_cluster_heads(network_of(nodes), (0.3, 0.3), 2,
                                            random.Random(9), cap=5)
                        for nodes in (nodes_a, nodes_b))
        assert out_a.heads.tolist() == out_b.heads.tolist()

    def test_deterministic_given_seed(self):
        out1 = elect_cluster_heads(make_network(100), P, 0, random.Random(4))
        out2 = elect_cluster_heads(make_network(100), P, 0, random.Random(4))
        assert out1.heads.tolist() == out2.heads.tolist()
        assert out1.candidates_before_cap == out2.candidates_before_cap

    def test_elected_nodes_leave_candidate_pool(self):
        net = make_network(20)
        out = elect_cluster_heads(net, (0.5, 0.5), 0, random.Random(6))
        assert out.heads.size  # p=0.5 over 20 nodes: some heads with this seed
        for hid in out.heads:
            assert not net.eligible[hid]

    def test_dead_nodes_never_elected(self):
        nodes = make_nodes(20)
        for n in nodes[:10]:
            n.drain(n.residual_energy + 1)
        out = elect_cluster_heads(network_of(nodes), (1.0, 1.0), 0, random.Random(8))
        assert set(out.heads.tolist()) == {n.id for n in nodes[10:]}

    def test_expected_head_count_matches_base_probability(self):
        # Over full epochs each node serves exactly once, so the long-run
        # per-round head count under p with N alive nodes averages p*N.
        net = make_network(100)
        probs = tier_probabilities(0.1, None, 0.1)
        rng = random.Random(12)
        counts = []
        rounds = 2000
        for r in range(rounds):
            refresh_epoch(net, probs, r)
            counts.append(len(elect_cluster_heads(net, probs, r, rng).heads))
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
        p_adp = 0.2
        probs = tier_probabilities(0.1, None, p_adp)
        counts = []
        trials = 2000
        for _ in range(trials):
            refresh_epoch(net, probs, 0)
            counts.append(len(elect_cluster_heads(net, probs, 0, rng, energy_weighted=True,
                                                  by_alive_mean=True).heads))
        mean = statistics.fmean(counts)
        se = statistics.stdev(counts) / trials ** 0.5
        assert abs(mean - p_adp * len(nodes)) <= 3 * se + 1e-9

    @pytest.mark.parametrize("cap", [None, 40])
    def test_bulk_draws_are_scalar_draws_in_id_order(self, cap):
        # More than 1 000 alive eligible nodes, so the draws come from one
        # getrandbits call: the heads and the generator state after must be
        # the scalar engine's, one rng.random() per candidate in id order,
        # on SEP tiers with adaptive energy weighting.
        setup = random.Random(5)
        nodes = [Node(id=i, x=0.0, y=0.0, tier=ADVANCED if setup.random() < 0.2 else NORMAL,
                      initial_energy=0.5) for i in range(1500)]
        for n in nodes:
            n.drain(n.initial_energy * setup.uniform(0.0, 1.05))   # some die
            n.eligible = n.alive and setup.random() < 0.9
        net = network_of(nodes)
        assert (net.alive & net.eligible).sum() >= 1000
        probs = tier_probabilities(0.1, (1.0, 0.2), 0.15)
        by_tier = dict(zip((NORMAL, ADVANCED), probs))
        rng, scalar = random.Random(9), random.Random(9)
        for r in range(5):
            refresh_epoch(net, probs, r)
            reference_engine.refresh_epoch(nodes, by_tier, r)
            heads = elect_cluster_heads(net, probs, r, rng, energy_weighted=True,
                                        by_alive_mean=True, cap=cap).heads
            expected = reference_engine.elect_cluster_heads(
                nodes, by_tier, r, scalar, energy_weighted=True, adaptive=True, cap=cap)
            assert heads.tolist() == expected
            assert rng.getstate() == scalar.getstate()

    def test_sep_adaptive_preserves_tier_ratio(self):
        p_nrm, p_adv = tier_probabilities(0.1, (1.0, 0.1), 0.2)
        assert p_adv == pytest.approx(2 * p_nrm)
        base = tier_probabilities(0.1, (1.0, 0.1), 0.1)
        assert (p_nrm, p_adv) == pytest.approx(tuple(2 * p for p in base))

    def test_unadapted_sep_keeps_its_tiers_bit_for_bit(self):
        # At p_run = p the rescaling factor is exactly 1.0.
        rng = random.Random(31)
        for _ in range(1000):
            p, a, m = rng.uniform(1e-3, 1.0), rng.uniform(0.0, 5.0), rng.uniform(0.0, 1.0)
            probs = tier_probabilities(p, (a, m), p)
            assert probs == tuple(min(1.0, q) for q in sep_probabilities(p, a, m))


class TestRefreshEpoch:
    def test_epoch_length_rounding(self):
        assert epoch_length(0.1) == 10
        assert epoch_length(0.24) == 4
        assert epoch_length(1.0) == 1
        assert epoch_length(0.9) == 1

    def test_reeligible_at_boundaries(self):
        net = make_network(5)
        probs = P
        net.eligible[:] = False
        refresh_epoch(net, probs, 5)
        assert not any(net.eligible)
        refresh_epoch(net, probs, 10)
        assert all(net.eligible)

    def test_elected_at_round_three_sits_out_rest_of_epoch(self):
        net = make_network(1)
        probs = P
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
        refresh_epoch(net, P, 0)
        assert not any(net.eligible)
