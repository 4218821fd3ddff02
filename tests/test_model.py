import dataclasses
import math
import random

import numpy as np
import pytest

import reference_engine
from reference_engine import Node
from wsnsim import FieldConfig, RadioParams
from wsnsim.model import (deploy_field, head_costs, ordered_sum, shuffled_ids, tx_energies,
                          uniforms)

NETWORK_ARRAYS = ("xy", "advanced", "e0", "e_res", "alive", "eligible")


def crossover(radio):
    """The free-space/multipath crossover squared distance fs / mp, m^2."""
    return radio.fs_amp / radio.mp_amp


def same_network(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in NETWORK_ARRAYS)


def with_bits(radio, bits):
    return dataclasses.replace(radio, packet_bits=bits)


def tx_energy(radio, bits, d2):
    """tx_energies on a one-element array of squared distances, `bits` per packet."""
    return float(tx_energies(with_bits(radio, bits), np.array([d2]))[0])


def free_space(radio, bits, d2):
    return bits * radio.elec_energy_per_bit + bits * radio.fs_amp * d2


def multipath(radio, bits, d2):
    return bits * radio.elec_energy_per_bit + bits * radio.mp_amp * (d2 * d2)


class TestTxEnergy:
    def test_zero_distance_drops_amplifier_term(self, radio):
        assert tx_energy(radio, 4000, 0.0) == pytest.approx(2.0e-6)

    def test_free_space_branch(self, radio):
        assert 100.0 < crossover(radio)
        expected = 2.0e-6 + 4000 * 10e-12 * 100  # elec + fs amp at d=10
        assert tx_energy(radio, 4000, 100.0) == pytest.approx(expected, rel=1e-12)

    def test_multipath_branch(self, radio):
        assert 1e4 > crossover(radio)
        expected = 2.0e-6 + 4000 * 0.0013e-12 * 1e8   # at d=100
        assert tx_energy(radio, 4000, 1e4) == pytest.approx(expected, rel=1e-12)

    def test_branch_selection_is_a_hard_switch_at_d0(self, radio):
        d2_0 = crossover(radio)
        l = radio.packet_bits
        rng = random.Random(7)
        for _ in range(200):
            d2 = rng.uniform(0.0, 4 * d2_0)
            want = free_space if d2 <= d2_0 else multipath
            assert tx_energy(radio, l, d2) == want(radio, l, d2)

    def test_continuous_at_crossover(self, radio):
        d2_0 = crossover(radio)
        eps = 1e-6
        gap = abs(tx_energy(radio, 4000, d2_0 + eps) - tx_energy(radio, 4000, d2_0 - eps))
        # O(eps): bounded by the multipath slope in d^2 at d2_0 times the step width
        slope = 2 * radio.packet_bits * radio.mp_amp * d2_0
        assert gap <= 2 * eps * slope * 1.01

    def test_monotone_in_distance(self, radio):
        rng = random.Random(11)
        for _ in range(100):
            d1 = rng.uniform(0, 200)
            d2 = d1 + rng.uniform(0, 50)
            assert tx_energy(radio, 4000, d2 * d2) >= tx_energy(radio, 4000, d1 * d1)


class TestHeadCosts:
    def test_no_members_is_one_aggregation(self, radio):
        assert head_costs(radio, 0) == pytest.approx(2.0e-5)

    def test_each_received_packet_costs_the_rx_energy(self, radio):
        # Past the 10 aggregations, a head with 9 members pays 9 receptions.
        receptions = head_costs(radio, 9) - 10 * head_costs(radio, 0)
        assert receptions == pytest.approx(9 * 2.0e-6)

    def test_nine_members_aggregate_ten_signals(self, radio):
        # A head with 9 members receives 9 packets and aggregates 10 signals.
        assert head_costs(radio, 9) == pytest.approx(9 * 2.0e-6 + 10 * 2.0e-5)

    def test_each_member_adds_a_zero_distance_tx_and_an_aggregation(self, radio):
        for bits in (1, 100, 4000):
            aggregation = head_costs(with_bits(radio, bits), 0)
            for members in (0, 1, 9, 99, 1000):
                assert head_costs(with_bits(radio, bits), members) == \
                    members * tx_energy(radio, bits, 0.0) + aggregation * (members + 1)

    def test_array_equals_scalar_calls_bit_for_bit(self, radio):
        for params in (radio, RadioParams(), with_bits(radio, 1)):
            table = head_costs(params, np.arange(1001))
            assert table.tobytes() == \
                np.array([head_costs(params, c) for c in range(1001)]).tobytes()


class TestDistanceThreshold:
    def test_value(self, radio):
        # tx_energies switches from the free-space to the multipath branch
        # at d^2 = fs_amp / mp_amp, a distance of 87.7 m; d^2 on the switch
        # is still free space.
        d2_0 = crossover(radio)
        assert math.sqrt(d2_0) == pytest.approx(87.7, abs=0.05)
        l = radio.packet_bits
        for d2 in (87.65 * 87.65, math.nextafter(d2_0, 0.0), d2_0):
            assert tx_energy(radio, l, d2) == free_space(radio, l, d2)
        for d2 in (math.nextafter(d2_0, math.inf), 87.75 * 87.75):
            assert tx_energy(radio, l, d2) == multipath(radio, l, d2)

    def test_equal_amplifiers_rejected_by_invariant(self):
        with pytest.raises(ValueError):
            RadioParams(fs_amp=1e-12, mp_amp=1e-12)


class TestRadioParamsValidation:
    @pytest.mark.parametrize("kw", [
        {"elec_energy_per_bit": 0.0},
        {"fs_amp": -1e-12},
        {"aggregation_energy_per_bit": 0.0},
        {"packet_bits": 0},
        {"elec_energy_per_bit": float("nan")},
        {"packet_bits": 4000.5},
        {"packet_bits": 4000.0},
        {"packet_bits": True},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError, match=f"^{next(iter(kw))} must be"):
            RadioParams(**kw)


class TestFieldConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"base_probability": 0.0},
        {"base_probability": 1.5},
        {"advanced_fraction": -0.1},
        {"advanced_fraction": 1.1},
        {"advanced_energy_factor": -0.5},
        {"bs_position": (150.0, 50.0)},
        {"node_count": 0},
        {"advanced_fraction": float("nan")},
        {"node_count": 10.5},
        {"node_count": 10.0},
        {"node_count": True},
        {"max_rounds": 2.5},
        {"max_rounds": -1},
        {"max_rounds": False},
        {"initial_energy": 1e307},      # 100 nodes would hold inf J in total
        {"initial_energy": 1e308, "advanced_energy_factor": 10.0},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError, match=f"^{next(iter(kw))} "):
            FieldConfig(**kw)

    @pytest.mark.parametrize("name, kw", [
        ("side_m", {"side_m": math.inf}),
        ("side_m", {"side_m": math.nan}),
        ("base_probability", {"base_probability": math.nan}),
        ("advanced_fraction", {"advanced_fraction": math.inf}),
        ("advanced_energy_factor", {"advanced_energy_factor": math.nan}),
        ("advanced_energy_factor", {"advanced_energy_factor": math.inf}),
        ("initial_energy", {"initial_energy": math.nan}),
        ("initial_energy", {"initial_energy": math.inf}),
        ("bs_position x", {"bs_position": (math.nan, 50.0)}),
        ("bs_position y", {"bs_position": (50.0, -math.inf)}),
    ])
    def test_rejects_non_finite_values_by_name(self, name, kw):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            FieldConfig(**kw)

    @pytest.mark.parametrize("kw", [
        {"advanced_fraction": 0.0},     # homogeneous field, classic LEACH
        {"advanced_fraction": 1.0},
    ])
    def test_accepts_boundary_values(self, kw):
        assert FieldConfig(**kw).advanced_fraction == kw["advanced_fraction"]

    def test_node_count_is_bounded_by_one_getrandbits_call(self):
        # Deployment takes 64 * 2 * N bits in one call, and that count is a C int.
        assert FieldConfig(node_count=2 ** 24 - 1).node_count == 2 ** 24 - 1
        with pytest.raises(ValueError, match="^node_count must be at most 16777215: .* C int"):
            FieldConfig(node_count=2 ** 24)

    @pytest.mark.parametrize("side", [40, 200.0])
    def test_bs_defaults_to_the_centre_of_the_side(self, side):
        assert FieldConfig(side_m=side).bs_position == (side / 2, side / 2)

    def test_bs_axis_given_as_none_is_centred(self):
        assert FieldConfig(side_m=60, bs_position=(5.0, None)).bs_position == (5.0, 30.0)

    @pytest.mark.parametrize("bs", [(50.0,), (50.0, 50.0, 50.0), 50.0])
    def test_bs_position_is_two_coordinates(self, bs):
        with pytest.raises(ValueError, match=r"^bs_position must be two coordinates \(x, y\)"):
            FieldConfig(bs_position=bs)


class TestDeployField:
    def test_tier_split(self, field):
        net = deploy_field(field, random.Random(3))
        assert sum(net.advanced) == 10
        assert sum(~net.advanced) == 90

    def test_total_initial_energy(self, field):
        net = deploy_field(field, random.Random(3))
        assert sum(net.e0) == pytest.approx(55.0)
        for n in net:
            expected = 1.0 if n.advanced else 0.5
            assert n.initial_energy == pytest.approx(expected)
            assert n.residual_energy == n.initial_energy
            assert n.alive and n.eligible

    def test_positions_inside_square(self, field):
        net = deploy_field(field, random.Random(3))
        assert all(0 <= n.x <= field.side_m and 0 <= n.y <= field.side_m
                   for n in net)

    def test_same_seed_reproduces_exactly(self, field):
        a = deploy_field(field, random.Random(42))
        b = deploy_field(field, random.Random(42))
        assert same_network(a, b)

    def test_different_seed_differs(self, field):
        a = deploy_field(field, random.Random(42))
        b = deploy_field(field, random.Random(43))
        assert not same_network(a, b)

    def test_draw_order_matches_the_scalar_reference(self):
        # 57 nodes draw their positions one rng.random() at a time, 5 000 in bulk.
        for n in (57, 5000):
            field = FieldConfig(node_count=n, advanced_fraction=0.3,
                                advanced_energy_factor=2.0)
            rng_a, rng_b = random.Random(8), random.Random(8)
            net = deploy_field(field, rng_a)
            nodes = reference_engine.deploy_field(field, rng_b)
            assert same_network(net, reference_engine.network_of(nodes))
            assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("side", [0.1, 100.0, 1e-155])
    @pytest.mark.parametrize("seed", [0, 8, 2024])
    def test_positions_are_the_bits_of_rng_uniform(self, side, seed):
        # The bulk draw scales rng.random() by side_m, which is what
        # rng.uniform(0.0, side_m) computes (0.0 + side_m * random()).
        field = FieldConfig(side_m=side, node_count=64, bs_position=(side / 2, side / 2))
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        net = deploy_field(field, rng_a)
        draws = np.array([rng_b.uniform(0.0, side) for _ in range(2 * 64)])
        assert np.array_equal(net.xy.T.ravel().view(np.uint64), draws.view(np.uint64))


def off_word_boundary(seed):
    """A generator that a shuffle has moved along by some words: 9 for seed
    2024, so its next draw starts off a word-pair boundary; 10 and 8 for
    seeds 0 and 8."""
    rng = random.Random(seed)
    rng.shuffle(list(range(7)))
    return rng


def twin(rng):
    other = random.Random()
    other.setstate(rng.getstate())
    return other


class TestStreamHelpers:
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 5000])
    @pytest.mark.parametrize("seed", [0, 8, 2024])
    def test_uniforms_are_the_bits_of_rng_random(self, n, seed):
        # Both sides of the bulk threshold: starmap below 256 draws, one
        # getrandbits(64 * n) call from 256 on.
        rng = off_word_boundary(seed)
        scalar = twin(rng)
        expected = np.array([scalar.random() for _ in range(n)], dtype=float)
        draws = uniforms(rng, n)
        assert draws.dtype == np.float64 and draws.shape == (n,)
        assert np.array_equal(draws.view(np.uint64), expected.view(np.uint64))
        assert rng.getstate() == scalar.getstate()

    @pytest.mark.parametrize("n", [1, 2, 3, 100, 5000])
    def test_shuffled_ids_are_random_shuffle(self, n):
        for seed in range(50):
            rng = off_word_boundary(seed)
            scalar = twin(rng)
            order = list(range(n))
            scalar.shuffle(order)
            assert shuffled_ids(n, rng) == order
            assert rng.getstate() == scalar.getstate()


class TestTxEnergies:
    def test_equals_the_scalar_formula_bit_for_bit(self, radio):
        # The array form adds no fused or reordered operation to the Python
        # float one, on either side of the crossover and on it.
        d = np.random.default_rng(3).uniform(0.0, 200.0, 20_000)
        d2_0 = crossover(radio)
        d2 = np.concatenate((d * d, [math.nextafter(d2_0, 0.0), d2_0,
                                     math.nextafter(d2_0, math.inf)]))
        expected = [reference_engine.tx_energy(radio, 4000, x) for x in d2.tolist()]
        assert tx_energies(radio, d2).tolist() == expected

    @pytest.mark.parametrize("case", ["all-near", "empty", "mixed"])
    @pytest.mark.parametrize("bits", [1, 4000, 9973])
    def test_free_space_shortcut_keeps_the_bits(self, radio, case, bits):
        # An array with no d2 beyond the crossover skips the multipath arrays;
        # with or without them, the bits are the Python-float formula's.
        radio = with_bits(radio, bits)
        d2_0 = crossover(radio)
        near = np.random.default_rng(bits).uniform(0.0, d2_0, 2_000)
        d2 = {"all-near": np.append(near, [0.0, d2_0]), "empty": np.empty(0),
              "mixed": np.append(near, [math.nextafter(d2_0, math.inf), 4 * d2_0])}[case]
        got = tx_energies(radio, d2)
        expected = [reference_engine.tx_energy(radio, bits, x) for x in d2.tolist()]
        assert got.shape == d2.shape and got.tolist() == expected


class TestOrderedSum:
    def test_adds_left_to_right(self):
        # A compensated sum (builtin sum() from Python 3.12, math.fsum) and
        # numpy's pairwise np.sum all differ from the sequential order here.
        values = np.array([1.0] + [1e-16] * 10)
        assert ordered_sum(values) == 1.0
        assert np.sum(values) == 1.0000000000000007
        assert math.fsum(values) == 1.000000000000001

    def test_matches_a_sequential_loop(self):
        values = np.random.default_rng(5).uniform(0.0, 0.5, 1000)
        expected = 0.0
        for v in values.tolist():
            expected += v
        assert ordered_sum(values) == expected

    def test_empty_is_zero(self):
        assert ordered_sum(np.empty(0)) == 0.0


class TestNode:
    def test_drain_clamps_and_flips_alive(self):
        node = Node(id=0, x=0, y=0, tier="normal", initial_energy=0.5)
        drawn = node.drain(0.2)
        assert drawn == pytest.approx(0.2)
        assert node.alive
        drawn = node.drain(1.0)
        assert drawn == pytest.approx(0.3)
        assert node.residual_energy == 0.0
        assert not node.alive
        assert node.drain(0.1) == 0.0

    def test_alive_iff_positive_energy_after_each_drain(self):
        rng = random.Random(5)
        node = Node(id=0, x=0, y=0, tier="normal", initial_energy=1.0)
        while node.residual_energy > 0:
            node.drain(rng.uniform(0, 0.3))
            assert node.alive == (node.residual_energy > 0)

    def test_distance(self):
        node = Node(id=0, x=0, y=0, tier="normal", initial_energy=0.5)
        assert node.d2_to(3, 4) == 25.0
        assert node.d2_to(50, 50) == 5000.0
