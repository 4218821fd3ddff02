import math
import random

import numpy as np
import pytest

import reference_engine
from reference_engine import Node
from wsnsim import (FieldConfig, RadioParams, aggregation_energy,
                    deploy_field, distance_threshold, rx_energy, tx_energy)
from wsnsim.model import ordered_sum, tx_energies

NETWORK_ARRAYS = ("xy", "advanced", "e0", "e_res", "alive", "eligible")


def same_network(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in NETWORK_ARRAYS)


class TestTxEnergy:
    def test_zero_distance_drops_amplifier_term(self, radio):
        assert tx_energy(radio, 4000, 0.0) == pytest.approx(2.0e-6)

    def test_free_space_branch(self, radio):
        assert 10.0 < distance_threshold(radio)
        expected = 2.0e-6 + 4000 * 10e-12 * 100  # elec + fs amp at d=10
        assert tx_energy(radio, 4000, 10.0) == pytest.approx(expected, rel=1e-12)

    def test_multipath_branch(self, radio):
        assert 100.0 > distance_threshold(radio)
        expected = 2.0e-6 + 4000 * 0.0013e-12 * 100.0 ** 4
        assert tx_energy(radio, 4000, 100.0) == pytest.approx(expected, rel=1e-12)

    def test_branch_selection_is_a_hard_switch_at_d0(self, radio):
        d0 = distance_threshold(radio)
        l = radio.packet_bits
        rng = random.Random(7)
        for _ in range(200):
            d = rng.uniform(0.0, 2 * d0)
            got = tx_energy(radio, l, d)
            if d <= d0:
                assert got == l * radio.elec_energy_per_bit + l * radio.fs_amp * d ** 2
            else:
                assert got == l * radio.elec_energy_per_bit + l * radio.mp_amp * d ** 4

    def test_continuous_at_crossover(self, radio):
        d0 = distance_threshold(radio)
        eps = 1e-7
        gap = abs(tx_energy(radio, 4000, d0 + eps) - tx_energy(radio, 4000, d0 - eps))
        # O(eps): bounded by the multipath slope at d0 times the step width
        slope = 4 * radio.packet_bits * radio.mp_amp * d0 ** 3
        assert gap <= 2 * eps * slope * 1.01

    def test_monotone_in_distance(self, radio):
        rng = random.Random(11)
        for _ in range(100):
            d1 = rng.uniform(0, 200)
            d2 = d1 + rng.uniform(0, 50)
            assert tx_energy(radio, 4000, d2) >= tx_energy(radio, 4000, d1)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_invalid_distance(self, radio, bad):
        with pytest.raises(ValueError):
            tx_energy(radio, 4000, bad)

    def test_invalid_bits(self, radio):
        with pytest.raises(ValueError):
            tx_energy(radio, 0, 10.0)


class TestRxEnergy:
    def test_value(self, radio):
        assert rx_energy(radio, 4000) == pytest.approx(2.0e-6)

    def test_zero_bits_rejected(self, radio):
        with pytest.raises(ValueError):
            rx_energy(radio, 0)

    def test_equals_zero_distance_tx(self, radio):
        for bits in (1, 100, 4000):
            assert rx_energy(radio, bits) == tx_energy(radio, bits, 0.0)


class TestAggregationEnergy:
    def test_single_signal(self, radio):
        assert aggregation_energy(radio, 4000, 1) == pytest.approx(2.0e-5)

    def test_ten_signals(self, radio):
        assert aggregation_energy(radio, 4000, 10) == pytest.approx(2.0e-4)

    def test_linear_in_signal_count(self, radio):
        one = aggregation_energy(radio, 4000, 1)
        for k in (2, 5, 17):
            assert aggregation_energy(radio, 4000, k) == pytest.approx(k * one)

    def test_zero_signals_rejected(self, radio):
        with pytest.raises(ValueError):
            aggregation_energy(radio, 4000, 0)


class TestDistanceThreshold:
    def test_value(self, radio):
        assert distance_threshold(radio) == pytest.approx(87.7, abs=0.05)

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
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
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
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
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
        field = FieldConfig(node_count=57, advanced_fraction=0.3,
                            advanced_energy_factor=2.0)
        rng_a, rng_b = random.Random(8), random.Random(8)
        net = deploy_field(field, rng_a)
        nodes = reference_engine.deploy_field(field, rng_b)
        assert same_network(net, reference_engine.network_of(nodes))
        assert rng_a.random() == rng_b.random()


class TestTxEnergies:
    def test_equals_the_scalar_formula_bit_for_bit(self, radio):
        # Python's ** and numpy's d*d / np.power differ in some last bits;
        # the array form must follow **.
        d = np.random.default_rng(3).uniform(0.0, 200.0, 20_000)
        expected = [reference_engine.tx_energy(radio, 4000, x) for x in d.tolist()]
        assert tx_energies(radio, 4000, d).tolist() == expected


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
        assert node.distance_to(3, 4) == pytest.approx(5.0)
        assert node.distance_to(50, 50) == pytest.approx(math.sqrt(5000))
