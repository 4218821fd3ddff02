import math
import random

import pytest

from numerics import argmin_total_energy, total_energy
from reference_engine import Node, network_of
from wsnsim import FieldConfig, RadioParams
from wsnsim.analysis import (adaptive_probability, max_clusters, optimal_distance,
                             representative_bs_distance)
from wsnsim.model import deploy_field
from wsnsim.simulator import _geometry_caches, algorithm, run_round, start_run

# Closed-form values at the default parameter set with a 50 m uplink distance,
# frozen after computing them by direct evaluation of the formulas.
GOLDEN_D_OPT = 10.663772598695115
GOLDEN_KAPPA_MAX = 13.9958210506684


@pytest.fixture
def inputs(radio, field):
    """(radio, side M, node count N, BS distance), the closed form's arguments."""
    return radio, field.side_m, field.node_count, 50.0


def _random_inputs(rng):
    radio = RadioParams(
        elec_energy_per_bit=rng.uniform(1e-10, 1e-7),
        fs_amp=rng.uniform(1e-12, 1e-10),
        mp_amp=rng.uniform(1e-16, 9e-13),
        aggregation_energy_per_bit=rng.uniform(1e-10, 1e-8),
        packet_bits=rng.randrange(100, 10000))
    side = rng.uniform(20.0, 500.0)
    field = FieldConfig(side_m=side, node_count=rng.randrange(10, 1000),
                        bs_position=(side / 2, side / 2))
    return radio, field.side_m, field.node_count, rng.uniform(1.0, side)


def cap(kappa):
    """The integer head cap a capped algorithm's election enforces at budget
    kappa: the head count of a `leach-kp` round in which p = 1 makes all 100
    nodes candidates."""
    field, radio = FieldConfig(base_probability=1.0), RadioParams()
    net = start_run(deploy_field(field, random.Random(0)), field, radio)
    net.kappa_max_raw = kappa
    rec = run_round(net, algorithm("leach-kp"), radio, field, random.Random(0))
    return rec.head_count


class TestTotalEnergy:
    def test_constant_part_with_defaults(self, inputs, radio):
        # d-independent part: 2*l*E_elec*N + l*E_agg*N
        d_opt = optimal_distance(*inputs)
        e = total_energy(*inputs, d_opt)
        variable = (radio.packet_bits * radio.mp_amp * 50.0 ** 4
                    * 100.0 ** 2 / (2 * math.pi * d_opt ** 2)
                    + 100 * radio.packet_bits * radio.fs_amp * d_opt ** 2)
        assert e - variable == pytest.approx(2.4e-3, rel=1e-9)

    def test_blows_up_at_both_tails(self, inputs):
        mid = total_energy(*inputs, optimal_distance(*inputs))
        assert total_energy(*inputs, 1e-6) > mid * 100
        assert total_energy(*inputs, 1e6) > mid * 100

    def test_local_minimum_bracket(self, inputs):
        d_opt = optimal_distance(*inputs)
        e_opt = total_energy(*inputs, d_opt)
        assert e_opt <= total_energy(*inputs, d_opt * 0.9)
        assert e_opt <= total_energy(*inputs, d_opt * 1.1)

    def test_rejects_nonpositive_d(self, inputs):
        with pytest.raises(ValueError):
            total_energy(*inputs, 0.0)
        with pytest.raises(ValueError):
            total_energy(*inputs, -1.0)

    def test_convexity_three_point(self, inputs):
        rng = random.Random(2)
        for _ in range(50):
            d = rng.uniform(0.5, 200.0)
            h = d * 1e-3
            second = (total_energy(*inputs, d - h) - 2 * total_energy(*inputs, d)
                      + total_energy(*inputs, d + h))
            assert second > 0


class TestOptimalDistance:
    def test_golden_value(self, inputs):
        assert optimal_distance(*inputs) == pytest.approx(GOLDEN_D_OPT, rel=1e-12)

    def test_linear_in_bs_distance(self, inputs):
        doubled = (*inputs[:3], 100.0)
        assert optimal_distance(*doubled) == pytest.approx(
            2 * optimal_distance(*inputs), rel=1e-12)

    @pytest.mark.parametrize("bs_distance", [0.0, -1.0])
    def test_rejects_nonpositive_bs_distance(self, inputs, bs_distance):
        with pytest.raises(ValueError, match="^bs_distance must be positive"):
            optimal_distance(*inputs[:3], bs_distance)
        with pytest.raises(ValueError, match="^bs_distance must be positive"):
            max_clusters(*inputs[:3], bs_distance)

    def test_matches_numerical_argmin(self, inputs):
        num = argmin_total_energy(*inputs)
        assert num == pytest.approx(optimal_distance(*inputs), rel=1e-4)

    def test_matches_numerical_argmin_random_sweep(self):
        rng = random.Random(17)
        for _ in range(25):
            inputs = _random_inputs(rng)
            closed = optimal_distance(*inputs)
            num = argmin_total_energy(*inputs)
            assert num == pytest.approx(closed, rel=1e-4)


class TestMaxClusters:
    def test_golden_value(self, inputs):
        kappa = max_clusters(*inputs)
        assert kappa == pytest.approx(GOLDEN_KAPPA_MAX, rel=1e-12)
        assert cap(kappa) == 14

    def test_infinite_where_d_opt_squared_underflows(self, inputs):
        radio, _, n, _ = inputs
        assert 0 < optimal_distance(radio, 1e-100, n, 1e-120) < 1e-170
        assert max_clusters(radio, 1e-100, n, 1e-120) == math.inf

    def test_identity_with_optimal_distance(self, inputs):
        rng = random.Random(23)
        for _ in range(50):
            inp = _random_inputs(rng)
            raw = max_clusters(*inp)
            d_opt = optimal_distance(*inp)
            side_m = inp[1]
            assert raw * 2 * math.pi * d_opt ** 2 == pytest.approx(side_m ** 2, rel=1e-9)

    def test_inverse_square_in_bs_distance(self, inputs):
        quad = (*inputs[:3], 200.0)
        assert max_clusters(*quad) == pytest.approx(max_clusters(*inputs) / 16, rel=1e-12)

    def test_rounded_floor_is_one(self, inputs):
        far = max_clusters(*inputs[:3], 1e5)
        assert far < 0.5
        assert cap(far) == 1

    @pytest.mark.parametrize("kappa, expected", [
        (0.4, 1), (1.49, 1), (1.5, 2), (13.49, 13), (13.5, 14)])
    def test_cap_rounds_half_up_with_a_floor_of_one(self, kappa, expected):
        assert cap(kappa) == expected


class TestAdaptiveProbability:
    def test_basic(self):
        assert adaptive_probability(10.0, 100) == pytest.approx(0.1)

    def test_clamped_at_one(self):
        assert adaptive_probability(10.0, 5) == 1.0

    def test_monotone_as_population_shrinks(self):
        values = [adaptive_probability(10.0, z) for z in range(100, 0, -1)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0 < v <= 1 for v in values)


def mean_bs_distance(nodes, bs):
    """representative_bs_distance over the engine's set-up distance array."""
    network = network_of(nodes)
    bs_dist, _ = _geometry_caches(network, bs, RadioParams())
    return representative_bs_distance(bs_dist, network.alive)


class TestRepresentativeBsDistance:
    def _node(self, i, x, y, alive=True):
        n = Node(id=i, x=x, y=y, tier="normal", initial_energy=0.5)
        if not alive:
            n.drain(0.5)
        return n

    def test_single_node(self):
        nodes = [self._node(0, 0.0, 0.0)]
        assert mean_bs_distance(nodes, (50.0, 50.0)) == pytest.approx(
            math.sqrt(5000))

    def test_colocated_degenerate(self):
        nodes = [self._node(0, 50.0, 50.0), self._node(1, 50.0, 50.0)]
        assert mean_bs_distance(nodes, (50.0, 50.0)) == 0.0

    def test_ignores_dead_nodes(self):
        nodes = [self._node(0, 0.0, 50.0), self._node(1, 90.0, 50.0, alive=False)]
        assert mean_bs_distance(nodes, (50.0, 50.0)) == pytest.approx(50.0)

    def test_uniform_square_mean_matches_monte_carlo(self):
        # Independent oracle: Monte-Carlo estimate of E||U - c|| for U uniform
        # on [0,100]^2 and c the center. Quadrature gives 38.2598.
        rng = random.Random(99)
        samples = [math.hypot(rng.uniform(0, 100) - 50, rng.uniform(0, 100) - 50)
                   for _ in range(200_000)]
        mc = sum(samples) / len(samples)
        assert mc == pytest.approx(38.2598, abs=0.15)
        nodes = [self._node(i, rng.uniform(0, 100), rng.uniform(0, 100))
                 for i in range(20_000)]
        assert mean_bs_distance(nodes, (50.0, 50.0)) == pytest.approx(
            38.2598, abs=0.6)

    def test_mean_adds_left_to_right(self):
        # Distances 1 and ten of 1e-16: a compensated or pairwise sum
        # would not give exactly 1.0 before the division.
        nodes = [self._node(0, 1.0, 0.0)] + [self._node(i, 1e-16, 0.0)
                                             for i in range(1, 11)]
        assert mean_bs_distance(nodes, (0.0, 0.0)) == 1.0 / 11
