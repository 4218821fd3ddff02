import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from reference_engine import Node, network_of
from wsnsim import (FieldConfig, RadioParams, SimulationState, algorithm,
                    algorithm_names, learning_update, run_round, run_simulation)
from wsnsim import simulator
from wsnsim.model import ordered_sum, round_half_up
from wsnsim.reporting import round_csv_text, summary_json_text
from wsnsim.simulator import _geometry_caches

EXPECTED_NAMES = [
    "leach", "sep", "leach-kp", "leach-kep", "sep-kp", "sep-kep",
    "leach-kef-1-1", "leach-kef-1-2", "leach-kef-1-1-p", "leach-kef-1-2-p",
    "sep-kef-1-1", "sep-kef-1-2", "sep-kef-1-1-p", "sep-kef-1-2-p",
    "leach-kef-1-1-p-learning", "leach-kef-1-2-p-learning",
    "sep-kef-1-1-p-learning", "sep-kef-1-2-p-learning",
]


def small_field(**kw):
    defaults = dict(node_count=30, max_rounds=300)
    defaults.update(kw)
    return FieldConfig(**defaults)


def make_state(network, bs, kappa=10.0, p=0.1, radio=RadioParams()):
    if isinstance(network, list):
        network = network_of(network)
    uplink, bs_dist_mean = _geometry_caches(network, bs, radio)
    return SimulationState(network=network, round=0, kappa_max_raw=kappa,
                           p_effective=p, uplink=uplink, bs_dist_mean=bs_dist_mean,
                           initial_total=ordered_sum(network.e0))


class TestRegistry:
    def test_all_eighteen_names(self):
        assert sorted(algorithm_names()) == sorted(EXPECTED_NAMES)

    def test_case_insensitive(self):
        assert algorithm("LEACH-kEP") is algorithm("leach-kep")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            algorithm("foo")

    def test_flag_mapping(self):
        leach = algorithm("leach")
        assert not (leach.capped or leach.adaptive_p or leach.learning_kappa)
        kep = algorithm("sep-kep")
        assert kep.capped and kep.adaptive_p and kep.threshold_kind == "energy_weighted"
        kef = algorithm("leach-kef-1-2")
        assert kef.capped and not kef.adaptive_p
        assert kef.join.kind == "energy_distance"
        assert (kef.join.alpha, kef.join.beta) == (1.0, 2.0)
        learning = algorithm("sep-kef-1-1-p-learning")
        assert learning.adaptive_p and learning.learning_kappa


class TestRunRound:
    def test_single_node_degenerate_cluster(self, radio):
        # One node, forced election (p=1): pays aggregation of its own signal
        # plus the BS uplink, receives nothing.
        field = FieldConfig(node_count=1, base_probability=1.0, max_rounds=10)
        nodes = [Node(id=0, x=30.0, y=50.0, tier="normal", initial_energy=0.5)]
        state = make_state(nodes, field.bs_position, kappa=1.0, p=1.0, radio=radio)
        rec = run_round(state, algorithm("leach"), radio, field, random.Random(1))
        l = radio.packet_bits
        expected = (l * radio.aggregation_energy_per_bit
                    + l * radio.elec_energy_per_bit + l * radio.fs_amp * 20.0 ** 2)
        assert rec.head_count == 1
        assert state.cumulative_consumed == pytest.approx(expected, rel=1e-12)

    def test_zero_heads_fallback_charges_direct_uplink(self, radio):
        field = FieldConfig(node_count=4, max_rounds=10)
        nodes = [Node(id=i, x=10.0 * i, y=50.0, tier="normal", initial_energy=0.5)
                 for i in range(4)]
        for n in nodes:
            n.eligible = False  # mid-epoch, everyone has served
        state = make_state(nodes, field.bs_position, radio=radio)
        state.round = 3  # not an epoch boundary, so no refresh
        rec = run_round(state, algorithm("leach"), radio, field, random.Random(1))
        assert rec.head_count == 0
        l = radio.packet_bits
        expected = sum(l * radio.elec_energy_per_bit
                       + l * radio.fs_amp * abs(10.0 * i - 50.0) ** 2
                       for i in range(4))
        assert state.cumulative_consumed == pytest.approx(expected, rel=1e-12)

    def test_round_level_energy_conservation(self, radio):
        field = small_field()
        rng = random.Random(3)
        from wsnsim.model import deploy_field
        net = deploy_field(field, rng)
        state = make_state(net, field.bs_position, radio=radio)
        for _ in range(50):
            before = sum(net.e_res)
            consumed_before = state.cumulative_consumed
            run_round(state, algorithm("leach"), radio, field, rng)
            after = sum(net.e_res)
            # summation-order noise only; well inside 1e-9 of total energy
            assert state.cumulative_consumed - consumed_before == \
                pytest.approx(before - after, abs=1e-9 * state.initial_total)


class TestRunSimulation:
    def test_zero_rounds(self, radio):
        s = run_simulation(small_field(max_rounds=0), radio, "leach", 1)
        assert s.series == []
        assert s.rounds_executed == 0
        assert s.first_death_round is None

    def test_deterministic_summaries(self, radio):
        field = small_field()
        a = run_simulation(field, radio, "sep-kef-1-2-p", 7)
        b = run_simulation(field, radio, "sep-kef-1-2-p", 7)
        assert round_csv_text(a) == round_csv_text(b)
        assert summary_json_text([a]) == summary_json_text([b])
        assert a.series == b.series

    def test_conservation_across_full_run(self):
        field = FieldConfig(node_count=50, max_rounds=400)
        s = run_simulation(field, RadioParams(), "leach-kep", 5)
        total0 = s.initial_energy_total
        for rec, consumed in zip(s.series, s.consumed_series):
            assert abs(total0 - (rec.residual_energy_total + consumed)) \
                <= 1e-9 * total0

    def test_monotone_series(self):
        field = FieldConfig(node_count=50, max_rounds=1500)
        s = run_simulation(field, RadioParams(), "leach", 9)
        deads = [r.dead_total for r in s.series]
        residuals = [r.residual_energy_total for r in s.series]
        assert all(b >= a for a, b in zip(deads, deads[1:]))
        assert all(b <= a + 1e-15 for a, b in zip(residuals, residuals[1:]))
        assert all(r.dead_total == r.dead_normal + r.dead_advanced
                   for r in s.series)
        assert all(r.alive + r.dead_total == field.node_count for r in s.series)

    def test_stops_when_all_dead(self):
        field = FieldConfig(node_count=20, max_rounds=3000, initial_energy=0.01)
        s = run_simulation(field, RadioParams(), "leach", 2)
        assert s.last_death_round is not None
        assert s.rounds_executed == s.last_death_round + 1
        assert s.series[-1].alive == 0

    def test_baselines_keep_fixed_probability(self):
        field = FieldConfig(node_count=40, max_rounds=600, initial_energy=0.05)
        for name in ("leach", "sep"):
            s = run_simulation(field, RadioParams(), name, 3)
            assert s.first_death_round is not None
            assert {r.p_used for r in s.series} == {0.1}

    def test_adaptive_probability_rises_as_nodes_die(self):
        field = FieldConfig(node_count=40, max_rounds=600, initial_energy=0.05)
        s = run_simulation(field, RadioParams(), "leach-kp", 3)
        assert s.first_death_round is not None
        late = s.series[-1]
        early = s.series[0]
        assert early.p_used == 0.1  # adaptation starts after round 0
        assert late.p_used > s.series[1].p_used

    def test_cap_enforced_every_round(self):
        field = FieldConfig(node_count=60, max_rounds=500, initial_energy=0.05)
        s = run_simulation(field, RadioParams(), "leach-kp", 11)
        for rec in s.series:
            assert rec.head_count <= max(1, round_half_up(rec.kappa_used))

    def test_dead_node_never_serves_again(self, monkeypatch):
        field = FieldConfig(node_count=30, max_rounds=800, initial_energy=0.03)
        radio = RadioParams()
        rng = random.Random(13)
        from wsnsim.model import deploy_field
        net = deploy_field(field, rng)
        state = make_state(net, field.bs_position)
        last_head_round = {}
        elect = simulator.elect_cluster_heads

        def recording(network, policy, round_no, *args):
            outcome = elect(network, policy, round_no, *args)
            last_head_round.update(dict.fromkeys(outcome.heads, round_no))
            return outcome

        monkeypatch.setattr(simulator, "elect_cluster_heads", recording)
        death_round = {}
        for _ in range(field.max_rounds):
            if not any(net.alive):
                break
            run_round(state, algorithm("sep-kp"), radio, field, rng)
            for n in net:
                if not n.alive and n.id not in death_round:
                    death_round[n.id] = state.round - 1
        assert death_round  # the run must produce deaths to be meaningful
        for nid, died in death_round.items():
            last = last_head_round.get(nid)
            assert last is None or last <= died

    @pytest.mark.parametrize("sep_name, leach_name", [("sep", "leach"),
                                                      ("sep-kp", "leach-kp")])
    def test_sep_reduces_to_leach_on_a_homogeneous_field(self, sep_name,
                                                          leach_name):
        # With no advanced nodes both SEP tiers collapse to LEACH's p.
        field = FieldConfig(advanced_fraction=0.0)
        for seed in (0, 1):
            sep = run_simulation(field, RadioParams(), sep_name, seed)
            leach = run_simulation(field, RadioParams(), leach_name, seed)
            assert sep.last_death_round is not None
            assert round_csv_text(sep) == round_csv_text(leach)

    def test_metadata_identifies_rng_and_config(self):
        field = small_field(max_rounds=5)
        s = run_simulation(field, RadioParams(), "leach", 1)
        assert s.metadata["rng_algorithm"] == "python-random-mt19937"
        t = run_simulation(field, RadioParams(), "sep", 2)
        assert s.metadata["config_hash"] == t.metadata["config_hash"]
        other = run_simulation(small_field(max_rounds=6), RadioParams(), "leach", 1)
        assert other.metadata["config_hash"] != s.metadata["config_hash"]


class TestLearningUpdate:
    def _ring_nodes(self, count, radius, bs):
        nodes = []
        for i in range(count):
            ang = 2 * math.pi * i / count
            nodes.append(Node(id=i, x=bs[0] + radius * math.cos(ang),
                              y=bs[1] + radius * math.sin(ang),
                              tier="normal", initial_energy=0.5))
        return nodes

    def test_fixed_point_before_any_death(self):
        field = FieldConfig(node_count=40, max_rounds=50)
        radio = RadioParams()
        rng = random.Random(4)
        from wsnsim.model import deploy_field
        from wsnsim.analysis import (AnalysisInputs, max_clusters,
                                     representative_bs_distance)
        net = deploy_field(field, rng)
        d0 = representative_bs_distance(net, field.bs_position)
        initial = max_clusters(AnalysisInputs(radio, field, d0)).raw
        state = make_state(net, field.bs_position, kappa=initial)
        updated = learning_update(state, radio, field)
        assert updated == initial

    def test_matches_representative_bs_distance_after_deaths(self):
        # The set-up distances give exactly the budget that recomputing
        # every alive node's math.hypot distance each round gave. The
        # survivors are the nodes whose np.hypot distance differs from it.
        from dataclasses import replace
        from wsnsim.model import deploy_field
        from wsnsim.analysis import (AnalysisInputs, max_clusters,
                                     representative_bs_distance)
        field = FieldConfig(node_count=60, max_rounds=50)
        radio = RadioParams()
        bx, by = field.bs_position
        net = deploy_field(field, random.Random(4))
        state = make_state(net, field.bs_position)
        for n in net:
            if math.hypot(n.x - bx, n.y - by) == float(np.hypot(n.x - bx, n.y - by)):
                net.e_res[n.id], net.alive[n.id] = 0.0, False
        alive = sum(net.alive)
        assert alive >= 1
        d_bs = representative_bs_distance(net, field.bs_position)
        expected = max_clusters(AnalysisInputs(
            radio, replace(field, node_count=alive), d_bs)).raw
        assert learning_update(state, radio, field) == expected

    def test_sqrt_scaling_when_half_die_on_a_ring(self):
        field = FieldConfig(node_count=40, max_rounds=50)
        radio = RadioParams()
        bs = field.bs_position
        state = make_state(self._ring_nodes(40, 30.0, bs), bs)
        full = learning_update(state, radio, field)
        state.network.alive[::2] = False
        halved = learning_update(state, radio, field)
        assert halved == pytest.approx(full / math.sqrt(2), rel=1e-12)

    def test_mean_adds_left_to_right(self):
        # A compensated (Python >= 3.12 sum()) or pairwise (np.sum) mean of
        # these distances differs from 1/11 in the last bits.
        from wsnsim.analysis import AnalysisInputs, max_clusters
        field = FieldConfig(node_count=11, max_rounds=5)
        radio = RadioParams()
        state = make_state(self._ring_nodes(11, 10.0, field.bs_position), field.bs_position)
        state.bs_dist_mean = np.array([1.0] + [1e-16] * 10)
        expected = max_clusters(AnalysisInputs(radio, field, 1.0 / 11)).raw
        assert learning_update(state, radio, field) == expected

    def test_learning_run_shrinks_budget_as_nodes_die(self):
        field = FieldConfig(node_count=40, max_rounds=1500, initial_energy=0.05)
        s = run_simulation(field, RadioParams(), "leach-kef-1-1-p-learning", 6)
        assert s.first_death_round is not None
        kappas = [r.kappa_used for r in s.series]
        assert kappas[0] != kappas[-1]

    def test_no_alive_nodes_rejected(self):
        field = FieldConfig(node_count=4, max_rounds=5)
        state = make_state(self._ring_nodes(4, 10.0, field.bs_position), field.bs_position)
        state.network.alive[:] = False
        with pytest.raises(ValueError):
            learning_update(state, RadioParams(), field)


class TestMemory:
    def test_ten_thousand_nodes_stay_under_300_mb(self):
        # Member x head distances are computed per round in blocks, so peak
        # memory is O(N + block); an N x N float64 table alone is 800 MB here.
        script = textwrap.dedent("""
            import resource, sys
            from wsnsim import FieldConfig, RadioParams, run_simulation
            field = FieldConfig(node_count=10_000, max_rounds=3)
            for name in ("leach", "sep-kef-1-2-p-learning"):
                assert run_simulation(field, RadioParams(), name, 0).rounds_executed == 3
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(peak / 2**20 if sys.platform == "darwin" else peak / 2**10)
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        peak_mb = float(out.stdout.strip())
        assert peak_mb < 300, f"peak RSS {peak_mb:.0f} MB at N = 10 000"
