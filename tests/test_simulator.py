import dataclasses
import gc
import math
import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from reference_engine import Node, network_of
from wsnsim import (FieldConfig, RadioParams, algorithm_names, run_simulation, simulator,
                    write_round_csv, write_summary_json)
from wsnsim.analysis import max_clusters, representative_bs_distance
from wsnsim.model import deploy_field, ordered_sum, round_half_up
from wsnsim.reporting import round_csv_text, summary_json_text
from wsnsim.simulator import algorithm, learning_update, run_round, start_run

EXPECTED_NAMES = [
    "leach", "sep", "leach-kp", "leach-kep", "sep-kp", "sep-kep",
    "leach-kef-1-1", "leach-kef-1-2", "leach-kef-1-1-p", "leach-kef-1-2-p",
    "sep-kef-1-1", "sep-kef-1-2", "sep-kef-1-1-p", "sep-kef-1-2-p",
    "leach-kef-1-1-p-learning", "leach-kef-1-2-p-learning",
    "sep-kef-1-1-p-learning", "sep-kef-1-2-p-learning",
]

# The README's name grammar: a base, then -kp (cap, adaptive p), -kep (cap,
# adaptive p, energy-weighted threshold) or -kef-1-b (cap, energy-weighted
# threshold, E_res / d^b join), then -p (adaptive p), then -learning (learned kappa).
NAME_GRAMMAR = re.compile(r"(?P<base>leach|sep)"
                          r"(?:(?P<kp>-kp)|(?P<kep>-kep)|-kef-1-(?P<beta>[12]))?"
                          r"(?P<p>-p)?(?P<learning>-learning)?")


def small_field(**kw):
    defaults = dict(node_count=30, max_rounds=300)
    defaults.update(kw)
    return FieldConfig(**defaults)


def make_state(network, field, kappa=10.0, p=0.1, radio=RadioParams()):
    """The engine's set-up of `network` (a Network or a list of Nodes) on
    `field`, then the budget `kappa` and the probability `p`."""
    if isinstance(network, list):
        network = network_of(network)
    net = start_run(network, field, radio)
    net.kappa_max_raw, net.p_effective = kappa, p
    return net


class TestRegistry:
    def test_all_eighteen_names(self):
        assert sorted(algorithm_names()) == sorted(EXPECTED_NAMES)

    def test_case_insensitive(self):
        assert algorithm("LEACH-kEP") is algorithm("leach-kep")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            algorithm("foo")

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_mechanisms_follow_the_name_grammar(self, name):
        match = NAME_GRAMMAR.fullmatch(name)
        assert match, name
        base, kp, kep, beta, p, learning = match.group("base", "kp", "kep", "beta", "p",
                                                       "learning")
        spec = algorithm(name)
        assert spec.name == name and spec.base == base
        assert spec.energy_weighted == bool(kep or beta)
        assert spec.join_beta == (int(beta) if beta else None)
        assert spec.capped == (name != base)
        assert spec.adaptive_p == bool(kp or kep or p)
        assert spec.learning_kappa == bool(learning)

    def test_flag_mapping(self):
        leach = algorithm("leach")
        assert not (leach.capped or leach.adaptive_p or leach.learning_kappa)
        kep = algorithm("sep-kep")
        assert kep.capped and kep.adaptive_p and kep.energy_weighted
        kef = algorithm("leach-kef-1-2")
        assert kef.capped and not kef.adaptive_p
        assert kef.join_beta == 2
        assert kep.join_beta is None
        learning = algorithm("sep-kef-1-1-p-learning")
        assert learning.adaptive_p and learning.learning_kappa


class TestRunRound:
    def test_single_node_degenerate_cluster(self, radio):
        # One node, forced election (p=1): pays aggregation of its own signal
        # plus the BS uplink, receives nothing.
        field = FieldConfig(node_count=1, base_probability=1.0, max_rounds=10)
        nodes = [Node(id=0, x=30.0, y=50.0, tier="normal", initial_energy=0.5)]
        state = make_state(nodes, field, kappa=1.0, p=1.0, radio=radio)
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
        state = make_state(nodes, field, radio=radio)
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
        net = deploy_field(field, rng)
        state = make_state(net, field, radio=radio)
        for _ in range(50):
            before = sum(net.e_res)
            consumed_before = state.cumulative_consumed
            run_round(state, algorithm("leach"), radio, field, rng)
            after = sum(net.e_res)
            # summation-order noise only; well inside 1e-9 of total energy
            assert state.cumulative_consumed - consumed_before == \
                pytest.approx(before - after, abs=1e-9 * ordered_sum(net.e0))


class TestRunSimulation:
    def test_zero_rounds(self, radio):
        s = run_simulation(small_field(max_rounds=0), radio, "leach", 1)
        assert s.series == []
        assert s.rounds_executed == 0
        assert s.first_death_round is None

    @pytest.mark.parametrize("seed, ok", [(None, False), (-1, False), (1.0, False),
                                          (True, False), ("1", False), (0, True), (2 ** 64, True)])
    def test_seed_is_an_integer_at_least_zero(self, radio, seed, ok):
        # random.Random would seed from the clock on None, and replay seed 1
        # under the labels -1, 1.0 and True.
        if ok:
            assert run_simulation(small_field(max_rounds=3), radio, "leach", seed).seed == seed
        else:
            with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
                run_simulation(small_field(max_rounds=3), radio, "leach", seed)

    @pytest.mark.parametrize("algo", [
        None, 5, b"leach",
        # a spec under a registered name with another join: it would run the
        # E/d^2 join under the label leach
        dataclasses.replace(algorithm("leach"), join_beta=3),
        dataclasses.replace(algorithm("sep-kp"), name="leach"),
    ], ids=["none", "int", "bytes", "join_beta", "renamed"])
    @pytest.mark.parametrize("rounds", [0, 3])
    def test_algorithm_that_is_no_registry_entry_is_rejected_before_deployment(
            self, radio, monkeypatch, algo, rounds):
        def deploy(*args):
            raise AssertionError("deployed")
        monkeypatch.setattr(simulator, "deploy_field", deploy)
        with pytest.raises(ValueError, match=r"^unknown algorithm .*; known: leach, "):
            run_simulation(small_field(max_rounds=rounds), radio, algo, 0)

    @pytest.mark.parametrize("algo", ["LEACH-kEP", dataclasses.replace(algorithm("leach-kep"))])
    def test_name_in_any_case_or_equal_spec_runs_the_registry_entry(self, radio, algo):
        expected = run_simulation(small_field(max_rounds=20), radio, "leach-kep", 4)
        summary = run_simulation(small_field(max_rounds=20), radio, algo, 4)
        assert summary.algorithm == "leach-kep"
        assert round_csv_text(summary) == round_csv_text(expected)

    @pytest.mark.parametrize("side", [1e100, 1e-200])
    def test_bad_range_raises_on_every_call(self, radio, side):
        # The range check remembers only (side, radio) pairs that pass.
        field = FieldConfig(side_m=side, bs_position=(0.0, 0.0), max_rounds=0)
        for seed in (0, 0, 1):
            with pytest.raises(ValueError, match="side_m must be such that"):
                run_simulation(field, radio, "leach", seed)
        assert run_simulation(small_field(max_rounds=0), radio, "leach", 0).series == []

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

    def test_cap_enforced_every_round(self, monkeypatch):
        # The learning run moves kappa after its first deaths; the cap must
        # follow it, so it is checked on rounds where it binds after the move.
        candidates = []
        elect = simulator.elect_cluster_heads

        def recording(*args, **kwargs):
            outcome = elect(*args, **kwargs)
            candidates.append(outcome.candidates_before_cap)
            return outcome

        monkeypatch.setattr(simulator, "elect_cluster_heads", recording)
        field = FieldConfig(node_count=60, max_rounds=500, initial_energy=0.05)
        for name in ("leach-kp", "leach-kef-1-1-p-learning"):
            candidates.clear()
            s = run_simulation(field, RadioParams(), name, 11)
            caps = [max(1, round_half_up(rec.kappa_used)) for rec in s.series]
            for rec, cap in zip(s.series, caps):
                assert rec.head_count <= cap, (name, rec)
        # s, caps and candidates are now the learning run's.
        moved = [rec.kappa_used != s.series[0].kappa_used for rec in s.series]
        assert any(moved)
        first = moved.index(True)
        assert any(n > cap for n, cap in zip(candidates[first:], caps[first:]))

    def test_dead_node_never_serves_again(self, monkeypatch):
        field = FieldConfig(node_count=30, max_rounds=800, initial_energy=0.03)
        radio = RadioParams()
        rng = random.Random(13)
        net = deploy_field(field, rng)
        state = make_state(net, field)
        last_head_round = {}
        elect = simulator.elect_cluster_heads

        def recording(network, tier_probs, round_no, *args, **kwargs):
            outcome = elect(network, tier_probs, round_no, *args, **kwargs)
            last_head_round.update(dict.fromkeys(outcome.heads.tolist(), round_no))
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

    def test_int_and_numpy_inputs_write_the_bytes_of_their_float_twins(self, tmp_path):
        # config_hash is the SHA-256 of the configs' repr, which is in summary.json.
        runs = {
            "float": (small_field(max_rounds=40), RadioParams()),
            "mixed": (FieldConfig(side_m=100, node_count=np.int64(30), max_rounds=np.int16(40),
                                  bs_position=(np.float64(50.0), 50),
                                  initial_energy=np.float64(0.5)),
                      RadioParams(elec_energy_per_bit=np.float64(50e-9),
                                  packet_bits=np.int64(4000))),
        }
        written = []
        for label, (field, radio) in runs.items():
            s = run_simulation(field, radio, "leach-kef-1-2-p", 3)
            write_round_csv(s, tmp_path / f"{label}.csv")
            write_summary_json([s], tmp_path / f"{label}.json")
            written.append([(tmp_path / f"{label}.{ext}").read_bytes() for ext in ("csv", "json")])
        assert runs["float"] == runs["mixed"]
        assert written[0] == written[1]

    def test_metadata_identifies_rng_and_config(self):
        field = small_field(max_rounds=5)
        s = run_simulation(field, RadioParams(), "leach", 1)
        assert s.metadata["rng_algorithm"] == "python-random-mt19937"
        t = run_simulation(field, RadioParams(), "sep", 2)
        assert s.metadata["config_hash"] == t.metadata["config_hash"]
        other = run_simulation(small_field(max_rounds=6), RadioParams(), "leach", 1)
        assert other.metadata["config_hash"] != s.metadata["config_hash"]


def test_readme_library_snippet_runs(capsys):
    # The README's Library example, run as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1]
    snippet = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(snippet, "README.md", "exec"), {})
    first, half = capsys.readouterr().out.split()
    assert 0 < int(first) <= int(half)


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
        net = deploy_field(field, rng)
        state = make_state(net, field)
        d0 = representative_bs_distance(state.bs_dist, net.alive)
        initial = max_clusters(radio, field.side_m, field.node_count, d0)
        updated = learning_update(state, radio, field)
        assert updated == initial

    def test_matches_representative_bs_distance_after_deaths(self):
        # The budget after deaths is the closed form at the survivors' count
        # and at their distances sqrt(dx*dx + dy*dy) to the BS, added one by
        # one in id order: bit for bit, independently of the engine's arrays.
        field = FieldConfig(node_count=60, max_rounds=50)
        radio = RadioParams()
        bx, by = field.bs_position
        net = deploy_field(field, random.Random(4))
        state = make_state(net, field)
        before = learning_update(state, radio, field)
        net.alive[::3] = False
        net.e_res[::3] = 0.0
        total, alive = 0.0, 0
        for n in net:
            if n.alive:
                dx, dy = n.x - bx, n.y - by
                total += math.sqrt(dx * dx + dy * dy)
                alive += 1
        expected = max_clusters(radio, field.side_m, alive, total / alive)
        assert learning_update(state, radio, field) == expected != before

    def test_budget_is_the_runs_and_derived_once_per_alive_count(self, monkeypatch):
        field = FieldConfig(node_count=60, max_rounds=50)
        radio = RadioParams()
        state = make_state(deploy_field(field, random.Random(4)), field)
        derived = []
        closed_form = simulator.max_clusters
        monkeypatch.setattr(simulator, "max_clusters",
                            lambda *args: derived.append(args[2]) or closed_form(*args))
        for dead in (slice(None, None, 3), 1, 1, 2):   # 20 deaths, 1, none, then 1 more
            state.alive[dead] = False
            state.e_res[dead] = 0.0
            kappa = learning_update(state, radio, field)
            assert state.kappa_max_raw == kappa != 10.0
        assert derived == [40, 39, 38]

    def test_sqrt_scaling_when_half_die_on_a_ring(self):
        field = FieldConfig(node_count=40, max_rounds=50)
        radio = RadioParams()
        bs = field.bs_position
        state = make_state(self._ring_nodes(40, 30.0, bs), field)
        full = learning_update(state, radio, field)
        state.alive[::2] = False
        halved = learning_update(state, radio, field)
        assert halved == pytest.approx(full / math.sqrt(2), rel=1e-12)

    def test_mean_adds_left_to_right(self):
        # A compensated (Python >= 3.12 sum()) or pairwise (np.sum) mean of
        # these distances differs from 1/11 in the last bits.
        field = FieldConfig(node_count=11, max_rounds=5)
        radio = RadioParams()
        state = make_state(self._ring_nodes(11, 10.0, field.bs_position), field)
        state.bs_dist = np.array([1.0] + [1e-16] * 10)
        expected = max_clusters(radio, field.side_m, 11, 1.0 / 11)
        assert learning_update(state, radio, field) == expected

    @pytest.mark.parametrize("name", ["leach-kef-1-1-p-learning", "leach-kef-1-2-p-learning",
                                      "sep-kef-1-1-p-learning", "sep-kef-1-2-p-learning"])
    def test_cached_budget_and_dead_count_equal_fresh_ones(self, name):
        # The engine re-derives both only when the alive count moves; on every
        # round of a run to extinction they must equal a fresh derivation.
        field = FieldConfig(node_count=40, max_rounds=3000, initial_energy=0.02,
                            advanced_fraction=0.3)
        radio, algo, rng = RadioParams(), algorithm(name), random.Random(5)
        net = deploy_field(field, rng)
        state = start_run(net, field, radio)
        kappas = set()
        while net.alive.any():
            rec = run_round(state, algo, radio, field, rng)
            assert rec.dead_advanced == int(np.count_nonzero(net.advanced & ~net.alive))
            alive = int(np.count_nonzero(net.alive))
            if alive:
                d_bs = representative_bs_distance(state.bs_dist, net.alive)
                assert state.kappa_max_raw == max_clusters(radio, field.side_m, alive, d_bs)
                kappas.add(state.kappa_max_raw)
        assert rec.dead_advanced == 12 and len(kappas) > 10

    def _survivors_at(self, distance):
        # Nodes 0 and 1 alive `distance` metres from a BS in the corner; 2 and 3 dead.
        field = FieldConfig(node_count=4, bs_position=(0.0, 0.0))
        nodes = [Node(id=i, x=distance if i < 2 else 50.0, y=0.0, tier="normal",
                      initial_energy=0.5) for i in range(4)]
        state = make_state(nodes, field)
        state.alive[2:] = False
        state.e_res[2:] = 0.0
        return field, state

    def test_budget_beyond_float_range_names_the_settings(self):
        # d_opt^2 of survivors 1e-161 m from the BS is subnormal, so the
        # closed form overflows; the cap could not round it.
        field, state = self._survivors_at(1e-161)
        with pytest.raises(ValueError, match=r"^kappa of side_m, node_count, fs_amp and mp_amp "
                                             r"must be finite and positive, got inf$"):
            learning_update(state, RadioParams(), field)

    def test_survivors_on_the_bs_keep_the_last_budget(self):
        field, state = self._survivors_at(0.0)
        assert learning_update(state, RadioParams(), field) == state.kappa_max_raw == 10.0

    def test_learning_run_shrinks_budget_as_nodes_die(self):
        field = FieldConfig(node_count=40, max_rounds=1500, initial_energy=0.05)
        s = run_simulation(field, RadioParams(), "leach-kef-1-1-p-learning", 6)
        assert s.first_death_round is not None
        kappas = [r.kappa_used for r in s.series]
        assert kappas[0] != kappas[-1]


class TestMemory:
    @pytest.mark.parametrize("name", ["leach", "sep-kef-1-2-p-learning"])
    def test_round_series_holds_under_150_bytes_per_round(self, name):
        # A lifetime batch keeps every round of every run until it ends; as
        # column arrays a round is 9 x 8 bytes, as objects over 240.
        run_simulation(FieldConfig(), RadioParams(), name, 1)   # fill the process-wide caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            s = run_simulation(FieldConfig(), RadioParams(), name, 0)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert s.last_death_round is not None and s.rounds_executed > 1000
        assert held / s.rounds_executed < 150, \
            f"{held / s.rounds_executed:.0f} B per round over {s.rounds_executed} rounds"

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
