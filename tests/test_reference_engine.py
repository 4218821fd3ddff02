"""Differential test: the array engine against the scalar reference engine.

On generated configurations, radio constants included, both engines must
write the same CSV and summary bytes and the same full-precision series, or
fail with the same exception, and the package's run must keep the physical
invariants, per round and per role. The examples are derandomized and no
example database is kept, so the test is deterministic (conftest.py keeps
Hypothesis's other caches out of the checkout). A second, large-field
stratum draws N from 600 to 1 500 over a few rounds, where the grid join and
the bulk election draws meet the scalar oracle.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_engine
from run_bits import run_bits
from wsnsim import (FieldConfig, RadioParams, algorithm_names, membership, run_simulation,
                    simulator)
from wsnsim.model import _BULK_DRAWS, round_half_up
from wsnsim.simulator import algorithm

EXAMPLES = 500
LARGE_EXAMPLES = 200


def decades(draw, low, high):
    """10**u for u drawn from [low, high]: a value spread over decades."""
    return 10.0 ** draw(st.floats(low, high))


@st.composite
def configs(draw):
    # The four per-bit constants over a few decades each around the defaults,
    # and fs_amp / mp_amp from 10**0.5 to 10**5.5, so the crossover distance
    # falls anywhere from about 1.8 m to past the largest field's diagonal.
    fs_amp = decades(draw, -13.0, -10.0)
    radio = RadioParams(elec_energy_per_bit=decades(draw, -10.0, -7.0), fs_amp=fs_amp,
                        mp_amp=fs_amp / decades(draw, 0.5, 5.5),
                        aggregation_energy_per_bit=decades(draw, -10.0, -8.0),
                        packet_bits=draw(st.integers(1, 10_000)))
    side = draw(st.floats(5.0, 300.0))
    field = FieldConfig(
        side_m=side,
        node_count=draw(st.integers(1, 300)),
        bs_position=(draw(st.floats(0.0, side)), draw(st.floats(0.0, side))),
        base_probability=draw(st.floats(0.0, 1.0, exclude_min=True)),
        advanced_fraction=draw(st.floats(0.0, 1.0)),
        advanced_energy_factor=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0)),
        # Small enough that many runs reach extinction within max_rounds.
        initial_energy=draw(st.floats(5e-4, 0.03)),
        max_rounds=draw(st.integers(1, 200)))
    return (field, radio, draw(st.sampled_from(algorithm_names())),
            draw(st.integers(0, 2 ** 32 - 1)))


@st.composite
def large_configs(draw):
    """The large-field stratum: `configs` with N from 600 to 1 500, p from
    0.15 for 64 heads or more, at most 8 rounds, and an initial energy of 1 to
    about 300 packets' electronics cost, so that many runs see a death."""
    field, radio, algo, seed = draw(configs())
    packet = radio.packet_bits * radio.elec_energy_per_bit
    field = dataclasses.replace(field, node_count=draw(st.integers(600, 1500)),
                                base_probability=draw(st.floats(0.15, 1.0)),
                                initial_energy=packet * decades(draw, 0.0, 2.5),
                                max_rounds=draw(st.integers(1, 8)))
    return field, radio, algo, seed


def run(engine, field, radio, algo, seed):
    try:
        return engine(field, radio, algo, seed)
    except Exception as exc:   # both engines must fail alike
        return exc


class Watch:
    """Each round of the package's run as its engine saw it: the alive set at
    the start of the round, the elected heads, and the nodes placed as members
    or, with no head, sent direct to the BS; and whether any packet charged
    went past the crossover, to a head or to the BS."""

    def __init__(self, monkeypatch, field, radio):
        self.rounds, self.multipath, self.most_draws = [], False, 0
        self._bs, self._crossover = field.bs_position, radio.fs_amp / radio.mp_amp
        elect, assign = simulator.elect_cluster_heads, simulator.assign_members

        def elected(net, *args, **kwargs):
            self.most_draws = max(self.most_draws, int(np.count_nonzero(net.alive & net.eligible)))
            outcome = elect(net, *args, **kwargs)
            self.rounds.append((net.alive.copy(), outcome.heads.copy()))
            return outcome

        def assigned(net, heads, beta):
            assignment = assign(net, heads, beta)
            self.rounds[-1] += (assignment.member_ids.copy(), assignment.unassigned_ids.copy())
            to_bs = heads if len(heads) else assignment.unassigned_ids
            bs_d2 = (np.square(net.xy[0][to_bs] - self._bs[0])
                     + np.square(net.xy[1][to_bs] - self._bs[1]))
            self.multipath |= bool(np.any(assignment.d2 > self._crossover)
                                   or np.any(bs_d2 > self._crossover))
            return assignment

        monkeypatch.setattr(simulator, "elect_cluster_heads", elected)
        monkeypatch.setattr(simulator, "assign_members", assigned)


def outputs(s):
    """Everything a run produces, to the last bit, or the exception it raised."""
    if isinstance(s, Exception):
        return type(s), str(s)
    return run_bits(s)


def assert_invariants(s, field, spec, rounds):
    """Conservation, monotone deaths and energies, and the head bounds, per
    round; and, from the engine's `rounds`, that no head is dead at the start
    of its round and that every alive non-head is placed exactly once."""
    e_init, n = s.initial_energy_total, field.node_count
    prev_alive, prev_dead, prev_residual, prev_consumed = n, 0, e_init, 0.0
    assert len(rounds) == len(s.series)
    for r, consumed, (alive, heads, members, direct) in zip(s.series, s.consumed_series,
                                                            rounds):
        assert alive[heads].all() and len(np.unique(heads)) == len(heads) == r.head_count
        others = alive.copy()
        others[heads] = False
        assert np.array_equal(np.sort(np.concatenate((members, direct))), np.flatnonzero(others))
        assert not (len(heads) and len(direct))
        assert abs(e_init - r.residual_energy_total - consumed) <= 1e-9 * e_init
        assert consumed >= prev_consumed and r.dead_total >= prev_dead
        assert r.residual_energy_total <= prev_residual
        assert r.alive + r.dead_total == n
        assert r.dead_normal + r.dead_advanced == r.dead_total
        assert r.head_count <= prev_alive
        if spec.capped:
            assert r.head_count <= max(1, round_half_up(r.kappa_used))
        prev_alive, prev_dead = r.alive, r.dead_total
        prev_residual, prev_consumed = r.residual_energy_total, consumed


def check_against_reference(strategy, examples):
    """Each drawn run against the scalar reference; how many reached the
    multipath charge, the grid join, the bulk election draws and a death."""
    reached = {"multipath": 0, "grid": 0, "bulk draws": 0, "deaths": 0}

    @settings(derandomize=True, database=None, deadline=None, max_examples=examples,
              suppress_health_check=[HealthCheck.too_slow])
    @given(strategy)
    def check(config):
        field, radio, algo, seed = config
        with pytest.MonkeyPatch.context() as monkeypatch:
            watch = Watch(monkeypatch, field, radio)
            summary = run(run_simulation, field, radio, algo, seed)
        assert outputs(summary) == outputs(run(reference_engine.run_simulation, field, radio,
                                               algo, seed))
        if not isinstance(summary, Exception):
            assert_invariants(summary, field, algorithm(algo), watch.rounds)
            reached["multipath"] += watch.multipath
            reached["grid"] += any(len(heads) >= membership._GRID_HEADS
                                   for _, heads, *_ in watch.rounds)
            reached["bulk draws"] += watch.most_draws >= _BULK_DRAWS
            reached["deaths"] += summary.first_death_round is not None

    check()
    print(reached)
    return reached


def test_array_engine_matches_scalar_reference():
    reached = check_against_reference(configs(), EXAMPLES)
    # 355 of the 500 examples charge a packet past the crossover.
    assert reached["multipath"] >= EXAMPLES // 2, reached


def test_large_fields_match_scalar_reference():
    reached = check_against_reference(large_configs(), LARGE_EXAMPLES)
    # Of the 200 examples, 48-66 reach the grid join, about 190 a death, 160
    # the multipath charge and all the bulk draws (N >= 600 draws in bulk in
    # round 0), in about 2.5 s. The examples move with the modules loaded
    # beside this one, as hypothesis draws constants from them.
    assert reached["grid"] >= LARGE_EXAMPLES // 8, reached
    assert min(reached[path] for path in ("bulk draws", "deaths")) >= LARGE_EXAMPLES // 2, \
        reached
