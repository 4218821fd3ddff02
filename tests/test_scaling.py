"""The radio model's power-of-two symmetries, as a metamorphic property.

The first-order radio model (Heinzelman et al., IEEE TWC 2002) has two exact
symmetries in IEEE doubles, since every scale factor is a power of two and
so rounds nothing:

- geometry x 2**k: `side_m` and the BS x 2**k, `fs_amp` x 4**-k and `mp_amp`
  x 16**-k. Positions and distances scale, every charge, the crossover test,
  kappa and every join decision do not: the round rows are the same, bit for
  bit;
- energy x 2**j: `initial_energy` and the four per-bit constants x 2**j. Every
  energy scales and no decision moves: the round rows are the same, but for
  `residual_energy_total`, which is exactly 2**j times the base value, as is
  every entry of `consumed_series`.

No scalar oracle is needed, so the fields reach N = 2 000: the grid join,
the bulk election draws and the multipath charge. |k| and |j| go to 40, a
field side from about 5e-12 m to 3e14 m, while no drawn value goes subnormal
or overflows.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wsnsim import (FieldConfig, RadioParams, algorithm_names, election, membership,
                    run_simulation, simulator)
from wsnsim.model import _BULK_DRAWS

EXAMPLES = 400


def decades(draw, low, high):
    return 10.0 ** draw(st.floats(low, high))


@st.composite
def configs(draw):
    """(field keywords, radio keywords, algorithm, seed, k, j): energies low
    enough that many runs see deaths, p up to 1 for 64 heads or more, and the
    radio constants as the differential oracle draws them."""
    fs_amp = decades(draw, -13.0, -10.0)
    radio = dict(elec_energy_per_bit=decades(draw, -10.0, -7.0), fs_amp=fs_amp,
                 mp_amp=fs_amp / decades(draw, 0.5, 5.5),
                 aggregation_energy_per_bit=decades(draw, -10.0, -8.0),
                 packet_bits=draw(st.integers(1, 10_000)))
    side = draw(st.floats(5.0, 300.0))
    field = dict(side_m=side, node_count=draw(st.integers(1, 2000) | st.integers(600, 2000)),
                 bs_position=(draw(st.floats(0.0, side)), draw(st.floats(0.0, side))),
                 base_probability=draw(st.floats(0.0, 1.0, exclude_min=True)
                                       | st.floats(0.1, 1.0)),
                 advanced_fraction=draw(st.floats(0.0, 1.0)),
                 advanced_energy_factor=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0)),
                 initial_energy=decades(draw, -6.0, -2.0),
                 max_rounds=draw(st.integers(1, 20)))
    nonzero = st.integers(-40, 40).filter(bool)
    return (field, radio, draw(st.sampled_from(algorithm_names())),
            draw(st.integers(0, 2 ** 32 - 1)), draw(nonzero), draw(nonzero))


def scaled_geometry(field, radio, k):
    x, y = field["bs_position"]
    return ({**field, "side_m": math.ldexp(field["side_m"], k),
             "bs_position": (math.ldexp(x, k), math.ldexp(y, k))},
            {**radio, "fs_amp": math.ldexp(radio["fs_amp"], -2 * k),
             "mp_amp": math.ldexp(radio["mp_amp"], -4 * k)})


def scaled_energy(field, radio, j):
    return ({**field, "initial_energy": math.ldexp(field["initial_energy"], j)},
            {name: value if name == "packet_bits" else math.ldexp(value, j)
             for name, value in radio.items()})


def run(field, radio, algo, seed):
    try:
        return run_simulation(FieldConfig(**field), RadioParams(**radio), algo, seed)
    except ValueError as exc:   # a budget out of range: every side must fail alike
        return str(exc).split(", got ")[0]


def rows(summary, energy_scale=0):
    """Each round's values, the reals as their repr, the residual total
    divided by 2**energy_scale (exact)."""
    return [(r[:6], repr(math.ldexp(r.residual_energy_total, -energy_scale)),
             repr(r.p_used), repr(r.kappa_used)) for r in summary.series]


class Reach:
    """Which paths a run took: the grid join, election draws in one bulk call,
    a packet charged past the crossover distance."""

    def __init__(self, monkeypatch):
        self.paths = set()
        grid, uniforms, tx = membership._grid, election.uniforms, simulator.tx_energies

        def counted_grid(*args):
            self.paths.add("grid")
            return grid(*args)

        def counted_uniforms(rng, n):
            if n >= _BULK_DRAWS:
                self.paths.add("bulk draws")
            return uniforms(rng, n)

        def counted_tx(radio, d2):
            if np.any(d2 > radio.fs_amp / radio.mp_amp):
                self.paths.add("multipath")
            return tx(radio, d2)

        monkeypatch.setattr(membership, "_grid", counted_grid)
        monkeypatch.setattr(election, "uniforms", counted_uniforms)
        monkeypatch.setattr(simulator, "tx_energies", counted_tx)


@pytest.mark.parametrize("algo", algorithm_names())
def test_picometre_field_writes_the_rounds_of_a_100_m_field(algo):
    # Side 100 * 2**-44 m, about 5.7e-12 m, where many members lie within
    # 1e-12 m of a head: the rounds are those of the 100 m field, bit for bit.
    field = dict(side_m=100.0, node_count=300, bs_position=(50.0, 50.0), max_rounds=30)
    radio = dict(fs_amp=RadioParams.fs_amp, mp_amp=RadioParams.mp_amp)   # the defaults
    base = run_simulation(FieldConfig(**field), RadioParams(**radio), algo, 7)
    small = run(*scaled_geometry(field, radio, -44), algo, 7)
    assert rows(small) == rows(base)
    assert list(map(repr, small.consumed_series)) == list(map(repr, base.consumed_series))


def test_power_of_two_scaling_writes_the_same_rounds():
    reached = {"grid": 0, "bulk draws": 0, "multipath": 0, "deaths": 0}

    @settings(derandomize=True, database=None, deadline=None, max_examples=EXAMPLES,
              suppress_health_check=[HealthCheck.too_slow])
    @given(configs())
    def check(config):
        field, radio, algo, seed, k, j = config
        with pytest.MonkeyPatch.context() as monkeypatch:
            reach = Reach(monkeypatch)
            base = run(field, radio, algo, seed)
        geometry = run(*scaled_geometry(field, radio, k), algo, seed)
        energy = run(*scaled_energy(field, radio, j), algo, seed)
        if any(isinstance(outcome, str) for outcome in (base, geometry, energy)):
            assert geometry == energy == base
            return
        assert rows(geometry) == rows(base)
        assert list(map(repr, geometry.consumed_series)) == list(map(repr, base.consumed_series))
        assert rows(energy, j) == rows(base)
        assert [math.ldexp(c, -j) for c in energy.consumed_series] == list(base.consumed_series)
        assert energy.initial_energy_total == math.ldexp(base.initial_energy_total, j)
        for path in reach.paths:
            reached[path] += 1
        reached["deaths"] += base.first_death_round is not None

    check()
    print(reached)
    # Of the 400 examples, 72-101 reach the grid join, about 300 the bulk draws
    # and 250 the multipath charge and a death. The examples move with the
    # modules loaded beside this one, as hypothesis draws constants from them.
    assert reached["grid"] >= EXAMPLES // 8, reached
    assert min(reached[path] for path in ("bulk draws", "multipath", "deaths")) >= EXAMPLES // 2, \
        reached
