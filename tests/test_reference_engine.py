"""Differential test: the array engine against the scalar reference engine.

On generated configurations both engines must write the same CSV and
summary bytes and the same full-precision series, or fail with the same
exception, and the package's run must keep the physical invariants. The
examples are derandomized and no example database is kept, so the test is
deterministic (conftest.py keeps Hypothesis's other caches out of the
checkout).
"""
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_engine
from wsnsim import FieldConfig, RadioParams, algorithm_names, run_simulation
from wsnsim.model import round_half_up
from wsnsim.reporting import round_csv_text, summary_json_text
from wsnsim.simulator import algorithm


@st.composite
def configs(draw):
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
    return field, draw(st.sampled_from(algorithm_names())), draw(st.integers(0, 2 ** 32 - 1))


def run(engine, field, algo, seed):
    try:
        return engine(field, RadioParams(), algo, seed)
    except Exception as exc:   # both engines must fail alike
        return exc


def outputs(s):
    """Everything a run produces, to the last bit, or the exception it raised."""
    if isinstance(s, Exception):
        return type(s), str(s)
    full = [(r.residual_energy_total, r.p_used, r.kappa_used) for r in s.series]
    return (round_csv_text(s), summary_json_text([s]), repr(s.initial_energy_total),
            repr(full), repr(list(s.consumed_series)))


def assert_invariants(s, field, spec):
    """Conservation, monotone deaths and energies, and the head bounds, per round."""
    e_init, n = s.initial_energy_total, field.node_count
    prev_alive, prev_dead, prev_residual, prev_consumed = n, 0, e_init, 0.0
    for r, consumed in zip(s.series, s.consumed_series):
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


@settings(derandomize=True, database=None, deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_array_engine_matches_scalar_reference(config):
    field, algo, seed = config
    summary = run(run_simulation, field, algo, seed)
    assert outputs(summary) == outputs(run(reference_engine.run_simulation, field, algo, seed))
    if not isinstance(summary, Exception):
        assert_invariants(summary, field, algorithm(algo))
