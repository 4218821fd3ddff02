"""Differential test: the array engine against the scalar reference engine.

On generated configurations both engines must write the same CSV and
summary bytes and the same full-precision series, or fail with the same
exception. The examples are derandomized and no example database is kept,
so the test is deterministic (conftest.py keeps Hypothesis's other caches
out of the checkout).
"""
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_engine
from wsnsim import FieldConfig, RadioParams, algorithm_names, run_simulation
from wsnsim.reporting import round_csv_text, summary_json_text


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


def outputs(engine, field, algo, seed):
    """Everything a run produces, to the last bit, or the exception it raised."""
    try:
        s = engine(field, RadioParams(), algo, seed)
    except Exception as exc:   # both engines must fail alike
        return type(exc), str(exc)
    full = [(r.residual_energy_total, r.p_used, r.kappa_used) for r in s.series]
    return (round_csv_text(s), summary_json_text([s]), repr(s.initial_energy_total),
            repr(full), repr(s.consumed_series))


@settings(derandomize=True, database=None, deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_array_engine_matches_scalar_reference(config):
    field, algo, seed = config
    assert outputs(run_simulation, field, algo, seed) == \
        outputs(reference_engine.run_simulation, field, algo, seed)
