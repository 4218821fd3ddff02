"""The configuration edge: every configuration the CLI accepts must run.

Up to three scalar keys take extreme values, from the least subnormal to
near the largest double and integers no float holds, on fields of at most 40
nodes. Every key is offered every edge value, an int or a float, whatever
kind its setting takes: the model's rules decide. Whatever `cli._build`
accepts must run three rounds of a plain and of a learning algorithm with
warnings as errors, or stop at the one budget check that depends on the
deployment.
"""
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wsnsim.cli import _SCALAR_KEYS, ConfigError, _build
from wsnsim.simulator import run_simulation

KAPPA_ERROR = "kappa of side_m, node_count, fs_amp and mp_amp must be finite and positive"
ALGORITHMS = ("leach", "sep-kef-1-1-p-learning")
FLOAT_EDGES = (0.0, 5e-324, 2.2250738585072014e-308, 1e-200, 1.2e-162, 1e-155, 1e-100,
               1.3e-15, 1e-12, 5e-9, 0.1, 0.5, 1.0, 2.0, 50.0, 100.0, 1e80, 1e100,
               1e300, 1e304, 1e306, 1e307, 1.7e308)
INT_EDGES = (0, 1, 2, 10, 4000, 2 ** 53 + 1, 10 ** 20, 10 ** 308, 10 ** 400)
KEYS = sorted(set(_SCALAR_KEYS) - {"nodes", "max_rounds"})


@st.composite
def edge_settings(draw):
    """(key, raw value) settings: a node count, then up to three other keys,
    each offered every edge value, float and int alike."""
    settings_ = [("nodes", str(draw(st.integers(1, 40))))]
    for key in draw(st.lists(st.sampled_from(KEYS), max_size=3, unique=True)):
        value = draw(st.one_of(st.sampled_from(FLOAT_EDGES + INT_EDGES), st.floats(0.0, 1.7e308)))
        settings_.append((key, repr(value)))
    return settings_


@settings(derandomize=True, database=None, deadline=None, max_examples=600,
          suppress_health_check=[HealthCheck.too_slow])
@given(edge_settings(), st.integers(0, 3))
# every node's d^2 to a corner BS underflows to 0: set-up's budget has no distance
@example([("nodes", "2"), ("side", "1.2e-162"), ("bs_x", "0"), ("bs_y", "0")], 0)
# each packet's aggregation is finite, the head-cost table for 40 nodes is not
@example([("nodes", "40"), ("packet_bits", "10"),
          ("aggregation_energy_per_bit", "1e306")], 0)
# the table is finite, a head's entry plus its uplink far from a corner BS is not
@example([("nodes", "2"), ("p", "0.5"), ("packet_bits", "1"),
          ("aggregation_energy_per_bit", "5.9e307"), ("fs_amp", "8e303"), ("mp_amp", "1e290"),
          ("bs_x", "0"), ("bs_y", "0")], 0)
def test_accepted_configuration_runs_or_names_its_budget(settings_, seed):
    try:
        cfg = _build([(key, raw, f"key {key!r}")
                      for key, raw in [*settings_, ("max_rounds", "3")]])
    except ConfigError:
        return
    for name in ALGORITHMS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                summary = run_simulation(cfg.field, cfg.radio, name, seed)
            except ValueError as exc:
                assert str(exc).startswith(KAPPA_ERROR), exc
                continue
        assert 1 <= summary.rounds_executed <= 3
