"""The benchmark's tracer (`perfbench/tracing.py`) against the package.

The tracer replaces, by name, the functions listed in its `WRAPPED` table in
`wsnsim.simulator` and `wsnsim.cli`, and its per-layer metrics divide by the
number of `run_round` and `learning_update` calls. A rename or a changed
call path in the package would break the benchmark's traced run; this test
makes it break the test suite too.
"""
import importlib
import json
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LEARNING = "leach-kef-1-1-p-learning"
ROUNDS = 5


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_wrapped_name_resolves(tracing):
    for module_name, attr, _span in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr)), \
            f"{module_name}.{attr}"


def test_traced_cli_run_gives_finite_layer_metrics(tracing, tmp_path):
    import wsnsim.cli as cli
    config = tmp_path / "run.cfg"
    config.write_text(f"nodes = 100\nmax_rounds = {ROUNDS}\n"
                      f"algorithms = leach, {LEARNING}\nseeds = 1\n"
                      f"output_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.call(tracing.CLI_MAIN, cli.main, ["--config", str(config)])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert not tracer.failures
    metrics = tracer.layer_metrics()
    assert metrics and all(math.isfinite(value) for value, _unit in metrics.values())
    # No node dies in these rounds, and the learning run still re-derives
    # its budget on every round.
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
    assert [run["first_death_round"] for run in summary] == [None, None]
    calls = [tracer.names[i] for i in tracer.name]
    assert calls.count("simulator.run_round") == 2 * ROUNDS
    assert calls.count("simulator.learning_update") == ROUNDS


def test_traced_cli_run_checks_grid_joins(tracing, tmp_path, monkeypatch):
    # 2 000 nodes elect more than _GRID_HEADS heads, so the tracer's
    # brute-force check of round 0 meets the grid path of both joins. The
    # lower multipath amplifier raises the capped algorithm's cap above it.
    import wsnsim.cli as cli
    from wsnsim import membership
    grid_calls = []
    screen = membership._screen
    monkeypatch.setattr(membership, "_screen", lambda m, h, *args: (
        grid_calls.append(h.shape[1]), screen(m, h, *args))[1])
    config = tmp_path / "run.cfg"
    config.write_text("nodes = 2000\nmax_rounds = 2\nmp_amp = 0.0005e-12\n"
                      "algorithms = leach, sep-kef-1-2-p\nseeds = 1\n"
                      f"output_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.call(tracing.CLI_MAIN, cli.main, ["--config", str(config)])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert not tracer.failures
    assert len(grid_calls) == 4 and min(grid_calls) >= membership._GRID_HEADS
