"""Deterministic work counters: how much a run does, not how long it takes.

Time on a shared host spreads wider than most changes move it; counts of work
do not move with the host. Each fixed (config, algorithm, seed) run starts in
a fresh interpreter with no warm-up, so the package's caches start empty, and
runs under cProfile. Its calls per round into `wsnsim` frames are gated at
10 % above their pins. All calls per round and the `tracemalloc` peak include
numpy's own Python wrappers, which differ between numpy versions, so they are
printed (`pytest -s`) and not gated. The join counter pins how many entries the
grid join scores per member row against the real heads among them.

A change that lowers a pin edits it here; one that raises a pin says why.
"""
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wsnsim import FieldConfig, RadioParams, membership
from wsnsim.model import deploy_field
from wsnsim.simulator import start_run

SRC = Path(__file__).resolve().parents[1] / "src"
SLACK = 1.10   # the north star's bound on a tracked number

# (algorithm, node count, max_rounds) at seed 0 -> (rounds executed, calls per round
# in wsnsim frames, all calls per round).
PINS = {
    ("sep-kep", 100, 200): (200, 18.48, 65.9),
    ("leach", 100, 3000): (2415, 13.36, 46.5),   # to extinction
    ("leach", 1000, 300): (300, 17.70, 123.9),
    ("sep-kef-1-2-p", 1000, 300): (300, 22.11, 170.3),
}

# Profiles one cold run, then takes the tracemalloc peak of a second one, unprofiled.
COUNT = """
import cProfile, json, os, pstats, sys, tracemalloc
import wsnsim
from wsnsim import FieldConfig, RadioParams, run_simulation
algo, n, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
field, radio = FieldConfig(node_count=n, max_rounds=rounds), RadioParams()
profile = cProfile.Profile()
profile.enable()
summary = run_simulation(field, radio, algo, 0)
profile.disable()
package = os.path.dirname(wsnsim.__file__) + os.sep
calls = {frame: stat[1] for frame, stat in pstats.Stats(profile).stats.items()}
tracemalloc.start()
run_simulation(field, radio, algo, 0)
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps({"rounds": summary.rounds_executed, "all": sum(calls.values()),
                  "wsnsim": sum(c for (path, *_), c in calls.items() if path.startswith(package)),
                  "peak": peak}))
"""

# beta -> (table width: entries scored per member row, real heads summed over the rows)
JOIN_PINS = {None: (26, 13747), 1: (46, 25425)}


@pytest.mark.parametrize("run", list(PINS), ids=lambda run: "-".join(map(str, run)))
def test_calls_per_round_in_the_package_stay_within_their_pin(run):
    out = subprocess.run([sys.executable, "-c", COUNT, *map(str, run)],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    counts = json.loads(out.stdout)
    rounds, own_pin, all_pin = PINS[run]
    own, every = counts["wsnsim"] / counts["rounds"], counts["all"] / counts["rounds"]
    print(f"\n{'-'.join(map(str, run))}: {counts['rounds']} rounds, per round "
          f"{own:.2f} calls in wsnsim frames (pin {own_pin}, gated at {SLACK}x), "
          f"{every:.1f} in all (pin {all_pin}, not gated); "
          f"tracemalloc peak {counts['peak'] / 1e3:.0f} kB (not gated)")
    assert counts["rounds"] == rounds
    assert own <= SLACK * own_pin


def test_grid_join_scores_a_fixed_number_of_entries_per_member_row():
    # One N = 1 000 round with every tenth node a head: 100 heads, past the grid's 64.
    field = FieldConfig(node_count=1000)
    net = start_run(deploy_field(field, random.Random(0)), field, RadioParams())
    heads = np.arange(0, 1000, 10)
    members = np.setdiff1d(np.arange(1000), heads)
    for beta, pins in JOIN_PINS.items():
        weights = None if beta is None else net.e_res[heads]
        table, member_row, _guard = membership._grid(net, heads, members, weights, beta)
        real = int(np.count_nonzero(table[member_row] < heads.size))
        print(f"\nbeta {beta}: {table.shape[1]} entries scored per member row, "
              f"{real / members.size:.2f} real heads per row, "
              f"{1 - real / (table.shape[1] * members.size):.0%} padding")
        assert (table.shape[1], real) == pins, beta
