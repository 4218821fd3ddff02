"""The output bytes do not depend on which SIMD kernels numpy dispatches to.

numpy picks its kernels per CPU when it is imported. A subprocess with every
dispatch target above the build's baseline disabled (`NPY_DISABLE_CPU_FEATURES`)
must produce the same CSV, summary and full-precision series, to the bit, as
this process. The configurations reach both grid joins, the multipath charge
beyond the crossover distance and deaths.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wsnsim.membership as membership
from run_bits import run_bits
from wsnsim import FieldConfig, RadioParams, run_simulation

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:   # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# The dispatch targets this CPU runs; the others are never dispatched to here.
TARGETS = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]

CONFIGS = {
    # nearest join on the grid (about 100 heads), multipath uplinks, deaths
    "leach": FieldConfig(node_count=1000, side_m=300.0, bs_position=(50.0, 50.0),
                         initial_energy=0.05, max_rounds=30),
    # energy-distance join on the grid (about 170 heads), two tiers
    "sep-kef-1-2-p": FieldConfig(node_count=5000, max_rounds=10),
    # sqrt(d^2) / E join, a corner BS far past the crossover, a learned budget
    "sep-kef-1-1-p-learning": FieldConfig(node_count=3000, side_m=250.0,
                                          bs_position=(0.0, 0.0),
                                          initial_energy=0.05, max_rounds=30),
}


def digests() -> dict[str, str]:
    """SHA-256 of each configuration's outputs, with every float at full precision."""
    out = {}
    for name, field in CONFIGS.items():
        text = "\n".join(run_bits(run_simulation(field, RadioParams(), name, 0)))
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_configurations_reach_the_grid_multipath_and_deaths(monkeypatch):
    grid_betas = set()
    grid = membership._grid

    def counted(network, head_ids, member_ids, weights, beta):
        grid_betas.add(beta)
        return grid(network, head_ids, member_ids, weights, beta)

    monkeypatch.setattr(membership, "_grid", counted)
    radio = RadioParams()
    crossover2 = radio.fs_amp / radio.mp_amp
    deaths = {}
    for name, field in CONFIGS.items():
        deaths[name] = run_simulation(field, radio, name, 0).first_death_round
        bs_x, bs_y = field.bs_position
        corner2 = max(x * x + y * y for x in (bs_x, field.side_m - bs_x)
                      for y in (bs_y, field.side_m - bs_y))
        assert corner2 > crossover2 or name == "sep-kef-1-2-p", name
    assert grid_betas == {None, 2}   # the nearest and the E/d^2 join
    assert deaths["leach"] is not None and deaths["sep-kef-1-1-p-learning"] is not None


@pytest.mark.skipif(not TARGETS, reason="numpy dispatches no kernel above its baseline here")
def test_bytes_do_not_depend_on_simd_dispatch():
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(TARGETS),
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    script = ("import json, test_simd_dispatch as t; "
              "print(json.dumps([t.digests(), t.__cpu_features__]))")
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    child_digests, child_features = json.loads(out.stdout.strip().splitlines()[-1])
    assert not [t for t in TARGETS if child_features[t]], "a target is still dispatched"
    assert child_digests == digests()
