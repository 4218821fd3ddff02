"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria 2, 4, 5, 7 and 9 share one 30-seed x 18-algorithm batch at the
default parameter set; the batch is executed once per session. Those five
are marked `slow`: `pytest -m "not slow"` skips the batch.
"""
import json
import math
import random
import statistics
import time
from types import SimpleNamespace

import pytest

from numerics import argmin_total_energy
from reference_engine import Node, network_of
from wsnsim import (AnalysisInputs, ElectionPolicy, FieldConfig, JoinPolicy,
                    RadioParams, algorithm, algorithm_names,
                    assign_members, elect_cluster_heads, max_clusters,
                    optimal_distance, run_simulation)
from wsnsim.cli import main
from wsnsim.election import ENERGY_WEIGHTED, PLAIN
from wsnsim.membership import ENERGY_DISTANCE, NEAREST
from wsnsim.model import round_half_up

SEEDS = list(range(30))
CONSERVATION_SEEDS = 10  # criterion 2 uses the first ten seeds


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"\nacceptance criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def batch():
    """Run every algorithm over 30 seeds once, recording per-run flags.

    Runtimes are CPU seconds of this process, so the bounds measure the
    simulator's own cost rather than the load of the machine it shares.
    """
    field = FieldConfig()
    radio = RadioParams()
    first_death = {name: [] for name in algorithm_names()}
    run_seconds = {}
    conservation_violations = []
    cap_violations = []
    monotone_violations = []
    t0 = time.process_time()
    for name in algorithm_names():
        capped = algorithm(name).capped
        for seed in SEEDS:
            t1 = time.process_time()
            s = run_simulation(field, radio, name, seed)
            run_seconds[(name, seed)] = time.process_time() - t1
            first_death[name].append(s.first_death_round)

            total0 = s.initial_energy_total
            if seed < CONSERVATION_SEEDS:
                for rec, consumed in zip(s.series, s.consumed_series):
                    gap = abs(total0 - (rec.residual_energy_total + consumed))
                    if gap > 1e-9 * total0:
                        conservation_violations.append((name, seed, rec.round, gap))
            if capped:
                for rec in s.series:
                    if rec.head_count > round_half_up(rec.kappa_used):
                        cap_violations.append((name, seed, rec.round))
            deads = [r.dead_total for r in s.series]
            residuals = [r.residual_energy_total for r in s.series]
            if any(b < a for a, b in zip(deads, deads[1:])) or \
               any(b > a for a, b in zip(residuals, residuals[1:])):
                monotone_violations.append((name, seed))
    return SimpleNamespace(
        first_death=first_death,
        run_seconds=run_seconds,
        elapsed=time.process_time() - t0,
        conservation_violations=conservation_violations,
        cap_violations=cap_violations,
        monotone_violations=monotone_violations,
    )


def _random_inputs(rng):
    radio = RadioParams(
        elec_energy_per_bit=rng.uniform(1e-10, 1e-7),
        fs_amp=rng.uniform(1e-12, 1e-10),
        mp_amp=rng.uniform(1e-16, 9e-13),
        aggregation_energy_per_bit=rng.uniform(1e-10, 1e-8),
        packet_bits=rng.randrange(100, 10000))
    side = rng.uniform(20.0, 500.0)
    field = FieldConfig(side_m=side, node_count=rng.randrange(10, 1000),
                        bs_position=(side / 2, side / 2))
    return AnalysisInputs(radio=radio, field=field,
                          bs_distance=rng.uniform(1.0, side))


def test_criterion_1_analytical_identities():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    worst_argmin = worst_identity = 0.0
    for _ in range(100):
        inputs = _random_inputs(rng)
        closed = optimal_distance(inputs)
        numeric = argmin_total_energy(inputs)
        worst_argmin = max(worst_argmin, abs(numeric - closed) / closed)
        raw = max_clusters(inputs).raw
        m_sq = inputs.field.side_m ** 2
        worst_identity = max(
            worst_identity, abs(raw * 2 * math.pi * closed ** 2 - m_sq) / m_sq)
    elapsed = time.perf_counter() - t0
    ok = worst_argmin <= 1e-4 and worst_identity <= 1e-9 and elapsed < 5.0
    report(1, ok, f"argmin rel err {worst_argmin:.2e} (<=1e-4), "
                  f"identity rel err {worst_identity:.2e} (<=1e-9), "
                  f"{elapsed:.2f}s (<5s)")


@pytest.mark.slow
def test_criterion_2_energy_conservation(batch):
    subset_seconds = sum(sec for (name, seed), sec in batch.run_seconds.items()
                         if seed < CONSERVATION_SEEDS)
    ok = not batch.conservation_violations and subset_seconds < 120.0
    detail = (f"{len(batch.conservation_violations)} violations over "
              f"{CONSERVATION_SEEDS} seeds x 18 algorithms, "
              f"{subset_seconds:.1f}s CPU (<120s)")
    if batch.conservation_violations:
        detail += f"; first: {batch.conservation_violations[0]}"
    report(2, ok, detail)


def test_criterion_3_determinism(tmp_path):
    args = ["--algorithm", "sep-kef-1-2-p-learning", "--seed", "5",
            "--rounds", "300"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--output-dir", str(out1)]) == 0
    assert main(args + ["--output-dir", str(out2)]) == 0
    csv_same = ((out1 / "sep-kef-1-2-p-learning" / "seed-5.csv").read_bytes()
                == (out2 / "sep-kef-1-2-p-learning" / "seed-5.csv").read_bytes())
    json_same = ((out1 / "summary.json").read_bytes()
                 == (out2 / "summary.json").read_bytes())
    report(3, csv_same and json_same,
           f"CSV identical: {csv_same}, JSON identical: {json_same}")


@pytest.mark.slow
def test_criterion_4_lifetime_ordering(batch):
    pairs = [
        ("leach", "leach-kp"), ("leach-kp", "leach-kep"),
        ("sep", "sep-kp"), ("sep-kp", "sep-kep"),
        ("leach-kef-1-1", "leach-kef-1-1-p"),
        ("leach-kef-1-2", "leach-kef-1-2-p"),
        ("sep-kef-1-1", "sep-kef-1-1-p"),
        ("sep-kef-1-2", "sep-kef-1-2-p"),
        ("leach-kef-1-1-p", "leach-kef-1-1-p-learning"),
        ("leach-kef-1-2-p", "leach-kef-1-2-p-learning"),
        ("sep-kef-1-1-p", "sep-kef-1-1-p-learning"),
        ("sep-kef-1-2-p", "sep-kef-1-2-p-learning"),
    ]
    failures = []
    lines = []
    for lo, hi in pairs:
        a, b = batch.first_death[lo], batch.first_death[hi]
        assert all(x is not None for x in a + b)
        mean_lo, mean_hi = statistics.mean(a), statistics.mean(b)
        if hi.endswith("-p-learning"):
            # The learning budget is re-derived from the alive count and the
            # alive-mean BS distance, which equal the a-priori inputs until a
            # node dies: through the first death the run is its -p parent's.
            equal = sum(x == y for x, y in zip(a, b))
            ok = equal == len(a)
            lines.append(f"  {lo} ({mean_lo:.1f}) == {hi} ({mean_hi:.1f}): "
                         f"equal on {equal}/{len(a)} seeds "
                         f"-> {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{lo} != {hi}")
            continue
        winfrac = sum(y > x for x, y in zip(a, b)) / len(a)
        ok = mean_hi > mean_lo and winfrac >= 0.70
        lines.append(f"  {lo} ({mean_lo:.1f}) < {hi} ({mean_hi:.1f}): "
                     f"winfrac {winfrac:.2f} -> {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{lo} !< {hi}")
    leach_mean = statistics.mean(batch.first_death["leach"])
    in_band = 800.0 <= leach_mean <= 1200.0
    lines.append(f"  leach mean first death {leach_mean:.1f} in [800, 1200]: "
                 f"{'ok' if in_band else 'FAIL'}")
    if not in_band:
        failures.append("leach band")
    in_time = batch.elapsed < 300.0
    lines.append(f"  batch runtime {batch.elapsed:.1f}s CPU (<300s): "
                 f"{'ok' if in_time else 'FAIL'}")
    if not in_time:
        failures.append("runtime")
    print("\n" + "\n".join(lines))
    report(4, not failures, "; ".join(failures) or "all orderings hold")


@pytest.mark.slow
def test_criterion_5_sep_outlives_leach(batch):
    leach = statistics.mean(batch.first_death["leach"])
    sep = statistics.mean(batch.first_death["sep"])
    report(5, sep >= leach,
           f"sep mean first death {sep:.1f} >= leach {leach:.1f}")


def test_criterion_6_membership_equivalence():
    rng = random.Random(606)
    mismatches = 0
    for _ in range(1000):
        n = rng.randrange(5, 30)
        nodes = [Node(id=i, x=rng.uniform(0, 100), y=rng.uniform(0, 100),
                      tier="normal", initial_energy=0.5)
                 for i in range(n)]
        heads = rng.sample(range(n), rng.randrange(1, min(6, n)))
        net = network_of(nodes)
        for alpha, beta in ((1.0, 1.0), (1.0, 2.0)):
            by_ratio = assign_members(
                net, heads, JoinPolicy(ENERGY_DISTANCE, alpha, beta))
            by_dist = assign_members(net, heads, JoinPolicy(NEAREST))
            if by_ratio != by_dist:
                mismatches += 1
    report(6, mismatches == 0,
           f"{mismatches} mismatches over 1000 equal-energy instances")


@pytest.mark.slow
def test_criterion_7_cap_enforcement(batch):
    ok = not batch.cap_violations
    detail = f"{len(batch.cap_violations)} over-cap rounds across -k variants"
    if batch.cap_violations:
        detail += f"; first: {batch.cap_violations[0]}"
    report(7, ok, detail)


def test_criterion_8_epoch_final_slot_forces_election():
    p = 0.1
    final_slot = 9  # epoch length round(1/p) = 10, last slot index 9
    all_elected = True
    for kind in (PLAIN, ENERGY_WEIGHTED):
        for seed in range(20):
            nodes = [Node(id=i, x=float(i), y=0.0, tier="normal",
                          initial_energy=0.5) for i in range(100)]
            policy = ElectionPolicy(threshold_kind=kind, base_probability=p,
                                    cap=14)
            out = elect_cluster_heads(network_of(nodes), policy, final_slot, None,
                                      random.Random(seed))
            if out.candidates_before_cap != 100:
                all_elected = False
    report(8, all_elected,
           "every eligible full-energy node self-elects before capping "
           "at the epoch's final slot")


@pytest.mark.slow
def test_criterion_9_monotone_series(batch):
    ok = not batch.monotone_violations
    detail = f"{len(batch.monotone_violations)} non-monotone runs"
    if batch.monotone_violations:
        detail += f"; first: {batch.monotone_violations[0]}"
    report(9, ok, detail)
