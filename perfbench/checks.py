"""Output checks for the wsnsim benchmark.

Every check is computed from the workload's config and from properties the
method must have, never from stored copies of earlier outputs. The program's
in-memory summaries (captured from `wsnsim.cli.run_simulation`) are used only
for what the CSV does not carry: the consumed-energy series and the
full-precision first-round budget.
"""
from __future__ import annotations

import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

CSV_HEADER = ("round,alive,dead_total,dead_normal,dead_advanced,"
              "head_count,residual_energy_j,p_used,kappa_used")

# Relative error of a value printed with 9 significant digits, twice over
# (both sides of a comparison come from the CSV).
CSV_REL = 1e-8


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class Workload:
    """A generated wsnsim configuration; the program sees only its config file."""

    name: str
    algorithms: tuple[str, ...]
    seeds: tuple[int, ...]
    nodes: int
    max_rounds: int
    side: float = 100.0
    bs: tuple[float, float] = (50.0, 50.0)
    p: float = 0.1
    advanced_fraction: float = 0.1
    advanced_energy_factor: float = 1.0
    initial_energy: float = 0.5
    elec: float = 50e-9
    fs_amp: float = 10e-12
    mp_amp: float = 0.0013e-12
    aggregation: float = 5e-9
    packet_bits: int = 4000

    def config_text(self, output_dir: Path) -> str:
        return "\n".join([
            f"side = {self.side!r}", f"nodes = {self.nodes}",
            f"bs_x = {self.bs[0]!r}", f"bs_y = {self.bs[1]!r}",
            f"p = {self.p!r}", f"advanced_fraction = {self.advanced_fraction!r}",
            f"advanced_energy_factor = {self.advanced_energy_factor!r}",
            f"initial_energy = {self.initial_energy!r}",
            f"max_rounds = {self.max_rounds}",
            f"elec_energy_per_bit = {self.elec!r}", f"fs_amp = {self.fs_amp!r}",
            f"mp_amp = {self.mp_amp!r}",
            f"aggregation_energy_per_bit = {self.aggregation!r}",
            f"packet_bits = {self.packet_bits}",
            f"algorithms = {', '.join(self.algorithms)}",
            f"seeds = {', '.join(map(str, self.seeds))}",
            f"output_dir = {output_dir}", "formats = csv, json", ""])

    @property
    def ops(self) -> list[tuple[str, int]]:
        return [(a, s) for a in self.algorithms for s in self.seeds]

    @property
    def advanced_count(self) -> int:
        return round_half_up(self.advanced_fraction * self.nodes)

    @property
    def initial_total(self) -> float:
        n_adv = self.advanced_count
        e0 = self.initial_energy
        return (self.nodes - n_adv) * e0 + n_adv * e0 * (1.0 + self.advanced_energy_factor)

    @cached_property
    def kappa0(self) -> dict[int, float]:
        """The closed-form first-round budget of each field."""
        return {s: closed_form_kappa(self, mean_bs_distance(self, s)) for s in self.seeds}


# What each registry name enables, read from the naming scheme documented in
# the project README, not from the program's registry.
def is_capped(algo: str) -> bool:
    return algo not in ("leach", "sep")


def is_adaptive(algo: str) -> bool:
    return algo.endswith(("-kp", "-kep", "-p", "-p-learning"))


def is_learning(algo: str) -> bool:
    return algo.endswith("-p-learning")


def join_rule(algo: str) -> tuple[str, float, float]:
    """('nearest', 0, 0) or ('energy_distance', alpha, beta) from a -kef-a-b name."""
    parts = algo.split("-")
    if "kef" in parts:
        i = parts.index("kef")
        return "energy_distance", float(parts[i + 1]), float(parts[i + 2])
    return "nearest", 0.0, 0.0


def mean_bs_distance(wl: Workload, seed: int) -> float:
    """Mean node-to-BS distance of the field the program deploys for `seed`.

    Positions are drawn in node-id order, x then y, uniform on [0, side],
    from `random.Random(seed)`, before any other draw.
    """
    rng = random.Random(seed)
    bx, by = wl.bs
    total = 0.0
    for _ in range(wl.nodes):
        x = rng.uniform(0.0, wl.side)
        y = rng.uniform(0.0, wl.side)
        total += math.hypot(x - bx, y - by)
    return total / wl.nodes


def closed_form_kappa(wl: Workload, d_mean: float) -> float:
    """(M / d^2) * sqrt(N * eps_fs / (2 * pi * eps_mp))."""
    return (wl.side / d_mean ** 2) * math.sqrt(
        wl.nodes * wl.fs_amp / (2 * math.pi * wl.mp_amp))


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _read_csv(path: Path) -> list[tuple]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad CSV header in {path.name}")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 9:
            raise ValueError(f"bad CSV row {line!r}")
        rows.append((int(f[0]), int(f[1]), int(f[2]), int(f[3]), int(f[4]),
                     int(f[5]), float(f[6]), float(f[7]), float(f[8])))
    return rows


def check_op(wl: Workload, algo: str, seed: int, rows: list[tuple],
             entry: dict, summary, kappa0: float) -> list[str]:
    """All checks of one (algorithm, seed) run; returns 'check: message' strings."""
    fails: list[str] = []
    n = wl.nodes
    n_adv = wl.advanced_count
    e_total = wl.initial_total
    floor_per_node = wl.packet_bits * wl.elec

    def fail(check: str, msg: str) -> None:
        if len(fails) < 20:
            fails.append(f"{check}: {msg}")

    # Row accounting.
    for i, r in enumerate(rows):
        t, alive, dead, dn, da = r[:5]
        if t != i:
            fail("rows", f"row {i} has round {t}")
            break
        if alive + dead != n or dn + da != dead or not 0 <= da <= n_adv \
                or not 0 <= dn <= n - n_adv:
            fail("rows", f"round {t}: alive {alive}, dead {dead} = {dn} + {da}")
    if len(rows) > wl.max_rounds:
        fail("rows", f"{len(rows)} rows > max_rounds {wl.max_rounds}")
    if rows and rows[-1][1] > 0 and len(rows) != wl.max_rounds:
        fail("rows", f"stopped at {len(rows)} rounds with {rows[-1][1]} alive")
    if any(r[1] == 0 for r in rows[:-1]):
        fail("rows", "rounds continue after extinction")

    # Lifetimes, recomputed from the dead_total column.
    half = math.ceil(n / 2)
    first = next((r[0] for r in rows if r[2] >= 1), None)
    half_r = next((r[0] for r in rows if r[2] >= half), None)
    last = next((r[0] for r in rows if r[2] >= n), None)
    expect = {"algorithm": algo, "seed": seed, "first_death_round": first,
              "half_death_round": half_r, "last_death_round": last,
              "rounds_executed": len(rows)}
    for key, value in expect.items():
        if entry.get(key) != value:
            fail("lifetimes", f"summary {key} = {entry.get(key)!r}, CSV gives {value!r}")

    # Monotone series.
    for prev, cur in zip(rows, rows[1:]):
        if cur[2] < prev[2]:
            fail("monotone", f"round {cur[0]}: deaths fall {prev[2]} -> {cur[2]}")
        if cur[6] > prev[6]:
            fail("monotone", f"round {cur[0]}: residual rises {prev[6]} -> {cur[6]}")

    # Energy lower bound: every node alive after a round transmitted in it.
    prev_res = e_total
    for r in rows:
        drop = prev_res - r[6]
        need = floor_per_node * r[1]
        if drop < need - 5e-9 * (prev_res + r[6]):
            fail("energy", f"round {r[0]}: residual fell {drop!r} J < {need!r} J")
        prev_res = r[6]
    if summary is None:
        fail("energy", "no in-memory summary captured")
    else:
        if not _rel_close(summary.initial_energy_total, e_total, 1e-12):
            fail("energy", f"initial total {summary.initial_energy_total!r} != {e_total!r}")
        if len(summary.series) != len(rows) or len(summary.consumed_series) != len(rows):
            fail("energy", "in-memory series length differs from the CSV")
        else:
            for rec, consumed, r in zip(summary.series, summary.consumed_series, rows):
                if abs(e_total - consumed - rec.residual_energy_total) > 1e-9 * e_total:
                    fail("energy", f"round {rec.round}: not conserved")
                if not _rel_close(rec.residual_energy_total, r[6], CSV_REL):
                    fail("energy", f"round {rec.round}: CSV residual {r[6]!r} != "
                                   f"{rec.residual_energy_total!r}")

    # Cap.
    if is_capped(algo):
        for r in rows:
            cap = max(1, round_half_up(r[8] * (1 + CSV_REL)))
            if r[5] > cap:
                fail("cap", f"round {r[0]}: {r[5]} heads > cap {cap}")

    # Adaptation rule.
    for i, r in enumerate(rows):
        if i == 0 or not is_adaptive(algo):
            ok = r[7] == wl.p
            want = wl.p
        else:
            want = min(1.0, r[8] / rows[i - 1][1])
            ok = _rel_close(r[7], want, 2 * CSV_REL)
        if not ok:
            fail("adapt", f"round {r[0]}: p_used {r[7]!r}, expected {want!r}")

    # Closed-form budget.
    if rows:
        if not _rel_close(rows[0][8], kappa0, CSV_REL):
            fail("budget", f"CSV kappa_used[0] {rows[0][8]!r} != {kappa0!r}")
        if summary is not None and summary.series and \
                not _rel_close(summary.series[0].kappa_used, kappa0, 1e-12):
            fail("budget", f"kappa_used[0] {summary.series[0].kappa_used!r} != {kappa0!r}")
        if not is_learning(algo) and any(r[8] != rows[0][8] for r in rows):
            fail("budget", "non-learning budget changes between rounds")
    return fails


def check_invocation(wl: Workload, out_dir: Path, summaries: dict) -> tuple[dict, int]:
    """Check one program invocation's outputs.

    Returns ({op: [failures]} for failed ops, rounds counted from the CSVs).
    """
    failures: dict = defaultdict(list)
    try:
        entries = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return {op: [f"rows: summary.json unreadable: {exc}"] for op in wl.ops}, 0
    by_op = defaultdict(list)
    for e in entries:
        by_op[(e.get("algorithm"), e.get("seed"))].append(e)
    if len(entries) != len(wl.ops):
        for op in wl.ops:
            failures[op].append(f"rows: summary.json has {len(entries)} entries, "
                                f"expected {len(wl.ops)}")
    rounds = 0
    for algo, seed in wl.ops:
        op = (algo, seed)
        if len(by_op[op]) != 1:
            failures[op].append(f"rows: {len(by_op[op])} summary entries")
            continue
        try:
            rows = _read_csv(out_dir / algo / f"seed-{seed}.csv")
        except (OSError, ValueError) as exc:
            failures[op].append(f"rows: {exc}")
            continue
        rounds += len(rows)
        fails = check_op(wl, algo, seed, rows, by_op[op][0], summaries.get(op),
                         wl.kappa0[seed])
        if fails:
            failures[op].extend(fails)
    return dict(failures), rounds


# Corruptions that show each check's failure; applied to the outputs of one
# invocation before they are checked. Each edits one (algorithm, seed) run.
def _target(wl: Workload) -> tuple[str, int]:
    algo = "leach-kp" if "leach-kp" in wl.algorithms else wl.algorithms[-1]
    return algo, wl.seeds[0]


def _edit_rows(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n",
                    encoding="utf-8")


def _corrupt_cap(rows):
    rows[3][5] = str(max(1, round_half_up(float(rows[3][8]))) + 1)


def _corrupt_residual(rows):
    rows[10][6] = repr(float(rows[9][6]) + 1.0)


def _corrupt_gap(rows):
    del rows[5]


def _corrupt_deaths(rows):
    i = next(i for i, r in enumerate(rows) if int(r[2]) >= 2) + 1
    r = rows[i]
    normal = int(r[3]) > 0
    r[1], r[2] = str(int(r[1]) + 1), str(int(r[2]) - 1)
    r[3 if normal else 4] = str(int(r[3 if normal else 4]) - 1)


def _corrupt_p_used(rows):
    rows[5][7] = repr(float(rows[5][7]) * 1.01)


def _corrupt_kappa(rows):
    rows[0][8] = repr(float(rows[0][8]) * 1.01)


CSV_CORRUPTIONS = {
    "cap": _corrupt_cap, "residual": _corrupt_residual, "gap": _corrupt_gap,
    "deaths": _corrupt_deaths, "p_used": _corrupt_p_used, "kappa": _corrupt_kappa,
}
CORRUPTIONS = sorted(CSV_CORRUPTIONS) + ["lifetime"]
# These act on the traced run: one member moved to another head before the
# brute-force check, and one byte of a traced CSV changed.
TRACE_CORRUPTIONS = ["membership", "bytes"]


def corrupt(kind: str, wl: Workload, out_dir: Path) -> tuple[str, int]:
    algo, seed = _target(wl)
    if kind == "bytes":
        path = out_dir / algo / f"seed-{seed}.csv"
        data = bytearray(path.read_bytes())
        data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
        path.write_bytes(bytes(data))
    elif kind == "lifetime":
        path = out_dir / "summary.json"
        entries = json.loads(path.read_text(encoding="utf-8"))
        for e in entries:
            if (e["algorithm"], e["seed"]) == (algo, seed):
                e["first_death_round"] = (e["first_death_round"] or 0) + 1
        path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    else:
        _edit_rows(out_dir / algo / f"seed-{seed}.csv", CSV_CORRUPTIONS[kind])
    return algo, seed


def check_zero_round(wl: Workload, out_dir: Path) -> dict:
    """A zero-round invocation writes a header-only CSV and an empty-life entry."""
    failures: dict = defaultdict(list)
    try:
        entries = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return {op: [f"rows: summary.json unreadable: {exc}"] for op in wl.ops}
    by_op = {(e.get("algorithm"), e.get("seed")): e for e in entries}
    for algo, seed in wl.ops:
        e = by_op.get((algo, seed))
        if e is None or e.get("rounds_executed") != 0 or e.get("first_death_round") is not None:
            failures[(algo, seed)].append(f"rows: zero-round summary entry {e!r}")
        try:
            text = (out_dir / algo / f"seed-{seed}.csv").read_text(encoding="utf-8")
        except OSError as exc:
            failures[(algo, seed)].append(f"rows: {exc}")
            continue
        if text != CSV_HEADER + "\n":
            failures[(algo, seed)].append("rows: zero-round CSV is not header-only")
    return dict(failures)
