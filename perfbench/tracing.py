"""Span tracing of a wsnsim invocation from outside the package.

The tracer replaces the names each caller imported (for example
`wsnsim.simulator.elect_cluster_heads`, which `run_round` calls) with
wrappers that record one span per call: name, start, end and parent. Spans
stay in memory and are written out when the benchmark ends. The per-node
functions (`tx_energy`, `Node.drain`, ...) are not wrapped, since wrapping
them would distort the run; their cost lands in `run_round`'s self time.

Work the benchmark itself does at a boundary (counting, checking a
membership) runs inside a `bench` span, so it is subtracted from the self
time of the layer that called it and attributed to no layer.
"""
from __future__ import annotations

import importlib
import math
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

import checks

BENCH = "bench"
# (module, attribute, span name) for every wrapped name; the span name is the
# defining module's.
WRAPPED = [
    ("wsnsim.cli", "run_simulation", "simulator.run_simulation"),
    ("wsnsim.cli", "write_round_csv", "reporting.write_round_csv"),
    ("wsnsim.cli", "write_summary_json", "reporting.write_summary_json"),
    ("wsnsim.simulator", "deploy_field", "model.deploy_field"),
    ("wsnsim.simulator", "_geometry_caches", "simulator._geometry_caches"),
    ("wsnsim.simulator", "representative_bs_distance",
     "analysis.representative_bs_distance"),
    ("wsnsim.simulator", "max_clusters", "analysis.max_clusters"),
    ("wsnsim.simulator", "adaptive_probability", "analysis.adaptive_probability"),
    ("wsnsim.simulator", "run_round", "simulator.run_round"),
    ("wsnsim.simulator", "learning_update", "simulator.learning_update"),
    ("wsnsim.simulator", "refresh_epoch", "election.refresh_epoch"),
    ("wsnsim.simulator", "elect_cluster_heads", "election.elect_cluster_heads"),
    ("wsnsim.simulator", "assign_members", "membership.assign_members"),
]
CLI_MAIN = "cli.main"
ANALYSIS = {"analysis.representative_bs_distance", "analysis.max_clusters",
            "analysis.adaptive_probability"}
IN_ROUND = {"simulator.run_round", "simulator.learning_update"}

# Every this-many assign_members calls of a run (from its first round) are
# recomputed by brute force.
BRUTE_FORCE_EVERY = 20


class Tracer:
    def __init__(self, tamper_membership: bool = False) -> None:
        # Moves one member to another head before the first brute-force
        # check, to show that check failing.
        self._tamper = tamper_membership
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.failures: dict = defaultdict(list)
        self.node_counts: list[int] = []
        self._op = None
        self._assign_calls = 0
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, before=None, after=None):
        name_id = self._name_id(name)
        bench_id = self._name_id(BENCH)

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                hook = self._open(bench_id)
                try:
                    after(args, result)
                finally:
                    self._close(hook)
            return result
        return traced

    # Hooks at the layer boundaries.
    def _run_started(self, args) -> None:
        field, _radio, spec, seed = args[:4]
        self._op = (spec.name, seed)
        self._assign_calls = 0
        self.node_counts.append(field.node_count)

    def _elected(self, args, outcome) -> None:
        self.counts["heads"] += len(outcome.heads)
        self.counts["candidates"] += outcome.candidates_before_cap

    def _assigned(self, args, assignment) -> None:
        nodes, heads = args[0], args[1]
        self.counts["pairs"] += len(assignment.members) * len(heads)
        sampled = self._assign_calls % BRUTE_FORCE_EVERY == 0
        if self._tamper and sampled and len(heads) >= 2 and assignment.members:
            self._tamper = False
            members = dict(assignment.members)
            m = min(members)
            members[m] = next(h for h in heads if h != members[m])
            assignment = SimpleNamespace(members=members,
                                         unassigned=assignment.unassigned)
        fails = check_assignment(self._op[0], nodes, heads, assignment, sampled)
        self._assign_calls += 1
        if fails:
            self.failures[self._op].extend(fails[:5])

    def _written(self, args, _result) -> None:
        self.counts["bytes"] += Path(args[1]).stat().st_size

    def install(self) -> None:
        hooks = {"run_simulation": (self._run_started, None),
                 "elect_cluster_heads": (None, self._elected),
                 "assign_members": (None, self._assigned),
                 "write_round_csv": (None, self._written),
                 "write_summary_json": (None, self._written)}
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            before, after = hooks.get(attr, (None, None))
            setattr(module, attr, self.wrap(span, fn, before, after))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        """Spans as TSV: index, name, start_ns, end_ns, parent index."""
        with path.open("w", encoding="utf-8") as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]}"
                          f"\t{self.end[i]}\t{self.parent[i]}\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced invocation, as {name: (value, unit)}."""
        names = [self.names[i] for i in self.name]
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        analysis_ns = 0
        # Set-up of each run: from its start to its first round.
        first_round: dict[int, int] = {}
        deploy_ns = budget_ns = setup_children_ns = 0
        for i, name in enumerate(names):
            self_ns[name] += dur[i] - child[i]
            calls[name] += 1
            p = self.parent[i]
            if name in ANALYSIS and p >= 0 and names[p] in IN_ROUND:
                analysis_ns += dur[i]
            if p >= 0 and names[p] == "simulator.run_simulation":
                if name == "simulator.run_round":
                    first_round.setdefault(p, self.start[i])
                elif p not in first_round:
                    setup_children_ns += dur[i]
                    if name == "model.deploy_field":
                        deploy_ns += dur[i]
                    elif name in ANALYSIS:
                        budget_ns += dur[i]
        setup_ns = sum(first_round.get(i, self.end[i]) - self.start[i]
                       for i, name in enumerate(names)
                       if name == "simulator.run_simulation")
        rounds = calls["simulator.run_round"]
        per_round = 1e-3 / rounds
        loop_self_ns = (self_ns["simulator.run_simulation"]
                        - (setup_ns - setup_children_ns))
        n_max = max(self.node_counts)
        return {
            "simulator.round_self_us": (self_ns["simulator.run_round"] * per_round, "us"),
            "simulator.loop_self_us": (loop_self_ns * per_round, "us"),
            "simulator.learning_us": (self_ns["simulator.learning_update"] * 1e-3
                                      / calls["simulator.learning_update"], "us"),
            "analysis.self_us": (analysis_ns * per_round, "us"),
            "election.elect_us": (self_ns["election.elect_cluster_heads"] * per_round, "us"),
            "election.refresh_us": (self_ns["election.refresh_epoch"] * per_round, "us"),
            "election.heads_per_candidate": (self.counts["heads"]
                                             / self.counts["candidates"], "ratio"),
            "membership.assign_us": (self_ns["membership.assign_members"] * per_round, "us"),
            "membership.ns_per_pair": (self_ns["membership.assign_members"]
                                       / self.counts["pairs"], "ns"),
            "model.deploy_s": (deploy_ns * 1e-9, "s"),
            "simulator.geometry_s": ((setup_ns - deploy_ns - budget_ns) * 1e-9, "s"),
            "simulator.geometry_mb": ((8 * n_max ** 2 + 8 * n_max) / 1e6, "MB-computed"),
            "reporting.write_s": ((self_ns["reporting.write_round_csv"]
                                   + self_ns["reporting.write_summary_json"]) * 1e-9, "s"),
            "reporting.mb_written": (self.counts["bytes"] / 1e6, "MB"),
            "cli.self_s": (self_ns[CLI_MAIN] * 1e-9, "s"),
        }


def check_assignment(algo: str, nodes, heads, assignment, brute_force: bool) -> list[str]:
    """Heads are alive, distinct and never members; every alive non-head is
    placed; on sampled rounds each member's head is recomputed by brute force."""
    fails = []
    by_id = {n.id: n for n in nodes}
    head_list = list(heads)
    head_set = set(head_list)
    if len(head_set) != len(head_list):
        fails.append("membership: heads not distinct")
    if any(not by_id[h].alive for h in head_list):
        fails.append("membership: a dead node is head")
    members = assignment.members
    if any(h in members for h in head_list):
        fails.append("membership: a head is a member")
    others = {n.id for n in nodes if n.alive} - head_set
    placed = set(members) if head_list else set(assignment.unassigned)
    if placed != others or (head_list and assignment.unassigned) \
            or (not head_list and members):
        fails.append("membership: alive non-heads not placed exactly once")
    if not brute_force or not head_list:
        return fails
    kind, alpha, beta = checks.join_rule(algo)
    ordered = sorted(head_list)
    hx = [by_id[h].x for h in ordered]
    hy = [by_id[h].y for h in ordered]
    he = [by_id[h].residual_energy for h in ordered]

    def score(k: int, mx: float, my: float) -> float:
        d = math.hypot(mx - hx[k], my - hy[k])
        if kind == "nearest":
            return -d
        if d <= 0:
            return math.inf
        return he[k] ** alpha / max(d, 1e-12) ** beta

    pos = {h: k for k, h in enumerate(ordered)}
    for m, h in members.items():
        node = by_id[m]
        best, best_score = 0, -math.inf
        for k in range(len(ordered)):
            s = score(k, node.x, node.y)
            if s > best_score:      # strict: ties keep the lower head id
                best, best_score = k, s
        if ordered[best] != h:
            got = score(pos[h], node.x, node.y) if h in pos else -math.inf
            tie = got == best_score
            # The program computes in numpy, so a different head within
            # rounding of the best is accepted; an exact tie must go to the
            # lower id.
            close = abs(got - best_score) <= 1e-12 * abs(best_score)
            if (tie and pos[h] > best) or not (tie or close):
                fails.append(f"membership: member {m} joined {h}, "
                             f"brute force gives {ordered[best]}")
                break
    return fails
