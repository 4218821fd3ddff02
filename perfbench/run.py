"""wsnsim benchmark: the lifetime study as users run it, and a large field.

Usage (from the repository root):

    python3 perfbench/run.py --workload lifetime-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20 --trace 0   # every workload

Each workload runs `wsnsim.cli.main` on a config file generated from the
seed, in this single-threaded process, against `src/` (the package is not
installed). An operation is one (algorithm, seed) run; it fails if the
invocation raises or exits non-zero, or if any output check fails. With
`--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` each untraced invocation is followed by a traced
one, whose bytes must equal it, and the object carries the per-layer
metrics. See README.md beside this file.
"""
from __future__ import annotations

import os

# One thread: numpy's BLAS pools must not start.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from checks import Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

ALGORITHMS = (
    "leach", "leach-kp", "leach-kep",
    "leach-kef-1-1", "leach-kef-1-1-p", "leach-kef-1-1-p-learning",
    "leach-kef-1-2", "leach-kef-1-2-p", "leach-kef-1-2-p-learning",
    "sep", "sep-kp", "sep-kep",
    "sep-kef-1-1", "sep-kef-1-1-p", "sep-kef-1-1-p-learning",
    "sep-kef-1-2", "sep-kef-1-2-p", "sep-kef-1-2-p-learning",
)
WORKLOADS = ("lifetime-batch", "large-field")
# Zero-round invocations (setup_s) made before each timed invocation and after
# the last, so that they sample the same stretch of time as the timed ones.
SETUP_BURST = {"lifetime-batch": 6, "large-field": 1}


def make_workload(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "lifetime-batch":
        # Two fields, every algorithm on each, to extinction or 3000 rounds.
        return Workload(name, ALGORITHMS, tuple(rng.sample(range(1_000_000), 2)),
                        nodes=100, max_rounds=3000)
    if name == "large-field":
        # ROADMAP's scaling convention: more nodes on the same 100 m square.
        return Workload(name, ("leach", "sep-kef-1-2-p-learning"),
                        (rng.randrange(1_000_000),), nodes=5000, max_rounds=40)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Invocation:
    wall: float
    cpu: float
    summaries: dict
    error: str | None


@dataclass
class Tally:
    attempted: int = 0
    failures: dict = field(default_factory=dict)   # (invocation, op) -> messages

    def add(self, invocation: str, wl: Workload, failed: dict) -> None:
        self.attempted += len(wl.ops)
        for op, messages in failed.items():
            self.failures[(invocation, op)] = messages


def invoke(wl: Workload, out_dir: Path, zero_rounds: bool = False,
           tracer=None) -> Invocation:
    """One `wsnsim.cli.main` call on the workload's config, writing to out_dir."""
    import wsnsim.cli as cli
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    config = out_dir / "run.cfg"
    config.write_text(wl.config_text(out_dir), encoding="utf-8")
    argv = ["--config", str(config)] + (["--rounds", "0"] if zero_rounds else [])

    summaries: dict = {}
    real = cli.run_simulation

    def capture(*args, **kwargs):
        summary = real(*args, **kwargs)
        summaries[(summary.algorithm, summary.seed)] = summary
        return summary

    cli.run_simulation = capture
    error = None
    try:
        if tracer is not None:
            tracer.install()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is not None:
                code = tracer.call("cli.main", cli.main, argv)
            else:
                code = cli.main(argv)
            if code != 0:
                error = f"wsnsim exited with {code}"
        except Exception as exc:  # every op of a crashed invocation fails
            error = f"wsnsim raised {exc!r}"
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
        cli.run_simulation = real
    return Invocation(wall, cpu, summaries, error)


def check_outputs(wl: Workload, inv: Invocation, out_dir: Path) -> tuple[dict, int]:
    if inv.error is not None:
        return {op: [f"run: {inv.error}"] for op in wl.ops}, 0
    return checks.check_invocation(wl, out_dir, inv.summaries)


def compare_bytes(wl: Workload, a: Path, b: Path) -> dict:
    """Ops whose CSV or summary.json entry differs between two invocations."""
    def read(path: Path) -> bytes | None:
        try:
            return path.read_bytes()
        except OSError:
            return None

    failed = {}
    json_a = read(a / "summary.json")
    same_json = json_a is not None and json_a == read(b / "summary.json")
    for algo, seed in wl.ops:
        rel = Path(algo) / f"seed-{seed}.csv"
        csv_a = read(a / rel)
        if csv_a is None or csv_a != read(b / rel):
            failed[(algo, seed)] = ["trace: CSV bytes differ from the untraced run"]
        elif not same_json:
            failed[(algo, seed)] = ["trace: summary.json bytes differ from the untraced run"]
    return failed


def measure(wl: Workload, seconds: float, corrupt: str | None, tally: Tally) -> dict:
    """End-to-end metrics from untraced invocations."""
    work = RUNS / wl.name
    setup = []

    def set_up_burst(k: int) -> None:
        for j in range(SETUP_BURST[wl.name]):
            inv = invoke(wl, work / "setup", zero_rounds=True)
            failed = ({op: [f"run: {inv.error}"] for op in wl.ops} if inv.error
                      else checks.check_zero_round(wl, work / "setup"))
            tally.add(f"setup-{k}-{j}", wl, failed)
            setup.append(inv.wall)

    reps = []
    start = time.perf_counter()
    for k in itertools.count():
        set_up_burst(k)
        inv = invoke(wl, work / "rep")
        if corrupt and k == 0:
            print(f"corrupting {corrupt} in {checks.corrupt(corrupt, wl, work / 'rep')}",
                  file=sys.stderr)
        failed, rounds = check_outputs(wl, inv, work / "rep")
        tally.add(f"rep-{k}", wl, failed)
        if rounds and inv.error is None:
            reps.append((rounds, inv.wall, inv.cpu))
        del inv     # its summaries must not stay alive into the next invocation
        if time.perf_counter() - start >= seconds:
            set_up_burst(k + 1)
            break
    print(f"{wl.name}: {len(reps)} timed invocations, rounds "
          f"{[r[0] for r in reps]}, wall s {[round(r[1], 3) for r in reps]}, "
          f"setup s {[round(s, 4) for s in setup]}", file=sys.stderr)
    if not reps:
        return {}
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "rounds_per_s": (statistics.median(r / w for r, w, _ in reps), "rounds/s"),
        "cpu_us_per_round": (statistics.median(c / r * 1e6 for r, _, c in reps), "us"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
    }


def measure_traced(wl: Workload, seconds: float, corrupt: str | None,
                   tally: Tally) -> dict:
    """Per-layer metrics: untraced and traced invocations in pairs."""
    from tracing import Tracer
    work = RUNS / wl.name
    layers = []
    tracer = None
    start = time.perf_counter()
    for k in itertools.count():
        plain = invoke(wl, work / "untraced")
        failed, _ = check_outputs(wl, plain, work / "untraced")
        tally.add(f"untraced-{k}", wl, failed)

        tracer = Tracer(tamper_membership=corrupt == "membership" and k == 0)
        traced = invoke(wl, work / "traced", tracer=tracer)
        if corrupt == "bytes" and k == 0:
            print(f"corrupting bytes in {checks.corrupt(corrupt, wl, work / 'traced')}",
                  file=sys.stderr)
        failed = ({op: [f"run: {traced.error}"] for op in wl.ops} if traced.error
                  else compare_bytes(wl, work / "untraced", work / "traced"))
        for op, messages in tracer.failures.items():
            failed.setdefault(op, []).extend(messages)
        tally.add(f"traced-{k}", wl, failed)
        if traced.error is None:
            layers.append(tracer.layer_metrics())
        print(f"{wl.name}: untraced {plain.wall:.3f} s, traced {traced.wall:.3f} s, "
              f"tracing overhead {traced.wall - plain.wall:.3f} s "
              f"({(traced.wall / plain.wall - 1) * 100:.1f} %)")
        if time.perf_counter() - start >= seconds:
            break
    if tracer is not None:
        tracer.write(work / "spans.tsv")
    if not layers:
        return {}
    return {name: (statistics.median(m[name][0] for m in layers), unit)
            for name, (_, unit) in layers[0].items()}


def run_all() -> int:
    """Every workload, one after the other, each in a fresh process."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, *sys.argv[1:], "--workload", name]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="workload to run (default: every workload, each in its own process)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=checks.CORRUPTIONS + checks.TRACE_CORRUPTIONS,
                        help="corrupt one run's outputs before the checks (shows a check failing)")
    args = parser.parse_args()
    if args.corrupt and (args.corrupt in checks.TRACE_CORRUPTIONS) != bool(args.trace):
        parser.error(f"--corrupt {args.corrupt} needs --trace "
                     f"{int(args.corrupt in checks.TRACE_CORRUPTIONS)}")

    if not (SRC / "wsnsim" / "cli.py").is_file():
        print(f"perfbench: no wsnsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all()
    sys.path.insert(0, str(SRC))

    wl = make_workload(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        metrics = measure_traced(wl, args.seconds, args.corrupt, tally)
    else:
        metrics = measure(wl, args.seconds, args.corrupt, tally)

    for (invocation, (algo, seed)), messages in sorted(tally.failures.items()):
        for message in messages:
            print(f"FAILED {invocation} {algo} seed {seed}: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    failed = len(tally.failures)
    print(f"{wl.name}: operations attempted {tally.attempted}, failed {failed}")
    print(json.dumps({
        "correct": bool(metrics),
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if metrics and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
