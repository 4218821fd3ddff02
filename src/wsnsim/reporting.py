"""Lifetime metrics and CSV/JSON serialization of round series."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .simulator import RoundRecord

CSV_HEADER = ("round,alive,dead_total,dead_normal,dead_advanced,"
              "head_count,residual_energy_j,p_used,kappa_used")


@dataclass
class SimulationSummary:
    algorithm: str
    seed: int
    first_death_round: int | None
    half_death_round: int | None
    last_death_round: int | None
    rounds_executed: int
    series: list["RoundRecord"]
    metadata: dict[str, str]
    # In-memory diagnostics, not serialized: total initial energy and the
    # cumulative consumed energy after each round (conservation checks).
    initial_energy_total: float = 0.0
    consumed_series: list[float] = field(default_factory=list)


def stability_metrics(series: list["RoundRecord"],
                      n: int) -> tuple[int | None, int | None, int | None]:
    """(first, half, last) death rounds; None where the event never happens.

    first: earliest round with any death; half: earliest with at least
    ceil(n/2) dead; last: earliest with the whole population dead.
    """
    first = half = last = None
    half_count = math.ceil(n / 2)
    for rec in series:
        if first is None and rec.dead_total >= 1:
            first = rec.round
        if half is None and rec.dead_total >= half_count:
            half = rec.round
        if last is None and rec.dead_total >= n:
            last = rec.round
            break
    return first, half, last


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def round_csv_text(summary: SimulationSummary) -> str:
    lines = [CSV_HEADER]
    for r in summary.series:
        lines.append(f"{r.round},{r.alive},{r.dead_total},{r.dead_normal},"
                     f"{r.dead_advanced},{r.head_count},"
                     f"{_fmt(r.residual_energy_total)},{_fmt(r.p_used)},"
                     f"{_fmt(r.kappa_used)}")
    return "\n".join(lines) + "\n"


def _write(text: str, sink: str | Path, what: str) -> None:
    sink = Path(sink)
    try:
        sink.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"failed to write {what} to {sink}: {exc}") from exc


def write_round_csv(summary: SimulationSummary, sink: str | Path) -> None:
    _write(round_csv_text(summary), sink, "round CSV")


_JSON_FIELDS = ("algorithm", "seed", "first_death_round", "half_death_round",
                "last_death_round", "rounds_executed", "metadata")


def summary_json_text(summaries: list[SimulationSummary]) -> str:
    payload = [{name: getattr(s, name) for name in _JSON_FIELDS} for s in summaries]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_summary_json(summaries: list[SimulationSummary], sink: str | Path) -> None:
    _write(summary_json_text(summaries), sink, "summary JSON")
