"""Lifetime metrics and CSV/JSON serialization of round series."""
from __future__ import annotations

import json
import math
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import starmap
from operator import add
from pathlib import Path
from struct import Struct
from typing import NamedTuple

CSV_HEADER = ("round,alive,dead_total,dead_normal,dead_advanced,"
              "head_count,residual_energy_j,p_used,kappa_used")


class RoundRecord(NamedTuple):
    round: int
    alive: int
    dead_total: int
    dead_normal: int
    dead_advanced: int
    head_count: int
    residual_energy_total: float
    p_used: float
    kappa_used: float


_COUNTS, _FLOATS = Struct("6q"), Struct("3d")   # a RoundRecord's counts, then its floats


class RoundSeries(Sequence):
    """An append-only run of RoundRecords held as two column arrays, 72 bytes
    a round: round i's six counts at [6i, 6i + 6) of an array('q'), its three
    floats at [3i, 3i + 3) of an array('d'). Both give back the Python ints
    and the bit-identical doubles they were given."""

    def __init__(self) -> None:
        self._counts = array("q")
        self._floats = array("d")

    def append(self, record: RoundRecord) -> None:
        # Packed and copied in C: array.extend would convert item by item.
        self._counts.frombytes(_COUNTS.pack(*record[:6]))
        self._floats.frombytes(_FLOATS.pack(*record[6:]))

    def __len__(self) -> int:
        return len(self._floats) // 3

    def __getitem__(self, i: int) -> RoundRecord:
        n = len(self)
        if not -n <= i < n:
            raise IndexError("round series index out of range")
        i %= n
        return RoundRecord(*_COUNTS.unpack_from(self._counts, _COUNTS.size * i),
                           *_FLOATS.unpack_from(self._floats, _FLOATS.size * i))

    def __iter__(self) -> Iterator[RoundRecord]:
        rows = map(add, _COUNTS.iter_unpack(self._counts), _FLOATS.iter_unpack(self._floats))
        return starmap(RoundRecord, rows)

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


@dataclass
class SimulationSummary:
    algorithm: str
    seed: int
    first_death_round: int | None
    half_death_round: int | None
    last_death_round: int | None
    rounds_executed: int
    series: Sequence[RoundRecord]
    metadata: dict[str, str]
    # In-memory diagnostics, not serialized: total initial energy and the
    # cumulative consumed energy after each round (conservation checks).
    initial_energy_total: float = 0.0
    consumed_series: Sequence[float] = field(default_factory=list)


def stability_metrics(series: Sequence[RoundRecord],
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
