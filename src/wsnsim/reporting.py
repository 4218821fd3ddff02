"""Lifetime metrics and CSV/JSON serialization of round series."""
from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from struct import Struct
from typing import NamedTuple

CSV_HEADER = ("round,alive,dead_total,dead_normal,dead_advanced,"
              "head_count,residual_energy_j,p_used,kappa_used")
CSV_ROW = "%d,%d,%d,%d,%d,%d,%.9g,%.9g,%.9g"   # a RoundRecord; each float as format(x, ".9g")


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


_ROW = Struct("6q3d")   # a RoundRecord in field order, 72 bytes


class RoundSeries(Sequence):
    """An append-only run of RoundRecords packed into one byte array, 72
    bytes a round: round i at [72i, 72i + 72). It gives back the Python ints
    and the bit-identical doubles it was given."""

    def __init__(self) -> None:
        self._rows = array("b")

    def append(self, record: RoundRecord) -> None:
        self._rows.frombytes(_ROW.pack(*record))   # packed and copied in C

    def __len__(self) -> int:
        return len(self._rows) // _ROW.size

    def __getitem__(self, i: int | slice) -> RoundRecord | list[RoundRecord]:
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return RoundRecord._make(_ROW.unpack_from(self._rows, _ROW.size * range(len(self))[i]))

    def __iter__(self) -> Iterator[RoundRecord]:
        return map(RoundRecord._make, _ROW.iter_unpack(self._rows))

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


def stability_metrics(series: Sequence[RoundRecord]
                      ) -> tuple[int | None, int | None, int | None]:
    """(first, half, last) death rounds: the first round with 1, ceil(N/2)
    and N dead or more, N the first row's alive + dead_total, or None. As in
    every run, `dead_total` must never fall: each is one binary search."""
    n = series[0].alive + series[0].dead_total if series else 0
    at = [bisect_left(series, k, key=attrgetter("dead_total")) for k in (1, math.ceil(n / 2), n)]
    return tuple(series[i].round if i < len(series) else None for i in at)


@dataclass(frozen=True)
class SimulationSummary:
    algorithm: str
    seed: int
    series: Sequence[RoundRecord]
    metadata: dict[str, str]
    # In-memory diagnostics, not serialized: total initial energy and the
    # cumulative consumed energy after each round (conservation checks).
    initial_energy_total: float = 0.0
    consumed_series: Sequence[float] = field(default_factory=list)

    # The round count and the death rounds, read from the rows on each access.
    rounds_executed = property(lambda self: len(self.series))
    first_death_round = property(lambda self: stability_metrics(self.series)[0])
    half_death_round = property(lambda self: stability_metrics(self.series)[1])
    last_death_round = property(lambda self: stability_metrics(self.series)[2])


def round_csv_text(summary: SimulationSummary) -> str:
    return "\n".join([CSV_HEADER, *(CSV_ROW % r for r in summary.series)]) + "\n"


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
