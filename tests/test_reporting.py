import json
import math
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnsim import (FieldConfig, RadioParams, RoundRecord, SimulationSummary,
                    run_simulation, write_round_csv, write_summary_json)
from wsnsim.reporting import (CSV_HEADER, CSV_ROW, RoundSeries, round_csv_text,
                              stability_metrics, summary_json_text)


def rec(round_no, dead, alive=None, n=100):
    return RoundRecord(round=round_no, alive=alive if alive is not None else n - dead,
                       dead_total=dead, dead_normal=dead, dead_advanced=0,
                       head_count=5, residual_energy_total=55.0 - round_no * 0.01,
                       p_used=0.1, kappa_used=14.0)


def summary(series):
    return SimulationSummary(algorithm="leach", seed=1, series=series,
                             metadata={"rng_algorithm": "python-random-mt19937",
                                       "config_hash": "abc"})


def series_of(records):
    series = RoundSeries()
    for r in records:
        series.append(r)
    return series


# Doubles at the edges of the format: signed zero, the least subnormal, the
# largest finite, infinity and a NaN (equal to itself only by its bytes).
EDGE_FLOATS = (-0.0, 5e-324, sys.float_info.max, math.inf, -math.inf, math.nan)


class TestRoundSeries:
    RECORDS = [rec(0, 0), rec(1, 3), RoundRecord(2, 0, 100, 97, 3, 0, 0.0, 1.0, 2.5e-300)]

    def test_len_and_truth(self):
        assert len(RoundSeries()) == 0 and not RoundSeries()
        assert len(series_of(self.RECORDS)) == 3 and series_of(self.RECORDS)

    def test_index_from_either_end(self):
        series = series_of(self.RECORDS)
        for i, r in enumerate(self.RECORDS):
            assert series[i] == r and series[i - 3] == r
            assert type(series[i]) is RoundRecord
        assert series[-1].alive == 0 and series[0].kappa_used == 14.0

    @pytest.mark.parametrize("index", [3, -4, 100])
    def test_index_past_either_end_raises(self, index):
        with pytest.raises(IndexError):
            series_of(self.RECORDS)[index]

    @pytest.mark.parametrize("s", [slice(1, 3), slice(None), slice(None, None, -1),
                                   slice(-2, None), slice(None, None, -2), slice(5, 1, -1),
                                   slice(-1, -6, -3), slice(3, 3), slice(-100, 100, 2)],
                             ids=repr)
    def test_slice_is_a_list_of_records(self, s):
        records = [rec(r, r) for r in range(7)]
        series = series_of(records)
        assert series[s] == list(series)[s] == records[s]
        assert type(series[s]) is list

    def test_iterates_records_in_order(self):
        records = list(series_of(self.RECORDS))
        assert records == self.RECORDS
        assert all(type(r) is RoundRecord for r in records)
        assert [type(v) for v in records[2]] == [int] * 6 + [float] * 3

    @pytest.mark.parametrize("x", EDGE_FLOATS)
    def test_edge_doubles_round_trip_bit_for_bit(self, x):
        record = RoundRecord(7, 1, 2, 3, 4, 5, x, x, x)
        series = series_of([rec(0, 0), record])
        for back in (series[1], series[-1], list(series)[1]):
            assert back[:6] == record[:6]
            assert [struct.pack("<d", v) for v in back[6:]] == [struct.pack("<d", x)] * 3

    def test_equality(self):
        series = series_of(self.RECORDS)
        assert series == self.RECORDS and self.RECORDS == series
        assert series == series_of(self.RECORDS)
        assert series != self.RECORDS[:2] and series != series_of(self.RECORDS[1:])
        assert series != series_of(self.RECORDS[:2] + [rec(2, 4)])
        assert RoundSeries() == [] and RoundSeries() == RoundSeries()

    def test_readers_take_a_series_or_a_list(self):
        series = series_of(self.RECORDS)
        assert round_csv_text(summary(series)) == round_csv_text(summary(self.RECORDS))
        assert stability_metrics(series) == stability_metrics(self.RECORDS) \
            == (1, 2, 2)


@st.composite
def monotone_runs(draw):
    """(records, n): dead_total never falls, stays at n once reached, and
    may plateau or jump past ceil(n/2) and n in one round."""
    n = draw(st.integers(1, 25))
    steps = draw(st.lists(st.one_of(st.just(0), st.integers(0, 3), st.integers(0, n)),
                          max_size=40))
    dead, records = 0, []
    for r, step in enumerate(steps):
        dead = min(n, dead + step)
        records.append(rec(r, dead, n=n))
    return records, n


class TestStabilityMetrics:
    def test_no_deaths(self):
        series = [rec(r, 0) for r in range(10)]
        assert stability_metrics(series) == stability_metrics([]) == (None, None, None)

    def test_jump_sets_first(self):
        series = [rec(r, 0) for r in range(7)] + [rec(7, 3)]
        assert stability_metrics(series) == (7, None, None)

    def test_half_threshold(self):
        series = [rec(r, 0) for r in range(1399)] + [rec(1399, 49), rec(1400, 50)]
        first, half, last = stability_metrics(series)
        assert (first, half, last) == (1399, 1400, None)

    def test_half_uses_ceiling_for_odd_population(self):
        series = [rec(0, 4, n=9), rec(1, 5, n=9)]
        assert stability_metrics(series)[1] == 1

    def test_full_extinction(self):
        series = [rec(0, 0), rec(1, 40), rec(2, 100, alive=0)]
        assert stability_metrics(series) == (1, 2, 2)

    def test_invariant_to_post_extinction_rounds(self):
        series = [rec(0, 0), rec(1, 100, alive=0)]
        extended = series + [rec(2, 100, alive=0), rec(3, 100, alive=0)]
        assert stability_metrics(series) == stability_metrics(extended)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(monotone_runs())
    def test_equals_the_linear_rule(self, run):
        # The earliest round with at least k dead, found by a scan of every row.
        records, n = run

        def earliest(k):
            return next((r.round for r in records if r.dead_total >= k), None)

        expected = (earliest(1), earliest(math.ceil(n / 2)), earliest(n))
        assert stability_metrics(records) == stability_metrics(series_of(records)) \
            == expected
        # A summary reads its round count and death rounds from its own rows.
        s = SimulationSummary("leach", 0, series_of(records), {})
        assert (s.first_death_round, s.half_death_round, s.last_death_round) == expected
        assert s.rounds_executed == len(records)


class TestRoundCsv:
    def test_header_exact(self):
        text = round_csv_text(summary([]))
        assert text == CSV_HEADER + "\n"
        assert CSV_HEADER == ("round,alive,dead_total,dead_normal,dead_advanced,"
                              "head_count,residual_energy_j,p_used,kappa_used")

    def test_row_format(self):
        text = round_csv_text(summary([rec(0, 0)]))
        assert text.splitlines()[1] == "0,100,0,0,0,5,55,0.1,14"

    def test_row_format_header_and_record_have_nine_fields(self):
        assert CSV_ROW.count("%") == len(RoundRecord._fields) == len(CSV_HEADER.split(",")) == 9

    @pytest.mark.parametrize("x", EDGE_FLOATS)
    def test_edge_doubles_print_as_nine_significant_digits(self, x):
        r = RoundRecord(1, 2, 3, 4, 5, 6, x, -x, x)
        row = round_csv_text(summary(series_of([r]))).splitlines()[1]
        assert row == ",".join(["1,2,3,4,5,6", *(format(v, ".9g") for v in (x, -x, x))])

    def test_nine_significant_digits(self):
        r = RoundRecord(round=0, alive=100, dead_total=0, dead_normal=0,
                        dead_advanced=0, head_count=3,
                        residual_energy_total=54.123456789123,
                        p_used=0.123456789123, kappa_used=14.0)
        row = round_csv_text(summary([r])).splitlines()[1]
        assert row == "0,100,0,0,0,3,54.1234568,0.123456789,14"

    def test_round_trip_at_printed_precision(self):
        field = FieldConfig(node_count=30, max_rounds=120)
        s = run_simulation(field, RadioParams(), "sep-kp", 3)
        lines = round_csv_text(s).splitlines()
        assert lines[0] == CSV_HEADER
        for line, r in zip(lines[1:], s.series):
            parts = line.split(",")
            assert [int(p) for p in parts[:6]] == [
                r.round, r.alive, r.dead_total, r.dead_normal,
                r.dead_advanced, r.head_count]
            for text, value in zip(parts[6:],
                                   (r.residual_energy_total, r.p_used,
                                    r.kappa_used)):
                assert float(text) == float(f"{value:.9g}")

    def test_serialization_deterministic(self, tmp_path):
        field = FieldConfig(node_count=20, max_rounds=50)
        s = run_simulation(field, RadioParams(), "leach", 4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_round_csv(s, p1)
        write_round_csv(s, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_failure_names_path(self, tmp_path):
        s = summary([])
        missing = tmp_path / "no-such-dir" / "out.csv"
        with pytest.raises(OSError, match="no-such-dir"):
            write_round_csv(s, missing)


class TestSummaryJson:
    def test_schema(self, tmp_path):
        field = FieldConfig(node_count=20, max_rounds=50)
        s = run_simulation(field, RadioParams(), "leach", 4)
        sink = tmp_path / "summary.json"
        write_summary_json([s], sink)
        data = json.loads(sink.read_text())
        assert isinstance(data, list) and len(data) == 1
        entry = data[0]
        assert entry["algorithm"] == "leach"
        assert entry["seed"] == 4
        assert entry["rounds_executed"] == 50
        assert entry["first_death_round"] is None
        assert set(entry["metadata"]) == {"rng_algorithm", "config_hash"}

    def test_deterministic_bytes(self):
        s = summary([rec(0, 0), rec(1, 3)])
        assert summary_json_text([s]) == summary_json_text([s])
        assert json.loads(summary_json_text([s]))[0]["first_death_round"] == 1

    def test_ordering_first_half_last(self):
        field = FieldConfig(node_count=20, max_rounds=3000, initial_energy=0.02)
        s = run_simulation(field, RadioParams(), "leach", 8)
        assert s.first_death_round is not None
        assert s.first_death_round <= s.half_death_round <= s.last_death_round
