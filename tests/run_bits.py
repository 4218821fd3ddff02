"""Every bit a run produces, defined once for the tests that compare runs
byte for byte: the golden lock, the SIMD dispatch check and the
differential oracle."""
from wsnsim.reporting import round_csv_text, summary_json_text


def full_precision_text(s) -> str:
    """The repr of every float of a run: its initial energy total, each
    round's residual total, p and kappa, and the cumulative consumed energy."""
    lines = [repr(s.initial_energy_total)]
    lines += [f"{r.residual_energy_total!r},{r.p_used!r},{r.kappa_used!r}"
              for r in s.series]
    lines += map(repr, s.consumed_series)
    return "\n".join(lines)


def run_bits(s) -> tuple[str, str, str]:
    """A run's CSV text, its summary.json text and its full-precision text."""
    return round_csv_text(s), summary_json_text([s]), full_precision_text(s)
