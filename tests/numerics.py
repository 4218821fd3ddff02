"""A numerical argmin of the network energy: an independent cross-check of
the closed-form optimal radius in `wsnsim.analysis`."""
from __future__ import annotations

import math

from wsnsim.analysis import AnalysisInputs, total_energy

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_minimize(f, lo: float, hi: float, iterations: int = 200) -> float:
    """Golden-section argmin of a unimodal f on [lo, hi]."""
    a, b = lo, hi
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = f(d)
    return (a + b) / 2.0


def argmin_total_energy(inputs: AnalysisInputs, lo: float = 1e-3,
                        hi: float | None = None, iterations: int = 200) -> float:
    """Numerical argmin of total_energy over d, searched in log space."""
    if hi is None:
        hi = math.sqrt(2.0) * inputs.field.side_m
    t = golden_section_minimize(lambda u: total_energy(inputs, math.exp(u)),
                                math.log(lo), math.log(hi), iterations)
    return math.exp(t)
