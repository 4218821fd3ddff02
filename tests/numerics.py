"""The per-round network energy and its numerical argmin: an independent
cross-check of the closed-form optimal radius in `wsnsim.analysis`."""
from __future__ import annotations

import math

from wsnsim.model import RadioParams

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def total_energy(radio: RadioParams, side_m: float, node_count: int,
                 bs_distance: float, d: float) -> float:
    """Per-round network energy with cluster radius d.

    Electronics and aggregation terms are d-independent; the head-uplink term
    scales with the cluster count M^2/(2*pi*d^2) and the member term with d^2.
    """
    if d <= 0:
        raise ValueError(f"d must be positive, got {d!r}")
    n = node_count
    l = radio.packet_bits
    const = 2 * l * radio.elec_energy_per_bit * n + l * radio.aggregation_energy_per_bit * n
    uplink = l * radio.mp_amp * bs_distance ** 4 * side_m ** 2 / (2 * math.pi * d ** 2)
    members = n * l * radio.fs_amp * d ** 2
    return const + uplink + members


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


def argmin_total_energy(radio: RadioParams, side_m: float, node_count: int,
                        bs_distance: float, lo: float = 1e-3, hi: float | None = None,
                        iterations: int = 200) -> float:
    """Numerical argmin of total_energy over d, searched in log space."""
    if hi is None:
        hi = math.sqrt(2.0) * side_m
    t = golden_section_minimize(
        lambda u: total_energy(radio, side_m, node_count, bs_distance, math.exp(u)),
        math.log(lo), math.log(hi), iterations)
    return math.exp(t)
