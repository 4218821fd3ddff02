"""Domain types, radio energy-dissipation model, and field deployment."""
from __future__ import annotations

import math
import numbers
import random
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero (for positive x)."""
    return int(math.floor(x + 0.5))


def _require(name: str, value, ok: bool, want: str) -> None:
    if not ok:
        raise ValueError(f"{name} must be {want}, got {value!r}")


def _require_int(name: str, value, low: int) -> None:
    _require(name, value, not isinstance(value, bool) and isinstance(value, numbers.Integral)
             and value >= low, f"an integer >= {low}")


@dataclass(frozen=True)
class RadioParams:
    """First-order radio energy model constants.

    Default electronics energy is 50 nJ/bit, the value used throughout the
    LEACH lineage; with it the default network dies on the expected timescale
    (first death around round 1000 at the default field setup).
    """

    elec_energy_per_bit: float = 50e-9      # J/bit, transmitter/receiver electronics
    fs_amp: float = 10e-12                  # J/bit/m^2, free-space amplifier
    mp_amp: float = 0.0013e-12              # J/bit/m^4, multipath amplifier
    aggregation_energy_per_bit: float = 5e-9  # J/bit per aggregated signal
    packet_bits: int = 4000

    def __post_init__(self) -> None:
        for name in ("elec_energy_per_bit", "fs_amp", "mp_amp",
                     "aggregation_energy_per_bit"):
            value = getattr(self, name)
            _require(name, value, 0 < value < math.inf, "finite and strictly positive")
        _require_int("packet_bits", self.packet_bits, 1)
        _require("fs_amp", self.fs_amp, self.fs_amp > self.mp_amp,   # crossover > 1 m
                 f"greater than mp_amp ({self.mp_amp!r})")


@dataclass(frozen=True)
class FieldConfig:
    """Deployment geometry, node population, and heterogeneity settings."""

    side_m: float = 100.0
    node_count: int = 100
    bs_position: tuple[float, float] = (50.0, 50.0)
    base_probability: float = 0.1
    advanced_fraction: float = 0.1
    advanced_energy_factor: float = 1.0
    initial_energy: float = 0.5            # J, normal-tier nodes
    max_rounds: int = 3000

    def __post_init__(self) -> None:
        for name in ("side_m", "base_probability", "advanced_fraction",
                     "advanced_energy_factor", "initial_energy"):
            value = getattr(self, name)
            _require(name, value, math.isfinite(value), "finite")
        for axis, value in zip("xy", self.bs_position):
            _require(f"bs_position {axis}", value, math.isfinite(value), "finite")
        _require_int("node_count", self.node_count, 1)
        _require_int("max_rounds", self.max_rounds, 0)
        _require("side_m", self.side_m, self.side_m > 0, "positive")
        p, m, a, e0 = (self.base_probability, self.advanced_fraction,
                       self.advanced_energy_factor, self.initial_energy)
        _require("base_probability", p, 0 < p <= 1, "in (0, 1]")
        _require("advanced_fraction", m, 0 <= m <= 1, "in [0, 1]")
        _require("advanced_energy_factor", a, a >= 0, ">= 0")
        _require("initial_energy", e0, e0 > 0, "positive")
        for axis, value in zip("xy", self.bs_position):
            _require(f"bs_position {axis}", value, 0 <= value <= self.side_m,
                     f"in [0, side_m = {self.side_m!r}]")
        total = e0 * self.node_count * (1.0 + a)
        _require("initial_energy * node_count * (1 + advanced_energy_factor)", total,
                 math.isfinite(total), "finite")


NodeRecord = namedtuple("NodeRecord", "id x y advanced initial_energy "
                                      "residual_energy alive eligible")


@dataclass(eq=False)
class Network:
    """The field's nodes as one array per attribute; index i is node i."""

    xy: np.ndarray                          # (2, N) positions, m
    advanced: np.ndarray                    # bool: the advanced tier
    e0: np.ndarray                          # initial energy, J
    e_res: np.ndarray = field(init=False)   # residual energy, J
    alive: np.ndarray = field(init=False)
    eligible: np.ndarray = field(init=False)  # may still serve as head this epoch

    def __post_init__(self) -> None:
        self.e_res = self.e0.copy()
        self.alive = np.ones(self.e0.size, dtype=bool)
        self.eligible = np.ones(self.e0.size, dtype=bool)

    def __len__(self) -> int:
        return self.e0.size

    def __iter__(self):
        """A snapshot of each node, in id order, for inspection."""
        return map(NodeRecord._make, zip(
            range(len(self)), *self.xy.tolist(), self.advanced.tolist(), self.e0.tolist(),
            self.e_res.tolist(), self.alive.tolist(), self.eligible.tolist()))


def ordered_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, alike on every Python and numpy: np.sum adds
    pairwise, and the builtin sum() is compensated from Python 3.12."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def tx_energies(params: RadioParams, bits: int, distances: np.ndarray) -> np.ndarray:
    """Energy to transmit `bits` over each of `distances`: free-space (d^2) up
    to the crossover distance sqrt(fs_amp / mp_amp), multipath (d^4) beyond.
    The powers are Python's `**`: numpy's d*d and np.power differ from it in
    some last bits."""
    far = distances > math.sqrt(params.fs_amp / params.mp_amp)
    powers = np.fromiter(map(pow, distances.tolist(), np.where(far, 4.0, 2.0).tolist()),
                         float, distances.size)
    amp = np.where(far, bits * params.mp_amp, bits * params.fs_amp)
    return bits * params.elec_energy_per_bit + amp * powers


def rx_energy(params: RadioParams, bits: int) -> float:
    """Energy to receive `bits` (electronics only)."""
    return bits * params.elec_energy_per_bit


def aggregation_energy(params: RadioParams, bits: int) -> float:
    """Energy for a head to aggregate one packet of `bits`."""
    return bits * params.aggregation_energy_per_bit


def deploy_field(config: FieldConfig, rng: random.Random) -> Network:
    """Place nodes uniformly at random and assign tiers.

    Positions are drawn first for all node ids in order, x then y; the
    advanced tier is then assigned to the first round(m*N) indices of a
    seeded shuffle, so the tier split is independent of position-generation
    order.
    """
    n = config.node_count
    draws = [rng.uniform(0.0, config.side_m) for _ in range(2 * n)]
    order = list(range(n))
    rng.shuffle(order)
    advanced = np.zeros(n, dtype=bool)
    advanced[order[:round_half_up(config.advanced_fraction * n)]] = True
    e0 = config.initial_energy
    return Network(np.array(draws).reshape(n, 2).T.copy(), advanced,
                   np.where(advanced, e0 * (1.0 + config.advanced_energy_factor), e0))
