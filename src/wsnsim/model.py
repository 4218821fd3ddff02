"""Domain types, radio energy-dissipation model, and field deployment."""
from __future__ import annotations

import math
import numbers
import random
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import repeat, starmap

import numpy as np


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero (for positive x)."""
    return int(math.floor(x + 0.5))


def _require(name: str, value, ok: bool, want: str) -> None:
    if not ok:
        raise ValueError(f"{name} must be {want}, got {value!r}")


def _require_int(name: str, value, low: int, as_float: bool = True) -> None:
    """An integer >= low; unless `as_float` is False, one a float can hold."""
    _require(name, value, not isinstance(value, bool) and isinstance(value, numbers.Integral)
             and value >= low, f"an integer >= {low}")
    _require(name, value, not as_float or value <= sys.float_info.max,
             "not too large for a float")


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
        _require_int("packet_bits", self.packet_bits, 1)
        for name in ("elec_energy_per_bit", "fs_amp", "mp_amp", "aggregation_energy_per_bit"):
            value = getattr(self, name)
            _require(name, value, 0 < value < math.inf, "finite and strictly positive")
            _require(f"packet_bits * {name}", cost := self.packet_bits * value,
                     cost < math.inf, "finite")
        _require("fs_amp", self.fs_amp, self.fs_amp > self.mp_amp,   # crossover > 1 m
                 f"greater than mp_amp ({self.mp_amp!r})")
        _require("fs_amp / mp_amp", ratio := self.fs_amp / self.mp_amp,   # the crossover d^2
                 ratio < math.inf, "finite")


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
        _require("node_count", self.node_count, self.node_count <= sys.maxsize // 2,
                 f"at most {sys.maxsize // 2}, so that its 2 * N draws can be indexed")
        _require_int("max_rounds", self.max_rounds, 0, as_float=False)   # only compared
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

    xy: np.ndarray                          # (2, N) positions, m; nodes never move
    advanced: np.ndarray                    # bool: the advanced tier
    e0: np.ndarray                          # initial energy, J
    e_res: np.ndarray = field(init=False)   # residual energy, J
    alive: np.ndarray = field(init=False)
    eligible: np.ndarray = field(init=False)  # may still serve as head this epoch
    grids: dict = field(init=False, default_factory=dict)   # membership's, by cell count

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


def tx_energies(params: RadioParams, d2: np.ndarray) -> np.ndarray:
    """Energy to send one packet over each squared distance `d2`: per bit,
    fs_amp * d2 up to the crossover d2 = fs_amp / mp_amp, mp_amp * d2 * d2
    beyond. IEEE `*` and `+` only, so the bits are alike on every platform."""
    bits = params.packet_bits
    far = d2 > params.fs_amp / params.mp_amp
    if not np.count_nonzero(far):   # free space only: no multipath arrays
        return bits * params.elec_energy_per_bit + (bits * params.fs_amp) * d2
    amp = np.where(far, bits * params.mp_amp, bits * params.fs_amp)
    return bits * params.elec_energy_per_bit + amp * (d2 * np.where(far, d2, 1.0))


def rx_energy(params: RadioParams) -> float:
    """Energy to receive one packet (electronics only)."""
    return params.packet_bits * params.elec_energy_per_bit


def aggregation_energy(params: RadioParams) -> float:
    """Energy for a head to aggregate one packet."""
    return params.packet_bits * params.aggregation_energy_per_bit


_BULK_DRAWS = 256   # below it, one rng.random() call per draw is faster


def uniforms(rng: random.Random, n: int) -> np.ndarray:
    """The next n `rng.random()` values, bit for bit, leaving `rng` where n
    calls would. Each is ((a >> 5) * 2**26 + (b >> 6)) / 2**53 of the next two
    32-bit words a, b, which `rng.getrandbits(64 * n)` returns in one call,
    least significant word first."""
    if n < _BULK_DRAWS:
        return np.fromiter(starmap(rng.random, repeat((), n)), float, n)
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


def shuffled_ids(n: int, rng: random.Random) -> list[int]:
    """range(n) in the order `rng.shuffle(list(range(n)))` leaves it on
    CPython >= 3.10, from the same words: Fisher-Yates from the top, j drawn
    below i + 1 as `getrandbits(k)` for k the bit length of i + 1, redrawn
    while j > i. Python promises only `random()` across versions, so the
    package fixes its own shuffle."""
    order = list(range(n))
    getrandbits = rng.getrandbits
    for k in range(n.bit_length(), 1, -1):   # the i whose i + 1 has k bits, from the top
        for i in range(min(n - 1, (1 << k) - 2), (1 << (k - 1)) - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
    return order


def deploy_field(config: FieldConfig, rng: random.Random) -> Network:
    """Place nodes uniformly at random and assign tiers.

    Positions are drawn first for all node ids in order, x then y, as
    `rng.uniform(0.0, side_m)` would (`0.0 + side_m * rng.random()`: the same
    bits), through `uniforms`; the advanced tier is then assigned to the
    first round(m*N) indices of `shuffled_ids`, so the tier split is
    independent of position-generation order.
    """
    n = config.node_count
    draws = uniforms(rng, 2 * n) * config.side_m
    advanced = np.zeros(n, dtype=bool)
    advanced[shuffled_ids(n, rng)[:round_half_up(config.advanced_fraction * n)]] = True
    e0 = config.initial_energy
    return Network(draws.reshape(n, 2).T.copy(), advanced,
                   np.where(advanced, e0 * (1.0 + config.advanced_energy_factor), e0))
