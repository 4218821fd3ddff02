"""Domain types, radio energy-dissipation model, and field deployment."""
from __future__ import annotations

import math
import numbers
import random
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat, starmap

import numpy as np


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero (for positive x)."""
    return int(math.floor(x + 0.5))


def _require(name: str, value, ok: bool, want: str) -> None:
    if not ok:
        try:
            shown = repr(value)
        except ValueError:   # it holds an int of more digits than the interpreter prints
            shown = (f"an int of {value.bit_length()} bits" if isinstance(value, int)
                     else f"a {type(value).__name__} too large to print")
        raise ValueError(f"{name} must be {want}, got {shown}")


def _require_int(name: str, value, low: int) -> int:
    """An integer, not a bool, >= low, whose decimal form the interpreter can
    print (every output prints it); returned as the int a config stores."""
    _require(name, value, isinstance(value, numbers.Integral) and not isinstance(value, bool)
             and value >= low, f"an integer >= {low}")
    if int(value) >> 1920:   # a limit is 0 or >= 640 digits, and 2**1920 < 10**640
        digits = getattr(sys, "get_int_max_str_digits", int)()   # 0, or absent: no limit
        _require(name, value, not digits or value < math.prod(repeat(10, digits)),   # 10**digits
                 f"an integer of at most {digits} digits")
    return int(value)


def _require_real(name: str, value) -> float:
    """A real number, not a bool, finite as a float (an int past its range is
    not); returned as the float a config stores, so equal values print alike."""
    _require(name, value, isinstance(value, numbers.Real) and not isinstance(value, bool),
             "a real number")
    _require(name, value, -sys.float_info.max <= value <= sys.float_info.max   # compared exactly
             if isinstance(value, numbers.Rational) else math.isfinite(value), "finite")
    return float(value) + 0.0   # -0.0 + 0.0 is 0.0: equal values print alike


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
        bits = _require_int("packet_bits", self.packet_bits, 1)
        _require_real("packet_bits", bits)   # it scales each per-bit constant
        object.__setattr__(self, "packet_bits", bits)
        for name in ("elec_energy_per_bit", "fs_amp", "mp_amp", "aggregation_energy_per_bit"):
            object.__setattr__(self, name, value := _require_real(name, getattr(self, name)))
            _require(name, value, value > 0, "strictly positive")
            _require_real(f"{name} * packet_bits", value * bits)
        _require_real("fs_amp / mp_amp", self.fs_amp / self.mp_amp)   # the crossover d^2


@dataclass(frozen=True)
class FieldConfig:
    """Deployment geometry, node population, and heterogeneity settings. A
    `None` BS coordinate is the centre of `side_m`."""

    side_m: float = 100.0
    node_count: int = 100
    bs_position: tuple[float | None, float | None] = (None, None)
    base_probability: float = 0.1
    advanced_fraction: float = 0.1
    advanced_energy_factor: float = 1.0
    initial_energy: float = 0.5            # J, normal-tier nodes
    max_rounds: int = 3000

    def __post_init__(self) -> None:
        for name in ("side_m", "base_probability", "advanced_fraction",
                     "advanced_energy_factor", "initial_energy"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name)))
        for name, low in (("node_count", 1), ("max_rounds", 0)):
            object.__setattr__(self, name, _require_int(name, getattr(self, name), low))
        _require("node_count", self.node_count, self.node_count < 1 << 24,
                 "at most 16777215: its 2 * N position draws, of 64 bits each, come from one"
                 " getrandbits call, whose bit count is a C int")
        _require("side_m", self.side_m, self.side_m > 0, "positive")
        p, m, a, e0 = (self.base_probability, self.advanced_fraction,
                       self.advanced_energy_factor, self.initial_energy)
        _require("base_probability", p, 0 < p <= 1, "in (0, 1]")
        _require("advanced_fraction", m, 0 <= m <= 1, "in [0, 1]")
        _require("advanced_energy_factor", a, a >= 0, ">= 0")
        _require("initial_energy", e0, e0 > 0, "positive")
        bs = self.bs_position
        _require("bs_position", bs, isinstance(bs, (tuple, list)) and len(bs) == 2,
                 "two coordinates (x, y)")
        bs = tuple(self.side_m / 2 if v is None else _require_real(f"bs_position {axis}", v)
                   for axis, v in zip("xy", bs))
        for axis, value in zip("xy", bs):
            _require(f"bs_position {axis}", value, 0 <= value <= self.side_m,
                     f"in [0, side_m = {self.side_m!r}]")
        object.__setattr__(self, "bs_position", bs)
        _require_real("initial_energy * node_count * (1 + advanced_energy_factor)",
                      e0 * self.node_count * (1.0 + a))


NodeRecord = namedtuple("NodeRecord", "id x y advanced initial_energy "
                                      "residual_energy alive eligible")


@dataclass(eq=False)
class Network:
    """A run's one state: the field's nodes as one array per attribute (index
    i is node i), what `simulator.start_run` fixes per run, and the engine's
    caches, each derived on first use. The learned budget and the dead-advanced
    count are tagged with the alive count they were derived at: deaths only
    shrink the alive set, so within a run that count identifies them."""

    xy: np.ndarray                          # (2, N) positions, m; nodes never move
    advanced: np.ndarray                    # bool: the advanced tier
    e0: np.ndarray                          # initial energy, J
    e_res: np.ndarray = field(init=False)   # residual energy, J
    alive: np.ndarray = field(init=False)
    eligible: np.ndarray = field(init=False)  # may still serve as head this epoch
    grids: dict = field(init=False, default_factory=dict)   # membership's, by cell count
    round: int = field(init=False, default=0)
    kappa_max_raw: float = field(init=False, default=math.inf)   # the budget of this round
    p_effective: float = field(init=False, default=1.0)   # the run's p this round
    bs_dist: np.ndarray | None = field(init=False, default=None)   # sqrt(dx*dx + dy*dy), m
    uplink: np.ndarray | None = field(init=False, default=None)   # one packet over it, J
    head_costs: np.ndarray | None = field(init=False, default=None)   # by member count, J
    cumulative_consumed: float = field(init=False, default=0.0)
    learned_at: int = field(init=False, default=-1)   # the alive count kappa was learned at
    dead_advanced: tuple[int, int] = field(init=False, default=(-1, 0))  # (alive, its count)

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


def head_costs(params: RadioParams, members: int | np.ndarray) -> float | np.ndarray:
    """A head's charge to receive `members` packets (electronics only) and
    aggregate them with its own: members * l*E_elec + (members + 1) * l*E_DA."""
    return (members * (params.packet_bits * params.elec_energy_per_bit)
            + (params.packet_bits * params.aggregation_energy_per_bit) * (members + 1))


@lru_cache(maxsize=64)
def check_range(side_m: float, node_count: int, radio: RadioParams) -> None:
    """Raise unless every charge of a run is finite: the uplink over the field
    diagonal's d^2 = 2 * side_m^2, which no d^2 of a run exceeds, and the last
    head-cost entry plus that uplink, which no head's charge exceeds. Once per
    (side, node count, radio): a pass is cached, and a failure raises on every call."""
    diag = 2.0 * side_m * side_m
    with np.errstate(over="ignore"):
        worst = float(tx_energies(radio, np.array(diag)))   # sums with it must not warn
    _require("side_m", side_m, diag > 0 and worst < np.inf,
             "such that the diagonal's d^2 = 2 * side_m^2 is positive and its uplink finite")
    head = head_costs(radio, node_count) + worst
    _require("node_count * packet_bits * elec_energy_per_bit + (node_count + 1) * packet_bits"
             " * aggregation_energy_per_bit + the diagonal's uplink", head, head < np.inf, "finite")


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
