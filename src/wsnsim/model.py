"""Domain types, radio energy-dissipation model, and field deployment."""
from __future__ import annotations

import math
import random
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero (for positive x)."""
    return int(math.floor(x + 0.5))


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


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
            _require_finite(name, value)
            if value <= 0:
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if self.packet_bits <= 0:
            raise ValueError(f"packet_bits must be strictly positive, got {self.packet_bits!r}")
        if not self.fs_amp > self.mp_amp:
            raise ValueError("fs_amp must exceed mp_amp for a crossover distance > 1 m")
        # Not a field: repr, equality and hashing see only the parameters.
        object.__setattr__(self, "_crossover", math.sqrt(self.fs_amp / self.mp_amp))


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
            _require_finite(name, getattr(self, name))
        for axis, value in zip("xy", self.bs_position):
            _require_finite(f"bs_position {axis}", value)
        if self.side_m <= 0:
            raise ValueError(f"side_m must be positive, got {self.side_m!r}")
        if self.node_count <= 0:
            raise ValueError(f"node_count must be positive, got {self.node_count!r}")
        if not 0 < self.base_probability <= 1:
            raise ValueError(
                f"base_probability must be in (0, 1], got {self.base_probability!r}")
        if not 0 <= self.advanced_fraction <= 1:
            raise ValueError(
                f"advanced_fraction must be in [0, 1], got {self.advanced_fraction!r}")
        if self.advanced_energy_factor < 0:
            raise ValueError(
                f"advanced_energy_factor must be >= 0, got {self.advanced_energy_factor!r}")
        if self.initial_energy <= 0:
            raise ValueError(f"initial_energy must be positive, got {self.initial_energy!r}")
        if self.max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {self.max_rounds!r}")
        bx, by = self.bs_position
        if not (0 <= bx <= self.side_m and 0 <= by <= self.side_m):
            raise ValueError(f"bs_position {self.bs_position!r} outside the field square")


NORMAL = "normal"
ADVANCED = "advanced"

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


def distance_threshold(params: RadioParams) -> float:
    """Crossover distance between the free-space and multipath branches."""
    return params._crossover


def tx_energy(params: RadioParams, bits: int, distance: float) -> float:
    """Energy to transmit `bits` over `distance`; branch chosen by the crossover."""
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits!r}")
    _require_finite("distance", distance)
    if distance < 0:
        raise ValueError(f"distance must be >= 0, got {distance!r}")
    return float(tx_energies(params, bits, np.array([float(distance)]))[0])


def tx_energies(params: RadioParams, bits: int, distances: np.ndarray) -> np.ndarray:
    """tx_energy of each distance, without argument checks (the round engine's
    bits are RadioParams.packet_bits and its distances np.hypot of finite
    points). The powers are Python's `**`: numpy's d*d and np.power differ
    from it in some last bits."""
    far = distances > params._crossover
    powers = np.fromiter(map(pow, distances.tolist(), np.where(far, 4.0, 2.0).tolist()),
                         float, distances.size)
    amp = np.where(far, bits * params.mp_amp, bits * params.fs_amp)
    return bits * params.elec_energy_per_bit + amp * powers


def rx_energy(params: RadioParams, bits: int) -> float:
    """Energy to receive `bits` (electronics only)."""
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits!r}")
    return bits * params.elec_energy_per_bit


def aggregation_energy(params: RadioParams, bits: int, signal_count: int) -> float:
    """Energy for a head to aggregate `signal_count` packets of `bits` each."""
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits!r}")
    if signal_count < 1:
        raise ValueError(f"signal_count must be >= 1, got {signal_count!r}")
    return bits * params.aggregation_energy_per_bit * signal_count


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
