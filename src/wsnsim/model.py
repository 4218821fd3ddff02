"""Domain types, radio energy-dissipation model, and field deployment."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


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


@dataclass
class Node:
    """One sensor node: position, tier, and mutable energy/role state."""

    id: int
    x: float
    y: float
    tier: str
    initial_energy: float
    residual_energy: float = field(default=-1.0)
    alive: bool = True
    eligible: bool = True
    last_head_round: int | None = None

    def __post_init__(self) -> None:
        if self.residual_energy < 0:
            self.residual_energy = self.initial_energy

    def distance_to(self, x: float, y: float) -> float:
        return math.hypot(self.x - x, self.y - y)

    def drain(self, amount: float) -> float:
        """Subtract energy, clamped at zero. Returns the amount actually drawn."""
        if amount < 0:
            raise ValueError(f"drain amount must be >= 0, got {amount!r}")
        drawn = min(amount, self.residual_energy)
        self.residual_energy -= drawn
        self.alive = self.residual_energy > 0
        return drawn


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
    if distance <= params._crossover:
        return bits * params.elec_energy_per_bit + bits * params.fs_amp * distance ** 2
    return bits * params.elec_energy_per_bit + bits * params.mp_amp * distance ** 4


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


def deploy_field(config: FieldConfig, rng: random.Random) -> list[Node]:
    """Place nodes uniformly at random and assign tiers.

    Positions are drawn first for all node ids in order; the advanced tier is
    then assigned to the first round(m*N) indices of a seeded shuffle, so the
    tier split is independent of position-generation order.
    """
    n = config.node_count
    positions = [(rng.uniform(0.0, config.side_m), rng.uniform(0.0, config.side_m))
                 for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    advanced_ids = set(order[:round_half_up(config.advanced_fraction * n)])
    e0 = config.initial_energy
    e_adv = e0 * (1.0 + config.advanced_energy_factor)
    nodes = []
    for i, (x, y) in enumerate(positions):
        if i in advanced_ids:
            nodes.append(Node(id=i, x=x, y=y, tier=ADVANCED, initial_energy=e_adv))
        else:
            nodes.append(Node(id=i, x=x, y=y, tier=NORMAL, initial_energy=e0))
    return nodes
