"""The library edge: every number a run takes passes one rule per kind.

Each numeric field of `FieldConfig` and `RadioParams`, each BS axis and
`run_simulation`'s seed either stores its value in the field's one form, a
`float` for a real and an `int` for an integer, or raises a `ValueError` that
starts with the field's name: never a `TypeError` or an `OverflowError`.
"""
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnsim import FieldConfig, RadioParams, run_simulation

BIG = 10 ** 400   # an int past the float range
NP_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
NP_FLOATS = (np.float16, np.float32, np.float64)


def field_value(attr, **context):
    return lambda value: getattr(FieldConfig(**{attr: value}, **context), attr)


def radio_value(attr, **context):
    return lambda value: getattr(RadioParams(**{attr: value}, **context), attr)


def run_seed(value):
    return run_simulation(FieldConfig(node_count=5, max_rounds=0), RadioParams(),
                          "leach", value).seed


# Real setting -> (its stored value given a value, lowest, highest, lowest excluded).
# Each bound is exact in a float16, so a narrower float never rounds past it.
REALS = {
    "side_m": (field_value("side_m"), 1, 1000, False),
    "base_probability": (field_value("base_probability"), 0, 1, True),
    "advanced_fraction": (field_value("advanced_fraction"), 0, 1, False),
    "advanced_energy_factor": (field_value("advanced_energy_factor"), 0, 10, False),
    "initial_energy": (field_value("initial_energy"), 0, 10, True),
    "bs_position x": (lambda v: FieldConfig(bs_position=(v, None)).bs_position[0], 0, 100,
                      False),
    "bs_position y": (lambda v: FieldConfig(bs_position=(None, v)).bs_position[1], 0, 100,
                      False),
    "elec_energy_per_bit": (radio_value("elec_energy_per_bit"), 0, 10, True),
    "fs_amp": (radio_value("fs_amp"), 0, 10, True),   # the least drawn, 1/1000, is > mp_amp
    "mp_amp": (radio_value("mp_amp", fs_amp=100.0), 0, 10, True),
    "aggregation_energy_per_bit": (radio_value("aggregation_energy_per_bit"), 0, 10, True),
}
# Integer setting -> (its stored value given a value, lowest, highest drawn, ints too
# large). `max_rounds` is only compared and `seed` only seeds: no int is too large.
INTEGERS = {
    "node_count": (field_value("node_count"), 1, 2 ** 24 - 1, [2 ** 24, BIG]),
    "max_rounds": (field_value("max_rounds"), 0, 2 ** 64, []),
    "packet_bits": (radio_value("packet_bits"), 1, 2 ** 64, [2 ** 1024, BIG]),   # scales reals
    "seed": (run_seed, 0, 2 ** 64, []),
}


def numpy_ints(k):
    return [kind(k) for kind in NP_INTS if np.iinfo(kind).min <= k <= np.iinfo(kind).max]


def non_numbers(k, name):
    """Values of no kind a run takes: what a `k` written otherwise would be."""
    values = [True, False, np.bool_(True), np.bool_(False), str(k), complex(k), Decimal(k)]
    return values if name.startswith("bs_position") else values + [None]   # None: the centre


def real_values(draw, name):
    """(accepted, rejected): a value of the setting `name` in every form."""
    _store, low, high, open_low = REALS[name]
    f = draw(st.one_of(st.integers(low + int(open_low), high).map(Fraction),
                       st.fractions(low, high, max_denominator=1000)
                       .filter(lambda f: f > low or not open_low)))
    accepted = [float(f), Fraction(f), *(kind(float(f)) for kind in NP_FLOATS)]
    if f.denominator == 1:
        accepted += [int(f), *numpy_ints(int(f))]
    return accepted, [*non_numbers(int(f), name), BIG, -BIG, math.inf, -math.inf, math.nan,
                      np.float64(math.inf), np.float64(math.nan)]


def integer_values(draw, name):
    """(accepted, rejected): a value of the setting `name` in every form."""
    _store, low, high, too_large = INTEGERS[name]
    k = draw(st.integers(low, high))
    return [k, *numpy_ints(k)] + ([] if too_large else [BIG]), [
        *non_numbers(k, name), float(k), Fraction(k), low - 1, -BIG,
        math.inf, -math.inf, math.nan, *too_large]


def check(name, store, accepted, rejected, twin):
    for value in accepted:
        stored = store(value)
        assert type(stored) is twin and repr(stored) == repr(twin(value)), value
    for value in rejected:
        with pytest.raises(ValueError) as exc:
            store(value)
        assert str(exc.value).startswith(f"{name} must be "), exc.value


@pytest.mark.parametrize("name", sorted(REALS))
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_real_setting_is_stored_as_its_float_twin_or_rejected_by_name(name, data):
    check(name, REALS[name][0], *real_values(data.draw, name), float)


@pytest.mark.parametrize("name", sorted(INTEGERS))
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_integer_setting_is_stored_as_its_int_twin_or_rejected_by_name(name, data):
    check(name, INTEGERS[name][0], *integer_values(data.draw, name), int)
