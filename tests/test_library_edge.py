"""The library edge: every number a run takes passes one rule per kind.

Each numeric field of `FieldConfig` and `RadioParams`, each BS axis and
`run_simulation`'s seed either stores its value in the field's one form, a
`float` for a real and an `int` for an integer, or raises a `ValueError` that
starts with the field's name: never a `TypeError` or an `OverflowError`. An
integer must print (`sys.get_int_max_str_digits()`), as the outputs print it.
"""
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnsim import FieldConfig, RadioParams, run_simulation

BIG = 10 ** 400   # an int past the float range
HUGE = 10 ** 5000   # an int of more digits than the interpreter prints by default
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
    return accepted, [*non_numbers(int(f), name), BIG, -BIG, HUGE, -HUGE, math.inf, -math.inf,
                      math.nan, np.float64(math.inf), np.float64(math.nan)]


def integer_values(draw, name):
    """(accepted, rejected): a value of the setting `name` in every form."""
    _store, low, high, too_large = INTEGERS[name]
    k = draw(st.integers(low, high))
    return [k, *numpy_ints(k)] + ([] if too_large else [BIG]), [
        *non_numbers(k, name), float(k), Fraction(k), low - 1, -BIG, HUGE,
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


@pytest.mark.parametrize("name, make, shown", [
    ("side_m", lambda: FieldConfig(side_m=HUGE), "an int of 16610 bits"),
    ("packet_bits", lambda: RadioParams(packet_bits=HUGE), "an int of 16610 bits"),
    # it is only compared, yet a run's config hash prints it
    ("max_rounds", lambda: run_simulation(FieldConfig(node_count=5, max_rounds=HUGE),
                                          RadioParams(), "leach", 0), "an int of 16610 bits"),
    # it only seeds, yet summary.json prints it
    ("seed", lambda: run_seed(HUGE), "an int of 16610 bits"),
    # a value that holds such an int
    ("side_m", lambda: FieldConfig(side_m=Fraction(HUGE, 3)), "a Fraction too large to print"),
    ("bs_position", lambda: FieldConfig(bs_position=(HUGE,)), "a tuple too large to print"),
], ids=["side_m", "packet_bits", "max_rounds", "seed", "side_m-fraction", "bs_position"])
def test_int_too_long_to_print_is_rejected_by_name(name, make, shown):
    with pytest.raises(ValueError, match=f"^{name} must be .*, got {shown}$"):
        make()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter prints an int of any length")
def test_printable_int_rule_follows_the_interpreter_limit():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)   # the least limit the interpreter allows
        assert FieldConfig(max_rounds=10 ** 640 - 1).max_rounds == 10 ** 640 - 1   # 640 digits
        with pytest.raises(ValueError, match="^max_rounds must be an integer of at most 640 "
                                             "digits, got an int of 2127 bits$"):
            FieldConfig(max_rounds=10 ** 640)
        sys.set_int_max_str_digits(0)   # no limit
        assert run_simulation(FieldConfig(node_count=5, max_rounds=0), RadioParams(), "leach",
                              HUGE).seed == HUGE
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("name", ["advanced_fraction", "advanced_energy_factor",
                                  "bs_position x", "bs_position y"])
def test_negative_zero_is_stored_as_zero(name):
    # -0.0 == 0.0, so they must print alike: config_hash reads the repr
    store = REALS[name][0]
    assert repr(store(-0.0)) == repr(store(np.float64(-0.0))) == "0.0"
