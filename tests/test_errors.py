import math
import re

import numpy as np
import pytest

from lsi_lab.errors import ValidationError, entries, fields, number


@pytest.mark.parametrize("value, want", [
    (3, 3.0), (-0.25, -0.25), (np.int64(5), 5.0), (np.int32(-2), -2.0),
    (np.float32(0.5), 0.5), (np.float64(2.75), 2.75), (math.inf, math.inf),
    (10 ** 400, math.inf), (-10 ** 400, -math.inf)])
def test_number_reads_real_numbers_as_floats(value, want):
    got = number(value, "x")
    assert type(got) is float and got == want


def test_number_passes_nan_to_the_readers_own_checks():
    # so a fixed delta.value of nan still ends in NegativeDelta
    assert math.isnan(number(math.nan, "delta.value"))
    assert math.isnan(number(np.float64("nan"), "delta.value"))


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "1.0", "nan", None, [1.0],
                                   {"x": 1.0}, 1j])
def test_number_refuses_bools_strings_and_containers(value):
    with pytest.raises(ValidationError, match="^atom x must be a finite number, got "):
        number(value, "atom x")


@pytest.mark.parametrize("value, want", [
    (20, 20), (20.0, 20), (np.int64(7), 7), (np.uint8(3), 3), (np.float64(4.0), 4),
    (2.0 ** 40, 2 ** 40), (-3, -3), (10 ** 400, 10 ** 400)])
def test_integral_numbers_are_ints(value, want):
    got = number(value, "n entry", integral=True)
    assert type(got) is int and got == want


@pytest.mark.parametrize("value", [True, np.bool_(False), "3", 20.7, np.float32(0.5), 1e999,
                                   -math.inf, math.nan, None, [3]])
def test_integral_refuses_what_int_would_truncate_or_misread(value):
    with pytest.raises(ValidationError, match=r"^seed must be an integer, got "):
        number(value, "seed", integral=True)


def test_fields_returns_the_mapping():
    raw = {"x": 1.0, "w": 1.0}
    assert fields(raw, "atom", {"x", "w"}, required={"x", "w"}) is raw
    assert fields({}, "delta", {"mode", "value"}) == {}


@pytest.mark.parametrize("raw, message", [
    ([1], "atom must be a mapping, got [1]"),
    ("x", "atom must be a mapping, got 'x'"),
    (None, "atom must be a mapping, got None"),
    ({"x": 0.0, "w": 1.0, "label": "a"}, "unknown atom keys: ['label']"),
    ({"x": 0.0}, "missing atom keys: ['w']"),
    ({}, "missing atom keys: ['w', 'x']"),
    # unknown keys are named before missing ones
    ({"x": 0.0, "weight": 1.0}, "unknown atom keys: ['weight']"),
])
def test_fields_refuses_other_shapes(raw, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        fields(raw, "atom", {"x", "w"}, required={"x", "w"})


def test_entries():
    assert entries([1, 2], "f knot", 2) == [1, 2]
    assert entries((), "atoms") == ()
    for raw, message in ((5, "atoms must be a list, got 5"),
                         ("ab", "atoms must be a list, got 'ab'"),
                         ({"x": 1}, "atoms must be a list, got {'x': 1}")):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            entries(raw, "atoms")
    with pytest.raises(ValidationError, match=re.escape("f knot must be a list of 2 entries,"
                                                          " got [0.0]")):
        entries([0.0], "f knot", 2)
