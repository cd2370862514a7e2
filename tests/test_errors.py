"""The value rules of nodalkit.errors."""

import enum

import numpy as np
import pytest

from nodalkit.errors import InvalidType, _integer, _integers


class Colour(enum.IntEnum):
    RED = 4


VALUES = [0, 7, np.int64(3), np.uint8(2), True, np.bool_(True), 1.0, "1", -1,
          None, Colour.RED]


def _outcome(check):
    try:
        values = check()
    except Exception as exc:        # the kind and message are compared
        return type(exc), str(exc)
    return list(values), [type(v) for v in values]


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_integers_is_integer_entry_by_entry(value):
    # the bulk form gives each entry's value and type, or the error, that
    # the rule gives for it alone
    row = [1, value, 2]
    assert _outcome(lambda: _integers(row, 0, "entry", InvalidType)) == \
        _outcome(lambda: [_integer(v, 0, "entry", InvalidType) for v in row])


def test_integers_names_the_first_bad_entry():
    with pytest.raises(InvalidType, match="got 1.5"):
        _integers((np.int64(1), 1.5, "x"), 0, "entry", InvalidType)
    assert _integers((), 3, "entry") == ()
    row = [3, 4]
    assert _integers(row, 3, "entry") is row
