"""Shared exception types and the one implementation of each rule a value
is checked by: integers (`_integer`, with `_integers` its bulk form for a
row of them, not a rule of its own), finite reals (`_real`), real arrays
(`_real_array`), integer tokens (`_decimal`) and the readers' JSON objects
(`_fields`).  Every input the package refuses raises one of these types
where the value is made, and the CLI turns each into exit code 2."""

import math
import numbers
from reprlib import repr as _show  # bounded: JSON may nest past the stack

import numpy as np


class NodalkitError(Exception):
    """Base class for everything raised on purpose by this package."""


class MalformedEmbedding(NodalkitError):
    """Rotation system / edge pairing is structurally inconsistent."""


class InvalidType(NodalkitError):
    """A combinatorial type violates its invariants."""


class InconsistentLabeling(NodalkitError):
    """No valid involution reproduces the given domain labeling."""


class NoRepeat(NodalkitError):
    """First letter of a word never recurs."""


class CapExceeded(NodalkitError):
    """Enumeration request beyond the configured cap."""


class InvalidSurface(NodalkitError):
    """Unknown surface kind or name, or a count out of range."""


class UnknownFamily(NodalkitError):
    """Surface family not covered by the classical bound table."""


class DegenerateGrid(NodalkitError):
    """Fewer than 3 nodes per dimension after discretization."""


class NoConvergence(NodalkitError):
    """Eigensolver failed; carries iteration diagnostics in args."""


class AllZeroField(NodalkitError):
    """Nodal extraction got an (effectively) zero field."""


class NoFit(NodalkitError):
    """local_ray_fit found no frequency below the residual threshold."""


class InfeasibleOrder(NodalkitError):
    """Jet matrix has full rank; requested vanishing order not reachable."""


class InvalidProblem(NodalkitError):
    """An eigenproblem or its operator violates a stated precondition."""


def _integer(value, least, name, error=InvalidProblem):
    """value as an int: an int or numpy integer (a bool is not one) at least
    `least`, else `error`.  An exact int at least `least`, the common case,
    is returned at once."""
    if type(value) is int and value >= least:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise error("%s must be >= %d and an integer, got %s"
                    % (name, least, _show(value)))
    return int(value)


_INT = frozenset({int})


def _integers(values, least, name, error=InvalidProblem):
    """The bulk form of `_integer`, for a list or tuple: values itself when
    one type census finds only exact ints and their min is at least `least`,
    else a list of `_integer` of each entry, in order (so the first bad entry
    is the one named)."""
    if set(map(type, values)) <= _INT and (not values or min(values) >= least):
        return values
    return [_integer(v, least, name, error) for v in values]


def _real(value, message, error=InvalidProblem, sign=">="):
    """value as a float: a real number (a bool or a string is not one),
    finite, and `sign` 0 (">=" or ">"; None: any sign), else `error` with
    the caller's message and the value."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:       # an int beyond the largest float
            x = math.inf
        if math.isfinite(x) and {None: True, ">=": x >= 0, ">": x > 0}[sign]:
            return x
    raise error("%s, got %s" % (message, _show(value)))


def _real_array(a, message, error=InvalidProblem):
    """a, a numpy array of integers or reals (kind i, u or f) with every
    entry finite, else `error` with the caller's message."""
    if isinstance(a, np.ndarray) and a.dtype.kind in "iuf" \
            and np.isfinite(a).all():
        return a
    raise error(message)


def _decimal(text, default=None):
    """The int n whose decimal spelling str(n) is text, else default."""
    try:
        n = int(text)
    except (TypeError, ValueError):
        return default
    return n if str(n) == text else default


def _fields(obj, error, what, *keys, version=None, **defaults):
    """A reader's values: those of JSON object obj at keys, then at the keys
    of defaults (or the default), and formatVersion, if given, must be
    version; else error naming `what`."""
    if not isinstance(obj, dict):
        raise error("%s must be a JSON object, got %s" % (what, _show(obj)))
    for key in keys:
        if key not in obj:
            raise error("%s has no %r key" % (what, key))
    v = obj.get("formatVersion", version)
    if version is not None and (type(v) is not int or v != version):
        raise error("%s has formatVersion %s, but only %d is read"
                    % (what, _show(v), version))
    return tuple(obj[k] for k in keys) + tuple(
        obj.get(k, default) for k, default in defaults.items())

