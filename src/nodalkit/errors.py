"""Shared exception types and the one integer rule (`_integer`).  Every
input the package refuses raises one, where the value is made; the CLI
turns each into exit code 2."""

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
    `least`, else `error`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise error("%s must be >= %d and an integer, got %r"
                    % (name, least, value))
    return int(value)
