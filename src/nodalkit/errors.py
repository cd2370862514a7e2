"""Shared exception types."""


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
