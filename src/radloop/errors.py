"""Domain exceptions shared across the toolkit.

Every anticipated failure raises a subclass of :class:`RadloopError` so the
command line layer can map them uniformly to exit code 1. Programming errors
(wrong types, impossible arguments) surface as ordinary Python exceptions.
"""

from __future__ import annotations


class RadloopError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyAfterClamp(RadloopError):
    """A box lies entirely outside the unit square after clamping."""


class FormatError(RadloopError):
    """An input line does not satisfy the declared file format."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class InsufficientStratum(RadloopError):
    """A benchmark stratum cannot be filled from the available pool."""

    def __init__(self, stratum: object, available: int, requested: int):
        super().__init__(
            f"stratum {stratum!r}: requested {requested} but only {available} available"
        )
        self.stratum = stratum
        self.available = available
        self.requested = requested


class MissingField(RadloopError):
    """A record lacks a field required by its task template."""


class Unrenderable(RadloopError):
    """A record field holds text its response template could not parse back."""


class ParseError(RadloopError):
    """Model output does not match the strict task grammar."""

    def __init__(self, position: int, expected: str):
        super().__init__(f"at position {position}: expected {expected}")
        self.position = position
        self.expected = expected


class EmptyGroundTruth(RadloopError):
    """Ground truth boxes are required but absent."""


class UnknownId(RadloopError):
    """A prediction references an id that is not present in the gold set."""


class DuplicateId(RadloopError):
    """The same id appears more than once where ids must be unique."""


class NoMetrics(RadloopError):
    """Neither an IoU nor a text score is available for aggregation."""


class MissingMetrics(RadloopError):
    """A curriculum reweighting step lacks metrics for some source or category."""


class EmptyLeaf(RadloopError):
    """A leaf the sampling plan lists holds no records, whatever its probability."""


class GridTooFine(RadloopError):
    """The tile grid does not fit the image."""


class EmptyInput(RadloopError):
    """A judge prompt was requested for empty text."""


class TransportError(RadloopError):
    """The judge endpoint could not be reached."""

    def __init__(self, message: str, request_hash: str):
        super().__init__(f"{message} (request {request_hash})")
        self.request_hash = request_hash


class JudgeTimeout(TransportError):
    """The judge endpoint did not answer within the configured timeout."""


class RetriesExhausted(RadloopError):
    """All judge call attempts failed."""

    def __init__(self, attempts: int, request_hash: str):
        super().__init__(f"gave up after {attempts} attempts (request {request_hash})")
        self.attempts = attempts
        self.request_hash = request_hash


class MalformedJson(RadloopError):
    """No parseable JSON object was found in the judge reply."""


class IllegalValue(RadloopError):
    """A judge verdict field holds a value outside its legal set."""


class ConfigError(RadloopError):
    """A configuration file or flag combination is invalid."""
