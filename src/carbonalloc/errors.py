"""Exception types raised across the pipeline, and the one warning helper.

There is one type per way a caller handles a fault, and one per message
format that many raise sites share; the message says what went wrong and
where. Every error an input can cause names where to fix it: ingestion
errors carry the file label and line number, and the engine's faults the
datacenters.csv or tenants.csv row of the record they occurred in.
"""

from __future__ import annotations

__all__ = [
    "CarbonAllocError",
    "UnitError",
    "IngestError",
    "MalformedRow",
    "UnknownTenant",
    "ValidationFailure",
    "PowerModelError",
]


class CarbonAllocError(Exception):
    """Base class for all errors raised by this package."""


class UnitError(CarbonAllocError, ValueError):
    """A unit-bearing value violated its invariant (sign, range, finiteness),
    or shared energy has no direct energy to be split by."""


class IngestError(CarbonAllocError):
    """A fault in the input files: a bad row, a broken cross-file reference
    or a device model without a calibrated power model."""


class MalformedRow(IngestError):
    """A CSV line could not be parsed (column count, bad number, a value out
    of range, a duplicate id) or written (a value the format cannot carry).

    Line 0 stands for the file as a whole: one that cannot be read, or an
    input directory missing some of its files.
    """

    def __init__(self, source: str, line_no: int, reason: str):
        self.source = source
        self.line_no = line_no
        super().__init__(f"{source}:{line_no}: {reason}")


class UnknownTenant(IngestError):
    """A tenant the tenant file does not declare, named by a usage row or
    asked of :func:`carbonalloc.allocation.tenant_footprint`."""

    def __init__(self, tenant_id: str, locations: tuple[str, ...] = ()):
        self.tenant_id = tenant_id
        self.locations = locations
        at = f" (at {', '.join(locations)})" if locations else ""
        super().__init__(f"unknown tenant {tenant_id!r}{at}")


class ValidationFailure(IngestError):
    """Aggregate of every cross-reference error found while assembling a period.

    ``errors`` holds the individual errors so callers can report them all at
    once instead of fixing one per run.
    """

    def __init__(self, errors: list[IngestError]):
        self.errors = list(errors)
        lines = "\n  ".join(str(e) for e in self.errors)
        super().__init__(f"{len(self.errors)} validation error(s):\n  {lines}")


class PowerModelError(CarbonAllocError):
    """A server power model that cannot be fitted or read: too few samples,
    a singular design or a weight beyond float range."""


def warn(logger_name: str, message: str, *args: object) -> None:
    """Log a warning on the named logger.

    ``logging`` is imported here, on the first warning, rather than at
    module level: a run that warns about nothing never loads it.
    """
    import logging
    logging.getLogger(logger_name).warning(message, *args)
