"""Exception types raised across the pipeline, and the one warning helper.

Every error an input can cause names where to fix it: ingestion errors
carry the file label and line number, and the engine's faults the
datacenters.csv or tenants.csv row of the record they occurred in.
"""

from __future__ import annotations

__all__ = [
    "CarbonAllocError",
    "UnitError",
    "IngestError",
    "MalformedRow",
    "RangeError",
    "DuplicateId",
    "UnknownTenant",
    "UnknownDataCenter",
    "OrphanUsage",
    "DuplicateDevice",
    "MissingModel",
    "ValidationFailure",
    "PowerModelError",
    "InsufficientSamples",
    "SingularDesign",
    "ZeroDenominator",
    "ZeroDcScope2",
]


class CarbonAllocError(Exception):
    """Base class for all errors raised by this package."""


class UnitError(CarbonAllocError, ValueError):
    """A unit-bearing value violated its invariant (sign, range, finiteness)."""


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


class IngestError(CarbonAllocError):
    """Base class for CSV parsing and cross-reference validation errors."""


def _at(locations: tuple[str, ...]) -> str:
    """The ``" (at a, b)"`` suffix naming an error's input rows, if any."""
    return f" (at {', '.join(locations)})" if locations else ""


class MalformedRow(IngestError):
    """A CSV line could not be parsed (column count, bad number, bad header)
    or written (a value the format cannot carry).

    Line 0 stands for the file as a whole: one that cannot be read, or an
    input directory missing some of its files.
    """

    def __init__(self, source: str, line_no: int, reason: str):
        self.source = source
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{source}:{line_no}: {reason}")


class RangeError(IngestError):
    """A parsed value falls outside its documented bounds."""

    def __init__(self, source: str, line_no: int, field: str, value: float, bounds: str):
        self.source = source
        self.line_no = line_no
        self.field = field
        self.value = value
        self.bounds = bounds
        super().__init__(f"{source}:{line_no}: {field}={value!r} outside {bounds}")


class DuplicateId(IngestError):
    """An identifier that must be unique appeared more than once."""

    def __init__(self, source: str, line_no: int, entity: str, identifier: str):
        self.source = source
        self.line_no = line_no
        self.entity = entity
        self.identifier = identifier
        super().__init__(f"{source}:{line_no}: duplicate {entity} {identifier!r}")


class UnknownTenant(IngestError):
    """A tenant the tenant file does not declare, named by a usage row or
    asked of :func:`carbonalloc.allocation.tenant_footprint`."""

    def __init__(self, tenant_id: str, locations: tuple[str, ...] = ()):
        self.tenant_id = tenant_id
        self.locations = locations
        super().__init__(f"unknown tenant {tenant_id!r}{_at(locations)}")


class UnknownDataCenter(IngestError):
    """A record references a data center that is not in the data center file."""

    def __init__(self, datacenter_id: str, locations: tuple[str, ...] = ()):
        self.datacenter_id = datacenter_id
        self.locations = locations
        super().__init__(f"unknown data center {datacenter_id!r}{_at(locations)}")


class OrphanUsage(IngestError):
    """A usage row's tenant does not list the data center the device is in."""

    def __init__(self, device_id: str, tenant_id: str, datacenter_id: str,
                 locations: tuple[str, ...] = ()):
        self.device_id = device_id
        self.tenant_id = tenant_id
        self.datacenter_id = datacenter_id
        self.locations = locations
        super().__init__(
            f"usage for device {device_id!r}: tenant {tenant_id!r} does not "
            f"use data center {datacenter_id!r}{_at(locations)}"
        )


class DuplicateDevice(IngestError):
    """A server device appears in more than one usage row for the period."""

    def __init__(self, datacenter_id: str, device_id: str, tenant_ids: tuple[str, ...],
                 locations: tuple[str, ...] = ()):
        self.datacenter_id = datacenter_id
        self.device_id = device_id
        self.tenant_ids = tenant_ids
        self.locations = locations
        detail = ("shared between tenants " + ", ".join(sorted(set(tenant_ids)))
                  if len(set(tenant_ids)) > 1 else "listed more than once")
        super().__init__(
            f"server device {device_id!r} in {datacenter_id!r} {detail}{_at(locations)}"
        )


class MissingModel(IngestError):
    """Usage rows name one or more device models models.csv does not define.

    ``first_rows`` maps each model to the ``file:line`` of the first usage
    row that names it, or to "" when the row has none.
    """

    def __init__(self, first_rows: dict[str, str]):
        self.device_models = tuple(sorted(first_rows))
        super().__init__(
            "no calibrated power model for device model(s): "
            + ", ".join(f"{name} ({first_rows[name]})" if first_rows[name] else name
                        for name in self.device_models)
        )


class ValidationFailure(IngestError):
    """Aggregate of every cross-reference error found while assembling a period.

    ``errors`` holds the individual typed errors (UnknownTenant, OrphanUsage,
    ...) so callers can report them all at once instead of fixing one per run.
    """

    def __init__(self, errors: list[IngestError]):
        self.errors = list(errors)
        lines = "\n  ".join(str(e) for e in self.errors)
        super().__init__(f"{len(self.errors)} validation error(s):\n  {lines}")


# ---------------------------------------------------------------------------
# Power models
# ---------------------------------------------------------------------------


class PowerModelError(CarbonAllocError):
    """Base class for server/network power estimation errors."""


class InsufficientSamples(PowerModelError):
    """Too few calibration samples to fit the server model."""

    def __init__(self, count: int, minimum: int):
        self.count = count
        self.minimum = minimum
        super().__init__(f"{count} calibration sample(s); at least {minimum} required")


class SingularDesign(PowerModelError):
    """The calibration design matrix is rank deficient (constant or collinear)."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"singular calibration design: {detail}")


# ---------------------------------------------------------------------------
# Allocation
# ---------------------------------------------------------------------------


class ZeroDenominator(UnitError):
    """Shared energy exists but no tenant consumed any direct energy; phase 1
    prefixes it, as any unit error, with the data center's row."""

    def __init__(self, context: str = ""):
        self.context = context
        detail = f" in {context}" if context else ""
        super().__init__(
            f"shared energy cannot be allocated{detail}: total direct tenant energy is zero"
        )


class ZeroDcScope2(CarbonAllocError):
    """A data center, at ``location`` (its datacenters.csv row, if any), has
    Scope 1/3 to distribute but zero Scope 2 emissions."""

    def __init__(self, datacenter_id: str, location: str = ""):
        self.datacenter_id = datacenter_id
        where = f"{location}: " if location else ""
        super().__init__(
            f"{where}data center {datacenter_id!r} has Scope 1 or Scope 3 emissions to "
            "distribute but zero Scope 2 emissions; responsibility shares are undefined"
        )


def warn(logger_name: str, message: str, *args: object) -> None:
    """Log a warning on the named logger.

    ``logging`` is imported here, on the first warning, rather than at
    module level: a run that warns about nothing never loads it.
    """
    import logging
    logging.getLogger(logger_name).warning(message, *args)
