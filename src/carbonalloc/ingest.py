"""CSV ingestion for the four period input files.

Every input file is a UTF-8 CSV whose first line must be the literal comment
``# schema_version=1``. Headers are matched case-insensitively and unknown
columns are ignored, so exports may carry extra operator columns without
breaking ingestion. Blank lines and ``#`` comment lines are skipped.

Files and their required columns:

* ``servers.csv``: datacenter_id, device_id, device_model, tenant_id,
  cpu_utilization, cache_moved, dram_accessed, disk_moved
* ``network.csv``: datacenter_id, device_id, device_type, tenant_id,
  bytes_sent, bytes_received
* ``datacenters.csv``: datacenter_id, name, region, grid_intensity,
  cooling_devices, other_devices, fuel_log; optional scope3_total,
  green_energy, rec_offset (default 0)
* ``tenants.csv``: tenant_id, display_name, agent_count, datacenter_ids;
  optional l_share (default 1.0)

Multi-value cells use ``;`` between entries and ``:`` within an entry:
cooling/other devices are ``DEVICE_ID:ENERGY_WH`` pairs
(``CRAC_1:10000;CRAC_2:5000``) and fuel log entries are
``DEVICE_ID:AMOUNT:EMISSION_FACTOR`` triples (``GEN_1:1000:2.5``, yielding
1000 * 2.5 gCO2e of Scope 1).

Parsers fail fast on syntax problems (:class:`MalformedRow`,
:class:`RangeError`, :class:`DuplicateId`); cross-file reference problems are
collected in bulk by :func:`assemble_raw_data` and raised together as one
:class:`ValidationFailure` so a single run surfaces every broken reference.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (
    DuplicateDevice,
    DuplicateId,
    IngestError,
    MalformedRow,
    OrphanUsage,
    RangeError,
    UnknownDataCenter,
    UnknownTenant,
    ValidationFailure,
)
from .units import CarbonIntensity, EmissionsG, EnergyWh, Period, Share

__all__ = [
    "ServerUsage",
    "NetworkUsage",
    "SharedDevice",
    "FuelEntry",
    "DataCenter",
    "Tenant",
    "RawData",
    "read_servers",
    "read_network",
    "read_datacenters",
    "read_tenants",
    "assemble_raw_data",
    "load_input_dir",
    "INPUT_FILE_NAMES",
    "ID_PATTERN",
]

SCHEMA_LINE = "# schema_version=1"

# Fixed file names expected inside an input directory.
INPUT_FILE_NAMES = {
    "servers": "servers.csv",
    "network": "network.csv",
    "datacenters": "datacenters.csv",
    "tenants": "tenants.csv",
}

# Tenant and data center ids name report and history paths, so they may not
# contain a path separator or be "." or "..".
ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")

# Device byte counters are 64-bit; the bound also keeps network energy finite.
_BYTE_COUNT_LIMIT = 2**64

# Every whole number below 2**53 is exactly representable as a float.
_FLOAT_EXACT_LIMIT = 2**53


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ServerUsage:
    """One server's per-period usage counters, attributed to a single tenant."""

    datacenter_id: str
    device_id: str
    device_model: str
    tenant_id: str
    cpu_utilization: float
    cache_moved: float
    dram_accessed: float
    disk_moved: float
    source_ref: str = field(default="", compare=False)


@dataclass(frozen=True, slots=True)
class NetworkUsage:
    """One tenant's per-period traffic through one network device.

    The same device may appear in several rows (one per tenant); byte
    counters are whole numbers.
    """

    datacenter_id: str
    device_id: str
    device_type: str
    tenant_id: str
    bytes_sent: int
    bytes_received: int
    source_ref: str = field(default="", compare=False)


@dataclass(frozen=True, slots=True)
class SharedDevice:
    """A cooling or facility device with a metered per-period energy reading."""

    device_id: str
    energy: EnergyWh


@dataclass(frozen=True, slots=True)
class FuelEntry:
    """On-site fuel burned by one device: amount times factor is gCO2e."""

    device_id: str
    amount: float
    emission_factor: float

    @property
    def emissions(self) -> EmissionsG:
        return EmissionsG(self.amount * self.emission_factor)


@dataclass(frozen=True, slots=True)
class DataCenter:
    datacenter_id: str
    name: str
    region: str
    grid_intensity: CarbonIntensity
    cooling_devices: tuple[SharedDevice, ...]
    other_devices: tuple[SharedDevice, ...]
    fuel_log: tuple[FuelEntry, ...]
    scope3_total: EmissionsG = EmissionsG(0.0)
    green_energy: EnergyWh = EnergyWh(0.0)
    rec_offset: EmissionsG = EmissionsG(0.0)


@dataclass(frozen=True, slots=True)
class Tenant:
    tenant_id: str
    display_name: str
    agent_count: int
    datacenter_ids: tuple[str, ...]
    l_share: Share = Share(1.0)


@dataclass(frozen=True)
class RawData:
    """All ingested inputs for one reporting period, cross-validated."""

    period: Period
    servers: tuple[ServerUsage, ...]
    network: tuple[NetworkUsage, ...]
    datacenters: dict[str, DataCenter]
    tenants: dict[str, Tenant]


# ---------------------------------------------------------------------------
# Low-level CSV plumbing
# ---------------------------------------------------------------------------


def _iter_csv(lines: Iterable[str], source: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_no, cells) for content rows, enforcing the schema line."""
    it = iter(lines)
    try:
        first = next(it)
    except StopIteration:
        raise MalformedRow(source, 1, "empty file; expected schema comment "
                                      f"{SCHEMA_LINE!r}") from None
    if first.strip().replace(" ", "") != SCHEMA_LINE.replace(" ", ""):
        raise MalformedRow(
            source, 1,
            f"first line must be {SCHEMA_LINE!r}, got {first.strip()!r}",
        )
    for line_no, raw in enumerate(it, start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = next(csv.reader([raw]))
        yield line_no, [c.strip() for c in cells]


class _Header:
    """Case-insensitive header lookup; every ``required`` column must exist."""

    def __init__(self, source: str, line_no: int, cells: list[str],
                 required: tuple[str, ...]):
        self.source = source
        self._index: dict[str, int] = {}
        for i, name in enumerate(cells):
            key = name.lower()
            if key in self._index:
                raise MalformedRow(source, line_no, f"duplicate column {name!r}")
            self._index[key] = i
        missing = [c for c in required if c not in self._index]
        if missing:
            raise MalformedRow(
                source, line_no, "missing required column(s): " + ", ".join(missing)
            )

    def get(self, cells: list[str], line_no: int, column: str,
            default: str | None = None) -> str:
        i = self._index.get(column)
        if i is None or i >= len(cells):
            if default is not None:
                return default
            raise MalformedRow(self.source, line_no, f"missing value for {column!r}")
        text = cells[i]
        if not text and default is not None:
            return default
        if not text:
            raise MalformedRow(self.source, line_no, f"empty value for {column!r}")
        return text


def _parse_float(text: str, source: str, line_no: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(source, line_no,
                           f"{column}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(source, line_no, f"{column}: non-finite value {text!r}")
    return value


def _parse_nonneg(text: str, source: str, line_no: int, column: str) -> float:
    value = _parse_float(text, source, line_no, column)
    if value < 0:
        raise RangeError(source, line_no, column, value, "[0, inf)")
    return value


def _parse_byte_count(text: str, source: str, line_no: int, column: str) -> int:
    """A whole byte count in [0, 2**64), never rounded.

    Digit-only cells are parsed as int. Other spellings (``1e12``, ``5.0``)
    go through float, so they must stay below 2**53 to be exact.
    """
    if text.isascii() and text.isdigit():
        try:
            value = int(text)
        except ValueError:  # more digits than int() converts
            value = math.inf
        if value >= _BYTE_COUNT_LIMIT:
            raise RangeError(source, line_no, column, value, "[0, 2**64)")
        return value
    number = _parse_nonneg(text, source, line_no, column)
    if number != int(number):
        raise RangeError(source, line_no, column, number, "whole numbers")
    if number >= _FLOAT_EXACT_LIMIT:
        raise RangeError(source, line_no, column, number,
                         "[0, 2**53) unless written as plain digits")
    return int(number)


def _parse_id(text: str, source: str, line_no: int, column: str) -> str:
    if ID_PATTERN.fullmatch(text) is None:
        raise MalformedRow(
            source, line_no,
            f"{column}: {text!r} is not a valid id (letters, digits, '_', '.' "
            "and '-', starting with a letter or digit)")
    return text


def _read_lines(path: Path) -> list[str]:
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise MalformedRow(str(path), 0, f"cannot read file: {exc}") from exc


# ---------------------------------------------------------------------------
# File readers
# ---------------------------------------------------------------------------


def read_servers(path: Path | str, source: str | None = None) -> tuple[ServerUsage, ...]:
    """Parse servers.csv into usage records. Fails fast on the first bad row."""
    path = Path(path)
    source = source or path.name
    rows = _iter_csv(_read_lines(path), source)
    header_line, header_cells = next(rows)
    header = _Header(source, header_line, header_cells, required=(
        "datacenter_id", "device_id", "device_model", "tenant_id",
        "cpu_utilization", "cache_moved", "dram_accessed", "disk_moved",
    ))
    out: list[ServerUsage] = []
    for line_no, cells in rows:
        util = _parse_float(header.get(cells, line_no, "cpu_utilization"),
                            source, line_no, "cpu_utilization")
        if not 0.0 <= util <= 1.0:
            raise RangeError(source, line_no, "cpu_utilization", util, "[0, 1]")
        out.append(ServerUsage(
            datacenter_id=_parse_id(header.get(cells, line_no, "datacenter_id"),
                                    source, line_no, "datacenter_id"),
            device_id=header.get(cells, line_no, "device_id"),
            device_model=header.get(cells, line_no, "device_model"),
            tenant_id=_parse_id(header.get(cells, line_no, "tenant_id"),
                                source, line_no, "tenant_id"),
            cpu_utilization=util,
            cache_moved=_parse_nonneg(header.get(cells, line_no, "cache_moved"),
                                      source, line_no, "cache_moved"),
            dram_accessed=_parse_nonneg(header.get(cells, line_no, "dram_accessed"),
                                        source, line_no, "dram_accessed"),
            disk_moved=_parse_nonneg(header.get(cells, line_no, "disk_moved"),
                                     source, line_no, "disk_moved"),
            source_ref=f"{source}:{line_no}",
        ))
    return tuple(out)


def read_network(path: Path | str, source: str | None = None) -> tuple[NetworkUsage, ...]:
    """Parse network.csv into per-tenant traffic records."""
    path = Path(path)
    source = source or path.name
    rows = _iter_csv(_read_lines(path), source)
    header_line, header_cells = next(rows)
    header = _Header(source, header_line, header_cells, required=(
        "datacenter_id", "device_id", "device_type", "tenant_id",
        "bytes_sent", "bytes_received",
    ))
    out: list[NetworkUsage] = []
    for line_no, cells in rows:
        out.append(NetworkUsage(
            datacenter_id=_parse_id(header.get(cells, line_no, "datacenter_id"),
                                    source, line_no, "datacenter_id"),
            device_id=header.get(cells, line_no, "device_id"),
            device_type=header.get(cells, line_no, "device_type"),
            tenant_id=_parse_id(header.get(cells, line_no, "tenant_id"),
                                source, line_no, "tenant_id"),
            bytes_sent=_parse_byte_count(header.get(cells, line_no, "bytes_sent"),
                                         source, line_no, "bytes_sent"),
            bytes_received=_parse_byte_count(
                header.get(cells, line_no, "bytes_received"),
                source, line_no, "bytes_received"),
            source_ref=f"{source}:{line_no}",
        ))
    return tuple(out)


def _parse_shared_devices(cell: str, source: str, line_no: int,
                          column: str) -> tuple[SharedDevice, ...]:
    if not cell:
        return ()
    devices: list[SharedDevice] = []
    for entry in cell.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) != 2:
            raise MalformedRow(
                source, line_no,
                f"{column}: expected DEVICE_ID:ENERGY_WH, got {entry!r}")
        device_id, energy_text = parts[0].strip(), parts[1].strip()
        if not device_id:
            raise MalformedRow(source, line_no, f"{column}: empty device id in {entry!r}")
        energy = _parse_nonneg(energy_text, source, line_no, f"{column} energy")
        devices.append(SharedDevice(device_id, EnergyWh(energy)))
    return tuple(devices)


def _parse_fuel_log(cell: str, source: str, line_no: int) -> tuple[FuelEntry, ...]:
    if not cell:
        return ()
    entries: list[FuelEntry] = []
    for entry in cell.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) != 3:
            raise MalformedRow(
                source, line_no,
                f"fuel_log: expected DEVICE_ID:AMOUNT:EMISSION_FACTOR, got {entry!r}")
        device_id = parts[0].strip()
        if not device_id:
            raise MalformedRow(source, line_no, f"fuel_log: empty device id in {entry!r}")
        amount = _parse_nonneg(parts[1].strip(), source, line_no, "fuel_log amount")
        factor = _parse_nonneg(parts[2].strip(), source, line_no,
                               "fuel_log emission_factor")
        entries.append(FuelEntry(device_id, amount, factor))
    return tuple(entries)


def read_datacenters(path: Path | str,
                     source: str | None = None) -> dict[str, DataCenter]:
    """Parse datacenters.csv keyed by datacenter_id."""
    path = Path(path)
    source = source or path.name
    rows = _iter_csv(_read_lines(path), source)
    header_line, header_cells = next(rows)
    header = _Header(
        source, header_line, header_cells,
        required=("datacenter_id", "name", "region", "grid_intensity",
                  "cooling_devices", "other_devices", "fuel_log"),
    )
    out: dict[str, DataCenter] = {}
    for line_no, cells in rows:
        dc_id = _parse_id(header.get(cells, line_no, "datacenter_id"),
                          source, line_no, "datacenter_id")
        if dc_id in out:
            raise DuplicateId(source, line_no, "data center", dc_id)
        cooling = _parse_shared_devices(
            header.get(cells, line_no, "cooling_devices", default=""),
            source, line_no, "cooling_devices")
        other = _parse_shared_devices(
            header.get(cells, line_no, "other_devices", default=""),
            source, line_no, "other_devices")
        seen: set[str] = set()
        for dev in (*cooling, *other):
            if dev.device_id in seen:
                raise DuplicateId(source, line_no, "shared device", dev.device_id)
            seen.add(dev.device_id)
        out[dc_id] = DataCenter(
            datacenter_id=dc_id,
            name=header.get(cells, line_no, "name"),
            region=header.get(cells, line_no, "region"),
            grid_intensity=CarbonIntensity(_parse_nonneg(
                header.get(cells, line_no, "grid_intensity"),
                source, line_no, "grid_intensity")),
            cooling_devices=cooling,
            other_devices=other,
            fuel_log=_parse_fuel_log(
                header.get(cells, line_no, "fuel_log", default=""), source, line_no),
            scope3_total=EmissionsG(_parse_nonneg(
                header.get(cells, line_no, "scope3_total", default="0"),
                source, line_no, "scope3_total")),
            green_energy=EnergyWh(_parse_nonneg(
                header.get(cells, line_no, "green_energy", default="0"),
                source, line_no, "green_energy")),
            rec_offset=EmissionsG(_parse_nonneg(
                header.get(cells, line_no, "rec_offset", default="0"),
                source, line_no, "rec_offset")),
        )
    return out


def read_tenants(path: Path | str, source: str | None = None) -> dict[str, Tenant]:
    """Parse tenants.csv keyed by tenant_id."""
    path = Path(path)
    source = source or path.name
    rows = _iter_csv(_read_lines(path), source)
    header_line, header_cells = next(rows)
    header = _Header(
        source, header_line, header_cells,
        required=("tenant_id", "display_name", "agent_count", "datacenter_ids"),
    )
    out: dict[str, Tenant] = {}
    for line_no, cells in rows:
        tenant_id = _parse_id(header.get(cells, line_no, "tenant_id"),
                              source, line_no, "tenant_id")
        if tenant_id in out:
            raise DuplicateId(source, line_no, "tenant", tenant_id)
        agents = _parse_float(header.get(cells, line_no, "agent_count"),
                              source, line_no, "agent_count")
        if agents != int(agents) or agents < 1:
            raise RangeError(source, line_no, "agent_count", agents,
                             "whole numbers >= 1")
        l_share = _parse_float(header.get(cells, line_no, "l_share", default="1.0"),
                               source, line_no, "l_share")
        if not 0.0 <= l_share <= 1.0:
            raise RangeError(source, line_no, "l_share", l_share, "[0, 1]")
        dc_ids = tuple(
            _parse_id(part.strip(), source, line_no, "datacenter_ids")
            for part in header.get(cells, line_no, "datacenter_ids").split(";")
            if part.strip()
        )
        if not dc_ids:
            raise MalformedRow(source, line_no, "datacenter_ids: empty list")
        if len(set(dc_ids)) != len(dc_ids):
            raise MalformedRow(source, line_no,
                               f"datacenter_ids: duplicate entries in {dc_ids}")
        out[tenant_id] = Tenant(
            tenant_id=tenant_id,
            display_name=header.get(cells, line_no, "display_name"),
            agent_count=int(agents),
            datacenter_ids=dc_ids,
            l_share=Share(l_share),
        )
    return out


# ---------------------------------------------------------------------------
# Cross-file validation
# ---------------------------------------------------------------------------


def assemble_raw_data(period: Period,
                      datacenters: dict[str, DataCenter],
                      tenants: dict[str, Tenant],
                      servers: tuple[ServerUsage, ...],
                      network: tuple[NetworkUsage, ...]) -> RawData:
    """Cross-validate the four inputs and bundle them for the engine.

    All reference errors are collected and raised together as one
    :class:`ValidationFailure`; nothing short-circuits, so operators get the
    complete fix list in a single run.
    """
    errors: list[IngestError] = []

    unknown_tenants: dict[str, list[str]] = {}
    unknown_dcs: dict[str, list[str]] = {}

    def check_refs(dc_id: str, tenant_id: str, device_id: str, ref: str) -> None:
        known_tenant = tenant_id in tenants
        known_dc = dc_id in datacenters
        if not known_tenant:
            unknown_tenants.setdefault(tenant_id, []).append(ref)
        if not known_dc:
            unknown_dcs.setdefault(dc_id, []).append(ref)
        if known_tenant and known_dc and dc_id not in tenants[tenant_id].datacenter_ids:
            errors.append(OrphanUsage(device_id, tenant_id, dc_id, (ref,)))

    # A server is attributed whole to one tenant: the same device appearing
    # twice (same or different tenant) would double-count its energy.
    server_rows: dict[tuple[str, str], list[ServerUsage]] = {}
    for row in servers:
        server_rows.setdefault((row.datacenter_id, row.device_id), []).append(row)
        check_refs(row.datacenter_id, row.tenant_id, row.device_id, row.source_ref)
    for (dc_id, device_id), rows in sorted(server_rows.items()):
        if len(rows) > 1:
            errors.append(DuplicateDevice(
                dc_id, device_id,
                tuple(r.tenant_id for r in rows),
                tuple(r.source_ref for r in rows),
            ))

    # Network devices are shared: one row per (device, tenant) is expected,
    # but the same triple twice would double-count that tenant's traffic.
    seen_network: dict[tuple[str, str, str], str] = {}
    for row in network:
        key = (row.datacenter_id, row.device_id, row.tenant_id)
        if key in seen_network:
            errors.append(DuplicateId(
                row.source_ref.split(":")[0] or "network",
                int(row.source_ref.split(":")[1]) if ":" in row.source_ref else 0,
                "network usage (device, tenant) pair",
                f"{row.device_id}/{row.tenant_id}",
            ))
        else:
            seen_network[key] = row.source_ref
        check_refs(row.datacenter_id, row.tenant_id, row.device_id, row.source_ref)

    for tenant in tenants.values():
        for dc_id in tenant.datacenter_ids:
            if dc_id not in datacenters:
                unknown_dcs.setdefault(dc_id, []).append(
                    f"tenants:{tenant.tenant_id}")

    for tenant_id in sorted(unknown_tenants):
        errors.append(UnknownTenant(tenant_id, tuple(unknown_tenants[tenant_id])))
    for dc_id in sorted(unknown_dcs):
        errors.append(UnknownDataCenter(dc_id, tuple(unknown_dcs[dc_id])))

    if errors:
        raise ValidationFailure(errors)
    return RawData(period=period, servers=servers, network=network,
                   datacenters=dict(datacenters), tenants=dict(tenants))


def load_input_dir(input_dir: Path | str, period: Period) -> RawData:
    """Read the four fixed-name CSVs from a directory and cross-validate.

    The reporting period comes from the caller (a CLI flag in practice); it
    is never inferred from file contents.
    """
    input_dir = Path(input_dir)
    missing = [name for name in INPUT_FILE_NAMES.values()
               if not (input_dir / name).is_file()]
    if missing:
        raise MalformedRow(str(input_dir), 0,
                           "missing input file(s): " + ", ".join(sorted(missing)))
    return assemble_raw_data(
        period=period,
        datacenters=read_datacenters(input_dir / INPUT_FILE_NAMES["datacenters"]),
        tenants=read_tenants(input_dir / INPUT_FILE_NAMES["tenants"]),
        servers=read_servers(input_dir / INPUT_FILE_NAMES["servers"]),
        network=read_network(input_dir / INPUT_FILE_NAMES["network"]),
    )
