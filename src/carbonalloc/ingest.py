"""CSV ingestion: the table format of every CSV, and the four period input files.

Every input file is a UTF-8 CSV whose first line must be the literal comment
``# schema_version=1``. Headers are matched case-insensitively and unknown
columns are ignored, so exports may carry extra operator columns without
breaking ingestion. :func:`read_table` reads every such file, including the
power models and calibration samples, by these rules:

* RFC 4180 quoting: a quoted cell may hold ``,``, a doubled ``"`` and line
  breaks. Only CR and LF end a line (U+2028 and the like are cell text).
* Blank records, and records whose first cell starts with ``#``, are
  skipped.
* Surrounding whitespace is stripped from every cell.
* A record's ``file:line`` ref, and every error about it, names the
  file's name and the record's first line.
* Undecodable or oversized input, and a quote left open, are a
  ``file:line`` :class:`MalformedRow`.

:func:`read_table` returns a table that holds every data record in memory
at once. The large usage files, servers.csv and network.csv, are checked a
column at a time: each column is converted in one pass and checked with
one expression (ids once per distinct id). Only when a check fails are the
records parsed again row by row, by the getters that read the small files,
to raise the error for the first bad row.

:func:`format_table` formats the same text and refuses a value it cannot
carry (a first cell starting with ``#``, or surrounding whitespace);
:func:`write_table` writes it.

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
import io
import itertools
import math
import re
import sys
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

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
from .units import Period

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
    "read_table",
    "format_table",
    "write_table",
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


def _eq_but_source(self, other: object) -> bool:
    """Equal when ``other`` is a record of the same type whose fields match,
    ``source_ref`` (the last field) aside."""
    return type(other) is type(self) and self[:-1] == other[:-1]


def _ne_but_source(self, other: object) -> bool:
    return not _eq_but_source(self, other)


def _hash_but_source(self) -> int:
    return hash(self[:-1])


class ServerUsage(NamedTuple):
    """One server's per-period usage counters, attributed to a single tenant.

    Equality and hash ignore ``source_ref``, as for every record that
    carries one.
    """

    datacenter_id: str
    device_id: str
    device_model: str
    tenant_id: str
    cpu_utilization: float
    cache_moved: float
    dram_accessed: float
    disk_moved: float
    source_ref: str = ""

    __eq__, __ne__, __hash__ = _eq_but_source, _ne_but_source, _hash_but_source


class NetworkUsage(NamedTuple):
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
    source_ref: str = ""

    __eq__, __ne__, __hash__ = _eq_but_source, _ne_but_source, _hash_but_source


class SharedDevice(NamedTuple):
    """A cooling or facility device with a metered per-period energy reading."""

    device_id: str
    energy: float


class FuelEntry(NamedTuple):
    """On-site fuel burned by one device: amount times factor is gCO2e."""

    device_id: str
    amount: float
    emission_factor: float


class DataCenter(NamedTuple):
    datacenter_id: str
    name: str
    region: str
    grid_intensity: float
    cooling_devices: tuple[SharedDevice, ...]
    other_devices: tuple[SharedDevice, ...]
    fuel_log: tuple[FuelEntry, ...]
    scope3_total: float = 0.0
    green_energy: float = 0.0
    rec_offset: float = 0.0
    source_ref: str = ""

    __eq__, __ne__, __hash__ = _eq_but_source, _ne_but_source, _hash_but_source


class Tenant(NamedTuple):
    tenant_id: str
    display_name: str
    agent_count: int
    datacenter_ids: tuple[str, ...]
    l_share: float = 1.0
    source_ref: str = ""

    __eq__, __ne__, __hash__ = _eq_but_source, _ne_but_source, _hash_but_source


class RawData(NamedTuple):
    """All ingested inputs for one reporting period, cross-validated."""

    period: Period
    servers: tuple[ServerUsage, ...]
    network: tuple[NetworkUsage, ...]
    datacenters: dict[str, DataCenter]
    tenants: dict[str, Tenant]


# ---------------------------------------------------------------------------
# The CSV table format
# ---------------------------------------------------------------------------


class _Row:
    """One record of a table, with getters that parse a named column.

    Every error a getter raises carries the record's file and first line.
    """

    __slots__ = ("source", "line_no", "_cells", "_index")

    def __init__(self, source: str, line_no: int, cells: list[str],
                 index: dict[str, int]):
        self.source = source
        self.line_no = line_no
        self._cells = cells
        self._index = index

    @property
    def ref(self) -> str:
        return f"{self.source}:{self.line_no}"

    def error(self, reason: str) -> MalformedRow:
        return MalformedRow(self.source, self.line_no, reason)

    def out_of_range(self, label: str, value: float, bounds: str) -> RangeError:
        return RangeError(self.source, self.line_no, label, value, bounds)

    def text(self, column: str, default: str | None = None) -> str:
        """The stripped cell; ``default`` stands in for an absent or empty one."""
        try:
            text = self._cells[self._index[column]]
        except (KeyError, IndexError):
            if default is None:
                raise self.error(f"missing value for {column!r}") from None
            return default
        if text:
            return text
        if default is None:
            raise self.error(f"empty value for {column!r}")
        return default

    def number(self, column: str, default: str | None = None) -> float:
        return self.parse_number(self.text(column, default), column)

    def nonneg(self, column: str, default: str | None = None) -> float:
        return self.parse_nonneg(self.text(column, default), column)

    def id(self, column: str) -> str:
        return self.parse_id(self.text(column), column)

    def byte_count(self, column: str) -> int:
        """A whole byte count in [0, 2**64), never rounded.

        Digit-only cells are parsed as int. Other spellings (``1e12``,
        ``5.0``) go through float, so they must stay below 2**53 to be exact.
        """
        text = self.text(column)
        if text.isascii() and text.isdigit():
            try:
                value = int(text)
            except ValueError:  # more digits than int() converts
                value = math.inf
            if value >= _BYTE_COUNT_LIMIT:
                raise self.out_of_range(column, value, "[0, 2**64)")
            return value
        number = self.parse_nonneg(text, column)
        if number != int(number):
            raise self.out_of_range(column, number, "whole numbers")
        if number >= _FLOAT_EXACT_LIMIT:
            raise self.out_of_range(column, number,
                                    "[0, 2**53) unless written as plain digits")
        return int(number)

    # Parsers for the parts of a multi-value cell, labelled by the caller.

    def parse_number(self, text: str, label: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise self.error(f"{label}: not a number: {text!r}") from None
        if not math.isfinite(value):
            raise self.error(f"{label}: non-finite value {text!r}")
        return value

    def parse_nonneg(self, text: str, label: str) -> float:
        value = self.parse_number(text, label)
        if value < 0:
            raise self.out_of_range(label, value, "[0, inf)")
        return value

    def parse_id(self, text: str, label: str) -> str:
        if ID_PATTERN.fullmatch(text) is None:
            raise self.error(
                f"{label}: {text!r} is not a valid id (letters, digits, '_', '.' "
                "and '-', starting with a letter or digit)")
        return text


@dataclass(frozen=True, slots=True)
class _Table:
    """A table's data records: each one's stripped cells and first line.

    Iterating a table yields its records as :class:`_Row`, in file order.
    """

    source: str
    index: dict[str, int]
    line_nos: list[int]
    records: list[list[str]]

    def __iter__(self) -> Iterator[_Row]:
        source, index = self.source, self.index
        for line_no, cells in zip(self.line_nos, self.records):
            yield _Row(source, line_no, cells, index)

    def columns(self, names: tuple[str, ...]) -> list[list[str]] | None:
        """The cells of each named column, in record order; None when the
        table is empty or a record is too short to hold every one."""
        at = [self.index[name] for name in names]
        if not self.records or min(map(len, self.records)) <= max(at):
            return None
        return [[*map(itemgetter(i), self.records)] for i in at]

    def refs(self) -> list[str]:
        """Each record's ``file:line``, as :attr:`_Row.ref` spells it."""
        return [*map(f"{self.source}:".__add__, map(str, self.line_nos))]


def read_table(path: Path | str, required: tuple[str, ...]) -> _Table:
    """Read the records after a table's schema line and header.

    The file is decoded and parsed whole, as described in the module
    docstring. Every ``required`` column must appear in the header; other
    columns are ignored. Errors are :class:`MalformedRow` at the first line
    of the offending record, labelled with the file name, as every record's
    ``file:line`` ref is; a file that cannot be read is named by its path,
    at line 0.
    """
    path = Path(path)
    source = path.name
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise MalformedRow(str(path), 0,
                           f"cannot read file: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(source, data.count(b"\n", 0, exc.start) + 1,
                           f"not UTF-8 text: {exc.reason} at byte {exc.start}"
                           ) from None
    # newline="" hands csv every line break untouched; only CR and LF end a
    # line, where str.splitlines would also split on U+2028, U+0085, ...
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    index: dict[str, int] | None = None
    line_nos: list[int] = []
    records: list[list[str]] = []
    end = 0  # last line of the previous record
    try:
        first = next(reader, None)
        if first is None:
            raise MalformedRow(source, 1, "empty file; expected schema comment "
                                          f"{SCHEMA_LINE!r}")
        schema = ",".join(first).strip()
        if schema.replace(" ", "") != SCHEMA_LINE.replace(" ", ""):
            raise MalformedRow(
                source, 1, f"first line must be {SCHEMA_LINE!r}, got {schema!r}")
        end = reader.line_num
        for cells in reader:
            line_no, end = end + 1, reader.line_num
            cells = [*map(str.strip, cells)]
            if not cells or cells[0].startswith("#") or cells == [""]:
                continue
            if index is not None:
                line_nos.append(line_no)
                records.append(cells)
                continue
            index = {}
            for i, name in enumerate(cells):
                if name.lower() in index:
                    raise MalformedRow(source, line_no, f"duplicate column {name!r}")
                index[name.lower()] = i
            missing = [c for c in required if c not in index]
            if missing:
                raise MalformedRow(source, line_no, "missing required column(s): "
                                   + ", ".join(missing))
    except csv.Error as exc:
        raise MalformedRow(source, end + 1, f"malformed CSV: {exc}") from None
    if index is None:
        raise MalformedRow(source, end + 1,
                           f"no header row after {SCHEMA_LINE!r}")
    return _Table(source, index, line_nos, records)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def format_table(name: str, header: Sequence[str],
                 rows: Iterable[Sequence[str]]) -> str:
    """The text of a table that :func:`read_table` reads back cell for cell.

    Cells holding ``,``, ``"``, CR or LF are quoted. A value the format
    cannot carry raises :class:`MalformedRow` naming file ``name``: a first
    cell starting with ``#`` (it would read back as a comment) and a cell
    with surrounding whitespace (the reader strips it).
    """
    lines = [SCHEMA_LINE]
    for line_no, cells in enumerate(itertools.chain((header,), rows), start=2):
        line = ",".join(cells)
        # Only a line with a comma inside a cell, a '#', a quote or any
        # whitespace (CR and LF included) needs a look at each cell.
        if (line.count(",") >= len(cells) or line.startswith("#")
                or '"' in line or line.split() != [line]):
            if line.startswith("#"):
                raise MalformedRow(name, line_no, f"{header[0]}: {cells[0]!r} "
                                   "cannot be written: it would read as a comment")
            quoted = []
            for column, cell in zip(header, cells, strict=True):
                if cell != cell.strip():
                    raise MalformedRow(name, line_no, f"{column}: {cell!r} "
                                       "cannot be written: surrounding whitespace "
                                       "is not kept")
                if _NEEDS_QUOTES.search(cell):
                    cell = '"' + cell.replace('"', '""') + '"'
                quoted.append(cell)
            line = ",".join(quoted)
        lines.append(line)
    return "\n".join(lines) + "\n"


def write_table(path: Path | str, header: Sequence[str],
                rows: Iterable[Sequence[str]]) -> None:
    """Write :func:`format_table`'s text; a value it refuses writes nothing."""
    path = Path(path)
    path.write_text(format_table(path.name, header, rows), encoding="utf-8")


# ---------------------------------------------------------------------------
# File readers
# ---------------------------------------------------------------------------


_SERVER_COLUMNS = ("datacenter_id", "device_id", "device_model", "tenant_id",
                   "cpu_utilization", "cache_moved", "dram_accessed", "disk_moved")
_NETWORK_COLUMNS = ("datacenter_id", "device_id", "device_type", "tenant_id",
                    "bytes_sent", "bytes_received")


def _server_from_row(row: _Row) -> ServerUsage:
    """One servers.csv record, checked cell by cell: the reference that
    :func:`read_servers`'s column checks must agree with."""
    util = row.number("cpu_utilization")
    if not 0.0 <= util <= 1.0:
        raise row.out_of_range("cpu_utilization", util, "[0, 1]")
    return ServerUsage(
        datacenter_id=row.id("datacenter_id"),
        device_id=row.text("device_id"),
        device_model=row.text("device_model"),
        tenant_id=row.id("tenant_id"),
        cpu_utilization=util,
        cache_moved=row.nonneg("cache_moved"),
        dram_accessed=row.nonneg("dram_accessed"),
        disk_moved=row.nonneg("disk_moved"),
        source_ref=row.ref,
    )


def _network_from_row(row: _Row) -> NetworkUsage:
    """One network.csv record, checked cell by cell: the reference that
    :func:`read_network`'s column checks must agree with."""
    return NetworkUsage(
        datacenter_id=row.id("datacenter_id"),
        device_id=row.text("device_id"),
        device_type=row.text("device_type"),
        tenant_id=row.id("tenant_id"),
        bytes_sent=row.byte_count("bytes_sent"),
        bytes_received=row.byte_count("bytes_received"),
        source_ref=row.ref,
    )


def _ids_valid(*columns: list[str]) -> bool:
    """Whether every cell of the id columns is a valid id, checking each
    distinct id once."""
    return all(map(ID_PATTERN.fullmatch, set().union(*columns)))


def _nonneg_floats(column: list[str]) -> list[float] | None:
    """The column as finite floats >= 0, or None if any cell is not one.

    A NaN or infinity makes the sum non-finite; a sum that overflows from
    finite cells only sends the table to the row-by-row check.
    """
    try:
        values = [*map(float, column)]
    except ValueError:
        return None
    if math.isfinite(sum(values)) and min(values) >= 0.0:
        return values
    return None


def _byte_counts(column: list[str]) -> list[int] | None:
    """The column as whole counts in [0, 2**64) when every cell is plain
    digits, else None: other spellings are checked row by row."""
    digits = "".join(column)
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        values = [*map(int, column)]
    except ValueError:  # an empty cell, or more digits than int() converts
        return None
    return values if max(values) < _BYTE_COUNT_LIMIT else None


def read_servers(path: Path | str) -> tuple[ServerUsage, ...]:
    """Parse servers.csv into usage records, a column at a time; if any
    check fails, row by row, raising the first bad row's error."""
    table = read_table(path, _SERVER_COLUMNS)
    columns = table.columns(_SERVER_COLUMNS)
    if columns is not None:
        dcs, devices, models, tenants, util, *counters = columns
        util = _nonneg_floats(util)
        counters = [*map(_nonneg_floats, counters)]
        if (util is not None and max(util) <= 1.0 and None not in counters
                and all(devices) and all(models) and _ids_valid(dcs, tenants)):
            return tuple(map(ServerUsage._make, zip(
                dcs, devices, models, tenants, util, *counters, table.refs())))
    return tuple(map(_server_from_row, table))


def read_network(path: Path | str) -> tuple[NetworkUsage, ...]:
    """Parse network.csv into per-tenant traffic records, checked as
    :func:`read_servers` checks its table."""
    table = read_table(path, _NETWORK_COLUMNS)
    columns = table.columns(_NETWORK_COLUMNS)
    if columns is not None:
        dcs, devices, types, tenants, sent, received = columns
        sent, received = _byte_counts(sent), _byte_counts(received)
        if (sent is not None and received is not None and all(devices)
                and all(types) and _ids_valid(dcs, tenants)):
            return tuple(map(NetworkUsage._make, zip(
                dcs, devices, types, tenants, sent, received, table.refs())))
    return tuple(map(_network_from_row, table))


def _entries(row: _Row, column: str, spelling: str) -> Iterator[list[str]]:
    """The ``;``-separated entries of a multi-value cell, split on ``:`` into
    as many parts as ``spelling`` has."""
    for entry in row.text(column, default="").split(";"):
        entry = entry.strip()
        if not entry:
            continue
        parts = [part.strip() for part in entry.split(":")]
        if len(parts) != spelling.count(":") + 1:
            raise row.error(f"{column}: expected {spelling}, got {entry!r}")
        if not parts[0]:
            raise row.error(f"{column}: empty device id in {entry!r}")
        yield parts


def _shared_devices(row: _Row, column: str) -> tuple[SharedDevice, ...]:
    return tuple(
        SharedDevice(device_id, row.parse_nonneg(energy, f"{column} energy"))
        for device_id, energy in _entries(row, column, "DEVICE_ID:ENERGY_WH"))


def read_datacenters(path: Path | str) -> dict[str, DataCenter]:
    """Parse datacenters.csv keyed by datacenter_id."""
    out: dict[str, DataCenter] = {}
    for row in read_table(path, (
            "datacenter_id", "name", "region", "grid_intensity",
            "cooling_devices", "other_devices", "fuel_log")):
        dc_id = row.id("datacenter_id")
        if dc_id in out:
            raise DuplicateId(row.source, row.line_no, "data center", dc_id)
        cooling = _shared_devices(row, "cooling_devices")
        other = _shared_devices(row, "other_devices")
        seen: set[str] = set()
        for dev in (*cooling, *other):
            if dev.device_id in seen:
                raise DuplicateId(row.source, row.line_no, "shared device",
                                  dev.device_id)
            seen.add(dev.device_id)
        out[dc_id] = DataCenter(
            datacenter_id=dc_id,
            name=row.text("name"),
            region=row.text("region"),
            grid_intensity=row.nonneg("grid_intensity"),
            cooling_devices=cooling,
            other_devices=other,
            fuel_log=tuple(
                FuelEntry(device_id,
                          row.parse_nonneg(amount, "fuel_log amount"),
                          row.parse_nonneg(factor, "fuel_log emission_factor"))
                for device_id, amount, factor in _entries(
                    row, "fuel_log", "DEVICE_ID:AMOUNT:EMISSION_FACTOR")),
            scope3_total=row.nonneg("scope3_total", default="0"),
            green_energy=row.nonneg("green_energy", default="0"),
            rec_offset=row.nonneg("rec_offset", default="0"),
            source_ref=row.ref,
        )
    return out


def _agent_count(row: _Row) -> int:
    """A whole agent count >= 1, never rounded.

    Digit-only cells are parsed as int and may run up to the largest float,
    which a per-agent figure divides by. Other spellings (``1e3``, ``250.0``)
    go through float, so they must stay below 2**53 to be exact.
    """
    text = row.text("agent_count")
    if text.isascii() and text.isdigit():
        try:
            value = int(text)
        except ValueError:  # more digits than int() converts
            value = math.inf
        if not 1 <= value <= sys.float_info.max:
            raise row.out_of_range("agent_count", value,
                                   "whole numbers >= 1 within float range")
        return value
    number = row.parse_number(text, "agent_count")
    if number != int(number) or number < 1:
        raise row.out_of_range("agent_count", number, "whole numbers >= 1")
    if number >= _FLOAT_EXACT_LIMIT:
        raise row.out_of_range("agent_count", number,
                               "[1, 2**53) unless written as plain digits")
    return int(number)


def read_tenants(path: Path | str) -> dict[str, Tenant]:
    """Parse tenants.csv keyed by tenant_id."""
    out: dict[str, Tenant] = {}
    for row in read_table(path, (
            "tenant_id", "display_name", "agent_count", "datacenter_ids")):
        tenant_id = row.id("tenant_id")
        if tenant_id in out:
            raise DuplicateId(row.source, row.line_no, "tenant", tenant_id)
        agents = _agent_count(row)
        l_share = row.number("l_share", default="1.0")
        if not 0.0 <= l_share <= 1.0:
            raise row.out_of_range("l_share", l_share, "[0, 1]")
        dc_ids = tuple(row.parse_id(part.strip(), "datacenter_ids")
                       for part in row.text("datacenter_ids").split(";")
                       if part.strip())
        if not dc_ids:
            raise row.error("datacenter_ids: empty list")
        if len(set(dc_ids)) != len(dc_ids):
            raise row.error(f"datacenter_ids: duplicate entries in {dc_ids}")
        out[tenant_id] = Tenant(
            tenant_id=tenant_id,
            display_name=row.text("display_name"),
            agent_count=agents,
            datacenter_ids=dc_ids,
            l_share=l_share,
            source_ref=row.ref,
        )
    return out


# ---------------------------------------------------------------------------
# Cross-file validation
# ---------------------------------------------------------------------------


def _references_hold(datacenters: dict[str, DataCenter],
                     tenants: dict[str, Tenant],
                     servers: tuple[ServerUsage, ...],
                     network: tuple[NetworkUsage, ...]) -> bool:
    """Whether :func:`_reference_errors` would find nothing, by set algebra:
    every usage row's (tenant, data center) pair is one the tenants declare,
    every declared data center is known, and no server (dc, device) pair or
    network (dc, device, tenant) triple repeats."""
    declared = {(tenant_id, dc_id) for tenant_id, tenant in tenants.items()
                for dc_id in tenant.datacenter_ids}
    pair = attrgetter("tenant_id", "datacenter_id")
    used = set(map(pair, servers))
    used.update(map(pair, network))
    return (used <= declared
            and {dc_id for _, dc_id in declared} <= datacenters.keys()
            and len(set(map(attrgetter("datacenter_id", "device_id"), servers)))
            == len(servers)
            and len(set(map(attrgetter("datacenter_id", "device_id", "tenant_id"),
                            network))) == len(network))


def _split_ref(ref: str) -> tuple[str, int]:
    """The file and line of a ``file:line`` source ref (the file may itself
    hold ``:``); line 0 when the ref has no line."""
    source, sep, line = ref.rpartition(":")
    if sep and line.isascii() and line.isdigit():
        return source, int(line)
    return ref, 0


def _reference_errors(datacenters: dict[str, DataCenter],
                      tenants: dict[str, Tenant],
                      servers: tuple[ServerUsage, ...],
                      network: tuple[NetworkUsage, ...]) -> list[IngestError]:
    """Every reference error, in a fixed order, each with its rows' refs."""
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
            source, line_no = _split_ref(row.source_ref)
            errors.append(DuplicateId(
                source or "network", line_no,
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
                    tenant.source_ref or f"tenants:{tenant.tenant_id}")

    for tenant_id in sorted(unknown_tenants):
        errors.append(UnknownTenant(tenant_id, tuple(unknown_tenants[tenant_id])))
    for dc_id in sorted(unknown_dcs):
        errors.append(UnknownDataCenter(dc_id, tuple(unknown_dcs[dc_id])))
    return errors


def assemble_raw_data(period: Period,
                      datacenters: dict[str, DataCenter],
                      tenants: dict[str, Tenant],
                      servers: tuple[ServerUsage, ...],
                      network: tuple[NetworkUsage, ...]) -> RawData:
    """Cross-validate the four inputs and bundle them for the engine.

    All reference errors are collected and raised together as one
    :class:`ValidationFailure`; nothing short-circuits, so operators get the
    complete fix list in a single run. Set operations tell first whether
    there is any error; only then are the rows walked to collect them.
    """
    errors = ([] if _references_hold(datacenters, tenants, servers, network)
              else _reference_errors(datacenters, tenants, servers, network))
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
