"""CSV ingestion: the table format of every CSV, and the four period input files.

Every input file is a UTF-8 CSV whose first line must be the literal comment
``# schema_version=1``, trailing empty cells aside. Headers are matched
case-insensitively and unknown columns, repeated or empty ones too, are
ignored, so exports may carry extra operator columns without breaking
ingestion; a column that is read may appear only once. :func:`read_table`
reads every such file, including the power models and calibration samples,
by these rules:

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
:func:`format_inputs` formats the four input files of a :class:`RawData`.

Each file's columns are listed once, in the tables above :func:`read_servers`:
``_SERVER_USAGE`` and ``_NETWORK_USAGE`` give each usage column, in
record-field order, with how it is read, checked and written;
``_DATACENTER_COLUMNS`` and ``_TENANT_COLUMNS`` are the required columns of
``datacenters.csv`` and ``tenants.csv``, whose optional ones (``scope3_total``,
``green_energy`` and ``rec_offset``, default 0; ``l_share``, default 1.0)
follow them.

Multi-value cells use ``;`` between entries and ``:`` within an entry:
cooling/other devices are ``DEVICE_ID:ENERGY_WH`` pairs
(``CRAC_1:10000;CRAC_2:5000``) and fuel log entries are
``DEVICE_ID:AMOUNT:EMISSION_FACTOR`` triples (``GEN_1:1000:2.5``, yielding
1000 * 2.5 gCO2e of Scope 1).

Parsers fail fast on syntax problems, values out of range and duplicate
ids, each a :class:`MalformedRow`; cross-file reference problems are
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
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import IngestError, MalformedRow, UnknownTenant, ValidationFailure
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
    "format_inputs",
    "INPUT_FILE_NAMES",
    "ID_PATTERN",
    "read_table",
    "format_table",
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
# contain a path separator, be "." or "..", or be longer than a file name
# may be (NAME_MAX, 255 bytes on common file systems).
ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,254}")

# Device byte counters are 64-bit; the bound also keeps network energy finite.
_BYTE_COUNT_MAX = 2**64 - 1

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

    def out_of_range(self, label: str, value: float, bounds: str) -> MalformedRow:
        return self.error(f"{label}={value!r} outside {bounds}")

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

    def share(self, column: str, default: str | None = None) -> float:
        value = self.number(column, default)
        if not 0.0 <= value <= 1.0:
            raise self.out_of_range(column, value, "[0, 1]")
        return abs(value)  # -0.0 reads as 0.0

    def id(self, column: str) -> str:
        return self.parse_id(self.text(column), column)

    def whole(self, column: str, low: int, high: float, bounds: str) -> int:
        """A whole number in [low, high], never rounded.

        Digit-only cells are parsed as int, and refused as outside ``bounds``
        beyond [low, high]. Other spellings (``1e3``, ``5.0``) go through
        float, so they must stay below 2**53, which ``high`` is at least, to
        be exact.
        """
        text = self.text(column)
        if text.isascii() and text.isdigit():
            try:
                value = int(text)
            except ValueError:  # more digits than int() converts
                value = math.inf
            if not low <= value <= high:
                raise self.out_of_range(column, value, bounds)
            return value
        number = self.parse_number(text, column)
        if number != int(number) or number < low:
            raise self.out_of_range(column, number, f"whole numbers >= {low}")
        if number >= _FLOAT_EXACT_LIMIT:
            raise self.out_of_range(column, number,
                                    f"[{low}, 2**53) unless written as plain digits")
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
        return abs(value)  # -0.0 reads as 0.0

    def parse_id(self, text: str, label: str) -> str:
        if ID_PATTERN.fullmatch(text) is None:
            raise self.error(
                f"{label}: {text!r} is not a valid id (letters, digits, '_', '.' "
                "and '-', starting with a letter or digit, at most 255 characters)")
        return text


class _Table(NamedTuple):
    """A table's data records: each one's stripped cells and first line."""

    source: str
    index: dict[str, int]
    line_nos: list[int]
    records: list[list[str]]

    def rows(self) -> Iterator[_Row]:
        """The records as :class:`_Row`, in file order."""
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


def read_table(path: Path | str, required: tuple[str, ...],
               optional: tuple[str, ...] = ()) -> _Table:
    """Read the records after a table's schema line and header.

    The file is decoded and parsed whole, as described in the module
    docstring. Every ``required`` column must appear in the header, and
    neither it nor an ``optional`` one twice; other columns, and repeats of
    them, are ignored. Errors are :class:`MalformedRow` at the first line
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
        while first and not first[-1].strip():  # a spreadsheet's padding
            del first[-1]
        if ",".join(first).strip().replace(" ", "") != SCHEMA_LINE.replace(" ", ""):
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
            for i, name in enumerate(map(str.lower, cells)):
                if name not in index:
                    index[name] = i
                elif name in required or name in optional:
                    raise MalformedRow(source, line_no, f"duplicate column {cells[i]!r}")
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


# ---------------------------------------------------------------------------
# File readers
# ---------------------------------------------------------------------------


def _ids(column: list[str]) -> list[str] | None:
    """The column if every distinct cell is a valid id, else None."""
    return column if all(map(ID_PATTERN.fullmatch, set(column))) else None


def _texts(column: list[str]) -> list[str] | None:
    """The column when no cell is empty, else None."""
    return column if all(column) else None


def _nonneg_floats(column: list[str]) -> list[float] | None:
    """The column as finite floats >= 0, -0.0 read as 0.0, or None if any
    cell is not one.

    A NaN or infinity makes the sum non-finite; a sum that overflows from
    finite cells only sends the table to the row-by-row check.
    """
    try:
        values = [*map(float, column)]
    except ValueError:
        return None
    if math.isfinite(sum(values)) and min(values) >= 0.0:
        return [*map(abs, values)]
    return None


def _shares(column: list[str]) -> list[float] | None:
    """The column as floats in [0, 1], or None if any cell is not one."""
    values = _nonneg_floats(column)
    return values if values is not None and max(values) <= 1.0 else None


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
    return values if max(values) <= _BYTE_COUNT_MAX else None


def _float_text(value: float) -> str:
    return repr(float(value))  # the shortest spelling that reads back the same


def _float_texts(column: Iterable[float]) -> Iterator[str]:
    return map(repr, map(float, column))


def _int_texts(column: Iterable[int]) -> Iterator[str]:
    return map(str, column)


class _Kind(NamedTuple):
    """How a usage-file column is read and written: the :class:`_Row`
    getter that parses one cell (the row-by-row reference), the check that
    converts a whole column (None if any cell fails it), and the spelling
    the writer gives a whole column (text as it is)."""

    getter: Callable[[_Row, str], object]
    check: Callable[[list[str]], list | None]
    spell: Callable[[Iterable], Iterator[str]]


_ID = _Kind(_Row.id, _ids, iter)
_TEXT = _Kind(_Row.text, _texts, iter)
_SHARE = _Kind(_Row.share, _shares, _float_texts)
_NONNEG = _Kind(_Row.nonneg, _nonneg_floats, _float_texts)
_BYTES = _Kind(lambda row, column: row.whole(column, 0, _BYTE_COUNT_MAX, "[0, 2**64)"),
               _byte_counts, _int_texts)

# Each usage file's columns, in record-field order, with their kinds.
_SERVER_USAGE = {"datacenter_id": _ID, "device_id": _TEXT, "device_model": _TEXT,
                 "tenant_id": _ID, "cpu_utilization": _SHARE, "cache_moved": _NONNEG,
                 "dram_accessed": _NONNEG, "disk_moved": _NONNEG}
_NETWORK_USAGE = {"datacenter_id": _ID, "device_id": _TEXT, "device_type": _TEXT,
                  "tenant_id": _ID, "bytes_sent": _BYTES, "bytes_received": _BYTES}

# The required columns of the two small files; the optional ones follow them
# in the record: three offsets that default to 0, and l_share (1.0).
_DATACENTER_COLUMNS = ("datacenter_id", "name", "region", "grid_intensity",
                       "cooling_devices", "other_devices", "fuel_log")
_DATACENTER_OFFSETS = ("scope3_total", "green_energy", "rec_offset")
_TENANT_COLUMNS = ("tenant_id", "display_name", "agent_count", "datacenter_ids")


def _read_usage(path: Path | str, record: type, columns: dict[str, _Kind]) -> tuple:
    """Parse a usage file into records, a column at a time; if any column
    fails its check, row by row through the getters, raising the first bad
    row's error."""
    names = tuple(columns)
    table = read_table(path, names)
    cells = table.columns(names)
    if cells is not None:
        checked = [kind.check(column) for kind, column in zip(columns.values(), cells)]
        if None not in checked:
            return tuple(map(record._make, zip(*checked, table.refs())))
    return tuple(record._make([*(kind.getter(row, name)
                                 for name, kind in columns.items()), row.ref])
                 for row in table.rows())


def read_servers(path: Path | str) -> tuple[ServerUsage, ...]:
    """Parse servers.csv into usage records (see :func:`_read_usage`)."""
    return _read_usage(path, ServerUsage, _SERVER_USAGE)


def read_network(path: Path | str) -> tuple[NetworkUsage, ...]:
    """Parse network.csv into per-tenant traffic records (see :func:`_read_usage`)."""
    return _read_usage(path, NetworkUsage, _NETWORK_USAGE)


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
    for row in read_table(path, _DATACENTER_COLUMNS, _DATACENTER_OFFSETS).rows():
        dc_id = row.id("datacenter_id")
        if dc_id in out:
            raise row.error(f"duplicate data center {dc_id!r}")
        cooling = _shared_devices(row, "cooling_devices")
        other = _shared_devices(row, "other_devices")
        seen: set[str] = set()
        for dev in (*cooling, *other):
            if dev.device_id in seen:
                raise row.error(f"duplicate shared device {dev.device_id!r}")
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
            **{name: row.nonneg(name, default="0") for name in _DATACENTER_OFFSETS},
            source_ref=row.ref,
        )
    return out


def read_tenants(path: Path | str) -> dict[str, Tenant]:
    """Parse tenants.csv keyed by tenant_id."""
    out: dict[str, Tenant] = {}
    for row in read_table(path, _TENANT_COLUMNS, ("l_share",)).rows():
        tenant_id = row.id("tenant_id")
        if tenant_id in out:
            raise row.error(f"duplicate tenant {tenant_id!r}")
        # A per-agent figure divides by the count, so it stays within float range.
        agents = row.whole("agent_count", 1, sys.float_info.max, "[1, float max]")
        l_share = row.share("l_share", default="1.0")
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


def _reference_errors(datacenters: dict[str, DataCenter],
                      tenants: dict[str, Tenant],
                      servers: tuple[ServerUsage, ...],
                      network: tuple[NetworkUsage, ...]) -> list[IngestError]:
    """Every reference error, in a fixed order, each an :class:`IngestError`
    whose message names its rows' refs; an unknown tenant is an
    :class:`UnknownTenant`.

    A usage file's rows are walked only when the file fails a set test:
    a (tenant, data center) pair that no tenant declares at a known data
    center, or a repeated key. A file that passes holds no error, so a valid
    fleet walks no usage row.
    """
    errors: list[IngestError] = []
    declared = {(dc_id, tenant_id) for tenant_id, tenant in tenants.items()
                for dc_id in tenant.datacenter_ids if dc_id in datacenters}
    pair = attrgetter("datacenter_id", "tenant_id")

    def fails(rows: tuple, key: Callable[[tuple], tuple]) -> bool:
        return (len(set(map(key, rows))) < len(rows)
                or not declared.issuperset(map(pair, rows)))

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
            errors.append(IngestError(
                f"usage for device {device_id!r}: tenant {tenant_id!r} does not "
                f"use data center {dc_id!r} (at {ref})"))

    # A server is attributed whole to one tenant: the same device appearing
    # twice (same or different tenant) would double-count its energy.
    if fails(servers, attrgetter("datacenter_id", "device_id")):
        server_rows: dict[tuple[str, str], list[ServerUsage]] = {}
        for row in servers:
            server_rows.setdefault((row.datacenter_id, row.device_id), []).append(row)
            check_refs(row.datacenter_id, row.tenant_id, row.device_id, row.source_ref)
        for (dc_id, device_id), rows in sorted(server_rows.items()):
            if len(rows) > 1:
                tenant_ids = sorted({r.tenant_id for r in rows})
                detail = ("shared between tenants " + ", ".join(tenant_ids)
                          if len(tenant_ids) > 1 else "listed more than once")
                errors.append(IngestError(
                    f"server device {device_id!r} in {dc_id!r} {detail} "
                    f"(at {', '.join(r.source_ref for r in rows)})"))

    # Network devices are shared: one row per (device, tenant) is expected,
    # but the same triple twice would double-count that tenant's traffic.
    triple = attrgetter("datacenter_id", "device_id", "tenant_id")
    if fails(network, triple):
        seen_network: set[tuple[str, str, str]] = set()
        for row in network:
            if triple(row) in seen_network:
                device_tenant = f"{row.device_id}/{row.tenant_id}"
                errors.append(IngestError(
                    f"{row.source_ref or 'network:0'}: duplicate network usage "
                    f"(device, tenant) pair {device_tenant!r}"))
            seen_network.add(triple(row))
            check_refs(row.datacenter_id, row.tenant_id, row.device_id, row.source_ref)

    for tenant in tenants.values():
        for dc_id in tenant.datacenter_ids:
            if dc_id not in datacenters:
                unknown_dcs.setdefault(dc_id, []).append(
                    tenant.source_ref or f"tenants:{tenant.tenant_id}")

    for tenant_id in sorted(unknown_tenants):
        errors.append(UnknownTenant(tenant_id, tuple(unknown_tenants[tenant_id])))
    for dc_id in sorted(unknown_dcs):
        errors.append(IngestError(
            f"unknown data center {dc_id!r} (at {', '.join(unknown_dcs[dc_id])})"))
    return errors


def assemble_raw_data(period: Period,
                      datacenters: dict[str, DataCenter],
                      tenants: dict[str, Tenant],
                      servers: tuple[ServerUsage, ...],
                      network: tuple[NetworkUsage, ...]) -> RawData:
    """Cross-validate the four inputs and bundle them for the engine.

    All reference errors are collected and raised together as one
    :class:`ValidationFailure`; nothing short-circuits, so operators get the
    complete fix list in a single run. Set operations tell which usage
    files hold an error; only their rows are walked to collect them.
    """
    errors = _reference_errors(datacenters, tenants, servers, network)
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
    missing = []
    for name in INPUT_FILE_NAMES.values():
        path = input_dir / name
        try:
            if not path.is_file():
                missing.append(name)
        except OSError as exc:  # is_file raises what does not mean "absent"
            raise MalformedRow(str(path), 0,
                               f"cannot read file: {exc.strerror or exc}") from exc
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


def _entries_text(name: str, line_no: int, column: str,
                  entries: tuple[SharedDevice, ...] | tuple[FuelEntry, ...]) -> str:
    """A multi-value cell that :func:`_entries` reads back entry for entry,
    refusing a device id that it would split, strip or find empty."""
    for device_id, *_ in entries:
        if not device_id or device_id != device_id.strip() or {";", ":"} & {*device_id}:
            raise MalformedRow(name, line_no, f"{column}: {device_id!r} cannot be "
                               "written: a device id must be non-empty, without "
                               "';', ':' or surrounding whitespace")
    return ";".join(":".join([device_id, *map(_float_text, values)])
                    for device_id, *values in entries)


def _usage_table(columns: dict[str, _Kind], records: Iterable[tuple]
                 ) -> tuple[tuple[str, ...], Iterator[tuple[str, ...]]]:
    """A usage file's header and rows, each column spelled by its kind."""
    return tuple(columns), zip(*(kind.spell(column) for kind, column
                                 in zip(columns.values(), zip(*records))))


def format_inputs(raw: RawData) -> dict[str, str]:
    """The text of each input file, by name, that :func:`load_input_dir`
    reads back as ``raw``: usage rows in order, data centers and tenants by
    id, floats in shortest round-trip spelling. A value the format cannot
    carry raises :class:`MalformedRow`."""
    names = INPUT_FILE_NAMES
    dc_file = names["datacenters"]
    tables = {
        names["servers"]: _usage_table(_SERVER_USAGE, raw.servers),
        names["network"]: _usage_table(_NETWORK_USAGE, raw.network),
        dc_file: ((*_DATACENTER_COLUMNS, *_DATACENTER_OFFSETS), (
            [dc.datacenter_id, dc.name, dc.region, _float_text(dc.grid_intensity),
             *(_entries_text(dc_file, line_no, column, getattr(dc, column))
               for column in ("cooling_devices", "other_devices", "fuel_log")),
             *(_float_text(getattr(dc, column)) for column in _DATACENTER_OFFSETS)]
            for line_no, (_, dc) in enumerate(sorted(raw.datacenters.items()),
                                              start=3))),
        names["tenants"]: ((*_TENANT_COLUMNS, "l_share"), (
            [t.tenant_id, t.display_name, str(t.agent_count),
             ";".join(t.datacenter_ids), _float_text(t.l_share)]
            for _, t in sorted(raw.tenants.items()))),
    }
    return {name: format_table(name, header, rows)
            for name, (header, rows) in tables.items()}
