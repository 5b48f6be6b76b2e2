"""CSV ingestion: parsing, row-level failures, and cross-reference checks."""

import ast
import collections
import math
import re
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonalloc import ingest, synth
from carbonalloc.errors import (
    IngestError,
    MalformedRow,
    UnknownTenant,
    ValidationFailure,
)
from carbonalloc.ingest import (
    SCHEMA_LINE,
    FuelEntry,
    NetworkUsage,
    ServerUsage,
    SharedDevice,
    assemble_raw_data,
    load_input_dir,
    read_datacenters,
    read_network,
    read_servers,
    read_tenants,
)
from carbonalloc.power import ServerPowerModel, format_models, read_models
from carbonalloc.synth import SynthFleet, generate_fleet, write_fleet
from carbonalloc.units import Period

PERIOD = Period(2025, 6)

SERVER_HEADER = ("datacenter_id,device_id,device_model,tenant_id,"
                 "cpu_utilization,cache_moved,dram_accessed,disk_moved")
NETWORK_HEADER = ("datacenter_id,device_id,device_type,tenant_id,"
                  "bytes_sent,bytes_received")
DC_HEADER = ("datacenter_id,name,region,grid_intensity,cooling_devices,"
             "other_devices,fuel_log,scope3_total,green_energy,rec_offset")
TENANT_HEADER = "tenant_id,display_name,agent_count,datacenter_ids,l_share"


def csv_file(tmp_path: Path, name: str, *rows: str, schema: str = SCHEMA_LINE) -> Path:
    path = tmp_path / name
    path.write_text("\n".join((schema, *rows)) + "\n", encoding="utf-8")
    return path


def write_input_dir(tmp_path: Path, servers: list[str], network: list[str],
                    datacenters: list[str], tenants: list[str]) -> Path:
    csv_file(tmp_path, "servers.csv", SERVER_HEADER, *servers)
    csv_file(tmp_path, "network.csv", NETWORK_HEADER, *network)
    csv_file(tmp_path, "datacenters.csv", DC_HEADER, *datacenters)
    csv_file(tmp_path, "tenants.csv", TENANT_HEADER, *tenants)
    return tmp_path


GOOD_SERVER = "DC_EU1,SERVER_1234,ABC_987,TENANT_X,0.10,2e7,5e9,2e10"
GOOD_NETWORK = "DC_EU1,NETWORK_DEVICE_1234,router,TENANT_X,1000000000000,1000000000000"
GOOD_DC = ('DC_EU1,Amsterdam South,eu-west,0.4,"CRAC_1:4000000","PDU_1:280000",'
           '"GEN_1:1000:2.5",500000,100000,20000')
GOOD_TENANT = "TENANT_X,Fictitious Co,250,DC_EU1,1.0"


class TestSchemaLine:
    def test_content_cannot_precede_schema_line(self, tmp_path):
        path = csv_file(tmp_path, "servers.csv", SERVER_HEADER, schema="not a comment")
        with pytest.raises(MalformedRow) as exc:
            read_servers(path)
        assert exc.value.line_no == 1
        assert "schema_version" in str(exc.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "servers.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MalformedRow):
            read_servers(path)

    def test_internal_spacing_tolerated(self, tmp_path):
        path = csv_file(tmp_path, "servers.csv", SERVER_HEADER, GOOD_SERVER,
                        schema="#  schema_version = 1")
        assert len(read_servers(path)) == 1

    @pytest.mark.parametrize("schema", ["# schema_version=2", "# schema_version=2,,"])
    def test_wrong_version_rejected(self, tmp_path, schema):
        """Named as written, trailing empty cells included."""
        path = csv_file(tmp_path, "servers.csv", SERVER_HEADER, schema=schema)
        with pytest.raises(MalformedRow, match=re.escape(f", got {schema!r}")):
            read_servers(path)


class TestRecords:
    @pytest.mark.parametrize("cell, name", [
        ('"Acme\nCorp"', "Acme\nCorp"),
        ('"Acme\r\nCorp"', "Acme\r\nCorp"),
        ('"Acme, ""the"" Corp"', 'Acme, "the" Corp'),
        ("Acme\u2028Corp", "Acme\u2028Corp"),
        ("Acme\x85Corp", "Acme\x85Corp"),
        ("Acme\x0cCorp", "Acme\x0cCorp"),
    ], ids=["quoted-lf", "quoted-crlf", "quoted-comma-quote", "u2028", "u0085",
            "form-feed"])
    def test_cell_text_is_not_split(self, tmp_path, cell, name):
        path = csv_file(tmp_path, "tenants.csv", TENANT_HEADER,
                        GOOD_TENANT.replace("Fictitious Co", cell),
                        GOOD_TENANT.replace("TENANT_X", "TENANT_Y"))
        tenants = read_tenants(path)
        assert tenants["TENANT_X"].display_name == name
        assert tenants["TENANT_Y"].display_name == "Fictitious Co"

    def test_line_numbers_name_the_records_first_line(self, tmp_path):
        bad = GOOD_SERVER.replace("SERVER_1234", "SERVER_2").replace(",0.10,",
                                                                     ",1.5,")
        path = csv_file(tmp_path, "servers.csv", SERVER_HEADER,
                        GOOD_SERVER.replace("ABC_987", '"ABC\n987"'), bad)
        with pytest.raises(MalformedRow, match=r"^servers\.csv:5: cpu_utilization=1\.5 "
                                               r"outside \[0, 1\]$"):
            read_servers(path)

    def test_comment_records_may_span_lines(self, tmp_path):
        path = csv_file(tmp_path, "servers.csv", SERVER_HEADER,
                        '# a comment,"quoting a\nsecond line"', GOOD_SERVER)
        (row,) = read_servers(path)
        assert row.source_ref == "servers.csv:5"

    def test_unterminated_quote_rejected_at_its_record(self, tmp_path):
        path = csv_file(tmp_path, "tenants.csv", TENANT_HEADER, GOOD_TENANT,
                        GOOD_TENANT.replace("TENANT_X,Fictitious Co",
                                            'TENANT_Y,"Fictitious Co'))
        with pytest.raises(MalformedRow, match=r"^tenants\.csv:4: malformed CSV"):
            read_tenants(path)


class TestReadServers:
    def test_parses_example_row(self, tmp_path):
        path = csv_file(tmp_path, "servers.csv", SERVER_HEADER, GOOD_SERVER)
        (row,) = read_servers(path)
        assert row.datacenter_id == "DC_EU1"
        assert row.device_id == "SERVER_1234"
        assert row.device_model == "ABC_987"
        assert row.tenant_id == "TENANT_X"
        assert row.cpu_utilization == 0.10
        assert row.cache_moved == 2e7
        assert row.dram_accessed == 5e9
        assert row.disk_moved == 2e10
        assert row.source_ref == "servers.csv:3"

    def test_header_only_file_yields_no_rows(self, tmp_path):
        path = csv_file(tmp_path, "servers.csv", SERVER_HEADER)
        assert read_servers(path) == ()

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        path = csv_file(tmp_path, "servers.csv", SERVER_HEADER, "",
                        "# a mid-file comment", GOOD_SERVER)
        assert len(read_servers(path)) == 1

    def test_headers_case_insensitive_and_extra_columns_ignored(self, tmp_path):
        header = SERVER_HEADER.upper() + ",EXPORT_BATCH"
        path = csv_file(tmp_path, "servers.csv", header, GOOD_SERVER + ",batch-77")
        (row,) = read_servers(path)
        assert row.device_id == "SERVER_1234"

    def test_missing_required_column(self, tmp_path):
        header = SERVER_HEADER.replace(",disk_moved", "")
        path = csv_file(tmp_path, "servers.csv", header)
        with pytest.raises(MalformedRow) as exc:
            read_servers(path)
        assert "disk_moved" in str(exc.value)

    def test_utilization_above_one_carries_location(self, tmp_path):
        bad = GOOD_SERVER.replace(",0.10,", ",1.5,")
        path = csv_file(tmp_path, "servers.csv", SERVER_HEADER, GOOD_SERVER, bad)
        with pytest.raises(MalformedRow, match=r"^servers\.csv:4: cpu_utilization=1\.5 "
                                               r"outside \[0, 1\]$") as exc:
            read_servers(path)
        assert exc.value.line_no == 4

    def test_negative_counter_rejected(self, tmp_path):
        bad = GOOD_SERVER.replace("2e7", "-2e7")
        path = csv_file(tmp_path, "servers.csv", SERVER_HEADER, bad)
        with pytest.raises(MalformedRow, match=r"^servers\.csv:3: cache_moved=-20000000\.0 "
                                               r"outside \[0, inf\)$"):
            read_servers(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        bad = GOOD_SERVER.replace("5e9", "lots")
        path = csv_file(tmp_path, "servers.csv", SERVER_HEADER, bad)
        with pytest.raises(MalformedRow) as exc:
            read_servers(path)
        assert "dram_accessed" in str(exc.value)

    def test_short_row_rejected(self, tmp_path):
        path = csv_file(tmp_path, "servers.csv", SERVER_HEADER, "DC_EU1,SERVER_1")
        with pytest.raises(MalformedRow):
            read_servers(path)


class TestRepeatedColumns:
    """A column that a reader reads may appear once in a header; repeats of
    any other column, the empty name included, are ignored like the column."""

    @pytest.fixture
    def clean(self, tmp_path):
        write_fleet(generate_fleet(seed=3, n_tenants=2, n_dcs=1), tmp_path / "clean")
        return tmp_path / "clean"

    @staticmethod
    def extended(clean: Path, name: str, header_cells: str, row_cells: str,
                 schema_cells: str = "") -> Path:
        """A copy of the ``clean`` input directory whose file ``name`` has
        ``schema_cells`` added to its schema line, ``header_cells`` to its
        header and ``row_cells`` to each row."""
        copy = shutil.copytree(clean, clean.parent / "extended")
        schema, header, *rows = (clean / name).read_text(encoding="utf-8").splitlines()
        (copy / name).write_text("\n".join(
            [schema + schema_cells, header + header_cells,
             *(row + row_cells for row in rows)]
        ) + "\n", encoding="utf-8")
        return copy

    @staticmethod
    def records(input_dir: Path) -> str:
        # By repr, so that every record's source_ref counts.
        return repr(load_input_dir(input_dir, PERIOD))

    @pytest.mark.parametrize("name", ingest.INPUT_FILE_NAMES.values())
    def test_trailing_empty_cells_are_ignored(self, clean, name):
        """On every line, the schema line's too, as a spreadsheet pads them."""
        padded = self.extended(clean, name, ",,", ",,", schema_cells=",,")
        assert self.records(padded) == self.records(clean)

    @pytest.mark.parametrize("name", ingest.INPUT_FILE_NAMES.values())
    def test_repeated_unknown_column_is_ignored(self, clean, name):
        noted = self.extended(clean, name, ",notes,Notes", ",a,b")
        assert self.records(noted) == self.records(clean)

    @pytest.mark.parametrize("name, column", [
        ("servers.csv", "DEVICE_ID"), ("network.csv", "bytes_sent"),
        ("datacenters.csv", "Scope3_Total"), ("tenants.csv", "L_Share"),
        ("tenants.csv", "tenant_id"),
    ])
    def test_repeated_read_column_is_refused(self, clean, name, column):
        """Required and optional columns alike, in any case."""
        repeated = self.extended(clean, name, "," + column, ",0")
        with pytest.raises(MalformedRow, match=(
                rf"^{re.escape(name)}:2: duplicate column '{column}'$")):
            load_input_dir(repeated, PERIOD)


class TestReadNetwork:
    def test_parses_byte_counts_as_ints(self, tmp_path):
        path = csv_file(tmp_path, "network.csv", NETWORK_HEADER, GOOD_NETWORK)
        (row,) = read_network(path)
        assert row.bytes_sent == 10**12
        assert isinstance(row.bytes_sent, int)
        assert row.device_type == "router"

    def test_scientific_notation_for_whole_bytes_accepted(self, tmp_path):
        row = GOOD_NETWORK.replace("1000000000000,1000000000000", "1e12,1e12")
        path = csv_file(tmp_path, "network.csv", NETWORK_HEADER, row)
        (parsed,) = read_network(path)
        assert parsed.bytes_sent == 10**12

    def test_fractional_bytes_rejected(self, tmp_path):
        row = GOOD_NETWORK.replace("1000000000000,1000000000000", "10.5,0")
        path = csv_file(tmp_path, "network.csv", NETWORK_HEADER, row)
        with pytest.raises(MalformedRow, match=r"^network\.csv:3: bytes_sent=10\.5 "
                                               r"outside whole numbers >= 0$"):
            read_network(path)


class TestIds:
    @pytest.mark.parametrize("good", ["TENANT_X", "t", "0", "a.b-c_9", "Acme.."])
    def test_allowed_tenant_ids(self, tmp_path, good):
        row = GOOD_TENANT.replace("TENANT_X", good)
        path = csv_file(tmp_path, "tenants.csv", TENANT_HEADER, row)
        assert list(read_tenants(path)) == [good]

    @pytest.mark.parametrize("bad", ["../../escape", "..", ".", "a/b", "a\\b",
                                     "_x", "-x", "T X", "TENANT_É"])
    def test_path_unsafe_tenant_id_rejected(self, tmp_path, bad):
        row = GOOD_TENANT.replace("TENANT_X", f'"{bad}"')
        path = csv_file(tmp_path, "tenants.csv", TENANT_HEADER, row)
        with pytest.raises(MalformedRow, match=r"^tenants\.csv:3: tenant_id: "):
            read_tenants(path)

    @pytest.mark.parametrize("name, row, column", [
        ("servers.csv", GOOD_SERVER.replace("TENANT_X", "../x"), "tenant_id"),
        ("servers.csv", GOOD_SERVER.replace("DC_EU1", "DC/EU1"), "datacenter_id"),
        ("network.csv", GOOD_NETWORK.replace("TENANT_X", ".."), "tenant_id"),
        ("network.csv", GOOD_NETWORK.replace("DC_EU1", ".DC"), "datacenter_id"),
        ("datacenters.csv", GOOD_DC.replace("DC_EU1", "../DC_EU1"),
         "datacenter_id"),
        ("tenants.csv", GOOD_TENANT.replace(",DC_EU1,", ',"DC_EU1;../up",'),
         "datacenter_ids"),
    ], ids=["servers-tenant", "servers-dc", "network-tenant", "network-dc",
            "datacenters-dc", "tenants-dc-list"])
    def test_path_unsafe_ids_rejected_in_every_file(self, tmp_path, name, row,
                                                    column):
        header, reader = {
            "servers.csv": (SERVER_HEADER, read_servers),
            "network.csv": (NETWORK_HEADER, read_network),
            "datacenters.csv": (DC_HEADER, read_datacenters),
            "tenants.csv": (TENANT_HEADER, read_tenants),
        }[name]
        path = csv_file(tmp_path, name, header, row)
        with pytest.raises(MalformedRow) as exc:
            reader(path)
        assert str(exc.value).startswith(f"{name}:3: {column}: ")


class TestReadDatacenters:
    def test_parses_multi_value_cells(self, tmp_path):
        path = csv_file(tmp_path, "datacenters.csv", DC_HEADER, GOOD_DC)
        dc = read_datacenters(path)["DC_EU1"]
        assert dc.name == "Amsterdam South"
        assert dc.grid_intensity == 0.4
        assert [(d.device_id, d.energy) for d in dc.cooling_devices] == [
            ("CRAC_1", 4000000.0)]
        assert [(d.device_id, d.energy) for d in dc.other_devices] == [
            ("PDU_1", 280000.0)]
        (fuel,) = dc.fuel_log
        assert (fuel.device_id, fuel.amount, fuel.emission_factor) == ("GEN_1", 1000.0, 2.5)
        assert dc.scope3_total == 500000.0
        assert dc.green_energy == 100000.0
        assert dc.rec_offset == 20000.0

    def test_semicolon_lists_split(self, tmp_path):
        row = GOOD_DC.replace('"CRAC_1:4000000"', '"CRAC_1:10000; CRAC_2:5000"')
        path = csv_file(tmp_path, "datacenters.csv", DC_HEADER, row)
        dc = read_datacenters(path)["DC_EU1"]
        assert [d.device_id for d in dc.cooling_devices] == ["CRAC_1", "CRAC_2"]

    def test_optional_columns_default_to_zero(self, tmp_path):
        header = DC_HEADER.replace(",scope3_total,green_energy,rec_offset", "")
        row = 'DC_EU1,Amsterdam South,eu-west,0.4,"CRAC_1:1",,'
        path = csv_file(tmp_path, "datacenters.csv", header, row)
        dc = read_datacenters(path)["DC_EU1"]
        assert dc.scope3_total == 0.0
        assert dc.green_energy == 0.0
        assert dc.rec_offset == 0.0
        assert dc.other_devices == ()
        assert dc.fuel_log == ()

    def test_malformed_device_pair(self, tmp_path):
        row = GOOD_DC.replace("CRAC_1:4000000", "CRAC_1=4000000")
        path = csv_file(tmp_path, "datacenters.csv", DC_HEADER, row)
        with pytest.raises(MalformedRow) as exc:
            read_datacenters(path)
        assert "cooling_devices" in str(exc.value)

    def test_malformed_fuel_triple(self, tmp_path):
        row = GOOD_DC.replace("GEN_1:1000:2.5", "GEN_1:1000")
        path = csv_file(tmp_path, "datacenters.csv", DC_HEADER, row)
        with pytest.raises(MalformedRow) as exc:
            read_datacenters(path)
        assert "fuel_log" in str(exc.value)

    def test_duplicate_datacenter_id(self, tmp_path):
        path = csv_file(tmp_path, "datacenters.csv", DC_HEADER, GOOD_DC, GOOD_DC)
        with pytest.raises(MalformedRow, match=r"^datacenters\.csv:4: duplicate data "
                                               r"center 'DC_EU1'$"):
            read_datacenters(path)

    def test_shared_device_id_unique_across_categories(self, tmp_path):
        row = GOOD_DC.replace('"PDU_1:280000"', '"CRAC_1:280000"')
        path = csv_file(tmp_path, "datacenters.csv", DC_HEADER, row)
        with pytest.raises(MalformedRow, match=r"^datacenters\.csv:3: duplicate shared "
                                               r"device 'CRAC_1'$"):
            read_datacenters(path)


class TestReadTenants:
    def test_parses_example_row(self, tmp_path):
        path = csv_file(tmp_path, "tenants.csv", TENANT_HEADER, GOOD_TENANT)
        tenant = read_tenants(path)["TENANT_X"]
        assert tenant.display_name == "Fictitious Co"
        assert tenant.agent_count == 250
        assert tenant.datacenter_ids == ("DC_EU1",)
        assert tenant.l_share == 1.0

    def test_l_share_defaults_to_one(self, tmp_path):
        header = TENANT_HEADER.replace(",l_share", "")
        path = csv_file(tmp_path, "tenants.csv", header,
                        "TENANT_X,Fictitious Co,250,DC_EU1")
        assert read_tenants(path)["TENANT_X"].l_share == 1.0

    def test_multi_datacenter_list(self, tmp_path):
        row = GOOD_TENANT.replace(",DC_EU1,", ',"DC_EU1; DC_US2",')
        path = csv_file(tmp_path, "tenants.csv", TENANT_HEADER, row)
        assert read_tenants(path)["TENANT_X"].datacenter_ids == ("DC_EU1", "DC_US2")

    def test_duplicate_tenant_id(self, tmp_path):
        path = csv_file(tmp_path, "tenants.csv", TENANT_HEADER, GOOD_TENANT, GOOD_TENANT)
        with pytest.raises(MalformedRow, match=r"^tenants\.csv:4: duplicate tenant "
                                               r"'TENANT_X'$"):
            read_tenants(path)

    def test_duplicate_datacenter_entry_rejected(self, tmp_path):
        row = GOOD_TENANT.replace(",DC_EU1,", ',"DC_EU1;DC_EU1",')
        path = csv_file(tmp_path, "tenants.csv", TENANT_HEADER, row)
        with pytest.raises(MalformedRow):
            read_tenants(path)


# Each whole-number column's range, and the bounds a digit-only cell
# outside it is refused with.
WHOLE_NUMBERS = {"bytes_sent": (0, 2**64 - 1, "[0, 2**64)"),
                 "bytes_received": (0, 2**64 - 1, "[0, 2**64)"),
                 "agent_count": (1, int(sys.float_info.max), "[1, float max]")}


def whole_file(column: str) -> str:
    """The file :func:`read_whole` reads ``column`` from."""
    return "tenants.csv" if column == "agent_count" else "network.csv"


def read_whole(tmp_path: Path, column: str, cell: str) -> int:
    """``cell`` read as one of network.csv's byte counts (the other one 0)
    or as tenants.csv's agent_count."""
    if column == "agent_count":
        row = GOOD_TENANT.replace(",250,", f",{cell},")
        return read_tenants(csv_file(tmp_path, "tenants.csv", TENANT_HEADER,
                                     row))["TENANT_X"].agent_count
    counts = f"{cell},0" if column == "bytes_sent" else f"0,{cell}"
    row = GOOD_NETWORK.replace("1000000000000,1000000000000", counts)
    (parsed,) = read_network(csv_file(tmp_path, "network.csv", NETWORK_HEADER, row))
    return getattr(parsed, column)


@pytest.mark.parametrize("column", WHOLE_NUMBERS)
class TestWholeNumbers:
    """Byte counts and agent counts are read by one rule: digits exactly,
    up to the column's top; other spellings through float, below 2**53."""

    def test_digits_read_exactly_at_both_ends(self, tmp_path, column):
        low, high, _ = WHOLE_NUMBERS[column]
        for value in (low, high):
            read = read_whole(tmp_path, column, str(value))
            assert read == value and type(read) is int

    def test_digits_past_2_53_read_exactly(self, tmp_path, column):
        read = read_whole(tmp_path, column, str(2**53 + 1))
        assert read == 2**53 + 1 and type(read) is int

    def test_digits_outside_the_range_refused(self, tmp_path, column):
        low, high, bounds = WHOLE_NUMBERS[column]
        for value in (high + 1, low - 1) if low else (high + 1,):
            message = f"{whole_file(column)}:3: {column}={value} outside {bounds}"
            with pytest.raises(MalformedRow, match=f"^{re.escape(message)}$"):
                read_whole(tmp_path, column, str(value))

    # int() converts at most 4300 digits; a longer run reads as infinite.
    @pytest.mark.parametrize("cell, shown", [
        pytest.param("9" * 400, "9" * 400, id="400-digits"),
        pytest.param("9" * 5000, "inf", id="5000-digits")])
    def test_long_digit_runs_refused(self, tmp_path, column, cell, shown):
        bounds = WHOLE_NUMBERS[column][2]
        message = f"{whole_file(column)}:3: {column}={shown} outside {bounds}"
        with pytest.raises(MalformedRow, match=f"^{re.escape(message)}$"):
            read_whole(tmp_path, column, cell)

    @pytest.mark.parametrize("cell, value", [("1e3", 1000), ("5.0", 5)])
    def test_float_spelled_whole_numbers_accepted(self, tmp_path, column, cell,
                                                  value):
        read = read_whole(tmp_path, column, cell)
        assert read == value and type(read) is int

    @pytest.mark.parametrize("cell, shown", [("1e20", "1e+20"),
                                             ("9.007199254740992e15",
                                              "9007199254740992.0"),
                                             ("9007199254740993.0",
                                              "9007199254740992.0")])
    def test_float_spellings_from_2_53_refused(self, tmp_path, column, cell, shown):
        low = WHOLE_NUMBERS[column][0]
        message = (f"{whole_file(column)}:3: {column}={shown} outside [{low}, 2**53) "
                   "unless written as plain digits")
        with pytest.raises(MalformedRow, match=f"^{re.escape(message)}$"):
            read_whole(tmp_path, column, cell)

    @pytest.mark.parametrize("cell", ["2.5", "-1", "-1e3"])
    def test_fraction_or_negative_refused(self, tmp_path, column, cell):
        low = WHOLE_NUMBERS[column][0]
        message = (f"{whole_file(column)}:3: {column}={float(cell)!r} outside "
                   f"whole numbers >= {low}")
        with pytest.raises(MalformedRow, match=f"^{re.escape(message)}$"):
            read_whole(tmp_path, column, cell)

    def test_negative_zero_reads_as_zero(self, tmp_path, column):
        if WHOLE_NUMBERS[column][0] == 0:
            read = read_whole(tmp_path, column, "-0")
            assert read == 0 and type(read) is int
        else:
            message = f"{whole_file(column)}:3: {column}=-0.0 outside whole numbers >= 1"
            with pytest.raises(MalformedRow, match=f"^{re.escape(message)}$"):
                read_whole(tmp_path, column, "-0")


def with_cell(header: str, row: str, column: str, cell: str) -> str:
    """``row`` with ``column``'s cell replaced; no cell holds a comma."""
    cells = row.replace('"', "").split(",")
    cells[header.split(",").index(column)] = cell
    return ",".join(cells)


# The files of the float columns that must be >= 0: a header, a good row
# and the reader.
NONNEG_FILES = {"servers.csv": (SERVER_HEADER, GOOD_SERVER, read_servers),
                "datacenters.csv": (DC_HEADER, GOOD_DC, read_datacenters),
                "tenants.csv": (TENANT_HEADER, GOOD_TENANT, read_tenants)}
# Each such column: its file, the cell around the number, and the value as
# read from what the file's reader returns.
NONNEG_COLUMNS = {
    **{column: ("servers.csv", column, "{}",
                lambda rows, column=column: getattr(rows[0], column))
       for column in ("cpu_utilization", "cache_moved", "dram_accessed",
                      "disk_moved")},
    **{column: ("datacenters.csv", column, "{}",
                lambda dcs, column=column: getattr(dcs["DC_EU1"], column))
       for column in ("grid_intensity", "scope3_total", "green_energy", "rec_offset")},
    "cooling_devices": ("datacenters.csv", "cooling_devices", "CRAC_1:{}",
                        lambda dcs: dcs["DC_EU1"].cooling_devices[0].energy),
    "other_devices": ("datacenters.csv", "other_devices", "PDU_1:{}",
                      lambda dcs: dcs["DC_EU1"].other_devices[0].energy),
    "fuel_log.amount": ("datacenters.csv", "fuel_log", "GEN_1:{}:2.5",
                        lambda dcs: dcs["DC_EU1"].fuel_log[0].amount),
    "fuel_log.emission_factor": ("datacenters.csv", "fuel_log", "GEN_1:1000:{}",
                                 lambda dcs: dcs["DC_EU1"].fuel_log[0].emission_factor),
    "l_share": ("tenants.csv", "l_share", "{}",
                lambda tenants: tenants["TENANT_X"].l_share),
}


@pytest.mark.parametrize("cell", ["-0", "-0.0"])
@pytest.mark.parametrize("name", NONNEG_COLUMNS)
def test_negative_zero_reads_as_zero(tmp_path, name, cell):
    """A report would show a -0 cell as -0.0, and every figure it scales too."""
    file_name, column, spelling, value_of = NONNEG_COLUMNS[name]
    header, row, read = NONNEG_FILES[file_name]
    path = csv_file(tmp_path, file_name, header,
                    with_cell(header, row, column, spelling.format(cell)))
    values = [value_of(read(path))]
    if read is read_servers:  # the row getter, which a failing column falls back on
        (parsed,) = ingest.read_table(path, ()).rows()
        values.append(ingest._SERVER_USAGE[column].getter(parsed, column))
    for value in values:
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestAssemble:
    def _load(self, tmp_path, **overrides):
        parts = dict(servers=[GOOD_SERVER], network=[GOOD_NETWORK],
                     datacenters=[GOOD_DC], tenants=[GOOD_TENANT])
        parts.update(overrides)
        write_input_dir(tmp_path, **parts)
        return load_input_dir(tmp_path, PERIOD)

    def test_valid_directory_loads(self, tmp_path):
        raw = self._load(tmp_path)
        assert raw.period == PERIOD
        assert set(raw.tenants) == {"TENANT_X"}
        assert set(raw.datacenters) == {"DC_EU1"}
        assert len(raw.servers) == 1 and len(raw.network) == 1

    def test_missing_file_rejected(self, tmp_path):
        write_input_dir(tmp_path, [GOOD_SERVER], [GOOD_NETWORK], [GOOD_DC],
                        [GOOD_TENANT])
        (tmp_path / "network.csv").unlink()
        with pytest.raises(MalformedRow) as exc:
            load_input_dir(tmp_path, PERIOD)
        assert "network.csv" in str(exc.value)

    def test_unknown_tenant_reported_with_location(self, tmp_path):
        bad = GOOD_SERVER.replace("TENANT_X", "TENANT_GHOST")
        with pytest.raises(ValidationFailure) as exc:
            self._load(tmp_path, servers=[GOOD_SERVER.replace("SERVER_1234",
                                                              "SERVER_1"), bad])
        (err,) = exc.value.errors
        assert isinstance(err, UnknownTenant)
        assert err.tenant_id == "TENANT_GHOST"
        assert any("servers.csv:4" in loc for loc in err.locations)

    def test_unknown_datacenter_in_usage(self, tmp_path):
        bad = GOOD_NETWORK.replace("DC_EU1", "DC_NOWHERE")
        with pytest.raises(ValidationFailure) as exc:
            self._load(tmp_path, network=[GOOD_NETWORK, bad])
        (err,) = exc.value.errors
        assert str(err) == "unknown data center 'DC_NOWHERE' (at network.csv:4)"

    def test_unknown_datacenter_in_tenant_list(self, tmp_path):
        bad_tenant = GOOD_TENANT.replace(",DC_EU1,", ',"DC_EU1;DC_NOWHERE",')
        with pytest.raises(ValidationFailure) as exc:
            self._load(tmp_path, tenants=[bad_tenant])
        (err,) = exc.value.errors
        assert str(err) == "unknown data center 'DC_NOWHERE' (at tenants.csv:3)"

    def test_unknown_datacenter_in_tenant_list_named_by_line(self, tmp_path):
        other = GOOD_TENANT.replace("TENANT_X,Fictitious Co,250,DC_EU1",
                                    'TENANT_Y,Other Co,40,"DC_EU1;DC_09"')
        with pytest.raises(ValidationFailure) as exc:
            self._load(tmp_path, tenants=[GOOD_TENANT, other])
        (err,) = exc.value.errors
        assert str(err) == "unknown data center 'DC_09' (at tenants.csv:4)"

    def test_orphan_usage_when_tenant_does_not_list_dc(self, tmp_path):
        dc2 = GOOD_DC.replace("DC_EU1", "DC_US2")
        stray = GOOD_SERVER.replace("DC_EU1", "DC_US2").replace("SERVER_1234",
                                                                "SERVER_2")
        with pytest.raises(ValidationFailure) as exc:
            self._load(tmp_path, datacenters=[GOOD_DC, dc2],
                       servers=[GOOD_SERVER, stray])
        (err,) = exc.value.errors
        assert str(err) == ("usage for device 'SERVER_2': tenant 'TENANT_X' does not "
                            "use data center 'DC_US2' (at servers.csv:4)")

    def test_server_device_cannot_appear_twice(self, tmp_path):
        tenant2 = GOOD_TENANT.replace("TENANT_X,Fictitious Co", "TENANT_Y,Other Co")
        dup = GOOD_SERVER.replace("TENANT_X", "TENANT_Y")
        with pytest.raises(ValidationFailure) as exc:
            self._load(tmp_path, tenants=[GOOD_TENANT, tenant2],
                       servers=[GOOD_SERVER, dup])
        (err,) = exc.value.errors
        assert str(err) == ("server device 'SERVER_1234' in 'DC_EU1' shared between "
                            "tenants TENANT_X, TENANT_Y (at servers.csv:3, servers.csv:4)")

    def test_network_device_shared_by_tenants_is_fine(self, tmp_path):
        tenant2 = GOOD_TENANT.replace("TENANT_X,Fictitious Co", "TENANT_Y,Other Co")
        shared = GOOD_NETWORK.replace("TENANT_X", "TENANT_Y")
        raw = self._load(tmp_path, tenants=[GOOD_TENANT, tenant2],
                         network=[GOOD_NETWORK, shared])
        assert len(raw.network) == 2

    def test_repeated_network_triple_rejected(self, tmp_path):
        with pytest.raises(ValidationFailure) as exc:
            self._load(tmp_path, network=[GOOD_NETWORK, GOOD_NETWORK])
        (err,) = exc.value.errors
        assert str(err) == ("network.csv:4: duplicate network usage (device, tenant) "
                            "pair 'NETWORK_DEVICE_1234/TENANT_X'")

    def test_repeated_network_triple_named_when_the_label_holds_a_colon(
            self, tmp_path):
        path = csv_file(tmp_path, "exports:network.csv", NETWORK_HEADER,
                        GOOD_NETWORK, GOOD_NETWORK)
        network = read_network(path)
        with pytest.raises(ValidationFailure) as exc:
            assemble_raw_data(PERIOD, read_datacenters(csv_file(
                tmp_path, "datacenters.csv", DC_HEADER, GOOD_DC)), read_tenants(
                csv_file(tmp_path, "tenants.csv", TENANT_HEADER, GOOD_TENANT)),
                (), network)
        (err,) = exc.value.errors
        assert str(err) == ("exports:network.csv:4: duplicate network usage (device, "
                            "tenant) pair 'NETWORK_DEVICE_1234/TENANT_X'")

    def test_all_reference_errors_reported_at_once(self, tmp_path):
        bad_server = GOOD_SERVER.replace("TENANT_X", "TENANT_GHOST").replace(
            "SERVER_1234", "SERVER_2")
        bad_network = GOOD_NETWORK.replace("DC_EU1", "DC_NOWHERE")
        with pytest.raises(ValidationFailure) as exc:
            self._load(tmp_path, servers=[GOOD_SERVER, bad_server],
                       network=[GOOD_NETWORK, bad_network])
        assert [str(e) for e in exc.value.errors] == [
            "unknown tenant 'TENANT_GHOST' (at servers.csv:4)",
            "unknown data center 'DC_NOWHERE' (at network.csv:4)"]
        assert isinstance(exc.value.errors[0], UnknownTenant)

    def test_reference_errors_come_in_a_fixed_order(self, tmp_path):
        """Every kind of cross-file fault at once: server orphans, then
        devices claimed twice, then network repeats and orphans in row
        order, then unknown tenants and data centers by id, each naming its
        usage rows before its tenants.csv rows."""
        tenant2 = 'TENANT_Y,Other Co,10,"DC_EU1;DC_MARS",1.0'
        servers = [GOOD_SERVER,
                   GOOD_SERVER.replace("SERVER_1234", "SERVER_2")
                   .replace("TENANT_X", "TENANT_GHOST"),
                   GOOD_SERVER.replace("DC_EU1", "DC_US2")
                   .replace("SERVER_1234", "SERVER_3"),
                   GOOD_SERVER.replace("TENANT_X", "TENANT_Y")]
        network = [GOOD_NETWORK, GOOD_NETWORK,
                   GOOD_NETWORK.replace("DC_EU1", "DC_NOWHERE"),
                   GOOD_NETWORK.replace("DC_EU1", "DC_US2")
                   .replace("NETWORK_DEVICE_1234", "NET_2"),
                   GOOD_NETWORK.replace("TENANT_X", "TENANT_GHOST"),
                   GOOD_NETWORK.replace("DC_EU1", "DC_MARS")
                   .replace("TENANT_X", "TENANT_Y")]
        with pytest.raises(ValidationFailure) as exc:
            self._load(tmp_path, servers=servers, network=network,
                       datacenters=[GOOD_DC, GOOD_DC.replace("DC_EU1", "DC_US2")],
                       tenants=[GOOD_TENANT, tenant2])
        assert str(exc.value) == (
            "7 validation error(s):\n"
            "  usage for device 'SERVER_3': tenant 'TENANT_X' does not use data "
            "center 'DC_US2' (at servers.csv:5)\n"
            "  server device 'SERVER_1234' in 'DC_EU1' shared between tenants "
            "TENANT_X, TENANT_Y (at servers.csv:3, servers.csv:6)\n"
            "  network.csv:4: duplicate network usage (device, tenant) pair "
            "'NETWORK_DEVICE_1234/TENANT_X'\n"
            "  usage for device 'NET_2': tenant 'TENANT_X' does not use data "
            "center 'DC_US2' (at network.csv:6)\n"
            "  unknown tenant 'TENANT_GHOST' (at servers.csv:4, network.csv:7)\n"
            "  unknown data center 'DC_MARS' (at network.csv:8, tenants.csv:4)\n"
            "  unknown data center 'DC_NOWHERE' (at network.csv:5)")

    def test_assemble_accepts_empty_usage(self, tmp_path):
        raw = self._load(tmp_path, servers=[], network=[])
        assert raw.servers == () and raw.network == ()


def test_direct_assembly_matches_file_loading(tmp_path, fictitious_raw):
    """Writing the fixture to CSV and loading it back reproduces it."""
    dc = fictitious_raw.datacenters["DC_EU1"]
    write_input_dir(
        tmp_path,
        servers=["DC_EU1,SERVER_1234,ABC_987,TENANT_X,0.1,2e7,5e9,2e10"],
        network=[GOOD_NETWORK],
        datacenters=['DC_EU1,Amsterdam South,eu-west,0.4,"CRAC_1:4000000",'
                     '"PDU_1:280000",,0,0,0'],
        tenants=[GOOD_TENANT],
    )
    loaded = load_input_dir(tmp_path, PERIOD)
    assert loaded.datacenters["DC_EU1"] == dc
    assert loaded.tenants == fictitious_raw.tenants
    assert loaded.servers == fictitious_raw.servers
    assert loaded.network == fictitious_raw.network


@pytest.mark.parametrize("kind", ["servers", "network", "datacenters", "tenants"])
def test_rows_compare_and_hash_without_their_source_ref(fictitious_raw, kind):
    """Two rows that differ only in ``source_ref`` are equal and hash alike;
    ``!=`` agrees with ``==``; a row never equals a plain tuple or a record
    of another type holding the same values."""
    records = getattr(fictitious_raw, kind)
    row = next(iter(records.values() if isinstance(records, dict) else records))
    moved = row._replace(source_ref="elsewhere.csv:99")
    assert row == moved and not row != moved
    assert hash(row) == hash(moved)
    changed = row._replace(**{row._fields[0]: "OTHER_ID"})
    assert row != changed and not row == changed

    class Subtype(type(row)):
        __slots__ = ()

    for other in (tuple(row), Subtype(*row)):
        assert not row == other and row != other
        assert not other == row and other != row
    twin = collections.namedtuple("Twin", row._fields)(*row)
    assert not row == twin and row != twin


def test_assemble_raw_data_rejects_same_errors_in_memory(fictitious_raw):
    stray = fictitious_raw.servers[0]
    stray = type(stray)(
        datacenter_id="DC_EU1", device_id="SERVER_9", device_model="ABC_987",
        tenant_id="TENANT_GHOST", cpu_utilization=0.5, cache_moved=0.0,
        dram_accessed=0.0, disk_moved=0.0,
    )
    with pytest.raises(ValidationFailure):
        assemble_raw_data(
            period=PERIOD,
            datacenters=fictitious_raw.datacenters,
            tenants=fictitious_raw.tenants,
            servers=fictitious_raw.servers + (stray,),
            network=fictitious_raw.network,
        )


# Faults a servers.csv or network.csv table may carry: a bad cell (the
# columns that may hold it, the values it writes), a record too short for
# the header, a comment and a blank record. A drawn table holds at most one
# fault of each kind.
_NUMBERS = {"non-finite": ("nan", "NaN", "inf", "Infinity"),
            "negative": ("-1", "-5e-324", "-inf"),
            "not-a-number": ("lots", "0x10", "1e", "")}
_IDS = {"id": ("../x", "_x", "a b", "TENANT_\u00c9", "."),
        "empty-id": ("",)}
USAGE_FAULTS = {
    "servers.csv": {
        "empty-text": (("device_id", "device_model"), ("",)),
        **{kind: (("cpu_utilization", "cache_moved", "dram_accessed",
                   "disk_moved"), values) for kind, values in _NUMBERS.items()},
        "utilization": (("cpu_utilization",), ("1.5", "1.0000000000000002")),
        **{kind: (("datacenter_id", "tenant_id"), values)
           for kind, values in _IDS.items()},
    },
    "network.csv": {
        "empty-text": (("device_id", "device_type"), ("",)),
        **{kind: (("bytes_sent", "bytes_received"), values)
           for kind, values in _NUMBERS.items()},
        "spelling": (("bytes_sent", "bytes_received"),
                     ("1e3", "10.5", "-0", "+5", "5_0", "\u0663", "1e20")),
        "non-ascii-digits": (("bytes_sent", "bytes_received"),
                             ("\u0663" * 17, "\u0661\u0668" * 10)),
        "huge": (("bytes_sent", "bytes_received"), (str(2**64), "9" * 5000)),
        **{kind: (("datacenter_id", "tenant_id"), values)
           for kind, values in _IDS.items()},
    },
}


NEGATIVE_ZEROS = st.sampled_from(["-0", "-0.0"])
PADDING = st.sampled_from(["", "", " ", "\t", " \t "])
# An unread last column, whose quoted cells may span lines.
BATCHES = st.sampled_from(["b", '"x,y"', '"say ""hi"""', '"two\nlines"',
                           '"two\r\nlines"'])


@st.composite
def usage_tables(draw, name: str) -> str:
    """The text of a servers.csv or network.csv: valid records in a drawn
    column order, with at most one fault of each kind. Unquoted cells are
    padded with spaces and tabs, a last unread cell may be quoted and span
    lines, and lines end in LF or CRLF."""
    header = (SERVER_HEADER if name == "servers.csv" else NETWORK_HEADER).split(",")
    records = []
    for i in range(draw(st.integers(1, 6))):
        cells = dict(datacenter_id=draw(st.sampled_from(["DC_EU1", "dc.2-b"])),
                     device_id=f"DEV_{i}", device_model="ABC_987",
                     device_type="router",
                     tenant_id=draw(st.sampled_from(["TENANT_X", "0", "t.y"])))
        if name == "servers.csv":
            for column, top in (("cpu_utilization", 1.0), ("cache_moved", 1e300),
                                ("dram_accessed", 1e300), ("disk_moved", 1e300)):
                cells[column] = draw(st.one_of(st.floats(0.0, top).map(repr),
                                               NEGATIVE_ZEROS))
        else:
            for column in ("bytes_sent", "bytes_received"):
                cells[column] = draw(st.one_of(st.integers(0, 2**64 - 1).map(str),
                                               NEGATIVE_ZEROS))
        records.append(cells)
    faults = USAGE_FAULTS[name]
    # Mostly one kind, so that each check is the only one a table can fail.
    every_kind = [*faults, "short", "comment", "blank"]
    kinds = {draw(st.sampled_from([None, *every_kind]))}
    if draw(st.integers(0, 3)) == 0:
        kinds |= draw(st.sets(st.sampled_from(every_kind), max_size=2))
    for kind in kinds & faults.keys():
        columns, values = faults[kind]
        records[draw(st.integers(0, len(records) - 1))][
            draw(st.sampled_from(columns))] = draw(st.sampled_from(values))

    def padded(cell: str) -> str:
        return draw(PADDING) + cell + draw(PADDING)

    order = draw(st.permutations(header))
    lines = [",".join(map(padded, [*order, "batch"]))]
    lines += [",".join([*(padded(r[c]) for c in order), draw(BATCHES)])
              for r in records]
    if "short" in kinds:  # may still hold every required column
        at = draw(st.integers(1, len(lines) - 1))
        lines[at] = ",".join(lines[at].split(",")[:draw(st.integers(1, len(order)))])
    for kind, record in (("comment", "# a comment,x"), ("blank", "")):
        if kind in kinds:
            lines.insert(draw(st.integers(1, len(lines))), record)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join((SCHEMA_LINE, *lines)) + end


def outcome(read):
    """The records ``read()`` returns with their refs, or its error."""
    try:
        return [(record, record.source_ref) for record in read()]
    except IngestError as exc:
        return type(exc), str(exc)


USAGE_FILES = {"servers.csv": (read_servers, ServerUsage, ingest._SERVER_USAGE),
               "network.csv": (read_network, NetworkUsage, ingest._NETWORK_USAGE)}


class TestColumnChecks:
    """read_servers and read_network check a column at a time; each column's
    _Row getter, run row by row, is the reference they must agree with."""

    @pytest.mark.parametrize("name", ["servers.csv", "network.csv"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_row_getters(self, data, name):
        text = data.draw(usage_tables(name))
        read, record, columns = USAGE_FILES[name]

        def from_row(row):
            return record(**{column: kind.getter(row, column)
                             for column, kind in columns.items()},
                          source_ref=row.ref)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_text(text, encoding="utf-8")
            expected = outcome(lambda: map(
                from_row, ingest.read_table(path, tuple(columns)).rows()))
            # By repr, so that a float's sign and an int's type count.
            assert repr(outcome(lambda: read(path))) == repr(expected)

    @pytest.mark.parametrize("name", ["servers.csv", "network.csv"])
    def test_columns_are_the_record_fields(self, name):
        _, record, columns = USAGE_FILES[name]
        assert (*columns, "source_ref") == record._fields

    def test_first_bad_cell_in_column_order_is_named(self, tmp_path):
        bad = GOOD_SERVER.replace("DC_EU1", "DC/1").replace(",0.10,", ",1.5,")
        path = csv_file(tmp_path, "servers.csv", SERVER_HEADER, bad)
        with pytest.raises(MalformedRow, match=r"^servers\.csv:3: datacenter_id: "):
            read_servers(path)

    def test_valid_fleet_builds_no_row_for_usage_files(self, tmp_path,
                                                       monkeypatch):
        fleet = generate_fleet(7, 200, 20)
        write_fleet(fleet, tmp_path)
        built: Counter[str] = Counter()
        init = ingest._Row.__init__

        def counting_init(row, source, *args):
            built[source] += 1
            init(row, source, *args)

        monkeypatch.setattr(ingest._Row, "__init__", counting_init)
        assert load_input_dir(tmp_path, fleet.raw.period) == fleet.raw
        assert len(fleet.raw.servers) > 3000 and len(fleet.raw.network) > 1000
        assert built["servers.csv"] == built["network.csv"] == 0
        assert built["tenants.csv"] == 200


# Cell text for the round trips: the format's own delimiters and line breaks,
# the separators str.splitlines would split on, and any other character.
# Values with surrounding whitespace or a leading '#' are kept in: the writer
# must refuse them, as the reader would strip them or skip their record.
cell_texts = st.text(st.one_of(st.sampled_from(',"\n\r\u2028\u2029\x85\x0c #;:'),
                               st.characters(exclude_categories=("Cs",))),
                     min_size=1, max_size=8)


def unwritable(value: str, first_cell: bool = False) -> bool:
    return value != value.strip() or (first_cell and value.startswith("#"))


def unwritable_device_id(value: str) -> bool:
    """Whether a multi-value cell's reader would split, strip or drop it."""
    return unwritable(value) or not value or ";" in value or ":" in value


DEVICE_COLUMNS = ("cooling_devices", "other_devices", "fuel_log")


@st.composite
def text_fleets(draw) -> SynthFleet:
    """A synthetic fleet whose free-text cells and device ids hold drawn text.

    The first tenant's display name and one drawn shared-device or fuel id
    are drawn as is; every other text is wrapped in letters, so it is
    writable whatever it holds inside, and every other device id is its
    generated id followed by drawn text without ';' or ':'.
    """
    fleet = generate_fleet(draw(st.integers(0, 2**16)), draw(st.integers(1, 3)),
                           draw(st.integers(1, 2)))
    raw = fleet.raw
    wrapped = cell_texts.map("x{}x".format)
    suffixes = cell_texts.map(lambda text: text.replace(";", "").replace(":", "") + "x")
    as_is = draw(st.sampled_from([
        (dc_id, column, i) for dc_id, dc in raw.datacenters.items()
        for column in DEVICE_COLUMNS for i in range(len(getattr(dc, column)))]))

    def device_ids(dc_id, dc):
        return {column: tuple(
            entry._replace(device_id=draw(cell_texts) if (dc_id, column, i) == as_is
                           else entry.device_id + draw(suffixes))
            for i, entry in enumerate(getattr(dc, column)))
            for column in DEVICE_COLUMNS}

    return SynthFleet(raw=assemble_raw_data(
        period=raw.period,
        datacenters={k: dc._replace(name=draw(wrapped), region=draw(wrapped),
                                    **device_ids(k, dc))
                     for k, dc in raw.datacenters.items()},
        tenants={k: t._replace(
                     display_name=draw(cell_texts if i == 0 else wrapped))
                 for i, (k, t) in enumerate(raw.tenants.items())},
        servers=tuple(r._replace(
            device_id=r.device_id + draw(wrapped),
            device_model=draw(wrapped))
            for r in raw.servers),
        network=tuple(r._replace(device_type=draw(wrapped))
                      for r in raw.network),
    ), models=fleet.models)


def test_synth_spells_no_input_column():
    """The input files' format lives in ingest: synth.py names none of the
    columns they are written with as a string literal."""
    texts = ingest.format_inputs(generate_fleet(1, 2, 2).raw)
    columns = {column for text in texts.values()
               for column in text.splitlines()[1].split(",")}
    assert len(columns) == 24
    spelled = [node.value
               for node in ast.walk(ast.parse(Path(synth.__file__).read_text(
                   encoding="utf-8")))
               if isinstance(node, ast.Constant) and node.value in columns]
    assert spelled == []


class TestTableRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(fleet=text_fleets())
    def test_write_fleet_then_load_returns_the_fleet(self, fleet):
        raw = fleet.raw
        with tempfile.TemporaryDirectory() as tmp:
            device_ids = [entry.device_id for dc in raw.datacenters.values()
                          for column in DEVICE_COLUMNS for entry in getattr(dc, column)]
            if (unwritable(raw.tenants["TENANT_01"].display_name)
                    or any(map(unwritable_device_id, device_ids))):
                with pytest.raises(MalformedRow, match="cannot be written"):
                    write_fleet(fleet, tmp)
                assert not any(Path(tmp).iterdir())
                return
            write_fleet(fleet, tmp)
            assert load_input_dir(tmp, raw.period) == raw

    @pytest.mark.parametrize("column", DEVICE_COLUMNS)
    @pytest.mark.parametrize("device_id", ["X:5.0;Y", "X;Y", "", " X", "X\u2028"])
    def test_writer_refuses_a_device_id_the_reader_would_split(
            self, tmp_path, column, device_id):
        fleet = generate_fleet(3, 3, 2)
        dc = fleet.raw.datacenters["DC_01"]
        entry = (SharedDevice(device_id, 7.0) if column != "fuel_log"
                 else FuelEntry(device_id, 7.0, 2.0))
        raw = fleet.raw._replace(datacenters={
            **fleet.raw.datacenters, "DC_01": dc._replace(**{column: (entry,)})})
        with pytest.raises(MalformedRow, match=(
                f"^datacenters\\.csv:3: {column}: {re.escape(repr(device_id))} "
                "cannot be written: ")):
            write_fleet(fleet._replace(raw=raw), tmp_path)
        assert not any(tmp_path.iterdir())

    @settings(max_examples=60, deadline=None)
    @given(names=st.lists(st.one_of(cell_texts, cell_texts.map("#".__add__)),
                          min_size=1, max_size=4, unique=True),
           weights=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                            min_size=5, max_size=5),
           r2=st.floats(max_value=1.0, allow_nan=False, allow_infinity=False))
    def test_format_models_then_read_returns_the_models(self, names, weights, r2):
        models = {name: ServerPowerModel(name, *weights, adjusted_r2=r2)
                  for name in names}
        if any(unwritable(name, first_cell=True) for name in names):
            with pytest.raises(MalformedRow, match="cannot be written"):
                format_models(models)
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "models.csv"
            path.write_text(format_models(models), encoding="utf-8")
            assert read_models(path) == models

    @pytest.mark.parametrize("name, reason", [
        ("#X", "it would read as a comment"),
        (" X", "surrounding whitespace"),
        ("X\u2028", "surrounding whitespace"),
    ])
    def test_writer_refuses_what_would_read_back_differently(self, name, reason):
        model = ServerPowerModel(name, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(MalformedRow, match=f"^models\\.csv:3: device_model: "
                                               f".* cannot be written: {reason}"):
            format_models({name: model})
