"""Synthetic fleet generator and the command-line workflow around it."""

import argparse
import ast
import contextlib
import errno
import gc
import importlib
import io
import json
import os
import pkgutil
import random
import re
import shutil
import subprocess
import sys
import tempfile
import types
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from carbonalloc import allocation, cli, history
from carbonalloc.cli import (
    EXIT_AUDIT_MISMATCH,
    EXIT_COMPUTATION,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from carbonalloc.errors import CarbonAllocError, MalformedRow
from carbonalloc.history import HistoryStore
from carbonalloc.ingest import format_inputs, load_input_dir
from carbonalloc.power import read_models
from carbonalloc.report import (
    ReportError,
    footprint_from_json,
    load_equivalency_factors,
    render_json,
    render_onepage,
)
from carbonalloc.synth import generate_fleet, write_fleet
from carbonalloc.units import Period
from conftest import src_env


def write_factors(tmp_path: Path) -> Path:
    path = tmp_path / "equivalencies.json"
    path.write_text(json.dumps({
        "flight_ams_nyc_g": 500000, "car_km_g": 250,
        "smartphone_charge_g": 8.22, "source_note": "test factors",
    }), encoding="utf-8")
    return path


def run_with_closed_stdout(args: list[str]) -> subprocess.CompletedProcess:
    """Run the console script with standard output a pipe nobody reads."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "carbonalloc.cli", *args],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120, env=src_env())
    finally:
        os.close(write_end)


def write_samples(path: Path) -> Path:
    """A calibration samples file from which one model, ABC_987, fits."""
    calibrate = TestCalibrateCommand()
    return calibrate._write_samples(path, calibrate._noiseless_rows("ABC_987", 20))


@pytest.fixture
def workspace(tmp_path):
    """A synthetic fleet on disk plus the factors file tests compute against."""
    fleet_dir = tmp_path / "fleet"
    assert main(["synth", "--seed", "42", "--tenants", "4", "--dcs", "2",
                 "--out-dir", str(fleet_dir)]) == EXIT_OK
    return {
        "root": tmp_path,
        "fleet": fleet_dir,
        "models": fleet_dir / "models.csv",
        "factors": write_factors(tmp_path),
        "out": tmp_path / "out",
    }


def append_rows(path: Path, *rows: str) -> None:
    with open(path, "a", encoding="utf-8") as f:
        f.writelines(row + "\n" for row in rows)


def run_compute(ws, period="2025-06", extra=()):
    return main(["compute", "--period", period,
                 "--input-dir", str(ws["fleet"]),
                 "--models", str(ws["models"]),
                 "--equivalencies", str(ws["factors"]),
                 "--out-dir", str(ws["out"]), *extra])


def run_audit(ws, report: Path, extra=()):
    return main(["audit", "--report", str(report),
                 "--input-dir", str(ws["fleet"]),
                 "--models", str(ws["models"]), *extra])


def fail_stat(monkeypatch, failing: Path) -> None:
    """Make ``Path.stat`` of ``failing`` raise EACCES, as it does for a file
    in a directory without search permission; file modes do not stop root."""
    real = Path.stat

    def stat(path, *args, **kwargs):
        if path == failing:
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(Path, "stat", stat)


class TestGenerateFleet:
    def test_same_seed_same_fleet(self):
        a = generate_fleet(seed=42, n_tenants=5, n_dcs=3)
        b = generate_fleet(seed=42, n_tenants=5, n_dcs=3)
        assert a.raw == b.raw
        assert a.models == b.models

    def test_different_seeds_differ(self):
        a = generate_fleet(seed=1, n_tenants=5, n_dcs=3)
        b = generate_fleet(seed=2, n_tenants=5, n_dcs=3)
        assert a.raw != b.raw

    def test_every_datacenter_covered(self):
        fleet = generate_fleet(seed=7, n_tenants=3, n_dcs=5)
        used = {dc for t in fleet.raw.tenants.values() for dc in t.datacenter_ids}
        assert used == set(fleet.raw.datacenters)

    def test_every_declared_pair_has_a_server(self):
        fleet = generate_fleet(seed=7, n_tenants=6, n_dcs=3)
        server_pairs = {(r.tenant_id, r.datacenter_id) for r in fleet.raw.servers}
        for tenant in fleet.raw.tenants.values():
            for dc_id in tenant.datacenter_ids:
                assert (tenant.tenant_id, dc_id) in server_pairs

    def test_no_offsets_mode(self):
        fleet = generate_fleet(seed=7, n_tenants=3, n_dcs=2, with_offsets=False)
        for dc in fleet.raw.datacenters.values():
            assert dc.fuel_log == ()
            assert dc.scope3_total == 0.0
            assert dc.green_energy == 0.0
            assert dc.rec_offset == 0.0

    def test_byte_counters_are_even(self):
        # Even counts keep 0.5x scaling exercises integral.
        fleet = generate_fleet(seed=13, n_tenants=5, n_dcs=3)
        assert fleet.raw.network, "expected some network rows"
        for row in fleet.raw.network:
            assert row.bytes_sent % 2 == 0
            assert row.bytes_received % 2 == 0

    def test_write_fleet_is_deterministic(self, tmp_path):
        fleet = generate_fleet(seed=42, n_tenants=4, n_dcs=2)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_fleet(fleet, dir_a)
        write_fleet(fleet, dir_b)
        for name in ("servers.csv", "network.csv", "datacenters.csv",
                     "tenants.csv", "models.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_written_fleet_loads_back_identically(self, tmp_path):
        fleet = generate_fleet(seed=42, n_tenants=4, n_dcs=2)
        write_fleet(fleet, tmp_path)
        loaded = load_input_dir(tmp_path, fleet.raw.period)
        assert loaded == fleet.raw

    def test_refused_value_writes_no_file(self, tmp_path):
        fleet = generate_fleet(seed=42, n_tenants=4, n_dcs=2)
        tenants = dict(fleet.raw.tenants)
        tenants["TENANT_04"] = tenants["TENANT_04"]._replace(display_name=" padded")
        fleet = fleet._replace(raw=fleet.raw._replace(tenants=tenants))
        with pytest.raises(MalformedRow, match="tenants.csv:6: display_name"):
            write_fleet(fleet, tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestComputeCommand:
    def test_writes_report_pair_per_tenant(self, workspace, capsys):
        assert run_compute(workspace) == EXIT_OK
        out = capsys.readouterr().out
        assert "conservation audit: PASS" in out
        reports = workspace["out"] / "reports"
        tenants = sorted(p.name for p in reports.iterdir())
        assert tenants == ["TENANT_01", "TENANT_02", "TENANT_03", "TENANT_04"]
        for tenant in tenants:
            assert (reports / tenant / "2025-06.json").exists()
            assert (reports / tenant / "2025-06.html").exists()
        assert (workspace["out"] / "history" / "TENANT_01" / "2025-06.json").exists()

    def test_rerun_is_byte_identical(self, workspace):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_01" / "2025-06.json"
        first = report.read_bytes()
        assert run_compute(workspace) == EXIT_OK
        assert report.read_bytes() == first

    def test_rendering_failure_writes_nothing(self, tmp_path, monkeypatch):
        """Every report is rendered before the first is written: a render
        that fails for the second tenant propagates, and no ``--out-dir``
        is made."""
        fleet, out = tmp_path / "fleet", tmp_path / "out"
        assert main(["synth", "--seed", "1", "--tenants", "2", "--dcs", "2",
                     "--out-dir", str(fleet)]) == EXIT_OK
        real = cli.render_onepage

        def render_onepage(fp, factors):
            if fp.tenant_id == "TENANT_02":
                raise RuntimeError("rendering failed")
            return real(fp, factors)

        monkeypatch.setattr(cli, "render_onepage", render_onepage)
        with pytest.raises(RuntimeError, match="^rendering failed$"):
            main(["compute", "--period", "2025-01", "--input-dir", str(fleet),
                  "--models", str(fleet / "models.csv"),
                  "--equivalencies", str(write_factors(tmp_path)),
                  "--out-dir", str(out)])
        assert not out.exists()

    def test_validation_error_exits_1(self, workspace, capsys):
        servers = workspace["fleet"] / "servers.csv"
        bad = servers.read_text() + "DC_01,SRV_X,MODEL_A,TENANT_GHOST,0.5,0,0,0\n"
        servers.write_text(bad)
        assert run_compute(workspace) == EXIT_VALIDATION
        assert "TENANT_GHOST" in capsys.readouterr().err

    def test_malformed_csv_exits_1(self, workspace, capsys):
        servers = workspace["fleet"] / "servers.csv"
        servers.write_text("no schema line here\n" + servers.read_text())
        assert run_compute(workspace) == EXIT_VALIDATION
        assert "schema_version" in capsys.readouterr().err

    def test_repeated_read_column_exits_1_naming_the_header(self, workspace, capsys):
        """An optional column given twice, once in another case, is refused."""
        path = workspace["fleet"] / "datacenters.csv"
        schema, header, *rows = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([schema, header + ",Scope3_Total",
                                   *(row + ",0" for row in rows)]) + "\n",
                        encoding="utf-8")
        assert run_compute(workspace) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "datacenters.csv:2: duplicate column 'Scope3_Total'\n")

    def test_missing_models_file_exits_1(self, workspace, capsys):
        workspace["models"].unlink()
        assert run_compute(workspace) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"{workspace['models']}:0: cannot read file: No such file or directory\n")

    def test_input_file_whose_check_fails_exits_1_naming_it(self, workspace,
                                                             monkeypatch, capsys):
        """An input file whose existence check fails is a file that cannot
        be read, for ``compute`` and ``audit`` alike, not an output."""
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_01" / "2025-06.json"
        servers = workspace["fleet"] / "servers.csv"
        capsys.readouterr()
        fail_stat(monkeypatch, servers)
        assert run_compute(workspace) == EXIT_VALIDATION
        assert run_audit(workspace, report) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"{servers}:0: cannot read file: Permission denied\n" * 2)

    def test_missing_model_exits_1(self, workspace, capsys):
        models = workspace["models"]
        lines = models.read_text().splitlines()
        kept = [ln for ln in lines if not ln.startswith("MODEL_A")]
        assert len(kept) < len(lines), "fleet should use MODEL_A"
        models.write_text("\n".join(kept) + "\n")
        assert run_compute(workspace) == EXIT_VALIDATION
        assert "MODEL_A" in capsys.readouterr().err

    def test_negative_estimate_warns_once_per_device(self, workspace, caplog):
        models = workspace["models"]
        models.write_text("\n".join(
            "MODEL_A,-1e9," + line.split(",", 2)[2] if line.startswith("MODEL_A")
            else line for line in models.read_text().splitlines()) + "\n")
        clamped = [line.split(",")[1] for line in
                   (workspace["fleet"] / "servers.csv").read_text().splitlines()
                   if ",MODEL_A," in line]
        assert clamped, "fleet should use MODEL_A"
        assert run_compute(workspace) == EXIT_OK
        warned = Counter(record.args[1] for record in caplog.records
                         if record.msg.startswith("negative energy estimate"))
        assert warned == Counter(clamped)

        # audit builds device detail for the audited tenant only, so it warns
        # about that tenant's devices and no others.
        tenant_of = {line.split(",")[1]: line.split(",")[3] for line in
                     (workspace["fleet"] / "servers.csv").read_text().splitlines()
                     if ",MODEL_A," in line}
        tenants = sorted(p.name for p in (workspace["out"] / "reports").iterdir())
        assert set(tenant_of.values()) < set(tenants)
        for tenant in tenants:
            caplog.clear()
            report = workspace["out"] / "reports" / tenant / "2025-06.json"
            assert run_audit(workspace, report) == EXIT_OK
            warned = Counter(record.args[1] for record in caplog.records
                             if record.msg.startswith("negative energy estimate"))
            assert warned == Counter(d for d in clamped if tenant_of[d] == tenant)

    def test_subsequent_month_reports_trend(self, workspace):
        assert run_compute(workspace, period="2025-05") == EXIT_OK
        assert run_compute(workspace, period="2025-06") == EXIT_OK
        doc = json.loads((workspace["out"] / "reports" / "TENANT_01" /
                          "2025-06.json").read_text())
        (entry,) = doc["summary"]["history"]
        assert entry["period"] == "2025-05"
        assert entry["pctChange"] == 0.0  # identical inputs both months

    def test_unreadable_history_file_is_skipped_with_warning(
            self, workspace, monkeypatch, caplog):
        """A history file that cannot be read ends that tenant's lookback, as
        a corrupt one does; the month is still computed and written. The read
        fails by patch, because file modes do not stop root."""
        assert run_compute(workspace, period="2025-05") == EXIT_OK
        unreadable = workspace["out"] / "history" / "TENANT_01" / "2025-05.json"
        real = Path.read_bytes

        def read_bytes(path):
            if path == unreadable:
                raise PermissionError(errno.EACCES, "Permission denied", str(path))
            return real(path)

        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        assert run_compute(workspace, period="2025-06") == EXIT_OK
        assert [record.getMessage() for record in caplog.records
                if record.name == "carbonalloc.history"] == [
            f"unreadable history file {unreadable}: Permission denied"]
        reports = workspace["out"] / "reports"
        trends = {tenant: json.loads((reports / tenant / "2025-06.json")
                                     .read_text())["summary"]["history"]
                  for tenant in ("TENANT_01", "TENANT_02")}
        assert trends["TENANT_01"] == []
        assert [entry["period"] for entry in trends["TENANT_02"]] == ["2025-05"]

    def test_history_file_whose_check_fails_is_skipped_with_warning(
            self, workspace, monkeypatch, caplog):
        """A history file whose existence check fails is skipped as one that
        cannot be read is, not reported as an output that cannot be written."""
        assert run_compute(workspace, period="2025-05") == EXIT_OK
        unreadable = workspace["out"] / "history" / "TENANT_01" / "2025-05.json"
        fail_stat(monkeypatch, unreadable)
        assert run_compute(workspace, period="2025-06") == EXIT_OK
        assert [record.getMessage() for record in caplog.records
                if record.name == "carbonalloc.history"] == [
            f"unreadable history file {unreadable}: Permission denied"]
        report = workspace["out"] / "reports" / "TENANT_01" / "2025-06.json"
        assert json.loads(report.read_text())["summary"]["history"] == []

    def test_path_escaping_tenant_id_exits_1_and_writes_nothing(self, workspace,
                                                                capsys):
        for name in ("tenants.csv", "servers.csv", "network.csv"):
            path = workspace["fleet"] / name
            path.write_text(path.read_text().replace("TENANT_01", "../../escape"))
        assert run_compute(workspace) == EXIT_VALIDATION
        assert "tenants.csv:3: tenant_id: '../../escape'" in capsys.readouterr().err
        assert not workspace["out"].exists()
        assert not (workspace["root"] / "escape").exists()

    @pytest.mark.parametrize("length", [255, 256])
    def test_id_longer_than_a_file_name_exits_1_and_writes_nothing(
            self, workspace, capsys, length):
        """An id names a report directory, so one longer than a file name
        may be is refused where it is read, before anything is written."""
        long_id = "T" * length
        for name in ("tenants.csv", "servers.csv", "network.csv"):
            path = workspace["fleet"] / name
            path.write_text(path.read_text().replace("TENANT_01", long_id))
        if length == 255:
            assert run_compute(workspace) == EXIT_OK
            assert (workspace["out"] / "reports" / long_id / "2025-06.json").is_file()
            return
        assert run_compute(workspace) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"tenants.csv:3: tenant_id: {long_id!r} is not a valid id (letters, "
            "digits, '_', '.' and '-', starting with a letter or digit, at most "
            "255 characters)\n")
        assert not workspace["out"].exists()

    def test_datacenter_no_tenant_declares_changes_no_report(self, tmp_path, capsys):
        """The conservation audit skips a data center without tenants: it
        adds no check, and the reports are those of the fleet without it."""
        fleet = tmp_path / "fleet"
        assert main(["synth", "--seed", "5", "--tenants", "3", "--dcs", "2",
                     "--out-dir", str(fleet)]) == EXIT_OK
        factors = write_factors(tmp_path)

        def compute(out: Path) -> dict[str, bytes | None]:
            capsys.readouterr()
            assert main(["compute", "--period", "2025-06", "--input-dir", str(fleet),
                         "--models", str(fleet / "models.csv"),
                         "--equivalencies", str(factors),
                         "--out-dir", str(out)]) == EXIT_OK
            assert capsys.readouterr().out.startswith(
                "conservation audit: PASS (12 checks, ")
            return snapshot(out)

        without = compute(tmp_path / "without")
        datacenters = fleet / "datacenters.csv"
        dc_01 = next(line for line in datacenters.read_text().splitlines()
                     if line.startswith("DC_01,"))
        append_rows(datacenters, dc_01.replace("DC_01", "DC_09"))
        assert compute(tmp_path / "with") == without

    def test_earliest_period_has_no_lookback(self, workspace):
        assert run_compute(workspace, period="0001-01") == EXIT_OK
        doc = json.loads((workspace["out"] / "reports" / "TENANT_01" /
                          "0001-01.json").read_text())
        assert doc["summary"]["history"] == []

    def test_render_failure_writes_nothing(self, workspace, monkeypatch):
        real = cli.render_onepage
        calls = []

        def fail_on_third(fp, *args, **kwargs):
            calls.append(fp.tenant_id)
            if len(calls) == 3:
                raise ReportError("rendering failed")
            return real(fp, *args, **kwargs)

        monkeypatch.setattr(cli, "render_onepage", fail_on_third)
        assert run_compute(workspace) == EXIT_VALIDATION
        assert len(calls) == 3
        assert not (workspace["out"] / "reports").exists()
        assert not (workspace["out"] / "history").exists()

    def test_l_share_from_tenants_csv_scales_scope2(self, workspace):
        assert run_compute(workspace) == EXIT_OK
        full = json.loads((workspace["out"] / "reports" / "TENANT_01" /
                           "2025-06.json").read_text())
        # The same fleet, but tenants.csv gives every tenant a load share of 0.5.
        halved_fleet = workspace["root"] / "halved"
        assert main(["synth", "--seed", "42", "--tenants", "4", "--dcs", "2",
                     "--out-dir", str(halved_fleet), "--l-share", "0.5"]) == EXIT_OK
        assert run_compute({**workspace, "fleet": halved_fleet,
                            "out": workspace["root"] / "out2"}) == EXIT_OK
        halved = json.loads((workspace["root"] / "out2" / "reports" / "TENANT_01" /
                             "2025-06.json").read_text())
        dc_id = sorted(halved["datacenters"])[0]
        assert halved["datacenters"][dc_id]["lShare"] == 0.5
        full_s2 = full["datacenters"][dc_id]["scopes"]["scope2"]["emissions"]
        half_s2 = halved["datacenters"][dc_id]["scopes"]["scope2"]["emissions"]
        assert half_s2 == pytest.approx(full_s2 * 0.5, rel=1e-12)


class TestMalformedInputs:
    """Every unreadable CSV exits 1 naming its file and line, never a traceback."""

    SAMPLES = ("# schema_version=1\n"
               "device_model,cpu_utilization,cache_moved,dram_accessed,"
               "disk_moved,measured_energy_wh\n"
               "ABC_987,0.1,1e6,1e9,1e10,120.5\n")

    @staticmethod
    def _mutate(valid: bytes, case: str) -> tuple[bytes, int]:
        """The mutated file and the line its error must name."""
        lines = valid.split(b"\n")
        if case == "empty":
            return b"", 1
        if case == "schema-only":
            return lines[0] + b"\n", 2
        if case == "0xff":
            lines[2] = b"\xff" + lines[2]
        else:
            lines[2] += b"9" * 200_000
        return b"\n".join(lines), 3

    @pytest.mark.parametrize("case", ["empty", "schema-only", "0xff",
                                      "200000-char-cell"])
    @pytest.mark.parametrize("name", ["servers.csv", "network.csv",
                                      "datacenters.csv", "tenants.csv",
                                      "models.csv", "samples.csv"])
    def test_exits_1_naming_file_and_line(self, workspace, capsys, name, case):
        if name == "samples.csv":
            path = workspace["root"] / name
            path.write_text(self.SAMPLES, encoding="utf-8")
        else:
            path = workspace["fleet"] / name
        content, line = self._mutate(path.read_bytes(), case)
        path.write_bytes(content)
        if name == "samples.csv":
            code = main(["calibrate", "--samples", str(path),
                         "--models-out", str(workspace["root"] / "fitted.csv")])
        else:
            code = run_compute(workspace)
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert f"{name}:{line}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cell, name", [('"Acme\nCorp"', "Acme\nCorp"),
                                            ("Acme\u2028Corp", "Acme\u2028Corp")],
                             ids=["quoted-newline", "u2028"])
    def test_display_name_with_line_break_computes(self, workspace, cell, name):
        tenants = workspace["fleet"] / "tenants.csv"
        tenants.write_text(tenants.read_text(encoding="utf-8").replace(
            "Synthetic Tenant 1", cell), encoding="utf-8")
        assert run_compute(workspace) == EXIT_OK
        doc = json.loads((workspace["out"] / "reports" / "TENANT_01" /
                          "2025-06.json").read_text(encoding="utf-8"))
        assert doc["tenant"]["displayName"] == name

    @pytest.mark.parametrize("util", ["-0.5", "3.0"])
    def test_sample_utilization_outside_unit_interval_exits_1(self, tmp_path, capsys,
                                                              util):
        path = tmp_path / "samples.csv"
        path.write_text(self.SAMPLES.replace(",0.1,", f",{util},"), encoding="utf-8")
        assert main(["calibrate", "--samples", str(path),
                     "--models-out", str(tmp_path / "m.csv")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"samples.csv:3: cpu_utilization={float(util)!r} outside [0, 1]\n")
        assert not (tmp_path / "m.csv").exists()

    def test_non_utf8_equivalencies_exits_1(self, workspace, capsys):
        workspace["factors"].write_bytes(b"\xff")
        assert run_compute(workspace) == EXIT_VALIDATION
        assert "cannot read equivalency config" in capsys.readouterr().err

    @pytest.mark.parametrize("name, column, cell, message", [
        ("datacenters.csv", "cooling_devices", ":1000",
         "cooling_devices: empty device id in ':1000'"),
        ("tenants.csv", "datacenter_ids", ";", "datacenter_ids: empty list"),
        ("models.csv", "adjusted_r2", "1.5", "adjusted_r2 must be <= 1, got 1.5"),
    ], ids=["cooling-device-without-id", "no-datacenter-ids", "r2-above-1"])
    def test_refused_cell_exits_1_naming_its_row(self, workspace, capsys, name,
                                                 column, cell, message):
        path = workspace["fleet"] / name
        _set_cell(path, column, 3, cell)
        assert run_compute(workspace) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"{name}:3: {message}\n"
        assert not workspace["out"].exists()


def _set_cell(path: Path, column: str, line: int, value: str) -> None:
    """Set one cell of a synth CSV, whose cells hold no quotes or commas."""
    lines = path.read_text(encoding="utf-8").splitlines()
    at = lines[1].split(",").index(column)
    cells = lines[line - 1].split(",")
    cells[at] = value
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestAgentCount:
    def test_twenty_digit_count_is_reported_exactly(self, workspace):
        _set_cell(workspace["fleet"] / "tenants.csv", "agent_count", 3,
                  "12345678901234567890")
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_01" / "2025-06.json"
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["tenant"]["agentCount"] == 12345678901234567890
        assert run_audit(workspace, report) == EXIT_OK

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_count_beyond_float_range_exits_1(self, workspace, capsys, digits):
        _set_cell(workspace["fleet"] / "tenants.csv", "agent_count", 3,
                  "9" * digits)
        assert run_compute(workspace) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("tenants.csv:3: agent_count=")
        assert "Traceback" not in err
        assert not workspace["out"].exists()


FUZZED_FILES = ("servers.csv", "network.csv", "datacenters.csv", "tenants.csv",
                "models.csv")
FILE_LINE = re.compile(r"\b(?:servers|network|datacenters|tenants|models)"
                       r"\.csv:[0-9]+\b")


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` with one to three runs of bytes replaced, inserted or deleted."""
    chunks = st.one_of(st.binary(min_size=1, max_size=4), st.sampled_from(
        [b",", b'"', b"\n", b"\r", b"#", b"-", b"e", b".", b"0", b" ", b";",
         b":", b"nan", b"1e308", b"9" * 400, b"\xff", b"\xe2\x80\xa8"]))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        how = draw(st.sampled_from(["replace", "insert", "delete"]))
        if how == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 16)):]
            continue
        chunk = draw(chunks)
        data = data[:at] + chunk + data[at + (len(chunk) if how == "replace"
                                              else 0):]
    return data


@pytest.fixture(scope="module")
def fuzz_fleet(tmp_path_factory):
    """The files of a 3x2 synth fleet, by name, and a factors file."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--seed", "3", "--tenants", "3", "--dcs", "2",
                 "--out-dir", str(root / "fleet")]) == EXIT_OK
    return ({name: (root / "fleet" / name).read_bytes() for name in FUZZED_FILES},
            write_factors(root))


# As in test_parser_names_an_added_or_removed_key, the shrink phase is left
# out: the unshrunk example already shows the file and the bytes. The
# examples are derandomized so that every run tries the same ones.
@pytest.mark.parametrize("name", FUZZED_FILES)
@settings(max_examples=40, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_mutated_input_exits_cleanly_naming_file_and_line(fuzz_fleet, name, data):
    """A byte-mutated input computes or exits 1 naming a file and line."""
    files, factors = fuzz_fleet
    content = data.draw(mutated(files[name]), label=name)
    with tempfile.TemporaryDirectory() as tmp:
        fleet = Path(tmp) / "fleet"
        fleet.mkdir()
        for file_name, valid in files.items():
            (fleet / file_name).write_bytes(content if file_name == name else valid)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["compute", "--period", "2025-06", "--input-dir",
                         str(fleet), "--models", str(fleet / "models.csv"),
                         "--equivalencies", str(factors),
                         "--out-dir", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_VALIDATION), err.getvalue()
    if code == EXIT_VALIDATION:
        assert FILE_LINE.search(err.getvalue()), err.getvalue()


class TestUnwritableOutputs:
    """An output path that cannot be written exits 1 naming it, never a traceback."""

    @staticmethod
    def _argv(ws, case: str) -> tuple[list[str], Path, int]:
        """The command line for ``case``, the path its error must name and
        the errno it must give."""
        blocker = ws["root"] / "a-file"
        blocker.write_text("not a directory\n")
        compute = ["compute", "--period", "2025-06", "--input-dir", str(ws["fleet"]),
                   "--models", str(ws["models"]),
                   "--equivalencies", str(ws["factors"])]
        if case == "synth-out-dir":
            return (["synth", "--seed", "1", "--out-dir", str(blocker)], blocker,
                    errno.ENOTDIR)
        if case == "report-out-dir":
            assert run_compute(ws) == EXIT_OK
            report = ws["out"] / "reports" / "TENANT_01" / "2025-06.json"
            return (["report", "--report", str(report), "--out-dir", str(blocker)],
                    blocker, errno.ENOTDIR)
        if case == "compute-out-dir":
            return ([*compute, "--out-dir", str(blocker)], blocker, errno.ENOTDIR)
        if case == "compute-below-a-file":
            return ([*compute, "--out-dir", str(blocker / "sub")], blocker / "sub",
                    errno.ENOTDIR)
        if case == "compute-history-dir":
            return ([*compute, "--out-dir", str(ws["out"]),
                     "--history-dir", str(blocker)], blocker, errno.ENOTDIR)
        if case in ("compute-reports-dir", "compute-tenant-dir"):
            file = ws["out"] / "reports"
            if case == "compute-tenant-dir":
                file = file / "TENANT_01"
            file.parent.mkdir(parents=True)
            file.write_text("not a directory\n")
            return ([*compute, "--out-dir", str(ws["out"])], file, errno.ENOTDIR)
        if case in ("compute-report-file", "compute-history-file"):
            below = "reports" if case == "compute-report-file" else "history"
            report_dir = ws["out"] / below / "TENANT_01" / "2025-06.json"
            report_dir.mkdir(parents=True)
            return ([*compute, "--out-dir", str(ws["out"])], report_dir,
                    errno.EISDIR)
        calibrate = ["calibrate", "--samples",
                     str(write_samples(ws["root"] / "samples.csv")), "--models-out"]
        if case == "calibrate-below-a-file":
            return ([*calibrate, str(blocker / "models.csv")], blocker,
                    errno.ENOTDIR)
        directory = {"calibrate-dir": ws["fleet"], "calibrate-dot": Path("."),
                     "calibrate-root": Path("/")}[case]
        return ([*calibrate, str(directory)], directory, errno.EISDIR)

    @pytest.mark.parametrize("case", ["synth-out-dir", "report-out-dir",
                                      "compute-out-dir", "compute-below-a-file",
                                      "compute-history-dir", "compute-reports-dir",
                                      "compute-tenant-dir", "compute-report-file",
                                      "compute-history-file", "calibrate-below-a-file",
                                      "calibrate-dir", "calibrate-dot",
                                      "calibrate-root"])
    def test_exits_1_naming_the_path(self, workspace, capsys, case):
        argv, path, code = self._argv(workspace, case)
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"cannot write {path}: {os.strerror(code)}\n"

    def test_failed_write_names_its_file(self, workspace, capsys, monkeypatch):
        """A write that fails after its file was opened names that file, as a
        failed open does, for a report and for the models file alike."""
        class FullDisk(io.FileIO):
            def write(self, content):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        samples = write_samples(workspace["root"] / "samples.csv")
        models_out = workspace["root"] / "fitted.csv"
        monkeypatch.setattr(history, "open", FullDisk, raising=False)
        capsys.readouterr()
        assert run_compute(workspace) == EXIT_VALIDATION
        report = workspace["out"] / "reports" / "TENANT_01" / "2025-06.json"
        assert capsys.readouterr().err == (
            f"cannot write {report}: {os.strerror(errno.ENOSPC)}\n")
        assert main(["calibrate", "--samples", str(samples),
                     "--models-out", str(models_out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"cannot write {models_out}: {os.strerror(errno.ENOSPC)}\n")

    def test_directory_that_cannot_be_made_exits_1_naming_it(self, workspace, capsys,
                                                             monkeypatch):
        def mkdir(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        workspace["out"].mkdir()
        monkeypatch.setattr(history.os, "mkdir", mkdir)
        assert run_compute(workspace) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"cannot write {workspace['out'] / 'reports'}: "
            f"{os.strerror(errno.ENOSPC)}\n")


def snapshot(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root``, with a file's bytes and None for anything
    else."""
    return {str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
            for path in sorted(root.rglob("*"))}


def test_one_function_creates_every_output():
    """Reports, history, synthetic fleets and the models file are all
    written by ``history.write_below``, the only writer in the package."""
    calls = {"mkdir", "makedirs", "open", "touch", "write_bytes", "write_text"}
    writers = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and calls & {
                        getattr(call.func, "attr", None), getattr(call.func, "id", None)}
                    for call in ast.walk(node)):
                writers.add((path.name, node.name))
    assert sorted(writers) == [("history.py", "write_below")]


class TestLinksBelowTheRoots:
    """``--out-dir``, ``--history-dir`` and the directory of ``--models-out``
    may be links. Nothing that a command creates below them may be one: a
    link planted there exits 1 naming it, and what it points into keeps its
    files and bytes. Reading history still follows links."""

    REFUSED = ": is a symbolic link, which is not followed\n"

    @staticmethod
    def outside(root: Path) -> Path:
        """A directory outside every output root, holding one file."""
        outside = root / "outside"
        outside.mkdir()
        (outside / "held.json").write_text("held\n")
        return outside

    @staticmethod
    def plant(link: Path, outside: Path) -> None:
        """A link at ``link``: to the held file where a file belongs, else
        to the outside directory."""
        link.parent.mkdir(parents=True, exist_ok=True)
        link.symlink_to(outside / "held.json" if link.suffix else outside)

    @pytest.mark.parametrize("below", [
        "reports", "reports/TENANT_01", "reports/TENANT_01/2025-06.json",
        "reports/TENANT_01/2025-06.html", "history", "history/TENANT_01",
        "history/TENANT_01/2025-06.json"])
    def test_compute_refuses_a_link(self, workspace, capsys, below):
        outside = self.outside(workspace["root"])
        link = workspace["out"] / below
        self.plant(link, outside)
        before = snapshot(outside)
        capsys.readouterr()
        assert run_compute(workspace) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"cannot write {link}{self.REFUSED}"
        assert snapshot(outside) == before

    def test_report_refuses_a_link(self, workspace, capsys):
        assert run_compute(workspace) == EXIT_OK
        outside = self.outside(workspace["root"])
        rerender = workspace["root"] / "rerender"
        link = rerender / "reports" / "TENANT_01"
        self.plant(link, outside)
        before = snapshot(outside)
        capsys.readouterr()
        report = workspace["out"] / "reports" / "TENANT_01" / "2025-06.json"
        assert main(["report", "--report", str(report),
                     "--out-dir", str(rerender)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"cannot write {link}{self.REFUSED}"
        assert snapshot(outside) == before

    def test_synth_refuses_a_link(self, tmp_path, capsys):
        outside = self.outside(tmp_path)
        link = tmp_path / "fleet" / "network.csv"
        self.plant(link, outside)
        before = snapshot(outside)
        assert main(["synth", "--seed", "1", "--out-dir",
                     str(tmp_path / "fleet")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"cannot write {link}{self.REFUSED}"
        assert snapshot(outside) == before

    def test_calibrate_refuses_a_link(self, tmp_path, capsys):
        outside = self.outside(tmp_path)
        link = tmp_path / "models.csv"
        self.plant(link, outside)
        before = snapshot(outside)
        samples = write_samples(tmp_path / "samples.csv")
        assert main(["calibrate", "--samples", str(samples),
                     "--models-out", str(link)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"cannot write {link}{self.REFUSED}"
        assert snapshot(outside) == before

    def test_roots_may_be_links(self, workspace):
        """Both roots as links write what plain directories get."""
        assert run_compute(workspace) == EXIT_OK
        linked = workspace["root"] / "linked"
        linked.mkdir()
        for name in ("out", "history"):
            (linked / f"real-{name}").mkdir()
            (linked / name).symlink_to(linked / f"real-{name}")
        assert main(["compute", "--period", "2025-06",
                     "--input-dir", str(workspace["fleet"]),
                     "--models", str(workspace["models"]),
                     "--equivalencies", str(workspace["factors"]),
                     "--out-dir", str(linked / "out"),
                     "--history-dir", str(linked / "history")]) == EXIT_OK
        plain = workspace["out"]
        assert [path.name for path in (linked / "real-out").iterdir()] == ["reports"]
        assert snapshot(linked / "real-out" / "reports") == snapshot(plain / "reports")
        assert snapshot(linked / "real-history") == snapshot(plain / "history")

    def test_reading_history_follows_links(self, workspace, capsys):
        """Month 1's history file as a link to a copy elsewhere gives month
        2 the same report bytes and trend, and its audit passes."""
        assert run_compute(workspace, period="2025-05") == EXIT_OK
        plain = workspace["root"] / "plain"
        shutil.copytree(workspace["out"], plain)
        held = workspace["out"] / "history" / "TENANT_01" / "2025-05.json"
        copy = self.outside(workspace["root"]) / "2025-05.json"
        shutil.copyfile(held, copy)
        held.unlink()
        held.symlink_to(copy)

        assert run_compute(workspace) == EXIT_OK
        assert run_compute({**workspace, "out": plain}) == EXIT_OK
        linked_reports = snapshot(workspace["out"] / "reports")
        assert linked_reports == snapshot(plain / "reports")
        report = workspace["out"] / "reports" / "TENANT_01" / "2025-06.json"
        trend = json.loads(report.read_bytes())["summary"]["history"]
        assert [entry["period"] for entry in trend] == ["2025-05"]
        for history in (workspace["out"] / "history", plain / "history"):
            capsys.readouterr()
            assert run_audit(workspace, report,
                             extra=["--history-dir", str(history)]) == EXIT_OK
            assert "audit PASS" in capsys.readouterr().out


class TestAuditCommand:
    def test_clean_report_passes(self, workspace, capsys):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        assert run_audit(workspace, report,
                         extra=["--history-dir",
                                str(workspace["out"] / "history")]) == EXIT_OK
        assert "matches recomputation" in capsys.readouterr().out

    def test_whitespace_only_changes_still_pass(self, workspace):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        doc = json.loads(report.read_text())
        report.write_text(json.dumps(doc, indent=4))  # reflow, same values
        assert run_audit(workspace, report) == EXIT_OK

    def test_tampered_value_fails_with_field_path(self, workspace, capsys):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        doc = json.loads(report.read_text())
        doc["summary"]["grossEmissions"] *= 1.001
        report.write_text(json.dumps(doc))
        assert run_audit(workspace, report) == EXIT_AUDIT_MISMATCH
        captured = capsys.readouterr()
        assert "summary.grossEmissions" in captured.out + captured.err

    def test_l_share_mismatch_detected(self, workspace, capsys):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        tenants = workspace["fleet"] / "tenants.csv"
        lines = tenants.read_text(encoding="utf-8").splitlines(keepends=True)
        (at,) = [i for i, line in enumerate(lines) if line.startswith("TENANT_02,")]
        assert lines[at].endswith(",1.0\n")
        lines[at] = lines[at].removesuffix("1.0\n") + "0.5\n"
        tenants.write_text("".join(lines), encoding="utf-8")
        assert run_audit(workspace, report) == EXIT_AUDIT_MISMATCH
        captured = capsys.readouterr()
        assert "lShare" in captured.out + captured.err

    def test_unparseable_report_exits_1(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert run_audit(workspace, bad) == EXIT_VALIDATION

    @pytest.mark.parametrize("content, detail", [
        (None, "No such file or directory"),
        ("{", "report is not valid JSON: "),
        ("[]", "report JSON must be an object"),
    ], ids=["missing", "not-json", "array"])
    def test_unreadable_report_names_it_and_the_fault(self, workspace, tmp_path,
                                                      capsys, content, detail):
        report = tmp_path / "report.json"
        if content is not None:
            report.write_text(content, encoding="utf-8")
        assert run_audit(workspace, report) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read report under audit: {report}: {detail}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("period", [202506, [2025, 6], None],
                             ids=["number", "list", "null"])
    def test_period_that_is_not_a_string_exits_1(self, workspace, capsys, period):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        doc = json.loads(report.read_text(encoding="utf-8"))
        doc["period"] = period
        report.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        capsys.readouterr()
        assert run_audit(workspace, report) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("cannot read report under audit")
        assert "period" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("key, value, problem", [
        ("tenant", 5, "tenant: must be an object"),
        ("tenant", {}, "tenant.tenantId: missing key"),
        ("period", "2025-13", "period: must be a YYYY-MM period, got '2025-13'"),
        ("period", "0000-01", "period: must be a YYYY-MM period, got '0000-01'"),
    ], ids=["number-tenant", "empty-tenant", "month-13", "year-0"])
    def test_identity_the_writer_cannot_have_written_exits_1(self, workspace, capsys,
                                                             key, value, problem):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        doc = json.loads(report.read_text(encoding="utf-8"))
        doc[key] = value
        report.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        capsys.readouterr()
        assert run_audit(workspace, report) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"cannot read report under audit: {report}: malformed report JSON: "
            f"{problem}\n")

    def test_non_utf8_report_exits_1(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"tenant": "\xff"}')
        assert run_audit(workspace, bad) == EXIT_VALIDATION
        assert "cannot read report under audit" in capsys.readouterr().err

    def test_duplicate_key_exits_1_naming_it(self, workspace, capsys):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        text = report.read_text(encoding="utf-8")
        forged = text.replace('"summary": {\n',
                              '"summary": {\n    "grossEmissions": 1.0,\n', 1)
        assert forged != text
        report.write_text(forged, encoding="utf-8")
        assert run_audit(workspace, report) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "cannot read report under audit" in err
        assert "grossEmissions" in err

    def test_reordered_keys_fail_naming_key_order(self, workspace, capsys):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        doc = json.loads(report.read_text(encoding="utf-8"))
        report.write_text(json.dumps(dict(reversed(doc.items())), indent=2),
                          encoding="utf-8")
        assert run_audit(workspace, report) == EXIT_AUDIT_MISMATCH
        err = capsys.readouterr().err
        assert "key order differs from the canonical report" in err
        assert "0 field(s)" not in err

    @pytest.mark.parametrize("stored", ["extra-entry", "emptied"])
    def test_history_of_another_length_fails_naming_the_entry(self, workspace,
                                                              capsys, stored):
        """A stored history one entry longer, or shorter, than the recomputed
        one fails on the entry only one side has."""
        assert run_compute(workspace, period="2025-05") == EXIT_OK
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        doc = json.loads(report.read_text(encoding="utf-8"))
        (entry,) = doc["summary"]["history"]
        if stored == "extra-entry":  # recomputed without history
            extra, recomputed, has = (), "<absent>", entry
        else:
            doc["summary"]["history"] = []
            report.write_text(json.dumps(doc, indent=2), encoding="utf-8")
            extra = ["--history-dir", str(workspace["out"] / "history")]
            recomputed, has = entry, "<absent>"
        capsys.readouterr()
        assert run_audit(workspace, report, extra) == EXIT_AUDIT_MISMATCH
        assert capsys.readouterr().err == (
            f"audit FAIL: {report} differs from recomputation in 1 field(s):\n"
            f"  summary.history[0]: recomputed {recomputed!r}, report has {has!r}\n")

    def test_key_the_report_lacks_fails_naming_it(self, workspace, capsys):
        """A stored report without a key the recomputed one has fails on
        that key, which it names as absent."""
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_01" / "2025-06.json"
        doc = json.loads(report.read_text(encoding="utf-8"))
        recomputed = doc["summary"].pop("perAgentEmissions")
        report.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        capsys.readouterr()
        assert run_audit(workspace, report) == EXIT_AUDIT_MISMATCH
        assert capsys.readouterr().err == (
            f"audit FAIL: {report} differs from recomputation in 1 field(s):\n"
            f"  summary.perAgentEmissions: recomputed {recomputed!r}, "
            "report has '<absent>'\n")

    def test_missing_model_exits_1(self, workspace, capsys):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        models = workspace["models"]
        lines = models.read_text().splitlines()
        models.write_text("\n".join(ln for ln in lines
                                    if not ln.startswith("MODEL_A")) + "\n")
        capsys.readouterr()
        assert run_audit(workspace, report) == EXIT_VALIDATION
        assert "MODEL_A" in capsys.readouterr().err

    # Each case adds DC_99, declared only by a new tenant TENANT_99, after
    # the audited report is written: the audited tenant's figures do not
    # change, but the fleet can no longer be computed.
    BROKEN_ELSEWHERE = {
        "missing-model": (
            "DC_99,Elsewhere,eu-west,0.3,CRAC_99:1000.0,,,,,",
            "DC_99,SRV_99,MODEL_Z,TENANT_99,0.5,0.0,0.0,0.0", None,
            EXIT_VALIDATION, "MODEL_Z"),
        "zero-denominator": (
            "DC_99,Elsewhere,eu-west,0.3,CRAC_99:1000.0,,,,,", None, None,
            EXIT_VALIDATION, "cooling devices of DC_99"),
        "zero-dc-scope2": (
            "DC_99,Elsewhere,eu-west,0.0,,,GEN_99:10.0:2.5,,,",
            "DC_99,SRV_99,MODEL_A,TENANT_99,0.5,0.0,0.0,0.0", None,
            EXIT_VALIDATION, "'DC_99' has Scope 1 or Scope 3"),
        "non-finite-energy": (
            "DC_99,Elsewhere,eu-west,0.3,,,,,,",
            "DC_99,SRV_99,MODEL_Z,TENANT_99,0.5,0.0,0.0,0.0",
            "MODEL_Z,1.5e308,1e308,0.0,0.0,0.0,1.0",
            EXIT_VALIDATION, "must be finite"),
        # Every energy is finite; only the emissions overflow. Device detail
        # is not checked one by one, so the pair's Scope 2 check must catch it.
        "non-finite-emissions": (
            "DC_99,Elsewhere,eu-west,1e10,,,,,,",
            "DC_99,SRV_99,MODEL_Z,TENANT_99,0.5,0.0,0.0,0.0",
            "MODEL_Z,1e300,0.0,0.0,0.0,0.0,1.0",
            EXIT_VALIDATION, "emissions (gCO2e) must be finite"),
    }

    @pytest.mark.parametrize("case", sorted(BROKEN_ELSEWHERE))
    def test_failure_in_another_datacenter_fails_as_compute(self, workspace,
                                                             capsys, case):
        dc_row, server_row, model_row, code, message = self.BROKEN_ELSEWHERE[case]
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        for name, row in (("datacenters.csv", dc_row),
                          ("tenants.csv", "TENANT_99,Elsewhere,1,DC_99,1.0"),
                          ("servers.csv", server_row)):
            if row is not None:
                with open(workspace["fleet"] / name, "a", encoding="utf-8") as f:
                    f.write(row + "\n")
        if model_row is not None:
            with open(workspace["models"], "a", encoding="utf-8") as f:
                f.write(model_row + "\n")
        capsys.readouterr()
        assert run_audit(workspace, report) == code
        audit_err = capsys.readouterr().err
        assert message in audit_err
        assert FILE_LINE.search(audit_err)
        workspace["out"] = workspace["root"] / "out_broken"
        assert run_compute(workspace) == code
        assert capsys.readouterr().err == audit_err

    # A data center figure that overflows to infinity is caught by phase 1,
    # naming its datacenters.csv row: a fuel log of 1e300 x 1e300 g makes the
    # fuel total infinite, green energy of 1e308 Wh at 10 g/Wh the green
    # offset.
    @pytest.mark.parametrize("fuel_log, intensity, green, message", [
        ("GEN_X:1e300:1e300", None, None,
         "datacenters.csv:3: emissions (gCO2e) must be finite, got inf"),
        (None, "10", "1e308",
         "datacenters.csv:3: emissions (gCO2e) must be finite, got inf"),
    ], ids=["scope1", "net"])
    def test_overflowing_figure_fails_audit_as_compute(
            self, workspace, capsys, fuel_log, intensity, green, message):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        dc_id = min(json.loads(report.read_text(encoding="utf-8"))["datacenters"])
        path = workspace["fleet"] / "datacenters.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            cells = line.split(",")
            if cells[0] == dc_id:
                for column, value in ((3, intensity), (6, fuel_log), (8, green)):
                    if value is not None:
                        cells[column] = value
                lines[i] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run_audit(workspace, report) == EXIT_VALIDATION
        audit_err = capsys.readouterr().err
        assert audit_err == message + "\n"
        workspace["out"] = workspace["root"] / "out_broken"
        assert run_compute(workspace) == EXIT_VALIDATION
        assert capsys.readouterr().err == audit_err
        assert not workspace["out"].exists()

    @pytest.mark.parametrize("dc_row", [
        "DC_99,Elsewhere,eu-west,0.3,,,GEN_99:1e300:1e300,,,",
        "DC_99,Elsewhere,eu-west,10,,,,,1e308,",
    ], ids=["fuel", "green-offset"])
    def test_overflow_only_another_tenant_reaches_fails_audit_as_compute(
            self, workspace, capsys, dc_row):
        """Phase 1 bounds every data center's fuel total and green offset, so
        an overflow in a data center the audited tenant does not use fails
        the audit as it fails compute, naming the row."""
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        for name, row in (("datacenters.csv", dc_row),
                          ("tenants.csv", "TENANT_99,Elsewhere,1,DC_99,1.0"),
                          ("servers.csv",
                           "DC_99,SRV_99,MODEL_A,TENANT_99,0.5,0.0,0.0,0.0")):
            with open(workspace["fleet"] / name, "a", encoding="utf-8") as f:
                f.write(row + "\n")
        line = len((workspace["fleet"] / "datacenters.csv").read_text(
            encoding="utf-8").splitlines())
        capsys.readouterr()
        assert run_audit(workspace, report) == EXIT_VALIDATION
        audit_err = capsys.readouterr().err
        assert audit_err == (f"datacenters.csv:{line}: emissions (gCO2e) must be "
                             "finite, got inf\n")
        workspace["out"] = workspace["root"] / "out_broken"
        assert run_compute(workspace) == EXIT_VALIDATION
        assert capsys.readouterr().err == audit_err
        assert not workspace["out"].exists()

    def test_scope2_total_overflow_fails_audit_as_compute(self, workspace,
                                                          capsys):
        """TENANT_98's and TENANT_99's Scope 2 in DC_99 are each finite,
        1.25e308 g, but their sum is not. Phase 1 bounds each data center's
        Scope 2 total, so the audit of a tenant outside DC_99 fails as
        compute does, naming DC_99's row, and compute writes nothing."""
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        fleet = workspace["fleet"]
        append_rows(fleet / "datacenters.csv", "DC_99,Elsewhere,eu-west,2.5,,,,,,")
        append_rows(fleet / "tenants.csv", "TENANT_98,Elsewhere,1,DC_99,1.0",
                    "TENANT_99,Elsewhere,1,DC_99,1.0")
        append_rows(fleet / "servers.csv",
                    "DC_99,SRV_98,MODEL_Z,TENANT_98,0.5,0.0,0.0,0.0",
                    "DC_99,SRV_99,MODEL_Z,TENANT_99,0.5,0.0,0.0,0.0")
        append_rows(workspace["models"], "MODEL_Z,5e307,0.0,0.0,0.0,0.0,1.0")
        line = len((fleet / "datacenters.csv").read_text(
            encoding="utf-8").splitlines())
        capsys.readouterr()
        assert run_audit(workspace, report) == EXIT_VALIDATION
        audit_err = capsys.readouterr().err
        assert audit_err == (f"datacenters.csv:{line}: emissions (gCO2e) must be "
                             "finite, got inf\n")
        workspace["out"] = workspace["root"] / "out_broken"
        assert run_compute(workspace) == EXIT_VALIDATION
        assert capsys.readouterr().err == audit_err
        assert not workspace["out"].exists()

    def test_tenant_total_overflow_names_its_row(self, workspace, capsys):
        """TENANT_99 alone uses DC_99, so its Scope 1 and Scope 3 there are
        the data center's fuel total and Scope 3 total, each a finite 1e308
        g, but its gross is not: compute names its tenants.csv row and
        writes nothing. The audit of another tenant does not build
        TENANT_99's footprint, so it passes."""
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        fleet = workspace["fleet"]
        append_rows(fleet / "datacenters.csv",
                    "DC_99,Elsewhere,eu-west,0.3,,,GEN_99:1e308:1,1e308,,")
        append_rows(fleet / "tenants.csv", "TENANT_99,Elsewhere,1,DC_99,1.0")
        append_rows(fleet / "servers.csv",
                    "DC_99,SRV_99,MODEL_A,TENANT_99,0.5,0.0,0.0,0.0")
        line = len((fleet / "tenants.csv").read_text(encoding="utf-8").splitlines())
        capsys.readouterr()
        assert run_audit(workspace, report) == EXIT_OK
        workspace["out"] = workspace["root"] / "out_broken"
        capsys.readouterr()
        assert run_compute(workspace) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"tenants.csv:{line}: emissions (gCO2e) must be finite, got inf\n")
        assert not workspace["out"].exists()

    def test_absent_tenant_exits_1(self, workspace, capsys):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        doc = json.loads(report.read_text(encoding="utf-8"))
        doc["tenant"]["tenantId"] = "TENANT_77"
        report.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        capsys.readouterr()
        assert run_audit(workspace, report) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"unknown tenant 'TENANT_77' (at {report})\n")

    def test_estimates_only_the_audited_tenants_devices(self, workspace,
                                                        monkeypatch):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        built = Counter()
        real = allocation.DeviceShare

        def counting(*args, **kwargs):
            share = real(*args, **kwargs)
            built[share.category] += 1
            return share

        monkeypatch.setattr(allocation, "DeviceShare", counting)
        assert run_audit(workspace, report) == EXIT_OK
        rows = {name: sum(line.split(",")[3:4] == ["TENANT_02"] for line in
                          (workspace["fleet"] / name).read_text().splitlines())
                for name in ("servers.csv", "network.csv")}
        assert rows["servers.csv"] > 0
        assert (built["server"], built["network"]) == (rows["servers.csv"],
                                                       rows["network.csv"])

    def test_reads_only_the_audited_tenants_history(self, workspace,
                                                     monkeypatch):
        assert run_compute(workspace, period="2025-05") == EXIT_OK
        assert run_compute(workspace, period="2025-06") == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_02" / "2025-06.json"
        real = HistoryStore.load_entry
        reads = []

        def counting(self, tenant_id, period):
            reads.append((tenant_id, str(period)))
            return real(self, tenant_id, period)

        monkeypatch.setattr(HistoryStore, "load_entry", counting)
        assert run_audit(workspace, report,
                         extra=["--history-dir",
                                str(workspace["out"] / "history")]) == EXIT_OK
        assert len(reads) <= 2
        assert {tenant for tenant, _ in reads} == {"TENANT_02"}


class TestReportCommand:
    def test_rerender_reproduces_json_byte_for_byte(self, workspace):
        assert run_compute(workspace) == EXIT_OK
        original = workspace["out"] / "reports" / "TENANT_03" / "2025-06.json"
        rerender_dir = workspace["root"] / "rerender"
        assert main(["report", "--report", str(original),
                     "--out-dir", str(rerender_dir)]) == EXIT_OK
        copy = rerender_dir / "reports" / "TENANT_03" / "2025-06.json"
        assert copy.read_bytes() == original.read_bytes()
        assert (rerender_dir / "reports" / "TENANT_03" / "2025-06.html").exists()

    def test_rerender_reproduces_both_files_with_a_trend(self, workspace):
        """June has April and May in history, and TENANT_02's traffic doubled
        since May, as in demo 03, so its badge is not flat."""
        assert run_compute(workspace, period="2025-04") == EXIT_OK
        assert run_compute(workspace, period="2025-05") == EXIT_OK
        raw = load_input_dir(workspace["fleet"], Period(2025, 6))
        raw = raw._replace(network=tuple(
            row._replace(bytes_sent=row.bytes_sent * 2,
                         bytes_received=row.bytes_received * 2)
            if row.tenant_id == "TENANT_02" else row for row in raw.network))
        for name, text in format_inputs(raw).items():
            (workspace["fleet"] / name).write_text(text, encoding="utf-8")
        assert run_compute(workspace, period="2025-06") == EXIT_OK
        original = workspace["out"] / "reports" / "TENANT_02"
        assert 'data-trend="worsening"' in (original / "2025-06.html").read_text(
            encoding="utf-8")
        assert "2025-04" in (original / "2025-06.json").read_text(encoding="utf-8")
        rerender_dir = workspace["root"] / "rerender"
        assert main(["report", "--report", str(original / "2025-06.json"),
                     "--out-dir", str(rerender_dir)]) == EXIT_OK
        copy = rerender_dir / "reports" / "TENANT_02"
        for name in ("2025-06.json", "2025-06.html"):
            assert (copy / name).read_bytes() == (original / name).read_bytes()

    def test_render_failure_creates_no_directory(self, workspace, monkeypatch):
        assert run_compute(workspace) == EXIT_OK
        original = workspace["out"] / "reports" / "TENANT_03" / "2025-06.json"

        def fail(*args, **kwargs):
            raise ReportError("rendering failed")

        monkeypatch.setattr(cli, "render_onepage", fail)
        rerender_dir = workspace["root"] / "rerender"
        assert main(["report", "--report", str(original),
                     "--out-dir", str(rerender_dir)]) == EXIT_VALIDATION
        assert not rerender_dir.exists()

    def test_missing_report_names_it_and_the_fault_once(self, workspace, capsys):
        report = workspace["root"] / "nope.json"
        rerender_dir = workspace["root"] / "rerender"
        assert main(["report", "--report", str(report),
                     "--out-dir", str(rerender_dir)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"cannot re-render {report}: No such file or directory\n")
        assert not rerender_dir.exists()

    def test_bad_equivalency_config_is_blamed_on_the_config(self, workspace,
                                                            capsys):
        """As ``audit`` does, ``report`` names the config alone: the report
        it re-renders is sound."""
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_03" / "2025-06.json"
        config = workspace["root"] / "bad.json"
        config.write_text('{"car_km_g": 250}', encoding="utf-8")
        message = (f"equivalency config {config} needs flight_ams_nyc_g, car_km_g, "
                   "smartphone_charge_g, source_note: 'flight_ams_nyc_g'\n")
        capsys.readouterr()
        rerender_dir = workspace["root"] / "rerender"
        assert main(["report", "--report", str(report), "--out-dir",
                     str(rerender_dir), "--equivalencies", str(config)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == message
        assert not rerender_dir.exists()
        assert run_audit(workspace, report,
                         ["--equivalencies", str(config)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == message

    def test_path_escaping_tenant_id_exits_1(self, workspace, capsys):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_03" / "2025-06.json"
        doc = json.loads(report.read_text(encoding="utf-8"))
        doc["tenant"]["tenantId"] = "../../escape"
        report.write_text(json.dumps(doc), encoding="utf-8")
        rerender_dir = workspace["root"] / "rerender"
        assert main(["report", "--report", str(report),
                     "--out-dir", str(rerender_dir)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "'../../escape'" in err and "tenant.tenantId" in err
        assert not rerender_dir.exists()
        assert not (workspace["root"] / "escape").exists()
        # audit refuses the id where it reads the report, by the same check.
        assert run_audit(workspace, report) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"cannot read report under audit: {report}: malformed report JSON: "
            "tenant.tenantId: must be an id (letters, digits, '_', '.' and '-', "
            "starting with a letter or digit, at most 255 characters), got "
            "'../../escape'\n")

    def test_duplicate_key_exits_1(self, workspace, capsys):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_03" / "2025-06.json"
        text = report.read_text(encoding="utf-8")
        report.write_text(text.replace('"summary": {\n',
                                       '"summary": {\n    "grossEmissions": 1.0,\n',
                                       1), encoding="utf-8")
        rerender_dir = workspace["root"] / "rerender"
        assert main(["report", "--report", str(report),
                     "--out-dir", str(rerender_dir)]) == EXIT_VALIDATION
        assert "grossEmissions" in capsys.readouterr().err
        assert not rerender_dir.exists()

    # Each case edits a stored report into one the writer cannot have
    # written; re-rendering it would silently change or invent a figure.
    FORGED = {
        "extra-key": ("summary.injected",
                      lambda doc, dc: doc["summary"].update(injected=1.0)),
        "missing-key": ("equivalencies.carKm",
                        lambda doc, dc: doc["equivalencies"].pop("carKm")),
        "null-name": (".name", lambda doc, dc: dc.update(name=None)),
        "number-display-name": (
            "tenant.displayName",
            lambda doc, dc: doc["tenant"].update(displayName=5)),
        "string-over-offset": (".overOffset",
                               lambda doc, dc: dc.update(overOffset="false")),
        "key-order": ("key order differs",
                      lambda doc, dc: doc.update(
                          tenant=dict(reversed(doc["tenant"].items())))),
        "number-tenant": ("malformed report JSON: tenant: must be an object",
                          lambda doc, dc: doc.update(tenant=5)),
        "list-datacenters": ("malformed report JSON: datacenters: must be an object",
                             lambda doc, dc: doc.update(datacenters=[])),
        "object-history": ("malformed report JSON: summary.history: must be a list",
                           lambda doc, dc: doc["summary"].update(history={})),
    }

    @pytest.mark.parametrize("case", sorted(FORGED))
    def test_report_the_writer_cannot_have_written_exits_1(self, workspace,
                                                           capsys, case):
        named, forge = self.FORGED[case]
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_03" / "2025-06.json"
        doc = json.loads(report.read_text(encoding="utf-8"))
        dc = next(iter(doc["datacenters"].values()))
        assert dc["netEmissions"] > 0 and dc["overOffset"] is False
        forge(doc, dc)
        report.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n",
                          encoding="utf-8")
        rerender_dir = workspace["root"] / "rerender"
        capsys.readouterr()
        assert main(["report", "--report", str(report),
                     "--out-dir", str(rerender_dir)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"cannot re-render {report}" in err
        assert named in err
        assert not rerender_dir.exists()

    # A stored number must fit a float. 401 digits parse as a Python int
    # beyond float range; 5000 digits exceed what ``json`` will parse.
    @pytest.mark.parametrize("field,digits,audit_code", [
        ("grossEmissions", 401, EXIT_AUDIT_MISMATCH),
        ("bytesSent", 401, EXIT_AUDIT_MISMATCH),
        ("grossEmissions", 5000, EXIT_VALIDATION),
    ])
    def test_number_beyond_float_range_exits_1(self, workspace, capsys, field,
                                               digits, audit_code):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_03" / "2025-06.json"
        doc = json.loads(report.read_text(encoding="utf-8"))
        if field == "bytesSent":
            holder = next(dev for dc in doc["datacenters"].values()
                          for dev in dc["scopes"]["scope2"]["devices"]["network"]
                          .values())
        else:
            holder = doc["summary"]
        holder[field] = "HUGE"
        report.write_text(json.dumps(doc, indent=2).replace(
            '"HUGE"', "9" * digits), encoding="utf-8")
        rerender_dir = workspace["root"] / "rerender"
        proc = subprocess.run(
            [sys.executable, "-m", "carbonalloc.cli", "report", "--report",
             str(report), "--out-dir", str(rerender_dir)],
            capture_output=True, text=True, timeout=60, env=src_env())
        assert proc.returncode == EXIT_VALIDATION
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert not rerender_dir.exists()
        capsys.readouterr()
        assert run_audit(workspace, report) == audit_code


class TestCalibrateCommand:
    SAMPLES_HEADER = ("device_model,cpu_utilization,cache_moved,dram_accessed,"
                      "disk_moved,measured_energy_wh")

    def _write_samples(self, path: Path, rows: list[str]) -> Path:
        path.write_text("\n".join(["# schema_version=1", self.SAMPLES_HEADER,
                                   *rows]) + "\n", encoding="utf-8")
        return path

    def _noiseless_rows(self, model: str, n: int, constant_cpu=None) -> list[str]:
        import random
        rng = random.Random(99)
        rows = []
        for _ in range(n):
            u = constant_cpu if constant_cpu is not None else rng.uniform(0, 1)
            cache = rng.uniform(0, 5e7)
            dram = rng.uniform(0, 1e10)
            disk = rng.uniform(0, 5e10)
            energy = 10 + 500 * u + 1e-6 * cache + 2e-9 * dram + 5e-10 * disk
            rows.append(f"{model},{u!r},{cache!r},{dram!r},{disk!r},{energy!r}")
        return rows

    def test_fits_and_reports_r2(self, tmp_path, capsys):
        samples = self._write_samples(tmp_path / "samples.csv",
                                      self._noiseless_rows("ABC_987", 50))
        out = tmp_path / "models.csv"
        assert main(["calibrate", "--samples", str(samples),
                     "--models-out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "ABC_987: n=50 adjusted_r2=1.0000" in stdout
        assert out.exists()

    def test_singular_design_exits_2_and_names_column(self, tmp_path, capsys):
        samples = self._write_samples(
            tmp_path / "samples.csv",
            self._noiseless_rows("ABC_987", 20, constant_cpu=0.5))
        assert main(["calibrate", "--samples", str(samples),
                     "--models-out", str(tmp_path / "m.csv")]) == EXIT_COMPUTATION
        assert "cpu_utilization" in capsys.readouterr().err

    def test_samples_without_rows_exit_1_naming_the_file(self, tmp_path, capsys):
        samples = self._write_samples(tmp_path / "samples.csv", [])
        assert main(["calibrate", "--samples", str(samples),
                     "--models-out", str(tmp_path / "m.csv")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"calibration samples file {samples} has no rows\n")
        assert not (tmp_path / "m.csv").exists()

    def test_missing_samples_file_exits_1_naming_the_file(self, tmp_path, capsys,
                                                          monkeypatch):
        """A file that cannot be read is named once, at line 0 (the file as
        a whole), with the system's reason and no errno or repeated path."""
        monkeypatch.chdir(tmp_path)
        assert main(["calibrate", "--samples", "nope.csv",
                     "--models-out", "m.csv"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "nope.csv:0: cannot read file: No such file or directory\n")
        assert not (tmp_path / "m.csv").exists()

    def test_too_few_samples_exits_2(self, tmp_path, capsys):
        samples = self._write_samples(tmp_path / "samples.csv",
                                      self._noiseless_rows("ABC_987", 3))
        assert main(["calibrate", "--samples", str(samples),
                     "--models-out", str(tmp_path / "m.csv")]) == EXIT_COMPUTATION
        assert "3" in capsys.readouterr().err

    def test_missing_directory_is_created(self, tmp_path):
        samples = self._write_samples(tmp_path / "samples.csv",
                                      self._noiseless_rows("ABC_987", 20))
        out = tmp_path / "missing" / "below" / "models.csv"
        assert main(["calibrate", "--samples", str(samples),
                     "--models-out", str(out)]) == EXIT_OK
        assert list(read_models(out)) == ["ABC_987"]

    def test_closed_stdout_keeps_exit_2(self, tmp_path):
        """A run that already failed keeps its code when its standard output
        cannot be written either, and nothing names the closed pipe."""
        samples = self._write_samples(
            tmp_path / "samples.csv",
            self._noiseless_rows("ABC_987", 20) + self._noiseless_rows("XYZ_1", 3))
        proc = run_with_closed_stdout(["calibrate", "--samples", str(samples),
                                       "--models-out", str(tmp_path / "m.csv")])
        assert proc.returncode == EXIT_COMPUTATION
        assert proc.stderr.startswith("calibration failed for XYZ_1: ")
        assert len(proc.stderr.splitlines()) == 1
        assert (tmp_path / "m.csv").exists()


def test_calibrate_writes_only_models_read_models_reads(tmp_path, capsys):
    """Near the top of float range the exact fit still gives a finite
    adjusted R-squared, and a weight beyond it fails only its own model with
    exit 2; whatever calibrate writes, read_models reads back."""
    rng = random.Random(5)
    rows = []
    for _ in range(20):
        u, cache = rng.uniform(0.0, 1.0), rng.uniform(0.0, 5e7)
        dram, disk = rng.uniform(0.0, 1e10), rng.uniform(0.0, 5e10)
        energy = (10 + 500 * u + 1e-6 * cache + 2e-9 * dram + 5e-10 * disk
                  + rng.gauss(0.0, 5.0)) * 1e305
        rows.append(f"HUGE,{u!r},{cache!r},{dram!r},{disk!r},{energy!r}")
        rows.append(f"OVER,{rng.uniform(1e-4, 1e-3)!r},{cache!r},{dram!r},{disk!r},"
                    f"{rng.uniform(1e307, 1.7e308)!r}")
    samples = TestCalibrateCommand()._write_samples(tmp_path / "samples.csv", rows)
    out = tmp_path / "models.csv"
    assert main(["calibrate", "--samples", str(samples),
                 "--models-out", str(out)]) == EXIT_COMPUTATION
    assert capsys.readouterr().err == (
        "calibration failed for OVER: weight beyond float range for 'OVER'\n")
    (model,) = read_models(out).values()
    assert model.device_model == "HUGE"
    assert 0.9 < model.adjusted_r2 <= 1.0


def test_only_calibrate_exits_2_and_main_has_one_package_handler():
    """Exit 2 means only that a power model could not be fitted: no function
    but ``cmd_calibrate`` reads ``EXIT_COMPUTATION``, and every package error
    reaches the one ``except`` in ``main`` that names one, which exits 1."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    readers = {name for name, function in functions.items()
               for node in ast.walk(function)
               if isinstance(node, ast.Name) and node.id == "EXIT_COMPUTATION"}
    assert readers == {"cmd_calibrate"}

    def is_package_error(expr):
        named = getattr(cli, ast.unparse(expr), None)
        return isinstance(named, type) and issubclass(named, CarbonAllocError)

    handlers = [node for node in ast.walk(functions["main"])
                if isinstance(node, ast.ExceptHandler) and node.type is not None
                and any(map(is_package_error, node.type.elts
                            if isinstance(node.type, ast.Tuple) else [node.type]))]
    assert len(handlers) == 1


_RECORD_PROBE = """
import json, sys
import carbonalloc.cli
import carbonalloc.synth
from carbonalloc.units import CheckedRecord
import dataclasses
kinds = {}
for name, module in sorted(sys.modules.items()):
    if name != "carbonalloc" and not name.startswith("carbonalloc."):
        continue
    for cls in vars(module).values():
        if not (isinstance(cls, type) and cls.__module__ == name):
            continue
        if dataclasses.is_dataclass(cls):
            kinds[cls.__qualname__] = "dataclass"
        elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
            checked = issubclass(cls, CheckedRecord)
            kinds[cls.__qualname__] = "checked" if checked else "NamedTuple"
print(json.dumps(kinds))
"""


def test_every_record_is_a_named_tuple():
    """No class in the package is a dataclass: loading ``dataclasses`` would
    cost every command start-up about 10 ms, and building a frozen
    dataclass costs tens of times what a NamedTuple class does. Every record
    is a NamedTuple; those that check or derive a field are also a
    :class:`CheckedRecord`, whose ``_replace`` checks and derives again."""
    proc = subprocess.run([sys.executable, "-c", _RECORD_PROBE],
                          capture_output=True, text=True, timeout=120, env=src_env())
    assert proc.returncode == 0, proc.stderr
    kinds = json.loads(proc.stdout.splitlines()[-1])
    assert "dataclass" not in kinds.values()
    assert sorted(name for name, kind in kinds.items() if kind == "checked") == [
        "DcFootprint", "EquivalencyFactors", "Footprint", "Period",
        "TenantDcScope2"]
    assert {name for name, kind in kinds.items() if kind == "NamedTuple"} >= {
        "ServerUsage", "NetworkUsage", "SharedDevice", "FuelEntry", "DataCenter",
        "Tenant", "RawData", "CalibrationSample", "ServerPowerModel",
        "DeviceShare", "HistoryEntry", "FleetTotals", "AuditCheck",
        "AuditReport", "ReportDocument", "TrendDelta", "SynthFleet", "_Table"}


# The modules whose ``__all__`` the package re-exports, in import order.
_API_MODULES = ("allocation", "errors", "history", "ingest", "power", "report",
                "units")


def test_every_exported_name_resolves():
    """Each name in a module's ``__all__`` exists: a deleted function cannot
    stay exported. The package ``__init__`` names none of them; it star-imports
    each API module, which fails at import on a stale ``__all__`` entry."""
    import carbonalloc
    tree = ast.parse(Path(carbonalloc.__file__).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports == [(name, "*") for name in _API_MODULES]
    missing = []
    for info in pkgutil.iter_modules(carbonalloc.__path__):
        module = importlib.import_module(f"carbonalloc.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_package_names_are_the_api_modules_all():
    """A name in an API module's ``__all__`` is package API, the same object,
    and the package has no other public name but ``__version__`` and the
    names of ``synth.__all__``, which it loads on first use."""
    import carbonalloc
    from carbonalloc import synth
    expected = {}
    for name in _API_MODULES:
        module = importlib.import_module(f"carbonalloc.{name}")
        expected.update((n, getattr(module, n)) for n in module.__all__)
    public = {name: value for name, value in vars(carbonalloc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public) == sorted(expected)
    assert [name for name in expected if public[name] is not expected[name]] == []
    assert carbonalloc.__version__ == "0.1.0"
    served = {name for name in vars(synth) if not name.startswith("_")
              and name not in expected and hasattr(carbonalloc, name)}
    assert sorted(served) == sorted(synth.__all__)
    for name in synth.__all__:
        assert getattr(carbonalloc, name) is getattr(synth, name)


def test_every_error_class_is_exported():
    """Each class ``errors.py`` defines is in its ``__all__``, and so package
    API; its helpers are not."""
    from carbonalloc import errors
    tree = ast.parse(Path(errors.__file__).read_text(encoding="utf-8"))
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert sorted(errors.__all__) == sorted(classes)


def test_a_run_leaves_no_cyclic_garbage(tmp_path):
    """``entrypoint`` turns the cyclic collector off, which is safe only while
    reference counting alone frees what a run builds. A record that held a
    reference cycle would pile up for the whole run and fail here instead."""
    fleet_dir = tmp_path / "fleet"
    write_fleet(generate_fleet(seed=11, n_tenants=4, n_dcs=3), fleet_dir)
    factors = load_equivalency_factors(write_factors(tmp_path))
    store = HistoryStore(tmp_path / "history")

    def run_two_months():
        for period in (Period(2025, 5), Period(2025, 6)):
            raw = load_input_dir(fleet_dir, period)
            models = read_models(fleet_dir / "models.csv")
            footprints = allocation.compute_footprints(raw, models)
            assert allocation.conservation_audit(footprints, raw, models).passed
            assert allocation.tenant_footprint(raw, models, "TENANT_02") == footprints[1]
            footprints = [fp._replace(history=store.prior_entries(fp.tenant_id,
                                                                   fp.period))
                          for fp in footprints]
            for fp in footprints:
                render_onepage(fp, factors)
                doc = render_json(fp, factors).content
                assert footprint_from_json(doc) == fp
                store.save(fp.tenant_id, fp.period, doc)
            # Spoil one stored month, so the next month reads a corrupt file.
            store.path_for("TENANT_01", period).write_text("{not json")
        return [len(fp.history) for fp in footprints]

    gc.collect()
    gc.disable()
    try:
        assert run_two_months() == [0, 1, 1, 1]
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_console_script_exits_1_when_stdout_and_stderr_both_fail(tmp_path,
                                                                monkeypatch):
    """When the final flush of standard output fails and standard error
    cannot take the message either, the console script still reaches
    ``os._exit(1)``, and no exception escapes it."""
    class Stream(io.StringIO):
        def __init__(self, *failing: str):
            super().__init__()
            self.failing = failing

        def fail(self, call: str) -> None:
            if call in self.failing:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def write(self, text: str) -> int:
            self.fail("write")
            return super().write(text)

        def flush(self) -> None:
            self.fail("flush")

    class Exited(BaseException):
        pass

    codes = []

    def exit_(code: int) -> None:
        codes.append(code)
        raise Exited

    monkeypatch.setattr(sys, "argv", ["carbonalloc", "synth", "--seed", "1",
                                      "--out-dir", str(tmp_path / "fleet")])
    monkeypatch.setattr(sys, "stdout", Stream("flush"))
    monkeypatch.setattr(sys, "stderr", Stream("write", "flush"))
    monkeypatch.setattr(cli.os, "_exit", exit_)
    try:
        with pytest.raises(Exited):
            cli.entrypoint()
    finally:
        gc.enable()
    assert codes == [EXIT_VALIDATION]
    assert sys.stdout.getvalue().startswith("wrote ")
    assert sys.stderr.getvalue() == ""


def test_console_script_is_wired():
    proc = subprocess.run([sys.executable, "-m", "carbonalloc.cli", "--help"],
                          capture_output=True, text=True, timeout=60, env=src_env())
    assert proc.returncode == 0
    for command in ("calibrate", "compute", "report", "audit", "synth"):
        assert command in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "carbonalloc.cli", "compute",
                           "--period", "2025-13"],
                          capture_output=True, text=True, timeout=60, env=src_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: carbonalloc compute")
    assert "argument --period" in proc.stderr


@pytest.mark.parametrize("n_tenants", [2, 130])
def test_closed_stdout_exits_1_naming_it_once(tmp_path, n_tenants):
    """Standard output is an output path. Two tenants' summary fits the
    stream's buffer, so only the console script's final flush meets the
    closed pipe; 130 tenants' summary overflows it inside ``main``, whose
    own handler names it, and the final flush must not name it again.
    Every report is written either way."""
    fleet, out = tmp_path / "fleet", tmp_path / "out"
    assert main(["synth", "--seed", "3", "--tenants", str(n_tenants),
                 "--dcs", "1", "--out-dir", str(fleet)]) == EXIT_OK
    proc = run_with_closed_stdout([
        "compute", "--period", "2025-06", "--input-dir", str(fleet),
        "--models", str(fleet / "models.csv"),
        "--equivalencies", str(write_factors(tmp_path)), "--out-dir", str(out)])
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr == "cannot write output: Broken pipe\n"
    assert len(list((out / "reports").glob("*/2025-06.json"))) == n_tenants


def test_output_is_independent_of_hash_seed(tmp_path, capsys):
    """``compute`` writes the same bytes whatever the interpreter's string
    hash seed, so no output depends on set or dict-of-str iteration order.
    The console script prints what ``main`` prints in-process."""
    fleet = tmp_path / "fleet"
    assert main(["synth", "--seed", "5", "--tenants", "5", "--dcs", "3",
                 "--out-dir", str(fleet)]) == EXIT_OK
    trees = []
    for seed in ("0", "1"):
        out = tmp_path / f"out_{seed}"
        env = src_env()
        env["PYTHONHASHSEED"] = seed
        args = ["compute", "--period", "2025-06", "--input-dir", str(fleet),
                "--models", str(fleet / "models.csv"),
                "--equivalencies", str(write_factors(tmp_path)),
                "--out-dir", str(out)]
        proc = subprocess.run([sys.executable, "-m", "carbonalloc.cli", *args],
                              capture_output=True, text=True, timeout=120,
                              env=env)
        assert proc.returncode == EXIT_OK, proc.stderr
        trees.append({path.relative_to(out): path.read_bytes()
                      for path in sorted(out.rglob("*")) if path.is_file()})
        capsys.readouterr()
        assert main(args) == EXIT_OK
        assert proc.stdout == capsys.readouterr().out
    assert len(trees[0]) == 5 * 3  # a JSON and an HTML report, plus history
    assert trees[0] == trees[1]


def test_audit_lists_differences_in_document_order(tmp_path, capsys):
    """The per-field lines of a failed audit follow the recomputed report's
    key order, then the stored-only keys in stored order, whatever the
    interpreter's string hash seed. The console script prints what ``main``
    prints in-process."""
    fleet, out = tmp_path / "fleet", tmp_path / "out"
    assert main(["synth", "--seed", "7", "--tenants", "3", "--dcs", "2",
                 "--out-dir", str(fleet)]) == EXIT_OK
    assert main(["compute", "--period", "2025-06", "--input-dir", str(fleet),
                 "--models", str(fleet / "models.csv"),
                 "--equivalencies", str(write_factors(tmp_path)),
                 "--out-dir", str(out)]) == EXIT_OK
    report = out / "reports" / "TENANT_02" / "2025-06.json"
    doc = json.loads(report.read_text(encoding="utf-8"))
    doc["tenant"]["displayName"] = "Tampered"
    doc["tenant"]["zeta"] = 1
    doc["tenant"]["alpha"] = 2
    doc["summary"]["grossEmissions"] *= 2
    doc["equivalencies"]["carKm"] += 1
    report.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    args = ["audit", "--report", str(report), "--input-dir", str(fleet),
            "--models", str(fleet / "models.csv")]
    errs = []
    for seed in ("0", "1"):
        env = src_env()
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run([sys.executable, "-m", "carbonalloc.cli", *args],
                              capture_output=True, text=True, timeout=120,
                              env=env)
        assert proc.returncode == EXIT_AUDIT_MISMATCH, proc.stderr
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    capsys.readouterr()
    assert main(args) == EXIT_AUDIT_MISMATCH
    assert (proc.stdout, proc.stderr) == tuple(capsys.readouterr())
    fields = [line.split(":")[0].strip() for line in errs[0].splitlines()[1:]]
    assert fields == ["tenant.displayName", "tenant.zeta", "tenant.alpha",
                      "summary.grossEmissions", "equivalencies.carKm"]


def test_output_is_independent_of_input_row_order(tmp_path):
    """Shuffling the data rows of every input CSV, keeping the schema line
    and the header, leaves every report and history byte unchanged."""
    import random
    fleet, shuffled = tmp_path / "fleet", tmp_path / "shuffled"
    assert main(["synth", "--seed", "11", "--tenants", "6", "--dcs", "3",
                 "--out-dir", str(fleet)]) == EXIT_OK
    shuffled.mkdir()
    rng = random.Random(5)
    names = ("servers.csv", "network.csv", "datacenters.csv", "tenants.csv",
             "models.csv")
    for name in names:
        schema, header, *rows = (fleet / name).read_text(
            encoding="utf-8").splitlines(keepends=True)
        assert schema.startswith("#") and len(rows) > 1
        rng.shuffle(rows)
        (shuffled / name).write_text("".join([schema, header, *rows]),
                                     encoding="utf-8")
        assert (shuffled / name).read_bytes() != (fleet / name).read_bytes()
    trees = []
    for inputs in (fleet, shuffled):
        out = tmp_path / f"out_{inputs.name}"
        assert main(["compute", "--period", "2025-06", "--input-dir", str(inputs),
                     "--models", str(inputs / "models.csv"),
                     "--equivalencies", str(write_factors(tmp_path)),
                     "--out-dir", str(out)]) == EXIT_OK
        trees.append({path.relative_to(out): path.read_bytes()
                      for path in sorted(out.rglob("*")) if path.is_file()})
    assert len(trees[0]) == 6 * 3
    assert trees[0] == trees[1]


@pytest.mark.parametrize("argv", [
    ["compute", "--period", "2025-06", "--input-dir", "in", "--models", "m.csv",
     "--equivalencies", "f.json", "--out-dir", "out", "--trend-thresholds=5,5"],
    ["report", "--report", "r.json", "--out-dir", "out", "--trend-thresholds=5,5"],
    ["synth", "--seed", "1", "--out-dir", "fleet", "--no-offsets"],
], ids=["compute", "report", "synth"])
def test_removed_options_are_usage_errors(capsys, argv):
    """The badge cutoff is fixed, so the one-page report is a function of
    the JSON report alone; synth always writes offsets."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compute", "audit"])
def test_missing_model_names_its_first_servers_row(tmp_path, capsys, command):
    fleet = tmp_path / "fleet"
    assert main(["synth", "--seed", "7", "--tenants", "3", "--dcs", "2",
                 "--out-dir", str(fleet)]) == EXIT_OK
    ws = {"fleet": fleet, "models": fleet / "models.csv",
          "factors": write_factors(tmp_path), "out": tmp_path / "out"}
    assert run_compute(ws) == EXIT_OK
    servers = (fleet / "servers.csv").read_text(encoding="utf-8").splitlines()
    uses = [i for i, line in enumerate(servers, 1) if ",MODEL_A," in line]
    assert len(uses) > 1
    line_no = uses[0]
    models = ws["models"].read_text(encoding="utf-8").splitlines()
    ws["models"].write_text("\n".join(line for line in models
                                      if not line.startswith("MODEL_A")) + "\n",
                            encoding="utf-8")
    capsys.readouterr()
    ws["out"] = tmp_path / "out_broken"
    code = (run_compute(ws) if command == "compute" else
            run_audit(ws, tmp_path / "out" / "reports" / "TENANT_01" / "2025-06.json"))
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == ("no calibrated power model for device "
                                       f"model(s): MODEL_A (servers.csv:{line_no})\n")


def write_inputs(root: Path, servers: list[str], datacenters: list[str],
                 tenants: list[str], models: list[str]) -> dict:
    """A hand-written fleet: the data rows of each file, no network rows."""
    fleet = root / "fleet"
    fleet.mkdir()
    for name, header, rows in (
            ("servers.csv", "datacenter_id,device_id,device_model,tenant_id,"
             "cpu_utilization,cache_moved,dram_accessed,disk_moved", servers),
            ("network.csv", "datacenter_id,device_id,device_type,tenant_id,"
             "bytes_sent,bytes_received", []),
            ("datacenters.csv", "datacenter_id,name,region,grid_intensity,"
             "cooling_devices,other_devices,fuel_log,scope3_total,green_energy,"
             "rec_offset", datacenters),
            ("tenants.csv", "tenant_id,display_name,agent_count,datacenter_ids",
             tenants),
            ("models.csv", "device_model,intercept,w_cpu,w_cache,w_dram,w_disk,"
             "adjusted_r2", models)):
        (fleet / name).write_text("\n".join(("# schema_version=1", header, *rows))
                                  + "\n", encoding="utf-8")
    return {"root": root, "fleet": fleet, "models": fleet / "models.csv",
            "factors": write_factors(root), "out": root / "out"}


def test_validation_failure_prints_every_error(tmp_path, capsys):
    ws = write_inputs(
        tmp_path,
        servers=["DC_1,S1,M,TENANT_1,0.5,0,0,0", "DC_2,S2,M,TENANT_1,0.5,0,0,0",
                 "DC_1,S3,M,TENANT_7,0.5,0,0,0"],
        datacenters=["DC_1,One,eu,0.3,,,", "DC_2,Two,eu,0.3,,,"],
        tenants=["TENANT_1,One,1,DC_1;DC_9"], models=["M,10,0,0,0,0,1"])
    assert run_compute(ws) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "3 validation error(s):\n"
        "  usage for device 'S2': tenant 'TENANT_1' does not use data center "
        "'DC_2' (at servers.csv:4)\n"
        "  unknown tenant 'TENANT_7' (at servers.csv:5)\n"
        "  unknown data center 'DC_9' (at tenants.csv:3)\n")
    assert not ws["out"].exists()


@pytest.mark.parametrize("intensity, intercepts, greens, message", [
    ("0.3", ("1e308", "1e308"), ("0", "0"), "energy (Wh) must be finite, got inf"),
    ("1", ("0.9e308", "1"), ("1e308", "0.9e308"),
     "emissions (gCO2e) must be finite, got inf"),
], ids=["scope2-energy", "green-offset"])
def test_summed_figure_overflow_names_the_tenants_row(tmp_path, capsys, intensity,
                                                      intercepts, greens, message):
    """Every figure of each data center, and the tenant's gross and net, are
    finite, but a figure the report sums over the two data centers is not:
    compute names the tenant's row and writes nothing."""
    ws = write_inputs(
        tmp_path,
        servers=[f"DC_{i},S{i},M{i},TENANT_1,0.5,0,0,0" for i in (1, 2)],
        datacenters=[f"DC_{i},Dc,eu,{intensity},,,,0,{green},0"
                     for i, green in zip((1, 2), greens)],
        tenants=["TENANT_1,One,1,DC_1;DC_2"],
        models=[f"M{i},{wh},0,0,0,0,1" for i, wh in zip((1, 2), intercepts)])
    assert run_compute(ws) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"tenants.csv:3: {message}\n"
    assert not ws["out"].exists()


# GEN_1 and GEN_2 emit 2**969 g each and GEN_3 the largest float. Added in
# device-id order, as each tenant's Scope 1 adds them, the first log
# overflows and the second does not; in file order it is the other way round.
@pytest.mark.parametrize("fuel_log, code, err", [
    ("GEN_3:1.7976931348623157e+308:1;GEN_1:4.9896007738368e+291:1;"
     "GEN_2:4.9896007738368e+291:1", EXIT_VALIDATION,
     "datacenters.csv:3: emissions (gCO2e) must be finite, got inf\n"),
    ("GEN_2:4.9896007738368e+291:1;GEN_3:4.9896007738368e+291:1;"
     "GEN_1:1.7976931348623157e+308:1", EXIT_OK, ""),
], ids=["overflows", "finite"])
def test_fuel_total_is_bounded_in_the_order_scope1_adds_it(tmp_path, capsys,
                                                           fuel_log, code, err):
    ws = write_inputs(
        tmp_path, servers=["DC_1,S1,M,TENANT_1,0.5,0,0,0"],
        datacenters=[f"DC_1,One,eu,0.3,,,{fuel_log}"],
        tenants=["TENANT_1,One,1,DC_1"], models=["M,10.0,1.0,0,0,0,1.0"])
    assert run_compute(ws) == code
    captured = capsys.readouterr()
    assert captured.err == err
    if code != EXIT_OK:
        assert not ws["out"].exists()
        return
    assert "conservation audit: PASS" in captured.out
    report = ws["out"] / "reports" / "TENANT_1" / "2025-06.json"
    assert run_audit(ws, report) == EXIT_OK
    assert "audit PASS" in capsys.readouterr().out


def subcommand_options() -> dict[str, list[str]]:
    """Each subcommand's options in the order it declares them, less --help."""
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return {name: [option for action in command._actions if action.dest != "help"
                   for option in action.option_strings]
            for name, command in commands.items()}


def test_each_subcommand_has_its_pinned_options():
    """Adding an option is a decision that this list records."""
    assert subcommand_options() == {
        "calibrate": ["--samples", "--models-out"],
        "compute": ["--period", "--input-dir", "--models", "--equivalencies",
                    "--out-dir", "--history-dir"],
        "report": ["--report", "--out-dir", "--equivalencies"],
        "audit": ["--report", "--input-dir", "--models", "--equivalencies",
                  "--history-dir"],
        "synth": ["--seed", "--tenants", "--dcs", "--out-dir", "--l-share"],
    }
    assert [action.dest for action in cli.build_parser()._actions
            if action.option_strings] == ["help"]


def test_readme_synopsis_lists_each_commands_options():
    """The README's "Command line" block names every subcommand once, with
    the options the parser declares, in the same order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    synopsis = {}
    for usage in re.split(r"\n(?=carbonalloc )", block.strip()):
        command = usage.split()[1]
        assert command not in synopsis
        synopsis[command] = re.findall(r"--[a-z][a-z-]*", usage)
    assert synopsis == subcommand_options()


def test_synth_refuses_l_share_out_of_range(tmp_path, capsys):
    out = tmp_path / "fleet"
    assert main(["synth", "--seed", "3", "--tenants", "3", "--dcs", "2",
                 "--out-dir", str(out), "--l-share", "1.5"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == ("cannot generate fleet: share must be "
                                       "within [0, 1], got 1.5\n")
    assert not out.exists()


@pytest.mark.parametrize("option", ["--tenants", "--dcs"])
def test_synth_refuses_an_empty_fleet(tmp_path, capsys, option):
    out = tmp_path / "fleet"
    assert main(["synth", "--seed", "3", option, "0",
                 "--out-dir", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == ("cannot generate fleet: need at least one "
                                       "tenant and one data center\n")
    assert not out.exists()


def test_synth_default_period_is_stable():
    fleet = generate_fleet(seed=1, n_tenants=2, n_dcs=1)
    assert fleet.raw.period == Period(2025, 1)


_IMPORT_PROBE = """
import json, sys
watched = ("carbonalloc.synth", "dataclasses", "decimal", "fractions", "html",
           "inspect", "logging", "numpy")
def loaded():
    return [name for name in watched if name in sys.modules]
import carbonalloc.cli
steps = [["import", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    code = carbonalloc.cli.main(argv)
    steps.append([argv[0], code, loaded()])
print(json.dumps(steps))
"""

_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import carbonalloc.cli
print(json.dumps([carbonalloc.cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def _every_command(tmp_path: Path) -> list[list[str]]:
    """One successful run of each of the five commands, in an order that
    makes each one's inputs before it runs."""
    fleet, out = tmp_path / "fleet", tmp_path / "out"
    report = out / "reports" / "TENANT_01" / "2025-06.json"
    samples = write_samples(tmp_path / "samples.csv")
    return [
        ["synth", "--seed", "42", "--tenants", "3", "--dcs", "2",
         "--out-dir", str(fleet)],
        ["compute", "--period", "2025-06", "--input-dir", str(fleet),
         "--models", str(fleet / "models.csv"),
         "--equivalencies", str(write_factors(tmp_path)), "--out-dir", str(out)],
        ["audit", "--report", str(report), "--input-dir", str(fleet),
         "--models", str(fleet / "models.csv")],
        ["report", "--report", str(report), "--out-dir", str(tmp_path / "again")],
        ["calibrate", "--samples", str(samples),
         "--models-out", str(tmp_path / "fitted.csv")],
    ]


def test_each_command_loads_only_what_it_runs(tmp_path):
    """Each command loads only what it runs, so the others do not pay for it
    at start-up: no command loads numpy or ``inspect``, ``fractions`` and the
    ``decimal`` it imports are loaded to fit models and nowhere else,
    ``synth`` only by its command, ``logging`` and ``html`` by none of them
    when nothing is warned about, and ``dataclasses`` by none at all. Each
    module appearing where expected shows the probe works."""
    commands = _every_command(tmp_path)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120, env=src_env())
    assert proc.returncode == 0, proc.stderr
    synth = "carbonalloc.synth"
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        ["import", 0, []], ["synth", 0, [synth]], ["compute", 0, [synth]],
        ["audit", 0, [synth]], ["report", 0, [synth]],
        ["calibrate", 0, [synth, "decimal", "fractions"]]]


def test_every_command_runs_without_numpy(tmp_path):
    """With numpy made unimportable, all five commands still succeed."""
    commands = _every_command(tmp_path)
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [EXIT_OK] * 5
