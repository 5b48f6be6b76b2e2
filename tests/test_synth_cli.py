"""Synthetic fleet generator and the command-line workflow around it."""

import argparse
import ast
import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from carbonalloc import allocation, cli
from carbonalloc.cli import (
    EXIT_AUDIT_MISMATCH,
    EXIT_COMPUTATION,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from carbonalloc.errors import CarbonAllocError, MalformedRow
from carbonalloc.history import HistoryStore
from carbonalloc.ingest import load_input_dir
from carbonalloc.report import ReportError
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

    def test_missing_models_file_exits_1(self, workspace, capsys):
        workspace["models"].unlink()
        assert run_compute(workspace) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"{workspace['models']}:0: cannot read file: No such file or directory\n")

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

    def test_path_escaping_tenant_id_exits_1_and_writes_nothing(self, workspace,
                                                                capsys):
        for name in ("tenants.csv", "servers.csv", "network.csv"):
            path = workspace["fleet"] / name
            path.write_text(path.read_text().replace("TENANT_01", "../../escape"))
        assert run_compute(workspace) == EXIT_VALIDATION
        assert "tenants.csv:3: tenant_id: '../../escape'" in capsys.readouterr().err
        assert not workspace["out"].exists()
        assert not (workspace["root"] / "escape").exists()

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

    def test_l_share_override_scales_scope2(self, workspace):
        assert run_compute(workspace) == EXIT_OK
        full = json.loads((workspace["out"] / "reports" / "TENANT_01" /
                           "2025-06.json").read_text())
        workspace["out2"] = workspace["root"] / "out2"
        assert main(["compute", "--period", "2025-06",
                     "--input-dir", str(workspace["fleet"]),
                     "--models", str(workspace["models"]),
                     "--equivalencies", str(workspace["factors"]),
                     "--out-dir", str(workspace["out2"]),
                     "--l-share", "0.5"]) == EXIT_OK
        halved = json.loads((workspace["out2"] / "reports" / "TENANT_01" /
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

    def test_non_utf8_equivalencies_exits_1(self, workspace, capsys):
        workspace["factors"].write_bytes(b"\xff")
        assert run_compute(workspace) == EXIT_VALIDATION
        assert "cannot read equivalency config" in capsys.readouterr().err


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
    def _argv(ws, case: str) -> tuple[list[str], Path]:
        """The command line for ``case`` and the path its error must name."""
        blocker = ws["root"] / "a-file"
        blocker.write_text("not a directory\n")
        compute = ["compute", "--period", "2025-06", "--input-dir", str(ws["fleet"]),
                   "--models", str(ws["models"]),
                   "--equivalencies", str(ws["factors"])]
        if case == "synth-out-dir":
            return (["synth", "--seed", "1", "--out-dir", str(blocker)], blocker)
        if case == "report-out-dir":
            assert run_compute(ws) == EXIT_OK
            report = ws["out"] / "reports" / "TENANT_01" / "2025-06.json"
            return (["report", "--report", str(report), "--out-dir", str(blocker)],
                    blocker)
        if case == "compute-out-dir":
            return ([*compute, "--out-dir", str(blocker)], blocker)
        if case == "compute-history-dir":
            return ([*compute, "--out-dir", str(ws["out"]),
                     "--history-dir", str(blocker)], blocker)
        samples = write_samples(ws["root"] / "samples.csv")
        missing = ws["root"] / "missing" / "models.csv"
        return (["calibrate", "--samples", str(samples),
                 "--models-out", str(missing)], missing)

    @pytest.mark.parametrize("case", ["synth-out-dir", "report-out-dir",
                                      "compute-out-dir", "compute-history-dir",
                                      "calibrate-models-out"])
    def test_exits_1_naming_the_path(self, workspace, capsys, case):
        argv, path = self._argv(workspace, case)
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"cannot write {path}" in err
        assert "Traceback" not in err


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
        assert run_audit(workspace, report,
                         extra=["--l-share", "0.5"]) == EXIT_AUDIT_MISMATCH
        captured = capsys.readouterr()
        assert "lShare" in captured.out + captured.err

    def test_unparseable_report_exits_1(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert run_audit(workspace, bad) == EXIT_VALIDATION

    @pytest.mark.parametrize("content, detail", [
        (None, "No such file or directory"),
        ("{", "report is not valid JSON: "),
    ], ids=["missing", "not-json"])
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

    def test_path_escaping_tenant_id_exits_1(self, workspace, capsys):
        assert run_compute(workspace) == EXIT_OK
        report = workspace["out"] / "reports" / "TENANT_03" / "2025-06.json"
        doc = json.loads(report.read_text(encoding="utf-8"))
        doc["tenant"]["tenantId"] = "../../escape"
        report.write_text(json.dumps(doc), encoding="utf-8")
        rerender_dir = workspace["root"] / "rerender"
        assert main(["report", "--report", str(report),
                     "--out-dir", str(rerender_dir)]) == EXIT_VALIDATION
        assert "'../../escape'" in capsys.readouterr().err
        assert not rerender_dir.exists()
        assert not (workspace["root"] / "escape").exists()

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
import dataclasses, json, sys
import carbonalloc.cli
kinds = {}
for name, module in sorted(sys.modules.items()):
    if name != "carbonalloc" and not name.startswith("carbonalloc."):
        continue
    for cls in vars(module).values():
        if not (isinstance(cls, type) and cls.__module__ == name):
            continue
        if dataclasses.is_dataclass(cls):
            derives = ("__post_init__" in vars(cls)
                       or any(not f.init for f in dataclasses.fields(cls)))
            kinds[cls.__qualname__] = "derives" if derives else "holds"
        elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
            kinds[cls.__qualname__] = "NamedTuple"
print(json.dumps(kinds))
"""


def test_only_records_that_derive_a_field_are_dataclasses():
    """A public record class is a dataclass only if it derives or checks a
    field (a ``field(init=False)`` or a ``__post_init__``); every other one is
    a NamedTuple, whose class costs a tenth of a frozen dataclass's to build
    at start-up and whose rows are built without per-field ``__setattr__``."""
    proc = subprocess.run([sys.executable, "-c", _RECORD_PROBE],
                          capture_output=True, text=True, timeout=120, env=src_env())
    assert proc.returncode == 0, proc.stderr
    kinds = json.loads(proc.stdout.splitlines()[-1])
    dataclasses_built = sorted(name for name, kind in kinds.items()
                               if kind != "NamedTuple")
    assert dataclasses_built == [
        "DcFootprint", "EquivalencyFactors", "Footprint", "Period",
        "ResponsibilityRatio", "TenantDcScope2", "_Table"]
    assert [name for name in dataclasses_built
            if kinds[name] == "holds" and not name.startswith("_")] == []
    assert {name for name, kind in kinds.items() if kind == "NamedTuple"} >= {
        "ServerUsage", "NetworkUsage", "SharedDevice", "FuelEntry", "DataCenter",
        "Tenant", "RawData", "CalibrationSample", "ServerPowerModel",
        "DeviceShare", "HistoryEntry", "FleetTotals", "AuditCheck",
        "AuditReport", "ReportDocument", "TrendDelta", "SynthFleet"}


def test_console_script_is_wired():
    proc = subprocess.run([sys.executable, "-m", "carbonalloc.cli", "--help"],
                          capture_output=True, text=True, timeout=60, env=src_env())
    assert proc.returncode == 0
    for command in ("calibrate", "compute", "report", "audit", "synth"):
        assert command in proc.stdout


def test_output_is_independent_of_hash_seed(tmp_path):
    """``compute`` writes the same bytes whatever the interpreter's string
    hash seed, so no output depends on set or dict-of-str iteration order."""
    fleet = tmp_path / "fleet"
    assert main(["synth", "--seed", "5", "--tenants", "5", "--dcs", "3",
                 "--out-dir", str(fleet)]) == EXIT_OK
    trees = []
    for seed in ("0", "1"):
        out = tmp_path / f"out_{seed}"
        env = src_env()
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-m", "carbonalloc.cli", "compute", "--period",
             "2025-06", "--input-dir", str(fleet),
             "--models", str(fleet / "models.csv"),
             "--equivalencies", str(write_factors(tmp_path)),
             "--out-dir", str(out)],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == EXIT_OK, proc.stderr
        trees.append({path.relative_to(out): path.read_bytes()
                      for path in sorted(out.rglob("*")) if path.is_file()})
    assert len(trees[0]) == 5 * 3  # a JSON and an HTML report, plus history
    assert trees[0] == trees[1]


def test_audit_lists_differences_in_document_order(tmp_path):
    """The per-field lines of a failed audit follow the recomputed report's
    key order, then the stored-only keys in stored order, whatever the
    interpreter's string hash seed."""
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
    errs = []
    for seed in ("0", "1"):
        env = src_env()
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-m", "carbonalloc.cli", "audit", "--report",
             str(report), "--input-dir", str(fleet),
             "--models", str(fleet / "models.csv")],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == EXIT_AUDIT_MISMATCH, proc.stderr
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
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


@pytest.mark.parametrize("value", ["nan,5", "5,inf", "-1,5"])
def test_trend_thresholds_must_be_finite_and_non_negative(tmp_path, capsys,
                                                           value):
    with pytest.raises(SystemExit) as exit_info:
        main(["report", "--report", str(tmp_path / "r.json"),
              "--out-dir", str(tmp_path / "out"), f"--trend-thresholds={value}"])
    assert exit_info.value.code == 2
    assert "thresholds must be finite and >= 0" in capsys.readouterr().err


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


def test_each_subcommand_has_its_pinned_options():
    """Adding an option is a decision that this list records."""
    parser = cli.build_parser()
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert {name: [option for action in command._actions if action.dest != "help"
                   for option in action.option_strings]
            for name, command in commands.items()} == {
        "calibrate": ["--samples", "--models-out"],
        "compute": ["--period", "--input-dir", "--models", "--equivalencies",
                    "--out-dir", "--history-dir", "--l-share", "--trend-thresholds"],
        "report": ["--report", "--out-dir", "--equivalencies", "--trend-thresholds"],
        "audit": ["--report", "--input-dir", "--models", "--equivalencies",
                  "--history-dir", "--l-share"],
        "synth": ["--seed", "--tenants", "--dcs", "--out-dir", "--no-offsets",
                  "--l-share"],
    }
    assert [action.dest for action in parser._actions
            if action.option_strings] == ["help"]


def test_synth_refuses_l_share_out_of_range(tmp_path, capsys):
    out = tmp_path / "fleet"
    assert main(["synth", "--seed", "3", "--tenants", "3", "--dcs", "2",
                 "--out-dir", str(out), "--l-share", "1.5"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == ("cannot generate fleet: share must be "
                                       "within [0, 1], got 1.5\n")
    assert not out.exists()


def test_synth_default_period_is_stable():
    fleet = generate_fleet(seed=1, n_tenants=2, n_dcs=1)
    assert fleet.raw.period == Period(2025, 1)


_NUMPY_PROBE = """
import json, sys
import carbonalloc.cli
loaded = [["import", 0, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    code = carbonalloc.cli.main(argv)
    loaded.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(loaded))
"""


def test_only_calibrate_imports_numpy(tmp_path):
    """numpy is imported to fit models and nowhere else, so the other
    commands do not pay for it at start-up; calibrate shows the probe works."""
    fleet, out = tmp_path / "fleet", tmp_path / "out"
    report = out / "reports" / "TENANT_01" / "2025-06.json"
    samples = write_samples(tmp_path / "samples.csv")
    commands = [
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
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        ["import", 0, False], ["synth", 0, False], ["compute", 0, False],
        ["audit", 0, False], ["report", 0, False], ["calibrate", 0, True]]
