"""Report rendering: canonical JSON, equivalencies, trend, one-page HTML."""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from carbonalloc.allocation import (
    DcFootprint,
    DeviceShare,
    Footprint,
    HistoryEntry,
    ResponsibilityRatio,
    compute_footprints,
)
from carbonalloc.cli import EXIT_VALIDATION, main
from carbonalloc.history import HistoryStore
from carbonalloc.report import (
    EquivalencyFactors,
    ReportError,
    compute_equivalencies,
    compute_trend,
    factors_from_json,
    footprint_from_json,
    load_equivalency_factors,
    render_json,
    render_onepage,
)
from carbonalloc.synth import generate_fleet
from carbonalloc.units import SCOPE2_COMPONENTS, Period

VERBATIM_FIELDS = ("isAggregate", "cacheMoved", "dramAccessed", "diskMoved",
                   "bytesSent", "bytesReceived", "deviceModel", "deviceType")


@pytest.fixture
def fixture_footprint(fictitious_raw, fictitious_models):
    (fp,) = compute_footprints(fictitious_raw, fictitious_models)
    return fp


@pytest.fixture
def fixture_doc(fixture_footprint, factors):
    return render_json(fixture_footprint, factors)


GOLDEN = Path(__file__).resolve().parents[1] / "demos" / "output"

# Every figure a report stores that its record derives from other figures.
STORED_COPIES = ("summary.grossEmissions", "summary.netEmissions",
                 "summary.perAgentEmissions",
                 *(f"datacenters.DC_EU1.{key}" for key in (
                     "responsibility", "scopes.scope2.emissions",
                     *(f"scopes.scope2.components.{name}.emissions"
                       for name in SCOPE2_COMPONENTS),
                     "grossEmissions", "netEmissions")))


def stored_for(fp, factors, period: Period) -> bytes:
    """``fp``'s JSON report as the history store holds it for ``period``."""
    return render_json(dataclasses.replace(fp, period=period), factors).content


class TestRenderJson:
    def test_verbatim_field_names_present(self, fixture_doc):
        text = fixture_doc.content.decode("utf-8")
        for field in VERBATIM_FIELDS:
            assert f'"{field}"' in text

    def test_scope_tree_shape(self, fixture_doc):
        doc = json.loads(fixture_doc.content)
        scopes = doc["summary"]["scopes"]
        for name in ("scope1", "scope2", "scope3"):
            assert scopes[name]["isAggregate"] is True
            assert "energy" in scopes[name] and "emissions" in scopes[name]
        dc = doc["datacenters"]["DC_EU1"]
        devices = dc["scopes"]["scope2"]["devices"]
        assert set(devices) == {"servers", "network", "cooling", "other"}
        server = devices["servers"]["SERVER_1234"]
        assert server["deviceModel"] == "ABC_987"
        assert server["isAggregate"] is False
        assert server["utilization"] == 0.10
        assert server["cacheMoved"] == 2e7
        assert server["dramAccessed"] == 5e9
        assert server["diskMoved"] == 2e10
        network = devices["network"]["NETWORK_DEVICE_1234"]
        assert network["deviceType"] == "router"
        assert network["bytesSent"] == 10**12
        assert network["bytesReceived"] == 10**12

    def test_zero_scope1_rendered_as_explicit_zeros(self, fixture_doc):
        doc = json.loads(fixture_doc.content)
        scope1 = doc["summary"]["scopes"]["scope1"]
        assert scope1["energy"] == 0.0
        assert scope1["emissions"] == 0.0

    def test_headline_values_exact(self, fixture_doc):
        doc = json.loads(fixture_doc.content)
        assert doc["summary"]["grossEmissions"] == 1800000.0
        assert doc["summary"]["netEmissions"] == 1800000.0
        assert doc["summary"]["perAgentEmissions"] == 7200.0
        assert doc["summary"]["scopes"]["scope2"]["energy"] == 4500000.0
        assert doc["period"] == "2025-06"
        assert doc["tenant"]["agentCount"] == 250

    def test_render_parse_render_is_byte_identical(self, fixture_footprint,
                                                   factors):
        first = render_json(fixture_footprint, factors)
        rebuilt = footprint_from_json(first.content)
        second = render_json(rebuilt, factors)
        assert first.content == second.content

    def test_round_trip_on_synthetic_fleets(self, factors):
        for seed in (1, 2, 3):
            fleet = generate_fleet(seed=seed, n_tenants=4, n_dcs=2)
            for fp in compute_footprints(fleet.raw, fleet.models):
                doc = render_json(fp, factors)
                again = render_json(footprint_from_json(doc.content), factors)
                assert doc.content == again.content

    def test_document_is_self_consistent_for_external_auditors(self, factors):
        """Checkable from the file alone: scope sums and device sums agree."""
        fleet = generate_fleet(seed=9, n_tenants=6, n_dcs=3)
        for fp in compute_footprints(fleet.raw, fleet.models):
            doc = json.loads(render_json(fp, factors).content)
            gross = doc["summary"]["grossEmissions"]
            scopes = doc["summary"]["scopes"]
            scope_sum = (scopes["scope1"]["emissions"]
                         + scopes["scope2"]["emissions"]
                         + scopes["scope3"]["emissions"])
            assert math.isclose(gross, scope_sum, rel_tol=1e-9, abs_tol=1e-9)
            for dc in doc["datacenters"].values():
                s2 = dc["scopes"]["scope2"]
                device_sum = sum(entry["emissions"]
                                 for group in s2["devices"].values()
                                 for entry in group.values())
                assert math.isclose(s2["emissions"], device_sum,
                                    rel_tol=1e-9, abs_tol=1e-9)
                comp_sum = sum(c["emissions"] for c in s2["components"].values())
                assert math.isclose(s2["emissions"], comp_sum,
                                    rel_tol=1e-9, abs_tol=1e-9)

    def test_overflowing_pct_change_renders_as_infinity(self, fixture_footprint,
                                                        factors):
        prior = HistoryEntry(Period(2025, 5), 1e-300, 0.0)
        fp = dataclasses.replace(fixture_footprint, history=(prior,))
        content = render_json(fp, factors).content
        assert b'"pctChange": Infinity\n' in content
        assert render_json(footprint_from_json(content), factors).content == content

    def test_duplicate_key_rejected_naming_it(self, fixture_doc):
        text = fixture_doc.content.decode("utf-8")
        forged = text.replace('"summary": {\n',
                              '"summary": {\n    "grossEmissions": 1.0,\n', 1)
        with pytest.raises(ReportError, match="grossEmissions"):
            footprint_from_json(forged)
        with pytest.raises(ReportError, match="grossEmissions"):
            factors_from_json(forged.encode("utf-8"))

    @pytest.mark.parametrize("value", [True, "1", None, float("nan")])
    def test_non_numeric_device_counter_rejected(self, fixture_doc, value):
        doc = json.loads(fixture_doc.content)
        dc = doc["datacenters"]["DC_EU1"]
        dc["scopes"]["scope2"]["devices"]["network"]["NETWORK_DEVICE_1234"][
            "bytesSent"] = value
        with pytest.raises(ReportError, match="bytesSent"):
            footprint_from_json(doc)

    @pytest.mark.parametrize("value", [
        "0", '"abc"', "1e400", pytest.param("1" + "0" * 400, id="401-digits")])
    def test_report_refuses_bad_agent_count(self, tmp_path, capsys, fixture_doc,
                                            value):
        report = tmp_path / "report.json"
        report.write_text(fixture_doc.content.decode("utf-8").replace(
            '"agentCount": 250', f'"agentCount": {value}', 1), encoding="utf-8")
        assert main(["report", "--report", str(report),
                     "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert "agentCount" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", STORED_COPIES)
    def test_stored_copy_one_ulp_off_refused(self, tmp_path, capsys, fixture_doc,
                                             path):
        doc = json.loads(fixture_doc.content)
        *parents, key = path.split(".")
        holder = doc
        for part in parents:
            holder = holder[part]
        assert holder[key] != 0.0
        holder[key] = math.nextafter(holder[key], 0.0)
        with pytest.raises(ReportError, match=(
                f"^malformed report JSON: {re.escape(path)}: stored .*, but the "
                "report's other figures give ")):
            footprint_from_json(doc)
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        assert main(["report", "--report", str(report),
                     "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert path in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("figure, factor, named", [
        ("energy", 2.0, "scopes.scope2.devices: server device energies sum to"),
        ("emissions", 3.0, "scopes.scope2.devices.servers.{}.emissions: "),
    ])
    def test_device_figures_that_do_not_add_up_refused(self, tmp_path, capsys,
                                                       factors, figure, factor,
                                                       named):
        fleet = generate_fleet(seed=3, n_tenants=2, n_dcs=1)
        fp = compute_footprints(fleet.raw, fleet.models)[0]
        assert fp.tenant_id == "TENANT_01"
        doc = json.loads(render_json(fp, factors).content)
        (dc,) = doc["datacenters"].values()
        device_id, server = next(iter(
            dc["scopes"]["scope2"]["devices"]["servers"].items()))
        server[figure] *= factor
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        assert main(["report", "--report", str(report),
                     "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert named.format(device_id) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integers_adding_up_beyond_float_range_refused(self, fixture_doc):
        doc = json.loads(fixture_doc.content)
        scope2 = doc["datacenters"]["DC_EU1"]["scopes"]["scope2"]
        for name, devices in (("server", "servers"), ("network", "network")):
            scope2["components"][name]["energy"] = 10**308
            for device in scope2["devices"][devices].values():
                device["energy"] = 10**308
                device["emissions"] = 10**308 * 0.4
        with pytest.raises(ReportError, match="too large to convert to float"):
            footprint_from_json(doc)

    def test_different_footprints_render_differently(self, factors):
        fleet_a = generate_fleet(seed=1, n_tenants=3, n_dcs=2)
        fleet_b = generate_fleet(seed=2, n_tenants=3, n_dcs=2)
        doc_a = render_json(compute_footprints(fleet_a.raw, fleet_a.models)[0],
                            factors)
        doc_b = render_json(compute_footprints(fleet_b.raw, fleet_b.models)[0],
                            factors)
        assert doc_a.content != doc_b.content

    def test_history_and_pct_change_serialized(self, tmp_path, fictitious_raw,
                                               fictitious_models, factors):
        store = HistoryStore(tmp_path)
        prior_raw = dataclasses.replace(fictitious_raw, period=Period(2025, 5))
        (prior,) = compute_footprints(prior_raw, fictitious_models)
        store.save(prior.tenant_id, prior.period,
                   render_json(prior, factors).content)
        (fp,) = compute_footprints(fictitious_raw, fictitious_models)
        fp = dataclasses.replace(
            fp, history=store.prior_entries(fp.tenant_id, fp.period))
        doc = json.loads(render_json(fp, factors).content)
        (entry,) = doc["summary"]["history"]
        assert entry["period"] == "2025-05"
        assert entry["grossEmissions"] == 1800000.0
        assert entry["pctChange"] == 0.0


def test_golden_reports_parse_and_re_render_identically():
    """Every report the demos wrote parses and re-renders to its own bytes,
    except the one demo 04 tampers with on purpose."""
    tampered = GOLDEN / "audit_demo/out/reports/TENANT_01/2025-06.json"
    reports = sorted(path for path in GOLDEN.rglob("*.json")
                     if path.name != "equivalencies.json")
    assert len(reports) == 18
    assert sum("history" in path.parts for path in reports) == 9
    for path in reports:
        content = path.read_bytes()
        if path == tampered:
            with pytest.raises(ReportError, match=(
                    "^malformed report JSON: summary.grossEmissions: ")):
                footprint_from_json(content)
        else:
            rebuilt = footprint_from_json(content)
            assert (render_json(rebuilt, factors_from_json(content)).content
                    == content), path


# Fields the parser never reads back, each given a value the writer cannot
# have written for the rest of its report.
@pytest.mark.parametrize("report, path, value", [
    ("audit_demo/out/reports/TENANT_05/2025-06.json",
     "summary.scopes.scope1.emissions", 12345.0),
    ("audit_demo/out/reports/TENANT_05/2025-06.json", "offsets.netEmissions", -1.0),
    ("audit_demo/out/reports/TENANT_05/2025-06.json", "equivalencies.carKm", 1.0),
    ("audit_demo/out/reports/TENANT_05/2025-06.json", "offsets.overOffset", True),
    ("reports_demo/TENANT_01/2025-06.json", "summary.history[0].pctChange", 1.0),
])
def test_tampered_derived_only_field_refused(report, path, value):
    doc = json.loads((GOLDEN / report).read_bytes())
    footprint_from_json(doc)
    *parents, key = re.findall(r"\w+", path)
    holder = doc
    for part in parents:
        holder = holder[int(part) if part.isdigit() else part]
    assert holder[key] != value
    holder[key] = value
    with pytest.raises(ReportError, match=(
            f"^malformed report JSON: {re.escape(path)}: stored .*, but the "
            "report's other figures give ")):
        footprint_from_json(doc)


# The records a footprint is made of; anything else in them is a value.
RECORDS = (Footprint, DcFootprint, ResponsibilityRatio, HistoryEntry, DeviceShare,
           Period)
# Whole-number fields; every other value that is not text is a figure.
COUNTS = {"agent_count", "bytes_sent", "bytes_received", "year", "month"}


def values(record, name=""):
    """Every (field name, value) held by ``record``, through the fields of
    :data:`RECORDS` and through tuples, lists and dicts."""
    if isinstance(record, RECORDS):
        members = [(f, getattr(record, f)) for f in (
            record._fields if isinstance(record, tuple) else
            [f.name for f in dataclasses.fields(record)])]
    elif isinstance(record, (tuple, list, dict)):
        members = [(name, member) for member in
                   (record.values() if isinstance(record, dict) else record)]
    else:
        return [(name, record)]
    return [found for key, member in members for found in values(member, key)]


def test_every_figure_is_a_built_in_float(tmp_path, factors):
    fleet = generate_fleet(seed=3, n_tenants=3, n_dcs=2)
    footprints = compute_footprints(fleet.raw, fleet.models)
    assert footprints[0].period == Period(2025, 1)
    store = HistoryStore(tmp_path)
    for fp in footprints:
        store.save(fp.tenant_id, fp.period, render_json(fp, factors).content)
    # The same figures a month later, with this month read back as history.
    later = [dataclasses.replace(fp, period=Period(2025, 2), history=(
        store.prior_entries(fp.tenant_id, Period(2025, 2)))) for fp in footprints]
    reread = [footprint_from_json(render_json(fp, factors).content) for fp in later]
    found = [(name, value) for name, value in
             values(footprints) + values(later) + values(reread)
             if type(value) is not str]
    assert {name for name, _ in found} >= COUNTS | {
        "grid_intensity", "ratio", "scope2", "gross_total", "gross", "energy_wh"}
    for name, value in found:
        assert type(value) is (int if name in COUNTS else float), (name, value)


class TestFactors:
    def test_load_valid_file(self, tmp_path):
        path = tmp_path / "eq.json"
        path.write_text(json.dumps({
            "flight_ams_nyc_g": 500000, "car_km_g": 250,
            "smartphone_charge_g": 8.22, "source_note": "public factors",
        }), encoding="utf-8")
        factors = load_equivalency_factors(path)
        assert factors.flight_ams_nyc == 500000.0
        assert factors.source_note == "public factors"

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "eq.json"
        path.write_text('{"flight_ams_nyc_g": 500000}', encoding="utf-8")
        with pytest.raises(ReportError):
            load_equivalency_factors(path)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(Exception):
            EquivalencyFactors(0.0, 250.0, 8.22, "note")

    def test_factors_embedded_and_recoverable(self, fixture_doc, factors):
        assert factors_from_json(fixture_doc.content) == factors


class TestEquivalencies:
    def test_simple_division(self, factors):
        got = compute_equivalencies(1800000.0, factors)
        assert got["flights"] == 3.6
        assert got["car_km"] == 7200.0
        assert math.isclose(got["charges"], 1800000.0 / 8.22, rel_tol=1e-12)

    def test_zero_gross(self, factors):
        got = compute_equivalencies(0.0, factors)
        assert got == {"flights": 0.0, "car_km": 0.0, "charges": 0.0}


class TestTrend:
    def test_pct_change_against_prior(self, fixture_footprint):
        from carbonalloc.allocation import HistoryEntry
        history = (HistoryEntry(Period(2025, 5), 2000000.0, 2000000.0),)
        fp = dataclasses.replace(fixture_footprint, history=history)
        (delta,) = compute_trend(fp)
        assert delta.pct_change == pytest.approx(-10.0)

    def test_zero_prior_yields_no_percentage(self, fixture_footprint):
        from carbonalloc.allocation import HistoryEntry
        history = (HistoryEntry(Period(2025, 5), 0.0, 0.0),)
        fp = dataclasses.replace(fixture_footprint, history=history)
        (delta,) = compute_trend(fp)
        assert delta.pct_change is None

    def test_no_history_no_deltas(self, fixture_footprint):
        assert compute_trend(fixture_footprint) == []


def attach_history(fp, months_and_gross):
    from carbonalloc.allocation import HistoryEntry
    entries = tuple(HistoryEntry(Period(2025, m), g, g)
                    for m, g in months_and_gross)
    return dataclasses.replace(fp, history=entries)


class TestRenderOnepage:
    def test_five_sections_in_order(self, fixture_footprint, factors):
        html = render_onepage(fixture_footprint, factors).content.decode("utf-8")
        positions = [html.index(f'id="{section}"') for section in
                     ("summary", "equivalencies", "scope-breakdown", "offsets",
                      "methodology")]
        assert positions == sorted(positions)

    def test_two_pie_charts(self, fixture_footprint, factors):
        html = render_onepage(fixture_footprint, factors).content.decode("utf-8")
        assert html.count("<svg") == 2
        assert 'id="scope-pie"' in html and 'id="offset-pie"' in html

    def test_page_geometry_is_fixed(self, fixture_footprint, factors):
        html = render_onepage(fixture_footprint, factors).content.decode("utf-8")
        assert "@page" in html and "size: A4" in html
        assert "overflow: hidden" in html

    def test_self_contained_document(self, fixture_footprint, factors):
        html = render_onepage(fixture_footprint, factors).content.decode("utf-8")
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html
        assert html.lstrip().startswith("<!DOCTYPE html>")

    def test_summary_figures_and_per_agent(self, fixture_footprint, factors):
        html = render_onepage(fixture_footprint, factors).content.decode("utf-8")
        assert 'id="per-agent"' in html
        assert "7.2 kg CO₂e" in html  # 7200 g per agent
        assert "1.80 t CO₂e" in html  # 1800000 g gross
        assert "Fictitious Co" in html
        assert "2025-06" in html

    def test_trend_badge_improving(self, fixture_footprint, factors):
        fp = attach_history(fixture_footprint, [(5, 2000000.0)])  # -10%
        html = render_onepage(fp, factors).content.decode("utf-8")
        assert 'class="badge improving"' in html
        assert "2025-05" in html

    def test_trend_badge_worsening(self, fixture_footprint, factors):
        fp = attach_history(fixture_footprint, [(5, 1500000.0)])  # +20%
        html = render_onepage(fp, factors).content.decode("utf-8")
        assert 'class="badge worsening"' in html

    def test_trend_badge_flat_inside_thresholds(self, fixture_footprint, factors):
        fp = attach_history(fixture_footprint, [(5, 1790000.0)])  # ~+0.6%
        html = render_onepage(fp, factors).content.decode("utf-8")
        assert 'class="badge flat"' in html

    def test_custom_thresholds_change_badge(self, fixture_footprint, factors):
        fp = attach_history(fixture_footprint, [(5, 2000000.0)])  # -10%
        html = render_onepage(fp, factors,
                              trend_thresholds=(15.0, 5.0)).content.decode("utf-8")
        assert 'class="badge flat"' in html

    def test_two_months_of_trend_rows(self, fixture_footprint, factors):
        fp = attach_history(fixture_footprint, [(5, 2000000.0), (4, 2200000.0)])
        html = render_onepage(fp, factors).content.decode("utf-8")
        assert "2025-05" in html and "2025-04" in html

    def test_methodology_lists_every_datacenter(self, factors):
        fleet = generate_fleet(seed=21, n_tenants=4, n_dcs=3)
        fp = compute_footprints(fleet.raw, fleet.models)[0]
        html = render_onepage(fp, factors).content.decode("utf-8")
        footer = html[html.index('id="methodology"'):]
        for dc_id in fp.per_dc:
            assert dc_id.datacenter_id in footer
        assert factors.source_note in html

    def test_offset_pie_handles_no_offsets(self, fixture_footprint, factors):
        html = render_onepage(fixture_footprint, factors).content.decode("utf-8")
        offset_chart = html[html.index('id="offset-pie"'):]
        offset_chart = offset_chart[:offset_chart.index("</svg>")]
        assert "<circle" in offset_chart  # single slice drawn as full circle

    def test_over_offset_notice(self, factors):
        fleet = generate_fleet(seed=3, n_tenants=3, n_dcs=2)
        raw = fleet.raw
        bumped = {dc_id: dataclasses.replace(dc, rec_offset=1e12)
                  for dc_id, dc in raw.datacenters.items()}
        raw2 = dataclasses.replace(raw, datacenters=bumped)
        fp = compute_footprints(raw2, fleet.models)[0]
        assert fp.net_total < 0
        html = render_onepage(fp, factors).content.decode("utf-8")
        assert "Offsets exceed gross emissions" in html

    def test_scope_pie_has_six_legend_entries(self, factors):
        fleet = generate_fleet(seed=15, n_tenants=3, n_dcs=2)
        fps = compute_footprints(fleet.raw, fleet.models)
        fp = next(f for f in fps
                  if any(dc.scope1 > 0 for dc in f.per_dc))
        html = render_onepage(fp, factors).content.decode("utf-8")
        section = html[html.index('id="scope-breakdown"'):html.index('id="offsets"')]
        for label in ("Scope 1", "Scope 2: servers", "Scope 2: network",
                      "Scope 2: cooling", "Scope 2: other", "Scope 3"):
            assert label in section


class TestHistoryStore:
    def test_save_then_load(self, tmp_path, fixture_doc):
        store = HistoryStore(tmp_path)
        store.save("TENANT_X", Period(2025, 6), fixture_doc.content)
        entry = store.load_entry("TENANT_X", Period(2025, 6))
        assert entry is not None
        assert entry.gross == 1800000.0
        assert (tmp_path / "TENANT_X" / "2025-06.json").exists()

    def test_missing_entry_is_none(self, tmp_path):
        store = HistoryStore(tmp_path)
        assert store.load_entry("TENANT_X", Period(2025, 6)) is None

    def test_corrupt_entry_skipped_with_warning(self, tmp_path, caplog):
        store = HistoryStore(tmp_path)
        path = tmp_path / "TENANT_X" / "2025-05.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        import logging
        with caplog.at_level(logging.WARNING, logger="carbonalloc.history"):
            assert store.load_entry("TENANT_X", Period(2025, 5)) is None
        assert any("2025-05" in rec.message for rec in caplog.records)

    def test_duplicate_key_entry_skipped_with_warning(self, tmp_path, caplog,
                                                      fixture_doc):
        store = HistoryStore(tmp_path)
        text = fixture_doc.content.decode("utf-8")
        store.save("TENANT_X", Period(2025, 5), text.replace(
            '"summary": {\n', '"summary": {\n    "grossEmissions": 1.0,\n',
            1).encode("utf-8"))
        import logging
        with caplog.at_level(logging.WARNING, logger="carbonalloc.history"):
            assert store.load_entry("TENANT_X", Period(2025, 5)) is None
        assert any("grossEmissions" in rec.getMessage() for rec in caplog.records)

    @pytest.mark.parametrize("figure", ['"123"', '"1e3"', "true", "null",
                                        "1" + "0" * 400])
    @pytest.mark.parametrize("field", ["grossEmissions", "netEmissions"])
    def test_non_number_figure_skipped_with_warning(self, tmp_path, caplog,
                                                     fixture_doc, field, figure):
        doc = json.loads(fixture_doc.content)
        head, summary = fixture_doc.content.decode("utf-8").split('"summary": {', 1)
        stored = f'"{field}": {doc["summary"][field]!r},'
        assert stored in summary
        store = HistoryStore(tmp_path)
        store.save("TENANT_X", Period(2025, 6), (
            head + '"summary": {'
            + summary.replace(stored, f'"{field}": {figure},', 1)).encode("utf-8"))
        import logging
        with caplog.at_level(logging.WARNING, logger="carbonalloc.history"):
            assert store.load_entry("TENANT_X", Period(2025, 6)) is None
        assert any("unreadable history file" in rec.getMessage()
                   for rec in caplog.records)

    # The fixture is TENANT_X's 2025-06 report, stored under another tenant's
    # or another month's path.
    @pytest.mark.parametrize("tenant_id, period", [
        ("TENANT_Y", Period(2025, 6)), ("TENANT_X", Period(2025, 5))],
        ids=["tenant", "period"])
    def test_report_of_another_tenant_or_month_skipped(
            self, tmp_path, caplog, fixture_doc, tenant_id, period):
        store = HistoryStore(tmp_path)
        store.save(tenant_id, period, fixture_doc.content)
        import logging
        with caplog.at_level(logging.WARNING, logger="carbonalloc.history"):
            assert store.load_entry(tenant_id, period) is None
        assert any("unreadable history file" in rec.getMessage()
                   and "tenant 'TENANT_X' for period '2025-06'" in rec.getMessage()
                   for rec in caplog.records)

    def test_prior_entries_limit_two(self, tmp_path, fixture_footprint,
                                     factors):
        store = HistoryStore(tmp_path)
        for month in (2, 3, 4, 5):
            store.save("TENANT_X", Period(2025, month),
                       stored_for(fixture_footprint, factors, Period(2025, month)))
        entries = store.prior_entries("TENANT_X", Period(2025, 6))
        assert [str(e.period) for e in entries] == ["2025-05", "2025-04"]

    def test_lookback_stops_at_earliest_period(self, tmp_path, fixture_footprint,
                                               factors):
        store = HistoryStore(tmp_path)
        assert store.prior_entries("TENANT_X", Period(1, 1)) == ()
        store.save("TENANT_X", Period(1, 1),
                   stored_for(fixture_footprint, factors, Period(1, 1)))
        entries = store.prior_entries("TENANT_X", Period(1, 2))
        assert [str(e.period) for e in entries] == ["0001-01"]
