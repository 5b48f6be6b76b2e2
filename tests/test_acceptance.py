"""Acceptance criteria for the allocation pipeline.

Each test covers one release criterion and prints a single
``ACCEPTANCE <name>: PASS|FAIL`` line outside pytest's capture so the
verdicts always reach the terminal. Tolerances are pinned here, next to
the checks that use them.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import subprocess
import sys
import time

import pytest

from carbonalloc import reference
from carbonalloc.allocation import HistoryEntry, compute_footprints
from carbonalloc.ingest import NetworkUsage
from carbonalloc.power import (
    CalibrationSample,
    estimate_network_energy,
    fit_server_weights,
)
from carbonalloc.report import footprint_from_json, render_json, render_onepage
from carbonalloc.synth import generate_fleet
from carbonalloc.units import Period
from conftest import scale_fleet, src_env

REL_TOL_CONSERVATION = 1e-9   # residual bound for all conservation sums
REL_TOL_WEIGHTS = 1e-6        # OLS weight recovery
ABS_TOL_R2 = 1e-9             # adjusted R-squared distance from 1.0
REL_TOL_SCALE = 1e-12         # scale-invariance of shares and ratios
CONSERVATION_BUDGET_S = 10.0
OLS_BUDGET_S = 1.0
E2E_BUDGET_S = 5.0


@pytest.fixture
def criterion(capfd):
    """Context manager that prints the criterion verdict on the real stdout."""
    @contextlib.contextmanager
    def _criterion(name: str):
        def announce(verdict: str) -> None:
            with capfd.disabled():
                print(f"\nACCEPTANCE {name}: {verdict}", flush=True)
        try:
            yield
        except BaseException:
            announce("FAIL")
            raise
        announce("PASS")
    return _criterion


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def test_network_energy_exactness(criterion):
    """One terabyte each way estimates to exactly 120000 Wh, no rounding."""
    with criterion("network_energy_exactness"):
        row = NetworkUsage(datacenter_id="DC_EU1",
                           device_id="NETWORK_DEVICE_1234",
                           device_type="router", tenant_id="TENANT_X",
                           bytes_sent=10**12, bytes_received=10**12)
        assert estimate_network_energy(row) == 120000.0


def test_intensity_consistency(criterion, fictitious_raw, fictitious_models):
    """At 0.4 g/Wh and full load share the published example figures are exact."""
    with criterion("intensity_consistency"):
        c = 0.4
        assert 100000.0 * c == 40000.0
        assert 4500000.0 * c == 1800000.0
        # The same figures through the full pipeline, not just the product.
        (fp,) = compute_footprints(fictitious_raw, fictitious_models)
        (dc,) = fp.per_dc
        server = next(d for d in dc.devices if d.device_id == "SERVER_1234")
        assert server.energy_wh == 100000.0
        assert server.emissions_g == 40000.0
        energy = dc.component_energy
        assert (energy["server"] + energy["network"] + energy["cooling"]
                + energy["other"]) == 4500000.0
        assert dc.scope2 == 1800000.0


def test_conservation_suite(criterion):
    """100 randomized fleets: shares sum to 1 and nothing is lost or invented."""
    with criterion("conservation_suite"):
        master = random.Random(20250814)
        started = time.perf_counter()
        for _ in range(100):
            fleet = generate_fleet(
                seed=master.randrange(2**32),
                n_tenants=master.randint(2, 50),
                n_dcs=master.randint(1, 5),
                l_share=1.0,
            )
            raw, models = fleet.raw, fleet.models
            footprints = compute_footprints(raw, models)
            got: dict[str, dict[str, float]] = {
                dc_id: {"share": 0.0, "cooling": 0.0, "other": 0.0, "gross": 0.0}
                for dc_id in raw.datacenters
            }
            for fp in footprints:
                for dc in fp.per_dc:
                    bucket = got[dc.datacenter_id]
                    bucket["share"] += dc.scope2_share
                    bucket["cooling"] += dc.component_energy["cooling"]
                    bucket["other"] += dc.component_energy["other"]
                    bucket["gross"] += dc.gross
            # At full load shares each data center's whole footprint is
            # attributed: its Scope 2 shares sum to one, and its metered shared
            # energy and its fuel, Scope 2 and Scope 3 emissions add back up.
            for dc_id, dc in reference.expected_figures(raw, models).items():
                expected = {"share": 1.0 if dc.pairs else 0.0,
                            "cooling": dc.cooling, "other": dc.other,
                            "gross": (dc.fuel + dc.scope2
                                      + raw.datacenters[dc_id].scope3_total)}
                for key, value in expected.items():
                    assert rel_close(got[dc_id][key], value, REL_TOL_CONSERVATION), \
                        f"{key} in {dc_id}: {got[dc_id][key]} vs {value}"
        elapsed = time.perf_counter() - started
        assert elapsed < CONSERVATION_BUDGET_S, f"took {elapsed:.2f}s"


def test_ols_recovery(criterion):
    """Noiseless samples recover the generating weights with unit fit quality."""
    with criterion("ols_recovery"):
        true = (10.0, 500.0, 1e-6, 2e-9, 5e-10)
        rng = random.Random(4242)
        samples = []
        for _ in range(50):
            u = rng.uniform(0.0, 1.0)
            cache = rng.uniform(0.0, 5e7)
            dram = rng.uniform(0.0, 1e10)
            disk = rng.uniform(0.0, 5e10)
            energy = (true[0] + true[1] * u + true[2] * cache
                      + true[3] * dram + true[4] * disk)
            samples.append(CalibrationSample(u, cache, dram, disk,
                                             energy))
        started = time.perf_counter()
        model = fit_server_weights(samples, device_model="ABC_987")
        elapsed = time.perf_counter() - started
        fitted = (model.intercept, model.w_cpu, model.w_cache, model.w_dram,
                  model.w_disk)
        for got, want in zip(fitted, true):
            assert math.isclose(got, want, rel_tol=REL_TOL_WEIGHTS), \
                f"{got} vs {want}"
        assert abs(model.adjusted_r2 - 1.0) <= ABS_TOL_R2
        assert elapsed < OLS_BUDGET_S, f"took {elapsed:.3f}s"


def test_scale_invariance(criterion):
    """Scaling all energies by k leaves every share and ratio unchanged."""
    with criterion("scale_invariance"):
        fleet = generate_fleet(seed=314, n_tenants=12, n_dcs=4, l_share=0.75)
        raw, models = fleet.raw, fleet.models
        # Even byte counters keep the k=0.5 case free of integer truncation.
        assert all(row.bytes_sent % 2 == 0 and row.bytes_received % 2 == 0
                   for row in raw.network)
        def shares_and_ratios(raw, models):
            return {(fp.tenant_id, dc.datacenter_id): (dc.scope2_share, dc.ratio)
                    for fp in compute_footprints(raw, models) for dc in fp.per_dc}

        baseline = shares_and_ratios(raw, models)
        for k in (0.5, 3.0, 10.0):
            scaled = shares_and_ratios(*scale_fleet(raw, models, k))
            assert scaled.keys() == baseline.keys()
            for key, (share, ratio) in scaled.items():
                share0, ratio0 = baseline[key]
                assert math.isclose(share, share0,
                                    rel_tol=REL_TOL_SCALE, abs_tol=1e-15), \
                    f"k={k}: share {share} vs {share0}"
                assert math.isclose(ratio, ratio0,
                                    rel_tol=REL_TOL_SCALE, abs_tol=1e-15), \
                    f"k={k}: ratio {ratio} vs {ratio0}"


def test_offset_monotonicity(criterion):
    """Offsets never raise a footprint; absent offsets leave it untouched."""
    with criterion("offset_monotonicity"):
        master = random.Random(60946)
        for _ in range(20):
            fleet = generate_fleet(seed=master.randrange(2**32),
                                   n_tenants=master.randint(2, 12),
                                   n_dcs=master.randint(1, 4),
                                   with_offsets=True)
            for fp in compute_footprints(fleet.raw, fleet.models):
                assert fp.net_total <= fp.gross_total
                for dc in fp.per_dc:
                    assert dc.green_offset >= 0.0
                    assert dc.rec_offset >= 0.0
                    assert dc.net <= dc.gross
        for _ in range(10):
            fleet = generate_fleet(seed=master.randrange(2**32),
                                   n_tenants=master.randint(2, 12),
                                   n_dcs=master.randint(1, 4),
                                   with_offsets=False)
            for fp in compute_footprints(fleet.raw, fleet.models):
                assert fp.net_total == fp.gross_total
                for dc in fp.per_dc:
                    assert dc.net == dc.gross


def test_json_fidelity(criterion, fictitious_raw, fictitious_models, factors):
    """Reports re-render byte-identically and keep the interchange field names."""
    with criterion("json_fidelity"):
        footprints = [compute_footprints(fictitious_raw, fictitious_models)[0]]
        fleet = generate_fleet(seed=2718, n_tenants=6, n_dcs=3)
        footprints.extend(compute_footprints(fleet.raw, fleet.models))
        for fp in footprints:
            rendered = render_json(fp, factors)
            again = render_json(footprint_from_json(rendered.content), factors)
            assert rendered.content == again.content
        text = render_json(footprints[0], factors).content.decode("utf-8")
        for field in ("isAggregate", "cacheMoved", "dramAccessed", "diskMoved",
                      "bytesSent", "bytesReceived", "deviceModel", "deviceType"):
            assert f'"{field}"' in text, field


def test_end_to_end_audit(criterion, tmp_path):
    """CLI round trip: compute then audit passes; one edited number fails."""
    with criterion("end_to_end_audit"):
        started = time.perf_counter()

        def cli(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-m", "carbonalloc.cli", *args],
                capture_output=True, text=True, timeout=60, env=src_env())

        fleet_dir = tmp_path / "fleet"
        out_dir = tmp_path / "out"
        factors_file = tmp_path / "equivalencies.json"
        factors_file.write_text(json.dumps({
            "flight_ams_nyc_g": 500000, "car_km_g": 250,
            "smartphone_charge_g": 8.22, "source_note": "test factors",
        }), encoding="utf-8")

        synth = cli("synth", "--seed", "42", "--tenants", "5", "--dcs", "3",
                    "--out-dir", str(fleet_dir))
        assert synth.returncode == 0, synth.stderr
        compute = cli("compute", "--period", "2025-06",
                      "--input-dir", str(fleet_dir),
                      "--models", str(fleet_dir / "models.csv"),
                      "--equivalencies", str(factors_file),
                      "--out-dir", str(out_dir))
        assert compute.returncode == 0, compute.stderr

        report = out_dir / "reports" / "TENANT_01" / "2025-06.json"
        audit_args = ("audit", "--report", str(report),
                      "--input-dir", str(fleet_dir),
                      "--models", str(fleet_dir / "models.csv"),
                      "--history-dir", str(out_dir / "history"))
        clean = cli(*audit_args)
        assert clean.returncode == 0, clean.stdout + clean.stderr

        # A corrupt prior month only drops the trend, which this report
        # never had, and its warning reaches standard error.
        corrupt = out_dir / "history" / "TENANT_01" / "2025-05.json"
        corrupt.write_text("{not json", encoding="utf-8")
        warned = cli(*audit_args)
        assert warned.returncode == 0, warned.stdout + warned.stderr
        assert warned.stdout == clean.stdout
        assert warned.stderr.startswith(f"unreadable history file {corrupt}: ")

        doc = json.loads(report.read_text(encoding="utf-8"))
        doc["summary"]["grossEmissions"] = doc["summary"]["grossEmissions"] * 1.001
        report.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        tampered = cli(*audit_args)
        assert tampered.returncode == 3, tampered.stdout + tampered.stderr
        assert "summary.grossEmissions" in tampered.stdout + tampered.stderr

        elapsed = time.perf_counter() - started
        assert elapsed < E2E_BUDGET_S, f"took {elapsed:.2f}s"


def test_onepage_structure(criterion, fictitious_raw, fictitious_models, factors):
    """The HTML report has the five sections in a fixed one-page frame."""
    with criterion("onepage_structure"):
        (fp,) = compute_footprints(fictitious_raw, fictitious_models)
        fp = fp._replace(history=(
            HistoryEntry(Period(2025, 5), 2000000.0, 2000000.0),
            HistoryEntry(Period(2025, 4), 2200000.0, 2200000.0),
        ))
        html = render_onepage(fp, factors).content.decode("utf-8")

        positions = [html.index(f'id="{section}"') for section in
                     ("summary", "equivalencies", "scope-breakdown", "offsets",
                      "methodology")]
        assert positions == sorted(positions)

        assert 'id="per-agent"' in html
        assert 'id="trend"' in html
        assert "2025-05" in html and "2025-04" in html  # two months of trend
        assert html.count("<svg") == 2
        assert 'id="scope-pie"' in html and 'id="offset-pie"' in html
        section = html[html.index('id="scope-breakdown"'):
                       html.index('id="offsets"')]
        for label in ("Scope 1", "Scope 2: servers", "Scope 2: network",
                      "Scope 2: cooling", "Scope 2: other", "Scope 3"):
            assert label in section
        footer = html[html.index('id="methodology"'):]
        assert "DC_EU1" in footer and "0.4 g/Wh" in footer

        # Fixed A4 content box with hidden overflow: the layout cannot spill
        # onto a second printed page.
        assert "@page" in html and "size: A4" in html
        assert "width: 190mm" in html and "height: 277mm" in html
        assert "overflow: hidden" in html


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
