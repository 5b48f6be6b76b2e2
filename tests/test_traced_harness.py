"""The benchmark's trace harness still finds and counts what it wraps.

``perfbench/traced.py`` patches the public function of each layer by
identity wherever the package binds it. A renamed or unbound function would
make ``--trace 1`` fail or silently report zero for its layer, so one test
loads the harness from its path and checks that every wrapped function was
found and patched. Two more run it as the benchmark does, on a small fleet,
one over ``compute`` and one over ``audit``, and check the counts
performance claims rest on against the engine.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from carbonalloc import allocation, cli, history, ingest, power, report
from carbonalloc.units import Period
from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]

TRACED = ROOT / "perfbench" / "traced.py"

WRAPPED = (
    ingest.load_input_dir,
    power.read_models,
    power.estimate_server_energy,
    power.estimate_network_energy,
    allocation.compute_scope2,
    allocation.compute_responsibility_ratios,
    allocation.compute_footprints,
    allocation.conservation_audit,
    report.render_json,
    report.render_onepage,
    cli.main,
)


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_every_wrapped_function():
    traced = load_traced()
    store_methods = {attr: getattr(history.HistoryStore, attr)
                     for attr in ("prior_entries", "save", "load_entry")}
    patched = traced.install(traced.Tracer())
    try:
        originals = [original for _, _, original in patched]
        for fn in WRAPPED:
            assert any(original is fn for original in originals), fn.__qualname__
        for attr, method in store_methods.items():
            assert any(owner is history.HistoryStore and name == attr
                       and original is method for owner, name, original in patched)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        traced.uninstall(patched)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    fleet = tmp_path_factory.mktemp("fleet")
    assert cli.main(["synth", "--seed", "42", "--tenants", "3", "--dcs", "2",
                     "--out-dir", str(fleet)]) == 0
    return fleet


def compute_args(fleet: Path, out: Path) -> list[str]:
    return ["compute", "--period", "2025-06", "--input-dir", str(fleet),
            "--models", str(fleet / "models.csv"),
            "--equivalencies", str(ROOT / "configs" / "equivalencies.sample.json"),
            "--out-dir", str(out)]


def run_traced(tmp_path: Path, roundtrip: Path, cli_args: list[str]) -> dict:
    """Run the harness as the benchmark does; its result JSON."""
    result = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(result), str(roundtrip), "--", *cli_args],
        capture_output=True, text=True, timeout=120, env=src_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text(encoding="utf-8"))


def test_traced_compute_counts_match_the_engine(tmp_path, fleet):
    out = tmp_path / "out"
    traced = run_traced(tmp_path, out / "reports", compute_args(fleet, out))
    metrics = traced["metrics"]

    raw = ingest.load_input_dir(fleet, Period(2025, 6))
    models = power.read_models(fleet / "models.csv")
    assert metrics["allocation.pairs"] == len(
        allocation.fleet_totals(raw, models).pairs) > 0
    assert metrics["allocation.device_shares"] == sum(
        len(dc.devices) for fp in allocation.compute_footprints(raw, models)
        for dc in fp.per_dc) > 0
    # Rows that a refactor could leave unwrapped, and so silently zero.
    assert metrics["allocation.compute_scope2_s"] > 0
    assert metrics["allocation.responsibility_ratios_s"] > 0
    assert traced["roundtrip_reports"] == 3
    assert metrics["report.roundtrip_mismatches"] == 0


def test_traced_audit_counts_the_audited_tenants_pairs(tmp_path, fleet):
    """``audit`` runs the same phase 2 as ``compute``, for one tenant, so the
    harness times its stages and counts only that tenant's pairs."""
    out = tmp_path / "out"
    assert cli.main(compute_args(fleet, out)) == 0
    report = out / "reports" / "TENANT_02" / "2025-06.json"
    traced = run_traced(tmp_path, report, [
        "audit", "--report", str(report), "--input-dir", str(fleet),
        "--models", str(fleet / "models.csv"),
        "--history-dir", str(out / "history")])
    metrics = traced["metrics"]

    raw = ingest.load_input_dir(fleet, Period(2025, 6))
    assert metrics["allocation.pairs"] == len(
        raw.tenants["TENANT_02"].datacenter_ids) > 0
    assert metrics["allocation.compute_scope2_s"] > 0
    assert metrics["allocation.responsibility_ratios_s"] > 0
    assert traced["roundtrip_reports"] == 1
    assert metrics["report.roundtrip_mismatches"] == 0
