"""A fault in the engine makes ``compute`` fail its conservation audit.

Each mutation replaces, in process, a function ``carbonalloc.allocation``
binds, so the engine computes wrong figures while the reference the audit
checks them against stays as written. ``compute`` must then print the
failed checks, write nothing and exit 3.
"""

from pathlib import Path

import pytest

from carbonalloc import allocation
from carbonalloc.cli import EXIT_AUDIT_MISMATCH, EXIT_OK, main

FACTORS = Path(__file__).resolve().parents[1] / "configs" / "equivalencies.sample.json"


def _cpu_flipped(model):
    return model._replace(w_cpu=-model.w_cpu)


def _mutations():
    split = allocation.split_shared_wh
    server = allocation.server_energy_wh
    estimate = allocation.estimate_server_energy
    network = allocation.estimate_network_energy
    return {
        # Each pair's share of the cooling and other devices, bent away from
        # its direct-energy ratio.
        "shared-split": {"split_shared_wh": (
            lambda total, direct, all_direct, context="":
            split(total, direct, all_direct, context)
            * (direct / all_direct) ** -0.1)},
        # The CPU term's sign, in phase 1's and phase 2's server estimates.
        "cpu-sign": {
            "server_energy_wh": lambda model, usage: server(_cpu_flipped(model), usage),
            "estimate_server_energy": (
                lambda model, usage: estimate(_cpu_flipped(model), usage)),
        },
        "network-10x": {"estimate_network_energy": lambda row: 10 * network(row)},
    }


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    fleet = tmp_path_factory.mktemp("mutations") / "fleet"
    assert main(["synth", "--seed", "5", "--tenants", "4", "--dcs", "3",
                 "--l-share", "0.6", "--out-dir", str(fleet)]) == EXIT_OK
    return fleet


def run_compute(fleet, out_dir):
    return main(["compute", "--period", "2025-01", "--input-dir", str(fleet),
                 "--models", str(fleet / "models.csv"),
                 "--equivalencies", str(FACTORS), "--out-dir", str(out_dir)])


def test_unmutated_fleet_passes_the_audit(fleet, tmp_path, capsys):
    assert run_compute(fleet, tmp_path / "out") == EXIT_OK
    assert capsys.readouterr().out.startswith("conservation audit: PASS (18 checks, ")


@pytest.mark.parametrize("name", sorted(_mutations()))
def test_mutated_engine_fails_the_audit_and_writes_nothing(fleet, tmp_path,
                                                           monkeypatch, capsys, name):
    for attr, mutated in _mutations()[name].items():
        monkeypatch.setattr(allocation, attr, mutated)
    out_dir = tmp_path / "out"
    assert run_compute(fleet, out_dir) == EXIT_AUDIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.out.startswith("conservation audit: FAIL (18 checks, ")
    assert len(captured.out.splitlines()) == 1
    failed = [line for line in captured.err.splitlines()
              if line.startswith("  FAILED ")]
    assert failed[0].startswith("  FAILED scope2_share_sum in DC_01: ")
    assert captured.err.endswith("\nconservation audit failed; no reports written\n")
    assert not out_dir.exists()
