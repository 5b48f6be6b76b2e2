"""Shared fixtures: an exactness-friendly single-tenant fleet and factors.

The "fictitious tenant" fleet is engineered so every figure in the pipeline
is exactly representable in binary floating point: an intercept-only server
model yielding 100000 Wh, a network device at 120000 Wh, and shared devices
sized so the Scope 2 energy total lands on 4500000 Wh, which at 0.4 g/Wh is
exactly 1800000 g.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from carbonalloc.ingest import (
    DataCenter,
    NetworkUsage,
    RawData,
    ServerUsage,
    SharedDevice,
    Tenant,
    assemble_raw_data,
)
from carbonalloc.power import ServerPowerModel
from carbonalloc.report import EquivalencyFactors
from carbonalloc.units import Period

FIXTURE_PERIOD = Period(2025, 6)

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env() -> dict[str, str]:
    """The environment with ``src/`` on PYTHONPATH, for child interpreters.

    PYTHONUNBUFFERED is dropped, so a child buffers standard output as it
    would under a user's shell, and a lost final flush shows.
    """
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def intercept_model(name: str, wh: float) -> ServerPowerModel:
    """A degenerate model that estimates a constant energy for any usage."""
    return ServerPowerModel(device_model=name, intercept=wh, w_cpu=0.0,
                            w_cache=0.0, w_dram=0.0, w_disk=0.0, adjusted_r2=1.0)


def scale_fleet(raw: RawData, models: dict[str, ServerPowerModel],
                k: float) -> tuple[RawData, dict[str, ServerPowerModel]]:
    """``raw`` and ``models`` with every device energy times ``k``: each
    model's intercept and weights, each byte counter (kept an int) and each
    metered cooling and other energy. Grid intensities are unchanged. With
    ``k = 2`` every scaled figure is exactly twice the old one."""
    def scaled(devices):
        return tuple(d._replace(energy=d.energy * k) for d in devices)

    scaled_raw = raw._replace(
        network=tuple(r._replace(bytes_sent=int(r.bytes_sent * k),
                                 bytes_received=int(r.bytes_received * k))
                      for r in raw.network),
        datacenters={dc_id: dc._replace(cooling_devices=scaled(dc.cooling_devices),
                                        other_devices=scaled(dc.other_devices))
                     for dc_id, dc in raw.datacenters.items()})
    scaled_models = {name: m._replace(
        intercept=m.intercept * k, w_cpu=m.w_cpu * k, w_cache=m.w_cache * k,
        w_dram=m.w_dram * k, w_disk=m.w_disk * k) for name, m in models.items()}
    return scaled_raw, scaled_models


@pytest.fixture
def fictitious_models() -> dict[str, ServerPowerModel]:
    return {"ABC_987": intercept_model("ABC_987", 100000.0)}


@pytest.fixture
def fictitious_raw() -> RawData:
    """One tenant, one data center, Scope 2 energy total exactly 4500000 Wh."""
    dc = DataCenter(
        datacenter_id="DC_EU1",
        name="Amsterdam South",
        region="eu-west",
        grid_intensity=0.4,
        cooling_devices=(SharedDevice("CRAC_1", 4000000.0),),
        other_devices=(SharedDevice("PDU_1", 280000.0),),
        fuel_log=(),
    )
    tenant = Tenant(
        tenant_id="TENANT_X",
        display_name="Fictitious Co",
        agent_count=250,
        datacenter_ids=("DC_EU1",),
        l_share=1.0,
    )
    servers = (ServerUsage(
        datacenter_id="DC_EU1", device_id="SERVER_1234", device_model="ABC_987",
        tenant_id="TENANT_X", cpu_utilization=0.10, cache_moved=2e7,
        dram_accessed=5e9, disk_moved=2e10,
    ),)
    network = (NetworkUsage(
        datacenter_id="DC_EU1", device_id="NETWORK_DEVICE_1234",
        device_type="router", tenant_id="TENANT_X",
        bytes_sent=10**12, bytes_received=10**12,
    ),)
    return assemble_raw_data(
        period=FIXTURE_PERIOD,
        datacenters={"DC_EU1": dc},
        tenants={"TENANT_X": tenant},
        servers=servers,
        network=network,
    )


@pytest.fixture
def factors() -> EquivalencyFactors:
    return EquivalencyFactors(
        flight_ams_nyc=500000.0,
        car_km=250.0,
        smartphone_charge=8.22,
        source_note="fixture factors for tests only",
    )
