"""Deterministic synthetic fleet generation for tests and demos.

``generate_fleet`` builds a complete, valid input set (tenants, data centers,
usage rows, fitted power models) from a seed; the same seed always produces
the same fleet, and ``write_fleet`` serializes it to the CSV formats the
ingestion module reads, byte-identically across runs.

Byte counters are generated even so a fleet can be scaled by one half and
still have whole-number traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .ingest import (
    INPUT_FILE_NAMES,
    DataCenter,
    FuelEntry,
    NetworkUsage,
    RawData,
    ServerUsage,
    SharedDevice,
    Tenant,
    assemble_raw_data,
    format_table,
)
from .power import ServerPowerModel, _models_table
from .units import Period, check_share

__all__ = ["SynthFleet", "generate_fleet", "write_fleet", "MODELS_FILE_NAME"]

MODELS_FILE_NAME = "models.csv"

_REGIONS = ("eu-west", "us-east", "ap-south", "eu-north", "sa-east")


@dataclass(frozen=True)
class SynthFleet:
    """A generated input set plus the power models that go with it."""

    raw: RawData
    models: dict[str, ServerPowerModel]


def generate_fleet(seed: int,
                   n_tenants: int,
                   n_dcs: int,
                   period: Period = Period(2025, 1),
                   with_offsets: bool = True,
                   l_share: float = 1.0) -> SynthFleet:
    """Generate a valid fleet: every data center hosts at least one tenant,
    every (tenant, data center) pair has at least one server row.

    ``with_offsets=False`` zeroes fuel, Scope 3, and both offset columns,
    which makes net equal gross exactly.
    """
    if n_tenants < 1 or n_dcs < 1:
        raise ValueError("need at least one tenant and one data center")
    check_share(l_share)
    rng = random.Random(seed)

    model_names = ("MODEL_A", "MODEL_B", "MODEL_C")
    models = {
        name: ServerPowerModel(
            device_model=name,
            intercept=rng.uniform(20.0, 80.0),
            w_cpu=rng.uniform(100.0, 600.0),
            w_cache=rng.uniform(5e-7, 2e-6),
            w_dram=rng.uniform(1e-9, 4e-9),
            w_disk=rng.uniform(2e-10, 8e-10),
            adjusted_r2=1.0,
        )
        for name in model_names
    }

    dc_ids = [f"DC_{i:02d}" for i in range(1, n_dcs + 1)]
    datacenters: dict[str, DataCenter] = {}
    for i, dc_id in enumerate(dc_ids):
        cooling = tuple(
            SharedDevice(f"CRAC_{dc_id}_{j}", rng.uniform(5e4, 5e5))
            for j in range(1, rng.randint(1, 3) + 1)
        )
        other = tuple(
            SharedDevice(f"PDU_{dc_id}_{j}", rng.uniform(1e4, 1e5))
            for j in range(1, rng.randint(0, 2) + 1)
        )
        fuel: tuple[FuelEntry, ...] = ()
        scope3 = green = rec = 0.0
        if with_offsets:
            if rng.random() < 0.6:
                fuel = (FuelEntry(f"GEN_{dc_id}_1",
                                  rng.uniform(1e3, 5e4), rng.uniform(2.0, 3.0)),)
            scope3 = rng.uniform(0.0, 5e6)
            green = rng.uniform(0.0, 2e5)
            rec = rng.uniform(0.0, 1e5)
        datacenters[dc_id] = DataCenter(
            datacenter_id=dc_id,
            name=f"Synthetic DC {i + 1}",
            region=_REGIONS[i % len(_REGIONS)],
            grid_intensity=rng.uniform(0.2, 0.6),
            cooling_devices=cooling,
            other_devices=other,
            fuel_log=fuel,
            scope3_total=scope3,
            green_energy=green,
            rec_offset=rec,
        )

    tenant_ids = [f"TENANT_{i:02d}" for i in range(1, n_tenants + 1)]
    assignments: dict[str, list[str]] = {}
    for tenant_id in tenant_ids:
        count = rng.randint(1, n_dcs)
        assignments[tenant_id] = sorted(rng.sample(dc_ids, count))
    covered = {dc for dcs in assignments.values() for dc in dcs}
    for dc_id in dc_ids:
        if dc_id not in covered:
            lucky = rng.choice(tenant_ids)
            assignments[lucky] = sorted(set(assignments[lucky]) | {dc_id})

    tenants = {
        tenant_id: Tenant(
            tenant_id=tenant_id,
            display_name=f"Synthetic Tenant {i + 1}",
            agent_count=rng.randint(10, 5000),
            datacenter_ids=tuple(assignments[tenant_id]),
            l_share=l_share,
        )
        for i, tenant_id in enumerate(tenant_ids)
    }

    servers: list[ServerUsage] = []
    network: list[NetworkUsage] = []
    for tenant_id in tenant_ids:
        for dc_id in assignments[tenant_id]:
            for k in range(1, rng.randint(1, 3) + 1):
                servers.append(ServerUsage(
                    datacenter_id=dc_id,
                    device_id=f"SRV_{dc_id}_{tenant_id}_{k}",
                    device_model=rng.choice(model_names),
                    tenant_id=tenant_id,
                    cpu_utilization=rng.uniform(0.05, 0.95),
                    cache_moved=float(rng.randint(1_000_000, 50_000_000)),
                    dram_accessed=float(rng.randint(100_000_000, 8_000_000_000)),
                    disk_moved=float(rng.randint(1_000_000_000, 50_000_000_000)),
                ))
            # Network devices are per data center and shared: each tenant
            # pushes traffic through a subset of them. Byte counts are even.
            n_devices = rng.randint(0, 2)
            for j in sorted(rng.sample(range(1, 4), n_devices)):
                network.append(NetworkUsage(
                    datacenter_id=dc_id,
                    device_id=f"NET_{dc_id}_{j}",
                    device_type=rng.choice(("router", "switch", "firewall")),
                    tenant_id=tenant_id,
                    bytes_sent=rng.randint(1, 500_000_000_000) * 2,
                    bytes_received=rng.randint(1, 500_000_000_000) * 2,
                ))

    raw = assemble_raw_data(
        period=period,
        datacenters=datacenters,
        tenants=tenants,
        servers=tuple(servers),
        network=tuple(network),
    )
    return SynthFleet(raw=raw, models=models)


def _num(value: float) -> str:
    return repr(float(value))


def write_fleet(fleet: SynthFleet, out_dir: Path | str) -> list[Path]:
    """Write the fleet as the four input CSVs plus a models file.

    Output is deterministic: rows are ordered as generated (already sorted by
    tenant, then data center) and floats use shortest round-trip notation, so
    one seed always produces byte-identical files. Every file is formatted
    before the first is written, so a value the format refuses writes none.
    """
    raw = fleet.raw
    tables = {
        INPUT_FILE_NAMES["servers"]: (
            ("datacenter_id", "device_id", "device_model", "tenant_id",
             "cpu_utilization", "cache_moved", "dram_accessed", "disk_moved"),
            ([row.datacenter_id, row.device_id, row.device_model, row.tenant_id,
              _num(row.cpu_utilization), _num(row.cache_moved),
              _num(row.dram_accessed), _num(row.disk_moved)]
             for row in raw.servers)),
        INPUT_FILE_NAMES["network"]: (
            ("datacenter_id", "device_id", "device_type", "tenant_id",
             "bytes_sent", "bytes_received"),
            ([row.datacenter_id, row.device_id, row.device_type, row.tenant_id,
              str(row.bytes_sent), str(row.bytes_received)]
             for row in raw.network)),
        INPUT_FILE_NAMES["datacenters"]: (
            ("datacenter_id", "name", "region", "grid_intensity",
             "cooling_devices", "other_devices", "fuel_log", "scope3_total",
             "green_energy", "rec_offset"),
            ([dc.datacenter_id, dc.name, dc.region, _num(dc.grid_intensity),
              ";".join(f"{d.device_id}:{_num(d.energy)}"
                       for d in dc.cooling_devices),
              ";".join(f"{d.device_id}:{_num(d.energy)}"
                       for d in dc.other_devices),
              ";".join(f"{f.device_id}:{_num(f.amount)}:{_num(f.emission_factor)}"
                       for f in dc.fuel_log),
              _num(dc.scope3_total), _num(dc.green_energy),
              _num(dc.rec_offset)]
             for _, dc in sorted(raw.datacenters.items()))),
        INPUT_FILE_NAMES["tenants"]: (
            ("tenant_id", "display_name", "agent_count", "datacenter_ids",
             "l_share"),
            ([t.tenant_id, t.display_name, str(t.agent_count),
              ";".join(t.datacenter_ids), _num(t.l_share)]
             for _, t in sorted(raw.tenants.items()))),
        MODELS_FILE_NAME: _models_table(fleet.models),
    }
    texts = {name: format_table(name, header, rows)
             for name, (header, rows) in tables.items()}

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, text in texts.items():
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written
