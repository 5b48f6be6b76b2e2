"""
From usage counters to a per-tenant footprint
=============================================

A worked example small enough to check by hand: one data center at
0.4 g CO2e/Wh, two tenants. Every intermediate figure is printed so the
allocation can be followed line by line.
"""

from carbonalloc import (
    DataCenter,
    FuelEntry,
    NetworkUsage,
    Period,
    ServerPowerModel,
    ServerUsage,
    SharedDevice,
    Tenant,
    assemble_raw_data,
    compute_footprints,
    conservation_audit,
)

# Degenerate intercept-only models keep the arithmetic inspectable:
# each server contributes a fixed, known energy.
models = {
    "SMALL": ServerPowerModel("SMALL", 100000.0, 0.0, 0.0, 0.0, 0.0, 1.0),
    "LARGE": ServerPowerModel("LARGE", 300000.0, 0.0, 0.0, 0.0, 0.0, 1.0),
}

dc = DataCenter(
    datacenter_id="DC_EU1",
    name="Amsterdam South",
    region="eu-west",
    grid_intensity=0.4,
    cooling_devices=(SharedDevice("CRAC_1", 4000000.0),),
    other_devices=(SharedDevice("PDU_1", 280000.0),),
    fuel_log=(FuelEntry("GEN_1", 1000.0, 2.5),),  # 2500 g of generator runs
    scope3_total=500000.0,
    green_energy=1000000.0,
)

tenants = {
    "TENANT_X": Tenant("TENANT_X", "Fictitious Co", 250, ("DC_EU1",), 1.0),
    "TENANT_Y": Tenant("TENANT_Y", "Other Co", 40, ("DC_EU1",), 1.0),
}

servers = (
    ServerUsage("DC_EU1", "SERVER_1", "SMALL", "TENANT_X", 0.10, 2e7, 5e9, 2e10),
    ServerUsage("DC_EU1", "SERVER_2", "LARGE", "TENANT_Y", 0.80, 4e7, 9e9, 6e10),
)
network = (
    # One terabyte each way: 6e-8 Wh/byte puts this at exactly 120000 Wh.
    NetworkUsage("DC_EU1", "NET_1", "router", "TENANT_X", 10**12, 10**12),
)

raw = assemble_raw_data(period=Period.parse("2025-06"), datacenters={"DC_EU1": dc},
                        tenants=tenants, servers=servers, network=network)

footprints = compute_footprints(raw, models)

for fp in footprints:
    print(f"{fp.tenant_id} ({fp.display_name}), {fp.agent_count} agents")
    for per_dc in fp.per_dc:
        resp = per_dc.responsibility
        print(f"  {per_dc.datacenter_id} @ {per_dc.grid_intensity} g/Wh")
        for name in ("server", "network", "cooling", "other"):
            print(f"    {name:<8} {per_dc.component_energy[name]:>12.1f} Wh"
                  f"  -> {per_dc.component_emissions[name]:>12.1f} g")
        print(f"    scope2 share = {resp.scope2_share:.6f},"
              f" responsibility r = {resp.ratio:.6f}")
        print(f"    scope1 {per_dc.scope1:.1f} g,"
              f" scope2 {per_dc.scope2:.1f} g,"
              f" scope3 {per_dc.scope3:.1f} g")
        print(f"    green offset {per_dc.green_offset:.1f} g,"
              f" REC offset {per_dc.rec_offset:.1f} g")
    print(f"  gross {fp.gross_total:.1f} g,"
          f" net {fp.net_total:.1f} g,"
          f" per agent {fp.per_agent:.2f} g")
    print()

# Nothing is lost and nothing is invented: tenant figures re-aggregate to
# the data center totals. The audit recomputes everything from the raw
# inputs with plain loops and compares.
audit = conservation_audit(footprints, raw, models)
print(f"conservation audit: {'PASS' if audit.passed else 'FAIL'}"
      f" ({len(audit.checks)} checks, max residual {audit.max_residual:.3e})")
