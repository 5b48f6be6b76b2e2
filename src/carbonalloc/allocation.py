"""The attribution engine: per-tenant scopes, responsibility ratios, TCF.

The computation is a strict pipeline with an acyclic dependency order:

1. Scope 2 per (tenant, data center) from estimated device energies and the
   proportional split of shared cooling/facility energy. Scope 2 depends only
   on energies and the grid intensity.
2. The responsibility ratio per (tenant, data center): the tenant's fraction
   of the data center's Scope 2 emissions, times its configured load share.
3. Scope 1 (on-site fuel) and Scope 3 (everything indirect) attributed by
   that ratio.
4. Gross total carbon footprint = Scope 1 + Scope 2 + Scope 3; net = gross
   minus the tenant's share of green-energy and certificate offsets.

Scope 2 runs in two phases. Phase 1, :func:`fleet_totals`, sums plain floats
over the whole fleet: each data center's direct energy, its cooling and
other shared totals, and its Scope 2 total, which are the denominators of
every tenant's shares. It raises the fleet's missing-model, zero-denominator
and non-finite-energy errors. Phase 2 builds one pair's
:class:`TenantDcScope2`, with its device shares, from those totals.
:func:`compute_footprints` runs phase 2 for every pair; :func:`tenant_footprint`
runs it for one tenant's pairs only, which is what checking a single report
needs.

All sums iterate in sorted key order so identical inputs reproduce identical
floats, which the conservation audit and report auditing rely on. The engine
reads no files: prior months are attached by the caller.

Every figure is a plain float in the units of :mod:`.units`. Figures that
are functions of other fields of the same record are derived by the record,
never passed in: a pair's Scope 2 ``emissions``, a ratio's ``ratio``, a data
center footprint's ``scope2``, ``component_emissions``, ``gross`` and
``net``, and a tenant's totals. The record checks each figure it derives
with its unit's check, and a :class:`DcFootprint` its stored figures too;
records also check the component keys, unique data centers, the history
length, and device energies adding up to their category totals. Their other
inputs are checked where they enter: by ingest, by the report parser's field
table, by phase 1, which checks every pair's and data center's energy and
Scope 2 for the whole fleet, or, for a pair's Scope 2 share, where its
ratio is built. Device detail (:class:`DeviceShare`) is not checked one
device at a time: it is bounded by its pair's totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

from .errors import MissingModel, UnitError, UnknownTenant, ZeroDcScope2
from .ingest import DataCenter, NetworkUsage, RawData, ServerUsage
from .power import (
    ServerPowerModel,
    clamped_server_energy_wh,
    network_energy_wh,
    server_energy_wh,
    shared_energy_total,
    split_shared_wh,
)
from .units import (
    SCOPE2_COMPONENTS,
    Period,
    check_emissions,
    check_energy,
    check_share,
)

__all__ = [
    "DeviceShare",
    "TenantDcScope2",
    "ResponsibilityRatio",
    "HistoryEntry",
    "DcFootprint",
    "Footprint",
    "FleetTotals",
    "fleet_totals",
    "compute_scope2",
    "compute_responsibility_ratios",
    "compute_footprints",
    "tenant_footprint",
    "conservation_audit",
    "AuditCheck",
    "AuditReport",
    "AUDIT_TOLERANCE",
]

# Relative tolerance for conservation checks and breakdown invariants.
AUDIT_TOLERANCE = 1e-9


def _close(actual: float, expected: float, tol: float = AUDIT_TOLERANCE) -> bool:
    scale = max(abs(actual), abs(expected), 1.0)
    return abs(actual - expected) <= tol * scale


# ---------------------------------------------------------------------------
# Per-device detail
# ---------------------------------------------------------------------------


class DeviceShare(NamedTuple):
    """One device's contribution to a tenant's Scope 2 in one data center.

    ``energy_wh`` and ``emissions_g`` are checked through the totals they
    are bounded by rather than one by one (see the module docstring). A
    server keeps the usage counters its estimate came from, a network device
    its byte counters; the other kind's counters stay at their defaults, and
    a cooling or other share carries none.
    """

    device_id: str
    category: str
    energy_wh: float
    emissions_g: float
    device_model: str = ""
    utilization: float = 0.0
    cache_moved: float = 0.0
    dram_accessed: float = 0.0
    disk_moved: float = 0.0
    device_type: str = ""
    bytes_sent: int = 0
    bytes_received: int = 0


# ---------------------------------------------------------------------------
# Stage results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TenantDcScope2:
    """One tenant's Scope 2 in one data center, split into energy categories.

    ``emissions`` is derived: (e_server + e_network + e_cooling + e_other)
    x grid intensity x load share. The device energies of each category must
    add up to its total.
    """

    tenant_id: str
    datacenter_id: str
    e_server: float
    e_network: float
    e_cooling: float
    e_other: float
    emissions: float = field(init=False)
    per_device: tuple[DeviceShare, ...]
    c_dc: float
    l_share: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "emissions", check_emissions(
            check_energy(self.total_energy) * self.c_dc * self.l_share))
        by_category = {"server": 0.0, "network": 0.0, "cooling": 0.0, "other": 0.0}
        for dev in self.per_device:
            if dev.category not in by_category:
                raise UnitError(f"unknown device category {dev.category!r}")
            by_category[dev.category] += dev.energy_wh
        for category, total in (("server", self.e_server), ("network", self.e_network),
                                ("cooling", self.e_cooling), ("other", self.e_other)):
            if not _close(by_category[category], total):
                raise UnitError(
                    f"{category} device energies sum to {by_category[category]!r}, "
                    f"category total is {total!r}")

    @property
    def total_energy(self) -> float:
        return self.e_server + self.e_network + self.e_cooling + self.e_other


@dataclass(frozen=True)
class ResponsibilityRatio:
    """A tenant's share of one data center's attributable emissions.

    ``scope2_share`` is the tenant's fraction of the data center's total
    Scope 2 emissions; ``ratio``, derived, is that fraction times the
    tenant's load share and is what Scope 1/3 and offsets scale by.
    """

    tenant_id: str
    datacenter_id: str
    scope2_share: float
    l_share: float
    ratio: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratio", check_share(self.scope2_share * self.l_share))


@dataclass(frozen=True)
class HistoryEntry:
    """A prior period's headline figures, for the two-month comparison."""

    period: Period
    gross: float
    net: float


@dataclass(frozen=True)
class DcFootprint:
    """One tenant's full footprint within a single data center.

    Emissions are gCO2e and energies Wh. ``component_energy``
    splits Scope 2 energy into the four categories of ``SCOPE2_COMPONENTS``.
    Derived, at the grid intensity and the tenant's load share: each
    category's ``component_emissions``, ``scope2``, ``gross`` (the scopes'
    sum) and ``net`` (gross minus offsets), which alone may be negative.
    """

    datacenter_id: str
    name: str
    region: str
    grid_intensity: float
    responsibility: ResponsibilityRatio
    scope1: float
    scope2: float = field(init=False)
    scope3: float
    component_energy: dict[str, float]
    component_emissions: dict[str, float] = field(init=False)
    gross: float = field(init=False)
    net: float = field(init=False)
    green_offset: float
    rec_offset: float
    devices: tuple[DeviceShare, ...]

    def __post_init__(self) -> None:
        keys = tuple(self.component_energy)
        if sorted(keys) != sorted(SCOPE2_COMPONENTS):
            raise UnitError("scope2_components must have exactly the keys "
                            f"{SCOPE2_COMPONENTS}, got {keys}")
        c, l = self.grid_intensity, self.responsibility.l_share
        set_field = object.__setattr__
        set_field(self, "scope2", self.scope2_energy * c * l)
        set_field(self, "component_emissions",
                  {name: e * c * l for name, e in self.component_energy.items()})
        set_field(self, "gross", self.scope1 + self.scope2 + self.scope3)
        set_field(self, "net", self.gross - self.green_offset - self.rec_offset)

        for value in (self.scope1, self.scope2, self.scope3,
                      *self.component_emissions.values(), self.gross):
            check_emissions(value)
        check_emissions(self.net, allow_negative=True)
        check_emissions(self.green_offset)
        check_emissions(self.rec_offset)
        for value in self.component_energy.values():
            check_energy(value)

    @property
    def scope2_energy(self) -> float:
        """Total Scope 2 energy, summed in the fixed category order."""
        e = self.component_energy
        return e["server"] + e["network"] + e["cooling"] + e["other"]

    @property
    def over_offset(self) -> bool:
        return self.net < 0.0


@dataclass(frozen=True)
class Footprint:
    """One tenant's footprint for one reporting period, across data centers;
    ``gross_total``, ``net_total`` and ``per_agent`` are derived from ``per_dc``."""

    tenant_id: str
    display_name: str
    agent_count: int
    period: Period
    per_dc: tuple[DcFootprint, ...]
    gross_total: float = field(init=False)
    net_total: float = field(init=False)
    per_agent: float = field(init=False)
    history: tuple[HistoryEntry, ...] = ()

    def __post_init__(self) -> None:
        dc_ids = [dc.datacenter_id for dc in self.per_dc]
        if len(set(dc_ids)) != len(dc_ids):
            raise UnitError(f"per_dc repeats a datacenter_id: {dc_ids}")
        gross = 0.0
        net = 0.0
        for dc in self.per_dc:
            gross += dc.gross
            net += dc.net
        set_field = object.__setattr__
        set_field(self, "gross_total", check_emissions(gross))
        set_field(self, "net_total", check_emissions(net, allow_negative=True))
        set_field(self, "per_agent", check_emissions(gross / self.agent_count))
        if len(self.history) > 2:
            raise UnitError("history holds at most the two prior periods")


# ---------------------------------------------------------------------------
# Phase 1: fleet totals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetTotals:
    """Phase 1's result: the per-data-center sums every share is divided by.

    Each map is keyed by data center id, covering every data center some
    tenant declares, in the order the (tenant, data center) pairs first
    reach it. ``rows`` holds each pair's usage rows in device-id order, for
    phase 2 to build device detail from without regrouping the fleet.
    """

    direct: dict[str, float]
    cooling: dict[str, float]
    other: dict[str, float]
    scope2: dict[str, float]
    rows: dict[tuple[str, str], tuple[list[ServerUsage], list[NetworkUsage]]]


def fleet_totals(raw: RawData, models: Mapping[str, ServerPowerModel]) -> FleetTotals:
    """Phase 1: direct, shared and Scope 2 totals per data center, as floats.

    Pairs are visited sorted by tenant, then data center, and devices by id
    within a pair, which is the order phase 2 sums in, so every float is the
    one the per-pair detail reproduces. Raises :class:`MissingModel`, naming
    the first servers.csv row of each missing model, :class:`ModelMismatch`,
    :class:`ZeroDenominator` and the unit errors of non-finite energies for
    the whole fleet, whichever tenant is asked for afterwards. Negative server
    estimates are clamped to zero silently: phase 2 warns about the devices
    it builds.
    """
    missing: dict[str, str] = {}
    for row in raw.servers:
        if row.device_model not in models:
            missing.setdefault(row.device_model, row.source_ref)
    if missing:
        raise MissingModel(missing)

    server_rows: dict[tuple[str, str], list[ServerUsage]] = {}
    for row in raw.servers:
        server_rows.setdefault((row.tenant_id, row.datacenter_id), []).append(row)
    network_rows: dict[tuple[str, str], list[NetworkUsage]] = {}
    for row in raw.network:
        network_rows.setdefault((row.tenant_id, row.datacenter_id), []).append(row)

    rows: dict[tuple[str, str], tuple[list[ServerUsage], list[NetworkUsage]]] = {}
    pair_direct: dict[tuple[str, str], float] = {}
    direct: dict[str, float] = {}
    for tenant_id in sorted(raw.tenants):
        for dc_id in sorted(raw.tenants[tenant_id].datacenter_ids):
            key = (tenant_id, dc_id)
            servers = sorted(server_rows.get(key, ()), key=lambda r: r.device_id)
            network = sorted(network_rows.get(key, ()), key=lambda r: r.device_id)
            rows[key] = (servers, network)
            e_server = 0.0
            for row in servers:
                energy = server_energy_wh(models[row.device_model], row)
                e_server += 0.0 if energy < 0.0 else energy
            e_network = 0.0
            for row in network:
                e_network += network_energy_wh(row)
            pair = e_server + e_network
            check_energy(pair)
            pair_direct[key] = pair
            direct[dc_id] = direct.get(dc_id, 0.0) + pair

    cooling: dict[str, float] = {}
    other: dict[str, float] = {}
    for dc_id in direct:
        dc = raw.datacenters[dc_id]
        cooling[dc_id] = shared_energy_total(dc.cooling_devices)
        other[dc_id] = shared_energy_total(dc.other_devices)

    scope2: dict[str, float] = {}
    for (tenant_id, dc_id), pair in pair_direct.items():
        all_direct = direct[dc_id]
        check_energy(all_direct)
        e_cooling = split_shared_wh(cooling[dc_id], pair, all_direct,
                                    f"cooling devices of {dc_id}")
        e_other = split_shared_wh(other[dc_id], pair, all_direct,
                                  f"other devices of {dc_id}")
        emissions = check_emissions((pair + e_cooling + e_other)
                                    * raw.datacenters[dc_id].grid_intensity
                                    * raw.tenants[tenant_id].l_share)
        scope2[dc_id] = scope2.get(dc_id, 0.0) + emissions
    return FleetTotals(direct=direct, cooling=cooling, other=other,
                       scope2=scope2, rows=rows)


# ---------------------------------------------------------------------------
# Phase 2: per-pair detail
# ---------------------------------------------------------------------------


def _pair_scope2(raw: RawData, models: Mapping[str, ServerPowerModel],
                 totals: FleetTotals, tenant_id: str, dc_id: str) -> TenantDcScope2:
    """One tenant's Scope 2 in one data center, with its device shares.

    Sums in phase 1's order, so the energies and emissions equal the floats
    phase 1 added into ``totals``, which has already raised any
    :class:`ZeroDenominator`.
    """
    dc = raw.datacenters[dc_id]
    c, l = dc.grid_intensity, raw.tenants[tenant_id].l_share
    servers, network = totals.rows[(tenant_id, dc_id)]
    devices: list[DeviceShare] = []
    e_server = 0.0
    for row in servers:
        energy = clamped_server_energy_wh(models[row.device_model], row)
        e_server += energy
        devices.append(DeviceShare(
            row.device_id, "server", energy, energy * c * l,
            row.device_model, row.cpu_utilization, row.cache_moved,
            row.dram_accessed, row.disk_moved))
    e_network = 0.0
    for row in network:
        energy = network_energy_wh(row)
        e_network += energy
        devices.append(DeviceShare(
            row.device_id, "network", energy, energy * c * l,
            device_type=row.device_type, bytes_sent=row.bytes_sent,
            bytes_received=row.bytes_received))

    tenant_direct = e_server + e_network
    all_direct = totals.direct[dc_id]
    e_cooling = split_shared_wh(totals.cooling[dc_id], tenant_direct, all_direct)
    e_other = split_shared_wh(totals.other[dc_id], tenant_direct, all_direct)
    if all_direct > 0.0:
        ratio = tenant_direct / all_direct
        for category, shared in (("cooling", dc.cooling_devices),
                                 ("other", dc.other_devices)):
            for dev in sorted(shared, key=lambda d: d.device_id):
                energy = dev.energy * ratio
                devices.append(DeviceShare(dev.device_id, category, energy,
                                           energy * c * l))

    return TenantDcScope2(
        tenant_id=tenant_id,
        datacenter_id=dc_id,
        e_server=e_server,
        e_network=e_network,
        e_cooling=e_cooling,
        e_other=e_other,
        per_device=tuple(devices),
        c_dc=c,
        l_share=l,
    )


def compute_scope2(raw: RawData,
                   models: Mapping[str, ServerPowerModel]) -> list[TenantDcScope2]:
    """Per (tenant, data center): estimated energies and Scope 2 emissions.

    Every (tenant, data center) pair the tenant declares gets an entry, even
    with no usage rows (all-zero), so downstream stages and reports cover the
    tenant's whole declared infrastructure.
    """
    totals = fleet_totals(raw, models)
    return [_pair_scope2(raw, models, totals, tenant_id, dc_id)
            for tenant_id, dc_id in totals.rows]


# ---------------------------------------------------------------------------
# Responsibility ratios
# ---------------------------------------------------------------------------


def _ratios(scope2: Sequence[TenantDcScope2], dc_total: Mapping[str, float],
            datacenters: Mapping[str, DataCenter]) -> list[ResponsibilityRatio]:
    """The ratio of each entry against its data center's Scope 2 total.

    Every data center in ``dc_total`` is checked for :class:`ZeroDcScope2`,
    whether or not ``scope2`` holds an entry for it.
    """
    for dc_id, total in sorted(dc_total.items()):
        if total == 0.0:
            dc = datacenters[dc_id]
            has_scope1 = any(f.amount * f.emission_factor > 0 for f in dc.fuel_log)
            if has_scope1 or dc.scope3_total > 0:
                raise ZeroDcScope2(dc_id)

    out: list[ResponsibilityRatio] = []
    for entry in scope2:
        total = dc_total[entry.datacenter_id]
        lam = entry.emissions / total if total > 0.0 else 0.0
        out.append(ResponsibilityRatio(
            tenant_id=entry.tenant_id,
            datacenter_id=entry.datacenter_id,
            scope2_share=check_share(lam),
            l_share=entry.l_share,
        ))
    return out


def compute_responsibility_ratios(
        scope2: Sequence[TenantDcScope2],
        datacenters: Mapping[str, DataCenter]) -> list[ResponsibilityRatio]:
    """Each tenant's fraction of each data center's Scope 2, times load share.

    When a data center's Scope 2 total is zero the fraction is undefined; if
    that data center also has Scope 1 fuel or a Scope 3 total to distribute
    the computation fails with :class:`ZeroDcScope2` (an invented equal split
    would be unauditable), otherwise every tenant's share is simply zero.
    """
    dc_total: dict[str, float] = {}
    for entry in scope2:
        dc_total[entry.datacenter_id] = (dc_total.get(entry.datacenter_id, 0.0)
                                         + entry.emissions)
    return _ratios(scope2, dc_total, datacenters)


# ---------------------------------------------------------------------------
# Scopes 1 and 3, gross and net, per tenant
# ---------------------------------------------------------------------------


def _footprint(raw: RawData, tenant_id: str,
               scope2: Mapping[tuple[str, str], TenantDcScope2],
               ratios: Mapping[tuple[str, str], ResponsibilityRatio]) -> Footprint:
    """Assemble one tenant's footprint from its Scope 2 entries and ratios."""
    tenant = raw.tenants[tenant_id]
    per_dc: list[DcFootprint] = []
    for dc_id in sorted(tenant.datacenter_ids):
        dc = raw.datacenters[dc_id]
        s2 = scope2[(tenant_id, dc_id)]
        resp = ratios[(tenant_id, dc_id)]
        r = resp.ratio
        scope1 = 0.0
        for fuel in sorted(dc.fuel_log, key=lambda f: f.device_id):
            scope1 += fuel.amount * fuel.emission_factor * r
        per_dc.append(DcFootprint(
            datacenter_id=dc_id,
            name=dc.name,
            region=dc.region,
            grid_intensity=dc.grid_intensity,
            responsibility=resp,
            scope1=scope1,
            scope3=dc.scope3_total * r,
            component_energy={"server": s2.e_server,
                              "network": s2.e_network,
                              "cooling": s2.e_cooling,
                              "other": s2.e_other},
            green_offset=dc.green_energy * dc.grid_intensity * r,
            rec_offset=dc.rec_offset * r,
            devices=s2.per_device,
        ))

    return Footprint(
        tenant_id=tenant_id,
        display_name=tenant.display_name,
        agent_count=tenant.agent_count,
        period=raw.period,
        per_dc=tuple(per_dc),
    )


def compute_footprints(raw: RawData,
                       models: Mapping[str, ServerPowerModel]) -> list[Footprint]:
    """Run the full pipeline for every tenant in the period.

    Output order is deterministic (tenant id ascending, data center id
    ascending within each tenant). The result depends on ``raw`` and
    ``models`` alone, so every footprint's ``history`` is empty; callers
    attach prior months with ``dataclasses.replace``.

    Offsets scale by the tenant's responsibility ratio, so no tenant's net
    changes when another tenant's figures do. Net may be negative when a data
    center is over-offset; that is flagged, not clamped.
    """
    scope2 = compute_scope2(raw, models)
    ratios = compute_responsibility_ratios(scope2, raw.datacenters)
    scope2_by_key = {(s.tenant_id, s.datacenter_id): s for s in scope2}
    ratio_by_key = {(r.tenant_id, r.datacenter_id): r for r in ratios}
    return [_footprint(raw, tenant_id, scope2_by_key, ratio_by_key)
            for tenant_id in sorted(raw.tenants)]


def tenant_footprint(raw: RawData, models: Mapping[str, ServerPowerModel],
                     tenant_id: str) -> Footprint:
    """One tenant's footprint, equal to its entry in :func:`compute_footprints`.

    Runs phase 1 for the whole fleet, so a data center anywhere in it fails
    with the error :func:`compute_footprints` would raise, then builds device
    detail for this tenant's pairs only. Raises :class:`UnknownTenant` when
    the inputs do not declare ``tenant_id``.
    """
    totals = fleet_totals(raw, models)
    if tenant_id not in raw.tenants:
        raise UnknownTenant(tenant_id)
    scope2 = {(tenant_id, dc_id): _pair_scope2(raw, models, totals, tenant_id, dc_id)
              for dc_id in sorted(raw.tenants[tenant_id].datacenter_ids)}
    ratios = _ratios(list(scope2.values()), totals.scope2, raw.datacenters)
    return _footprint(raw, tenant_id, scope2,
                      {(r.tenant_id, r.datacenter_id): r for r in ratios})


# ---------------------------------------------------------------------------
# Conservation audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditCheck:
    """One conservation check: an expected total against the engine's output."""

    name: str
    datacenter_id: str
    expected: float
    actual: float

    @property
    def residual(self) -> float:
        scale = max(abs(self.expected), abs(self.actual), 1.0)
        return abs(self.actual - self.expected) / scale

    @property
    def passed(self) -> bool:
        return self.residual < AUDIT_TOLERANCE


@dataclass(frozen=True)
class AuditReport:
    """All conservation checks for one computed period."""

    checks: tuple[AuditCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[AuditCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)


def conservation_audit(footprints: Sequence[Footprint], raw: RawData,
                       models: Mapping[str, ServerPowerModel]) -> AuditReport:
    """Verify that per-tenant figures add back up to data center totals.

    Expected values are recomputed from the raw inputs with plain loops (no
    engine code paths): per-device energies from the model weights and the
    per-byte network cost, proportional shares from the direct-energy
    ratios, fuel and Scope 3 totals straight from the data center records.
    Failures are returned as data, never raised: an audit's job is to report.
    """
    stored: dict[tuple[str, str], DcFootprint] = {}
    for fp in footprints:
        for dc_fp in fp.per_dc:
            stored[(fp.tenant_id, dc_fp.datacenter_id)] = dc_fp

    # Brute-force recomputation of direct energy per (tenant, DC), with the
    # terms in the engine's order so the floats match. A negative estimate
    # is clamped to zero silently: the engine has already warned about it.
    direct: dict[tuple[str, str], float] = {}
    for row in raw.servers:
        model = models[row.device_model]
        energy = (model.intercept
                  + model.w_cpu * row.cpu_utilization
                  + model.w_cache * row.cache_moved
                  + model.w_dram * row.dram_accessed
                  + model.w_disk * row.disk_moved)
        direct[(row.tenant_id, row.datacenter_id)] = (
            direct.get((row.tenant_id, row.datacenter_id), 0.0)
            + (0.0 if energy < 0.0 else energy))
    for row in raw.network:
        direct[(row.tenant_id, row.datacenter_id)] = (
            direct.get((row.tenant_id, row.datacenter_id), 0.0)
            + 6 * (row.bytes_sent + row.bytes_received) / 100_000_000)

    checks: list[AuditCheck] = []
    for dc_id in sorted(raw.datacenters):
        dc = raw.datacenters[dc_id]
        tenant_ids = sorted(t for t in raw.tenants
                            if dc_id in raw.tenants[t].datacenter_ids)
        if not tenant_ids:
            continue
        all_direct = sum(direct.get((t, dc_id), 0.0) for t in tenant_ids)
        cooling_total = sum(d.energy for d in dc.cooling_devices)
        other_total = sum(d.energy for d in dc.other_devices)

        # Expected per-tenant Scope 2 emissions, recomputed independently.
        expected_scope2: dict[str, float] = {}
        for t in tenant_ids:
            d = direct.get((t, dc_id), 0.0)
            shared = 0.0
            if all_direct > 0.0:
                shared = (cooling_total + other_total) * d / all_direct
            expected_scope2[t] = ((d + shared) * dc.grid_intensity
                                  * raw.tenants[t].l_share)
        dc_scope2_total = sum(expected_scope2.values())

        def stored_sum(value_of) -> float:
            total = 0.0
            for t in tenant_ids:
                entry = stored.get((t, dc_id))
                if entry is not None:
                    total += value_of(entry)
            return total

        # Scope 2 share conservation: stored per-tenant Scope 2 over the
        # recomputed DC total must sum to one. A corrupted tenant figure
        # shifts the sum away from one even though each stored/total ratio
        # alone would look plausible.
        if dc_scope2_total > 0.0:
            share_sum = stored_sum(
                lambda e: e.scope2 / dc_scope2_total)
            checks.append(AuditCheck("scope2_share_sum", dc_id, 1.0, share_sum))

        # Shared-energy conservation: tenant cooling/other allocations must
        # reproduce the metered totals.
        stored_cooling = stored_sum(lambda e: e.component_energy["cooling"])
        stored_other = stored_sum(lambda e: e.component_energy["other"])
        checks.append(AuditCheck("cooling_energy_total", dc_id,
                                 cooling_total if all_direct > 0 else 0.0,
                                 stored_cooling))
        checks.append(AuditCheck("other_energy_total", dc_id,
                                 other_total if all_direct > 0 else 0.0,
                                 stored_other))

        # Scope 1/3 conservation: stored sums must equal the DC totals scaled
        # by the summed responsibility ratios (with full load shares the sum
        # of ratios is one and the full totals are distributed).
        ratio_sum = 0.0
        if dc_scope2_total > 0.0:
            ratio_sum = sum(
                (expected_scope2[t] / dc_scope2_total)
                * raw.tenants[t].l_share
                for t in tenant_ids)
        fuel_total = sum(f.amount * f.emission_factor for f in dc.fuel_log)
        stored_scope1 = stored_sum(lambda e: e.scope1)
        stored_scope3 = stored_sum(lambda e: e.scope3)
        checks.append(AuditCheck("scope1_total", dc_id,
                                 fuel_total * ratio_sum, stored_scope1))
        checks.append(AuditCheck("scope3_total", dc_id,
                                 dc.scope3_total * ratio_sum, stored_scope3))

        # Gross conservation: stored per-tenant gross must add up to the
        # independently recomputed data center footprint.
        expected_gross = (fuel_total * ratio_sum + dc_scope2_total
                          + dc.scope3_total * ratio_sum)
        stored_gross = stored_sum(lambda e: e.gross)
        checks.append(AuditCheck("gross_total", dc_id, expected_gross, stored_gross))

    return AuditReport(checks=tuple(checks))
