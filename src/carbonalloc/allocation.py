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

The engine runs in two phases. Phase 1, :func:`fleet_totals`, computes and
checks every per-data-center figure once, as plain floats over the whole
fleet: each pair's four energies, one mapping keyed in ``SCOPE2_COMPONENTS``
order that the pair's :class:`TenantDcScope2` and :class:`DcFootprint` then
share, and each data center's direct energy, Scope 2 total and fuel
emissions. It raises every error of the fleet: missing models, zero
denominators, overflows and a zero Scope 2 total with Scope 1 or 3 to
distribute. Phase 2 builds one tenant's footprint from those figures:
:func:`compute_scope2` its pairs' :class:`TenantDcScope2` records with their
device shares, :func:`compute_responsibility_ratios` their shares of phase
1's Scope 2 totals, then the other scopes. :func:`compute_footprints` runs
phase 2 for every tenant; :func:`tenant_footprint` runs it for one, which is
what checking a single report needs, and so reports a fleet error before an
unknown tenant.

All sums iterate in sorted key order so identical inputs reproduce identical
floats, which report auditing relies on. The engine reads no files: prior
months are attached by the caller. :func:`conservation_audit` checks six
sums per data center against :mod:`.reference`, which states the model
again as plain loops and shares no code with the engine.

Every figure is a plain float in the units of :mod:`.units`. Figures that
are functions of other fields of the same record are derived by the record,
never passed in: a pair's Scope 2 ``emissions``, a data center footprint's
responsibility ``ratio``, ``scope2``, ``component_emissions``, ``gross`` and
``net``, and a tenant's totals: its three scopes, Scope 2 energy, component
emissions, two offsets, gross and net, each summed once over its data
centers in ``per_dc`` order, and its per-agent figure. No other module adds
figures across data centers, so both reports show the floats checked here.

Figures are checked in two places. Phase 1 bounds each data center's totals,
naming its datacenters.csv row: direct, cooling and other energy, the fuel
total, the green offset and Scope 2, and it refuses a zero Scope 2 total
with Scope 1 or 3 to distribute. :class:`Footprint` checks a tenant's
``gross_total`` and ``net_total``, and the three sums over its data
centers that these do not bound: its Scope 2 energy, at a grid intensity
below 1 g/Wh, and its two offsets, whose sums a finite net does not bound
either. Every other figure is derived from non-negative inputs by monotone
float operations, as a sum of bounded terms or as a ratio r <= 1 times a
bounded figure, so one that overflows makes a tenant total inf or nan. The
records check only their structure: the component keys, unique devices
and data centers, and the history length.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Mapping, NamedTuple, Sequence

from .errors import CarbonAllocError, IngestError, UnitError, UnknownTenant
from .ingest import NetworkUsage, RawData, ServerUsage, SharedDevice
from .power import (
    ServerPowerModel,
    estimate_network_energy,
    estimate_server_energy,
    server_energy_wh,
    split_shared_wh,
)
from .units import (
    SCOPE2_COMPONENTS,
    CheckedRecord,
    Period,
    check_emissions,
    check_energy,
    sum_in_order,
)

__all__ = [
    "DeviceShare",
    "TenantDcScope2",
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

_BY_DEVICE_ID = attrgetter("device_id")
_COMPONENTS = itemgetter(*SCOPE2_COMPONENTS)


def _scope2_energy(energy: Mapping[str, float]) -> float:
    """A pair's four energies added in ``SCOPE2_COMPONENTS`` order."""
    server, network, cooling, other = _COMPONENTS(energy)
    return server + network + cooling + other


# ---------------------------------------------------------------------------
# Per-device detail
# ---------------------------------------------------------------------------


class DeviceShare(NamedTuple):
    """One device's contribution to a tenant's Scope 2 in one data center.

    ``energy_wh`` and ``emissions_g`` are bounded by their pair's totals
    (see the module docstring). ``usage`` is the ingest row a server's or
    network device's estimate came from, its counters and ``source_ref``
    included; a cooling or other share has none.
    """

    device_id: str
    category: str
    energy_wh: float
    emissions_g: float
    usage: ServerUsage | NetworkUsage | None = None


# ---------------------------------------------------------------------------
# Stage results
# ---------------------------------------------------------------------------


class _TenantDcScope2(NamedTuple):
    tenant_id: str
    datacenter_id: str
    component_energy: dict[str, float]
    emissions: float
    per_device: tuple[DeviceShare, ...]
    c_dc: float
    l_share: float


class TenantDcScope2(CheckedRecord, _TenantDcScope2):
    """One tenant's Scope 2 in one data center, split into energy categories.

    ``component_energy`` is phase 1's mapping of the pair's four energies in
    Wh, keyed in ``SCOPE2_COMPONENTS`` order. ``emissions`` is derived: their
    sum x grid intensity x load share.
    """

    __slots__ = ()
    _derived = ("emissions",)

    def __new__(cls, tenant_id: str, datacenter_id: str,
                component_energy: dict[str, float], per_device: tuple[DeviceShare, ...],
                c_dc: float, l_share: float) -> "TenantDcScope2":
        emissions = _scope2_energy(component_energy) * c_dc * l_share
        return super().__new__(cls, tenant_id, datacenter_id, component_energy,
                               emissions, per_device, c_dc, l_share)


class HistoryEntry(NamedTuple):
    """A prior period's headline figures, for the two-month comparison."""

    period: Period
    gross: float
    net: float


class _DcFootprint(NamedTuple):
    datacenter_id: str
    name: str
    region: str
    grid_intensity: float
    scope2_share: float
    l_share: float
    ratio: float
    scope1: float
    scope2: float
    scope3: float
    component_energy: dict[str, float]
    component_emissions: dict[str, float]
    gross: float
    net: float
    green_offset: float
    rec_offset: float
    devices: tuple[DeviceShare, ...]


class DcFootprint(CheckedRecord, _DcFootprint):
    """One tenant's full footprint within a single data center.

    Emissions are gCO2e and energies Wh. ``scope2_share`` is the tenant's
    fraction of the data center's Scope 2 emissions, ``l_share`` its load
    share, and ``component_energy`` splits Scope 2 energy into the four
    categories of ``SCOPE2_COMPONENTS``. Derived: the responsibility
    ``ratio``, the two shares' product; at the grid intensity and load share,
    each category's ``component_emissions`` and ``scope2``; ``gross`` (the
    scopes' sum) and ``net`` (gross minus offsets), which alone may be negative.
    """

    __slots__ = ()
    _derived = ("ratio", "scope2", "component_emissions", "gross", "net")

    def __new__(cls, datacenter_id: str, name: str, region: str,
                grid_intensity: float, scope2_share: float, l_share: float,
                scope1: float, scope3: float, component_energy: dict[str, float],
                green_offset: float, rec_offset: float,
                devices: tuple[DeviceShare, ...]) -> "DcFootprint":
        if component_energy.keys() != set(SCOPE2_COMPONENTS):
            raise UnitError("scope2_components must have exactly the keys "
                            f"{SCOPE2_COMPONENTS}, got {tuple(component_energy)}")
        keys = [(d.category, d.device_id) for d in devices]
        if len(set(keys)) != len(keys):
            category, device_id = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise UnitError(f"devices repeat the {category} device {device_id!r}")
        c, l = grid_intensity, l_share
        scope2 = _scope2_energy(component_energy) * c * l
        emissions = {key: e * c * l for key, e in component_energy.items()}
        gross = scope1 + scope2 + scope3
        return super().__new__(
            cls, datacenter_id, name, region, grid_intensity, scope2_share, l,
            scope2_share * l, scope1, scope2, scope3, component_energy, emissions,
            gross, gross - green_offset - rec_offset, green_offset, rec_offset,
            devices)

    @property
    def scope2_energy(self) -> float:
        """Total Scope 2 energy, summed in the fixed category order."""
        return _scope2_energy(self.component_energy)


class _Footprint(NamedTuple):
    tenant_id: str
    display_name: str
    agent_count: int
    period: Period
    per_dc: tuple[DcFootprint, ...]
    scope1: float
    scope2: float
    scope3: float
    scope2_energy: float
    component_emissions: dict[str, float]
    green_offset: float
    rec_offset: float
    gross_total: float
    net_total: float
    per_agent: float
    history: tuple[HistoryEntry, ...]


class Footprint(CheckedRecord, _Footprint):
    """One tenant's footprint for one reporting period, across data centers.

    Derived from ``per_dc``: ``scope1``, ``scope2``, ``scope3``,
    ``scope2_energy``, ``component_emissions``, ``green_offset`` and
    ``rec_offset``, each its data centers' figure of that name summed in
    ``per_dc`` order, ``gross_total`` and ``net_total`` summed alike from
    ``gross`` and ``net``, and ``per_agent``. Both reports read these and sum
    nothing. The two totals are checked (see the module docstring), and so
    are the Scope 2 energy and the two offsets, which no total bounds; the
    scope and component sums are at most ``gross_total``.
    """

    __slots__ = ()
    _derived = ("scope1", "scope2", "scope3", "scope2_energy",
                "component_emissions", "green_offset", "rec_offset",
                "gross_total", "net_total", "per_agent")

    def __new__(cls, tenant_id: str, display_name: str, agent_count: int,
                period: Period, per_dc: tuple[DcFootprint, ...],
                history: tuple[HistoryEntry, ...] = ()) -> "Footprint":
        dc_ids = [dc.datacenter_id for dc in per_dc]
        if len(set(dc_ids)) != len(dc_ids):
            raise UnitError(f"per_dc repeats a datacenter_id: {dc_ids}")
        scope1 = scope2 = scope3 = energy = green = rec = gross = net = 0.0
        components = dict.fromkeys(SCOPE2_COMPONENTS, 0.0)
        for dc in per_dc:
            scope1 += dc.scope1
            scope2 += dc.scope2
            scope3 += dc.scope3
            energy += dc.scope2_energy
            for name in components:
                components[name] += dc.component_emissions[name]
            green += dc.green_offset
            rec += dc.rec_offset
            gross += dc.gross
            net += dc.net
        check_emissions(gross)
        check_emissions(net, allow_negative=True)
        check_energy(energy)
        check_emissions(green)
        check_emissions(rec)
        per_agent = gross / agent_count
        if len(history) > 2:
            raise UnitError("history holds at most the two prior periods")
        return super().__new__(
            cls, tenant_id, display_name, agent_count, period, per_dc, scope1,
            scope2, scope3, energy, components, green, rec, gross, net,
            per_agent, history)


# ---------------------------------------------------------------------------
# Phase 1: fleet totals
# ---------------------------------------------------------------------------


class FleetTotals(NamedTuple):
    """Phase 1's result: every per-data-center figure, and each pair's
    figures, which phase 2 builds its records from.

    ``direct``, ``scope2`` and ``fuel`` are keyed by data center id, covering
    every data center some tenant declares, in the order the pairs first reach
    it; ``fuel`` holds each fuel log entry's emissions in device-id order.
    ``pairs`` maps each (tenant id, data center id), sorted, to ``(servers,
    network, component_energy)``: the pair's server and network usage rows in
    device-id order and its four Scope 2 energies in Wh, keyed in
    ``SCOPE2_COMPONENTS`` order. ``shared`` holds each of those data centers'
    cooling, then other, devices in device-id order, each with its category.
    """

    direct: dict[str, float]
    scope2: dict[str, float]
    pairs: dict[tuple[str, str], tuple[list[ServerUsage], list[NetworkUsage],
                                       dict[str, float]]]
    shared: dict[str, list[tuple[str, SharedDevice]]]
    fuel: dict[str, list[float]]


def fleet_totals(raw: RawData, models: Mapping[str, ServerPowerModel]) -> FleetTotals:
    """Phase 1: every pair's four Scope 2 energies, and each data center's
    direct and Scope 2 totals and fuel emissions, as floats.

    Pairs are visited sorted by tenant, then data center, and devices by id
    within a pair, so every float is computed once, in one fixed order.
    Raises, for the whole fleet, whichever tenant is asked for afterwards:
    an :class:`IngestError` naming the first servers.csv row of each device
    model without a power model; a :class:`UnitError`, prefixed with its
    datacenters.csv row, for a data center with shared energy but no direct
    energy, or whose direct, cooling or other energy, fuel total (added in
    the device-id order of each tenant's Scope 1), green offset or Scope 2
    total is not finite; then, by data center id, a :class:`CarbonAllocError`
    for a zero Scope 2 total with fuel or a Scope 3 total to distribute.
    Each pair's figures are bounded by these totals. Negative server
    estimates are clamped to zero silently: phase 2 warns about the devices
    it builds.
    """
    missing: dict[str, str] = {}
    for row in raw.servers:
        if row.device_model not in models:
            missing.setdefault(row.device_model, row.source_ref)
    if missing:
        raise IngestError("no calibrated power model for device model(s): " + ", ".join(
            f"{name} ({missing[name]})" if missing[name] else name
            for name in sorted(missing)))

    server_rows: dict[tuple[str, str], list[ServerUsage]] = {}
    for row in raw.servers:
        server_rows.setdefault((row.tenant_id, row.datacenter_id), []).append(row)
    network_rows: dict[tuple[str, str], list[NetworkUsage]] = {}
    for row in raw.network:
        network_rows.setdefault((row.tenant_id, row.datacenter_id), []).append(row)

    # A pair's two shared energies join its mapping once its data center's
    # direct total is known; that keeps the pairs in sorted order.
    pairs: dict[tuple[str, str], tuple] = {}
    by_dc: dict[str, list[tuple[float, dict[str, float], float]]] = {}
    for tenant_id in sorted(raw.tenants):
        l_share = raw.tenants[tenant_id].l_share
        for dc_id in sorted(raw.tenants[tenant_id].datacenter_ids):
            key = (tenant_id, dc_id)
            servers = sorted(server_rows.get(key, ()), key=_BY_DEVICE_ID)
            network = sorted(network_rows.get(key, ()), key=_BY_DEVICE_ID)
            e_server = 0.0
            for row in servers:
                wh = server_energy_wh(models[row.device_model], row)
                e_server += 0.0 if wh < 0.0 else wh
            e_network = 0.0
            for row in network:
                e_network += estimate_network_energy(row)
            energy = {"server": e_server, "network": e_network}
            pairs[key] = (servers, network, energy)
            by_dc.setdefault(dc_id, []).append((l_share, energy, e_server + e_network))

    direct: dict[str, float] = {}
    scope2: dict[str, float] = {}
    shared: dict[str, list[tuple[str, SharedDevice]]] = {}
    fuel: dict[str, list[float]] = {}
    for dc_id, dc_pairs in by_dc.items():
        dc = raw.datacenters[dc_id]
        shared[dc_id] = []
        fuel[dc_id] = [f.amount * f.emission_factor
                       for f in sorted(dc.fuel_log, key=_BY_DEVICE_ID)]
        try:
            all_direct = sum_in_order(wh for _, _, wh in dc_pairs)
            direct[dc_id] = check_energy(all_direct)
            shared_wh: dict[str, float] = {}
            for category, devices in (("cooling", dc.cooling_devices),
                                      ("other", dc.other_devices)):
                devices = sorted(devices, key=_BY_DEVICE_ID)
                shared[dc_id] += [(category, dev) for dev in devices]
                shared_wh[category] = check_energy(
                    sum_in_order(dev.energy for dev in devices))
            check_emissions(sum_in_order(fuel[dc_id]))
            check_emissions(dc.green_energy * dc.grid_intensity)
            total = 0.0
            for l_share, energy, direct_wh in dc_pairs:
                for category, wh in shared_wh.items():
                    energy[category] = split_shared_wh(
                        wh, direct_wh, all_direct, f"{category} devices of {dc_id}")
                total += _scope2_energy(energy) * dc.grid_intensity * l_share
            scope2[dc_id] = check_emissions(total)
        except UnitError as exc:
            raise UnitError(f"{dc.source_ref or 'datacenters:' + dc_id}: {exc}") from exc

    # With a zero Scope 2 total no share is defined, and an invented equal
    # split of fuel or Scope 3 would be unauditable.
    for dc_id in sorted(scope2):
        dc = raw.datacenters[dc_id]
        if scope2[dc_id] == 0.0 and (any(e > 0 for e in fuel[dc_id])
                                     or dc.scope3_total > 0):
            where = f"{dc.source_ref}: " if dc.source_ref else ""
            raise CarbonAllocError(
                f"{where}data center {dc_id!r} has Scope 1 or Scope 3 emissions to "
                "distribute but zero Scope 2 emissions; responsibility shares are "
                "undefined")
    return FleetTotals(direct=direct, scope2=scope2, pairs=pairs, shared=shared,
                       fuel=fuel)


# ---------------------------------------------------------------------------
# Phase 2: one tenant's records
# ---------------------------------------------------------------------------


def _pair_scope2(raw: RawData, models: Mapping[str, ServerPowerModel],
                 totals: FleetTotals, tenant_id: str, dc_id: str) -> TenantDcScope2:
    """One tenant's Scope 2 in one data center, with its device shares.

    The four energies are phase 1's. Devices are estimated again, in phase
    1's order, for their shares; a negative server estimate warns here.
    """
    c, l = raw.datacenters[dc_id].grid_intensity, raw.tenants[tenant_id].l_share
    servers, network, pair_wh = totals.pairs[(tenant_id, dc_id)]
    devices: list[DeviceShare] = []
    for row in servers:
        energy = estimate_server_energy(models[row.device_model], row)
        devices.append(DeviceShare(row.device_id, "server", energy,
                                   energy * c * l, row))
    for row in network:
        energy = estimate_network_energy(row)
        devices.append(DeviceShare(row.device_id, "network", energy,
                                   energy * c * l, row))

    all_direct = totals.direct[dc_id]
    if all_direct > 0.0:
        ratio = (pair_wh["server"] + pair_wh["network"]) / all_direct
        for category, dev in totals.shared[dc_id]:
            energy = dev.energy * ratio
            devices.append(DeviceShare(dev.device_id, category, energy,
                                       energy * c * l))

    return TenantDcScope2(tenant_id=tenant_id, datacenter_id=dc_id,
                          component_energy=pair_wh, per_device=tuple(devices),
                          c_dc=c, l_share=l)


def compute_scope2(raw: RawData, models: Mapping[str, ServerPowerModel],
                   totals: FleetTotals, tenant_id: str) -> list[TenantDcScope2]:
    """One tenant's energies and Scope 2 emissions per data center, in id
    order, from phase 1's ``totals``.

    Every data center the tenant declares gets an entry, even with no usage
    rows (all-zero), so downstream stages and reports cover the tenant's
    whole declared infrastructure.
    """
    return [_pair_scope2(raw, models, totals, tenant_id, dc_id)
            for dc_id in sorted(raw.tenants[tenant_id].datacenter_ids)]


def compute_responsibility_ratios(scope2: Sequence[TenantDcScope2],
                                  totals: FleetTotals) -> list[float]:
    """Each entry's fraction of its data center's Scope 2 emissions, phase
    1's total, in ``scope2``'s order; times load share, its responsibility
    ratio.

    A zero total gives every tenant a zero fraction: phase 1 has already
    refused one with fuel or a Scope 3 total to distribute.
    """
    shares: list[float] = []
    for entry in scope2:
        total = totals.scope2[entry.datacenter_id]
        shares.append(entry.emissions / total if total > 0.0 else 0.0)
    return shares


def _footprint(raw: RawData, models: Mapping[str, ServerPowerModel],
               totals: FleetTotals, tenant_id: str) -> Footprint:
    """Phase 2: one tenant's footprint from phase 1's ``totals``.

    Scope 1 (phase 1's fuel emissions), Scope 3 and both offsets scale by
    ``share * l_share``, the ratio :class:`DcFootprint` derives. A total that
    overflows raises the unit error prefixed with its tenants.csv row.
    """
    scope2 = compute_scope2(raw, models, totals, tenant_id)
    shares = compute_responsibility_ratios(scope2, totals)
    tenant = raw.tenants[tenant_id]
    per_dc: list[DcFootprint] = []
    for s2, share in zip(scope2, shares):
        dc_id = s2.datacenter_id
        dc = raw.datacenters[dc_id]
        r = share * s2.l_share
        scope1 = 0.0
        for emissions in totals.fuel[dc_id]:
            scope1 += emissions * r
        per_dc.append(DcFootprint(
            datacenter_id=dc_id,
            name=dc.name,
            region=dc.region,
            grid_intensity=dc.grid_intensity,
            scope2_share=share,
            l_share=s2.l_share,
            scope1=scope1,
            scope3=dc.scope3_total * r,
            component_energy=s2.component_energy,
            green_offset=dc.green_energy * dc.grid_intensity * r,
            rec_offset=dc.rec_offset * r,
            devices=s2.per_device,
        ))

    try:
        return Footprint(
            tenant_id=tenant_id,
            display_name=tenant.display_name,
            agent_count=tenant.agent_count,
            period=raw.period,
            per_dc=tuple(per_dc),
        )
    except UnitError as exc:
        raise UnitError(f"{tenant.source_ref or 'tenants:' + tenant_id}: {exc}") from exc


def compute_footprints(raw: RawData,
                       models: Mapping[str, ServerPowerModel]) -> list[Footprint]:
    """Run the full pipeline for every tenant in the period.

    Output order is deterministic (tenant id ascending, data center id
    ascending within each tenant). The result depends on ``raw`` and
    ``models`` alone, so every footprint's ``history`` is empty; callers
    attach prior months with ``Footprint._replace``.

    Offsets scale by the tenant's responsibility ratio, so no tenant's net
    changes when another tenant's figures do. Net may be negative when a data
    center is over-offset; that is flagged, not clamped.
    """
    totals = fleet_totals(raw, models)
    return [_footprint(raw, models, totals, tenant_id)
            for tenant_id in sorted(raw.tenants)]


def tenant_footprint(raw: RawData, models: Mapping[str, ServerPowerModel],
                     tenant_id: str) -> Footprint:
    """One tenant's footprint, equal to its entry in :func:`compute_footprints`.

    Runs phase 1 for the whole fleet, so a data center anywhere in it fails
    with the error :func:`compute_footprints` would raise, then phase 2 for
    this tenant only. Raises :class:`UnknownTenant`, after any fleet error,
    when the inputs do not declare ``tenant_id``.
    """
    totals = fleet_totals(raw, models)
    if tenant_id not in raw.tenants:
        raise UnknownTenant(tenant_id)
    return _footprint(raw, models, totals, tenant_id)


# ---------------------------------------------------------------------------
# Conservation audit
# ---------------------------------------------------------------------------


class AuditCheck(NamedTuple):
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


class AuditReport(NamedTuple):
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

    The expected values come from :mod:`.reference`, which states the model
    again as plain loops over the raw inputs and shares no code with the
    engine. Each data center that some tenant declares gets six checks, in
    this order: ``scope2_share_sum`` (only when its Scope 2 total is not
    zero), ``cooling_energy_total``, ``other_energy_total``,
    ``scope1_total``, ``scope3_total`` and ``gross_total``. Failures are
    returned as data, never raised: an audit's job is to report.
    """
    # Imported here: only `compute` runs this audit.
    from .reference import expected_figures

    stored = {(fp.tenant_id, dc.datacenter_id): dc
              for fp in footprints for dc in fp.per_dc}

    checks: list[AuditCheck] = []
    for dc_id, expected in expected_figures(raw, models).items():
        if not expected.pairs:
            continue
        entries = [stored[(t, dc_id)] for t in expected.pairs if (t, dc_id) in stored]

        # Stored per-tenant Scope 2 over the expected total must sum to one.
        # A corrupted tenant figure shifts the sum away from one even though
        # each stored/total ratio alone would look plausible.
        if expected.scope2 > 0.0:
            checks.append(AuditCheck("scope2_share_sum", dc_id, 1.0, sum_in_order(
                e.scope2 / expected.scope2 for e in entries)))

        # Tenant cooling/other allocations must reproduce the metered totals.
        for category in ("cooling", "other"):
            checks.append(AuditCheck(
                f"{category}_energy_total", dc_id,
                getattr(expected, category) if expected.direct > 0.0 else 0.0,
                sum_in_order(e.component_energy[category] for e in entries)))

        for name in ("scope1", "scope3", "gross"):
            checks.append(AuditCheck(
                f"{name}_total", dc_id,
                sum_in_order(getattr(p, name) for p in expected.pairs.values()),
                sum_in_order(getattr(e, name) for e in entries)))

    return AuditReport(checks=tuple(checks))
