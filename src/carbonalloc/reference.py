"""The paper's allocation model stated once, as plain loops: the figures the
conservation audit and the tests expect of the engine.

:func:`expected_figures` follows the README's four stages for every data
center and each tenant that declares it:

1. A server's energy is its model's intercept plus its four weighted usage
   counters, clamped at zero; a network device's is 6e-8 Wh per byte sent
   or received. Their sum is the tenant's direct energy. The data center's
   metered cooling and other energy are split in proportion to direct
   energy. Scope 2 is the sum of the four energies times the grid intensity
   times the tenant's load share.
2. ``r`` is the tenant's share of the data center's Scope 2, times its load
   share.
3. Scope 1 (the fuel log's emissions), Scope 3 and both offsets (green
   energy at the grid intensity, and certificates) are the data center's
   totals times ``r``.
4. Gross is the three scopes' sum; net is gross minus the two offsets.

The module imports nothing from :mod:`.allocation` or :mod:`.power`, so a
fault in the engine cannot leak into these figures. It adds left to right,
never with ``sum`` or ``math.fsum``, so its figures are the same on every
supported Python; they agree with the engine's to within rounding, not bit
for bit. Devices are added in id order, the order in which the engine adds
and bounds them: a total near the largest float can overflow in one order
and not in another.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Mapping, NamedTuple

from .ingest import RawData
from .units import sum_in_order

__all__ = ["PairFigures", "DcFigures", "expected_figures"]

_BY_ID = attrgetter("device_id")


class PairFigures(NamedTuple):
    """One tenant's figures in one data center: Wh, gCO2e and ``ratio``, r."""

    direct: float
    cooling: float
    other: float
    scope2: float
    ratio: float
    scope1: float
    scope3: float
    green_offset: float
    rec_offset: float
    gross: float
    net: float


class DcFigures(NamedTuple):
    """One data center's totals: all tenants' ``direct`` energy, the metered
    ``cooling`` and ``other`` energy, the ``fuel`` log's emissions and all
    tenants' ``scope2``; and each declaring tenant's figures, by tenant id in
    id order."""

    direct: float
    cooling: float
    other: float
    fuel: float
    scope2: float
    pairs: dict[str, PairFigures]


def expected_figures(raw: RawData, models: Mapping[str, Any]) -> dict[str, DcFigures]:
    """Every data center's figures, by data center id in id order.

    ``models`` maps each device model to its fitted ``intercept`` and
    weights ``w_cpu``, ``w_cache``, ``w_dram`` and ``w_disk``.
    """
    direct: dict[tuple[str, str], float] = {}
    for row in sorted(raw.servers, key=_BY_ID):
        m = models[row.device_model]
        wh = (m.intercept + m.w_cpu * row.cpu_utilization
              + m.w_cache * row.cache_moved + m.w_dram * row.dram_accessed
              + m.w_disk * row.disk_moved)
        key = (row.tenant_id, row.datacenter_id)
        direct[key] = direct.get(key, 0.0) + (wh if wh > 0.0 else 0.0)
    for row in sorted(raw.network, key=_BY_ID):
        key = (row.tenant_id, row.datacenter_id)
        # An int/int division: exact to one rounding at any byte count.
        direct[key] = (direct.get(key, 0.0)
                       + 6 * (row.bytes_sent + row.bytes_received) / 100_000_000)

    # Each data center's tenants' load shares, by tenant id in id order.
    members: dict[str, dict[str, float]] = {d: {} for d in sorted(raw.datacenters)}
    for t in sorted(raw.tenants):
        for dc_id in raw.tenants[t].datacenter_ids:
            members[dc_id][t] = raw.tenants[t].l_share

    figures: dict[str, DcFigures] = {}
    for dc_id, l_shares in members.items():
        dc = raw.datacenters[dc_id]
        all_direct = sum_in_order(direct.get((t, dc_id), 0.0) for t in l_shares)
        cooling, other = (sum_in_order(d.energy for d in sorted(devices, key=_BY_ID))
                          for devices in (dc.cooling_devices, dc.other_devices))
        fuel = sum_in_order(f.amount * f.emission_factor
                            for f in sorted(dc.fuel_log, key=_BY_ID))

        energies: dict[str, tuple[float, float, float, float]] = {}
        for t, l_share in l_shares.items():
            d = direct.get((t, dc_id), 0.0)
            c = cooling * d / all_direct if all_direct > 0.0 else 0.0
            o = other * d / all_direct if all_direct > 0.0 else 0.0
            energies[t] = (d, c, o, (d + c + o) * dc.grid_intensity * l_share)
        scope2_total = sum_in_order(s2 for *_, s2 in energies.values())

        pairs: dict[str, PairFigures] = {}
        for t, (d, c, o, scope2) in energies.items():
            r = (scope2 / scope2_total if scope2_total > 0.0 else 0.0) * l_shares[t]
            scope1, scope3 = fuel * r, dc.scope3_total * r
            green, rec = dc.green_energy * dc.grid_intensity * r, dc.rec_offset * r
            gross = scope1 + scope2 + scope3
            pairs[t] = PairFigures(d, c, o, scope2, r, scope1, scope3, green, rec,
                                   gross, gross - green - rec)
        figures[dc_id] = DcFigures(all_direct, cooling, other, fuel, scope2_total, pairs)
    return figures
