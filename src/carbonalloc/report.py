"""Report rendering: detailed JSON and a one-page human-readable document.

Both formats are pure functions of a Footprint plus the equivalency factors.
The JSON format is the audit interchange surface: key order is fixed, floats
use shortest round-trip notation, and ``footprint_from_json`` restores a
Footprint that re-renders to the identical bytes. The one-page format is a
self-contained HTML document (inline styles, inline SVG charts, no external
assets) constrained to a single sheet of A4.

Equivalency factors are configuration, not constants: the packaged sample
config documents its sources in ``source_note`` and operators are expected
to review the values.
"""

from __future__ import annotations

import html
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring as _string
from pathlib import Path
from typing import Any

from .allocation import (
    DcFootprint,
    DeviceShare,
    Footprint,
    HistoryEntry,
    ResponsibilityRatio,
)
from .errors import CarbonAllocError
from .units import (
    CarbonIntensity,
    EmissionsG,
    EnergyWh,
    Period,
    Share,
    is_finite,
)

__all__ = [
    "EquivalencyFactors",
    "ReportDocument",
    "TrendDelta",
    "load_equivalency_factors",
    "factors_from_json",
    "compute_equivalencies",
    "compute_trend",
    "render_json",
    "footprint_from_json",
    "render_onepage",
    "JSON_SCHEMA_VERSION",
    "DEFAULT_TREND_THRESHOLDS",
]

JSON_SCHEMA_VERSION = 1

# Improving/worsening cutoffs for the trend badge, in percent.
DEFAULT_TREND_THRESHOLDS = (5.0, 5.0)


class ReportError(CarbonAllocError):
    """A report file or equivalency config could not be parsed."""


@dataclass(frozen=True)
class EquivalencyFactors:
    """Emission equivalents used to put gross figures in perspective."""

    flight_ams_nyc: EmissionsG
    car_km: EmissionsG
    smartphone_charge: EmissionsG
    source_note: str

    def __post_init__(self) -> None:
        for name, factor in (("flight_ams_nyc", self.flight_ams_nyc),
                             ("car_km", self.car_km),
                             ("smartphone_charge", self.smartphone_charge)):
            if factor.value <= 0:
                raise ReportError(f"equivalency factor {name} must be > 0, "
                                  f"got {factor.value!r}")


@dataclass(frozen=True)
class ReportDocument:
    """A rendered report: tenant, period, and the bytes."""

    tenant_id: str
    period: Period
    content: bytes


@dataclass(frozen=True)
class TrendDelta:
    """Comparison against one prior month; pct_change is None when the prior
    gross was zero (no meaningful percentage)."""

    period: Period
    gross: EmissionsG
    net: EmissionsG
    pct_change: float | None


def load_equivalency_factors(path: Path | str) -> EquivalencyFactors:
    """Load the three factors and their source note from a small JSON file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReportError(f"cannot read equivalency config {path}: {exc}") from exc
    try:
        return EquivalencyFactors(
            flight_ams_nyc=EmissionsG(float(doc["flight_ams_nyc_g"])),
            car_km=EmissionsG(float(doc["car_km_g"])),
            smartphone_charge=EmissionsG(float(doc["smartphone_charge_g"])),
            source_note=str(doc["source_note"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReportError(
            f"equivalency config {path} needs numeric flight_ams_nyc_g, "
            f"car_km_g, smartphone_charge_g and a source_note: {exc}") from exc


def compute_equivalencies(gross: EmissionsG,
                          factors: EquivalencyFactors) -> dict[str, float]:
    """Gross emissions expressed as flights, car km, and phone charges."""
    return {
        "flights": gross.value / factors.flight_ams_nyc.value,
        "car_km": gross.value / factors.car_km.value,
        "charges": gross.value / factors.smartphone_charge.value,
    }


def compute_trend(current: Footprint) -> list[TrendDelta]:
    """Month-over-month deltas against the footprint's prior periods."""
    deltas: list[TrendDelta] = []
    for prior in current.history:
        if prior.gross.value == 0.0:
            pct: float | None = None
        else:
            pct = ((current.gross_total.value - prior.gross.value)
                   / prior.gross.value * 100.0)
        deltas.append(TrendDelta(period=prior.period, gross=prior.gross,
                                 net=prior.net, pct_change=pct))
    return deltas


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------


def _scope2_energy(dc: DcFootprint) -> float:
    """Total Scope 2 energy, summed in the fixed category order."""
    e = dc.component_energy
    return e["server"] + e["network"] + e["cooling"] + e["other"]


def _number(value: float) -> str:
    """A float as ``json.dumps`` writes it, non-finite values included."""
    if math.isfinite(value):
        return repr(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _bool(value: bool) -> str:
    return "true" if value else "false"


# Each template below is one object exactly as ``json.dumps(tree, indent=2,
# ensure_ascii=False)`` lays it out at its nesting depth: key order fixed,
# strings through ``_string``, finite numbers through ``repr`` (which is what
# the encoder calls), and ``{}`` / ``[]`` for empty maps and lists.


def _device_json(device_id: str, dev: DeviceShare) -> str:
    """One device entry, at the depth of a ``devices.<map>`` member."""
    head = f"              {_string(device_id)}: {{\n"
    if dev.category == "server":
        return (f'{head}'
                f'                "type": "ServerDevice",\n'
                f'                "isAggregate": false,\n'
                f'                "deviceModel": {_string(dev.device_model)},\n'
                f'                "energy": {dev.energy_wh!r},\n'
                f'                "emissions": {dev.emissions_g!r},\n'
                f'                "utilization": {dev.utilization!r},\n'
                f'                "cacheMoved": {dev.cache_moved!r},\n'
                f'                "dramAccessed": {dev.dram_accessed!r},\n'
                f'                "diskMoved": {dev.disk_moved!r}\n'
                f'              }}')
    if dev.category == "network":
        return (f'{head}'
                f'                "type": "NetworkDevice",\n'
                f'                "isAggregate": false,\n'
                f'                "deviceType": {_string(dev.device_type)},\n'
                f'                "energy": {dev.energy_wh!r},\n'
                f'                "emissions": {dev.emissions_g!r},\n'
                f'                "bytesSent": {dev.bytes_sent!r},\n'
                f'                "bytesReceived": {dev.bytes_received!r}\n'
                f'              }}')
    return (f'{head}'
            f'                "type": "SharedDevice",\n'
            f'                "isAggregate": false,\n'
            f'                "energy": {dev.energy_wh!r},\n'
            f'                "emissions": {dev.emissions_g!r}\n'
            f'              }}')


def _device_map(devices: dict[str, DeviceShare]) -> str:
    if not devices:
        return "{}"
    entries = ",\n".join(_device_json(device_id, devices[device_id])
                         for device_id in sorted(devices))
    return f"{{\n{entries}\n            }}"


def _component_json(dc: DcFootprint, name: str) -> str:
    return (f'            "{name}": {{\n'
            f'              "energy": {dc.component_energy[name]!r},\n'
            f'              "emissions": {dc.component_emissions[name]!r}\n'
            f'            }}')


def _dc_json(dc: DcFootprint) -> str:
    """One ``datacenters`` member: shares, totals, offsets and scopes."""
    maps: dict[str, dict[str, DeviceShare]] = {
        "server": {}, "network": {}, "cooling": {}, "other": {}}
    for dev in dc.devices:
        maps[dev.category][dev.device_id] = dev
    r = dc.responsibility
    return (f'    {_string(dc.datacenter_id)}: {{\n'
            f'      "name": {_string(dc.name)},\n'
            f'      "region": {_string(dc.region)},\n'
            f'      "gridIntensity": {dc.grid_intensity.value!r},\n'
            f'      "scope2Share": {r.scope2_share.value!r},\n'
            f'      "lShare": {r.l_share.value!r},\n'
            f'      "responsibility": {r.ratio.value!r},\n'
            f'      "grossEmissions": {dc.gross!r},\n'
            f'      "netEmissions": {dc.net!r},\n'
            f'      "overOffset": {_bool(dc.over_offset)},\n'
            f'      "offsets": {{\n'
            f'        "greenEnergyOffset": {dc.green_offset!r},\n'
            f'        "recOffset": {dc.rec_offset!r}\n'
            f'      }},\n'
            f'      "scopes": {{\n'
            f'        "scope1": {{\n'
            f'          "type": "Scope1",\n'
            f'          "isAggregate": false,\n'
            f'          "energy": 0.0,\n'
            f'          "emissions": {dc.scope1!r}\n'
            f'        }},\n'
            f'        "scope2": {{\n'
            f'          "type": "Scope2",\n'
            f'          "isAggregate": false,\n'
            f'          "energy": {_scope2_energy(dc)!r},\n'
            f'          "emissions": {dc.scope2!r},\n'
            f'          "components": {{\n'
            f'{_component_json(dc, "server")},\n'
            f'{_component_json(dc, "network")},\n'
            f'{_component_json(dc, "cooling")},\n'
            f'{_component_json(dc, "other")}\n'
            f'          }},\n'
            f'          "devices": {{\n'
            f'            "servers": {_device_map(maps["server"])},\n'
            f'            "network": {_device_map(maps["network"])},\n'
            f'            "cooling": {_device_map(maps["cooling"])},\n'
            f'            "other": {_device_map(maps["other"])}\n'
            f'          }}\n'
            f'        }},\n'
            f'        "scope3": {{\n'
            f'          "type": "Scope3",\n'
            f'          "isAggregate": false,\n'
            f'          "energy": 0.0,\n'
            f'          "emissions": {dc.scope3!r}\n'
            f'        }}\n'
            f'      }}\n'
            f'    }}')


def _history_json(deltas: list[TrendDelta]) -> str:
    if not deltas:
        return "[]"
    entries = ",\n".join(
        f'      {{\n'
        f'        "period": "{delta.period}",\n'
        f'        "grossEmissions": {delta.gross.value!r},\n'
        f'        "netEmissions": {delta.net.value!r},\n'
        f'        "pctChange": '
        f'{"null" if delta.pct_change is None else _number(delta.pct_change)}\n'
        f'      }}'
        for delta in deltas)
    return f"[\n{entries}\n    ]"


def render_json(fp: Footprint, factors: EquivalencyFactors) -> ReportDocument:
    """Render the detailed JSON report with deterministic bytes.

    The text is written straight from the Footprint and is byte for byte what
    ``json.dumps(tree, indent=2, ensure_ascii=False) + "\\n"`` gives for the
    equivalent tree; ``audit`` checks every stored report against that
    reference. Key order is fixed, data center maps keep ``fp.per_dc`` order,
    device maps iterate in sorted id order, and numbers use shortest
    round-trip notation, so the same Footprint always yields the same bytes.
    Numbers must be Python ints and floats, as the engine and
    ``footprint_from_json`` produce them.
    """
    scope1_total = 0.0
    scope2_total = 0.0
    scope3_total = 0.0
    scope2_energy_total = 0.0
    green_total = 0.0
    rec_total = 0.0
    for dc in fp.per_dc:
        scope1_total += dc.scope1
        scope2_total += dc.scope2
        scope3_total += dc.scope3
        scope2_energy_total += _scope2_energy(dc)
        green_total += dc.green_offset
        rec_total += dc.rec_offset

    if fp.per_dc:
        dc_entries = ",\n".join(_dc_json(dc) for dc in fp.per_dc)
        datacenters = f"{{\n{dc_entries}\n  }}"
    else:
        datacenters = "{}"
    equivalents = compute_equivalencies(fp.gross_total, factors)
    net = fp.net_total.value

    text = (f'{{\n'
            f'  "schemaVersion": {JSON_SCHEMA_VERSION!r},\n'
            f'  "tenant": {{\n'
            f'    "tenantId": {_string(fp.tenant_id)},\n'
            f'    "displayName": {_string(fp.display_name)},\n'
            f'    "agentCount": {fp.agent_count!r}\n'
            f'  }},\n'
            f'  "period": "{fp.period}",\n'
            f'  "summary": {{\n'
            f'    "grossEmissions": {fp.gross_total.value!r},\n'
            f'    "netEmissions": {net!r},\n'
            f'    "perAgentEmissions": {fp.per_agent.value!r},\n'
            f'    "scopes": {{\n'
            f'      "scope1": {{\n'
            f'        "type": "Scope1",\n'
            f'        "isAggregate": true,\n'
            f'        "energy": 0.0,\n'
            f'        "emissions": {scope1_total!r}\n'
            f'      }},\n'
            f'      "scope2": {{\n'
            f'        "type": "Scope2",\n'
            f'        "isAggregate": true,\n'
            f'        "energy": {scope2_energy_total!r},\n'
            f'        "emissions": {scope2_total!r}\n'
            f'      }},\n'
            f'      "scope3": {{\n'
            f'        "type": "Scope3",\n'
            f'        "isAggregate": true,\n'
            f'        "energy": 0.0,\n'
            f'        "emissions": {scope3_total!r}\n'
            f'      }}\n'
            f'    }},\n'
            f'    "history": {_history_json(compute_trend(fp))}\n'
            f'  }},\n'
            f'  "equivalencies": {{\n'
            f'    "flightsAmsNyc": {_number(equivalents["flights"])},\n'
            f'    "carKm": {_number(equivalents["car_km"])},\n'
            f'    "smartphoneCharges": {_number(equivalents["charges"])},\n'
            f'    "factors": {{\n'
            f'      "flightAmsNycG": {factors.flight_ams_nyc.value!r},\n'
            f'      "carKmG": {factors.car_km.value!r},\n'
            f'      "smartphoneChargeG": {factors.smartphone_charge.value!r}\n'
            f'    }},\n'
            f'    "sourceNote": {_string(factors.source_note)}\n'
            f'  }},\n'
            f'  "offsets": {{\n'
            f'    "greenEnergyOffset": {green_total!r},\n'
            f'    "recOffset": {rec_total!r},\n'
            f'    "netEmissions": {net!r},\n'
            f'    "overOffset": {_bool(net < 0.0)}\n'
            f'  }},\n'
            f'  "datacenters": {datacenters}\n'
            f'}}\n')
    return ReportDocument(tenant_id=fp.tenant_id, period=fp.period,
                          content=text.encode("utf-8"))


# ---------------------------------------------------------------------------
# JSON parsing (the audit direction)
# ---------------------------------------------------------------------------


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ReportError(f"report JSON repeats the key {key!r}")
            seen.add(key)
    return doc


def _load_doc(source: bytes | str | dict[str, Any]) -> dict[str, Any]:
    """Parse a report strictly: UTF-8, valid JSON, an object, no repeated key.

    ``json.loads`` keeps the last of two equal keys, while a reader of the
    file (or another parser) may take the first, so a repeated key could
    make a report say two different things; it is refused.
    """
    if isinstance(source, dict):
        return source
    try:
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        doc = json.loads(source, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # bad UTF-8, bad JSON, or an int too long to parse
        raise ReportError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ReportError("report JSON must be an object")
    return doc


def factors_from_json(source: bytes | str | dict[str, Any]) -> EquivalencyFactors:
    """Recover the equivalency factors embedded in a rendered report."""
    doc = _load_doc(source)
    try:
        eq = doc["equivalencies"]
        f = eq["factors"]
        return EquivalencyFactors(
            flight_ams_nyc=EmissionsG(f["flightAmsNycG"]),
            car_km=EmissionsG(f["carKmG"]),
            smartphone_charge=EmissionsG(f["smartphoneChargeG"]),
            source_note=str(eq["sourceNote"]),
        )
    except (KeyError, TypeError) as exc:
        raise ReportError(f"report lacks equivalency factors: {exc}") from exc


def _counter(entry: dict[str, Any], key: str) -> int | float:
    """A device usage counter, which the writer emits with ``repr``."""
    value = entry[key]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not is_finite(value)):
        raise ReportError(f"malformed report JSON: {key} must be a finite "
                          f"number, got {value!r}")
    return value


def _device_from_entry(device_id: str, category: str,
                       entry: dict[str, Any]) -> DeviceShare:
    """One stored device entry as a record.

    A stored report is outside input, so each figure is checked as a unit
    value before it is kept as a float.
    """
    energy = EnergyWh(entry["energy"]).value
    emissions = EmissionsG(entry["emissions"]).value
    if category == "server":
        return DeviceShare(
            device_id, category, energy, emissions,
            device_model=str(entry["deviceModel"]),
            utilization=_counter(entry, "utilization"),
            cache_moved=_counter(entry, "cacheMoved"),
            dram_accessed=_counter(entry, "dramAccessed"),
            disk_moved=_counter(entry, "diskMoved"),
        )
    if category == "network":
        return DeviceShare(
            device_id, category, energy, emissions,
            device_type=str(entry["deviceType"]),
            bytes_sent=_counter(entry, "bytesSent"),
            bytes_received=_counter(entry, "bytesReceived"),
        )
    return DeviceShare(device_id, category, energy, emissions)


def footprint_from_json(source: bytes | str | dict[str, Any]) -> Footprint:
    """Rebuild a Footprint from a rendered JSON report.

    Every canonical field is restored exactly (floats round-trip losslessly);
    derived values in the file (aggregates, equivalencies, trend percentages,
    over-offset flags) are recomputed at the next render and therefore
    reproduce identically.
    """
    doc = _load_doc(source)
    try:
        if doc["schemaVersion"] != JSON_SCHEMA_VERSION:
            raise ReportError(
                f"unsupported report schemaVersion {doc['schemaVersion']!r}")
        tenant = doc["tenant"]
        tenant_id = str(tenant["tenantId"])
        period = Period.parse(doc["period"])

        per_dc: list[DcFootprint] = []
        for dc_id, dc_doc in doc["datacenters"].items():
            scopes = dc_doc["scopes"]
            component_energy: dict[str, float] = {}
            component_emissions: dict[str, float] = {}
            for name, comp in scopes["scope2"]["components"].items():
                component_energy[name] = EnergyWh(comp["energy"]).value
                component_emissions[name] = EmissionsG(comp["emissions"]).value
            scope1 = EmissionsG(scopes["scope1"]["emissions"]).value
            scope2 = EmissionsG(scopes["scope2"]["emissions"]).value
            scope3 = EmissionsG(scopes["scope3"]["emissions"]).value
            devices: list[DeviceShare] = []
            for map_name, category in (("servers", "server"), ("network", "network"),
                                       ("cooling", "cooling"), ("other", "other")):
                for device_id, entry in scopes["scope2"]["devices"][map_name].items():
                    devices.append(_device_from_entry(device_id, category, entry))
            responsibility = ResponsibilityRatio(
                tenant_id=tenant_id,
                datacenter_id=dc_id,
                scope2_share=Share(dc_doc["scope2Share"]),
                l_share=Share(dc_doc["lShare"]),
                ratio=Share(dc_doc["responsibility"]),
            )
            per_dc.append(DcFootprint(
                datacenter_id=dc_id,
                name=str(dc_doc["name"]),
                region=str(dc_doc["region"]),
                grid_intensity=CarbonIntensity(dc_doc["gridIntensity"]),
                responsibility=responsibility,
                scope1=scope1,
                scope2=scope2,
                scope3=scope3,
                component_energy=component_energy,
                component_emissions=component_emissions,
                gross=EmissionsG(dc_doc["grossEmissions"]).value,
                net=EmissionsG(dc_doc["netEmissions"], allow_negative=True).value,
                green_offset=EmissionsG(dc_doc["offsets"]["greenEnergyOffset"]).value,
                rec_offset=EmissionsG(dc_doc["offsets"]["recOffset"]).value,
                devices=tuple(devices),
            ))

        history = tuple(
            HistoryEntry(
                period=Period.parse(entry["period"]),
                gross=EmissionsG(entry["grossEmissions"]),
                net=EmissionsG(entry["netEmissions"], allow_negative=True),
            )
            for entry in doc["summary"]["history"]
        )
        agent_count = tenant["agentCount"]
        if (isinstance(agent_count, bool) or not isinstance(agent_count, int)
                or agent_count < 1 or not is_finite(agent_count)):
            raise ReportError("malformed report JSON: agentCount must be a whole "
                              f"number >= 1 within float range, got {agent_count!r}")
        return Footprint(
            tenant_id=tenant_id,
            display_name=str(tenant["displayName"]),
            agent_count=agent_count,
            period=period,
            per_dc=tuple(per_dc),
            gross_total=EmissionsG(doc["summary"]["grossEmissions"]),
            net_total=EmissionsG(doc["summary"]["netEmissions"],
                                 allow_negative=True),
            per_agent=EmissionsG(doc["summary"]["perAgentEmissions"]),
            history=history,
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ReportError(f"malformed report JSON: {exc!r}") from exc


# ---------------------------------------------------------------------------
# One-page rendering
# ---------------------------------------------------------------------------

_SCOPE_COLORS = {
    "Scope 1": "#8c564b",
    "Scope 2: servers": "#1f77b4",
    "Scope 2: network": "#17becf",
    "Scope 2: cooling": "#2ca02c",
    "Scope 2: other": "#98df8a",
    "Scope 3": "#9467bd",
}

_OFFSET_COLORS = {
    "Green energy offset": "#2ca02c",
    "REC offset": "#17becf",
    "Net (not offset)": "#7f7f7f",
}


def _fmt_grams(value: float) -> str:
    magnitude = abs(value)
    if magnitude >= 1e6:
        return f"{value / 1e6:,.2f} t CO₂e"
    if magnitude >= 1e3:
        return f"{value / 1e3:,.1f} kg CO₂e"
    return f"{value:,.1f} g CO₂e"


def _fmt_wh(value: float) -> str:
    magnitude = abs(value)
    if magnitude >= 1e6:
        return f"{value / 1e6:,.2f} MWh"
    if magnitude >= 1e3:
        return f"{value / 1e3:,.1f} kWh"
    return f"{value:,.1f} Wh"


def _pie_svg(slices: list[tuple[str, float, str]], chart_id: str) -> str:
    """A pie chart plus legend as one inline SVG.

    Zero-valued slices are dropped; a single surviving slice renders as a
    full circle (an arc spanning the whole turn is degenerate in SVG).
    """
    size = 128
    cx = cy = size / 2
    r = size / 2 - 2
    visible = [(label, value, color) for label, value, color in slices if value > 0]
    total = sum(value for _, value, _ in visible)

    parts = [f'<svg class="pie" id="{chart_id}" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}" role="img">']
    if total <= 0:
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="#dddddd"/>')
    elif len(visible) == 1:
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" '
                     f'fill="{visible[0][2]}"><title>{html.escape(visible[0][0])}'
                     f'</title></circle>')
    else:
        angle = -math.pi / 2
        for label, value, color in visible:
            span = value / total * 2 * math.pi
            x1 = cx + r * math.cos(angle)
            y1 = cy + r * math.sin(angle)
            x2 = cx + r * math.cos(angle + span)
            y2 = cy + r * math.sin(angle + span)
            large = 1 if span > math.pi else 0
            parts.append(
                f'<path d="M{cx:.3f},{cy:.3f} L{x1:.3f},{y1:.3f} '
                f'A{r:.3f},{r:.3f} 0 {large} 1 {x2:.3f},{y2:.3f} Z" '
                f'fill="{color}"><title>{html.escape(label)}</title></path>')
            angle += span
    parts.append("</svg>")
    return "".join(parts)


def _legend(slices: list[tuple[str, float, str]], total: float) -> str:
    rows = []
    for label, value, color in slices:
        pct = f"{value / total * 100:.1f}%" if total > 0 else "-"
        rows.append(
            f'<li><span class="swatch" style="background:{color}"></span>'
            f'{html.escape(label)}: {_fmt_grams(value)} ({pct})</li>')
    return '<ul class="legend">' + "".join(rows) + "</ul>"


_ONEPAGE_CSS = """
@page { size: A4 portrait; margin: 10mm; }
html, body { margin: 0; padding: 0; font-family: Helvetica, Arial, sans-serif;
             font-size: 9pt; color: #1a1a1a; }
.page { width: 190mm; height: 277mm; overflow: hidden; box-sizing: border-box;
        padding: 2mm; }
header h1 { font-size: 15pt; margin: 0; }
header p { margin: 1mm 0 3mm 0; color: #555; }
section { margin-bottom: 3mm; }
section h2 { font-size: 10.5pt; margin: 0 0 1.5mm 0; border-bottom: 1px solid #999;
             padding-bottom: 0.5mm; }
.figures { display: flex; gap: 4mm; }
.figure { flex: 1; background: #f4f6f4; padding: 2mm; border-radius: 1mm; }
.figure .label { font-size: 8pt; color: #555; }
.figure .value { font-size: 12pt; font-weight: bold; }
table { border-collapse: collapse; width: 100%; font-size: 8.5pt; }
th, td { text-align: left; padding: 0.6mm 2mm 0.6mm 0; border-bottom: 1px solid #ddd; }
.charts { display: flex; gap: 6mm; align-items: flex-start; }
.chart { display: flex; gap: 3mm; align-items: center; }
.legend { list-style: none; margin: 0; padding: 0; font-size: 8pt; }
.legend li { margin-bottom: 0.8mm; }
.swatch { display: inline-block; width: 7px; height: 7px; margin-right: 1.5mm; }
.badge { display: inline-block; padding: 0.5mm 2mm; border-radius: 1mm;
         font-size: 8pt; font-weight: bold; }
.badge.improving { background: #d9f2d9; color: #1a7a1a; }
.badge.worsening { background: #f7d9d9; color: #a02020; }
.badge.flat { background: #eeeeee; color: #555; }
footer.methodology-note { font-size: 7.5pt; color: #555; margin-top: 2mm; }
"""


def render_onepage(fp: Footprint, factors: EquivalencyFactors,
                   trend_thresholds: tuple[float, float] = DEFAULT_TREND_THRESHOLDS,
                   ) -> ReportDocument:
    """Render the single-page document with the five report sections.

    Sections: summary (gross/net/per-agent plus up to two months of trend),
    equivalencies, emissions-by-scope pie (Scope 2 split into its four
    categories), offsets pie, and a methodology footer listing every data
    center and the model parameters used. The page box is fixed to A4 content
    size with overflow hidden, so the document cannot spill onto a second
    printed page.
    """
    improve_at, worsen_at = trend_thresholds
    deltas = compute_trend(fp)
    equivalents = compute_equivalencies(fp.gross_total, factors)

    scope1_total = sum(dc.scope1 for dc in fp.per_dc)
    scope3_total = sum(dc.scope3 for dc in fp.per_dc)
    component_totals = {
        name: sum(dc.component_emissions[name] for dc in fp.per_dc)
        for name in ("server", "network", "cooling", "other")
    }

    # Trend badge against the most recent prior month, when comparable.
    badge = ""
    if deltas and deltas[0].pct_change is not None:
        pct = deltas[0].pct_change
        if pct <= -improve_at:
            cls, word = "improving", "improving"
        elif pct >= worsen_at:
            cls, word = "worsening", "worsening"
        else:
            cls, word = "flat", "flat"
        badge = (f'<span class="badge {cls}" data-trend="{word}">{word}: '
                 f'{pct:+.1f}% vs {deltas[0].period}</span>')

    trend_rows = "".join(
        f"<tr><td>{delta.period}</td><td>{_fmt_grams(delta.gross.value)}</td>"
        f"<td>{_fmt_grams(delta.net.value)}</td>"
        f"<td>{'n/a' if delta.pct_change is None else f'{delta.pct_change:+.1f}%'}"
        f"</td></tr>"
        for delta in deltas
    )
    trend_table = (
        "<table><thead><tr><th>Month</th><th>Gross</th><th>Net</th>"
        "<th>Change to current</th></tr></thead>"
        f"<tbody>{trend_rows}</tbody></table>"
        if deltas else "<p>No prior months on record yet.</p>"
    )

    scope_slices = [
        ("Scope 1", scope1_total, _SCOPE_COLORS["Scope 1"]),
        ("Scope 2: servers", component_totals["server"], _SCOPE_COLORS["Scope 2: servers"]),
        ("Scope 2: network", component_totals["network"], _SCOPE_COLORS["Scope 2: network"]),
        ("Scope 2: cooling", component_totals["cooling"], _SCOPE_COLORS["Scope 2: cooling"]),
        ("Scope 2: other", component_totals["other"], _SCOPE_COLORS["Scope 2: other"]),
        ("Scope 3", scope3_total, _SCOPE_COLORS["Scope 3"]),
    ]
    green_total = sum(dc.green_offset for dc in fp.per_dc)
    rec_total = sum(dc.rec_offset for dc in fp.per_dc)
    # The offsets chart decomposes gross into what each offset method covers
    # and what remains; an over-offset tenant has nothing remaining.
    offset_slices = [
        ("Green energy offset", green_total, _OFFSET_COLORS["Green energy offset"]),
        ("REC offset", rec_total, _OFFSET_COLORS["REC offset"]),
        ("Net (not offset)", max(fp.net_total.value, 0.0),
         _OFFSET_COLORS["Net (not offset)"]),
    ]

    methodology_dcs = "".join(
        f"<tr><td>{html.escape(dc.datacenter_id)}</td>"
        f"<td>{html.escape(dc.name)}</td><td>{html.escape(dc.region)}</td>"
        f"<td>{dc.grid_intensity.value:g} g/Wh</td>"
        f"<td>{dc.responsibility.scope2_share.value * 100:.2f}%</td>"
        f"<td>{dc.responsibility.l_share.value * 100:.0f}%</td>"
        f"<td>{_fmt_grams(dc.gross)}</td></tr>"
        for dc in fp.per_dc
    )

    over_note = ""
    if fp.net_total.value < 0.0:
        over_note = ("<p><strong>Offsets exceed gross emissions this period "
                     f"(net {_fmt_grams(fp.net_total.value)}).</strong></p>")

    doc = f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Carbon footprint {html.escape(fp.tenant_id)} {fp.period}</title>
<style>{_ONEPAGE_CSS}</style>
</head>
<body>
<main class="page">
<header>
<h1>Carbon footprint report: {html.escape(fp.display_name)}</h1>
<p>Tenant {html.escape(fp.tenant_id)} &middot; reporting period {fp.period} &middot;
{fp.agent_count:,} agents</p>
</header>

<section id="summary">
<h2>1. Summary</h2>
<div class="figures">
<div class="figure"><div class="label">Gross emissions</div>
<div class="value">{_fmt_grams(fp.gross_total.value)}</div></div>
<div class="figure"><div class="label">Net emissions (after offsets)</div>
<div class="value">{_fmt_grams(fp.net_total.value)}</div></div>
<div class="figure"><div class="label">Per agent (gross)</div>
<div class="value" id="per-agent">{_fmt_grams(fp.per_agent.value)}</div></div>
</div>
{over_note}
<div id="trend">{badge}{trend_table}</div>
</section>

<section id="equivalencies">
<h2>2. Emissions in perspective</h2>
<table><tbody>
<tr><td>One-way flights Amsterdam &rarr; New York</td>
<td>{equivalents['flights']:,.1f}</td></tr>
<tr><td>Kilometers driven by an average car</td>
<td>{equivalents['car_km']:,.1f}</td></tr>
<tr><td>Smartphones fully charged</td>
<td>{equivalents['charges']:,.1f}</td></tr>
</tbody></table>
</section>

<section id="scope-breakdown">
<h2>3. Emissions by scope</h2>
<div class="charts"><div class="chart">
{_pie_svg(scope_slices, "scope-pie")}
{_legend(scope_slices, fp.gross_total.value)}
</div></div>
</section>

<section id="offsets">
<h2>4. Offsets</h2>
<div class="charts"><div class="chart">
{_pie_svg(offset_slices, "offset-pie")}
{_legend(offset_slices, sum(v for _, v, _ in offset_slices))}
</div></div>
</section>

<section id="methodology">
<h2>5. Methodology &amp; data</h2>
<table><thead><tr><th>Data center</th><th>Name</th><th>Region</th>
<th>Grid intensity</th><th>Scope 2 share</th><th>Load share</th>
<th>Gross</th></tr></thead>
<tbody>{methodology_dcs}</tbody></table>
<footer class="methodology-note">
<p>Gross emissions follow the GHG Protocol scopes: Scope 1 is on-site fuel,
Scope 2 is purchased electricity (server and network device energy estimated
from usage counters, plus a proportional share of metered cooling and
facility energy), Scope 3 is the attributed share of the providers' indirect
emissions. Shared and indirect emissions are attributed by each tenant's
share of data center Scope 2 emissions times its load share. Net emissions
subtract the tenant's share of green energy and renewable energy
certificates. Total energy attributed this period:
{_fmt_wh(sum(_scope2_energy(dc) for dc in fp.per_dc))}.</p>
<p>Equivalency factors: {html.escape(factors.source_note)}</p>
</footer>
</section>
</main>
</body>
</html>
"""
    return ReportDocument(tenant_id=fp.tenant_id, period=fp.period,
                          content=doc.encode("utf-8"))
