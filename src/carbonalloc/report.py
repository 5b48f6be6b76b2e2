"""Report rendering: detailed JSON and a one-page human-readable document.

Both formats are pure functions of a Footprint plus the equivalency factors.
The JSON format is the audit interchange surface: key order is fixed, floats
use shortest round-trip notation, and ``footprint_from_json`` restores a
Footprint that re-renders to the identical bytes. Its schema is described
once, in the field table ``_REPORT`` below: the writer is generated from the
table, the parser checks stored reports against it, and ``report_identity``
and ``report_headline`` read single fields through it, so no other module
names a report key. The one-page format is a self-contained HTML document
(inline styles, inline SVG charts, no external assets) constrained to a
single sheet of A4.

Every figure is a plain float. Those of a stored report are checked once,
by the field table, before any record is built, so the parser,
``report_headline`` and ``factors_from_json`` pass them on unchecked; the
records then check what they derive. A stored report is accepted by one
rule: parse it, build the Footprint from its independent figures, render
that once with the report's own factors, and compare the rendering with
the report by ``report_differences``, the rule ``audit`` applies too. An
equivalency config is checked where it is loaded, by the same kinds.

Equivalency factors are configuration, not constants: the packaged sample
config documents its sources in ``source_note`` and operators are expected
to review the values.
"""

from __future__ import annotations

import json
import math
import re
import sys
from json.encoder import encode_basestring as _string
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

from .allocation import (
    AUDIT_TOLERANCE,
    DcFootprint,
    DeviceShare,
    Footprint,
    HistoryEntry,
)
from .errors import CarbonAllocError, UnitError
from .ingest import ID_PATTERN, NetworkUsage, ServerUsage
from .units import SCOPE2_COMPONENTS, CheckedRecord, Period, sum_in_order

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
    "report_differences",
    "Difference",
    "load_doc",
    "report_identity",
    "report_headline",
    "render_onepage",
    "JSON_SCHEMA_VERSION",
]

JSON_SCHEMA_VERSION = 1

# The change against the latest prior month, in percent either way, from
# which the trend badge reads improving or worsening rather than flat.
_TREND_CUTOFF = 5.0


class ReportError(CarbonAllocError):
    """A report file or equivalency config could not be parsed."""


class _EquivalencyFactors(NamedTuple):
    flight_ams_nyc: float
    car_km: float
    smartphone_charge: float
    source_note: str


class EquivalencyFactors(CheckedRecord, _EquivalencyFactors):
    """Emission equivalents used to put gross figures in perspective."""

    __slots__ = ()

    def __new__(cls, flight_ams_nyc: float, car_km: float, smartphone_charge: float,
                source_note: str) -> "EquivalencyFactors":
        for name, value in (("flight_ams_nyc", flight_ams_nyc), ("car_km", car_km),
                            ("smartphone_charge", smartphone_charge)):
            if not value >= 1.0:  # so gross / factor stays finite
                raise ReportError(f"equivalency factor {name} must be >= 1 g, "
                                  f"got {value!r}")
        return super().__new__(cls, flight_ams_nyc, car_km, smartphone_charge,
                               source_note)


class ReportDocument(NamedTuple):
    """A rendered report's bytes."""

    content: bytes


class TrendDelta(NamedTuple):
    """Comparison against one prior month; pct_change is None when the prior
    gross was zero (no meaningful percentage)."""

    period: Period
    gross: float
    net: float
    pct_change: float | None


def load_equivalency_factors(path: Path | str) -> EquivalencyFactors:
    """Load the three factors and their source note from a small JSON file,
    each checked by the field table's kind for its copy in a report."""
    path = Path(path)
    keys = ("flight_ams_nyc_g", "car_km_g", "smartphone_charge_g", "source_note")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
        values = [doc[key] for key in keys]
    except (OSError, ValueError, ReportError) as exc:
        raise ReportError(f"cannot read equivalency config {path}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise ReportError(f"equivalency config {path} needs {', '.join(keys)}: "
                          f"{exc}") from exc
    try:
        for key, value, kind in zip(keys, values, (_EMISSIONS,) * 3 + (_STRING,)):
            if not kind.test(value):
                raise ReportError(f"{key} must be {kind.what}, got {value!r}")
        *numbers, note = values
        return EquivalencyFactors(*map(float, numbers), note)
    except ReportError as exc:
        raise ReportError(f"equivalency config {path}: {exc}") from exc


def compute_equivalencies(gross: float,
                          factors: EquivalencyFactors) -> dict[str, float]:
    """Gross emissions expressed as flights, car km, and phone charges."""
    return {
        "flights": gross / factors.flight_ams_nyc,
        "car_km": gross / factors.car_km,
        "charges": gross / factors.smartphone_charge,
    }


def compute_trend(current: Footprint) -> list[TrendDelta]:
    """Month-over-month deltas against the footprint's prior periods."""
    deltas: list[TrendDelta] = []
    for prior in current.history:
        if prior.gross == 0.0:
            pct: float | None = None
        else:
            pct = (current.gross_total - prior.gross) / prior.gross * 100.0
        deltas.append(TrendDelta(period=prior.period, gross=prior.gross,
                                 net=prior.net, pct_change=pct))
    return deltas


# ---------------------------------------------------------------------------
# The report schema: one field table for the JSON writer and parser
# ---------------------------------------------------------------------------
# A report object is a dict from each JSON key to a nested object's dict or
# to ``(kind, accessor)``. The accessor is a Python expression over ``o``,
# the object being written; a nested object is written from the same ``o``.
# A kind's ``write`` is the value's f-string replacement field, ``@``
# standing for the accessor, and its ``test`` accepts the stored values the
# writer can have written. Aggregates, equivalencies, trend percentages and
# over-offset flags have no test. They are never read back, and neither are
# the figures a record derives (a data center's gross, say) or a device's
# emissions. The summary and offsets aggregates are totals the Footprint
# derives once from its data centers; the table only reads them. The parser
# renders the Footprint it builds and compares that with the report, so each
# must be spelled as the writer spells it for the other figures.


class _Kind(NamedTuple):
    write: str
    test: Callable[[Any], bool] | None = None
    what: str = ""


class _Items(NamedTuple):
    """A map of ``(key, o)`` pairs when ``keyed``, else a list of ``o``."""

    item: dict[str, Any]
    keyed: bool


def _const(value: Any) -> tuple[_Kind, None]:
    text = json.dumps(value)
    return _Kind(text, lambda v: type(v) is type(value) and v == value, text), None


def _range(lo: float, hi: float, what: str) -> _Kind:
    return _Kind("{@!r}", lambda v: type(v) in (int, float) and lo <= v <= hi, what)


_MAX = sys.float_info.max
_SURROGATE = re.compile("[\ud800-\udfff]")  # a str that UTF-8 cannot encode
_STRING = _Kind("{_string(@)}", lambda v: type(v) is str and not _SURROGATE.search(v),
                "a string UTF-8 can encode")
_ID = _Kind("{_string(@)}",
            lambda v: type(v) is str and ID_PATTERN.fullmatch(v) is not None,
            "an id (letters, digits, '_', '.' and '-', starting with a letter or digit, "
            "at most 255 characters)")
_PERIOD = _Kind('"{@}"', lambda v: type(v) is str and _is_period(v), "a YYYY-MM period")
_ENERGY = _EMISSIONS = _INTENSITY = _range(0.0, _MAX, "a finite number >= 0")
_NET = _COUNTER = _range(-_MAX, _MAX, "a finite number")
_SHARE = _range(0.0, 1.0, "a number in [0, 1]")
_AGENTS = _Kind("{@!r}", lambda v: type(v) is int and 1 <= v <= _MAX,
                "a whole number >= 1 within float range")
_DERIVED = _Kind("{_number(@)}")
_OVER_OFFSET = _Kind('{"true" if @ < 0.0 else "false"}')  # from a net figure


def _is_period(text: str) -> bool:
    try:
        return Period.parse(text) is not None
    except UnitError:
        return False


def _scope(name: str, aggregate: bool, energy: tuple, emissions: tuple,
           **more: Any) -> dict[str, Any]:
    return {"type": _const(name), "isAggregate": _const(aggregate),
            "energy": energy, "emissions": emissions, **more}


def _device(type_name: str, *label: tuple, **counters: tuple) -> dict[str, Any]:
    """A device entry: its label (model or type) if it has one, its energy
    and emissions, then its usage counters."""
    return {"type": _const(type_name), "isAggregate": _const(False), **dict(label),
            "energy": (_ENERGY, "o.energy_wh"),
            "emissions": (_EMISSIONS, "o.emissions_g"), **counters}


# Each device map's category, usage row type (None for shared devices) and
# entry. An entry is read back as a DeviceShare of its energy, whose
# emissions the parser derives, and of the row its other members are
# written from.
_DEVICES = {
    "servers": ("server", ServerUsage, _device(
        "ServerDevice", ("deviceModel", (_STRING, "o.usage.device_model")),
        utilization=(_COUNTER, "o.usage.cpu_utilization"),
        cacheMoved=(_COUNTER, "o.usage.cache_moved"),
        dramAccessed=(_COUNTER, "o.usage.dram_accessed"),
        diskMoved=(_COUNTER, "o.usage.disk_moved"))),
    "network": ("network", NetworkUsage, _device(
        "NetworkDevice", ("deviceType", (_STRING, "o.usage.device_type")),
        bytesSent=(_COUNTER, "o.usage.bytes_sent"),
        bytesReceived=(_COUNTER, "o.usage.bytes_received"))),
    "cooling": ("cooling", None, _device("SharedDevice")),
    "other": ("other", None, _device("SharedDevice")),
}
# Each map's entry keys and the usage row fields they are read back into.
_USAGE_FIELDS = {name: [(key, accessor[len("o.usage."):])
                        for key, (_, accessor) in item.items()
                        if accessor and accessor.startswith("o.usage.")]
                 for name, (_, _, item) in _DEVICES.items()}

_ZERO = _const(0.0)
_DATACENTER = {
    "name": (_STRING, "o.name"),
    "region": (_STRING, "o.region"),
    "gridIntensity": (_INTENSITY, "o.grid_intensity"),
    "scope2Share": (_SHARE, "o.scope2_share"),
    "lShare": (_SHARE, "o.l_share"),
    "responsibility": (_SHARE, "o.ratio"),
    "grossEmissions": (_EMISSIONS, "o.gross"),
    "netEmissions": (_NET, "o.net"),
    "overOffset": (_OVER_OFFSET, "o.net"),
    "offsets": {"greenEnergyOffset": (_EMISSIONS, "o.green_offset"),
                "recOffset": (_EMISSIONS, "o.rec_offset")},
    "scopes": {
        "scope1": _scope("Scope1", False, _ZERO, (_EMISSIONS, "o.scope1")),
        "scope2": _scope(
            "Scope2", False, (_DERIVED, "o.scope2_energy"), (_EMISSIONS, "o.scope2"),
            components={name: {
                "energy": (_ENERGY, f'o.component_energy["{name}"]'),
                "emissions": (_EMISSIONS, f'o.component_emissions["{name}"]')}
                for name in SCOPE2_COMPONENTS},
            devices={name: (_Items(item, True), f'_by_id(o, "{category}")')
                     for name, (category, _, item) in _DEVICES.items()}),
        "scope3": _scope("Scope3", False, _ZERO, (_EMISSIONS, "o.scope3"))},
}


# At the top level ``o`` is the Footprint, and ``factors`` and the
# equivalencies ``eq`` are written from as well.
_REPORT = {
    "schemaVersion": _const(JSON_SCHEMA_VERSION),
    "tenant": {"tenantId": (_ID, "o.tenant_id"),
               "displayName": (_STRING, "o.display_name"),
               "agentCount": (_AGENTS, "o.agent_count")},
    "period": (_PERIOD, "o.period"),
    "summary": {
        "grossEmissions": (_EMISSIONS, "o.gross_total"),
        "netEmissions": (_NET, "o.net_total"),
        "perAgentEmissions": (_EMISSIONS, "o.per_agent"),
        "scopes": {
            "scope1": _scope("Scope1", True, _ZERO, (_DERIVED, "o.scope1")),
            "scope2": _scope("Scope2", True, (_DERIVED, "o.scope2_energy"),
                             (_DERIVED, "o.scope2")),
            "scope3": _scope("Scope3", True, _ZERO, (_DERIVED, "o.scope3"))},
        "history": (_Items({"period": (_PERIOD, "o.period"),
                            "grossEmissions": (_EMISSIONS, "o.gross"),
                            "netEmissions": (_NET, "o.net"),
                            "pctChange": (_DERIVED, "o.pct_change")}, False),
                    "compute_trend(o)")},
    "equivalencies": {
        "flightsAmsNyc": (_DERIVED, 'eq["flights"]'),
        "carKm": (_DERIVED, 'eq["car_km"]'),
        "smartphoneCharges": (_DERIVED, 'eq["charges"]'),
        "factors": {
            "flightAmsNycG": (_EMISSIONS, "factors.flight_ams_nyc"),
            "carKmG": (_EMISSIONS, "factors.car_km"),
            "smartphoneChargeG": (_EMISSIONS, "factors.smartphone_charge")},
        "sourceNote": (_STRING, "factors.source_note")},
    "offsets": {"greenEnergyOffset": (_DERIVED, "o.green_offset"),
                "recOffset": (_DERIVED, "o.rec_offset"),
                "netEmissions": (_DERIVED, "o.net_total"),
                "overOffset": (_OVER_OFFSET, "o.net_total")},
    "datacenters": (_Items(_DATACENTER, True),
                    "[(dc.datacenter_id, dc) for dc in o.per_dc]"),
}


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------


def _number(value: float | None) -> str:
    """A derived number as ``json.dumps`` writes it, non-finite or None too;
    a finite float goes straight to ``repr``, which is what it calls."""
    if value is not None and math.isfinite(value):
        return repr(value)
    return json.dumps(value)


def _by_id(dc: DcFootprint, category: str) -> list[tuple[str, DeviceShare]]:
    """A category's shares by id, which ``DcFootprint`` keeps unique."""
    return sorted([(d.device_id, d) for d in dc.devices if d.category == category])


def _join(items: list, write: Callable[..., str], depth: int, keyed: bool) -> str:
    if not items:
        return "{}" if keyed else "[]"
    text = ",\n".join([write(k, o) for k, o in items] if keyed else map(write, items))
    return ("{\n%s\n%s}" if keyed else "[\n%s\n%s]") % (text, "  " * depth)


# The writer is generated from the table once, at import: one f-string per
# object, laid out as ``json.dumps(tree, indent=2, ensure_ascii=False)`` lays
# it out at its depth, and one function per map or list item. Strings go
# through ``_string``, finite numbers through ``repr`` as in the encoder. The
# generated source comes from the table alone, never from a report's content.
_WRITERS: dict[str, Any] = {
    "_string": _string, "_number": _number, "_join": _join, "_by_id": _by_id,
    "compute_trend": compute_trend}


def _text(spec: Any, depth: int) -> str:
    """The f-string source of a value whose key sits at ``depth``."""
    if type(spec) is dict:
        pad = "  " * (depth + 1)
        members = ",\n".join(f'{pad}"{key}": {_text(member, depth + 1)}'
                             for key, member in spec.items())
        return "{{\n" + members + "\n" + "  " * depth + "}}"
    kind, accessor = spec
    if type(kind) is _Kind:
        return kind.write.replace("@", accessor or "")
    head = "  " * (depth + 1) + ("{_string(k)}: " if kind.keyed else "")
    writer = _define("k, o" if kind.keyed else "o", head + _text(kind.item, depth + 1))
    return f"{{_join({accessor}, {writer}, {depth}, {kind.keyed})}}"


def _define(params: str, body: str) -> str:
    name = f"_write_{len(_WRITERS)}"
    exec(f"def {name}({params}):\n    return f'''{body}'''\n", _WRITERS)
    return name


_write_report = _WRITERS[_define("o, factors, eq", _text(_REPORT, 0) + "\n")]


def render_json(fp: Footprint, factors: EquivalencyFactors) -> ReportDocument:
    """Render the detailed JSON report with deterministic bytes.

    The text is byte for byte what ``json.dumps(tree, indent=2,
    ensure_ascii=False) + "\\n"`` gives for the equivalent tree, so a stored
    report in another layout can be compared through its parsed tree, as
    ``report_differences`` does. Data center maps keep ``fp.per_dc`` order
    and device maps sorted id order. Numbers must be Python ints and
    floats, as the engine and ``footprint_from_json`` produce them.
    """
    text = _write_report(fp, factors, compute_equivalencies(fp.gross_total, factors))
    return ReportDocument(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# JSON parsing (the audit direction)
# ---------------------------------------------------------------------------


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ReportError(f"JSON repeats the key {key!r}")
            seen.add(key)
    return doc


def load_doc(source: bytes | str | dict[str, Any]) -> dict[str, Any]:
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


def _malformed(path: str, problem: str) -> ReportError:
    return ReportError(f"malformed report JSON: {path}: {problem}")


def _check(value: Any, spec: Any, path: str) -> None:
    """Check a stored value, and an object's exact key set, against the
    table; ``ReportError`` names the dotted path of the first fault."""
    if type(spec) is dict:
        if type(value) is not dict:
            raise _malformed(path, "must be an object")
        prefix = f"{path}." if path else ""
        if value.keys() != spec.keys():
            missing = [key for key in spec if key not in value]
            if missing:
                raise _malformed(prefix + missing[0], "missing key")
            raise _malformed(prefix + next(k for k in value if k not in spec),
                             "unknown key")
        for key, member in spec.items():
            kind = member[0] if type(member) is tuple else None
            if type(kind) is _Kind and (kind.test is None or kind.test(value[key])):
                continue  # a good leaf, checked without a call
            _check(value[key], member, prefix + key)
        return
    kind = spec[0]
    if type(kind) is _Kind:
        if kind.test is not None and not kind.test(value):
            raise _malformed(path, f"must be {kind.what}, got {value!r}")
    elif type(value) is not (dict if kind.keyed else list):
        raise _malformed(path, "must be an object" if kind.keyed else "must be a list")
    else:
        for k, item in value.items() if kind.keyed else enumerate(value):
            _check(item, kind.item, f"{path}.{k}" if kind.keyed else f"{path}[{k}]")


def _stored(doc: dict[str, Any], *keys: str) -> Any:
    """The value at ``keys`` in a parsed report, checked through the table."""
    value: Any = doc
    spec: Any = _REPORT
    for i, key in enumerate(keys):
        if type(value) is not dict:
            raise _malformed(".".join(keys[:i]), "must be an object")
        if key not in value:
            raise _malformed(".".join(keys[:i + 1]), "missing key")
        value, spec = value[key], spec[key]
    _check(value, spec, ".".join(keys))
    return value


def report_identity(doc: dict[str, Any]) -> tuple[str, Period]:
    """The tenant id and period a parsed report is for."""
    return _stored(doc, "tenant", "tenantId"), Period.parse(_stored(doc, "period"))


def report_headline(doc: dict[str, Any]) -> tuple[float, float]:
    """The gross and net emissions of a parsed report's summary."""
    return (_stored(doc, "summary", "grossEmissions"),
            _stored(doc, "summary", "netEmissions"))


def factors_from_json(source: bytes | str | dict[str, Any]) -> EquivalencyFactors:
    """Recover the equivalency factors embedded in a rendered report."""
    doc = load_doc(source)
    f = _stored(doc, "equivalencies", "factors")
    return EquivalencyFactors(f["flightAmsNycG"], f["carKmG"], f["smartphoneChargeG"],
                              _stored(doc, "equivalencies", "sourceNote"))


def _dc_footprint(tenant_id: str, dc_id: str, dc: dict[str, Any]) -> DcFootprint:
    """A data center entry's record, built from its independent figures,
    whose device energies must add up as the engine's do. A device's usage
    row is rebuilt from its entry, with no ``source_ref``."""
    scopes = dc["scopes"]
    scope2 = scopes["scope2"]
    energy = {name: c["energy"] for name, c in scope2["components"].items()}
    intensity, l_share = dc["gridIntensity"], dc["lShare"]
    devices = tuple(
        DeviceShare(k, category, entry["energy"], entry["energy"] * intensity * l_share,
                    None if row is None else row(
                        datacenter_id=dc_id, device_id=k, tenant_id=tenant_id,
                        **{attr: entry[key] for key, attr in _USAGE_FIELDS[name]}))
        for name, (category, row, _) in _DEVICES.items()
        for k, entry in scope2["devices"][name].items())
    by_category = dict.fromkeys(SCOPE2_COMPONENTS, 0.0)
    for device in devices:
        by_category[device.category] += device.energy_wh
    for category, total in by_category.items():
        if not math.isclose(total, energy[category], rel_tol=AUDIT_TOLERANCE,
                            abs_tol=AUDIT_TOLERANCE):
            raise _malformed(f"datacenters.{dc_id}.scopes.scope2.devices",
                             f"{category} device energies sum to {total!r}, "
                             f"category total is {energy[category]!r}")
    return DcFootprint(
        datacenter_id=dc_id, name=dc["name"], region=dc["region"],
        grid_intensity=intensity, scope2_share=dc["scope2Share"], l_share=l_share,
        scope1=scopes["scope1"]["emissions"], scope3=scopes["scope3"]["emissions"],
        component_energy=energy,
        green_offset=dc["offsets"]["greenEnergyOffset"],
        rec_offset=dc["offsets"]["recOffset"],
        devices=devices)


class Difference(NamedTuple):
    """One place where a stored report departs from the writer's: a value
    whose JSON spelling differs, ``"<absent>"`` standing for a key that one
    side lacks, or, when ``key_order`` is set, an object that holds the
    writer's keys in another order."""

    path: str
    written: Any
    stored: Any
    key_order: bool = False


def report_differences(written: bytes,
                       stored: bytes | str | dict[str, Any]) -> list[Difference]:
    """Each difference of a stored report from ``written``, the bytes the
    writer writes for it, in document order: none if the bytes are equal,
    else those of the parsed trees. Leaves compare by their ``json.dumps``
    spelling, so ``-0.0`` differs from ``0.0`` and ``1`` from ``1.0``: the
    trees differ exactly when their ``json.dumps`` layouts do. An object's
    key order comes before its members, and the keys only the stored report
    has after the written ones."""
    if stored == written:
        return []
    return list(_differences(json.loads(written), load_doc(stored), ""))


def _differences(written: Any, stored: Any, path: str) -> Iterator[Difference]:
    if type(written) is dict and type(stored) is dict:
        if written.keys() == stored.keys() and list(written) != list(stored):
            yield Difference(path, list(written), list(stored), key_order=True)
        for key in [*written, *(k for k in stored if k not in written)]:
            at = f"{path}.{key}" if path else key
            if key not in stored:
                yield Difference(at, written[key], "<absent>")
            elif key not in written:
                yield Difference(at, "<absent>", stored[key])
            else:
                yield from _differences(written[key], stored[key], at)
    elif type(written) is list and type(stored) is list:
        for i in range(max(len(written), len(stored))):
            at = f"{path}[{i}]"
            if i >= len(stored):
                yield Difference(at, written[i], "<absent>")
            elif i >= len(written):
                yield Difference(at, "<absent>", stored[i])
            else:
                yield from _differences(written[i], stored[i], at)
    elif json.dumps(written) != json.dumps(stored):
        yield Difference(path, written, stored)


def footprint_from_json(source: bytes | str | dict[str, Any]) -> Footprint:
    """Rebuild a Footprint from a rendered JSON report, accepting the report
    only if the Footprint re-renders to it.

    The report is checked against the table first, so ``ReportError`` names
    the dotted path of a missing or unknown key or of a value the writer
    cannot have written. The Footprint is built from the independent
    figures alone, and rendered once with the report's own factors. That
    rendering must equal the report by :func:`report_differences`.
    Otherwise ``ReportError`` names the first difference in document order:
    a stored value the other figures do not give, such as a copy of a
    derived figure one ulp off or a ``-0.0`` the writer writes as ``0.0``,
    or an object whose keys are out of order.
    """
    doc = load_doc(source)
    _check(doc, _REPORT, "")
    tenant, summary = doc["tenant"], doc["summary"]
    try:
        fp = Footprint(
            tenant_id=tenant["tenantId"], display_name=tenant["displayName"],
            agent_count=tenant["agentCount"], period=Period.parse(doc["period"]),
            per_dc=tuple(_dc_footprint(tenant["tenantId"], dc_id, dc)
                         for dc_id, dc in doc["datacenters"].items()),
            history=tuple(HistoryEntry(Period.parse(entry["period"]),
                                       entry["grossEmissions"], entry["netEmissions"])
                          for entry in summary["history"]))
    except OverflowError as exc:  # stored integers adding up beyond float range
        raise ReportError(f"malformed report JSON: {exc}") from exc
    for at, written, stored, key_order in report_differences(
            render_json(fp, factors_from_json(doc)).content, source):
        if key_order:
            raise _malformed(at or "the report",
                             "key order differs from the canonical report")
        raise _malformed(at, f"stored {json.dumps(stored)}, but the report's "
                             f"other figures give {json.dumps(written)}")
    return fp


# ---------------------------------------------------------------------------
# One-page rendering
# ---------------------------------------------------------------------------

def _escape(text: str) -> str:
    # ``html.escape(text, quote=True)``'s replacements, in its order, without
    # importing ``html``, which would also load ``html.entities`` on every start.
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("'", "&#x27;"))


_GRAMS = ("t CO₂e", "kg CO₂e", "g CO₂e")
_WH = ("MWh", "kWh", "Wh")


def _fmt_amount(value: float, units: tuple[str, str, str] = _GRAMS) -> str:
    """``value`` in the largest of ``units`` (10^6, 10^3, 1) it reaches."""
    magnitude = abs(value)
    if magnitude >= 1e6:
        return f"{value / 1e6:,.2f} {units[0]}"
    if magnitude >= 1e3:
        return f"{value / 1e3:,.1f} {units[1]}"
    return f"{value:,.1f} {units[2]}"


def _pie_svg(slices: list[tuple[str, float, str]], chart_id: str) -> str:
    """A pie chart plus legend as one inline SVG.

    Zero-valued slices are dropped; a single surviving slice renders as a
    full circle (an arc spanning the whole turn is degenerate in SVG).
    """
    size = 128
    cx = cy = size / 2
    r = size / 2 - 2
    visible = [(label, value, color) for label, value, color in slices if value > 0]
    total = sum_in_order(value for _, value, _ in visible)

    parts = [f'<svg class="pie" id="{chart_id}" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}" role="img">']
    if total <= 0:
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="#dddddd"/>')
    elif len(visible) == 1:
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" '
                     f'fill="{visible[0][2]}"><title>{_escape(visible[0][0])}'
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
                f'fill="{color}"><title>{_escape(label)}</title></path>')
            angle += span
    parts.append("</svg>")
    return "".join(parts)


def _legend(slices: list[tuple[str, float, str]], total: float) -> str:
    rows = []
    for label, value, color in slices:
        pct = f"{value / total * 100:.1f}%" if total > 0 else "-"
        rows.append(
            f'<li><span class="swatch" style="background:{color}"></span>'
            f'{_escape(label)}: {_fmt_amount(value)} ({pct})</li>')
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


def render_onepage(fp: Footprint, factors: EquivalencyFactors) -> ReportDocument:
    """Render the single-page document with the five report sections.

    Sections: summary (gross/net/per-agent plus up to two months of trend),
    equivalencies, emissions-by-scope pie (Scope 2 split into its four
    categories), offsets pie, and a methodology footer listing every data
    center and the model parameters used. The page box is fixed to A4 content
    size with overflow hidden, so the document cannot spill onto a second
    printed page. Like the JSON report, it depends on ``fp`` and ``factors``
    alone, so the JSON report is enough to render it again.
    """
    deltas = compute_trend(fp)
    equivalents = compute_equivalencies(fp.gross_total, factors)

    # Trend badge against the most recent prior month, when comparable.
    badge = ""
    if deltas and deltas[0].pct_change is not None:
        pct = deltas[0].pct_change
        word = ("improving" if pct <= -_TREND_CUTOFF else
                "worsening" if pct >= _TREND_CUTOFF else "flat")
        badge = (f'<span class="badge {word}" data-trend="{word}">{word}: '
                 f'{pct:+.1f}% vs {deltas[0].period}</span>')

    trend_rows = "".join(
        f"<tr><td>{delta.period}</td><td>{_fmt_amount(delta.gross)}</td>"
        f"<td>{_fmt_amount(delta.net)}</td>"
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

    components = fp.component_emissions
    scope_slices = [
        ("Scope 1", fp.scope1, "#8c564b"),
        ("Scope 2: servers", components["server"], "#1f77b4"),
        ("Scope 2: network", components["network"], "#17becf"),
        ("Scope 2: cooling", components["cooling"], "#2ca02c"),
        ("Scope 2: other", components["other"], "#98df8a"),
        ("Scope 3", fp.scope3, "#9467bd"),
    ]
    # The offsets chart decomposes gross into what each offset method covers
    # and what remains; an over-offset tenant has nothing remaining.
    offset_slices = [
        ("Green energy offset", fp.green_offset, "#2ca02c"),
        ("REC offset", fp.rec_offset, "#17becf"),
        ("Net (not offset)", max(fp.net_total, 0.0), "#7f7f7f"),
    ]

    methodology_dcs = "".join(
        f"<tr><td>{_escape(dc.datacenter_id)}</td>"
        f"<td>{_escape(dc.name)}</td><td>{_escape(dc.region)}</td>"
        f"<td>{dc.grid_intensity:g} g/Wh</td>"
        f"<td>{dc.scope2_share * 100:.2f}%</td>"
        f"<td>{dc.l_share * 100:.0f}%</td>"
        f"<td>{_fmt_amount(dc.gross)}</td></tr>"
        for dc in fp.per_dc
    )

    over_note = ""
    if fp.net_total < 0.0:
        over_note = ("<p><strong>Offsets exceed gross emissions this period "
                     f"(net {_fmt_amount(fp.net_total)}).</strong></p>")

    doc = f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Carbon footprint {_escape(fp.tenant_id)} {fp.period}</title>
<style>{_ONEPAGE_CSS}</style>
</head>
<body>
<main class="page">
<header>
<h1>Carbon footprint report: {_escape(fp.display_name)}</h1>
<p>Tenant {_escape(fp.tenant_id)} &middot; reporting period {fp.period} &middot;
{fp.agent_count:,} agents</p>
</header>

<section id="summary">
<h2>1. Summary</h2>
<div class="figures">
<div class="figure"><div class="label">Gross emissions</div>
<div class="value">{_fmt_amount(fp.gross_total)}</div></div>
<div class="figure"><div class="label">Net emissions (after offsets)</div>
<div class="value">{_fmt_amount(fp.net_total)}</div></div>
<div class="figure"><div class="label">Per agent (gross)</div>
<div class="value" id="per-agent">{_fmt_amount(fp.per_agent)}</div></div>
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
{_legend(scope_slices, fp.gross_total)}
</div></div>
</section>

<section id="offsets">
<h2>4. Offsets</h2>
<div class="charts"><div class="chart">
{_pie_svg(offset_slices, "offset-pie")}
{_legend(offset_slices, sum_in_order(v for _, v, _ in offset_slices))}
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
{_fmt_amount(fp.scope2_energy, _WH)}.</p>
<p>Equivalency factors: {_escape(factors.source_note)}</p>
</footer>
</section>
</main>
</body>
</html>
"""
    return ReportDocument(doc.encode("utf-8"))
