"""The report JSON writer against ``json.dumps``, on generated footprints.

The writer lays the text out itself; these properties pin it to the
reference encoding (``json.dumps(indent=2, ensure_ascii=False)``) and to the
parse direction, over inputs the engine never produces: text with quotes,
backslashes, control and non-ASCII characters, empty device maps,
over-offset nets, and trend percentages that are undefined or overflow.
"""

import json

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from carbonalloc.allocation import (
    DcFootprint,
    DeviceShare,
    Footprint,
    HistoryEntry,
)
from carbonalloc.ingest import ID_PATTERN, NetworkUsage, ServerUsage
from carbonalloc.report import (
    EquivalencyFactors,
    ReportError,
    _WH,
    _fmt_amount,
    factors_from_json,
    footprint_from_json,
    render_json,
    render_onepage,
)
from carbonalloc.units import SCOPE2_COMPONENTS, Period

texts = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f é€😀'),
                          st.characters(exclude_categories=("Cs",))),
                max_size=10)
# A report's tenant id names its directory, so the parser takes ids alone.
ids = st.from_regex(ID_PATTERN, fullmatch=True)
amounts = st.one_of(st.floats(min_value=0.0, max_value=1e15),
                    st.integers(min_value=0, max_value=10**6))
fractions = st.floats(min_value=0.0, max_value=1.0)
counters = st.one_of(st.floats(min_value=0.0, max_value=1e12),
                     st.integers(min_value=0, max_value=2**64))
# Large enough, often enough, to push the net below zero (over-offset).
offsets = st.one_of(amounts, st.floats(min_value=1e15, max_value=1e17))
periods = st.builds(Period, st.integers(1, 9999), st.integers(1, 12))


@st.composite
def devices(draw, category, intensity, l_share, tenant_id, dc_id):
    device_id = draw(texts)
    energy = draw(amounts)
    emissions = energy * intensity * l_share
    usage = None
    if category == "server":
        usage = ServerUsage(
            dc_id, device_id, draw(texts), tenant_id, draw(fractions),
            draw(counters), draw(counters), draw(counters))
    elif category == "network":
        usage = NetworkUsage(
            dc_id, device_id, draw(texts), tenant_id,
            draw(st.integers(0, 2**64)), draw(st.integers(0, 2**64)))
    return DeviceShare(device_id, category, energy, emissions, usage)


@st.composite
def dc_footprints(draw, tenant_id, dc_id):
    intensity, l_share = draw(amounts), draw(fractions)
    shares, component_energy = [], {}
    for category in SCOPE2_COMPONENTS:
        # Unique ids within a map; an empty map is a common draw. A
        # category's energy is what its devices add up to, as in the engine.
        drawn = draw(st.lists(
            devices(category, intensity, l_share, tenant_id, dc_id), max_size=2,
            unique_by=lambda d: d.device_id))
        shares += drawn
        component_energy[category] = sum(d.energy_wh for d in drawn)
    return DcFootprint(
        datacenter_id=dc_id, name=draw(texts), region=draw(texts),
        grid_intensity=intensity, scope2_share=draw(fractions), l_share=l_share,
        scope1=draw(amounts), scope3=draw(amounts),
        component_energy=component_energy,
        green_offset=draw(offsets), rec_offset=draw(offsets),
        devices=tuple(shares))


# A prior gross of 0 leaves the percentage undefined (null); 1e-300 makes it
# overflow to infinity.
prior_gross = st.one_of(st.just(0.0), st.just(1e-300), amounts)


@st.composite
def footprints(draw):
    tenant_id = draw(ids)
    dc_ids = draw(st.lists(texts, max_size=2, unique=True))
    per_dc = tuple(draw(dc_footprints(tenant_id, dc_id)) for dc_id in dc_ids)
    agents = draw(st.integers(1, 10**6))
    history = draw(st.lists(
        st.builds(HistoryEntry, periods, prior_gross, st.floats(-1e15, 1e15)),
        max_size=2))
    return Footprint(
        tenant_id=tenant_id, display_name=draw(texts), agent_count=agents,
        period=draw(periods), per_dc=per_dc, history=tuple(history))


factor_sets = st.builds(
    EquivalencyFactors,
    *(st.floats(min_value=1.0, max_value=1e9) for _ in range(3)),
    source_note=texts)


@settings(max_examples=100, deadline=None)
@given(footprints(), factor_sets)
def test_writer_matches_json_dumps_and_round_trips(fp, factors):
    content = render_json(fp, factors).content
    reference = json.dumps(json.loads(content), indent=2, ensure_ascii=False)
    assert content == (reference + "\n").encode()
    again = footprint_from_json(content)
    assert render_json(again, factors_from_json(content)).content == content


# Each tenant total a report shows, as the Footprint field and the data
# center field it sums, and where the JSON report writes it.
TENANT_TOTALS = {
    "scope1": ("summary", "scopes", "scope1", "emissions"),
    "scope2": ("summary", "scopes", "scope2", "emissions"),
    "scope3": ("summary", "scopes", "scope3", "emissions"),
    "scope2_energy": ("summary", "scopes", "scope2", "energy"),
    "green_offset": ("offsets", "greenEnergyOffset"),
    "rec_offset": ("offsets", "recOffset"),
}


@settings(max_examples=100, deadline=None)
@given(footprints(), factor_sets)
def test_reports_show_the_tenant_totals_the_footprint_sums(fp, factors):
    """Footprint sums each tenant total once, in ``per_dc`` order, also when
    ``footprint_from_json`` builds it, and both reports only read it: the
    JSON summary and offsets write its ``repr``, and the one-page footer
    its Scope 2 energy."""
    content = render_json(fp, factors).content
    for built in (fp, footprint_from_json(content)):
        for name in TENANT_TOTALS:
            total = 0.0
            for dc in built.per_dc:
                total += getattr(dc, name)
            assert getattr(built, name).hex() == total.hex(), name
        assert list(built.component_emissions) == list(SCOPE2_COMPONENTS)
        for name in SCOPE2_COMPONENTS:
            total = 0.0
            for dc in built.per_dc:
                total += dc.component_emissions[name]
            assert built.component_emissions[name].hex() == total.hex(), name
        doc = json.loads(render_json(built, factors).content, parse_float=str)
        for name, path in TENANT_TOTALS.items():
            value = doc
            for key in path:
                value = value[key]
            assert value == repr(getattr(built, name)), path
        page = render_onepage(built, factors).content.decode("utf-8")
        assert (f"Total energy attributed this period:\n"
                f"{_fmt_amount(built.scope2_energy, _WH)}." in page)


def fixed_key_objects(node, path="", keys=()):
    """Each object of a parsed report whose key set the schema fixes, with
    its dotted path: every object but the data center and device maps."""
    if isinstance(node, list):
        for i, item in enumerate(node):
            yield from fixed_key_objects(item, f"{path}[{i}]", keys + (i,))
    elif isinstance(node, dict):
        # The maps: datacenters, and datacenters.<id>.scopes.scope2.devices.<map>.
        if keys != ("datacenters",) and (len(keys), keys[4:5]) != (6, ("devices",)):
            yield path, node
        for key, value in node.items():
            yield from fixed_key_objects(value, f"{path}.{key}" if path else key,
                                         keys + (key,))


# Shrinking a failure here runs for minutes and grows to hundreds of MB (the
# drawn path moves as the report shrinks); the unshrunk example already
# names the path that was not reported.
@settings(max_examples=100, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(footprints(), factor_sets, st.data())
def test_parser_names_an_added_or_removed_key(fp, factors, data):
    doc = json.loads(render_json(fp, factors).content)
    path, obj = data.draw(st.sampled_from(list(fixed_key_objects(doc))))
    added = data.draw(st.booleans())
    if added:
        key = data.draw(texts.filter(lambda k: k not in obj))
        obj[key] = 0.0
    else:
        key = data.draw(st.sampled_from(list(obj)))
        del obj[key]
    with pytest.raises(ReportError) as raised:
        footprint_from_json(doc)
    named = f"{path}.{key}" if path else key
    assert str(raised.value) == (f"malformed report JSON: {named}: "
                                 f"{'unknown' if added else 'missing'} key")
