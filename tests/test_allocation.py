"""Allocation engine: scope computations, ratios, footprints, conservation."""

import ast
import json
import math
import re
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from carbonalloc import allocation, reference
from carbonalloc.allocation import (
    DcFootprint,
    DeviceShare,
    Footprint,
    TenantDcScope2,
    compute_footprints,
    conservation_audit,
    fleet_totals,
    tenant_footprint,
)
from carbonalloc.errors import CarbonAllocError, IngestError, UnitError, UnknownTenant
from carbonalloc.history import HistoryStore
from carbonalloc.ingest import (
    DataCenter,
    FuelEntry,
    NetworkUsage,
    RawData,
    ServerUsage,
    SharedDevice,
    Tenant,
    assemble_raw_data,
    load_input_dir,
)
from carbonalloc.report import (
    EquivalencyFactors,
    ReportError,
    footprint_from_json,
    render_json,
)
from carbonalloc.synth import generate_fleet, write_fleet
from carbonalloc.units import SCOPE2_COMPONENTS, Period, sum_in_order
from conftest import intercept_model, scale_fleet

PERIOD = Period(2025, 6)

# The messages of phase 1's faults on the hand-built fleets below, whose
# records carry no source ref.
MISSING_M_7500 = r"^no calibrated power model for device model\(s\): M_7500$"
ZERO_SCOPE2 = (r"^data center 'DC_EU1' has Scope 1 or Scope 3 emissions to distribute "
               r"but zero Scope 2 emissions; responsibility shares are undefined$")


def make_dc(dc_id="DC_EU1", intensity=0.5, cooling=(), other=(), fuel=(),
            scope3=0.0, green=0.0, rec=0.0) -> DataCenter:
    return DataCenter(
        datacenter_id=dc_id, name=dc_id.replace("_", " ").title(), region="eu-west",
        grid_intensity=intensity,
        cooling_devices=tuple(SharedDevice(i, e) for i, e in cooling),
        other_devices=tuple(SharedDevice(i, e) for i, e in other),
        fuel_log=tuple(FuelEntry(i, a, f) for i, a, f in fuel),
        scope3_total=scope3, green_energy=green, rec_offset=rec,
    )


def make_tenant(tenant_id, dc_ids, agents=100, l_share=1.0) -> Tenant:
    return Tenant(tenant_id=tenant_id, display_name=tenant_id.title(),
                  agent_count=agents, datacenter_ids=tuple(dc_ids),
                  l_share=l_share)


def server(dc_id, device_id, model, tenant_id) -> ServerUsage:
    return ServerUsage(datacenter_id=dc_id, device_id=device_id,
                       device_model=model, tenant_id=tenant_id,
                       cpu_utilization=0.5, cache_moved=0.0, dram_accessed=0.0,
                       disk_moved=0.0)


def two_tenant_raw(**dc_kwargs) -> RawData:
    """TENANT_A at 2500 Wh direct, TENANT_B at 7500 Wh direct, one DC."""
    dc = make_dc(**dc_kwargs)
    return assemble_raw_data(
        period=PERIOD,
        datacenters={dc.datacenter_id: dc},
        tenants={"TENANT_A": make_tenant("TENANT_A", [dc.datacenter_id]),
                 "TENANT_B": make_tenant("TENANT_B", [dc.datacenter_id])},
        servers=(server(dc.datacenter_id, "SRV_A", "M_2500", "TENANT_A"),
                 server(dc.datacenter_id, "SRV_B", "M_7500", "TENANT_B")),
        network=(),
    )


TWO_TENANT_MODELS = {"M_2500": intercept_model("M_2500", 2500.0),
                     "M_7500": intercept_model("M_7500", 7500.0)}


def idle_raw(**dc_kwargs) -> RawData:
    """TENANT_A on one DC with no usage rows: a zero Scope 2 total."""
    return assemble_raw_data(
        period=PERIOD, datacenters={"DC_EU1": make_dc(**dc_kwargs)},
        tenants={"TENANT_A": make_tenant("TENANT_A", ["DC_EU1"])},
        servers=(), network=(),
    )


class TestComputeScope2:
    def test_fixture_figures_are_exact(self, fictitious_raw, fictitious_models):
        (fp,) = compute_footprints(fictitious_raw, fictitious_models)
        assert fp.tenant_id == "TENANT_X"
        (dc,) = fp.per_dc
        assert dc.component_energy == {"server": 100000.0, "network": 120000.0,
                                       "cooling": 4000000.0, "other": 280000.0}
        assert dc.scope2_energy == 4500000.0
        assert dc.scope2 == 1800000.0

    def test_per_device_detail_carries_source_figures(self, fictitious_raw,
                                                      fictitious_models):
        (fp,) = compute_footprints(fictitious_raw, fictitious_models)
        by_id = {d.device_id: d for d in fp.per_dc[0].devices}
        srv = by_id["SERVER_1234"]
        assert isinstance(srv, DeviceShare)
        assert srv.category == "server"
        assert srv.usage is fictitious_raw.servers[0]
        assert srv.usage.device_model == "ABC_987"
        assert (srv.usage.cpu_utilization, srv.usage.cache_moved) == (0.10, 2e7)
        assert srv.emissions_g == 40000.0
        net = by_id["NETWORK_DEVICE_1234"]
        assert isinstance(net, DeviceShare)
        assert net.category == "network"
        assert net.usage is fictitious_raw.network[0]
        assert net.usage.bytes_sent == 10**12
        assert net.emissions_g == 48000.0  # 120000 Wh x 0.4 g/Wh
        assert by_id["CRAC_1"].category == "cooling"
        assert by_id["PDU_1"].category == "other"
        assert by_id["CRAC_1"].usage is by_id["PDU_1"].usage is None

    def test_each_device_share_holds_its_usage_row(self, tmp_path, factors):
        """Every server and network share holds the very row ingest read,
        with its ``file:line``; a shared device holds none. The report's
        parser rebuilds each row without its ``source_ref``, which rows
        ignore when compared, so the re-parsed footprint equals the
        engine's."""
        fleet = generate_fleet(seed=1, n_tenants=4, n_dcs=2)
        write_fleet(fleet, tmp_path)
        raw = load_input_dir(tmp_path, PERIOD)
        rows = {(row.tenant_id, row.datacenter_id, row.device_id): row
                for row in (*raw.servers, *raw.network)}
        seen = Counter()
        for fp in compute_footprints(raw, fleet.models):
            for dc in fp.per_dc:
                for share in dc.devices:
                    seen[share.category] += 1
                    if share.category in ("cooling", "other"):
                        assert share.usage is None
                        continue
                    row = rows[(fp.tenant_id, dc.datacenter_id, share.device_id)]
                    assert share.usage is row
                    assert type(row) is {"server": ServerUsage,
                                         "network": NetworkUsage}[share.category]
                    assert re.fullmatch(r"(servers|network)\.csv:\d+",
                                        row.source_ref)
            assert footprint_from_json(render_json(fp, factors).content) == fp
        assert min(seen[c] for c in SCOPE2_COMPONENTS) > 0
        assert seen["server"] + seen["network"] == len(rows)

    def test_shared_energy_splits_by_direct_ratio(self):
        raw = two_tenant_raw(cooling=(("CRAC_1", 10000.0),),
                             other=(("PDU_1", 400.0),))
        energy = {fp.tenant_id: fp.per_dc[0].component_energy
                  for fp in compute_footprints(raw, TWO_TENANT_MODELS)}
        assert energy["TENANT_A"]["cooling"] == 2500.0
        assert energy["TENANT_B"]["cooling"] == 7500.0
        assert energy["TENANT_A"]["other"] == 100.0
        assert energy["TENANT_B"]["other"] == 300.0

    def test_declared_dc_without_usage_gets_zero_entry(self):
        dc1, dc2 = make_dc("DC_1"), make_dc("DC_2")
        raw = assemble_raw_data(
            period=PERIOD,
            datacenters={"DC_1": dc1, "DC_2": dc2},
            tenants={"TENANT_A": make_tenant("TENANT_A", ["DC_1", "DC_2"])},
            servers=(server("DC_1", "SRV_A", "M_2500", "TENANT_A"),),
            network=(),
        )
        (fp,) = compute_footprints(raw, TWO_TENANT_MODELS)
        dc2 = {dc.datacenter_id: dc for dc in fp.per_dc}["DC_2"]
        assert dc2.component_energy == dict.fromkeys(SCOPE2_COMPONENTS, 0.0)
        assert dc2.scope2 == 0.0
        assert dc2.devices == ()

    def test_missing_model_fails_before_any_estimation(self):
        raw = two_tenant_raw()
        with pytest.raises(IngestError, match=MISSING_M_7500):
            compute_footprints(raw, {"M_2500": TWO_TENANT_MODELS["M_2500"]})

    def test_emissions_product_invariant_enforced_on_construction(self):
        """Emissions are derived from the energies and cannot be passed in."""
        energy = dict(zip(SCOPE2_COMPONENTS, (100.0, 0.0, 0.0, 0.0)))
        with pytest.raises(TypeError):
            TenantDcScope2(
                tenant_id="T", datacenter_id="D", component_energy=energy,
                emissions=999.0, per_device=(), c_dc=0.5, l_share=1.0,
            )
        entry = TenantDcScope2(
            tenant_id="T", datacenter_id="D", component_energy=energy,
            per_device=(DeviceShare("S", "server", 100.0, 50.0),),
            c_dc=0.5, l_share=1.0)
        assert entry.emissions == 50.0
        with pytest.raises(ValueError, match="derives emissions"):
            entry._replace(emissions=999.0)
        assert entry._replace(c_dc=0.25).emissions == 25.0


class TestResponsibilityRatios:
    def test_sole_tenant_owns_everything(self, fictitious_raw, fictitious_models):
        (fp,) = compute_footprints(fictitious_raw, fictitious_models)
        assert fp.per_dc[0].scope2_share == 1.0
        assert fp.per_dc[0].ratio == 1.0

    def test_quarter_share_is_exact(self):
        raw = two_tenant_raw()  # intensity 0.5: emissions 1250 and 3750
        assert {fp.tenant_id: fp.per_dc[0].scope2_share
                for fp in compute_footprints(raw, TWO_TENANT_MODELS)} == {
            "TENANT_A": 0.25, "TENANT_B": 0.75}

    def test_ratio_is_share_times_load_share(self):
        raw = two_tenant_raw()
        raw = raw._replace(tenants={
            tid: t._replace(l_share=0.5)
            for tid, t in raw.tenants.items()})
        ratios = {fp.tenant_id: fp.per_dc[0].ratio
                  for fp in compute_footprints(raw, TWO_TENANT_MODELS)}
        assert ratios["TENANT_A"] == 0.25 * 0.5
        assert ratios["TENANT_B"] == 0.75 * 0.5

    def test_shares_sum_to_one_per_datacenter(self):
        fleet = generate_fleet(seed=5, n_tenants=9, n_dcs=2)
        by_dc: dict[str, float] = {}
        for fp in compute_footprints(fleet.raw, fleet.models):
            for dc in fp.per_dc:
                by_dc[dc.datacenter_id] = (by_dc.get(dc.datacenter_id, 0.0)
                                           + dc.scope2_share)
        for total in by_dc.values():
            assert math.isclose(total, 1.0, rel_tol=1e-9)

    def test_zero_scope2_with_fuel_to_distribute_raises(self):
        with pytest.raises(CarbonAllocError, match=ZERO_SCOPE2):
            fleet_totals(idle_raw(fuel=(("GEN_1", 1000.0, 2.5),)), {})

    def test_zero_scope2_with_nothing_to_distribute_is_all_zero(self):
        (fp,) = compute_footprints(idle_raw(), {})
        assert fp.per_dc[0].scope2_share == 0.0
        assert fp.per_dc[0].ratio == 0.0

    def test_ratio_consistency_enforced_on_construction(self):
        """A data center footprint derives its ratio from the two shares;
        the ratio cannot be replaced, and replacing a share derives it again."""
        dc = tenant_a_dc()
        assert (dc.scope2_share, dc.l_share, dc.ratio) == (0.25, 1.0, 0.25)
        with pytest.raises(ValueError, match="derives ratio"):
            dc._replace(ratio=0.3)
        assert dc._replace(l_share=0.5).ratio == 0.125

    def test_each_dc_footprint_is_scaled_by_the_ratio_it_reports(self):
        """Scope 1, Scope 3 and both offsets are the data center's figures
        times the ``ratio`` its footprint derives, bit for bit, in
        ``compute_footprints`` and in ``tenant_footprint``."""
        fleet = generate_fleet(seed=314, n_tenants=12, n_dcs=4, l_share=0.75)
        raw = fleet.raw
        footprints = compute_footprints(raw, fleet.models)
        footprints.append(tenant_footprint(raw, fleet.models, footprints[5].tenant_id))
        per_dc = [dc for fp in footprints for dc in fp.per_dc]
        assert all(0.0 < dc.ratio < dc.scope2_share for dc in per_dc)
        assert any(dc.scope1 > 0.0 for dc in per_dc)
        assert all(dc.scope3 > 0.0 and dc.green_offset > 0.0 and dc.rec_offset > 0.0
                   for dc in per_dc)
        for dc in per_dc:
            source = raw.datacenters[dc.datacenter_id]
            r = dc.ratio
            assert r.hex() == (dc.scope2_share * dc.l_share).hex()
            scope1 = 0.0
            for fuel in sorted(source.fuel_log, key=lambda f: f.device_id):
                scope1 += fuel.amount * fuel.emission_factor * r
            assert dc.scope1.hex() == scope1.hex()
            assert dc.scope3.hex() == (source.scope3_total * r).hex()
            assert dc.green_offset.hex() == (
                source.green_energy * source.grid_intensity * r).hex()
            assert dc.rec_offset.hex() == (source.rec_offset * r).hex()


def tenant_a_dc(**dc_kwargs) -> DcFootprint:
    """TENANT_A's footprint in ``two_tenant_raw``, where its ratio is 0.25.

    A shared cooling device of 4(x - 2500) Wh raises TENANT_A's Scope 2
    energy to x Wh and TENANT_B's to 3x Wh, so the ratio stays 0.25.
    """
    fp = compute_footprints(two_tenant_raw(**dc_kwargs), TWO_TENANT_MODELS)[0]
    (dc,) = fp.per_dc
    assert (fp.tenant_id, dc.ratio) == ("TENANT_A", 0.25)
    return dc


class TestScope1:
    def test_fuel_share_is_exact(self):
        dc = tenant_a_dc(fuel=(("GEN_1", 1000.0, 2.5),))
        assert dc.scope1 == 625.0

    def test_multiple_devices_summed(self):
        dc = tenant_a_dc(fuel=(("GEN_2", 500.0, 2.0), ("GEN_1", 1000.0, 2.5)))
        assert dc.scope1 == 625.0 + 250.0

    def test_no_fuel_is_zero(self):
        assert tenant_a_dc().scope1 == 0.0

    def test_fuel_log_is_summed_in_device_id_order(self):
        """A fuel log listed out of device-id order: each tenant's Scope 1
        is the id-order sum, which here differs from the file-order sum as a
        float, and the conservation audit, which sums in the same order,
        passes."""
        fuel = (("GEN_3", 0.1, 1.0), ("GEN_2", 0.7, 1.0), ("GEN_1", 0.3, 1.0))
        raw = two_tenant_raw(fuel=fuel)
        footprints = compute_footprints(raw, TWO_TENANT_MODELS)
        for fp in footprints:
            (dc,) = fp.per_dc
            in_file_order = in_id_order = 0.0
            for _, amount, factor in fuel:
                in_file_order += amount * factor * dc.ratio
            for _, amount, factor in sorted(fuel):
                in_id_order += amount * factor * dc.ratio
            assert in_file_order != in_id_order
            assert dc.scope1.hex() == in_id_order.hex()
        assert conservation_audit(footprints, raw, TWO_TENANT_MODELS).passed


class TestScope3:
    def test_share_of_total_is_exact(self):
        assert tenant_a_dc(scope3=500000.0).scope3 == 125000.0

    def test_zero_total(self):
        assert tenant_a_dc().scope3 == 0.0


class TestGrossAndNet:
    def test_gross_is_scope_sum(self):
        dc = tenant_a_dc(cooling=(("CRAC_1", 5750000.0),),  # scope2 = 720000 g
                         fuel=(("GEN_1", 1000.0, 2.5),), scope3=500000.0)
        assert dc.scope2 == 720000.0
        assert dc.gross == 845625.0

    def test_net_subtracts_scaled_offsets(self):
        dc = tenant_a_dc(intensity=0.4, cooling=(("CRAC_1", 17990000.0),),
                         green=4000000.0, rec=800000.0)
        assert dc.gross == 1800000.0
        assert dc.green_offset == 400000.0
        assert dc.rec_offset == 200000.0
        assert dc.net == 1200000.0

    def test_offsets_scale_by_responsibility(self):
        dc = tenant_a_dc(intensity=0.4, cooling=(("CRAC_1", 4490000.0),),
                         green=1000000.0, rec=200000.0)
        assert dc.gross == 450000.0
        assert dc.green_offset == 100000.0
        assert dc.rec_offset == 50000.0
        assert dc.net == 300000.0

    def test_zero_offsets_leave_gross_untouched(self):
        dc = tenant_a_dc(intensity=0.4, cooling=(("CRAC_1", 17990000.0),))
        assert dc.net == 1800000.0

    def test_over_offset_goes_negative_and_is_flagged(self, factors):
        dc = tenant_a_dc(intensity=0.04, rec=2000.0)
        assert dc.gross == 100.0
        assert dc.net == -400.0
        fp = compute_footprints(two_tenant_raw(intensity=0.04, rec=2000.0),
                                TWO_TENANT_MODELS)[0]
        doc = json.loads(render_json(fp, factors).content)
        assert doc["datacenters"]["DC_EU1"]["overOffset"] is True


class TestDcFootprint:
    def test_component_keys_must_match_exactly(self):
        dc = tenant_a_dc()
        components = dict(dc.component_energy)
        del components["other"]
        with pytest.raises(UnitError, match="must have exactly the keys"):
            dc._replace(component_energy=components)

    def test_component_sum_must_match_scope2(self):
        """The ratio, Scope 2, its components, gross and net are derived and
        cannot be passed in."""
        dc = tenant_a_dc()
        derived = ("ratio", "scope2", "component_emissions", "gross", "net")
        arguments = {name: value for name, value in zip(dc._fields, dc)
                     if name not in derived}
        assert DcFootprint(**arguments) == dc
        with pytest.raises(TypeError):
            DcFootprint(**arguments, scope2=dc.scope2 * 0.9)
        for name in derived:
            with pytest.raises(ValueError, match=f"derives {name}"):
                dc._replace(**{name: getattr(dc, name)})

    def test_repeated_device_rejected(self):
        """A report keys each category's devices by id, so a second share of
        the same category and id would be dropped from it; one id in two
        categories is two devices."""
        dc = tenant_a_dc()
        twice = (DeviceShare("S1", "server", 10.0, 5.0),
                 DeviceShare("S1", "server", 20.0, 10.0))
        energy = {**dc.component_energy, "server": 30.0}
        with pytest.raises(UnitError, match="repeat the server device 'S1'"):
            dc._replace(component_energy=energy, devices=twice)
        apart = dc._replace(devices=(DeviceShare("S1", "server", 10.0, 5.0),
                                     DeviceShare("S1", "network", 20.0, 10.0)))
        assert len(apart.devices) == 2

    def test_component_name_order_is_canonical(self):
        assert SCOPE2_COMPONENTS == ("server", "network", "cooling", "other")


class TestComputeFootprints:
    def test_fixture_headline_figures(self, fictitious_raw, fictitious_models):
        (fp,) = compute_footprints(fictitious_raw, fictitious_models)
        assert fp.tenant_id == "TENANT_X"
        assert fp.gross_total == 1800000.0
        assert fp.net_total == 1800000.0  # no offsets configured
        assert fp.per_agent == 7200.0
        (dc,) = fp.per_dc
        assert dc.scope1 == 0.0
        assert dc.scope2 == 1800000.0
        assert dc.scope3 == 0.0
        assert dc.component_energy["server"] == 100000.0
        assert dc.component_energy["network"] == 120000.0
        assert len(dc.devices) == 4

    def test_output_order_is_deterministic(self):
        fleet = generate_fleet(seed=11, n_tenants=6, n_dcs=3)
        footprints = compute_footprints(fleet.raw, fleet.models)
        assert [fp.tenant_id for fp in footprints] == sorted(fleet.raw.tenants)
        for fp in footprints:
            dc_ids = [dc.datacenter_id for dc in fp.per_dc]
            assert dc_ids == sorted(dc_ids)

    def test_matches_independent_reimplementation(self):
        """The plain-loop reference recomputes every tenant's gross and net."""
        fleet = generate_fleet(seed=123, n_tenants=8, n_dcs=3)
        raw, models = fleet.raw, fleet.models
        expected = reference.expected_figures(raw, models)
        for fp in compute_footprints(raw, models):
            pairs = [expected[dc_id].pairs[fp.tenant_id]
                     for dc_id in raw.tenants[fp.tenant_id].datacenter_ids]
            assert math.isclose(fp.gross_total, sum_in_order(p.gross for p in pairs),
                                rel_tol=1e-9)
            assert math.isclose(fp.net_total, sum_in_order(p.net for p in pairs),
                                rel_tol=1e-9)

    def test_changing_rec_offset_leaves_gross_and_shares_alone(self):
        fleet = generate_fleet(seed=77, n_tenants=5, n_dcs=2)
        raw = fleet.raw
        target_dc = sorted(raw.datacenters)[0]
        bumped = dict(raw.datacenters)
        bumped[target_dc] = raw.datacenters[target_dc]._replace(
            rec_offset=raw.datacenters[target_dc].rec_offset + 12345.0)
        raw2 = RawData(period=raw.period, servers=raw.servers,
                       network=raw.network, datacenters=bumped,
                       tenants=raw.tenants)
        before = {fp.tenant_id: fp for fp in compute_footprints(raw, fleet.models)}
        after = {fp.tenant_id: fp for fp in compute_footprints(raw2, fleet.models)}
        for tid, fp in after.items():
            assert fp.gross_total == before[tid].gross_total
            for dc_after, dc_before in zip(fp.per_dc, before[tid].per_dc):
                assert dc_after.ratio == dc_before.ratio
                if dc_after.datacenter_id != target_dc:
                    assert dc_after.net == dc_before.net

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), green=st.floats(1.0, 1e6),
           rec=st.floats(1.0, 1e6))
    def test_raising_one_datacenters_offsets_moves_only_its_tenants_nets(
            self, seed, green, rec):
        """Offsets come off net only: raising one data center's green energy
        and REC offset in datacenters.csv leaves every gross, and the net of
        every tenant outside it, bit for bit as they were."""
        fleet = generate_fleet(seed, n_tenants=8, n_dcs=4)
        users = Counter(dc for t in fleet.raw.tenants.values()
                        for dc in t.datacenter_ids)
        target = min(sorted(users), key=users.__getitem__)
        outside = {tid for tid, t in fleet.raw.tenants.items()
                   if target not in t.datacenter_ids}
        assume(outside)
        with tempfile.TemporaryDirectory() as tmp:
            write_fleet(fleet, tmp)
            before = load_input_dir(tmp, fleet.raw.period)
            path = Path(tmp) / "datacenters.csv"
            lines = path.read_text(encoding="utf-8").splitlines()
            header = lines[1].split(",")
            for i, line in enumerate(lines):
                cells = line.split(",")
                if cells[0] == target:
                    for column, raise_by in (("green_energy", green),
                                             ("rec_offset", rec)):
                        at = header.index(column)
                        cells[at] = repr(float(cells[at]) + raise_by)
                    lines[i] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            after = load_input_dir(tmp, fleet.raw.period)
        assert after.datacenters[target] != before.datacenters[target]
        old = {fp.tenant_id: fp for fp in compute_footprints(before, fleet.models)}
        new = {fp.tenant_id: fp for fp in compute_footprints(after, fleet.models)}
        assert new.keys() == old.keys()
        for tid, fp in new.items():
            assert fp.gross_total.hex() == old[tid].gross_total.hex()
            if tid in outside:
                assert fp.net_total.hex() == old[tid].net_total.hex()
        assert any(new[tid].net_total < old[tid].net_total
                   for tid in new.keys() - outside)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n_tenants=st.integers(1, 5),
           n_dcs=st.integers(1, 3), l_share=st.sampled_from([1.0, 0.75]))
    def test_doubling_every_energy_doubles_scope2_and_keeps_every_share(
            self, seed, n_tenants, n_dcs, l_share):
        """Scale invariance: doubling every model coefficient and intercept,
        every byte counter and every metered shared energy doubles each
        energy and each pair's Scope 2 exactly, and leaves every share, and
        so Scope 1 and Scope 3, bit for bit as they were. Doubling is exact
        in binary floating point, so no tolerance is needed."""
        fleet = generate_fleet(seed, n_tenants, n_dcs, l_share=l_share)
        before = compute_footprints(fleet.raw, fleet.models)
        after = compute_footprints(*scale_fleet(fleet.raw, fleet.models, 2))
        assert [fp.tenant_id for fp in after] == [fp.tenant_id for fp in before]
        for old_fp, new_fp in zip(before, after):
            for old, new in zip(old_fp.per_dc, new_fp.per_dc, strict=True):
                for share in ("scope2_share", "ratio"):
                    assert getattr(new, share).hex() == getattr(old, share).hex()
                for name in SCOPE2_COMPONENTS:
                    assert new.component_energy[name] == 2 * old.component_energy[name]
                assert new.scope2 == 2 * old.scope2
                assert new.scope1.hex() == old.scope1.hex()
                assert new.scope3.hex() == old.scope3.hex()

    def test_history_attached_most_recent_first(self, tmp_path, fictitious_raw,
                                                fictitious_models, factors):
        store = HistoryStore(tmp_path)
        for month in (4, 5):
            raw = fictitious_raw._replace(period=Period(2025, month))
            (fp,) = compute_footprints(raw, fictitious_models)
            doc = render_json(fp, factors)
            store.save(fp.tenant_id, fp.period, doc.content)
        (fp,) = compute_footprints(fictitious_raw, fictitious_models)
        fp = fp._replace(history=store.prior_entries(fp.tenant_id, fp.period))
        assert [str(h.period) for h in fp.history] == ["2025-05", "2025-04"]
        assert fp.history[0].gross == 1800000.0

    def test_history_stops_at_gap(self, tmp_path, fictitious_raw,
                                  fictitious_models, factors):
        store = HistoryStore(tmp_path)
        for month in (3, 5):  # 2025-04 missing
            raw = fictitious_raw._replace(period=Period(2025, month))
            (fp,) = compute_footprints(raw, fictitious_models)
            store.save(fp.tenant_id, fp.period, render_json(fp, factors).content)
        (fp,) = compute_footprints(fictitious_raw, fictitious_models)
        fp = fp._replace(history=store.prior_entries(fp.tenant_id, fp.period))
        assert [str(h.period) for h in fp.history] == ["2025-05"]

    def test_repeated_datacenter_id_rejected(self, fictitious_raw,
                                             fictitious_models):
        (fp,) = compute_footprints(fictitious_raw, fictitious_models)
        (dc,) = fp.per_dc
        with pytest.raises(UnitError, match="DC_EU1"):
            fp._replace(per_dc=(dc, dc))

    def test_no_history_store_means_no_history(self, fictitious_raw,
                                               fictitious_models):
        (fp,) = compute_footprints(fictitious_raw, fictitious_models)
        assert fp.history == ()


def figures(record, name=""):
    """Each float ``record`` holds, as (field name, ``float.hex()``), through
    records, tuples and dicts in order: bit-exact, so ``-0.0`` is not ``0.0``."""
    if type(record) is float:
        return [(name, record.hex())]
    if isinstance(record, tuple) and hasattr(record, "_fields"):
        members = list(zip(record._fields, record))
    elif isinstance(record, (tuple, dict)):
        members = [(name, member) for member in
                   (record.values() if isinstance(record, dict) else record)]
    else:
        return []
    return [found for key, member in members for found in figures(member, key)]


# Small in-memory fleets, at full and partial load shares.
small_fleets = st.builds(
    generate_fleet, seed=st.integers(0, 2**16), n_tenants=st.integers(1, 5),
    n_dcs=st.integers(1, 3), l_share=st.sampled_from([1.0, 0.75]))


class TestFairness:
    """The allocation treats tenants alike: a tenant's figures depend on its
    own usage and on the fleet totals, never on its id or on who else holds
    no usage; splitting a tenant keeps its sum, and more usage never means
    a smaller share."""

    @settings(max_examples=25, deadline=None)
    @given(fleet=small_fleets, data=st.data())
    def test_a_cloned_tenant_gets_bit_identical_figures(self, fleet, data):
        """Symmetry: a tenant added under another id with the same rows and
        data centers gets the original's figures bit for bit. A server
        (dc, device) pair may appear only once, so the clone's server ids
        gain a ``Z`` prefix, which keeps their order; network rows keep
        their ids."""
        raw = fleet.raw
        original = data.draw(st.sampled_from(sorted(raw.tenants)), label="original")
        clone = f"{original}_CLONE"
        cloned = raw._replace(
            tenants={**raw.tenants,
                     clone: raw.tenants[original]._replace(tenant_id=clone)},
            servers=raw.servers + tuple(
                row._replace(tenant_id=clone, device_id="Z" + row.device_id)
                for row in raw.servers if row.tenant_id == original),
            network=raw.network + tuple(
                row._replace(tenant_id=clone)
                for row in raw.network if row.tenant_id == original))
        by_id = {fp.tenant_id: fp for fp in compute_footprints(cloned, fleet.models)}
        assert ([dc.datacenter_id for dc in by_id[clone].per_dc]
                == [dc.datacenter_id for dc in by_id[original].per_dc])
        assert by_id[clone].gross_total > 0.0
        assert figures(by_id[clone]) == figures(by_id[original])

    @settings(max_examples=25, deadline=None)
    @given(fleet=small_fleets, data=st.data())
    def test_a_tenant_without_usage_gets_zero_and_moves_no_one(self, fleet, data):
        """Null tenant: tenants that declare data centers but have no usage
        rows there, one on every data center and one on a subset at load
        share 0.5, get zero for every figure but the grid intensity and
        their load share, and every other tenant's figures stay bit for bit
        as they were."""
        raw = fleet.raw
        dc_ids = sorted(raw.datacenters)
        subset = data.draw(st.lists(st.sampled_from(dc_ids), min_size=1, unique=True),
                           label="subset")
        nulls = {"NULL_ALL": make_tenant("NULL_ALL", dc_ids),
                 "NULL_SOME": make_tenant("NULL_SOME", subset, l_share=0.5)}
        with_nulls = raw._replace(tenants={**raw.tenants, **nulls})
        before = {fp.tenant_id: fp for fp in compute_footprints(raw, fleet.models)}
        after = {fp.tenant_id: fp for fp in compute_footprints(with_nulls, fleet.models)}
        assert after.keys() == before.keys() | nulls.keys()
        for tenant_id, fp in before.items():
            assert figures(after[tenant_id]) == figures(fp)
        for tenant_id in nulls:
            zeros = [(name, value) for name, value in figures(after[tenant_id])
                     if name not in ("grid_intensity", "l_share")]
            assert zeros
            assert {value for _, value in zeros} == {(0.0).hex()}, zeros

    @settings(max_examples=25, deadline=None)
    @given(fleet=small_fleets, data=st.data())
    def test_splitting_a_tenant_keeps_its_sum_and_moves_no_one(self, fleet, data):
        """Split: every second of one tenant's server rows, by data center
        and device id, moved to a new tenant with the same data centers and
        load share, gives two grosses that sum to the original's, and leaves
        every other tenant's gross as it was. Both hold to a relative
        8 * 2**-52, not bit for bit: the new tenant sorts into phase 1's
        summation order, and the moved energies are summed apart, so each
        sum rounds differently."""
        raw = fleet.raw
        original = data.draw(st.sampled_from(sorted(raw.tenants)), label="original")
        part = f"{original}_SPLIT"
        own = sorted((row for row in raw.servers if row.tenant_id == original),
                     key=lambda row: (row.datacenter_id, row.device_id))
        moved = {(row.datacenter_id, row.device_id) for row in own[::2]}
        split = raw._replace(
            tenants={**raw.tenants,
                     part: raw.tenants[original]._replace(tenant_id=part)},
            servers=tuple(
                row._replace(tenant_id=part)
                if (row.datacenter_id, row.device_id) in moved else row
                for row in raw.servers))
        before = {fp.tenant_id: fp.gross_total
                  for fp in compute_footprints(raw, fleet.models)}
        after = {fp.tenant_id: fp.gross_total
                 for fp in compute_footprints(split, fleet.models)}
        bound = 8 * 2**-52
        whole = before.pop(original)
        assert abs(after.pop(original) + after.pop(part) - whole) <= bound * whole
        assert after.keys() == before.keys()
        for tenant_id, gross in before.items():
            assert abs(after[tenant_id] - gross) <= bound * gross

    COUNTER_WEIGHTS = {"cache_moved": "w_cache", "disk_moved": "w_disk",
                       "cpu_utilization": "w_cpu"}

    @settings(max_examples=25, deadline=None)
    @given(fleet=small_fleets, data=st.data())
    def test_a_raised_counter_never_lowers_its_tenants_share(self, fleet, data):
        """Monotonicity: one server's counter raised (cache x1.5, disk
        x(1 + 1e-7), or CPU +0.01 up to 1) never lowers its tenant's Scope 2
        share in its data center, nor raises any other tenant's there. The
        premise is that the counter's model weight is >= 0, as every synth
        weight is."""
        raw = fleet.raw
        index = data.draw(st.integers(0, len(raw.servers) - 1), label="server")
        counter = data.draw(st.sampled_from(sorted(self.COUNTER_WEIGHTS)),
                            label="counter")
        row = raw.servers[index]
        value = getattr(row, counter)
        raised = {"cache_moved": value * 1.5, "disk_moved": value * (1 + 1e-7),
                  "cpu_utilization": value + 0.01}[counter]
        assume(counter != "cpu_utilization" or raised <= 1.0)
        assert getattr(fleet.models[row.device_model], self.COUNTER_WEIGHTS[counter]) >= 0.0
        servers = list(raw.servers)
        servers[index] = row._replace(**{counter: raised})

        def shares(fleet_raw):
            return {fp.tenant_id: dc.scope2_share
                    for fp in compute_footprints(fleet_raw, fleet.models)
                    for dc in fp.per_dc if dc.datacenter_id == row.datacenter_id}

        before = shares(raw)
        after = shares(raw._replace(servers=tuple(servers)))
        assert after.keys() == before.keys()
        assert after[row.tenant_id] >= before[row.tenant_id]
        for tenant_id, share in before.items():
            if tenant_id != row.tenant_id:
                assert after[tenant_id] <= share, tenant_id


def corrupt_scope2(fp: Footprint, factor: float = 2.0) -> Footprint:
    """Scale one tenant's Scope 2 energy; the records derive the rest."""
    dc = fp.per_dc[0]
    new_dc = dc._replace(component_energy={
        name: e * factor for name, e in dc.component_energy.items()})
    return fp._replace(per_dc=(new_dc,) + fp.per_dc[1:])


def _over_offset(raw: RawData) -> RawData:
    """The fleet with its first data center's certificates worth 1e12 g."""
    dc_id = min(raw.datacenters)
    return raw._replace(datacenters={
        **raw.datacenters,
        dc_id: raw.datacenters[dc_id]._replace(rec_offset=1e12)})


class TestTenantFootprint:
    @pytest.mark.parametrize("seed, kwargs, transform", [
        (11, {}, None),
        (12, {"l_share": 0.6}, None),
        (13, {"with_offsets": False}, None),
        (14, {}, _over_offset),
    ], ids=["default", "l_share", "no_offsets", "over_offset"])
    def test_renders_as_compute_footprints_for_every_tenant(
            self, factors, seed, kwargs, transform):
        fleet = generate_fleet(seed=seed, n_tenants=7, n_dcs=3, **kwargs)
        raw = fleet.raw if transform is None else transform(fleet.raw)
        footprints = compute_footprints(raw, fleet.models)
        if transform is _over_offset:
            assert any(dc.net < 0.0 for fp in footprints for dc in fp.per_dc)
        for fp in footprints:
            scoped = tenant_footprint(raw, fleet.models, fp.tenant_id)
            assert (render_json(scoped, factors).content
                    == render_json(fp, factors).content)

    def test_fleet_totals_match_scope2_bit_for_bit(self):
        fleet = generate_fleet(seed=15, n_tenants=9, n_dcs=4)
        per_dc = [(fp.tenant_id, dc)
                  for fp in compute_footprints(fleet.raw, fleet.models)
                  for dc in fp.per_dc]
        scope2_total: dict[str, float] = {}
        direct: dict[str, float] = {}
        for _, dc in per_dc:
            dc_id, energy = dc.datacenter_id, dc.component_energy
            scope2_total[dc_id] = scope2_total.get(dc_id, 0.0) + dc.scope2
            direct[dc_id] = (direct.get(dc_id, 0.0)
                             + (energy["server"] + energy["network"]))
        totals = fleet_totals(fleet.raw, fleet.models)
        assert totals.scope2 == scope2_total
        assert totals.direct == direct
        assert totals.fuel.keys() == totals.scope2.keys()
        assert list(totals.pairs) == [(tenant_id, dc.datacenter_id)
                                      for tenant_id, dc in per_dc]
        for tenant_id, dc in per_dc:
            _, _, energy = totals.pairs[(tenant_id, dc.datacenter_id)]
            assert list(energy) == list(SCOPE2_COMPONENTS)
            assert [e.hex() for e in energy.values()] == [
                dc.component_energy[name].hex() for name in SCOPE2_COMPONENTS]

    def test_only_phase_1_splits_shared_energy(self, monkeypatch):
        """Phase 2 takes each pair's cooling and other energy from phase 1,
        so building every tenant or one splits twice per declared pair."""
        fleet = generate_fleet(seed=16, n_tenants=9, n_dcs=4)
        n_pairs = sum(len(t.datacenter_ids) for t in fleet.raw.tenants.values())
        calls = []
        split = allocation.split_shared_wh

        def counted(*args):
            calls.append(args)
            return split(*args)

        monkeypatch.setattr(allocation, "split_shared_wh", counted)
        compute_footprints(fleet.raw, fleet.models)
        assert len(calls) == 2 * n_pairs
        calls.clear()
        tenant_footprint(fleet.raw, fleet.models, min(fleet.raw.tenants))
        assert len(calls) == 2 * n_pairs

    def test_unknown_tenant_raises_after_checking_the_fleet(self):
        raw = two_tenant_raw()
        with pytest.raises(UnknownTenant):
            tenant_footprint(raw, TWO_TENANT_MODELS, "TENANT_Z")
        with pytest.raises(IngestError, match=MISSING_M_7500):
            tenant_footprint(raw, {"M_2500": TWO_TENANT_MODELS["M_2500"]},
                             "TENANT_Z")
        with pytest.raises(CarbonAllocError, match=ZERO_SCOPE2):
            tenant_footprint(idle_raw(fuel=(("GEN_1", 1000.0, 2.5),)), {},
                             "TENANT_Z")


class TestConservationAudit:
    def test_valid_output_passes(self):
        fleet = generate_fleet(seed=42, n_tenants=5, n_dcs=3)
        footprints = compute_footprints(fleet.raw, fleet.models)
        report = conservation_audit(footprints, fleet.raw, fleet.models)
        assert report.passed
        assert report.max_residual < 1e-9
        assert len(report.checks) >= 6 * len(fleet.raw.datacenters)

    def test_doubled_scope2_breaks_share_sum(self):
        fleet = generate_fleet(seed=42, n_tenants=5, n_dcs=3)
        footprints = compute_footprints(fleet.raw, fleet.models)
        footprints[0] = corrupt_scope2(footprints[0])
        report = conservation_audit(footprints, fleet.raw, fleet.models)
        assert not report.passed
        failed = {c.name for c in report.failures}
        assert "scope2_share_sum" in failed

    def test_empty_inputs_pass_vacuously(self):
        raw = RawData(period=PERIOD, servers=(), network=(), datacenters={},
                      tenants={})
        report = conservation_audit([], raw, {})
        assert report.passed
        assert len(report.checks) == 0


def test_only_power_and_reference_state_the_device_formulas():
    """The server and network formulas are written in power.py, for the
    engine, and in reference.py, for the audit, and nowhere else in the
    package: no other module reads a model's intercept or weights, or does
    arithmetic on a byte counter. reference.py imports nothing from the
    engine's modules, so a fault there cannot leak into what it expects."""
    weights = {"intercept", "w_cpu", "w_cache", "w_dram", "w_disk"}
    found, imported = set(), set()
    for path in sorted(Path(allocation.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in weights:
                found.add((path.name, "weights"))
            if isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp)) and any(
                    getattr(sub, "attr", None) in ("bytes_sent", "bytes_received")
                    for sub in ast.walk(node)):
                found.add((path.name, "bytes"))
            if path.name == "reference.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                imported.update(part for name in names for part in name.split("."))
    assert sorted(found) == [("power.py", "bytes"), ("power.py", "weights"),
                             ("reference.py", "bytes"), ("reference.py", "weights")]
    assert "units" in imported
    assert not imported & {"allocation", "power"}


# Figures for an in-memory fleet, from 1 up to the largest float's order.
MAGNITUDES = st.sampled_from([1.0, 1e150, 1e300, 1e307, 1e308])
# A grid intensity below 1 g/Wh lets energies sum past float range while
# every emissions figure stays finite.
INTENSITIES = st.sampled_from([0.3, 1.0, 1e150, 1e300, 1e307, 1e308])
# An engine error names its data center's or tenant's row; in-memory records
# have none, so it names the record.
ROW_REF = re.compile(r"(datacenters|tenants)(\.csv)?:\w+: ")


@st.composite
def extreme_fleets(draw):
    """One or two data centers and up to three tenants, each running one
    server in each data center it declares, with the grid intensity drawn
    from INTENSITIES and the fuel, Scope 3, green energy, REC and model
    intercepts from MAGNITUDES."""
    dc_ids = ["DC_1", "DC_2"][:draw(st.integers(1, 2))]
    datacenters = {dc_id: make_dc(
        dc_id, intensity=draw(INTENSITIES),
        fuel=(("GEN_1", draw(MAGNITUDES), draw(MAGNITUDES)),),
        scope3=draw(MAGNITUDES), green=draw(MAGNITUDES), rec=draw(MAGNITUDES))
        for dc_id in dc_ids}
    tenants, servers, models = {}, [], {}
    for n in range(draw(st.integers(1, 3))):
        tenant_id, model = f"TENANT_{n}", f"M_{n}"
        declared = draw(st.lists(st.sampled_from(dc_ids), min_size=1, unique=True))
        tenants[tenant_id] = make_tenant(tenant_id, declared)
        models[model] = intercept_model(model, draw(MAGNITUDES))
        servers.extend(server(dc_id, f"SRV_{n}_{dc_id}", model, tenant_id)
                       for dc_id in declared)
    raw = assemble_raw_data(period=PERIOD, datacenters=datacenters,
                            tenants=tenants, servers=tuple(servers), network=())
    return raw, models


def one_tenant_on_two_dcs(intensity, intercepts, greens):
    """TENANT_0 alone on DC_1 and DC_2, with one server in each."""
    dc_ids = ("DC_1", "DC_2")
    models = {f"M_{dc_id}": intercept_model(f"M_{dc_id}", wh)
              for dc_id, wh in zip(dc_ids, intercepts)}
    raw = assemble_raw_data(
        period=PERIOD, tenants={"TENANT_0": make_tenant("TENANT_0", dc_ids)},
        datacenters={dc_id: make_dc(dc_id, intensity=intensity, green=green)
                     for dc_id, green in zip(dc_ids, greens)},
        servers=tuple(server(dc_id, f"SRV_{dc_id}", f"M_{dc_id}", "TENANT_0")
                      for dc_id in dc_ids), network=())
    return raw, models


def _refuse_constant(name):
    raise ValueError(f"report holds {name}")


class TestWhereFiguresAreChecked:
    # Shrinking a failing fleet of floats near the largest float's order
    # takes longer than the search, so the shrink phase is skipped.
    @settings(max_examples=150, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(fleet=extreme_fleets(), charge=st.sampled_from([0.5, 8.22]))
    # Each report figure finite, but the Scope 2 energy summed over the two
    # data centers is not; then the green offsets' sum, with gross and net
    # finite.
    @example(fleet=one_tenant_on_two_dcs(0.3, (1e308, 1e308), (0.0, 0.0)),
             charge=8.22)
    @example(fleet=one_tenant_on_two_dcs(1.0, (0.9e308, 1.0), (1e308, 0.9e308)),
             charge=8.22)
    def test_engine_never_writes_inf_or_nan(self, fleet, charge):
        """Either the engine refuses the fleet, naming a data center's or a
        tenant's row, or every report it renders is strict JSON: ``repr``
        spells an overflow ``inf``, which ``json.loads`` refuses, and
        ``json.dumps`` spells it ``Infinity``, which ``parse_constant``
        refuses here. An equivalency factor below 1 g, which could divide a
        finite gross past float range, is refused."""
        raw, models = fleet
        try:
            footprints = compute_footprints(raw, models)
        except UnitError as exc:
            assert ROW_REF.match(str(exc)), str(exc)
            return
        if charge < 1.0:
            with pytest.raises(ReportError, match="must be >= 1 g"):
                EquivalencyFactors(500000.0, 250.0, charge, "test factors")
            return
        factors = EquivalencyFactors(500000.0, 250.0, charge, "test factors")
        for fp in footprints:
            json.loads(render_json(fp, factors).content,
                       parse_constant=_refuse_constant)

    def test_checks_live_in_phase_1_and_a_tenants_totals(self):
        """The unit checks are called only by ``fleet_totals``, which bounds
        each data center's totals, and by ``Footprint.__new__``, which
        checks a tenant's two totals; every other figure is bounded by
        those."""
        checks = {"check_energy", "check_emissions", "check_share"}
        allowed = {"fleet_totals", "Footprint.__new__"}
        calls = []

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, f"{scope}.{child.name}" if scope else child.name)
                    continue
                if isinstance(child, ast.Call):
                    func = child.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    if name in checks:
                        calls.append((scope, child.lineno))
                visit(child, scope)

        visit(ast.parse(Path(allocation.__file__).read_text(encoding="utf-8")), "")
        assert calls
        assert [call for call in calls if call[0] not in allowed] == []
