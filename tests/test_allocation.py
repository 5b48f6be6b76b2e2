"""Allocation engine: scope computations, ratios, footprints, conservation."""

import dataclasses
import math
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carbonalloc.allocation import (
    DcFootprint,
    DeviceShare,
    Footprint,
    ResponsibilityRatio,
    TenantDcScope2,
    compute_footprints,
    compute_responsibility_ratios,
    compute_scope2,
    conservation_audit,
    fleet_totals,
    tenant_footprint,
)
from carbonalloc.errors import MissingModel, UnitError, UnknownTenant, ZeroDcScope2
from carbonalloc.history import HistoryStore
from carbonalloc.ingest import (
    DataCenter,
    FuelEntry,
    RawData,
    ServerUsage,
    SharedDevice,
    Tenant,
    assemble_raw_data,
    load_input_dir,
)
from carbonalloc.report import render_json
from carbonalloc.synth import generate_fleet, write_fleet
from carbonalloc.units import SCOPE2_COMPONENTS, Period
from conftest import intercept_model

PERIOD = Period(2025, 6)


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


class TestComputeScope2:
    def test_fixture_figures_are_exact(self, fictitious_raw, fictitious_models):
        (entry,) = compute_scope2(fictitious_raw, fictitious_models)
        assert entry.tenant_id == "TENANT_X"
        assert entry.e_server == 100000.0
        assert entry.e_network == 120000.0
        assert entry.e_cooling == 4000000.0
        assert entry.e_other == 280000.0
        assert entry.total_energy == 4500000.0
        assert entry.emissions == 1800000.0

    def test_per_device_detail_carries_source_figures(self, fictitious_raw,
                                                      fictitious_models):
        (entry,) = compute_scope2(fictitious_raw, fictitious_models)
        by_id = {d.device_id: d for d in entry.per_device}
        srv = by_id["SERVER_1234"]
        assert isinstance(srv, DeviceShare)
        assert srv.category == "server"
        assert srv.device_model == "ABC_987"
        assert (srv.utilization, srv.cache_moved) == (0.10, 2e7)
        assert srv.emissions_g == 40000.0
        net = by_id["NETWORK_DEVICE_1234"]
        assert isinstance(net, DeviceShare)
        assert net.category == "network"
        assert net.bytes_sent == 10**12
        assert net.emissions_g == 48000.0  # 120000 Wh x 0.4 g/Wh
        assert by_id["CRAC_1"].category == "cooling"
        assert by_id["PDU_1"].category == "other"

    def test_shared_energy_splits_by_direct_ratio(self):
        raw = two_tenant_raw(cooling=(("CRAC_1", 10000.0),),
                             other=(("PDU_1", 400.0),))
        entries = {e.tenant_id: e for e in compute_scope2(raw, TWO_TENANT_MODELS)}
        assert entries["TENANT_A"].e_cooling == 2500.0
        assert entries["TENANT_B"].e_cooling == 7500.0
        assert entries["TENANT_A"].e_other == 100.0
        assert entries["TENANT_B"].e_other == 300.0

    def test_declared_dc_without_usage_gets_zero_entry(self):
        dc1, dc2 = make_dc("DC_1"), make_dc("DC_2")
        raw = assemble_raw_data(
            period=PERIOD,
            datacenters={"DC_1": dc1, "DC_2": dc2},
            tenants={"TENANT_A": make_tenant("TENANT_A", ["DC_1", "DC_2"])},
            servers=(server("DC_1", "SRV_A", "M_2500", "TENANT_A"),),
            network=(),
        )
        entries = {e.datacenter_id: e for e in compute_scope2(raw, TWO_TENANT_MODELS)}
        assert entries["DC_2"].total_energy == 0.0
        assert entries["DC_2"].emissions == 0.0
        assert entries["DC_2"].per_device == ()

    def test_missing_model_fails_before_any_estimation(self):
        raw = two_tenant_raw()
        with pytest.raises(MissingModel) as exc:
            compute_scope2(raw, {"M_2500": TWO_TENANT_MODELS["M_2500"]})
        assert "M_7500" in str(exc.value)

    def test_emissions_product_invariant_enforced_on_construction(self):
        """Emissions are derived from the energies and cannot be passed in."""
        with pytest.raises(TypeError):
            TenantDcScope2(
                tenant_id="T", datacenter_id="D", e_server=100.0,
                e_network=0.0, e_cooling=0.0, e_other=0.0, emissions=999.0,
                per_device=(), c_dc=0.5, l_share=1.0,
            )
        entry = TenantDcScope2(
            tenant_id="T", datacenter_id="D", e_server=100.0,
            e_network=0.0, e_cooling=0.0, e_other=0.0,
            per_device=(DeviceShare("S", "server", 100.0, 50.0),),
            c_dc=0.5, l_share=1.0)
        assert entry.emissions == 50.0
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(entry, emissions=999.0)


class TestResponsibilityRatios:
    def test_sole_tenant_owns_everything(self, fictitious_raw, fictitious_models):
        scope2 = compute_scope2(fictitious_raw, fictitious_models)
        (ratio,) = compute_responsibility_ratios(scope2,
                                                 fictitious_raw.datacenters)
        assert ratio.scope2_share == 1.0
        assert ratio.ratio == 1.0

    def test_quarter_share_is_exact(self):
        raw = two_tenant_raw()  # intensity 0.5: emissions 1250 and 3750
        scope2 = compute_scope2(raw, TWO_TENANT_MODELS)
        ratios = {r.tenant_id: r for r in compute_responsibility_ratios(
            scope2, raw.datacenters)}
        assert ratios["TENANT_A"].scope2_share == 0.25
        assert ratios["TENANT_B"].scope2_share == 0.75

    def test_ratio_is_share_times_load_share(self):
        raw = two_tenant_raw()
        raw = dataclasses.replace(raw, tenants={
            tid: dataclasses.replace(t, l_share=0.5)
            for tid, t in raw.tenants.items()})
        scope2 = compute_scope2(raw, TWO_TENANT_MODELS)
        ratios = {r.tenant_id: r for r in compute_responsibility_ratios(
            scope2, raw.datacenters)}
        assert ratios["TENANT_A"].ratio == 0.25 * 0.5
        assert ratios["TENANT_B"].ratio == 0.75 * 0.5

    def test_shares_sum_to_one_per_datacenter(self):
        fleet = generate_fleet(seed=5, n_tenants=9, n_dcs=2)
        scope2 = compute_scope2(fleet.raw, fleet.models)
        by_dc: dict[str, float] = {}
        for r in compute_responsibility_ratios(scope2, fleet.raw.datacenters):
            by_dc[r.datacenter_id] = by_dc.get(r.datacenter_id, 0.0) + r.scope2_share
        for total in by_dc.values():
            assert math.isclose(total, 1.0, rel_tol=1e-9)

    def test_zero_scope2_with_fuel_to_distribute_raises(self):
        dc = make_dc(fuel=(("GEN_1", 1000.0, 2.5),))
        raw = assemble_raw_data(
            period=PERIOD, datacenters={"DC_EU1": dc},
            tenants={"TENANT_A": make_tenant("TENANT_A", ["DC_EU1"])},
            servers=(), network=(),
        )
        scope2 = compute_scope2(raw, {})
        with pytest.raises(ZeroDcScope2):
            compute_responsibility_ratios(scope2, raw.datacenters)

    def test_zero_scope2_with_nothing_to_distribute_is_all_zero(self):
        dc = make_dc()
        raw = assemble_raw_data(
            period=PERIOD, datacenters={"DC_EU1": dc},
            tenants={"TENANT_A": make_tenant("TENANT_A", ["DC_EU1"])},
            servers=(), network=(),
        )
        scope2 = compute_scope2(raw, {})
        (ratio,) = compute_responsibility_ratios(scope2, raw.datacenters)
        assert ratio.scope2_share == 0.0
        assert ratio.ratio == 0.0

    def test_ratio_consistency_enforced_on_construction(self):
        """The ratio is derived from its two factors and cannot be passed in."""
        with pytest.raises(TypeError):
            ResponsibilityRatio(tenant_id="T", datacenter_id="D",
                                scope2_share=0.5, l_share=0.5,
                                ratio=0.3)
        ratio = ResponsibilityRatio(tenant_id="T", datacenter_id="D",
                                    scope2_share=0.5, l_share=0.5)
        assert ratio.ratio == 0.25
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(ratio, ratio=0.3)


def tenant_a_dc(**dc_kwargs) -> DcFootprint:
    """TENANT_A's footprint in ``two_tenant_raw``, where its ratio is 0.25.

    A shared cooling device of 4(x - 2500) Wh raises TENANT_A's Scope 2
    energy to x Wh and TENANT_B's to 3x Wh, so the ratio stays 0.25.
    """
    fp = compute_footprints(two_tenant_raw(**dc_kwargs), TWO_TENANT_MODELS)[0]
    (dc,) = fp.per_dc
    assert (fp.tenant_id, dc.responsibility.ratio) == ("TENANT_A", 0.25)
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
        assert not dc.over_offset

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
        assert not dc.over_offset

    def test_over_offset_goes_negative_and_is_flagged(self):
        dc = tenant_a_dc(intensity=0.04, rec=2000.0)
        assert dc.gross == 100.0
        assert dc.net == -400.0
        assert dc.over_offset


class TestDcFootprint:
    def test_component_keys_must_match_exactly(self):
        dc = tenant_a_dc()
        components = dict(dc.component_energy)
        del components["other"]
        with pytest.raises(UnitError, match="must have exactly the keys"):
            dataclasses.replace(dc, component_energy=components)

    def test_component_sum_must_match_scope2(self):
        """Scope 2, its components, gross and net are derived and cannot be
        passed in."""
        dc = tenant_a_dc()
        arguments = {f.name: getattr(dc, f.name)
                     for f in dataclasses.fields(dc) if f.init}
        with pytest.raises(TypeError):
            DcFootprint(**arguments, scope2=dc.scope2 * 0.9)
        for name in ("scope2", "component_emissions", "gross", "net"):
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(dc, **{name: getattr(dc, name)})

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
        """Plain-loop oracle recomputes every figure from raw inputs."""
        fleet = generate_fleet(seed=123, n_tenants=8, n_dcs=3)
        raw, models = fleet.raw, fleet.models

        direct: dict[tuple[str, str], float] = {}
        for row in sorted(raw.servers, key=lambda r: r.device_id):
            m = models[row.device_model]
            e = (m.intercept + m.w_cpu * row.cpu_utilization
                 + m.w_cache * row.cache_moved + m.w_dram * row.dram_accessed
                 + m.w_disk * row.disk_moved)
            key = (row.tenant_id, row.datacenter_id)
            direct[key] = direct.get(key, 0.0) + max(e, 0.0)
        for row in sorted(raw.network, key=lambda r: r.device_id):
            key = (row.tenant_id, row.datacenter_id)
            e = 6.0 * (row.bytes_sent + row.bytes_received) / 1e8
            direct[key] = direct.get(key, 0.0) + e

        expected_gross: dict[str, float] = {}
        expected_net: dict[str, float] = {}
        scope2_emissions: dict[tuple[str, str], float] = {}
        for dc_id, dc in raw.datacenters.items():
            members = [t for t, ten in raw.tenants.items()
                       if dc_id in ten.datacenter_ids]
            dc_direct = sum(direct.get((t, dc_id), 0.0) for t in members)
            shared = (sum(d.energy for d in dc.cooling_devices)
                      + sum(d.energy for d in dc.other_devices))
            for t in members:
                mine = direct.get((t, dc_id), 0.0)
                e_total = mine + (shared * mine / dc_direct if dc_direct else 0.0)
                scope2_emissions[(t, dc_id)] = (
                    e_total * dc.grid_intensity
                    * raw.tenants[t].l_share)
        for dc_id, dc in raw.datacenters.items():
            members = [t for t, ten in raw.tenants.items()
                       if dc_id in ten.datacenter_ids]
            dc_scope2 = sum(scope2_emissions[(t, dc_id)] for t in members)
            fuel = sum(f.amount * f.emission_factor for f in dc.fuel_log)
            for t in members:
                lam = scope2_emissions[(t, dc_id)] / dc_scope2 if dc_scope2 else 0.0
                r = lam * raw.tenants[t].l_share
                gross = (fuel * r + scope2_emissions[(t, dc_id)]
                         + dc.scope3_total * r)
                offsets = (dc.green_energy * dc.grid_intensity * r
                           + dc.rec_offset * r)
                expected_gross[t] = expected_gross.get(t, 0.0) + gross
                expected_net[t] = expected_net.get(t, 0.0) + gross - offsets

        for fp in compute_footprints(raw, models):
            assert math.isclose(fp.gross_total, expected_gross[fp.tenant_id],
                                rel_tol=1e-9)
            assert math.isclose(fp.net_total, expected_net[fp.tenant_id],
                                rel_tol=1e-9)

    def test_changing_rec_offset_leaves_gross_and_shares_alone(self):
        fleet = generate_fleet(seed=77, n_tenants=5, n_dcs=2)
        raw = fleet.raw
        target_dc = sorted(raw.datacenters)[0]
        bumped = dict(raw.datacenters)
        bumped[target_dc] = dataclasses.replace(
            raw.datacenters[target_dc],
            rec_offset=raw.datacenters[target_dc].rec_offset + 12345.0)
        raw2 = RawData(period=raw.period, servers=raw.servers,
                       network=raw.network, datacenters=bumped,
                       tenants=raw.tenants)
        before = {fp.tenant_id: fp for fp in compute_footprints(raw, fleet.models)}
        after = {fp.tenant_id: fp for fp in compute_footprints(raw2, fleet.models)}
        for tid, fp in after.items():
            assert fp.gross_total == before[tid].gross_total
            for dc_after, dc_before in zip(fp.per_dc, before[tid].per_dc):
                assert (dc_after.responsibility.ratio
                        == dc_before.responsibility.ratio)
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

    def test_history_attached_most_recent_first(self, tmp_path, fictitious_raw,
                                                fictitious_models, factors):
        store = HistoryStore(tmp_path)
        for month in (4, 5):
            raw = dataclasses.replace(fictitious_raw, period=Period(2025, month))
            (fp,) = compute_footprints(raw, fictitious_models)
            doc = render_json(fp, factors)
            store.save(fp.tenant_id, fp.period, doc.content)
        (fp,) = compute_footprints(fictitious_raw, fictitious_models)
        fp = dataclasses.replace(
            fp, history=store.prior_entries(fp.tenant_id, fp.period))
        assert [str(h.period) for h in fp.history] == ["2025-05", "2025-04"]
        assert fp.history[0].gross == 1800000.0

    def test_history_stops_at_gap(self, tmp_path, fictitious_raw,
                                  fictitious_models, factors):
        store = HistoryStore(tmp_path)
        for month in (3, 5):  # 2025-04 missing
            raw = dataclasses.replace(fictitious_raw, period=Period(2025, month))
            (fp,) = compute_footprints(raw, fictitious_models)
            store.save(fp.tenant_id, fp.period, render_json(fp, factors).content)
        (fp,) = compute_footprints(fictitious_raw, fictitious_models)
        fp = dataclasses.replace(
            fp, history=store.prior_entries(fp.tenant_id, fp.period))
        assert [str(h.period) for h in fp.history] == ["2025-05"]

    def test_repeated_datacenter_id_rejected(self, fictitious_raw,
                                             fictitious_models):
        (fp,) = compute_footprints(fictitious_raw, fictitious_models)
        (dc,) = fp.per_dc
        with pytest.raises(UnitError, match="DC_EU1"):
            dataclasses.replace(fp, per_dc=(dc, dc))

    def test_no_history_store_means_no_history(self, fictitious_raw,
                                               fictitious_models):
        (fp,) = compute_footprints(fictitious_raw, fictitious_models)
        assert fp.history == ()


def corrupt_scope2(fp: Footprint, factor: float = 2.0) -> Footprint:
    """Scale one tenant's Scope 2 energy; the records derive the rest."""
    dc = fp.per_dc[0]
    new_dc = dataclasses.replace(
        dc, component_energy={name: e * factor
                              for name, e in dc.component_energy.items()})
    return dataclasses.replace(fp, per_dc=(new_dc,) + fp.per_dc[1:])


def _over_offset(raw: RawData) -> RawData:
    """The fleet with its first data center's certificates worth 1e12 g."""
    dc_id = min(raw.datacenters)
    return dataclasses.replace(raw, datacenters={
        **raw.datacenters,
        dc_id: dataclasses.replace(raw.datacenters[dc_id],
                                   rec_offset=1e12)})


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
            assert any(dc.over_offset for fp in footprints for dc in fp.per_dc)
        for fp in footprints:
            scoped = tenant_footprint(raw, fleet.models, fp.tenant_id)
            assert (render_json(scoped, factors).content
                    == render_json(fp, factors).content)

    def test_fleet_totals_match_scope2_bit_for_bit(self):
        fleet = generate_fleet(seed=15, n_tenants=9, n_dcs=4)
        scope2_total: dict[str, float] = {}
        direct: dict[str, float] = {}
        for entry in compute_scope2(fleet.raw, fleet.models):
            dc_id = entry.datacenter_id
            scope2_total[dc_id] = scope2_total.get(dc_id, 0.0) + entry.emissions
            direct[dc_id] = (direct.get(dc_id, 0.0)
                             + (entry.e_server + entry.e_network))
        totals = fleet_totals(fleet.raw, fleet.models)
        assert totals.scope2 == scope2_total
        assert totals.direct == direct

    def test_unknown_tenant_raises_after_checking_the_fleet(self):
        raw = two_tenant_raw()
        with pytest.raises(UnknownTenant):
            tenant_footprint(raw, TWO_TENANT_MODELS, "TENANT_Z")
        with pytest.raises(MissingModel):
            tenant_footprint(raw, {"M_2500": TWO_TENANT_MODELS["M_2500"]},
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
