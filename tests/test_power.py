"""Power models: OLS fitting, estimation exactness, shared-energy splits."""

import logging
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonalloc.errors import (
    IngestError,
    InsufficientSamples,
    SingularDesign,
    UnitError,
    ZeroDenominator,
)
from carbonalloc.ingest import NetworkUsage, ServerUsage, SharedDevice
from carbonalloc.power import (
    MIN_CALIBRATION_SAMPLES,
    NETWORK_WH_PER_BYTE,
    CalibrationSample,
    ServerPowerModel,
    estimate_network_energy,
    estimate_server_energy,
    fit_server_weights,
    read_calibration_samples,
    read_models,
    shared_energy_total,
    split_shared_wh,
    write_models,
)
from carbonalloc.units import check_energy

TRUE_WEIGHTS = (10.0, 500.0, 1e-6, 2e-9, 5e-10)  # intercept, cpu, cache, dram, disk


def synth_samples(n: int, weights=TRUE_WEIGHTS, seed: int = 7,
                  noise: float = 0.0) -> list[CalibrationSample]:
    rng = random.Random(seed)
    intercept, w_cpu, w_cache, w_dram, w_disk = weights
    out = []
    for _ in range(n):
        u = rng.uniform(0.0, 1.0)
        cache = rng.uniform(0.0, 5e7)
        dram = rng.uniform(0.0, 1e10)
        disk = rng.uniform(0.0, 5e10)
        energy = (intercept + w_cpu * u + w_cache * cache + w_dram * dram
                  + w_disk * disk)
        if noise:
            energy += rng.gauss(0.0, noise)
        out.append(CalibrationSample(u, cache, dram, disk,
                                     max(energy, 0.0)))
    return out


def server_row(util=0.10, cache=2e7, dram=5e9, disk=2e10,
               model="ABC_987") -> ServerUsage:
    return ServerUsage(datacenter_id="DC_EU1", device_id="SERVER_1234",
                       device_model=model, tenant_id="TENANT_X",
                       cpu_utilization=util, cache_moved=cache,
                       dram_accessed=dram, disk_moved=disk)


def network_row(sent: int, received: int) -> NetworkUsage:
    return NetworkUsage(datacenter_id="DC_EU1", device_id="NETWORK_DEVICE_1234",
                        device_type="router", tenant_id="TENANT_X",
                        bytes_sent=sent, bytes_received=received)


class TestFitServerWeights:
    def test_recovers_known_weights_from_noiseless_samples(self):
        model = fit_server_weights(synth_samples(50), device_model="ABC_987")
        fitted = (model.intercept, model.w_cpu, model.w_cache, model.w_dram,
                  model.w_disk)
        for got, want in zip(fitted, TRUE_WEIGHTS):
            assert math.isclose(got, want, rel_tol=1e-6)
        assert abs(model.adjusted_r2 - 1.0) <= 1e-9
        assert model.device_model == "ABC_987"

    def test_minimum_sample_count_enforced(self):
        with pytest.raises(InsufficientSamples) as exc:
            fit_server_weights(synth_samples(MIN_CALIBRATION_SAMPLES - 1))
        assert exc.value.count == MIN_CALIBRATION_SAMPLES - 1
        assert exc.value.minimum == MIN_CALIBRATION_SAMPLES

    def test_exactly_minimum_samples_accepted(self):
        model = fit_server_weights(synth_samples(MIN_CALIBRATION_SAMPLES))
        assert math.isclose(model.w_cpu, 500.0, rel_tol=1e-6)

    def test_constant_regressor_reported_as_singular(self):
        samples = [CalibrationSample(0.5, s.cache_moved, s.dram_accessed,
                                     s.disk_moved, s.measured_energy)
                   for s in synth_samples(20)]
        with pytest.raises(SingularDesign) as exc:
            fit_server_weights(samples)
        assert "cpu_utilization" in str(exc.value)

    def test_identically_zero_regressor_named(self):
        samples = [CalibrationSample(s.cpu_utilization, s.cache_moved,
                                     s.dram_accessed, 0.0, s.measured_energy)
                   for s in synth_samples(20)]
        with pytest.raises(SingularDesign) as exc:
            fit_server_weights(samples)
        assert "disk_moved" in str(exc.value)

    def test_collinear_regressors_reported(self):
        # dram always exactly 100x cache: the two columns are dependent.
        samples = [CalibrationSample(s.cpu_utilization, s.cache_moved,
                                     s.cache_moved * 100.0, s.disk_moved,
                                     s.measured_energy)
                   for s in synth_samples(20)]
        with pytest.raises(SingularDesign) as exc:
            fit_server_weights(samples)
        message = str(exc.value)
        assert "cache_moved" in message and "dram_accessed" in message

    def test_noise_lowers_adjusted_r2_below_one(self):
        model = fit_server_weights(synth_samples(200, noise=50.0))
        assert model.adjusted_r2 < 1.0
        assert model.adjusted_r2 > 0.9

    def test_constant_energy_fits_with_unit_r2(self):
        samples = [CalibrationSample(s.cpu_utilization, s.cache_moved,
                                     s.dram_accessed, s.disk_moved,
                                     75.0)
                   for s in synth_samples(20)]
        model = fit_server_weights(samples)
        assert math.isclose(model.intercept, 75.0, rel_tol=1e-9)
        assert model.adjusted_r2 == 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(
        st.floats(min_value=1.0, max_value=1e3),
        st.floats(min_value=1.0, max_value=1e3),
        st.floats(min_value=1e-8, max_value=1e-5),
        st.floats(min_value=1e-10, max_value=1e-8),
        st.floats(min_value=1e-11, max_value=1e-9),
    ), st.integers(min_value=0, max_value=2**31))
    def test_noiseless_recovery_across_weight_scales(self, weights, seed):
        model = fit_server_weights(synth_samples(40, weights=weights, seed=seed))
        fitted = (model.intercept, model.w_cpu, model.w_cache, model.w_dram,
                  model.w_disk)
        for got, want in zip(fitted, weights):
            assert math.isclose(got, want, rel_tol=1e-5)


class TestEstimateServerEnergy:
    MODEL = ServerPowerModel("ABC_987", *TRUE_WEIGHTS, adjusted_r2=1.0)

    def test_known_row_is_exact(self):
        # 10 + 500*0.10 + 1e-6*2e7 + 2e-9*5e9 + 5e-10*2e10 evaluates to
        # exactly 100.0 in binary floating point with left-to-right addition.
        assert estimate_server_energy(self.MODEL, server_row()) == 100.0

    def test_zero_usage_gives_intercept(self):
        row = server_row(util=0.0, cache=0.0, dram=0.0, disk=0.0)
        assert estimate_server_energy(self.MODEL, row) == 10.0

    def test_negative_prediction_clamped_and_logged(self, caplog):
        model = ServerPowerModel("ABC_987", intercept=-50.0, w_cpu=10.0,
                                 w_cache=0.0, w_dram=0.0, w_disk=0.0,
                                 adjusted_r2=0.5)
        row = server_row(util=0.1, cache=0.0, dram=0.0, disk=0.0)
        with caplog.at_level(logging.WARNING, logger="carbonalloc.power"):
            energy = estimate_server_energy(model, row)
        assert energy == 0.0
        assert any("clamp" in rec.message.lower() for rec in caplog.records)


class TestEstimateNetworkEnergy:
    def test_terabyte_pair_is_exact(self):
        assert estimate_network_energy(network_row(10**12, 10**12)) == 120000.0

    def test_direction_totals_pool(self):
        assert estimate_network_energy(network_row(2 * 10**12, 0)) == 120000.0

    def test_zero_traffic(self):
        assert estimate_network_energy(network_row(0, 0)) == 0.0

    def test_correctly_rounded_above_2_53(self):
        total = 2**53 + 1
        got = estimate_network_energy(network_row(total, 0))
        assert got == 540431955.2844596
        assert got == float(Fraction(6 * total, 10**8))

    def test_nominal_constant_matches_implementation(self):
        got = estimate_network_energy(network_row(1, 0))
        assert math.isclose(got, NETWORK_WH_PER_BYTE, rel_tol=1e-15)

    @given(st.integers(min_value=0, max_value=10**14),
           st.integers(min_value=0, max_value=10**14))
    def test_monotone_and_additive(self, sent, received):
        total = estimate_network_energy(network_row(sent, received))
        swapped = estimate_network_energy(network_row(received, sent))
        assert total == swapped
        parts = (estimate_network_energy(network_row(sent, 0))
                 + estimate_network_energy(network_row(0, received)))
        assert math.isclose(total, parts, rel_tol=1e-12, abs_tol=1e-12)


class TestAllocateSharedEnergy:
    COOLING = (SharedDevice("CRAC_1", 10000.0),)

    def test_quarter_share_is_exact(self):
        got = split_shared_wh(shared_energy_total(self.COOLING), 2500.0, 10000.0)
        assert got == 2500.0

    def test_sole_tenant_takes_all(self):
        got = split_shared_wh(shared_energy_total(self.COOLING), 123.0, 123.0)
        assert got == 10000.0

    def test_no_shared_devices_is_zero_even_with_zero_direct(self):
        got = split_shared_wh(shared_energy_total(()), 0.0, 0.0)
        assert got == 0.0

    def test_zero_direct_total_with_shared_energy_raises(self):
        with pytest.raises(ZeroDenominator):
            split_shared_wh(shared_energy_total(self.COOLING), 0.0, 0.0,
                            context="DC_EU1 cooling")

    def test_sum_order_is_device_id_order(self):
        devices = [SharedDevice("B", 0.1), SharedDevice("A", 0.2)]
        got = split_shared_wh(shared_energy_total(devices), 1.0, 1.0)
        assert got == 0.2 + 0.1  # sorted ids: A then B

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=1e9), min_size=2,
                    max_size=50),
           st.floats(min_value=0.0, max_value=1e9))
    def test_allocations_conserve_shared_total(self, directs, shared_wh):
        devices = (SharedDevice("CRAC_1", shared_wh),)
        total_direct = math.fsum(directs)
        allocated = math.fsum(
            split_shared_wh(shared_energy_total(devices), d, total_direct)
            for d in directs)
        assert math.isclose(allocated, shared_wh, rel_tol=1e-9, abs_tol=1e-9)


class TestModelFiles:
    def test_round_trip_preserves_full_precision(self, tmp_path):
        model = fit_server_weights(synth_samples(50), device_model="ABC_987")
        other = ServerPowerModel("XYZ_123", 42.5, 317.0, 2.25e-6, 3.5e-9,
                                 6.25e-10, adjusted_r2=0.9921875)
        path = tmp_path / "models.csv"
        write_models(path, {"ABC_987": model, "XYZ_123": other})
        loaded = read_models(path)
        assert loaded["ABC_987"] == model
        assert loaded["XYZ_123"] == other

    def test_duplicate_model_rows_rejected(self, tmp_path):
        path = tmp_path / "models.csv"
        model = ServerPowerModel("ABC_987", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        write_models(path, {"ABC_987": model})
        line = path.read_text().splitlines()[-1]
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(Exception, match="duplicate"):
            read_models(path)

    def test_missing_model_file_raises_ingest_error(self, tmp_path):
        # must surface as a parse-level error, not a bare FileNotFoundError
        with pytest.raises(IngestError, match="cannot read file"):
            read_models(tmp_path / "nope.csv")
        with pytest.raises(IngestError, match="cannot read file"):
            read_calibration_samples(tmp_path / "nope.csv")

    def test_read_calibration_samples_groups_by_model(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(
            "# schema_version=1\n"
            "device_model,cpu_utilization,cache_moved,dram_accessed,"
            "disk_moved,measured_energy_wh\n"
            "ABC_987,0.1,1e6,1e9,1e10,120.5\n"
            "XYZ_123,0.9,2e6,2e9,2e10,310.0\n"
            "ABC_987,0.2,1e6,1e9,1e10,170.5\n",
            encoding="utf-8")
        groups = read_calibration_samples(path)
        assert sorted(groups) == ["ABC_987", "XYZ_123"]
        assert len(groups["ABC_987"]) == 2
        assert groups["ABC_987"][0].measured_energy == 120.5

    def test_measured_energy_must_be_nonnegative(self):
        with pytest.raises(UnitError):
            CalibrationSample(0.1, 0.0, 0.0, 0.0, check_energy(-1.0))
