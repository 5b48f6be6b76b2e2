"""Power models: OLS fitting, estimation exactness, shared-energy splits."""

import logging
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbonalloc.allocation import fleet_totals
from carbonalloc.errors import IngestError, PowerModelError, UnitError
from carbonalloc.ingest import NetworkUsage, ServerUsage, SharedDevice
from carbonalloc.power import (
    MIN_CALIBRATION_SAMPLES,
    NETWORK_WH_PER_BYTE,
    CalibrationSample,
    ServerPowerModel,
    estimate_network_energy,
    estimate_server_energy,
    fit_server_weights,
    format_models,
    read_calibration_samples,
    read_models,
    split_shared_wh,
)
from carbonalloc.units import check_energy
from conftest import intercept_model

TRUE_WEIGHTS = (10.0, 500.0, 1e-6, 2e-9, 5e-10)  # intercept, cpu, cache, dram, disk

# Five device models' generating weights, and the models.csv that 400 noisy
# samples of each (golden_samples) fit to, byte for byte.
GOLDEN_WEIGHTS = {
    "M_1": (10.0, 500.0, 1e-6, 2e-9, 5e-10),
    "M_2": (42.5, 317.0, 2.25e-6, 3.5e-9, 6.25e-10),
    "M_3": (3.0, 120.0, 4e-7, 1e-9, 2e-10),
    "M_4": (75.0, 900.0, 3e-6, 5e-9, 1e-9),
    "M_5": (20.0, 250.0, 8e-7, 1.5e-9, 3e-10),
}
GOLDEN_MODELS = """\
# schema_version=1
device_model,intercept,w_cpu,w_cache,w_dram,w_disk,adjusted_r2
M_1,6.820233738689073,510.6238524401803,1.0460357888137209e-06,1.4667876885801187e-09,\
5.038396221927772e-10,0.9751208473136027
M_2,36.60200406863878,319.2639309764791,2.109398786463546e-06,3.095123258629617e-09,\
1.0063234966058918e-09,0.9452117557611514
M_3,5.21009010515225,111.4313733050214,4.336687666787072e-07,8.521150472538142e-10,\
2.403934156385782e-10,0.6435850540605498
M_4,75.84651454365611,901.5853925121594,2.8983212993687475e-06,4.4988934374169445e-09,\
1.1039310478573554e-09,0.9916705963496291
M_5,21.06835416950576,250.12003847555437,7.980395046962527e-07,1.099403067120738e-09,\
3.670005951199685e-10,0.8966433698127666
"""


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


def golden_samples(path):
    """Write 400 samples per GOLDEN_WEIGHTS model, with 25 Wh of noise."""
    rng = random.Random(11)
    lines = ["# schema_version=1", "device_model,cpu_utilization,cache_moved,"
             "dram_accessed,disk_moved,measured_energy_wh"]
    for name, (b0, b1, b2, b3, b4) in GOLDEN_WEIGHTS.items():
        for _ in range(400):
            u, cache = rng.uniform(0.0, 1.0), rng.uniform(0.0, 5e7)
            dram, disk = rng.uniform(0.0, 1e10), rng.uniform(0.0, 5e10)
            energy = max(b0 + b1 * u + b2 * cache + b3 * dram + b4 * disk
                         + rng.gauss(0.0, 25.0), 0.0)
            lines.append(f"{name},{u!r},{cache!r},{dram!r},{disk!r},{energy!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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
        message = (f"{MIN_CALIBRATION_SAMPLES - 1} calibration sample(s); at least "
                   f"{MIN_CALIBRATION_SAMPLES} required")
        with pytest.raises(PowerModelError, match=f"^{re.escape(message)}$"):
            fit_server_weights(synth_samples(MIN_CALIBRATION_SAMPLES - 1))

    def test_exactly_minimum_samples_accepted(self):
        model = fit_server_weights(synth_samples(MIN_CALIBRATION_SAMPLES))
        assert math.isclose(model.w_cpu, 500.0, rel_tol=1e-6)

    def test_constant_regressor_reported_as_singular(self):
        samples = [CalibrationSample(0.5, s.cache_moved, s.dram_accessed,
                                     s.disk_moved, s.measured_energy)
                   for s in synth_samples(20)]
        with pytest.raises(PowerModelError, match=r"^singular calibration design: "
                           r"collinear column\(s\): intercept, cpu_utilization "
                           r"\(normalized Gram matrix has an eigenvalue <= 1e-20 x "
                           r"trace\)$"):
            fit_server_weights(samples)

    def test_identically_zero_regressor_named(self):
        samples = [CalibrationSample(s.cpu_utilization, s.cache_moved,
                                     s.dram_accessed, 0.0, s.measured_energy)
                   for s in synth_samples(20)]
        with pytest.raises(PowerModelError, match=r"^singular calibration design: "
                           r"regressor\(s\) identically zero across all samples: "
                           r"disk_moved$"):
            fit_server_weights(samples)

    def test_collinear_regressors_reported(self):
        # dram always exactly 100x cache: the two columns are dependent.
        samples = [CalibrationSample(s.cpu_utilization, s.cache_moved,
                                     s.cache_moved * 100.0, s.disk_moved,
                                     s.measured_energy)
                   for s in synth_samples(20)]
        with pytest.raises(PowerModelError, match=r"^singular calibration design: "
                           r"collinear column\(s\): cache_moved, dram_accessed "
                           r"\(normalized Gram matrix has an eigenvalue <= 1e-20 x "
                           r"trace\)$"):
            fit_server_weights(samples)

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

    def test_exact_linear_combinations_fit_bit_for_bit(self):
        """Power-of-two weights and small whole counters make every product
        and sum exact, so the fit returns the weights themselves."""
        weights = (8.0, 256.0, 2.0 ** -20, 2.0 ** -30, 2.0 ** -32)
        for seed in range(5):
            rng = random.Random(seed)
            samples = []
            for _ in range(40):
                usage = (rng.randint(0, 64) / 64, float(rng.randint(0, 10**6)),
                         float(rng.randint(0, 10**9)), float(rng.randint(0, 10**9)))
                energy = weights[0]
                for weight, counter in zip(weights[1:], usage):
                    energy += weight * counter
                samples.append(CalibrationSample(*usage, energy))
            model = fit_server_weights(samples)
            assert model[1:6] == weights
            assert model.adjusted_r2 == 1.0

    def test_weight_beyond_float_range_names_the_model(self):
        rng = random.Random(5)
        samples = [CalibrationSample(rng.uniform(1e-4, 1e-3), rng.uniform(0.0, 5e7),
                                     rng.uniform(0.0, 1e10), rng.uniform(0.0, 5e10),
                                     rng.uniform(1e307, 1.7e308))
                   for _ in range(20)]
        with pytest.raises(PowerModelError,
                           match="^weight beyond float range for 'BIG'$"):
            fit_server_weights(samples, device_model="BIG")

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
    COOLING_WH = 10000.0

    def test_quarter_share_is_exact(self):
        got = split_shared_wh(self.COOLING_WH, 2500.0, 10000.0)
        assert got == 2500.0

    def test_sole_tenant_takes_all(self):
        got = split_shared_wh(self.COOLING_WH, 123.0, 123.0)
        assert got == 10000.0

    def test_no_shared_devices_is_zero_even_with_zero_direct(self):
        got = split_shared_wh(0.0, 0.0, 0.0)
        assert got == 0.0

    def test_zero_direct_total_with_shared_energy_raises(self):
        with pytest.raises(UnitError, match=r"^shared energy cannot be allocated in "
                                            r"DC_EU1 cooling: total direct tenant "
                                            r"energy is zero$"):
            split_shared_wh(self.COOLING_WH, 0.0, 0.0, context="DC_EU1 cooling")

    def test_sum_order_is_device_id_order(self, fictitious_raw):
        """Phase 1 sums a data center's shared devices in id order, A, B, C,
        to 1.0; in file order the two small energies would round it up."""
        dc = fictitious_raw.datacenters["DC_EU1"]._replace(other_devices=(
            SharedDevice("B", 1e-16), SharedDevice("C", 1e-16),
            SharedDevice("A", 1.0)))
        raw = fictitious_raw._replace(datacenters={"DC_EU1": dc}, network=())
        totals = fleet_totals(raw, {"ABC_987": intercept_model("ABC_987", 1.0)})
        _, _, energy = totals.pairs[("TENANT_X", "DC_EU1")]
        assert energy["other"] == 1.0  # the sole tenant's split: 1.0 * 1 Wh / 1 Wh
        assert 1e-16 + 1e-16 + 1.0 != 1.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=1e9), min_size=2,
                    max_size=50),
           st.floats(min_value=0.0, max_value=1e9))
    def test_allocations_conserve_shared_total(self, directs, shared_wh):
        total_direct = math.fsum(directs)
        allocated = math.fsum(
            split_shared_wh(shared_wh, d, total_direct) for d in directs)
        assert math.isclose(allocated, shared_wh, rel_tol=1e-9, abs_tol=1e-9)


class TestModelFiles:
    def test_round_trip_preserves_full_precision(self, tmp_path):
        model = fit_server_weights(synth_samples(50), device_model="ABC_987")
        other = ServerPowerModel("XYZ_123", 42.5, 317.0, 2.25e-6, 3.5e-9,
                                 6.25e-10, adjusted_r2=0.9921875)
        path = tmp_path / "models.csv"
        path.write_text(format_models({"ABC_987": model, "XYZ_123": other}),
                        encoding="utf-8")
        loaded = read_models(path)
        assert loaded["ABC_987"] == model
        assert loaded["XYZ_123"] == other

    def test_golden_models_file_is_pinned_byte_for_byte(self, tmp_path):
        """The fit is exact, so a samples file gives one models.csv on every
        machine."""
        grouped = read_calibration_samples(golden_samples(tmp_path / "samples.csv"))
        path = tmp_path / "models.csv"
        path.write_text(format_models({
            name: fit_server_weights(samples, device_model=name)
            for name, samples in grouped.items()}), encoding="utf-8")
        assert path.read_text(encoding="utf-8") == GOLDEN_MODELS

    def test_duplicate_model_rows_rejected(self, tmp_path):
        path = tmp_path / "models.csv"
        model = ServerPowerModel("ABC_987", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        path.write_text(format_models({"ABC_987": model}), encoding="utf-8")
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
