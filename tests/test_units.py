import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from carbonalloc.errors import UnitError
from carbonalloc.units import (
    CarbonIntensity,
    EmissionsG,
    EnergyWh,
    Period,
    Share,
    emissions_from_energy,
)


class TestEnergyWh:
    def test_accepts_zero_and_positive(self):
        assert EnergyWh(0.0).value == 0.0
        assert EnergyWh(120000.0).value == 120000.0

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, float("nan"), float("inf"), True])
    def test_rejects(self, bad):
        with pytest.raises(UnitError):
            EnergyWh(bad)

    def test_addition(self):
        assert (EnergyWh(100000.0) + EnergyWh(20000.0)).value == 120000.0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EnergyWh(1.0).value = 2.0  # type: ignore[misc]


class TestEmissionsG:
    def test_rejects_negative_by_default(self):
        with pytest.raises(UnitError):
            EmissionsG(-5.0)

    def test_allow_negative_for_net_figures(self):
        assert EmissionsG(-5.0, allow_negative=True).value == -5.0

    def test_sum_of_nonnegatives_stays_valid(self):
        total = EmissionsG(40000.0) + EmissionsG(1760000.0)
        assert total.value == 1800000.0

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(UnitError):
            EmissionsG(bad, allow_negative=True)


class TestShare:
    @pytest.mark.parametrize("ok", [0.0, 0.25, 1.0])
    def test_bounds_inclusive(self, ok):
        assert Share(ok).value == ok

    @pytest.mark.parametrize("bad", [-0.1, 1.0000001, float("nan")])
    def test_out_of_range(self, bad):
        with pytest.raises(UnitError):
            Share(bad)


class TestPeriod:
    def test_parse_and_str_round_trip(self):
        p = Period.parse("2025-06")
        assert (p.year, p.month) == (2025, 6)
        assert str(p) == "2025-06"

    @pytest.mark.parametrize("bad", ["2025-13", "2025-00", "2025-6", "202506", "2025/06", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(UnitError):
            Period.parse(bad)

    def test_prev_within_year(self):
        assert Period(2025, 6).prev() == Period(2025, 5)

    def test_prev_across_year_boundary(self):
        assert Period(2025, 1).prev() == Period(2024, 12)

    def test_ordering(self):
        assert Period(2024, 12) < Period(2025, 1) < Period(2025, 2)


class TestEmissionsFromEnergy:
    def test_report_figures_are_exact(self):
        # 100000 Wh at 0.4 g/Wh and 4500000 Wh at 0.4 g/Wh are both exactly
        # representable products; no tolerance needed.
        assert emissions_from_energy(EnergyWh(100000.0), CarbonIntensity(0.4)).value == 40000.0
        assert emissions_from_energy(EnergyWh(4500000.0), CarbonIntensity(0.4)).value == 1800000.0

    def test_zero_energy(self):
        assert emissions_from_energy(EnergyWh(0.0), CarbonIntensity(0.4)).value == 0.0

    @given(
        energy=st.floats(min_value=0.0, max_value=1e12),
        intensity=st.floats(min_value=0.0, max_value=10.0),
        k=st.floats(min_value=0.001, max_value=1000.0),
    )
    def test_scales_linearly(self, energy, intensity, k):
        base = emissions_from_energy(EnergyWh(energy), CarbonIntensity(intensity)).value
        scaled = emissions_from_energy(EnergyWh(energy * k), CarbonIntensity(intensity)).value
        assert math.isclose(scaled, base * k, rel_tol=1e-12, abs_tol=1e-12)
