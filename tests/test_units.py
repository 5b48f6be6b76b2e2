import ast
from pathlib import Path

import pytest

from carbonalloc import units
from carbonalloc.errors import UnitError
from carbonalloc.units import (
    SCOPE2_COMPONENTS,
    Period,
    check_emissions,
    check_energy,
    check_share,
)


def test_only_units_lists_the_scope2_components():
    """The four Scope 2 categories are listed in one place: no module but
    units.py holds all four names in a tuple, list, set or dict display."""
    listed = []
    for path in sorted(Path(units.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                members = node.elts
            elif isinstance(node, ast.Dict):
                members = node.keys
            else:
                continue
            names = {m.value for m in members if isinstance(m, ast.Constant)}
            if names >= set(SCOPE2_COMPONENTS):
                listed.append((path.name, node.lineno))
    assert [name for name, _ in listed] == ["units.py"], listed


class TestEnergyWh:
    def test_accepts_zero_and_positive(self):
        assert check_energy(0.0) == 0.0
        assert check_energy(120000.0) == 120000.0

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, float("nan"), float("inf"), True])
    def test_rejects(self, bad):
        with pytest.raises(UnitError):
            check_energy(bad)

    @pytest.mark.parametrize("bad, message", [
        (-1.0, "energy must be >= 0 Wh, got -1.0"),
        (float("nan"), "energy (Wh) must be finite, got nan"),
        (float("-inf"), "energy (Wh) must be finite, got -inf"),
        (True, "energy (Wh) must be a number, got bool"),
        ("1", "energy (Wh) must be a number, got str"),
    ])
    def test_messages(self, bad, message):
        with pytest.raises(UnitError) as raised:
            check_energy(bad)
        assert str(raised.value) == message


class TestEmissionsG:
    def test_rejects_negative_by_default(self):
        with pytest.raises(UnitError):
            check_emissions(-5.0)

    def test_allow_negative_for_net_figures(self):
        assert check_emissions(-5.0, allow_negative=True) == -5.0

    def test_sum_of_nonnegatives_stays_valid(self):
        total = check_emissions(check_emissions(40000.0) + check_emissions(1760000.0))
        assert total == 1800000.0

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(UnitError):
            check_emissions(bad, allow_negative=True)

    @pytest.mark.parametrize("bad, allow_negative, message", [
        (-5.0, False, "emissions must be >= 0 gCO2e, got -5.0"),
        (float("inf"), False, "emissions (gCO2e) must be finite, got inf"),
        (float("inf"), True, "emissions (gCO2e) must be finite, got inf"),
        (10**400, True, f"emissions (gCO2e) must be finite, got {10**400!r}"),
        (None, False, "emissions (gCO2e) must be a number, got NoneType"),
    ])
    def test_messages(self, bad, allow_negative, message):
        with pytest.raises(UnitError) as raised:
            check_emissions(bad, allow_negative=allow_negative)
        assert str(raised.value) == message


class TestShare:
    @pytest.mark.parametrize("ok", [0.0, 0.25, 1.0])
    def test_bounds_inclusive(self, ok):
        assert check_share(ok) == ok

    @pytest.mark.parametrize("bad", [-0.1, 1.0000001, float("nan")])
    def test_out_of_range(self, bad):
        with pytest.raises(UnitError):
            check_share(bad)

    @pytest.mark.parametrize("bad, message", [
        (1.5, "share must be within [0, 1], got 1.5"),
        (-0.1, "share must be within [0, 1], got -0.1"),
        (float("nan"), "share must be finite, got nan"),
        (float("inf"), "share must be finite, got inf"),
    ])
    def test_messages(self, bad, message):
        with pytest.raises(UnitError) as raised:
            check_share(bad)
        assert str(raised.value) == message


class TestPeriod:
    def test_parse_and_str_round_trip(self):
        p = Period.parse("2025-06")
        assert (p.year, p.month) == (2025, 6)
        assert str(p) == "2025-06"

    @pytest.mark.parametrize("bad", ["2025-13", "2025-00", "2025-6", "202506", "2025/06", "",
                                     " 2025-06 ", "\u0662\u0660\u0662\u0665-\u0660\u0666",
                                     "2025-06\n"])
    def test_parse_rejects(self, bad):
        with pytest.raises(UnitError):
            Period.parse(bad)

    def test_prev_within_year(self):
        assert Period(2025, 6).prev() == Period(2025, 5)

    def test_prev_across_year_boundary(self):
        assert Period(2025, 1).prev() == Period(2024, 12)

    def test_ordering(self):
        assert Period(2024, 12) < Period(2025, 1) < Period(2025, 2)
