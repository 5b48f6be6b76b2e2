"""Unit-bearing value types used throughout the allocation pipeline.

Every physical quantity is wrapped in a small frozen dataclass that validates
its invariants at construction time. A bare float ambiguity (is this Wh or
kWh? grams or kilograms?) is the classic source of silent unit errors in
sustainability tooling, so the wrappers are deliberately kept cheap: a single
``value`` slot plus validation.

The wrappers guard the boundaries: values read at ingest, figures parsed
from a stored report, and the figures records derive from their own fields
(a pair's Scope 2 emissions, its ratio, a tenant's ``Footprint`` totals),
checked as they are derived. ``DeviceShare`` and ``DcFootprint`` hold plain
floats; a ``DcFootprint`` checks its figures, derived ones too, through these
types once, when it is built. A stored report's copies of derived figures
are compared with them where the report is parsed.

Canonical units:

* energy: watt-hours (Wh)
* emissions: grams of CO2-equivalent (gCO2e)
* carbon intensity: grams of CO2-equivalent per watt-hour (gCO2e/Wh)
* shares and ratios: dimensionless fractions in [0, 1]
"""

from __future__ import annotations

import math
import re
from dataclasses import InitVar, dataclass

from .errors import UnitError

__all__ = [
    "EnergyWh",
    "EmissionsG",
    "CarbonIntensity",
    "Share",
    "Period",
    "emissions_from_energy",
    "is_finite",
    "SCOPE2_COMPONENTS",
]

# Scope 2 is always decomposed into exactly these energy categories.
SCOPE2_COMPONENTS = ("server", "network", "cooling", "other")


def is_finite(value: int | float) -> bool:
    """``math.isfinite`` that answers False for an int beyond float range.

    ``math.isfinite`` raises ``OverflowError`` on such an int, and a number
    parsed from JSON can be one.
    """
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require_finite(value: float, what: str) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise UnitError(f"{what} must be a number, got {type(value).__name__}")
    if not is_finite(value):
        raise UnitError(f"{what} must be finite, got {value!r}")


@dataclass(frozen=True, slots=True)
class EnergyWh:
    """An amount of energy in watt-hours. Never negative."""

    value: float

    def __post_init__(self) -> None:
        _require_finite(self.value, "energy (Wh)")
        if self.value < 0:
            raise UnitError(f"energy must be >= 0 Wh, got {self.value!r}")

    def __add__(self, other: "EnergyWh") -> "EnergyWh":
        return EnergyWh(self.value + other.value)


@dataclass(frozen=True, slots=True)
class EmissionsG:
    """A mass of emissions in grams of CO2-equivalent.

    Gross figures are never negative. Net figures may be: a tenant whose
    offsets exceed its gross footprint carries a negative net, which is
    meaningful (over-offsetting) rather than an error. Construct those with
    ``EmissionsG(x, allow_negative=True)``.
    """

    value: float
    allow_negative: InitVar[bool] = False

    def __post_init__(self, allow_negative: bool) -> None:
        _require_finite(self.value, "emissions (gCO2e)")
        if self.value < 0 and not allow_negative:
            raise UnitError(f"emissions must be >= 0 gCO2e, got {self.value!r}")

    def __add__(self, other: "EmissionsG") -> "EmissionsG":
        return EmissionsG(self.value + other.value, allow_negative=True)


@dataclass(frozen=True, slots=True)
class CarbonIntensity:
    """Grid carbon intensity in grams of CO2-equivalent per watt-hour."""

    value: float

    def __post_init__(self) -> None:
        _require_finite(self.value, "carbon intensity (gCO2e/Wh)")
        if self.value < 0:
            raise UnitError(f"carbon intensity must be >= 0, got {self.value!r}")


@dataclass(frozen=True, slots=True)
class Share:
    """A dimensionless fraction constrained to [0, 1]."""

    value: float

    def __post_init__(self) -> None:
        _require_finite(self.value, "share")
        if not 0.0 <= self.value <= 1.0:
            raise UnitError(f"share must be within [0, 1], got {self.value!r}")


def emissions_from_energy(energy: EnergyWh, intensity: CarbonIntensity) -> EmissionsG:
    """Convert energy to emissions at a given grid carbon intensity."""
    return EmissionsG(energy.value * intensity.value)


_PERIOD_RE = re.compile(r"^(\d{4})-(\d{2})$")


@dataclass(frozen=True, slots=True, order=True)
class Period:
    """A reporting month, formatted ``YYYY-MM``."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if not (1 <= self.month <= 12):
            raise UnitError(f"month must be 1..12, got {self.month!r}")
        if not (1 <= self.year <= 9999):
            raise UnitError(f"year must be 1..9999, got {self.year!r}")

    @classmethod
    def parse(cls, text: str) -> "Period":
        m = _PERIOD_RE.match(text.strip())
        if not m:
            raise UnitError(f"period must look like YYYY-MM, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def prev(self) -> "Period":
        if self.month == 1:
            return Period(self.year - 1, 12)
        return Period(self.year, self.month - 1)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"
