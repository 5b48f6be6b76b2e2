"""Canonical units, the checks that keep figures in them, and ``Period``.

Every figure is a plain ``float`` (or, for counters and ``agent_count``, an
``int``) in one canonical unit:

* energy: watt-hours (Wh)
* emissions: grams of CO2-equivalent (gCO2e)
* carbon intensity: grams of CO2-equivalent per watt-hour (gCO2e/Wh)
* shares and ratios: dimensionless fractions in [0, 1]

A figure is checked once, where it enters a stage. Ingest's row getters
check what the input files hold (grid intensities among them), and the
report parser's field table what a stored report holds. The engine checks
the figures it derives in two places only: phase 1 bounds each data
center's totals, and a tenant's ``Footprint`` its two totals and the sums
its report writes that these do not bound (see :mod:`.allocation`). The
checks below return a figure unchanged or raise :class:`UnitError`; the
``power`` helpers, ``--l-share`` and ``generate_fleet`` use them too. A
number is finite when it lies within float range, so an int too large to
convert to a float is not.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .errors import UnitError

__all__ = [
    "Period",
    "check_energy",
    "check_emissions",
    "check_share",
    "SCOPE2_COMPONENTS",
]

# Scope 2 is always decomposed into exactly these energy categories.
SCOPE2_COMPONENTS = ("server", "network", "cooling", "other")


_MAX = sys.float_info.max


def _finite(value: float, what: str) -> float:
    if type(value) is float and -_MAX <= value <= _MAX:
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise UnitError(f"{what} must be a number, got {type(value).__name__}")
    if not -_MAX <= value <= _MAX:  # exact for an int, False for nan
        raise UnitError(f"{what} must be finite, got {value!r}")
    return value


def check_energy(value: float) -> float:
    """``value``, an amount of energy in Wh: finite and never negative."""
    if _finite(value, "energy (Wh)") < 0:
        raise UnitError(f"energy must be >= 0 Wh, got {value!r}")
    return value


def check_emissions(value: float, allow_negative: bool = False) -> float:
    """``value``, a mass of emissions in gCO2e: finite and, unless
    ``allow_negative``, never negative. Only a net figure may be negative:
    a tenant whose offsets exceed its gross footprint is over-offset.
    """
    if _finite(value, "emissions (gCO2e)") < 0 and not allow_negative:
        raise UnitError(f"emissions must be >= 0 gCO2e, got {value!r}")
    return value


def check_share(value: float) -> float:
    """``value``, a dimensionless fraction within [0, 1]."""
    if not 0.0 <= _finite(value, "share") <= 1.0:
        raise UnitError(f"share must be within [0, 1], got {value!r}")
    return value


_PERIOD_RE = re.compile(r"([0-9]{4})-([0-9]{2})")


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
        """The period ``text`` spells exactly: ASCII ``YYYY-MM``, nothing
        around it."""
        m = _PERIOD_RE.fullmatch(text)
        if not m:
            raise UnitError(f"period must look like YYYY-MM, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def prev(self) -> "Period":
        if self.month == 1:
            return Period(self.year - 1, 12)
        return Period(self.year, self.month - 1)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"
