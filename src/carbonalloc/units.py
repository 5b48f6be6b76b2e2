"""Canonical units, the checks that keep figures in them, ``Period``, and
:class:`CheckedRecord`, the base of every record that checks or derives a
field.

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
``power`` helpers and ``generate_fleet`` use them too. A
number is finite when it lies within float range, so an int too large to
convert to a float is not.
"""

from __future__ import annotations

import re
import sys
from typing import Any, Iterable, NamedTuple

from .errors import UnitError

__all__ = [
    "Period",
    "check_energy",
    "check_emissions",
    "check_share",
    "sum_in_order",
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


def sum_in_order(values: Iterable[float]) -> float:
    """``values`` added left to right, one rounding per term.

    From Python 3.12 on, ``sum`` compensates float rounding and can differ
    from this in the last bits. Every float sum that reaches a report or
    stdout adds left to right, here or in a loop of its own, so each
    supported Python writes the same bytes.
    """
    total = 0.0
    for value in values:
        total += value
    return total


_PERIOD_RE = re.compile(r"([0-9]{4})-([0-9]{2})")


class CheckedRecord:
    """What a NamedTuple record that checks or derives a field adds to it.

    Such a record is a subclass of this class and of a private NamedTuple
    holding every field, the ones it derives (named in ``_derived``)
    included, so ``_fields`` lists them all. Its ``__new__`` takes the other
    fields, its sources, in field order, checks them, derives the rest once
    and stores them all. A record equals only a record of its own type.
    ``_replace`` builds the copy through ``__new__`` from the sources, so
    the copy is checked and derived again; replacing a derived field raises
    ``ValueError``.
    """

    __slots__ = ()
    _derived: tuple[str, ...] = ()

    def _sources(self) -> dict[str, Any]:
        return {name: value for name, value in zip(self._fields, self)
                if name not in self._derived}

    def _replace(self, /, **changes: Any) -> Any:
        derived = [name for name in changes if name in self._derived]
        if derived:
            raise ValueError(f"{type(self).__name__} derives {', '.join(derived)}; "
                             "replace the fields it is derived from")
        return type(self)(**{**self._sources(), **changes})

    def __getnewargs__(self) -> tuple[Any, ...]:  # copy and pickle
        return tuple(self._sources().values())

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


class _Period(NamedTuple):
    year: int
    month: int


class Period(CheckedRecord, _Period):
    """A reporting month, formatted ``YYYY-MM``; periods order by date."""

    __slots__ = ()

    def __new__(cls, year: int, month: int) -> "Period":
        if not (1 <= month <= 12):
            raise UnitError(f"month must be 1..12, got {month!r}")
        if not (1 <= year <= 9999):
            raise UnitError(f"year must be 1..9999, got {year!r}")
        return super().__new__(cls, year, month)

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
