"""Prior-period storage for the month-over-month comparison.

Layout: ``<root>/<tenant_id>/<YYYY-MM>.json``, each file being the tenant's
full JSON report for that period. Only the report's identity and headline
figures are read back, through ``report.report_identity`` and
``report.report_headline``; the rest of the file is carried for
auditability.
"""

from __future__ import annotations

from pathlib import Path

from .allocation import HistoryEntry
from .errors import warn
from .report import ReportError, load_doc, report_headline, report_identity
from .units import Period

__all__ = ["HistoryStore"]

_EARLIEST = Period(1, 1)


class HistoryStore:
    """Filesystem-backed store of per-tenant, per-period report JSON."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def path_for(self, tenant_id: str, period: Period) -> Path:
        return self.root / tenant_id / f"{period}.json"

    def load_entry(self, tenant_id: str, period: Period) -> HistoryEntry | None:
        """Read one period's headline figures, or None when absent/unreadable.

        A corrupt or unreadable history file degrades the trend section of the
        next report, which is not worth failing a whole monthly run over; it
        is logged and skipped. So is a report of another tenant or month than
        its path names, whose figures would pass for this tenant's. Figures
        must be JSON numbers, as in a report: a string or a boolean is
        corrupt, not converted.
        """
        path = self.path_for(tenant_id, period)
        try:
            if not path.is_file():  # a stat: a FIFO here is never opened
                return None
            doc = load_doc(path.read_bytes())
            held = report_identity(doc)
            if held != (tenant_id, period):
                raise ReportError(f"it holds the report of tenant {held[0]!r} "
                                  f"for period '{held[1]}'")
            return HistoryEntry(period, *report_headline(doc))
        except (OSError, ReportError) as exc:
            warn(__name__, "unreadable history file %s: %s", path,
                 getattr(exc, "strerror", None) or exc)
            return None

    def prior_entries(self, tenant_id: str, period: Period) -> tuple[HistoryEntry, ...]:
        """The up to two immediately preceding months, most recent first.

        Only consecutive prior months are considered: a gap in the store ends
        the lookback (comparing against a stale non-adjacent month would be
        presented as if it were last month), and so does the earliest
        representable month, 0001-01.
        """
        entries: list[HistoryEntry] = []
        cursor = period
        for _ in range(2):
            if cursor == _EARLIEST:
                break
            cursor = cursor.prev()
            entry = self.load_entry(tenant_id, cursor)
            if entry is None:
                break
            entries.append(entry)
        return tuple(entries)

    def save(self, tenant_id: str, period: Period, document: bytes) -> Path:
        """Write (or replace) one period's report JSON for a tenant."""
        path = self.path_for(tenant_id, period)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(document)
        return path
