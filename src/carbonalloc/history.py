"""Prior-period storage for the month-over-month comparison.

Layout: ``<root>/<tenant_id>/<YYYY-MM>.json``, each file being the tenant's
full JSON report for that period. Only the report's identity and headline
figures are read back, through ``report.report_identity`` and
``report.report_headline``; the rest of the file is carried for
auditability.

``write_below`` writes every output file, ``calibrate``'s models included,
by one rule: the directory given may be a link and is created if missing,
nothing below it may be a link, and any failure names its path.
"""

from __future__ import annotations

import errno
import os
import stat
from pathlib import Path
from typing import Mapping, Sequence

from .allocation import HistoryEntry
from .errors import warn
from .report import ReportError, load_doc, report_headline, report_identity
from .units import Period

__all__ = ["HistoryStore", "write_below"]

_EARLIEST = Period(1, 1)

_ROOT_FLAGS = os.O_RDONLY | os.O_DIRECTORY | os.O_CLOEXEC
_DIR_FLAGS = _ROOT_FLAGS | os.O_NOFOLLOW
_FILE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW | os.O_CLOEXEC


def _failed(exc: OSError, parent: int, name: str, path: Path) -> OSError:
    """``exc``, raised opening ``name`` in the directory ``parent``, naming
    ``path``; or, when ``name`` is a link, the refusal to follow it."""
    try:
        link = stat.S_ISLNK(os.lstat(name, dir_fd=parent).st_mode)
    except OSError:
        link = False
    if link:
        return OSError(errno.ELOOP, "is a symbolic link, which is not followed",
                       str(path))
    exc.filename = str(path)
    return exc


def write_below(root: Path | str, parts: Sequence[str],
                files: Mapping[str, bytes]) -> list[Path]:
    """Write each of ``files`` into ``root``/``parts``, in order, and return
    their paths.

    ``root`` is created with its parents when missing, and may itself be a
    link. Below it nothing is followed: each directory of ``parts`` is
    created or opened relative to its parent's descriptor, and each file is
    opened in the last one, with ``O_NOFOLLOW``. A link at any of them
    raises an OSError naming it, so no write lands outside ``root``. Any
    other failure raises its OSError naming the path where the failing call
    was made: ``root`` as given, a directory of ``parts``, or the file
    (its open, a write or its close).
    """
    path = Path(root)
    try:
        fd = os.open(path, _ROOT_FLAGS)
    except FileNotFoundError:
        path.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, _ROOT_FLAGS)
    try:
        for name in parts:
            path = path / name
            try:
                try:
                    below = os.open(name, _DIR_FLAGS, dir_fd=fd)
                except FileNotFoundError:
                    os.mkdir(name, dir_fd=fd)
                    below = os.open(name, _DIR_FLAGS, dir_fd=fd)
            except OSError as exc:
                raise _failed(exc, fd, name, path) from None
            os.close(fd)
            fd = below
        written = []
        for name, content in files.items():
            try:
                with open(os.open(name, _FILE_FLAGS, 0o666, dir_fd=fd),
                          "wb") as stream:
                    stream.write(content)
            except OSError as exc:
                raise _failed(exc, fd, name, path / name) from None
            written.append(path / name)
        return written
    finally:
        os.close(fd)


class HistoryStore:
    """Filesystem-backed store of per-tenant, per-period report JSON.

    The store lives at ``root``/``below``. ``root`` may be a link; the
    directories of ``below`` and of each tenant, and the files written in
    them, may not (see :func:`write_below`). Reads follow links.
    """

    def __init__(self, root: Path | str, *below: str):
        self.base = Path(root)
        self.below = below
        self.root = self.base.joinpath(*below)

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
        (path,) = write_below(self.base, (*self.below, tenant_id),
                              {f"{period}.json": document})
        return path
