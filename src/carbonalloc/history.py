"""Prior-period storage for the month-over-month comparison.

Layout: ``<root>/<tenant_id>/<YYYY-MM>.json``, each file being the tenant's
full JSON report for that period. Only the report's identity and headline
figures are read back, through ``report.report_identity`` and
``report.report_headline``; the rest of the file is carried for
auditability.

``write_below`` creates every output directory and every report, history
and synthetic fleet file; ``power.write_models`` writes the only other file.
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


def _link(path: Path) -> OSError:
    return OSError(errno.ELOOP, "is a symbolic link, which is not followed",
                   str(path))


def _open_root(root: Path, leaf: Path) -> int:
    """A descriptor of ``root``, created with its parents if missing.

    ``root`` is the operator's own path and may be a link. When it or a
    directory above it is not a directory, the error names ``leaf`` as
    ``mkdir -p`` of ``leaf`` would.
    """
    try:
        return os.open(root, _ROOT_FLAGS)
    except NotADirectoryError as exc:
        if leaf != root:
            exc.filename = str(leaf)
            raise
    except FileNotFoundError:
        pass
    root.mkdir(parents=True, exist_ok=True)
    return os.open(root, _ROOT_FLAGS)


def _open_dir(parent: int, name: str, path: Path, leaf: Path) -> int:
    """A descriptor of directory ``name`` in ``parent``, created if missing.

    A link there is refused. Anything else that is not a directory fails as
    ``mkdir -p`` of ``leaf`` would: "File exists" when it is ``leaf``
    itself, "Not a directory" naming ``leaf`` when it is above it.
    """
    try:
        try:
            return os.open(name, _DIR_FLAGS, dir_fd=parent)
        except FileNotFoundError:
            os.mkdir(name, dir_fd=parent)
            return os.open(name, _DIR_FLAGS, dir_fd=parent)
    except NotADirectoryError:
        if stat.S_ISLNK(os.lstat(name, dir_fd=parent).st_mode):
            raise _link(path) from None
        if path == leaf:
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST),
                                  str(path)) from None
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                 str(leaf)) from None
    except OSError as exc:
        exc.filename = str(path)
        raise


def write_below(root: Path | str, parts: Sequence[str],
                files: Mapping[str, bytes]) -> list[Path]:
    """Write each of ``files`` into ``root``/``parts``, in order, and return
    their paths.

    ``root`` is created with its parents when missing, and may itself be a
    link. Below it nothing is followed: each directory of ``parts`` is
    created or opened relative to its parent's descriptor, and each file is
    opened in the last one, with ``O_NOFOLLOW``. A link at any of them
    raises an OSError naming it, so no write lands outside ``root``. Other
    failures raise the OSError, naming the same path, that ``mkdir -p`` of
    the directory and ``open(path, "wb")`` of each file would.
    """
    root = Path(root)
    leaf = root.joinpath(*parts)
    fd = _open_root(root, leaf)
    try:
        path = root
        for name in parts:
            path = path / name
            below = _open_dir(fd, name, path, leaf)
            os.close(fd)
            fd = below
        written = []
        for name, content in files.items():
            path = leaf / name
            try:
                file_fd = os.open(name, _FILE_FLAGS, 0o666, dir_fd=fd)
            except OSError as exc:
                if exc.errno == errno.ELOOP:
                    raise _link(path) from None
                exc.filename = str(path)
                raise
            with open(file_fd, "wb") as stream:
                stream.write(content)
            written.append(path)
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
