"""Run one carbonalloc CLI command in-process, with spans around each layer.

Usage::

    PYTHONPATH=src python3 perfbench/traced.py RESULT_JSON ROUNDTRIP_PATH -- CLI_ARGS...

The public function of every layer is wrapped at its module attributes, so
calls between layers nest (``compute_footprints`` -> ``compute_scope2`` ->
``estimate_server_energy``). After ``cli.main(CLI_ARGS)`` returns, the
report JSON files at ROUNDTRIP_PATH (a file, or a directory searched
recursively) go through ``footprint_from_json`` and ``render_json`` unwrapped,
and the re-rendered bytes are compared with the file. The per-layer metrics
are written to RESULT_JSON; the CLI's own output goes to stdout/stderr as
usual.

A layer's self time is the wall time covered by its spans and not by the
spans of its direct children. Render threads overlap, so this is measured on
the union of intervals, not as a sum of durations.
"""

import sys
import time

_t0 = time.perf_counter()
import carbonalloc.cli  # noqa: E402  (timed: the fresh-interpreter import)

IMPORT_S = time.perf_counter() - _t0

import functools  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import threading  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from carbonalloc import allocation, history, ingest, power, report  # noqa: E402

MB = 1024 * 1024


class Tracer:
    """In-memory spans and counters; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.history_paths: list[Path] = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._gc_start = 0.0

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name: str, fn, on_result=None):
        """A span around ``fn``; ``on_result(args, result)`` records counts.

        A span started on a thread with no open span (a render worker) is a
        child of the root span, the ``cli.main`` call that owns the pool.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1]
            elif tracer.root is None:
                tracer.root = parent = sid
            else:
                parent = tracer.root
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1


def _union(intervals):
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def _overlap(a, b) -> float:
    """Total length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_times(spans) -> dict[str, float]:
    name_of = {sid: name for sid, _, name, _, _ in spans}
    own: dict[str, list] = defaultdict(list)
    children: dict[str, list] = defaultdict(list)
    for sid, parent, name, start, end in spans:
        own[name].append((start, end))
        if parent != sid:
            children[name_of[parent]].append((start, end))
    out = {}
    for name, intervals in own.items():
        covered = _union(intervals)
        total = sum(end - start for start, end in covered)
        out[name] = total - _overlap(covered, _union(children[name]))
    return out


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap each layer's public functions wherever the package binds them.

    Returns (owner, attribute, original) triples for :func:`uninstall`.
    """
    t = tracer

    def loaded(args, raw):
        t.count("ingest.rows", len(raw.servers) + len(raw.network)
                + len(raw.datacenters) + len(raw.tenants))
        t.count("ingest.input_mb", sum(
            (Path(args[0]) / name).stat().st_size
            for name in ingest.INPUT_FILE_NAMES.values()) / MB)

    def scope2(args, entries):
        t.count("allocation.pairs", len(entries))
        t.count("allocation.device_shares",
                sum(len(e.per_device) for e in entries))

    def estimated(args, result):
        t.count("power.estimates")

    def rendered(key):
        return lambda args, doc: t.count(key, len(doc.content) / MB)

    functions = [
        (ingest.load_input_dir, "ingest.load_input_dir", loaded),
        (power.read_models, "power.read_models", None),
        (power.estimate_server_energy, "power.estimate", estimated),
        (power.estimate_network_energy, "power.estimate", estimated),
        (allocation.compute_scope2, "allocation.compute_scope2", scope2),
        (allocation.compute_responsibility_ratios,
         "allocation.responsibility_ratios", None),
        (allocation.compute_footprints, "allocation.compute_footprints", None),
        (allocation.conservation_audit, "allocation.conservation_audit", None),
        (report.render_json, "report.render_json", rendered("report.json_mb")),
        (report.render_onepage, "report.render_onepage",
         rendered("report.html_mb")),
        (carbonalloc.cli.main, "cli.main", None),
    ]
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "carbonalloc" or name.startswith("carbonalloc.")]
    patched = []
    for fn, name, on_result in functions:
        wrapper = t.wrap(name, fn, on_result)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    patched.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    store = history.HistoryStore
    originals = {attr: getattr(store, attr)
                 for attr in ("prior_entries", "save", "load_entry")}

    def loaded_entry(self, tenant_id, period):
        entry = originals["load_entry"](self, tenant_id, period)
        if entry is not None:
            t.count("history.files_read")
            with t._lock:
                t.history_paths.append(self.path_for(tenant_id, period))
        return entry

    store.load_entry = loaded_entry
    store.prior_entries = t.wrap("history.prior_entries",
                                 originals["prior_entries"])
    store.save = t.wrap("history.save", originals["save"],
                        lambda args, path: t.count("history.files_written"))
    patched.extend((store, attr, fn) for attr, fn in originals.items())
    return patched


def uninstall(patched) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def roundtrip(target: Path) -> tuple[float, int, int]:
    """Seconds in footprint_from_json, re-render mismatches, reports checked."""
    files = sorted(target.rglob("*.json")) if target.is_dir() else [target]
    seconds, mismatches = 0.0, 0
    for path in files:
        content = path.read_bytes()
        start = time.perf_counter()
        fp = report.footprint_from_json(content)
        seconds += time.perf_counter() - start
        again = report.render_json(fp, report.factors_from_json(content))
        mismatches += again.content != content
    return seconds, mismatches, len(files)


def main(argv: list[str]) -> int:
    result_path, roundtrip_path = Path(argv[0]), Path(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: traced.py RESULT_JSON ROUNDTRIP_PATH -- CLI_ARGS...")
    cli_args = argv[3:]

    tracer = Tracer()
    patched = install(tracer)
    gc.callbacks.append(tracer.on_gc)
    start = time.perf_counter()
    try:
        exit_code = carbonalloc.cli.main(cli_args)
    finally:
        main_end = time.perf_counter()
        gc.callbacks.remove(tracer.on_gc)
        uninstall(patched)
    sys.stdout.flush()

    layer_self = self_times(tracer.spans)
    metrics = {f"{name}_s": layer_self.get(name, 0.0) for name in (
        "ingest.load_input_dir", "power.read_models", "power.estimate",
        "allocation.compute_scope2", "allocation.responsibility_ratios",
        "allocation.compute_footprints", "allocation.conservation_audit",
        "history.prior_entries", "history.save",
        "report.render_json", "report.render_onepage")}
    metrics["cli.main_self_s"] = layer_self.get("cli.main", 0.0)
    for key in ("ingest.rows", "ingest.input_mb", "power.estimates",
                "allocation.pairs", "allocation.device_shares",
                "history.files_read", "history.files_written",
                "report.json_mb", "report.html_mb"):
        metrics[key] = tracer.counts[key]
    metrics["history.mb_read"] = sum(
        p.stat().st_size for p in tracer.history_paths) / MB
    metrics["cli.import_s"] = IMPORT_S
    metrics["runtime.gc_collections"] = tracer.gc_collections
    metrics["runtime.gc_pause_s"] = tracer.gc_pause_s

    rt_seconds, rt_mismatches, rt_reports = (
        roundtrip(roundtrip_path) if exit_code == 0 else (0.0, 0, 0))
    metrics["report.footprint_from_json_s"] = rt_seconds
    metrics["report.roundtrip_mismatches"] = rt_mismatches

    result = {
        "exit_code": exit_code,
        "main_s": main_end - start,
        "roundtrip_reports": rt_reports,
        "metrics": metrics,
    }
    # Everything after cli.main returned, so the caller can take it out of
    # the child's wall time when it computes the tracing overhead.
    result["post_s"] = time.perf_counter() - main_end
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
