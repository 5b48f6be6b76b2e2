"""Command-line entry point wiring the pipeline end to end.

Subcommands: ``calibrate`` (fit server power models from benchmark samples),
``compute`` (ingest one period's CSVs and write per-tenant reports),
``report`` (re-render from an existing report JSON without recomputation),
``audit`` (independently recompute a report and diff it), and ``synth``
(generate a deterministic synthetic fleet).

Exit codes: 0 success, 1 validation failure (any input fault, named by its
file and row, or an output path that cannot be written), 2 a power model
cannot be fitted (and argparse usage errors), 3 audit mismatch.
Diagnostics go to standard error; summary tables to standard output.

The console script, :func:`entrypoint`, turns the cyclic garbage collector
off for the run and, once :func:`main` returns, flushes the standard
streams and ends the process without interpreter teardown. Standard output
that cannot be written counts as an output path: a run that would have
exited 0 exits 1. :func:`main` called in-process does neither.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import Sequence

from .allocation import (
    AuditReport,
    Footprint,
    compute_footprints,
    conservation_audit,
    tenant_footprint,
)
from .errors import CarbonAllocError, PowerModelError, UnknownTenant
from .history import HistoryStore, write_below
from .ingest import load_input_dir
from .power import (
    fit_server_weights,
    format_models,
    read_calibration_samples,
    read_models,
)
from .report import (
    EquivalencyFactors,
    ReportDocument,
    ReportError,
    factors_from_json,
    footprint_from_json,
    load_doc,
    load_equivalency_factors,
    render_json,
    render_onepage,
    report_differences,
    report_identity,
)
from .units import Period, UnitError

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTATION = 2
EXIT_AUDIT_MISMATCH = 3


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _print_audit_summary(audit: AuditReport) -> None:
    status = "PASS" if audit.passed else "FAIL"
    print(f"conservation audit: {status} ({len(audit.checks)} checks, "
          f"max residual {audit.max_residual:.3e})")
    for check in audit.failures:
        _err(f"  FAILED {check.name} in {check.datacenter_id}: "
             f"expected {check.expected!r}, got {check.actual!r} "
             f"(residual {check.residual:.3e})")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_calibrate(samples: Path, models_out: Path) -> int:
    """Fit one power model per device model and write the models file."""
    grouped = read_calibration_samples(samples)
    if not grouped:
        _err(f"calibration samples file {samples} has no rows")
        return EXIT_VALIDATION

    models = {}
    failures = []
    for name in sorted(grouped):
        try:
            models[name] = fit_server_weights(grouped[name], device_model=name)
        except PowerModelError as exc:
            failures.append((name, exc))
    for name, model in models.items():
        print(f"{name}: n={len(grouped[name])} adjusted_r2={model.adjusted_r2:.4f}")
    for name, exc in failures:
        _err(f"calibration failed for {name}: {exc}")
    if models:
        file_name = models_out.name or "."  # "." or "/": the directory itself
        write_below(models_out.parent, (), {
            file_name: format_models(models, file_name).encode("utf-8")})
        print(f"wrote {len(models)} model(s) to {models_out}")
    return EXIT_COMPUTATION if failures else EXIT_OK


def _write_report_pair(out_dir: Path, fp: Footprint, json_doc: ReportDocument,
                       html_doc: ReportDocument) -> Path:
    """Write a tenant's two reports into ``out_dir``/reports/<tenant>/, and
    return that directory."""
    json_path, _ = write_below(out_dir, ("reports", fp.tenant_id),
                               {f"{fp.period}.json": json_doc.content,
                                f"{fp.period}.html": html_doc.content})
    return json_path.parent


def _write_reports(footprints: Sequence[Footprint], factors: EquivalencyFactors,
                   out_dir: Path, history: HistoryStore) -> None:
    """Render every report, then write them in deterministic order: a render
    failure writes nothing, and rendering and writing one tenant at a time,
    which interleaves file creation, measured slower (ROADMAP item 1)."""
    rendered = [(render_json(fp, factors), render_onepage(fp, factors))
                for fp in footprints]
    for fp, (json_doc, html_doc) in zip(footprints, rendered):
        _write_report_pair(out_dir, fp, json_doc, html_doc)
        history.save(fp.tenant_id, fp.period, json_doc.content)


def cmd_compute(period: Period, input_dir: Path, models: Path,
                equivalencies: Path, out_dir: Path,
                history_dir: Path | None) -> int:
    """Run the full monthly pipeline: ingest, compute, audit, render.

    Without ``history_dir`` the history store is ``out_dir``/history, whose
    directory is checked for links as ``reports`` is.
    """
    raw = load_input_dir(input_dir, period)
    fitted = read_models(models)
    factors = load_equivalency_factors(equivalencies)
    footprints = compute_footprints(raw, fitted)

    audit = conservation_audit(footprints, raw, fitted)
    _print_audit_summary(audit)
    if not audit.passed:
        _err("conservation audit failed; no reports written")
        return EXIT_AUDIT_MISMATCH

    history = (HistoryStore(history_dir) if history_dir is not None
               else HistoryStore(out_dir, "history"))
    footprints = [fp._replace(history=history.prior_entries(fp.tenant_id, fp.period))
                  for fp in footprints]
    _write_reports(footprints, factors, out_dir, history)

    print(f"{'tenant':<16} {'gross_g':>18} {'net_g':>18} {'per_agent_g':>14}")
    for fp in footprints:
        print(f"{fp.tenant_id:<16} {fp.gross_total:>18.3f} "
              f"{fp.net_total:>18.3f} {fp.per_agent:>14.6f}")
    print(f"wrote {len(footprints)} tenant report pair(s) under "
          f"{out_dir / 'reports'}")
    return EXIT_OK


def cmd_audit(report: Path, input_dir: Path, models: Path,
              equivalencies: Path | None, history_dir: Path | None) -> int:
    """Recompute a report from its inputs and compare byte for byte."""
    try:
        content = report.read_bytes()
        stored_doc = load_doc(content)
        tenant_id, period = report_identity(stored_doc)
    except (OSError, ReportError) as exc:
        _err(f"cannot read report under audit: {report}: "
             f"{getattr(exc, 'strerror', None) or exc}")
        return EXIT_VALIDATION

    raw = load_input_dir(input_dir, period)
    fitted = read_models(models)
    factors = (load_equivalency_factors(equivalencies)
               if equivalencies is not None else factors_from_json(stored_doc))
    try:
        fp = tenant_footprint(raw, fitted, tenant_id)
    except UnknownTenant:
        raise UnknownTenant(tenant_id, (str(report),)) from None
    if history_dir is not None:
        fp = fp._replace(history=HistoryStore(history_dir).prior_entries(
            tenant_id, period))

    differences = report_differences(render_json(fp, factors).content, content)
    values = [d for d in differences if not d.key_order]
    if values:
        _err(f"audit FAIL: {report} differs from recomputation in "
             f"{len(values)} field(s):")
        for d in values:
            _err(f"  {d.path}: recomputed {d.written!r}, report has {d.stored!r}")
        return EXIT_AUDIT_MISMATCH
    if differences:
        _err(f"audit FAIL: {report} has the recomputed values, but its "
             "key order differs from the canonical report")
        return EXIT_AUDIT_MISMATCH
    print(f"audit PASS: {report} matches recomputation "
          f"({tenant_id}, {period})")
    return EXIT_OK


def cmd_report(report: Path, out_dir: Path, equivalencies: Path | None) -> int:
    """Re-render both formats from an existing report JSON.

    The file must be exactly what the writer writes for the figures it
    holds, which ``footprint_from_json`` checks by rendering it again with
    its own factors. Anything else exits 1 naming the first differing
    field, and nothing is written.
    """
    try:
        content = report.read_bytes()
        fp = footprint_from_json(content)
    except (OSError, ReportError, UnitError) as exc:
        _err(f"cannot re-render {report}: {getattr(exc, 'strerror', None) or exc}")
        return EXIT_VALIDATION
    factors = (load_equivalency_factors(equivalencies)
               if equivalencies is not None else factors_from_json(content))

    tenant_dir = _write_report_pair(out_dir, fp, render_json(fp, factors),
                                    render_onepage(fp, factors))
    print(f"re-rendered {fp.tenant_id} {fp.period} under {tenant_dir}")
    return EXIT_OK


def cmd_synth(seed: int, tenants: int, dcs: int, out_dir: Path,
              l_share: float) -> int:
    """Write a deterministic synthetic fleet plus its models file."""
    from .synth import generate_fleet, write_fleet

    try:
        fleet = generate_fleet(seed, tenants, dcs, l_share=l_share)
    except (ValueError, UnitError) as exc:
        _err(f"cannot generate fleet: {exc}")
        return EXIT_VALIDATION
    written = write_fleet(fleet, out_dir)
    print(f"wrote {len(written)} file(s) to {out_dir} "
          f"(seed {seed}, {tenants} tenant(s), {dcs} data center(s))")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_period(text: str) -> Period:
    try:
        return Period.parse(text)
    except UnitError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carbonalloc",
        description="Attribute data center carbon footprint to service "
                    "tenants and generate per-tenant reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate",
                       help="fit server power models from benchmark samples")
    p.add_argument("--samples", type=Path, required=True,
                   help="calibration samples CSV")
    p.add_argument("--models-out", type=Path, required=True,
                   help="where to write the fitted models CSV")
    p.set_defaults(run=cmd_calibrate)

    p = sub.add_parser("compute",
                       help="compute footprints and write reports for one period")
    p.add_argument("--period", type=_parse_period, required=True,
                   help="reporting month, YYYY-MM")
    p.add_argument("--input-dir", type=Path, required=True,
                   help="directory with servers/network/datacenters/tenants CSVs")
    p.add_argument("--models", type=Path, required=True,
                   help="fitted models CSV")
    p.add_argument("--equivalencies", type=Path, required=True,
                   help="equivalency factors JSON")
    p.add_argument("--out-dir", type=Path, required=True,
                   help="output directory (reports/ is created inside)")
    p.add_argument("--history-dir", type=Path, default=None,
                   help="history store root (default: <out-dir>/history)")
    p.set_defaults(run=cmd_compute)

    p = sub.add_parser("report",
                       help="re-render reports from an existing report JSON")
    p.add_argument("--report", type=Path, required=True,
                   help="previously generated report JSON")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--equivalencies", type=Path, default=None,
                   help="override the factors embedded in the report")
    p.set_defaults(run=cmd_report)

    p = sub.add_parser("audit",
                       help="recompute a report from inputs and diff it")
    p.add_argument("--report", type=Path, required=True,
                   help="report JSON under audit")
    p.add_argument("--input-dir", type=Path, required=True,
                   help="the inputs that produced the report")
    p.add_argument("--models", type=Path, required=True)
    p.add_argument("--equivalencies", type=Path, default=None,
                   help="factors config; defaults to those embedded in the report")
    p.add_argument("--history-dir", type=Path, default=None,
                   help="history store used when the report was computed")
    p.set_defaults(run=cmd_audit)

    p = sub.add_parser("synth", help="generate a synthetic test fleet")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tenants", type=int, default=5)
    p.add_argument("--dcs", type=int, default=3)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--l-share", type=float, default=1.0)
    p.set_defaults(run=cmd_synth)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    options = vars(build_parser().parse_args(argv))
    del options["command"]
    run = options.pop("run")
    try:
        return run(**options)
    except CarbonAllocError as exc:
        _err(str(exc))
        return EXIT_VALIDATION
    except OSError as exc:
        # Inputs are read where they are parsed, which turns an OSError into
        # an IngestError or ReportError; what arrives here is an output path.
        _err(f"cannot write {exc.filename or 'output'}: {exc.strerror}")
        return EXIT_VALIDATION


def entrypoint() -> None:
    # The records a run builds hold no reference cycles (a test pins this),
    # so reference counting alone frees them, and the collector's passes
    # would only traverse the live inputs and footprints again and again.
    # The process exits when main returns, so nothing turns it back on.
    gc.disable()
    code = main()
    # Interpreter teardown does nothing a finished run needs: every file is
    # closed before main returns, and warnings are flushed as they are
    # logged. Only the standard streams may still hold output, so flush
    # them and exit at once. Usage errors, uncaught exceptions and
    # interrupts never reach this point and exit the usual way.
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code == EXIT_OK:
            code = EXIT_VALIDATION
            try:
                _err(f"cannot write output: {exc.strerror}")
            except OSError:
                pass
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
