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
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import replace
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
from .history import HistoryStore
from .ingest import ID_PATTERN, RawData, load_input_dir
from .power import (
    fit_server_weights,
    read_calibration_samples,
    read_models,
    write_models,
)
from .report import (
    DEFAULT_TREND_THRESHOLDS,
    EquivalencyFactors,
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
from .synth import generate_fleet, write_fleet
from .units import Period, UnitError, check_share

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTATION = 2
EXIT_AUDIT_MISMATCH = 3


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _apply_l_share(raw: RawData, override: float | None) -> RawData:
    if override is None:
        return raw
    tenants = {tid: t._replace(l_share=override) for tid, t in raw.tenants.items()}
    return raw._replace(tenants=tenants)


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


def cmd_calibrate(samples_file: Path, models_out: Path) -> int:
    """Fit one power model per device model and write the models file."""
    grouped = read_calibration_samples(samples_file)
    if not grouped:
        _err(f"calibration samples file {samples_file} has no rows")
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
        write_models(models_out, models)
        print(f"wrote {len(models)} model(s) to {models_out}")
    return EXIT_COMPUTATION if failures else EXIT_OK


def _write_reports(footprints: Sequence[Footprint], factors: EquivalencyFactors,
                   out_dir: Path, trend_thresholds: tuple[float, float],
                   history: HistoryStore) -> None:
    """Render every report, then write them in deterministic order, so a
    render failure writes nothing."""
    rendered = [(render_json(fp, factors),
                 render_onepage(fp, factors, trend_thresholds=trend_thresholds))
                for fp in footprints]
    reports_root = out_dir / "reports"
    for fp, (json_doc, html_doc) in zip(footprints, rendered):
        tenant_dir = reports_root / fp.tenant_id
        tenant_dir.mkdir(parents=True, exist_ok=True)
        (tenant_dir / f"{fp.period}.json").write_bytes(json_doc.content)
        (tenant_dir / f"{fp.period}.html").write_bytes(html_doc.content)
        history.save(fp.tenant_id, fp.period, json_doc.content)


def cmd_compute(period: Period, input_dir: Path, models_file: Path,
                equivalency_file: Path, out_dir: Path, history_dir: Path,
                l_share_override: float | None,
                trend_thresholds: tuple[float, float]) -> int:
    """Run the full monthly pipeline: ingest, compute, audit, render."""
    raw = _apply_l_share(load_input_dir(input_dir, period), l_share_override)
    models = read_models(models_file)
    factors = load_equivalency_factors(equivalency_file)
    # The ingested inputs live until the run ends: freezing them keeps every
    # later collection from traversing them again. Unfrozen afterwards so an
    # in-process caller does not accumulate frozen objects.
    gc.freeze()
    try:
        footprints = compute_footprints(raw, models)

        audit = conservation_audit(footprints, raw, models)
        _print_audit_summary(audit)
        if not audit.passed:
            _err("conservation audit failed; no reports written")
            return EXIT_AUDIT_MISMATCH

        history = HistoryStore(history_dir)
        footprints = [replace(fp, history=history.prior_entries(fp.tenant_id,
                                                                fp.period))
                      for fp in footprints]
        _write_reports(footprints, factors, out_dir, trend_thresholds, history)
    finally:
        gc.unfreeze()

    print(f"{'tenant':<16} {'gross_g':>18} {'net_g':>18} {'per_agent_g':>14}")
    for fp in footprints:
        print(f"{fp.tenant_id:<16} {fp.gross_total:>18.3f} "
              f"{fp.net_total:>18.3f} {fp.per_agent:>14.6f}")
    print(f"wrote {len(footprints)} tenant report pair(s) under "
          f"{out_dir / 'reports'}")
    return EXIT_OK


def cmd_audit(report_file: Path, input_dir: Path, models_file: Path,
              equivalency_file: Path | None, history_dir: Path | None,
              l_share_override: float | None) -> int:
    """Recompute a report from its inputs and compare byte for byte."""
    try:
        content = report_file.read_bytes()
        stored_doc = load_doc(content)
        tenant_id, period = report_identity(stored_doc)
    except (OSError, ReportError) as exc:
        _err(f"cannot read report under audit: {report_file}: "
             f"{getattr(exc, 'strerror', None) or exc}")
        return EXIT_VALIDATION

    raw = _apply_l_share(load_input_dir(input_dir, period), l_share_override)
    models = read_models(models_file)
    factors = (load_equivalency_factors(equivalency_file)
               if equivalency_file is not None else factors_from_json(stored_doc))
    try:
        fp = tenant_footprint(raw, models, tenant_id)
    except UnknownTenant:
        raise UnknownTenant(tenant_id, (str(report_file),)) from None
    if history_dir is not None:
        fp = replace(fp, history=HistoryStore(history_dir).prior_entries(
            tenant_id, period))

    differences = report_differences(render_json(fp, factors).content, content)
    values = [d for d in differences if not d.key_order]
    if values:
        _err(f"audit FAIL: {report_file} differs from recomputation in "
             f"{len(values)} field(s):")
        for d in values:
            _err(f"  {d.path}: recomputed {d.written!r}, report has {d.stored!r}")
        return EXIT_AUDIT_MISMATCH
    if differences:
        _err(f"audit FAIL: {report_file} has the recomputed values, but its "
             "key order differs from the canonical report")
        return EXIT_AUDIT_MISMATCH
    print(f"audit PASS: {report_file} matches recomputation "
          f"({tenant_id}, {period})")
    return EXIT_OK


def cmd_report(report_file: Path, out_dir: Path,
               equivalency_file: Path | None,
               trend_thresholds: tuple[float, float]) -> int:
    """Re-render both formats from an existing report JSON.

    The file must be exactly what the writer writes for the figures it
    holds, which ``footprint_from_json`` checks by rendering it again with
    its own factors. Anything else exits 1 naming the first differing
    field, and nothing is written.
    """
    try:
        content = report_file.read_bytes()
        fp = footprint_from_json(content)
        factors = (load_equivalency_factors(equivalency_file)
                   if equivalency_file is not None else factors_from_json(content))
    except (OSError, ReportError, UnitError) as exc:
        _err(f"cannot re-render {report_file}: {exc}")
        return EXIT_VALIDATION
    if ID_PATTERN.fullmatch(fp.tenant_id) is None:
        _err(f"cannot re-render {report_file}: tenant id {fp.tenant_id!r} "
             "cannot name a report directory")
        return EXIT_VALIDATION

    tenant_dir = out_dir / "reports" / fp.tenant_id
    tenant_dir.mkdir(parents=True, exist_ok=True)
    json_doc = render_json(fp, factors)
    html_doc = render_onepage(fp, factors, trend_thresholds=trend_thresholds)
    (tenant_dir / f"{fp.period}.json").write_bytes(json_doc.content)
    (tenant_dir / f"{fp.period}.html").write_bytes(html_doc.content)
    print(f"re-rendered {fp.tenant_id} {fp.period} under {tenant_dir}")
    return EXIT_OK


def cmd_synth(seed: int, n_tenants: int, n_dcs: int, out_dir: Path,
              with_offsets: bool, l_share: float) -> int:
    """Write a deterministic synthetic fleet plus its models file."""
    try:
        fleet = generate_fleet(seed, n_tenants, n_dcs,
                               with_offsets=with_offsets, l_share=l_share)
    except (ValueError, UnitError) as exc:
        _err(f"cannot generate fleet: {exc}")
        return EXIT_VALIDATION
    written = write_fleet(fleet, out_dir)
    print(f"wrote {len(written)} file(s) to {out_dir} "
          f"(seed {seed}, {n_tenants} tenant(s), {n_dcs} data center(s))")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_period(text: str) -> Period:
    try:
        return Period.parse(text)
    except UnitError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_share(text: str) -> float:
    try:
        return check_share(float(text))
    except (ValueError, UnitError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_thresholds(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            "expected two comma-separated percentages, e.g. 5,5")
    try:
        improve, worsen = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not (0 <= improve < math.inf and 0 <= worsen < math.inf):
        raise argparse.ArgumentTypeError("thresholds must be finite and >= 0")
    return improve, worsen


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
    p.add_argument("--l-share", type=_parse_share, default=None,
                   help="override every tenant's load share (0..1)")
    p.add_argument("--trend-thresholds", type=_parse_thresholds,
                   default=DEFAULT_TREND_THRESHOLDS, metavar="IMP,WRS",
                   help="improving/worsening badge cutoffs in percent "
                        "(default: 5,5)")

    p = sub.add_parser("report",
                       help="re-render reports from an existing report JSON")
    p.add_argument("--report", type=Path, required=True,
                   help="previously generated report JSON")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--equivalencies", type=Path, default=None,
                   help="override the factors embedded in the report")
    p.add_argument("--trend-thresholds", type=_parse_thresholds,
                   default=DEFAULT_TREND_THRESHOLDS, metavar="IMP,WRS")

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
    p.add_argument("--l-share", type=_parse_share, default=None)

    p = sub.add_parser("synth", help="generate a synthetic test fleet")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tenants", type=int, default=5)
    p.add_argument("--dcs", type=int, default=3)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--no-offsets", action="store_true",
                   help="zero out fuel, scope 3, and offsets")
    p.add_argument("--l-share", type=float, default=1.0)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "calibrate":
            return cmd_calibrate(args.samples, args.models_out)
        if args.command == "compute":
            return cmd_compute(args.period, args.input_dir, args.models,
                               args.equivalencies, args.out_dir,
                               args.history_dir or args.out_dir / "history",
                               args.l_share, args.trend_thresholds)
        if args.command == "report":
            return cmd_report(args.report, args.out_dir, args.equivalencies,
                              args.trend_thresholds)
        if args.command == "audit":
            return cmd_audit(args.report, args.input_dir, args.models,
                             args.equivalencies, args.history_dir, args.l_share)
        if args.command == "synth":
            return cmd_synth(args.seed, args.tenants, args.dcs, args.out_dir,
                             with_offsets=not args.no_offsets,
                             l_share=args.l_share)
        raise AssertionError(f"unhandled command {args.command!r}")
    except CarbonAllocError as exc:
        _err(str(exc))
        return EXIT_VALIDATION
    except OSError as exc:
        # Inputs are read where they are parsed, which turns an OSError into
        # an IngestError or ReportError; what arrives here is an output path.
        _err(f"cannot write {exc.filename or 'output'}: {exc.strerror}")
        return EXIT_VALIDATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
