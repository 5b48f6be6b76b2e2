"""carbonalloc benchmark: the real CLI, one fresh child process per run.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload wide-first-month --seed 7 --seconds 25 --trace 0

A fixed in-process calibration probe (``probe``) runs between CLI runs, and
the CLI's times are reported both raw and calibrated to the speed of the
probe runs on either side. With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced runs with in-process traced runs
(``perfbench/traced.py``) and prints per-layer metrics. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EQUIVALENCIES = HERE / "equivalencies.json"
REFERENCE = HERE / "reference.json"

CLI = "from carbonalloc.cli import entrypoint; entrypoint()"
PERIODS = ("2025-01", "2025-02", "2025-03")
DEFAULT_SEED = 7
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
# The probe's median wall (and CPU) time on the 2-vCPU machine the benchmark
# was built on; calibrated times are in seconds at that speed.
PROBE_REF_S = 0.18

# Tenant counts are scaled down from the 2000x20 / 10000x1 fleets the
# workloads were designed on, so that one run holds a dozen samples or more and
# set-up stays short; the shapes (DCs per tenant) are kept.
WORKLOADS = {
    "wide-first-month": {"tenants": 200, "dcs": 20},
    "narrow-steady-month": {"tenants": 400, "dcs": 1},
    "audit-one": {"tenants": 200, "dcs": 20},
}


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], log_dir: Path) -> ChildRun:
    """Run one child to completion; rusage comes from wait4 on that child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def cli(*args: object) -> list[str]:
    return ["-c", CLI, *map(str, args)]


def tree_digest(path: Path) -> str:
    """sha256 over every file under ``path``: relative name, size, bytes."""
    h = hashlib.sha256()
    files = [path] if path.is_file() else sorted(
        p for p in path.rglob("*") if p.is_file())
    for p in files:
        data = p.read_bytes()
        h.update(f"{p.relative_to(path.parent).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


class Failure(Exception):
    """A CLI run that exited wrongly or whose output is not the expected one."""


def check(run: ChildRun, expect: str, what: str) -> None:
    if run.exit_code != 0:
        raise Failure(f"{what}: exit code {run.exit_code}: {run.stderr.strip()[-400:]}")
    if expect not in run.stdout:
        raise Failure(f"{what}: no {expect!r} line in stdout")


@dataclass
class Workload:
    """One workload's on-disk state under ``work`` and the command it times.

    ``setup`` builds the state from scratch; ``reset`` removes what a timed
    run wrote, so every repetition starts from the same files.
    """

    name: str
    seed: int
    work: Path
    tenants: int
    dcs: int
    fleet: Path = field(init=False)
    history: Path = field(init=False)
    out: Path = field(init=False)
    report: Path | None = None

    def __post_init__(self) -> None:
        self.fleet = self.work / "fleet"
        self.history = self.work / "history"
        self.out = self.work / "out"

    def compute(self, period: str, out: Path, history: Path | None) -> list[str]:
        args = ["compute", "--period", period, "--input-dir", self.fleet,
                "--models", self.fleet / "models.csv",
                "--equivalencies", EQUIVALENCIES, "--out-dir", out]
        if history is not None:
            args += ["--history-dir", history]
        return cli(*args)

    def setup(self) -> None:
        self.work.mkdir(parents=True)
        self.run(cli("synth", "--seed", self.seed, "--tenants", self.tenants,
                     "--dcs", self.dcs, "--out-dir", self.fleet),
                 "wrote", "synth")
        prior = {"wide-first-month": 0, "narrow-steady-month": 2,
                 "audit-one": 3}[self.name]
        for period in PERIODS[:prior]:
            setup_out = self.work / f"setup-{period}"
            self.run(self.compute(period, setup_out, self.history),
                     "conservation audit: PASS", f"compute {period}")
            if self.name == "audit-one" and period == PERIODS[2]:
                reports = sorted((setup_out / "reports").iterdir())
                tenant_dir = reports[len(reports) // 2]
                self.report = tenant_dir / f"{period}.json"
            else:
                shutil.rmtree(setup_out)

    def run(self, argv: list[str], expect: str, what: str) -> ChildRun:
        result = run_child(argv, self.work)
        check(result, expect, what)
        return result

    def command(self) -> tuple[list[str], str]:
        """The timed CLI command and the stdout line that marks success."""
        if self.name == "audit-one":
            return (cli("audit", "--report", self.report, "--input-dir",
                        self.fleet, "--models", self.fleet / "models.csv",
                        "--history-dir", self.history), "audit PASS")
        history = self.history if self.name == "narrow-steady-month" else None
        return (self.compute(PERIODS[-1] if history else PERIODS[0],
                             self.out, history), "conservation audit: PASS")

    def roundtrip_target(self) -> Path:
        return self.report if self.name == "audit-one" else self.out / "reports"

    def reset(self) -> None:
        if self.out.exists():
            shutil.rmtree(self.out)
        if self.name == "narrow-steady-month":
            for written in self.history.glob(f"*/{PERIODS[-1]}.json"):
                written.unlink()

    def output_digest(self) -> str:
        return tree_digest(self.report if self.name == "audit-one" else self.out)

    def sizes(self) -> dict[str, int]:
        def rows(name: str) -> int:
            with open(self.fleet / name, encoding="utf-8") as f:
                return sum(1 for line in f if line.strip()) - 2
        return {"tenants": self.tenants, "dcs": self.dcs,
                "server_rows": rows("servers.csv"),
                "network_rows": rows("network.csv")}

    def negative_control(self) -> str | None:
        """Audit a copy with one figure scaled by 1.001; None when it is caught."""
        doc = json.loads(self.report.read_text(encoding="utf-8"))
        doc["summary"]["grossEmissions"] *= 1.001
        tampered = self.work / "tampered" / self.report.name
        tampered.parent.mkdir()
        tampered.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n",
                            encoding="utf-8")
        argv = self.command()[0]
        argv[argv.index(str(self.report))] = str(tampered)
        result = run_child(argv, self.work)
        if result.exit_code != 3 or "summary.grossEmissions" not in result.stderr:
            return (f"negative control: exit {result.exit_code}, expected 3 "
                    f"naming summary.grossEmissions")
        return None


def probe() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed piece of pure-Python work.

    It parses, aggregates and round-trips through JSON much as the CLI does,
    so it slows down with the machine the way the CLI does. Its inputs never
    change, so any change in its time is the machine's, not the program's.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rows = [f"srv{i},{i % 97},{i * 0.37:.6f},{(i * 7919) % 100003}"
            for i in range(20000)]
    by_dc: dict[str, dict] = {}
    for line in rows:
        name, dc, a, b = line.split(",")
        entry = by_dc.setdefault(dc, {"n": 0, "wh": 0.0, "items": []})
        entry["n"] += 1
        entry["wh"] += float(a) * 1.5 + int(b) / 3.0
        entry["items"].append({"name": name, "share": float(a) / (1.0 + int(b))})
    if len(json.loads(json.dumps(by_dc, indent=2, sort_keys=True))) != 97:
        raise AssertionError("calibration probe computed the wrong result")
    return time.perf_counter() - wall0, time.process_time() - cpu0


def calibrated(times: list[float], probe_times: list[float]) -> float:
    """Median of ``times`` rescaled to the machine speed at which the probe
    takes ``PROBE_REF_S``. Each CLI time is divided by the mean time of the
    probe runs just before and just after it, so a stretch in which the
    machine is 20% slower slows the numerator and the denominator alike."""
    return PROBE_REF_S * statistics.median(
        t / p for t, p in zip(times, probe_times, strict=True))


def summary(values: list[float]) -> dict[str, object]:
    """Minimum, median, the highest nearest-rank percentile below the maximum
    that the sample count supports, and the samples."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "min": ordered[0], "median": statistics.median(ordered)}
    if n >= 2:
        pct = 100 * (n - 1) // n
        out[f"p{pct}"] = ordered[max(0, -(-pct * n // 100) - 1)]
    out["samples"] = values
    return out


def machine_context() -> dict[str, object]:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "machine": platform.machine()}


def measure(workload: Workload, seconds: float, trace: bool,
            reference: str | None) -> dict[str, object]:
    argv, expect = workload.command()
    traced_argv = None
    if trace:
        traced_argv = [str(HERE / "traced.py"), str(workload.work / "trace.json"),
                       str(workload.roundtrip_target()), "--", *argv[2:]]

    failures: list[str] = []
    untraced: list[ChildRun] = []
    # Mean wall and CPU time of the probe runs on either side of each
    # untraced CLI run.
    probes: list[tuple[float, float]] = []
    traced: list[tuple[ChildRun, dict]] = []
    last_probe = probe()

    def one(traced_run: bool) -> None:
        nonlocal last_probe
        workload.reset()
        run = run_child(traced_argv if traced_run else argv, workload.work)
        before, last_probe = last_probe, probe()
        try:
            check(run, expect, "traced run" if traced_run else "timed run")
            digest = workload.output_digest()
            if digest != reference:
                raise Failure(f"output digest {digest} != reference {reference}")
            if traced_run:
                result = json.loads((workload.work / "trace.json").read_text())
                if result["metrics"]["report.roundtrip_mismatches"]:
                    raise Failure("report JSON does not re-render byte-identically")
                traced.append((run, result))
            else:
                untraced.append(run)
                probes.append(((before[0] + last_probe[0]) / 2,
                               (before[1] + last_probe[1]) / 2))
        except Failure as exc:
            failures.append(str(exc))

    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        one(traced_run=trace and i % 2 == 1)
        i += 1
    if trace and not traced:
        one(traced_run=True)
        i += 1
    return {"attempted": i, "failures": failures,
            "untraced": untraced, "probes": probes, "traced": traced}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "carbonalloc" / "cli.py").is_file():
        print(f"perfbench: no carbonalloc sources under {SRC}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2

    base = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if base.exists():
        shutil.rmtree(base)
    try:
        return bench(args, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def bench(args: argparse.Namespace, base: Path) -> int:
    spec = WORKLOADS[args.workload]
    base.mkdir(parents=True)
    # Compile the package's .pyc files before anything is timed.
    check(run_child(["-c", "import carbonalloc.cli; print('ok')"], base), "ok",
          "import")

    problems: list[str] = []
    setups: list[float] = []
    setup_probes: list[float] = []
    states: set[tuple[str, str | None]] = set()
    workload = None
    last_probe = probe()[0]
    for i in range(SETUP_REPEATS if not args.trace else 1):
        candidate = Workload(args.workload, args.seed, base / f"state{i}", **spec)
        start = time.perf_counter()
        candidate.setup()
        setups.append(time.perf_counter() - start)
        before, last_probe = last_probe, probe()[0]
        setup_probes.append((before + last_probe) / 2)
        states.add((tree_digest(candidate.fleet),
                    candidate.report and tree_digest(candidate.report)))
        if workload is None:
            workload = candidate
        else:
            shutil.rmtree(candidate.work)
    if len(states) != 1:
        problems.append("repeated set-ups produced different files")

    if args.workload == "audit-one":
        problem = workload.negative_control()
        if problem:
            problems.append(problem)

    # Untimed warm-up: fills the page cache and fixes the reference digest
    # for seeds that have no recorded one.
    argv, expect = workload.command()
    workload.reset()
    check(run_child(argv, workload.work), expect, "warm-up run")
    digest = workload.output_digest()
    recorded = json.loads(REFERENCE.read_text())
    reference = digest
    if args.seed == recorded["seed"]:
        reference = recorded["digests"].get(args.workload)
        if digest != reference:
            problems.append(f"warm-up digest {digest} != recorded {reference}")

    result = measure(workload, args.seconds, bool(args.trace), reference)
    untraced, traced = result["untraced"], result["traced"]
    failures = result["failures"]

    detail: dict[str, object] = {
        "workload": args.workload, "seed": args.seed,
        "machine": machine_context(), "fleet": workload.sizes(),
        "digest": digest, "setup_s": setups, "setup_probe_s": setup_probes,
        "failed_frac": len(failures) / result["attempted"],
        "problems": problems + failures,
    }
    metrics: dict[str, dict[str, object]] = {}
    raw: dict[str, dict[str, object]] = {}
    if untraced:
        probe_wall = [p[0] for p in result["probes"]]
        probe_cpu = [p[1] for p in result["probes"]]
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            detail[key] = summary([getattr(r, key) for r in untraced])
        detail["probe_wall_s"] = summary(probe_wall)
        detail["probe_cpu_s"] = summary(probe_cpu)
        raw = {"wall_s": detail["wall_s"], "cpu_s": detail["cpu_s"],
               "setup_s (raw)": summary(setups)}
    if not args.trace and untraced:
        # The raw medians follow the machine's speed, which drifts by 20% and
        # more over minutes on a shared host; the calibrated ones do not (see
        # README.md). Both are printed; the calibrated ones are the metrics.
        metrics["wall_cal_s"] = {
            "value": calibrated([r.wall_s for r in untraced], probe_wall),
            "unit": "s"}
        metrics["cpu_cal_s"] = {
            "value": calibrated([r.cpu_s for r in untraced], probe_cpu),
            "unit": "s"}
        metrics["peak_rss_mb"] = {"value": detail["peak_rss_mb"]["median"],
                                  "unit": "MB"}
        metrics["setup_s"] = {"value": calibrated(setups, setup_probes),
                              "unit": "s"}
    if args.trace and traced and untraced:
        metrics.update(layer_metrics(traced, untraced))
        detail["roundtrip_reports"] = traced[0][1]["roundtrip_reports"]

    print("perfbench detail: " + json.dumps(detail))
    for name, stats in raw.items():
        tail = "".join(f", {k} {v:.6g} s" for k, v in stats.items()
                       if k not in ("n", "min", "median", "samples"))
        print(f"  {name:<36} {stats['median']:>14.6g} s median{tail} "
              f"(n={stats['n']}, raw)")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems and not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


# Per-layer metrics reported by the traced run, with their units.
LAYER_METRICS = {
    "ingest.load_input_dir_s": "s", "ingest.rows": "count",
    "ingest.input_mb": "MB",
    "power.read_models_s": "s", "power.estimate_s": "s",
    "power.estimates": "count",
    "allocation.compute_scope2_s": "s",
    "allocation.responsibility_ratios_s": "s",
    "allocation.compute_footprints_s": "s",
    "allocation.conservation_audit_s": "s",
    "allocation.pairs": "count", "allocation.device_shares": "count",
    "history.prior_entries_s": "s", "history.files_read": "count",
    "history.mb_read": "MB", "history.save_s": "s",
    "history.files_written": "count",
    "report.render_json_s": "s", "report.render_onepage_s": "s",
    "report.json_mb": "MB", "report.html_mb": "MB",
    "report.footprint_from_json_s": "s",
    "report.roundtrip_mismatches": "count",
    "cli.import_s": "s", "cli.main_self_s": "s",
    "runtime.gc_collections": "count", "runtime.gc_pause_s": "s",
}


def layer_metrics(traced: list[tuple[ChildRun, dict]],
                  untraced: list[ChildRun]) -> dict[str, dict[str, object]]:
    """Median of each per-layer metric over the traced runs."""
    out = {name: {"value": statistics.median(r["metrics"][name] for _, r in traced),
                  "unit": unit}
           for name, unit in LAYER_METRICS.items()}
    traced_total = statistics.median(run.wall_s - r["post_s"] for run, r in traced)
    out["trace.overhead_s"] = {
        "value": traced_total - statistics.median(r.wall_s for r in untraced),
        "unit": "s"}
    return out


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
