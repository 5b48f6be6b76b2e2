"""The CLI writes the same bytes under every supported Python on PATH.

pyproject.toml declares ``requires-python = ">=3.10"``, and a float sum
rounded differently by one version would change a report or the audit
line. Each ``python3.N`` on PATH that starts, reports a supported version
and is not the running one runs ``synth``, ``compute`` and ``audit`` on one
synthetic fleet; every file written, each exit code and stdout (with the
output directory spelled out of it) must match the running interpreter's.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

CANDIDATES = tuple(f"python3.{minor}" for minor in range(10, 14))
SUPPORTED = (3, 10)
PERIOD = "2025-06"
FACTORS = Path(__file__).resolve().parents[1] / "configs" / "equivalencies.sample.json"


def _version(executable: str) -> tuple[int, int] | None:
    """The version an interpreter reports, or None when it does not start
    (a version manager's shim may exist on PATH and refuse to run)."""
    try:
        proc = subprocess.run(
            [executable, "-c", "import sys; print(*sys.version_info[:2])"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    parts = proc.stdout.split()
    if proc.returncode != 0 or len(parts) != 2 or not all(map(str.isdigit, parts)):
        return None
    return int(parts[0]), int(parts[1])


def other_pythons() -> list[str]:
    """Each interpreter on PATH, one per version, whose version is
    supported and not the running one's."""
    found: dict[tuple[int, int], str] = {}
    for name in CANDIDATES:
        executable = shutil.which(name)
        if executable is None:
            continue
        version = _version(executable)
        if (version is not None and version >= SUPPORTED
                and version != sys.version_info[:2]):
            found.setdefault(version, executable)
    return list(found.values())


def run_cli(python: str, root: Path) -> tuple[list, dict[str, bytes]]:
    """Exit code and stdout of each command, and every file written."""
    fleet, out = root / "fleet", root / "out"
    commands = [
        ["synth", "--seed", "7", "--tenants", "40", "--dcs", "5",
         "--out-dir", str(fleet)],
        ["compute", "--period", PERIOD, "--input-dir", str(fleet),
         "--models", str(fleet / "models.csv"), "--equivalencies", str(FACTORS),
         "--out-dir", str(out)],
        ["audit", "--report", str(out / "reports" / "TENANT_01" / f"{PERIOD}.json"),
         "--input-dir", str(fleet), "--models", str(fleet / "models.csv")],
    ]
    runs = []
    for argv in commands:
        proc = subprocess.run([python, "-m", "carbonalloc.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env=src_env())
        runs.append((argv[0], proc.returncode,
                     proc.stdout.replace(str(root), "<root>")))
    files = {str(path.relative_to(root)): path.read_bytes()
             for path in sorted(root.rglob("*")) if path.is_file()}
    return runs, files


def test_every_other_python_writes_the_same_bytes(tmp_path):
    pythons = other_pythons()
    if not pythons:
        pytest.skip(f"no other Python >= 3.10 of {', '.join(CANDIDATES)} starts")
    runs, files = run_cli(sys.executable, tmp_path / "running")
    assert [code for _, code, _ in runs] == [0, 0, 0]
    assert any(name.endswith(".html") for name in files)
    for i, python in enumerate(pythons):
        other_runs, other_files = run_cli(python, tmp_path / f"other_{i}")
        assert other_runs == runs, python
        assert other_files.keys() == files.keys(), python
        for name, content in files.items():
            assert other_files[name] == content, (python, name)
