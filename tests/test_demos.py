"""The demos reproduce the tracked ``demos/output/`` byte for byte.

``demos/output/`` is the golden set for the report bytes: reports, history
entries, HTML pages and the fleet CSVs. Any change to what the program writes
shows up here as a named file.
"""

import shutil
import subprocess
import sys
from pathlib import Path

from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_demos_reproduce_tracked_output(tmp_path):
    demos = tmp_path / "demos"
    shutil.copytree(DEMOS, demos, ignore=shutil.ignore_patterns("output"))
    env = src_env()
    scripts = sorted(demos.glob("[0-9][0-9]_*.py"))
    assert len(scripts) == 4
    for script in scripts:
        subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                       check=True, capture_output=True, timeout=120)
    expected = tree(DEMOS / "output")
    produced = tree(demos / "output")
    assert sorted(produced) == sorted(expected)
    for name, content in expected.items():
        assert produced[name] == content, name
