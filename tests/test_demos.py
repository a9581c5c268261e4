"""Every script in demos/ runs against the library in src/ and prints its golden output.

The goldens in tests/golden/demos/ are the scripts' stdout, byte for byte.  A
change that is meant to alter a demo's output rewrites its golden file.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def test_demos_found():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


def test_readme_lists_every_demo():
    readme = (ROOT / "README.md").read_text()
    listed = [line.split()[1] for line in readme.splitlines() if line.startswith("python3 demos/")]
    assert sorted(listed) == [f"demos/{p.name}" for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{script.stem}.txt").read_text()
