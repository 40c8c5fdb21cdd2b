"""The demo scripts and the README's library example run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def test_demos_run(tmp_path):
    runs = [
        ["anchored_rectangles.py"],
        ["exchange_drawing.py", "--out", str(tmp_path / "arcs.svg")],
        ["hardness_and_fast_cases.py"],
    ]
    for script, *args in runs:
        res = subprocess.run([sys.executable, str(DEMOS / script), *args],
                             capture_output=True, text=True)
        assert res.returncode == 0, (script, res.stderr)
        assert res.stdout.strip(), script
        assert "Traceback" not in res.stdout + res.stderr, script
    assert (tmp_path / "arcs.svg").read_text().startswith("<svg")


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", example], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
