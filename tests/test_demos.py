"""The demo scripts run end to end."""

import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


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
