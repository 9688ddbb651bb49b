"""The experiment scripts run end to end on tiny arguments."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("energy_comparison.py", ["--preset", "ldlrnn", "--t", "4"]),
    ("energy_comparison.py", ["--preset", "ldlrnn", "--t", "4", "--quantize"]),
    ("locality_experiment.py", ["--hidden", "8", "--t", "1", "2"]),
])
def test_script_exits_zero(script, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
