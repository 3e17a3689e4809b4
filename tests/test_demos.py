"""The README's demo commands run to completion and print their claims."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_tight_frames_and_naimark.py", "02_stratification.py", "03_planar_paths.py",
         "04_surface_complexes.py"]


#: what a demo prints where it states its mathematical claims
CLAIMS = {
    "03_planar_paths.py": ["valid=True", "holonomy sign around the loop: -1",
                           "holonomy sign around the doubled loop: 1"],
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr[-2000:]
    for claim in CLAIMS.get(demo, []):
        assert claim in proc.stdout, (claim, proc.stdout)
