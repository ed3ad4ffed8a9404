"""Every demo runs to completion. Demo 03 exercises the forward pass's
attention maps and a rollout's CSV export; demos 02 and 04 train a model
(~27 s each) and count parameters and roll out through the library API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("demo", ["01_synthetic_motion_and_fk.py",
                                  "02_train_tiny_model.py",
                                  "03_attention_and_complexity.py",
                                  "04_long_horizon_spectra.py"])
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
