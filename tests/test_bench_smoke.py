"""The benchmark's self-check (`bench/run.py --smoke`) in a fresh
interpreter: every workload at reduced size, untraced and traced.  A change
that breaks the benchmark's metric set, its CSV checks or its layer
self-time coverage fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    report = result.stdout[-4000:] + result.stderr[-4000:]
    assert result.returncode == 0, report
    assert result.stdout.splitlines()[-1] == "smoke: ok", report
