"""The benchmark's self-check (`bench/run.py --smoke`) in a fresh
interpreter: every workload at reduced size, untraced and traced.  A change
that breaks the benchmark's metric set, its CSV checks or its layer
self-time coverage fails here.  It runs in a copy of `bench/`, `src/` and
BENCHMARK.json, because the smoke rewrites the scratch files in
`.bench_out/` at its reduced size, beside the records of full-size runs."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_passes(tmp_path):
    # bench/run.py takes its root from its own path
    for name in ("bench", "src"):
        shutil.copytree(
            ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__")
        )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--smoke"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    report = result.stdout[-4000:] + result.stderr[-4000:]
    assert result.returncode == 0, report
    assert result.stdout.splitlines()[-1] == "smoke: ok", report
