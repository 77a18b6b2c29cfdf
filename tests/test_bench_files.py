"""The committed benchmark results, `BENCH_<n>.json` at the repository root.
Each file holds one untraced `bench/run.py` record per BENCHMARK.json
workload, with the end-to-end metrics and units BENCHMARK.json declares, no
failed run, and the machine facts that make two files comparable."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
MACHINE_FACTS = {"nproc", "python", "numpy", "blas", "blas_threads", "git_commit", "src_lines"}


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_holds_every_workload(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    # set or not (null): without a bytecode cache a fresh interpreter
    # compiles every module, which setup_s includes
    assert "PYTHONDONTWRITEBYTECODE" in doc["environment"]
    records = doc["records"]
    assert sorted(r["workload"] for r in records) == sorted(w["name"] for w in SPEC["workloads"])
    units = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    for record in records:
        assert record["trace"] == 0
        metrics = record["result"]["metrics"]
        assert {name: entry["unit"] for name, entry in metrics.items()} == units
        assert all(entry["value"] > 0 for entry in metrics.values())
        assert record["error_rate"] == 0
        assert MACHINE_FACTS <= record["machine"].keys()
        src_lines = record["machine"]["src_lines"]
        assert isinstance(src_lines, int) and src_lines > 0
