"""The committed benchmark results, `BENCH_<n>.json` at the repository root.
Each file holds one untraced `bench/run.py` record per BENCHMARK.json
workload, with the end-to-end metrics and units BENCHMARK.json declares, no
failed run, and the machine facts that make two files comparable.  A file's
records measured one commit, and the newest file measured the current
`src/` line count, so a change to `src/` comes with a file of its own."""

import json
from pathlib import Path

import pytest

from conftest import bench_run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
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
        assert src_lines == records[0]["machine"]["src_lines"]
        assert record["machine"]["git_commit"] == records[0]["machine"]["git_commit"]


def test_newest_bench_file_counts_the_current_src_lines():
    # the highest number by value: BENCH_100 follows BENCH_99
    records = json.loads(BENCH_FILES[-1].read_text(encoding="utf-8"))["records"]
    src_lines = bench_run.machine_facts()["src_lines"]
    assert {record["machine"]["src_lines"] for record in records} == {src_lines}
