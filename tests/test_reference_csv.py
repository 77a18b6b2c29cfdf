"""The benchmark workloads at their reference sizes, checked as the benchmark
checks them: every CSV invariant, and the sampled reference rows within
1e-12 (bench/csvcheck.py, bench/reference.json).  The configurations come
from bench/run.py, so these runs are exactly the benchmark's seed-0 runs."""

import pytest

from kicked_coupler.cli import main
from conftest import bench_run, blas_facts

import csvcheck  # in bench/, which conftest puts on the path


@pytest.fixture(scope="module")
def reference():
    return csvcheck.load_reference()


@pytest.mark.parametrize("name", sorted(bench_run.WORKLOADS))
def test_workload_matches_reference(name, reference, tmp_path, capsys):
    cfg = bench_run.workload_config(name, 0)
    # the reference applies to this configuration, so the row check below
    # is not skipped
    assert reference[name]["config"] == cfg
    cfg_path, out = tmp_path / "run.cfg", tmp_path / "run.csv"
    bench_run.write_config(cfg, cfg_path)
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
    # no note: every workload stays far from the truncation edge
    assert capsys.readouterr().err == ""
    lines = out.read_text(encoding="utf-8").splitlines()
    assert csvcheck.check_invariants(cfg, lines) == []
    # the sampled rows depend on how the eigensolver rounds, and that depends
    # on the OpenBLAS thread count
    assert csvcheck.check_reference(name, cfg, lines, reference) == [], (
        blas_facts() + " (the reference expects at least 2 on this build)"
    )
