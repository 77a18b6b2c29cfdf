#!/usr/bin/env python3
"""Benchmark of the kicked-coupler command line, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload simulate-long --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --smoke                 # fast self-check, all workloads

Every measured run goes through ``kicked_coupler.cli.main(argv)`` in this
process, exactly as the ``kicked-coupler`` command does, and every CSV it
writes is checked (see csvcheck.py).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports per-layer metrics from spans recorded around
the calls into each module (see spans.py).  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Scratch files and a JSON record of each result go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy

import csvcheck
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

# The reference point of the paper: chi = 1, T = 1, cutoffs 15/15 (D = 225).
BASE_CONFIG = {"T": 1.0, "chi_a": 1.0, "chi_b": 1.0, "cutoff_a": 15, "cutoff_b": 15}
REFERENCE_POINT = {"alpha": 0.04, "epsilon": 0.01, "scan_start": 0.02, "scan_stop": 0.06}

# name -> (mode, kicks, scan points, why it was chosen)
WORKLOADS = {
    "simulate-long": (
        "simulate", 10000, None,
        "Per-kick work (propagation loop, entanglement gather, CSV rows) "
        "dominates and operator construction is negligible.",
    ),
    "compare-long": (
        "compare", 10000, None,
        "The only workload that runs the closed-form amplitudes, and it takes "
        "the mid-pulse propagation path.",
    ),
    "scan-wide": (
        "scan", 100, 24,
        "Operator construction (fock, hamiltonians, eigh) at every scan point "
        "dominates; per-kick work and CSV rows are small.",
    ),
}
SMOKE_SIZES = {"simulate-long": (200, None), "compare-long": (200, None), "scan-wide": (20, 2)}

END_TO_END = {
    "run_s": "s",
    "kicks_per_s": "1/s",
    "setup_s": "s",
    "peak_alloc_mb": "MB",
}
PER_LAYER = {
    "fock.calls": "count",
    "fock.self_s": "s",
    "hamiltonians.calls": "count",
    "hamiltonians.self_s": "s",
    "numerics.calls": "count",
    "numerics.self_s": "s",
    "propagation.self_s": "s",
    "propagation.steps": "count",
    "propagation.matvec_flops": "flop",
    "propagation.matrix_bytes": "B",
    "propagation.state_bytes": "B",
    "analytic.calls": "count",
    "analytic.self_s": "s",
    "entanglement.calls": "count",
    "entanglement.annotate_s": "s",
    "entanglement.observables_s": "s",
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.csv_bytes": "B",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}
# Work counts computed from array sizes, not measured; they must repeat exactly.
COMPUTED = ("propagation.matvec_flops", "propagation.matrix_bytes", "propagation.state_bytes")
COUNTS = tuple(n for n, unit in PER_LAYER.items() if unit in ("count", "flop", "B"))
# Layer self times; in each traced run they add up to the run's wall time.
SELF_TIMES = tuple(n for n, unit in PER_LAYER.items() if unit == "s" and not n.startswith("trace."))

SETUP_REPEATS = 9
MIN_SAMPLES = 3


def workload_config(name: str, seed: int, smoke: bool = False) -> dict:
    """The CLI configuration of a workload.  Seed 0 is the reference point;
    other seeds draw (alpha, epsilon) and the alpha scan interval from the
    quantum-scissors regime, where both stay well below chi = 1."""
    mode, kicks, points, _ = WORKLOADS[name]
    if smoke:
        kicks, points = SMOKE_SIZES[name]
    if seed == 0:
        point = dict(REFERENCE_POINT)
    else:
        rng = random.Random(seed)
        centre = round(rng.uniform(0.035, 0.045), 6)
        point = {
            "alpha": round(rng.uniform(0.03, 0.05), 6),
            "epsilon": round(rng.uniform(0.007, 0.013), 6),
            "scan_start": round(centre - 0.02, 6),
            "scan_stop": round(centre + 0.02, 6),
        }
    cfg = {"mode": mode, "kicks": kicks, **BASE_CONFIG}
    cfg["alpha"], cfg["epsilon"] = point["alpha"], point["epsilon"]
    if mode == "scan":
        cfg.update(scan_param="alpha", scan_start=point["scan_start"],
                   scan_stop=point["scan_stop"], scan_steps=points)
    return cfg


def setup_config(cfg: dict) -> dict:
    """The workload cut to one kick, or to two scan points."""
    if cfg["mode"] == "scan":
        return {**cfg, "scan_steps": 2}
    return {**cfg, "kicks": 1}


def write_config(cfg: dict, path: Path) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")


def kick_steps(cfg: dict) -> int:
    return (cfg["kicks"] + 1) * (cfg["scan_steps"] if cfg["mode"] == "scan" else 1)


def import_cli():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "kicked_coupler" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'kicked_coupler'} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    import kicked_coupler.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: kicked_coupler imported from {cli.__file__}, not {SRC}")
    return cli


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": None,
        "blas_threads": None,
        "blas_thread_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
            if k in os.environ
        },
        "git_commit": None,
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        pass
    facts["blas_threads"] = _openblas_threads()
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            facts["git_commit"] = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return facts


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it is one."""
    import ctypes

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Runner:
    """Runs one workload through the CLI and checks every CSV it writes."""

    def __init__(self, cli, name: str, seed: int, smoke: bool = False):
        self.cli, self.name = cli, name
        self.min_samples = 1 if smoke else MIN_SAMPLES
        self.cfg = workload_config(name, seed, smoke)
        self.cfg_path = WORK / f"{name}.cfg"
        self.csv_path = WORK / f"{name}.csv"
        write_config(self.cfg, self.cfg_path)
        self.argv = ["--config", str(self.cfg_path), "--out", str(self.csv_path)]
        self.reference = csvcheck.load_reference()
        self.attempted = 0
        self.failures: list[str] = []
        self._verdicts: dict[bytes, list[str]] = {}

    def record(self, rc: int | str, cfg: dict, csv_path: Path) -> None:
        """Count one CLI run as attempted, and as failed if it exited nonzero
        or wrote a wrong CSV.  Byte-identical outputs are checked once."""
        self.attempted += 1
        if rc != 0:
            self.failures.append(rc if isinstance(rc, str) else f"exit code {rc}")
            return
        data = csv_path.read_bytes()
        digest = hashlib.blake2b(repr(cfg).encode() + data, digest_size=16).digest()
        if digest not in self._verdicts:
            lines = data.decode("utf-8").splitlines()
            self._verdicts[digest] = csvcheck.check_invariants(cfg, lines) + (
                csvcheck.check_reference(self.name, cfg, lines, self.reference)
            )
        problems = self._verdicts[digest]
        if problems:
            self.failures.append("; ".join(problems[:3]))

    def call_main(self, call) -> int | str:
        """The CLI's exit status; an exception it lets escape is a failed run."""
        try:
            return call(self.argv)
        except Exception as exc:  # noqa: BLE001 - every run must be counted
            traceback.print_exc()
            return f"uncaught {type(exc).__name__}: {exc}"

    def run_once(self, call=None) -> float:
        """One warm in-process CLI run; returns its wall time."""
        gc.collect()
        start = time.perf_counter()
        rc = self.call_main(call or self.cli.main)
        elapsed = time.perf_counter() - start
        self.record(rc, self.cfg, self.csv_path)
        return elapsed

    def setup_times(self, repeats: int) -> list[float]:
        """Wall times of a fresh interpreter running the cut-down command."""
        cfg = setup_config(self.cfg)
        cfg_path, csv_path = WORK / f"{self.name}.setup.cfg", WORK / f"{self.name}.setup.csv"
        write_config(cfg, cfg_path)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )}
        cmd = [sys.executable, "-m", "kicked_coupler.cli",
               "--config", str(cfg_path), "--out", str(csv_path)]
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
            times.append(time.perf_counter() - start)
            self.record(proc.returncode, cfg, csv_path)
        return times

    def peak_alloc_mb(self) -> float:
        """tracemalloc peak of one separate, untimed run."""
        gc.collect()
        tracemalloc.start()
        try:
            rc = self.call_main(self.cli.main)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.record(rc, self.cfg, self.csv_path)
        return peak / 1e6

    def end_to_end(self, seconds: float, setup_repeats: int) -> tuple[dict, dict, dict]:
        setup = self.setup_times(setup_repeats)
        self.run_once()  # warm-up: first-call imports and caches
        runs: list[float] = []
        while sum(runs) < seconds or len(runs) < self.min_samples:
            runs.append(self.run_once())
        run_s = statistics.median(runs)
        values = {
            "run_s": run_s,
            "kicks_per_s": kick_steps(self.cfg) / run_s,
            "setup_s": statistics.median(setup),
            "peak_alloc_mb": self.peak_alloc_mb(),
        }
        samples = {"run_s": len(runs), "kicks_per_s": len(runs),
                   "setup_s": len(setup), "peak_alloc_mb": 1}
        return values, samples, {"raw_s": {"run_s": runs, "setup_s": setup}}

    def per_layer(self, seconds: float, tracer: spans.Tracer) -> tuple[dict, dict, dict]:
        """Alternate untraced and traced runs, so that drift in the machine's
        speed affects both alike."""
        self.run_once()
        plain: list[float] = []
        traced: list[float] = []
        layers: list[dict] = []
        shares: list[float] = []
        while sum(plain) + sum(traced) < seconds or len(traced) < self.min_samples:
            plain.append(self.run_once())
            tracer.reset()
            tracer.install()
            try:
                traced.append(self.run_once(lambda argv: tracer.call_root(self.cli.main, argv)))
            finally:
                tracer.uninstall()
            layers.append(self._layer_sample(tracer))
            shares.append(sum(layers[-1][m] for m in SELF_TIMES if m in layers[-1]) / traced[-1])
        tracer.write(WORK / f"{self.name}.spans.csv")
        values = {}
        for metric in PER_LAYER:
            column = [sample.get(metric, 0) for sample in layers]
            if metric in COUNTS:
                if len(set(column)) != 1:
                    self.failures.append(f"{metric} differs between runs: {sorted(set(column))}")
                values[metric] = column[-1]
            else:
                values[metric] = statistics.median(column)
        values["trace.run_s"] = statistics.median(traced)
        values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(plain)
        extra = {"raw_s": {"run_s": plain, "trace.run_s": traced},
                 "self_time_share": statistics.median(shares),
                 "unpatched": tracer.missing}
        samples = {metric: len(layers) for metric in PER_LAYER}
        samples["trace.overhead_s"] = min(len(plain), len(traced))
        return values, samples, extra

    def _layer_sample(self, tracer: spans.Tracer) -> dict:
        sample = tracer.summary()
        sample.update({f"propagation.{k}": v for k, v in tracer.counts.items()})
        sample["cli.csv_bytes"] = self.csv_path.stat().st_size
        with open(self.csv_path, "rb") as fh:
            sample["cli.rows"] = sum(1 for _ in fh) - 1
        return sample


def measure(cli, machine: dict, name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result, record).  ``result`` is the object
    the last output line carries, ``record`` adds what is needed to recheck it."""
    runner = Runner(cli, name, seed, smoke)
    extra = {}
    if trace:
        values, samples, extra = runner.per_layer(seconds, spans.Tracer())
        units = PER_LAYER
    else:
        values, samples, extra = runner.end_to_end(seconds, 1 if smoke else SETUP_REPEATS)
        units = END_TO_END
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "config": runner.cfg,
        "error_rate": failed / runner.attempted,
        "failures": runner.failures[:10],
        "samples": samples,
        "computed": list(COMPUTED) if trace else [],
        **extra,
        "machine": machine,
        "result": result,
    }
    return result, record


def print_table(record: dict) -> None:
    result = record["result"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"config={json.dumps(record['config'])}")
    for metric, entry in result["metrics"].items():
        mark = " (computed)" if metric in record["computed"] else ""
        print(f"  {metric:28s} {entry['value']:>16.6g} {entry['unit']:6s} "
              f"n={record['samples'][metric]}{mark}")
    print(f"  {'error_rate':28s} {record['error_rate']:>16.6g} {'ratio':6s} "
          f"n={result['attempted']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def smoke(cli, machine: dict) -> int:
    """All workloads at reduced size, untraced and traced twice.  Checks that
    every metric of BENCHMARK.json is emitted with its unit, that no run
    failed, and that the computed counts repeat exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        runs = [measure(cli, machine, name, 0, 0.0, trace, smoke=True)
                for trace in (False, True, True)]
        for (result, record), key in zip(runs, ("end_to_end", "per_layer", "per_layer")):
            print_table(record)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: e["unit"] for m, e in result["metrics"].items()}
            if got != expected:
                problems.append(f"{name}: metrics {got} != BENCHMARK.json {expected}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name}: error_rate {record['error_rate']}")
        first, second = runs[1][0]["metrics"], runs[2][0]["metrics"]
        for metric in COUNTS:
            if first[metric]["value"] != second[metric]["value"]:
                problems.append(f"{name}: {metric} differs between traced runs")
        share = runs[1][1]["self_time_share"]
        if not 0.99 < share < 1.01:
            problems.append(f"{name}: layer self times cover {share:.3f} of trace.run_s")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="0 is the reference point")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="summed wall time of the measured runs")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="fast self-check of all workloads at reduced size")
    args = parser.parse_args(argv)

    cli = import_cli()
    WORK.mkdir(exist_ok=True)
    machine = machine_facts()
    if args.smoke:
        return smoke(cli, machine)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result, record = measure(cli, machine, name, args.seed, args.seconds, bool(args.trace))
        out = WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print_table(record)
        print(json.dumps({k: v for k, v in record.items() if k != "result"}))
        results.append(result)
    if len(results) == 1:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
