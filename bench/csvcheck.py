"""Checks on the CSV files the CLI writes.

Every run is checked against the invariants of its mode.  A run whose
configuration matches the one in ``reference.json`` (the default seed) is also
compared value by value with rows sampled from the reference output.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

HEADERS = {
    "simulate": "k,P00,P01,P10,P11,leakage,concurrence,F_B1,F_B2,F_B3,F_B4",
    "compare": "k,P00,P01,P10,P11,leakage,concurrence,F_B1,F_B2,F_B3,F_B4,"
    "A00,A01,A10,A11,dP_max",
    "scan": "param,value,max_concurrence,k_at_max,max_leakage",
}

# Sums of rounded CSV values and norms after many unitary steps.
INVARIANT_TOL = 1e-9
# Largest allowed change of a CSV value, plus one unit in the 12th significant
# digit, which is where the CSV format rounds.
REFERENCE_ABS_TOL = 1e-12
REFERENCE_REL_TOL = 1e-11

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _table(lines: list[str], first_numeric: int) -> np.ndarray:
    return np.array(
        [[float(x) for x in line.split(",")[first_numeric:]] for line in lines]
    )


def check_invariants(cfg: dict, lines: list[str]) -> list[str]:
    """Problems found in the CSV ``lines`` (header included) of one run."""
    mode = cfg["mode"]
    if not lines or lines[0] != HEADERS[mode]:
        return [f"header is {lines[:1]!r}, expected {HEADERS[mode]!r}"]
    rows = lines[1:]
    if mode == "scan":
        return _check_scan(cfg, rows)
    if len(rows) != cfg["kicks"] + 1:
        return [f"{len(rows)} rows, expected {cfg['kicks'] + 1}"]
    t = _table(rows, 0)
    problems = []
    if not np.all(np.isfinite(t)):
        problems.append("non-finite value")
    if not np.array_equal(t[:, 0], np.arange(cfg["kicks"] + 1)):
        problems.append("column k is not 0..kicks")
    probs, leak, conc, fids = t[:, 1:5], t[:, 5], t[:, 6], t[:, 7:11]
    if np.any(probs < 0) or np.any(leak < 0):
        problems.append("negative probability or leakage")
    if np.max(np.abs(probs.sum(axis=1) + leak - 1)) > INVARIANT_TOL:
        problems.append("P00+P01+P10+P11+leakage differs from 1")
    if np.max(np.abs(fids.sum(axis=1) - 1)) > INVARIANT_TOL:
        problems.append("F_B1..F_B4 do not sum to 1")
    if np.any(conc < 0) or np.any(conc > 1 + INVARIANT_TOL):
        problems.append("concurrence outside [0, 1]")
    if mode == "compare":
        dp = np.max(np.abs(probs - t[:, 11:15]), axis=1)
        if np.max(np.abs(dp - t[:, 15])) > INVARIANT_TOL:
            problems.append("dP_max is not max |P - A|")
    return problems


def _check_scan(cfg: dict, rows: list[str]) -> list[str]:
    if len(rows) != cfg["scan_steps"]:
        return [f"{len(rows)} scan rows, expected {cfg['scan_steps']}"]
    if any(row.split(",", 1)[0] != cfg["scan_param"] for row in rows):
        return [f"scan row does not name parameter {cfg['scan_param']}"]
    t = _table(rows, 1)
    problems = []
    if not np.all(np.isfinite(t)):
        problems.append("non-finite value")
    values = np.linspace(cfg["scan_start"], cfg["scan_stop"], cfg["scan_steps"])
    if np.max(np.abs(t[:, 0] - values)) > INVARIANT_TOL * np.max(np.abs(values)):
        problems.append("scan values are not the requested grid")
    if np.any(t[:, 1] < 0) or np.any(t[:, 1] > 1 + INVARIANT_TOL):
        problems.append("max_concurrence outside [0, 1]")
    k = t[:, 2]
    if np.any(k != np.round(k)) or np.any(k < 0) or np.any(k > cfg["kicks"]):
        problems.append("k_at_max outside the run")
    if np.any(t[:, 3] < 0):
        problems.append("negative max_leakage")
    return problems


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _reference_applies(ref_cfg: dict, cfg: dict) -> bool:
    """Trajectory rows do not depend on the run length, so a shorter run of a
    per-kick mode is compared on the reference rows it contains."""
    ignored = {"kicks"} if cfg["mode"] != "scan" else set()
    keys = (set(ref_cfg) | set(cfg)) - ignored
    return all(ref_cfg.get(key) == cfg.get(key) for key in keys)


def check_reference(name: str, cfg: dict, lines: list[str], reference: dict) -> list[str]:
    """Compare the sampled reference rows of workload ``name``, if they apply."""
    entry = reference.get(name)
    if entry is None or not _reference_applies(entry["config"], cfg):
        return []
    problems = []
    for index, ref_line in entry["rows"].items():
        index = int(index)
        if index >= len(lines):
            continue
        got, want = lines[index].split(","), ref_line.split(",")
        if cfg["mode"] == "scan":
            got, want = got[1:], want[1:]
        g, w = np.array(got, dtype=float), np.array(want, dtype=float)
        if g.shape != w.shape or np.any(
            np.abs(g - w) > REFERENCE_ABS_TOL + REFERENCE_REL_TOL * np.abs(w)
        ):
            problems.append(f"line {index} differs from the reference: {lines[index]}")
    return problems


def sample_rows(lines: list[str], step: int) -> dict[str, str]:
    """Every ``step``-th line after the header, plus the last one."""
    indices = sorted(set(range(1, len(lines), step)) | {len(lines) - 1})
    return {str(i): lines[i] for i in indices}
