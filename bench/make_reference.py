#!/usr/bin/env python3
"""Write reference.json: rows sampled from each workload's CSV at seed 0.

The reference fixes the CSV values later commits must reproduce within the
bound in csvcheck.py.  Regenerate it only at a commit whose output is known to
be right, from the repository root:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json

import csvcheck
import run

# Every 97th kick row: a step prime to the oscillation periods, so the sample
# covers many phases.  Scan rows are all kept.
KICK_ROW_STEP = 97


def main() -> None:
    cli = run.import_cli()
    run.WORK.mkdir(exist_ok=True)
    reference = {"git_commit": run.machine_facts()["git_commit"]}
    for name in run.WORKLOADS:
        cfg = run.workload_config(name, 0)
        cfg_path, csv_path = run.WORK / f"{name}.cfg", run.WORK / f"{name}.csv"
        run.write_config(cfg, cfg_path)
        if cli.main(["--config", str(cfg_path), "--out", str(csv_path)]) != 0:
            raise SystemExit(f"{name}: the CLI failed")
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        problems = csvcheck.check_invariants(cfg, lines)
        if problems:
            raise SystemExit(f"{name}: {problems}")
        step = 1 if cfg["mode"] == "scan" else KICK_ROW_STEP
        reference[name] = {"config": cfg, "rows": csvcheck.sample_rows(lines, step)}
    with open(csvcheck.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
