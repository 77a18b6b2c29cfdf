"""Configuration, execution, and CSV export.

Run configurations come from a flat ``key = value`` file (UTF-8, '#'
comments), overridden by command-line flags.  Four modes:

simulate : full-basis stroboscopic evolution, one CSV row per kick.
analytic : closed-form four-state amplitudes, same CSV schema.
compare  : both, with per-kick analytic probabilities and the maximal
           per-state probability difference appended.
scan     : sweep one parameter, one summary row per value.

Exit codes: 0 success, 2 configuration error, 3 numerical-contract
violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

import numpy as np

from .analytic import SINGULAR_COUPLING_THRESHOLD, truncated_amplitudes
from .entanglement import (
    QubitObservables,
    annotate_trajectory,
    bell_fidelities,
    concurrence_pure,
)
from .errors import ConfigError, ContractViolationError
from .fock import ModeDims
from .hamiltonians import SystemParams
from .propagation import DEFAULT_ORDERING, Ordering, evolve

MODES = ("simulate", "analytic", "compare", "scan")
SCAN_PARAMS = ("alpha", "epsilon", "T")
# the full-basis runs record after each whole period; mid-pulse sampling is
# reserved for compare mode
ORDERINGS = (Ordering.KICK_THEN_FREE.value, Ordering.FREE_THEN_KICK.value)

CSV_HEADER = "k,P00,P01,P10,P11,leakage,concurrence,F_B1,F_B2,F_B3,F_B4"
COMPARE_EXTRA = "A00,A01,A10,A11,dP_max"
SCAN_HEADER = "param,value,max_concurrence,k_at_max,max_leakage"


@dataclass(frozen=True)
class ScanSpec:
    param: str
    start: float
    stop: float
    steps: int


@dataclass(frozen=True)
class RunConfig:
    params: SystemParams
    n_kicks: int = 2000
    ordering: Ordering = DEFAULT_ORDERING
    mode: str = "simulate"
    scan: ScanSpec | None = None
    out: str = "output.csv"


_KEYS = (
    "mode",
    "alpha",
    "epsilon",
    "T",
    "chi_a",
    "chi_b",
    "kicks",
    "cutoff_a",
    "cutoff_b",
    "ordering",
    "out",
    "scan_param",
    "scan_start",
    "scan_stop",
    "scan_steps",
)


def _parse_value(key: str, raw: str, line_no: int):
    try:
        if key in ("alpha", "epsilon"):
            return complex(raw)
        if key in ("T", "chi_a", "chi_b", "scan_start", "scan_stop"):
            return float(raw)
        if key in ("kicks", "cutoff_a", "cutoff_b", "scan_steps"):
            return int(raw)
        if key == "mode":
            if raw not in MODES:
                raise ValueError(f"mode must be one of {MODES}")
            return raw
        if key == "ordering":
            if raw not in ORDERINGS:
                raise ValueError(f"ordering must be one of {ORDERINGS}")
            return Ordering(raw)
        if key == "scan_param":
            if raw not in SCAN_PARAMS:
                raise ValueError(f"scan_param must be one of {SCAN_PARAMS}")
            return raw
        return raw  # out
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: bad value for '{key}': {raw!r} ({exc})")


def _config_from_items(items: dict) -> RunConfig:
    """Build and validate a RunConfig from parsed key/value pairs."""
    try:
        dims = ModeDims(items.get("cutoff_a", 15), items.get("cutoff_b", 15))
        params = SystemParams(
            chi_a=items.get("chi_a", 1.0),
            chi_b=items.get("chi_b", 1.0),
            epsilon=items.get("epsilon", 0.01),
            alpha=items.get("alpha", 0.04),
            T=items.get("T", 1.0),
            dims=dims,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    mode = items.get("mode", "simulate")
    n_kicks = items.get("kicks", 2000)
    if n_kicks < 1:
        raise ConfigError(f"kicks must be positive, got {n_kicks}")

    scan_keys = {k for k in items if k.startswith("scan_")}
    if mode == "scan":
        missing = {"scan_param", "scan_start", "scan_stop", "scan_steps"} - scan_keys
        if missing:
            raise ConfigError(f"mode = scan requires keys: {', '.join(sorted(missing))}")
        scan = ScanSpec(
            param=items["scan_param"],
            start=items["scan_start"],
            stop=items["scan_stop"],
            steps=items["scan_steps"],
        )
        if scan.steps < 2:
            raise ConfigError(f"scan_steps must be >= 2, got {scan.steps}")
        if not scan.start < scan.stop:
            raise ConfigError(
                f"scan_start must be < scan_stop, got {scan.start} >= {scan.stop}"
            )
        # every scanned value lies between the endpoints, so checking those
        # rejects a non-finite or nonpositive-period scan before it runs
        try:
            for value in (scan.start, scan.stop):
                replace(params, **{scan.param: value})
        except ValueError as exc:
            raise ConfigError(f"scan endpoint: {exc}")
    else:
        if scan_keys:
            raise ConfigError(
                f"scan keys {sorted(scan_keys)} are only valid with mode = scan"
            )
        scan = None

    return RunConfig(
        params=params,
        n_kicks=n_kicks,
        ordering=items.get("ordering", DEFAULT_ORDERING),
        mode=mode,
        scan=scan,
        out=items.get("out", "output.csv"),
    )


def parse_config(text: str) -> RunConfig:
    """Parse a flat key = value document into a validated RunConfig."""
    items: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        items[key] = _parse_value(key, raw, line_no)
    return _config_from_items(items)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_param(x) -> str:
    x = complex(x)
    if x.imag == 0:
        return format(x.real, ".12g")
    return str(x).strip("()")


def echo_config(config: RunConfig) -> str:
    """Render a config as a document that re-parses to an equal RunConfig."""
    p = config.params
    lines = [
        f"mode = {config.mode}",
        f"alpha = {_fmt_param(p.alpha)}",
        f"epsilon = {_fmt_param(p.epsilon)}",
        f"T = {_fmt(p.T)}",
        f"chi_a = {_fmt(p.chi_a)}",
        f"chi_b = {_fmt(p.chi_b)}",
        f"kicks = {config.n_kicks}",
        f"cutoff_a = {p.dims.dim_a}",
        f"cutoff_b = {p.dims.dim_b}",
        f"ordering = {config.ordering.value}",
        f"out = {config.out}",
    ]
    if config.scan is not None:
        lines += [
            f"scan_param = {config.scan.param}",
            f"scan_start = {_fmt(config.scan.start)}",
            f"scan_stop = {_fmt(config.scan.stop)}",
            f"scan_steps = {config.scan.steps}",
        ]
    return "\n".join(lines) + "\n"


def _warn_complex_phases(params: SystemParams) -> None:
    if complex(params.alpha).imag != 0 or complex(params.epsilon).imag != 0:
        print(
            "warning: closed-form amplitudes use |alpha| and |epsilon|; "
            "complex phases are ignored on the analytic path",
            file=sys.stderr,
        )


def _observable_columns(obs: QubitObservables) -> np.ndarray:
    """The CSV_HEADER columns after k, one row per kick."""
    return np.column_stack(
        (obs.probs, obs.leakage, obs.concurrence, obs.bell_fidelities)
    )


def _csv_rows(table: np.ndarray) -> list[str]:
    """One CSV row per table row, prefixed with its kick number."""
    return [
        ",".join([str(k)] + [_fmt(v) for v in row.tolist()])
        for k, row in enumerate(table)
    ]


def _run_simulate(config: RunConfig) -> list[str]:
    obs = annotate_trajectory(
        evolve(config.params, config.n_kicks, ordering=config.ordering),
        config.params.dims,
    )
    return [CSV_HEADER] + _csv_rows(_observable_columns(obs))


def _run_analytic(config: RunConfig) -> list[str]:
    _warn_complex_phases(config.params)
    eps_t = abs(config.params.epsilon) * config.params.T
    if eps_t <= SINGULAR_COUPLING_THRESHOLD:
        print(
            "note: |epsilon*T| below the coupled-formula threshold; "
            "using the uncoupled (epsilon = 0) amplitudes",
            file=sys.stderr,
        )
    amps = truncated_amplitudes(config.n_kicks, config.params)
    probs = np.abs(amps) ** 2
    # the closed forms' own normalization defect stays visible as leakage
    table = np.column_stack(
        (probs, 1.0 - probs.sum(axis=1), concurrence_pure(amps), bell_fidelities(amps))
    )
    return [CSV_HEADER] + _csv_rows(table)


def _run_compare(config: RunConfig) -> list[str]:
    _warn_complex_phases(config.params)
    # mid-pulse sampling: the convention under which the closed forms match
    # the kicked dynamics to highest order
    obs = annotate_trajectory(
        evolve(config.params, config.n_kicks, ordering=Ordering.MID_PULSE),
        config.params.dims,
    )
    ana = np.abs(truncated_amplitudes(config.n_kicks, config.params)) ** 2
    dp_max = np.max(np.abs(obs.probs - ana), axis=1)
    table = np.column_stack((_observable_columns(obs), ana, dp_max))
    return [CSV_HEADER + "," + COMPARE_EXTRA] + _csv_rows(table)


def _run_scan(config: RunConfig) -> list[str]:
    scan = config.scan
    rows = [SCAN_HEADER]
    # the scanned parameter enters one generator only, so the other step
    # unitary is built once and reused at every point
    cache: dict = {}
    for value in np.linspace(scan.start, scan.stop, scan.steps):
        params = replace(config.params, **{scan.param: float(value)})
        obs = annotate_trajectory(
            evolve(params, config.n_kicks, ordering=config.ordering, cache=cache),
            params.dims,
        )
        k_at_max = int(np.argmax(obs.concurrence))
        rows.append(
            ",".join(
                [
                    scan.param,
                    _fmt(value),
                    _fmt(obs.concurrence[k_at_max]),
                    str(k_at_max),
                    _fmt(obs.leakage.max()),
                ]
            )
        )
    return rows


def run(config: RunConfig) -> int:
    """Execute a validated config and write its CSV. Returns the exit status."""
    runners = {
        "simulate": _run_simulate,
        "analytic": _run_analytic,
        "compare": _run_compare,
        "scan": _run_scan,
    }
    rows = runners[config.mode](config)
    with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    return 0


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kicked-coupler",
        description="Simulate a pulse-kicked two-mode Kerr coupler and export "
        "per-kick observables as CSV.",
    )
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--alpha", help="kick strength (complex accepted)")
    parser.add_argument("--epsilon", help="inter-mode coupling (complex accepted)")
    parser.add_argument("--T", help="pulse period")
    parser.add_argument("--chi-a", dest="chi_a", help="Kerr constant of mode a")
    parser.add_argument("--chi-b", dest="chi_b", help="Kerr constant of mode b")
    parser.add_argument("--kicks", help="number of kicks to simulate")
    parser.add_argument("--cutoff-a", dest="cutoff_a", help="Fock levels in mode a")
    parser.add_argument("--cutoff-b", dest="cutoff_b", help="Fock levels in mode b")
    parser.add_argument(
        "--ordering", choices=ORDERINGS, help="step ordering"
    )
    parser.add_argument("--out", metavar="PATH", help="output CSV path")
    parser.add_argument(
        "--echo-config",
        action="store_true",
        help="print the effective configuration and exit",
    )
    return parser


def config_from_args(argv: list[str] | None = None) -> tuple[RunConfig, bool]:
    """Resolve flags over config file over defaults into a RunConfig."""
    args = _build_arg_parser().parse_args(argv)
    text = ""
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
    # re-use the config-file parser for flag values: append overrides
    overrides = []
    for key in (
        "mode",
        "alpha",
        "epsilon",
        "T",
        "chi_a",
        "chi_b",
        "kicks",
        "cutoff_a",
        "cutoff_b",
        "ordering",
        "out",
    ):
        value = getattr(args, key)
        if value is not None:
            overrides.append(f"{key} = {value}")
    full = text + "\n" + "\n".join(overrides)
    return parse_config(full), args.echo_config


def main(argv: list[str] | None = None) -> int:
    try:
        config, echo = config_from_args(argv)
        if echo:
            sys.stdout.write(echo_config(config))
            return 0
        return run(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ContractViolationError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
