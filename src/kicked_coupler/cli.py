"""Configuration, execution, and CSV export.

Run configurations come from a flat ``key = value`` file (UTF-8, '#'
comments), overridden by command-line flags.  One table, ``_KEYS``, says
for each key how it is parsed, where it lands in a RunConfig, how
``echo_config`` writes it back and whether it has a flag.  Four modes:

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
from collections import defaultdict
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable

import numpy as np

from .analytic import SINGULAR_COUPLING_THRESHOLD, truncated_amplitudes
from .entanglement import (
    QubitObservables,
    annotate_trajectory,
    bell_fidelities,
    concurrence_pure,
)
from .errors import ConfigError, ContractViolationError
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


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_param(x) -> str:
    x = complex(x)
    if x.imag == 0:
        return format(x.real, ".12g")
    return str(x).strip("()")


def _parse_out(raw: str) -> str:
    # echo_config writes the path verbatim into a line-based document that
    # cuts '#' comments and strips values; a path it cannot hold is refused
    if "#" in raw or raw != raw.strip() or len(raw.splitlines()) > 1:
        raise ValueError("a path may not contain '#', a line break, or edge whitespace")
    return raw


@dataclass(frozen=True)
class _Key:
    """How one config key is parsed, stored, written back and flagged."""

    field: str  # attribute path from a RunConfig to the value
    parse: Callable[[str], object]  # raw text -> value; ValueError if malformed
    render: Callable[[object], str]  # value -> the text echo_config writes
    help: str | None  # flag help; None keeps the key config-file only
    choices: tuple[str, ...] | None = None  # the raw values accepted, if a closed set


# echo_config writes the keys in this order
_KEYS = {
    "mode": _Key("mode", str, str, "what to compute", MODES),
    "alpha": _Key(
        "params.alpha", complex, _fmt_param, "kick strength (complex accepted)"
    ),
    "epsilon": _Key(
        "params.epsilon", complex, _fmt_param, "inter-mode coupling (complex accepted)"
    ),
    "T": _Key("params.T", float, _fmt, "pulse period"),
    "chi_a": _Key("params.chi_a", float, _fmt, "Kerr constant of mode a"),
    "chi_b": _Key("params.chi_b", float, _fmt, "Kerr constant of mode b"),
    "kicks": _Key("n_kicks", int, str, "number of kicks to simulate"),
    "cutoff_a": _Key("params.dims.dim_a", int, str, "Fock levels in mode a"),
    "cutoff_b": _Key("params.dims.dim_b", int, str, "Fock levels in mode b"),
    "ordering": _Key(
        "ordering", Ordering, attrgetter("value"), "step ordering", ORDERINGS
    ),
    "out": _Key("out", _parse_out, str, "output CSV path"),
    "scan_param": _Key("scan.param", str, str, None, SCAN_PARAMS),
    "scan_start": _Key("scan.start", float, _fmt, None),
    "scan_stop": _Key("scan.stop", float, _fmt, None),
    "scan_steps": _Key("scan.steps", int, str, None),
}
_SCAN_KEYS = frozenset(k for k, spec in _KEYS.items() if spec.field.startswith("scan."))


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _parse_value(key: str, raw: str, where: str):
    spec = _KEYS[key]
    try:
        if spec.choices is not None and raw not in spec.choices:
            raise ValueError(f"must be one of {spec.choices}")
        return spec.parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for '{key}': {raw!r} ({exc})")


def _config_from_items(items: dict) -> RunConfig:
    """Build and validate a RunConfig from parsed key/value pairs.  A key
    that is not given keeps the default its dataclass field declares."""
    fields: dict[str, dict] = defaultdict(dict)
    for key, value in items.items():
        owner, _, name = _KEYS[key].field.rpartition(".")
        fields[owner][name] = value
    try:
        dims = replace(SystemParams().dims, **fields["params.dims"])
        params = SystemParams(dims=dims, **fields["params"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    config = RunConfig(params=params, **fields[""])
    if config.n_kicks < 1:
        raise ConfigError(f"kicks must be positive, got {config.n_kicks}")

    scan_keys = _SCAN_KEYS & items.keys()
    if config.mode != "scan":
        if scan_keys:
            raise ConfigError(
                f"scan keys {sorted(scan_keys)} are only valid with mode = scan"
            )
        return config
    missing = _SCAN_KEYS - scan_keys
    if missing:
        raise ConfigError(f"mode = scan requires keys: {', '.join(sorted(missing))}")
    scan = ScanSpec(**fields["scan"])
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
    return replace(config, scan=scan)


def _parse_items(text: str) -> dict:
    """The parsed values of a flat key = value document, by key."""
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
        items[key] = _parse_value(key, raw, f"line {line_no}")
    return items


def parse_config(text: str) -> RunConfig:
    """Parse a flat key = value document into a validated RunConfig."""
    return _config_from_items(_parse_items(text))


def echo_config(config: RunConfig) -> str:
    """Render a config as a document that re-parses to an equal RunConfig."""
    lines = [
        f"{key} = {spec.render(attrgetter(spec.field)(config))}"
        for key, spec in _KEYS.items()
        if config.scan is not None or key not in _SCAN_KEYS
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
    # the closed forms' contracts are checked before the full-basis run
    ana = np.abs(truncated_amplitudes(config.n_kicks, config.params)) ** 2
    # mid-pulse sampling: the convention under which the closed forms match
    # the kicked dynamics to highest order
    obs = annotate_trajectory(
        evolve(config.params, config.n_kicks, ordering=Ordering.MID_PULSE),
        config.params.dims,
    )
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
    for key, spec in _KEYS.items():
        if spec.help is not None:
            parser.add_argument(_flag(key), choices=spec.choices, help=spec.help)
    parser.add_argument(
        "--echo-config",
        action="store_true",
        help="print the effective configuration and exit",
    )
    return parser


def config_from_args(argv: list[str] | None = None) -> tuple[RunConfig, bool]:
    """Resolve flags over config file over defaults into a RunConfig."""
    args = _build_arg_parser().parse_args(argv)
    items: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        items = _parse_items(text)
    # a flag value goes through its key's parser as given, never through
    # the document format
    for key in _KEYS:
        raw = getattr(args, key, None)
        if raw is not None:
            items[key] = _parse_value(key, raw, _flag(key))
    return _config_from_items(items), args.echo_config


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
