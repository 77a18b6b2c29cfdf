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

Every mode computes and writes its rows one block of kicks at a time
(propagation.kick_blocks); the output is opened before the run and takes
the rows only when the run succeeds (see _output).

Exit codes: 0 success, 2 configuration error (a run too large to allocate
included), 3 numerical-contract violation, 1 I/O error.
"""

from __future__ import annotations

import argparse
import os
import shutil
import stat
import sys
import tempfile
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import TextIO

import numpy as np

from .analytic import amplitude_rows, uses_uncoupled_forms
from .entanglement import (
    QubitObservables,
    annotate_trajectory,
    bell_fidelities,
    concurrence_pure,
)
from .errors import ConfigError, ContractViolationError
from .hamiltonians import SystemParams
from .propagation import DEFAULT_ORDERING, Ordering, evolve_blocks, kick_blocks

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


# every float in a CSV row, and in a config value where it round-trips
_FLOAT = "%.12g"


def _fmt(x: float) -> str:
    return _FLOAT % float(x)


def _fmt_value(x) -> str:
    """A real or complex config value as text that parses back to it: a
    real one as _FLOAT writes it where that is exact, else as repr."""
    x = complex(x)
    if x.imag != 0:
        return str(x).strip("()")
    text = _fmt(x.real)
    return text if float(text) == x.real else repr(x.real)


def _note_closed_forms(params: SystemParams) -> None:
    """Say on stderr where the closed forms depart from params: complex
    phases are dropped, and below the coupling threshold the uncoupled
    amplitudes stand in.  Each closed-form run calls it once."""
    if complex(params.alpha).imag != 0 or complex(params.epsilon).imag != 0:
        print(
            "warning: closed-form amplitudes use |alpha| and |epsilon|; "
            "complex phases are ignored on the analytic path",
            file=sys.stderr,
        )
    if uses_uncoupled_forms(params):
        print(
            "note: |epsilon*T| below the coupled-formula threshold; "
            "using the uncoupled (epsilon = 0) amplitudes",
            file=sys.stderr,
        )


def _observable_columns(obs: QubitObservables) -> np.ndarray:
    """The CSV_HEADER columns after k, one row per kick."""
    return np.column_stack(
        (obs.probs, obs.leakage, obs.concurrence, obs.bell_fidelities)
    )


def _csv_rows(table: np.ndarray, first_k: int) -> str:
    """One CSV line per table row, prefixed with its kick number, counted
    from first_k."""
    line = "%d," + ",".join([_FLOAT] * table.shape[1]) + "\n"
    return "".join([line % (k, *row) for k, row in enumerate(table.tolist(), first_k)])


# A runner yields the CSV text of a run piece by piece, header first, one
# piece per block of kicks (per point for scan), so no mode holds more than
# one block of states, closed-form amplitudes or formatted rows.


def _run_simulate(config: RunConfig) -> Iterator[str]:
    yield CSV_HEADER + "\n"
    k = 0
    for block in evolve_blocks(config.params, config.n_kicks, ordering=config.ordering):
        obs = annotate_trajectory(block, config.params.dims)
        yield _csv_rows(_observable_columns(obs), k)
        k += len(block)


def _run_analytic(config: RunConfig) -> Iterator[str]:
    _note_closed_forms(config.params)
    yield CSV_HEADER + "\n"
    for start, stop in kick_blocks(config.n_kicks):
        block = amplitude_rows(start, stop, config.params)
        probs = np.abs(block) ** 2
        # the closed forms' own normalization defect stays visible as leakage
        table = np.column_stack(
            (
                probs,
                1.0 - probs.sum(axis=1),
                concurrence_pure(block),
                bell_fidelities(block),
            )
        )
        yield _csv_rows(table, start)


def _run_compare(config: RunConfig) -> Iterator[str]:
    _note_closed_forms(config.params)
    # the closed forms' contracts are checked, block by block, before the
    # full-basis run; the rows are evaluated again alongside it
    for start, stop in kick_blocks(config.n_kicks):
        amplitude_rows(start, stop, config.params)
    yield CSV_HEADER + "," + COMPARE_EXTRA + "\n"
    k = 0
    # mid-pulse sampling: the convention under which the closed forms match
    # the kicked dynamics to highest order
    for block in evolve_blocks(config.params, config.n_kicks, ordering=Ordering.MID_PULSE):
        obs = annotate_trajectory(block, config.params.dims)
        probs = np.abs(amplitude_rows(k, k + len(block), config.params)) ** 2
        dp_max = np.max(np.abs(obs.probs - probs), axis=1)
        yield _csv_rows(np.column_stack((_observable_columns(obs), probs, dp_max)), k)
        k += len(block)


def _scan_point(
    params: SystemParams, config: RunConfig, cache: dict
) -> tuple[float, int, float]:
    """The maximal concurrence, the first k that reaches it, and the maximal
    leakage of one scan point's run, taken block by block."""
    k = 0
    for block in evolve_blocks(params, config.n_kicks, ordering=config.ordering, cache=cache):
        obs = annotate_trajectory(block, params.dims)
        i = int(np.argmax(obs.concurrence))
        # strict '>': the first maximum wins across blocks, as in argmax
        if k == 0 or obs.concurrence[i] > max_concurrence:
            max_concurrence, k_at_max = obs.concurrence[i], k + i
        leakage = obs.leakage.max()
        max_leakage = leakage if k == 0 else max(max_leakage, leakage)
        k += len(block)
    return max_concurrence, k_at_max, max_leakage


def _run_scan(config: RunConfig) -> Iterator[str]:
    scan = config.scan
    yield SCAN_HEADER + "\n"
    # the scanned parameter enters one generator only, so the other step
    # unitary is built once and reused at every point
    cache: dict = {}
    for value in np.linspace(scan.start, scan.stop, scan.steps):
        params = replace(config.params, **{scan.param: float(value)})
        max_concurrence, k_at_max, max_leakage = _scan_point(params, config, cache)
        fields = [scan.param, _fmt(value), _fmt(max_concurrence), str(k_at_max)]
        yield ",".join(fields + [_fmt(max_leakage)]) + "\n"


_RUNNERS: dict[str, Callable[[RunConfig], Iterator[str]]] = {
    "simulate": _run_simulate,
    "analytic": _run_analytic,
    "compare": _run_compare,
    "scan": _run_scan,
}
MODES = tuple(_RUNNERS)


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
        "params.alpha", complex, _fmt_value, "kick strength (complex accepted)"
    ),
    "epsilon": _Key(
        "params.epsilon", complex, _fmt_value, "inter-mode coupling (complex accepted)"
    ),
    "T": _Key("params.T", float, _fmt_value, "pulse period"),
    "chi_a": _Key("params.chi_a", float, _fmt_value, "Kerr constant of mode a"),
    "chi_b": _Key("params.chi_b", float, _fmt_value, "Kerr constant of mode b"),
    "kicks": _Key("n_kicks", int, str, "number of kicks to simulate"),
    "cutoff_a": _Key("params.dims.dim_a", int, str, "Fock levels in mode a"),
    "cutoff_b": _Key("params.dims.dim_b", int, str, "Fock levels in mode b"),
    "ordering": _Key(
        "ordering", Ordering, attrgetter("value"), "step ordering", ORDERINGS
    ),
    "out": _Key("out", _parse_out, str, "output CSV path"),
    "scan_param": _Key("scan.param", str, str, None, SCAN_PARAMS),
    "scan_start": _Key("scan.start", float, _fmt_value, None),
    "scan_stop": _Key("scan.stop", float, _fmt_value, None),
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
    # numpy indexes no array of more than np.intp bytes, whatever the
    # memory; a smaller one that does not fit fails in run (MemoryError)
    if 16 * dims.joint**2 > np.iinfo(np.intp).max:
        raise ConfigError(
            f"cutoffs {dims.dim_a} x {dims.dim_b}: a D x D complex matrix "
            f"(D = {dims.joint}) is more than numpy's largest array"
        )
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
    # every scanned value lies between the endpoints if their difference,
    # np.linspace's span, is finite (else the values are NaN), so checking
    # both rejects a non-finite or nonpositive-period scan before it runs
    try:
        for value in (scan.start, scan.stop):
            replace(params, **{scan.param: value})
    except ValueError as exc:
        raise ConfigError(f"scan endpoint: {exc}")
    if not np.isfinite(scan.stop - scan.start):
        raise ConfigError(f"scan span {scan.start:g} to {scan.stop:g} overflows")
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


def _spool(directory: str | None) -> TextIO:
    """An unnamed scratch file in directory, else in the system's temporary
    directory (when directory is None or takes no new files)."""
    try:
        return tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n", dir=directory)
    except OSError:
        return tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n")


@contextmanager
def _output(path: str) -> Iterator[TextIO]:
    """A text stream for the CSV at path, opened before the run starts.

    path is opened for writing at once, created if it is missing and not
    truncated, so an unwritable path fails before the run, with an OSError
    that names it.  The rows go to a scratch file, beside a regular or new
    file and in the system's temporary directory for a device or a pipe,
    and are copied to path only when the body completes.  A regular file
    is then cut to the CSV and keeps its inode, owner, mode and links, as
    open(path, "w") leaves them; a new one gets the mode open(path, "w")
    gives it.  After an exception an existing file keeps its bytes, and a
    file the open created is removed.  A symbolic link is followed either
    way.
    """
    existed = os.path.exists(path)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        # the message names the path that was asked for
        raise type(exc)(exc.errno, exc.strerror, path) from None
    target = os.path.realpath(path)
    regular = stat.S_ISREG(os.fstat(fd).st_mode)
    spool_dir = os.path.dirname(target) if regular else None
    try:
        with open(fd, "wb") as dest, _spool(spool_dir) as spool:
            yield spool
            spool.seek(0)
            if regular:
                dest.truncate()
            shutil.copyfileobj(spool.buffer, dest)
    except BaseException:
        if not existed:
            os.unlink(target)
        raise


def run(config: RunConfig) -> int:
    """Execute a validated config and write its CSV. Returns the exit status.

    The output is opened first, so an unwritable path fails before any
    computation, and each block of rows is written as it is computed.
    """
    with _output(config.out) as fh:
        fh.writelines(_RUNNERS[config.mode](config))
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
            # utf-8-sig drops the byte-order mark some editors write
            with open(args.config, encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
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
    except MemoryError as exc:
        # numpy's message names the size of the array it could not allocate
        detail = f": {exc}" if str(exc) else ""
        print(f"configuration error: too large for this machine{detail}", file=sys.stderr)
        return 2
    except ContractViolationError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
