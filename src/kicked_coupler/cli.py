"""Configuration, execution, and CSV export.

Run configurations come from a flat ``key = value`` file (UTF-8, '#'
comments), overridden by command-line flags.  One table, ``_KEYS``, says
for each key how it is parsed, where it lands in a RunConfig and, unless
it is a scan key (config-file only), its flag help.  Four modes:

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

import os
import shutil
import stat
import sys
import tempfile
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from numbers import Integral
from operator import attrgetter
from typing import TextIO

import numpy as np

from .analytic import amplitude_rows
from .entanglement import QubitObservables, annotate_trajectory, bell_fidelities, concurrence_pure
from .hamiltonians import ConfigError, ModeDims, SystemParams, edge_populations, quoted
from .numerics import ContractViolationError
from .propagation import DEFAULT_ORDERING, Ordering, evolve_blocks, kick_blocks, scan_blocks

SCAN_PARAMS = ("alpha", "epsilon", "T")
# the full-basis runs record after each whole period; mid-pulse sampling is
# reserved for compare mode
ORDERINGS = (Ordering.KICK_THEN_FREE.value, Ordering.FREE_THEN_KICK.value)

CSV_HEADER = "k,P00,P01,P10,P11,leakage,concurrence,F_B1,F_B2,F_B3,F_B4"
COMPARE_EXTRA = "A00,A01,A10,A11,dP_max"
SCAN_HEADER = "param,value,max_concurrence,k_at_max,max_leakage"

# Largest population at level dim - 1 of either mode a run passes without a
# note: acceptance criterion 9 lets a probability move by 1e-6 between
# cutoffs 10 and 15
EDGE_TOL = 1e-6

# Peak RSS of a full-basis run above the imported package, in D x D complex
# matrices: the least of 6.4-7.9 measured for simulate, compare and scan at
# cutoffs 20/20, 30/30 and 40/40, so that no run that fits is refused by
# _check_fits, the one size refusal, which run applies to every RunConfig
PEAK_MATRICES = 6.4


@dataclass(frozen=True)
class RunConfig:
    """One run.  Construction refuses a value its key's parser does not give; run checks size."""

    params: SystemParams
    n_kicks: int = 2000
    ordering: Ordering = DEFAULT_ORDERING
    mode: str = "simulate"
    scan_param: str | None = None  # the four scan keys: set if and only if mode is scan
    scan_start: float | None = None
    scan_stop: float | None = None
    scan_steps: int | None = None
    out: str = "output.csv"

    def __post_init__(self) -> None:
        if not isinstance(self.params, SystemParams):
            raise ConfigError(f"params must be a SystemParams, got {quoted(self.params)}")
        for key, spec in _KEYS.items():
            value = attrgetter(spec.field)(self)
            if value is not None or key not in _SCAN_KEYS:  # else left to the scan checks
                try:
                    raw = _render(value)
                except ValueError as exc:  # an int beyond sys.get_int_max_str_digits()
                    raise ConfigError(f"bad value for '{key}': {exc}")
                _parse_value(key, raw, held=value)
        if self.n_kicks < 1:
            raise ConfigError(f"kicks must be positive, got {quoted(self.n_kicks, str)}")
        scan_keys = sorted(key for key in _SCAN_KEYS if getattr(self, key) is not None)
        if self.mode != "scan":
            if scan_keys:
                raise ConfigError(f"scan keys {scan_keys} are only valid with mode = scan")
            return
        missing = _SCAN_KEYS.difference(scan_keys)
        if missing:
            raise ConfigError(f"mode = scan requires keys: {', '.join(sorted(missing))}")
        start, stop = self.scan_start, self.scan_stop
        if self.scan_steps < 2:
            raise ConfigError(f"scan_steps must be >= 2, got {quoted(self.scan_steps, str)}")
        if not start < stop:
            ends = f"{quoted(start, str)} >= {quoted(stop, str)}"
            raise ConfigError(f"scan_start must be < scan_stop, got {ends}")
        # every scanned value lies between the endpoints if their difference,
        # the span of _run_scan, is finite (else the values are NaN), so checking
        # both rejects a non-finite or nonpositive-period scan before it runs
        try:
            for value in (start, stop):
                replace(self.params, **{self.scan_param: value})
        except ValueError as exc:
            raise ConfigError(f"scan endpoint: {exc}")
        if not np.isfinite(stop - start):
            raise ConfigError(f"scan span {start:g} to {stop:g} overflows")


# every float in a CSV row, and in a config value where it round-trips
_FLOAT = "%.12g"


def _render(value) -> str:
    """A config value as text that parses back to it: an int or str (an
    Ordering included) as str, and a real or complex one as _FLOAT writes
    it where that is exact, else as repr."""
    if not isinstance(value, float | complex):
        return str(value)
    x = complex(value)
    if x.imag != 0:
        return str(x).strip("()")
    text = _FLOAT % x.real
    return text if float(text) == x.real else repr(x.real)


def _csv_rows(obs: QubitObservables, first_k: int, *extra: np.ndarray) -> str:
    """One CSV line per kick: its number, counted from first_k, the
    CSV_HEADER columns after k, then any extra columns."""
    table = np.column_stack(
        (obs.probs, obs.leakage, obs.concurrence, obs.bell_fidelities, *extra)
    )
    line = "%d," + ",".join([_FLOAT] * table.shape[1]) + "\n"
    ks = range(first_k, first_k + len(table))
    return "".join(map(line.__mod__, zip(ks, *table.T.tolist())))


def _observed_blocks(blocks, dims, edge, where="") -> Iterator[tuple[int, QubitObservables]]:
    """k and the observables of each (k, block) of states that blocks (evolve_blocks)
    yields.  edge[0] keeps the largest population at level dim - 1 of either mode so
    far, as (value, k, mode, where).  A block of states is dropped once its
    observables are taken, before the next one is asked for."""
    for k, block in blocks:
        obs = annotate_trajectory(block, dims)
        pops = edge_populations(block, dims)
        del block
        row, mode = divmod(int(pops.argmax()), 2)
        edge[0] = max(edge[0], (pops[row, mode], k + row, "ab"[mode], where))
        yield k, obs


# A runner yields the CSV text of a run piece by piece, header first, one
# piece per block of kicks (per point for scan), so no mode holds more than
# one block of states, closed-form amplitudes or formatted rows.  A
# full-basis runner keeps its largest edge population in edge (see
# _observed_blocks).


def _run_simulate(config: RunConfig, edge: list) -> Iterator[str]:
    yield CSV_HEADER + "\n"
    blocks = evolve_blocks(config.params, config.n_kicks, config.ordering)
    for k, obs in _observed_blocks(blocks, config.params.dims, edge):
        yield _csv_rows(obs, k)


def _run_analytic(config: RunConfig, edge: list) -> Iterator[str]:
    yield CSV_HEADER + "\n"
    for start, stop in kick_blocks(config.n_kicks):
        block = amplitude_rows(start, stop, config.params)
        probs = np.abs(block) ** 2
        obs = QubitObservables(
            probs, 1.0 - probs.sum(axis=1), concurrence_pure(block), bell_fidelities(block)
        )
        yield _csv_rows(obs, start)


def _run_compare(config: RunConfig, edge: list) -> Iterator[str]:
    yield CSV_HEADER + "," + COMPARE_EXTRA + "\n"
    # mid-pulse sampling: the convention under which the closed forms match
    # the kicked dynamics to highest order
    blocks = evolve_blocks(config.params, config.n_kicks, Ordering.MID_PULSE)
    for k, obs in _observed_blocks(blocks, config.params.dims, edge):
        probs = np.abs(amplitude_rows(k, k + len(obs.leakage), config.params)) ** 2
        dp_max = np.max(np.abs(obs.probs - probs), axis=1)
        yield _csv_rows(obs, k, probs, dp_max)


def _run_scan(config: RunConfig, edge: list) -> Iterator[str]:
    param, start, stop = config.scan_param, config.scan_start, config.scan_stop
    yield SCAN_HEADER + "\n"
    row = f"%s,{_FLOAT},{_FLOAT},%d,{_FLOAT}\n"
    div, span = config.scan_steps - 1, stop - start
    step = span / div
    # np.linspace(start, stop, steps)[j] bit for bit, numpy's branch for a
    # step that underflows to 0 included, without the whole array
    grid = (
        stop if j == div else (j / div * span if step == 0 else j * step) + start
        for j in range(config.scan_steps)
    )
    for value, blocks in scan_blocks(config.params, param, grid, config.n_kicks, config.ordering):
        max_concurrence = max_leakage = -np.inf
        k_at_max = 0
        where = f", {param} = {_FLOAT % value}"
        for k, obs in _observed_blocks(blocks, config.params.dims, edge, where):
            i = int(np.argmax(obs.concurrence))
            # strict '>': the first maximum wins across blocks, as in argmax
            if obs.concurrence[i] > max_concurrence:
                max_concurrence, k_at_max = obs.concurrence[i], k + i
            max_leakage = max(max_leakage, obs.leakage.max())
        del obs  # before the next point's unitaries are built
        yield row % (param, value, max_concurrence, k_at_max, max_leakage)


_RUNNERS: dict[str, Callable[[RunConfig, list], Iterator[str]]] = {
    "simulate": _run_simulate,
    "analytic": _run_analytic,
    "compare": _run_compare,
    "scan": _run_scan,
}
MODES = tuple(_RUNNERS)


def _parse_out(raw: str) -> str:
    # echo_config writes the path verbatim into a line-based document that
    # cuts '#' comments and strips values; a path it cannot hold, or that
    # no file system can name (an empty one, a NUL byte), is refused
    if not raw or "#" in raw or "\0" in raw or raw != raw.strip() or len(raw.splitlines()) > 1:
        raise ValueError(
            "a path may not be empty or contain '#', a NUL byte, a line break, "
            "or edge whitespace"
        )
    return raw


@dataclass(frozen=True)
class _Key:
    """How one config key is parsed, stored and flagged."""

    field: str  # attribute path from a RunConfig to the value
    parse: Callable[[str], object]  # raw text -> value; ValueError if malformed
    help: str = ""  # flag help; a scan key has no flag
    choices: tuple[str, ...] | None = None  # closed set of raw values; _parse_value reads it


# echo_config writes the keys in this order
_KEYS = {
    "mode": _Key("mode", str, "what to compute", MODES),
    "alpha": _Key("params.alpha", complex, "kick strength (complex accepted)"),
    "epsilon": _Key("params.epsilon", complex, "inter-mode coupling (complex accepted)"),
    "T": _Key("params.T", float, "pulse period"),
    "chi_a": _Key("params.chi_a", float, "Kerr constant of mode a"),
    "chi_b": _Key("params.chi_b", float, "Kerr constant of mode b"),
    "kicks": _Key("n_kicks", int, "number of kicks to simulate"),
    "cutoff_a": _Key("params.dims.dim_a", int, "Fock levels in mode a"),
    "cutoff_b": _Key("params.dims.dim_b", int, "Fock levels in mode b"),
    "ordering": _Key("ordering", Ordering, "step ordering", ORDERINGS),
    "out": _Key("out", _parse_out, "output CSV path"),
    "scan_param": _Key("scan_param", str, choices=SCAN_PARAMS),
    "scan_start": _Key("scan_start", float),
    "scan_stop": _Key("scan_stop", float),
    "scan_steps": _Key("scan_steps", int),
}
_SCAN_KEYS = frozenset(key for key in _KEYS if key.startswith("scan_"))


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _parse_value(key: str, raw: str, where: str = "", held=None):
    """key's parse of raw, else a ConfigError after where.  With no where, raw is _render(held),
    and held must be that parse (or NaN) in its type too, as an integer for an int key."""
    spec = _KEYS[key]
    try:
        if spec.choices is not None and raw not in spec.choices:
            raise ValueError(f"must be one of {spec.choices}")
        value = spec.parse(raw)
        if not where and ((value != held or type(value)(held) != value) and held == held
                          or spec.parse is int and not isinstance(held, Integral)):
            raise ValueError(f"given as {quoted(held)}, not as its parse {quoted(value)}")
        return value
    except ValueError as exc:
        # the reason may quote raw again, as float's does
        raise ConfigError(f"{where}bad value for '{key}': {quoted(raw)} ({quoted(exc, str, 100)})")


def _config_from_items(items: dict) -> RunConfig:
    """Assemble a RunConfig, which checks itself, from parsed key/value
    pairs.  A key not given keeps the default its dataclass field declares."""
    fields: dict[str, dict] = defaultdict(dict)
    for key, value in items.items():
        owner, _, name = _KEYS[key].field.rpartition(".")
        fields[owner][name] = value
    dims = replace(SystemParams().dims, **fields["params.dims"])
    params = SystemParams(dims=dims, **fields["params"])
    return RunConfig(params=params, **fields[""])


def _parse_items(text: str) -> dict:
    """The parsed values of a flat key = value document, by key."""
    items: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {quoted(line)}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key '{quoted(key, str)}'")
        items[key] = _parse_value(key, raw, f"line {line_no}: ")
    return items


def echo_config(config: RunConfig) -> str:
    """Render a config as a document that re-parses to an equal RunConfig."""
    lines = [
        f"{key} = {_render(attrgetter(spec.field)(config))}"
        for key, spec in _KEYS.items()
        if config.mode == "scan" or key not in _SCAN_KEYS
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
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
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


def _physical_memory() -> int | None:
    """This machine's memory in bytes, or None where os.sysconf cannot tell."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return page * pages if page > 0 and pages > 0 else None


def _check_fits(dims: ModeDims) -> None:
    """Refuse a full-basis run whose D x D complex matrix numpy cannot index
    (more than np.intp bytes) or whose estimated peak, PEAK_MATRICES such
    matrices, is more than this machine's memory where os.sysconf tells it.
    The index test comes first and keeps the memory test's floats finite."""
    matrix, have = 16 * dims.joint**2, _physical_memory()
    cutoffs = f"cutoffs {dims.dim_a} x {dims.dim_b} (D = {quoted(dims.joint, str)})"
    size = f"too large for this machine: {cutoffs}"
    if matrix > np.iinfo(np.intp).max:
        raise ConfigError(f"{size}: a D x D complex matrix is more than numpy's largest array")
    need = PEAK_MATRICES * matrix
    if have is not None and need > have:
        raise ConfigError(f"{size} need about {need / 1e9:.3g} GB, it has {have / 1e9:.3g} GB")


def run(config: RunConfig) -> int:
    """Execute a config and write its CSV. Returns the exit status.

    The RunConfig checked its invariants when it was built.  The refusals that
    need no trajectory come first, before anything is opened: _check_fits for a
    full-basis run, then a closed-form run's closed forms at its last kick.  The
    output is opened next, so an unwritable path fails before any computation,
    and each block of rows is written as it is computed.  A run that succeeds
    with more than EDGE_TOL at level dim - 1 of a mode says so in one stderr
    line: its largest value, with its k and mode.
    """
    if config.mode != "analytic":
        _check_fits(config.params.dims)
    if config.mode in ("analytic", "compare"):
        # its last kick decides every block: tests/test_analytic.py::TestLastKickDecides
        amplitude_rows(config.n_kicks, config.n_kicks + 1, config.params)
    edge = [(-np.inf, 0, "", "")]
    with _output(config.out) as fh:
        fh.writelines(_RUNNERS[config.mode](config, edge))
    value, k, mode, where = edge[0]
    if value > EDGE_TOL:
        print(
            f"note: the last Fock level of mode {mode} holds population {value:.3g} "
            f"at k = {k}{where} (above {EDGE_TOL:g})",
            file=sys.stderr,
        )
    return 0


# main's flags: --config, one per key but the scan keys, and two that take no
# value; none is a prefix of another, so a flag given in full names it alone
_SWITCHES = ("--echo-config", "--help")
_FLAGS = ("--config", *(_flag(key) for key in _KEYS if key not in _SCAN_KEYS), *_SWITCHES)


def _help_text() -> str:
    """What -h and --help print: each flag, what it takes and what it does."""
    rows = [("-h, --help", "print this help and exit"), ("--config PATH", "key = value file")]
    for key, spec in _KEYS.items():
        if key not in _SCAN_KEYS:
            takes = "{%s}" % ",".join(spec.choices) if spec.choices else key.upper()
            rows.append((f"{_flag(key)} {takes}", spec.help))
    rows.append(("--echo-config", "print the effective configuration and exit"))
    usage = "usage: kicked-coupler [-h] [--config PATH] [--FLAG VALUE ...] [--echo-config]"
    return "\n".join([usage, ""] + [f"  {flag:<22}  {text}" for flag, text in rows]) + "\n"


def config_from_args(argv: list[str] | None = None) -> tuple[RunConfig | None, str | None]:
    """Resolve flags over config file over defaults into a RunConfig, and
    the text to print instead of running it (--echo-config, --help), if any.

    A flag may be cut to a prefix of it alone.  Its value follows '=' or is
    the next token unless that is '-h' or starts with '--' (-1e-3 and
    -x.csv are values).  The last value given wins; any other token is refused.
    """
    given: dict[str, str] = {}
    tokens = iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        head, eq, value = ("--help" if token == "-h" else token).partition("=")
        named = [f for f in _FLAGS if f.startswith(head) and len(head) > 2]
        if len(named) != 1:
            refusal = f"ambiguous flag {quoted(head)}" if named else f"not a flag: {quoted(token)}"
            raise ConfigError(refusal)
        flag = named[0]
        if flag in _SWITCHES and eq:
            raise ConfigError(f"{flag} takes no value")
        if flag == "--help":
            return None, _help_text()
        if flag not in _SWITCHES and not eq:
            value = next(tokens, "--")
            if value.startswith("--") or value == "-h":
                raise ConfigError(f"{flag}: expected a value")
        given[flag] = value
    items: dict = {}
    if "--config" in given:
        try:
            # utf-8-sig drops the byte-order mark some editors write
            with open(given["--config"], encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        items = _parse_items(text)
    # a flag value goes through its key's parser as given, never through
    # the document format
    for key in _KEYS:
        if _flag(key) in given:
            items[key] = _parse_value(key, given[_flag(key)], f"{_flag(key)}: ")
    config = _config_from_items(items)
    return config, echo_config(config) if "--echo-config" in given else None


def main(argv: list[str] | None = None) -> int:
    try:
        config, text = config_from_args(argv)
        if text is not None:
            sys.stdout.write(text)
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
