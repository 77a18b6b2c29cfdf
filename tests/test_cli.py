import contextlib
import errno
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from numbers import Number
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kicked_coupler import (
    ContractViolationError,
    ModeDims,
    Ordering,
    QubitObservables,
    SystemParams,
    annotate_trajectory,
    evolve,
    evolve_blocks,
)
from kicked_coupler import analytic, cli, propagation
from kicked_coupler.cli import (
    CSV_HEADER,
    ConfigError,
    RunConfig,
    _FLOAT,
    echo_config,
    main,
    run,
)
from kicked_coupler.numerics import PHASE_ROUNDOFF_TOL
from kicked_coupler.propagation import UNITARY_INPUTS
from conftest import MATRIX_BYTES, off_norm_vacuum, oracle_probabilities, scaled_steps, traced_peak


def fmt(x):
    """One CSV cell, as the CLI writes it."""
    return _FLOAT % float(x)


def parse_config(text):
    """A flat key = value document as the validated RunConfig that a
    --config file holding it gives."""
    return cli._config_from_items(cli._parse_items(text))


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


FLAGGED_KEYS = [key for key in cli._KEYS if key not in cli._SCAN_KEYS]
SCAN_DOCUMENT = (
    "mode = scan\nscan_param = alpha\nscan_start = 0.01\nscan_stop = 0.05\n"
    "scan_steps = 3\n"
)


def value_of(config, key):
    """The value a config holds for a key; None for a scan key of a config
    without a scan."""
    return attrgetter(cli._KEYS[key].field)(config)


def field_paths(obj, prefix=""):
    """Attribute paths of every non-dataclass field reachable from obj."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from field_paths(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def other_raw(key, value):
    """Raw text for a key that parses to a value other than ``value``."""
    spec = cli._KEYS[key]
    if spec.choices is not None:
        return next(raw for raw in spec.choices if spec.parse(raw) != value)
    if isinstance(value, str):
        return "other-" + value
    return cli._render(value * (3 + 1j if spec.parse is complex else 3))


class TestParseConfig:
    def test_empty_document_defaults(self):
        config = parse_config("")
        p = config.params
        assert (p.chi_a, p.chi_b) == (1.0, 1.0)
        assert p.alpha == 0.04 and p.epsilon == 0.01 and p.T == 1.0
        assert (p.dims.dim_a, p.dims.dim_b) == (15, 15)
        assert config.mode == "simulate"
        assert config.n_kicks == 2000
        assert (config.scan_param, config.scan_start, config.scan_stop, config.scan_steps) == (
            None, None, None, None
        )

    def test_reference_parameters(self):
        config = parse_config("alpha = 0.04\nepsilon = 0.01\nT = 1")
        assert config.params.alpha == 0.04
        assert config.params.epsilon == 0.01
        assert config.params.T == 1.0

    def test_comments_and_blank_lines(self):
        config = parse_config("# a comment\n\nkicks = 10  # trailing\n")
        assert config.n_kicks == 10

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("alhpa = 0.04")

    def test_bad_value_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("alpha = 0.04\nkicks = many")

    def test_scan_requires_scan_keys(self):
        with pytest.raises(ConfigError, match="scan_param"):
            parse_config("mode = scan")

    def test_scan_keys_only_in_scan_mode(self):
        with pytest.raises(ConfigError):
            parse_config("scan_param = alpha")

    def test_scan_invariants(self):
        base = "mode = scan\nscan_param = alpha\nscan_start = 0.01\n"
        with pytest.raises(ConfigError, match="scan_steps"):
            parse_config(base + "scan_stop = 0.05\nscan_steps = 1")
        with pytest.raises(ConfigError, match="scan_start"):
            parse_config(base + "scan_stop = 0.005\nscan_steps = 3")

    def test_ordering_values(self):
        config = parse_config("ordering = kick_then_free")
        assert config.ordering is Ordering.KICK_THEN_FREE
        config = parse_config("ordering = free_then_kick")
        assert config.ordering is Ordering.FREE_THEN_KICK

    def test_ordering_rejects_mid_pulse(self, capsys):
        # mid-pulse sampling is what compare mode uses; it is not selectable
        with pytest.raises(ConfigError, match="ordering"):
            parse_config("ordering = mid_pulse")
        # the flag value is refused by the key's parser, as a file value is
        assert main(["--ordering", "mid_pulse", "--echo-config"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: --ordering: bad value")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_line_without_equals_names_line(self):
        with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
            parse_config("kicks = 5\nalpha 0.04\n")

    def test_scan_endpoints_must_give_valid_parameters(self):
        base = "mode = scan\nscan_steps = 3\n"
        with pytest.raises(ConfigError, match="finite"):
            parse_config(base + "scan_param = alpha\nscan_start = 0.01\nscan_stop = inf")
        with pytest.raises(ConfigError, match="positive"):
            parse_config(base + "scan_param = T\nscan_start = -1\nscan_stop = 1")
        # finite endpoints whose difference overflows: np.linspace would
        # give NaN values
        for param in ("alpha", "epsilon"):
            with pytest.raises(ConfigError, match="scan span .* overflows"):
                parse_config(
                    base + f"scan_param = {param}\nscan_start = -1.7e308\nscan_stop = 1.7e308"
                )

    SCAN_FIELDS = dict(scan_param="alpha", scan_start=0.01, scan_stop=0.05, scan_steps=3)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(mode="scan"),
            dict(SCAN_FIELDS, mode="scan", scan_steps=1),
            dict(mode="bogus"),
            dict(n_kicks=-1),
            dict(n_kicks=0),
            dict(ordering=Ordering.MID_PULSE),
            dict(SCAN_FIELDS, mode="scan", scan_param="chi_a"),
            dict(SCAN_FIELDS, mode="scan", scan_start=0.05, scan_stop=0.01),
            dict(SCAN_FIELDS),
            dict(out=""),
            dict(out="a\0b"),
            dict(n_kicks=2.5),
            dict(n_kicks=float("nan")),
            dict(n_kicks=True),
        ],
        ids=[
            "scan-without-scan-fields", "one-scan-step", "unknown-mode", "negative-kicks",
            "zero-kicks", "mid-pulse-ordering", "chi_a-scan", "descending-scan",
            "scan-fields-in-simulate", "empty-out", "nul-out", "fractional-kicks", "nan-kicks",
            "bool-kicks",
        ],
    )
    def test_hand_built_config_is_refused_as_parsed(self, fields):
        # a RunConfig built in Python meets the parser's refusal, at
        # construction; a closed-set value's text lacks only the line number
        with pytest.raises(ConfigError) as built:
            RunConfig(params=SystemParams(), **fields)
        key_of = {spec.field: key for key, spec in cli._KEYS.items()}
        document = "".join(f"{key_of[f]} = {cli._render(v)}\n" for f, v in fields.items())
        with pytest.raises(ConfigError) as parsed:
            parse_config(document)
        assert str(parsed.value) in (str(built.value), f"line 1: {built.value}")

    @pytest.mark.parametrize("out", [" x.csv", "a#b.csv"], ids=["edge-space", "hash"])
    def test_hand_built_out_is_refused_as_flagged(self, out):
        # a document strips a value and cuts a '#' comment, so such a path
        # reaches the parser only as a flag value, which it takes verbatim
        with pytest.raises(ConfigError) as built:
            RunConfig(params=SystemParams(), out=out)
        with pytest.raises(ConfigError) as flagged:
            cli.config_from_args(["--out", out])
        assert str(flagged.value) == f"--out: {built.value}"

    def test_hand_built_scan_steps_is_refused_as_parsed(self):
        fields = dict(self.SCAN_FIELDS, mode="scan", scan_steps=2.5)
        with pytest.raises(ConfigError) as built:
            RunConfig(params=SystemParams(), **fields)
        key_of = {spec.field: key for key, spec in cli._KEYS.items()}
        document = "".join(f"{key_of[f]} = {cli._render(v)}\n" for f, v in fields.items())
        with pytest.raises(ConfigError) as parsed:
            parse_config(document)
        assert str(parsed.value) == f"line 4: {built.value}"

    @pytest.mark.parametrize(
        "fields",
        [
            dict(n_kicks=3.0),
            dict(n_kicks=np.float64(3)),
            dict(n_kicks="3"),
            dict(out=Path("x.csv")),
            dict(SCAN_FIELDS, mode="scan", scan_start="0.01"),
            # numpy compares 0.01 with float32(0.01) in float32 and finds them
            # equal, but the run would compute in float32
            dict(SCAN_FIELDS, mode="scan", scan_start=np.float32(0.01)),
            dict(params=SystemParams(alpha=np.float32(0.04))),
            dict(params=SystemParams(epsilon=np.complex64(0.01))),
        ],
        ids=[
            "float-kicks", "numpy-float-kicks", "text-kicks", "path-out", "text-scan-start",
            "float32-scan-start", "float32-alpha", "complex64-epsilon",
        ],
    )
    def test_hand_built_value_of_another_type_is_refused(self, fields):
        # its text parses ("kicks = 3"), but not back to the value itself
        message = r"^bad value for .* \(given as .*, not as its parse "
        with pytest.raises(ConfigError, match=message):
            RunConfig(**dict(params=SystemParams()) | fields)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(n_kicks=np.int64(3)),
            dict(SCAN_FIELDS, mode="scan", scan_start=0),
            dict(ordering="kick_then_free"),
            dict(params=SystemParams(alpha=np.float64(0.04))),
        ],
        ids=["numpy-int-kicks", "int-scan-start", "ordering-text", "float64-alpha"],
    )
    def test_hand_built_value_equal_to_its_parse_is_accepted(self, fields):
        config = RunConfig(**dict(params=SystemParams()) | fields)
        assert parse_config(echo_config(config)) == config

    @pytest.mark.parametrize("params", [None, "alpha = 0.04", ModeDims(3, 3)])
    def test_hand_built_params_of_another_type_is_refused(self, params):
        with pytest.raises(ConfigError, match="^params must be a SystemParams, got "):
            RunConfig(params=params)

    @pytest.mark.parametrize("endpoint", ["scan_start", "scan_stop"])
    def test_nan_scan_endpoint_is_left_to_the_scan_checks(self, endpoint):
        # a NaN is unequal to its parse, yet it is what its text gives
        fields = dict(self.SCAN_FIELDS, mode="scan", **{endpoint: float("nan")})
        document = SCAN_DOCUMENT.replace(f"{endpoint} = ", f"{endpoint} = nan  # ")
        with pytest.raises(ConfigError, match="^scan_start must be < scan_stop, got "):
            RunConfig(params=SystemParams(), **fields)
        with pytest.raises(ConfigError, match="^scan_start must be < scan_stop, got "):
            parse_config(document)

    def test_hand_built_float_cutoff_is_refused_by_its_dims(self):
        # ModeDims refuses it before a RunConfig holds it; as a cutoff_a
        # value it reaches the config as the dims' refusal
        with pytest.raises(ValueError, match=r"must be integers, got \(3.0, 3\)"):
            RunConfig(params=SystemParams(dims=ModeDims(3.0, 3)))
        with pytest.raises(ConfigError, match=r"must be integers, got \(3.0, 15\)"):
            cli._config_from_items({"cutoff_a": 3.0})

    def test_replace_into_another_mode_is_refused(self):
        config = RunConfig(params=SystemParams(), mode="scan", **self.SCAN_FIELDS)
        with pytest.raises(ConfigError, match="only valid with mode = scan"):
            replace(config, mode="analytic")

    def test_round_trip(self):
        text = (
            "mode = scan\nalpha = 0.05\nepsilon = 0.02\nT = 1.5\nkicks = 500\n"
            "cutoff_a = 10\ncutoff_b = 12\nordering = kick_then_free\n"
            "scan_param = epsilon\nscan_start = 0.005\nscan_stop = 0.02\n"
            "scan_steps = 4\nout = scan.csv"
        )
        config = parse_config(text)
        assert parse_config(echo_config(config)) == config

    def test_round_trip_defaults(self):
        config = parse_config("")
        assert parse_config(echo_config(config)) == config

    def test_keys_set_every_config_field_once(self):
        paths = [spec.field for spec in cli._KEYS.values()]
        assert sorted(paths) == sorted(field_paths(parse_config(SCAN_DOCUMENT)))

    def test_round_trip_every_key_non_default(self):
        default, base = parse_config(""), parse_config(SCAN_DOCUMENT)
        document = ""
        for key in cli._KEYS:
            value = value_of(base, key)
            if value == value_of(default, key):
                document += f"{key} = {other_raw(key, value)}\n"
            else:
                document += f"{key} = {cli._render(value)}\n"
        config = parse_config(document)
        for key in cli._KEYS:
            assert value_of(config, key) != value_of(default, key), key
        assert parse_config(echo_config(config)) == config

    def test_round_trip_full_precision_floats(self, rng):
        # values that %.12g cannot hold, at many magnitudes
        float_keys = [k for k, spec in cli._KEYS.items() if spec.parse in (float, complex)]
        assert sorted(float_keys) == sorted(
            ["alpha", "epsilon", "T", "chi_a", "chi_b", "scan_start", "scan_stop"]
        )
        for _ in range(200):
            scale = 10.0 ** rng.integers(-20, 20, size=len(float_keys))
            values = dict(zip(float_keys, rng.uniform(-1, 1, len(float_keys)) * scale))
            values["T"] = abs(values["T"])
            values["scan_start"], values["scan_stop"] = sorted(
                (values["scan_start"], values["scan_stop"])
            )
            lines = [f"{key} = {float(value)!r}\n" for key, value in values.items()]
            document = SCAN_DOCUMENT + "".join(lines)
            config = parse_config(document)
            assert parse_config(echo_config(config)) == config, document
        complex_alpha = parse_config(f"alpha = {complex(*rng.uniform(-1, 1, 2))!r}")
        assert parse_config(echo_config(complex_alpha)) == complex_alpha

    @pytest.mark.parametrize(
        "flag, value, line",
        [
            ("--alpha", "0.0412345678901234", "alpha = 0.0412345678901234"),
            ("--T", "1.00000000000001", "T = 1.00000000000001"),
            # %.12g is kept wherever it round-trips
            ("--alpha", "0.04", "alpha = 0.04"),
            ("--T", "1e-30", "T = 1e-30"),
            ("--chi-a", "-0.0", "chi_a = -0"),
        ],
    )
    def test_echo_renders_floats_that_round_trip(self, capsys, flag, value, line):
        assert main([flag, value, "--echo-config"]) == 0
        assert line in capsys.readouterr().out.splitlines()

    # 16 D^2 > np.intp bytes; (2, 379625063) are the least such cutoffs with cutoff_a = 2
    @pytest.mark.parametrize(
        "cutoffs", [(100000, 100000), (4000000000, 4000000000), (2, 379625063)]
    )
    def test_cutoffs_beyond_numpy_index_range(self, capsys, cutoffs):
        # size is run's to refuse (cli._check_fits); parsing and
        # --echo-config take any valid cutoffs
        config = parse_config("cutoff_a = %d\ncutoff_b = %d\n" % cutoffs)
        assert (config.params.dims.dim_a, config.params.dims.dim_b) == cutoffs
        argv = ["--cutoff-a", str(cutoffs[0]), "--cutoff-b", str(cutoffs[1]), "--echo-config"]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert "cutoff_a = %d" % cutoffs[0] in out and "cutoff_b = %d" % cutoffs[1] in out

    @pytest.mark.parametrize("memory", [None, 2**62])
    def test_largest_indexable_cutoffs_are_accepted(self, monkeypatch, memory):
        # D = 759250124 is the largest D with 16 D^2 bytes within np.intp:
        # with no memory probe the run's guard passes it and refuses D + 2
        # (cutoffs 2 x 379625063); with one, memory decides
        config = parse_config("cutoff_a = 2\ncutoff_b = 379625062\n")
        assert 16 * config.params.dims.joint**2 <= np.iinfo(np.intp).max
        assert 16 * (config.params.dims.joint + 1) ** 2 > np.iinfo(np.intp).max
        monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
        if memory is None:
            cli._check_fits(config.params.dims)
        else:
            with pytest.raises(ConfigError, match="need about 5.9e\\+10 GB, it has 4.61e\\+09 GB"):
                cli._check_fits(config.params.dims)
        with pytest.raises(ConfigError, match="more than numpy's largest array"):
            cli._check_fits(cli.ModeDims(2, 379625063))


class TestRunModes:
    def small_config(self, tmp_path, extra=""):
        return parse_config(
            f"kicks = 20\ncutoff_a = 5\ncutoff_b = 5\nout = {tmp_path/'o.csv'}\n"
            + extra
        )

    def test_simulate_initial_row_and_count(self, tmp_path):
        config = self.small_config(tmp_path)
        assert run(config) == 0
        header, rows = read_rows(tmp_path / "o.csv")
        assert header == CSV_HEADER
        assert len(rows) == 21
        first = [float(x) for x in rows[0]]
        np.testing.assert_allclose(
            first, [0, 1, 0, 0, 0, 0, 0, 0.5, 0.5, 0, 0], atol=1e-12
        )

    def test_simulate_deterministic_output(self, tmp_path):
        config = self.small_config(tmp_path)
        run(config)
        data1 = (tmp_path / "o.csv").read_bytes()
        run(config)
        assert (tmp_path / "o.csv").read_bytes() == data1

    def test_analytic_uncoupled_columns(self, tmp_path):
        config = self.small_config(tmp_path, extra="mode = analytic\nepsilon = 0\n")
        assert run(config) == 0
        _, rows = read_rows(tmp_path / "o.csv")
        for row in rows:
            k = int(row[0])
            assert float(row[1]) == pytest.approx(np.cos(k * 0.04) ** 2, abs=1e-12)
            assert float(row[3]) == pytest.approx(np.sin(k * 0.04) ** 2, abs=1e-12)
            assert float(row[2]) == 0.0 and float(row[4]) == 0.0

    @pytest.mark.parametrize("block", [7, None], ids=["block-7", "block-default"])
    @pytest.mark.parametrize(
        "extra",
        ["", "epsilon = 0\n", "alpha = 0.3\nepsilon = 0.05\nT = 1.7\n"],
        ids=["reference", "uncoupled", "strong"],
    )
    def test_analytic_probabilities_equal_compare_columns(
        self, tmp_path, monkeypatch, extra, block
    ):
        # both modes take their closed-form probabilities from
        # analytic.amplitude_rows; the formatted cells agree byte for byte,
        # also at the block edges
        if block is not None:
            monkeypatch.setattr(propagation, "BLOCK_KICKS", block)
        b = propagation.BLOCK_KICKS
        for kicks in (1, b - 1, b, b + 1, 3 * b + 5):
            tables = {}
            for mode in ("analytic", "compare"):
                config = self.small_config(
                    tmp_path, extra=f"mode = {mode}\nkicks = {kicks}\n{extra}"
                )
                assert run(config) == 0
                tables[mode] = read_rows(tmp_path / "o.csv")[1]
            analytic = [row[1:5] for row in tables["analytic"]]
            compare = [row[11:15] for row in tables["compare"]]
            assert len(analytic) == kicks + 1
            assert analytic == compare

    def test_analytic_follows_the_sign_of_epsilon(self, tmp_path):
        # epsilon -> -epsilon puts the phase e^{-i pi} on |01> and |11>, which
        # swaps B1 with B2 and B3 with B4 and leaves the other columns
        tables = {}
        for epsilon in ("0.01", "-0.01"):
            extra = f"mode = analytic\nepsilon = {epsilon}\n"
            assert run(self.small_config(tmp_path, extra=extra)) == 0
            tables[epsilon] = np.array(read_rows(tmp_path / "o.csv")[1], dtype=float)
        swapped = tables["0.01"][:, [0, 1, 2, 3, 4, 5, 6, 8, 7, 10, 9]]
        np.testing.assert_allclose(tables["-0.01"], swapped, rtol=0, atol=1e-12)
        assert np.max(np.abs(tables["-0.01"] - tables["0.01"])) > 0.1

    def test_compare_mode_columns(self, tmp_path):
        config = self.small_config(tmp_path, extra="mode = compare\ncutoff_a = 15\ncutoff_b = 15\n")
        assert run(config) == 0
        header, rows = read_rows(tmp_path / "o.csv")
        assert header == CSV_HEADER + ",A00,A01,A10,A11,dP_max"
        assert len(rows) == 21
        for row in rows:
            assert float(row[-1]) < 5e-3

    def test_scan_mode_rows(self, tmp_path):
        config = self.small_config(
            tmp_path,
            extra=(
                "mode = scan\nscan_param = alpha\nscan_start = 0.02\n"
                "scan_stop = 0.06\nscan_steps = 3\n"
            ),
        )
        assert run(config) == 0
        header, rows = read_rows(tmp_path / "o.csv")
        assert header == "param,value,max_concurrence,k_at_max,max_leakage"
        assert len(rows) == 3
        assert [row[0] for row in rows] == ["alpha"] * 3

    @pytest.mark.parametrize(
        "param, start, stop",
        [("alpha", 0.02, 0.06), ("epsilon", -0.01, 0.03), ("T", 0.5, 1.5)],
    )
    def test_scan_rows_match_uncached_runs(self, tmp_path, monkeypatch, param, start, stop):
        config = self.small_config(
            tmp_path,
            extra=(
                f"mode = scan\nscan_param = {param}\nscan_start = {start}\n"
                f"scan_stop = {stop}\nscan_steps = 4\nalpha = 0.03+0.01j\n"
            ),
        )
        calls = []

        def recording_evolve_blocks(params, n_kicks, **kwargs):
            blocks = list(evolve_blocks(params, n_kicks, **kwargs))
            states = np.concatenate([block for _, block in blocks])
            calls.append((params, states, kwargs["cache"]))
            return iter(blocks)

        monkeypatch.setattr(cli, "evolve_blocks", recording_evolve_blocks)
        assert run(config) == 0
        _, rows = read_rows(tmp_path / "o.csv")
        assert len(calls) == len(rows) == 4
        for (params, states, _), row in zip(calls, rows):
            fresh = evolve(params, config.n_kicks, ordering=config.ordering)
            assert np.array_equal(states, fresh)
            obs = annotate_trajectory(fresh, params.dims)
            k = int(np.argmax(obs.concurrence))
            value = getattr(params, param)
            assert row == [
                param, fmt(value), fmt(obs.concurrence[k]), str(k), fmt(obs.leakage.max())
            ]
        # one cache for the whole scan, holding only the unitary the scan
        # reuses: the scanned one is in the period matrix and no later point
        # uses it
        caches = {id(cache) for _, _, cache in calls}
        assert len(caches) == 1
        cache, last = calls[-1][2], calls[-1][0]
        assert set(cache) == ({"free"} if param == "alpha" else {"kick"})
        for kind, (key, _) in cache.items():
            assert key == tuple(getattr(last, f) for f in UNITARY_INPUTS[kind])

    def test_each_scan_has_its_own_cache(self, tmp_path, monkeypatch):
        config = self.small_config(
            tmp_path,
            extra="mode = scan\nscan_param = alpha\nscan_start = 0.02\n"
            "scan_stop = 0.04\nscan_steps = 2\n",
        )
        caches = []

        def recording_evolve_blocks(params, n_kicks, **kwargs):
            caches.append(kwargs["cache"])
            return evolve_blocks(params, n_kicks, **kwargs)

        monkeypatch.setattr(cli, "evolve_blocks", recording_evolve_blocks)
        run(config)
        run(replace(config, params=replace(config.params, epsilon=0.02)))
        assert caches[0] is caches[1] and caches[2] is caches[3]
        assert caches[0] is not caches[2]


class TestMain:
    @pytest.mark.parametrize("mode", ["analytic", "compare"])
    @pytest.mark.parametrize(
        "flags",
        [
            [],
            # the closed forms follow the phases of alpha and epsilon, so a
            # complex input needs no warning, and one formula holds at every
            # epsilon, 0 included
            ["--alpha", "0.04+0.01j"],
            ["--alpha", "0.04+0.01j", "--epsilon", "0"],
        ],
        ids=["plain", "complex", "both"],
    )
    def test_closed_form_runs_print_nothing(self, tmp_path, capsys, mode, flags):
        argv = ["--mode", mode, "--kicks", "5", *SMALL, "--out", str(tmp_path / "o.csv")]
        assert main(argv + flags) == 0
        assert capsys.readouterr().err == ""

    def test_config_file_with_byte_order_mark(self, tmp_path, capsys):
        text = "alpha = 0.05\nkicks = 7\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        config, _ = cli.config_from_args(["--config", str(marked)])
        assert config == cli.config_from_args(["--config", str(plain)])[0]
        assert config.params.alpha == 0.05 and config.n_kicks == 7
        echoes = []
        for path in (plain, marked):
            assert main(["--config", str(path), "--echo-config"]) == 0
            echoes.append(capsys.readouterr())
        assert echoes[0] == echoes[1]
        assert "alpha = 0.05" in echoes[1].out.splitlines()

    def test_config_file_with_crlf_line_ends(self, tmp_path, capsys):
        text = "alpha = 0.05\nkicks = 7\n"
        plain, crlf = tmp_path / "plain.cfg", tmp_path / "crlf.cfg"
        plain.write_text(text, encoding="utf-8")
        crlf.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode("utf-8"))
        echoes = []
        for path in (plain, crlf):
            assert main(["--config", str(path), "--echo-config"]) == 0
            echoes.append(capsys.readouterr())
        assert echoes[0] == echoes[1]
        assert "alpha = 0.05" in echoes[1].out.splitlines()

    def test_success_exit_code(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["--kicks", "5", "--cutoff-a", "4", "--cutoff-b", "4", "--out", str(out)]) == 0
        assert out.exists()

    def test_config_error_exit_code(self, capsys):
        assert main(["--kicks", "nope"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file(self):
        assert main(["--config", "/nonexistent/path.cfg"]) == 2

    @pytest.mark.parametrize("argv", [["--config="], ["--config", ""]], ids=["flag=", "flag"])
    def test_empty_config_path_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        # an empty path names no file, as for --out
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--echo-config"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: cannot read config file: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"alpha = 0.05\xff\n")
        assert main(["--config", str(cfg), "--echo-config"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: cannot read config file: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_bad_flag_value_names_the_flag(self, capsys):
        assert main(["--kicks", "nope"]) == 2
        err = capsys.readouterr().err
        assert "--kicks" in err
        assert "line" not in err

    @pytest.mark.parametrize(
        "out",
        ["{dir}/run#1.csv", "{dir}/y.csv\nkicks = 7", " {dir}/y.csv", "{dir}/y.csv ",
         "{dir}/y.csv\r"],
        ids=["hash", "line-break", "leading-space", "trailing-space", "carriage-return"],
    )
    def test_out_the_config_format_cannot_hold(self, tmp_path, capsys, out):
        # every flag value must survive --echo-config and re-parsing
        argv = ["--kicks", "3", "--cutoff-a", "4", "--cutoff-b", "4"]
        assert main(argv + ["--out", out.format(dir=tmp_path)]) == 2
        assert "--out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("echo", [[], ["--echo-config"]], ids=["run", "echo"])
    def test_out_with_a_nul_byte_exit_2(self, tmp_path, capsys, echo):
        # no file system names such a path; os.open would raise ValueError
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"out = {tmp_path}/a\0b.csv\nkicks = 3\n")
        assert main(["--config", str(cfg), *SMALL, *echo]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: line 1: bad value for 'out'")
        assert "a NUL byte" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("source", ["file", "flag=", "flag"])
    def test_empty_out_exit_2(self, tmp_path, capsys, monkeypatch, source):
        # no file system names the empty path; os.open would raise ENOENT
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text("out =\n")
        argv = {
            "file": ["--config", "c.cfg"],
            "flag=": ["--out="],
            "flag": ["--out", ""],
        }[source]
        assert main(argv + ["--kicks", "3", *SMALL]) == 2
        captured = capsys.readouterr()
        where = "line 1" if source == "file" else "--out"
        assert captured.err.startswith(f"configuration error: {where}: bad value for 'out': ''")
        assert "may not be empty" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["c.cfg"]

    @pytest.mark.parametrize("source", ["file", "flag=", "flag"])
    def test_kicks_must_be_positive(self, tmp_path, capsys, source):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("kicks = 0\n")
        argv = {
            "file": ["--config", str(cfg)],
            "flag=": ["--kicks=-5"],
            "flag": ["--kicks", "-5"],
        }[source]
        assert main(argv + ["--echo-config"]) == 2
        kicks = 0 if source == "file" else -5
        assert capsys.readouterr() == (
            "", f"configuration error: kicks must be positive, got {kicks}\n"
        )

    @pytest.mark.parametrize("key", FLAGGED_KEYS)
    def test_bad_flag_value_reads_as_the_file_value(self, tmp_path, capsys, key):
        # a NUL byte is no value of any key, and a config line can hold it
        raw = "bogus\0"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {raw}\n")
        assert main(["--config", str(cfg), "--echo-config"]) == 2
        by_file = capsys.readouterr()
        assert main([cli._flag(key), raw, "--echo-config"]) == 2
        by_flag = capsys.readouterr()
        assert by_file.out == by_flag.out == ""
        assert by_file.err.startswith(f"configuration error: line 1: bad value for '{key}'")
        assert by_file.err.count("\n") == 1
        assert by_flag.err == by_file.err.replace("line 1", cli._flag(key), 1)

    @pytest.mark.parametrize(
        "key", [key for key in FLAGGED_KEYS if cli._KEYS[key].choices is not None]
    )
    def test_closed_set_flags_refuse_in_one_line(self, capsys, key):
        choices = cli._KEYS[key].choices
        assert main([cli._flag(key), "bogus", "--echo-config"]) == 2
        assert capsys.readouterr() == (
            "",
            f"configuration error: {cli._flag(key)}: bad value for '{key}': "
            f"'bogus' (must be one of {choices})\n",
        )

    def test_help_lists_the_closed_sets(self, capsys):
        assert main(["--help"]) == 0
        text, err = capsys.readouterr()
        assert err == ""
        for key, spec in cli._KEYS.items():
            if key not in cli._SCAN_KEYS and spec.choices is not None:
                assert "{" + ",".join(spec.choices) + "}" in text
        # -h and an abbreviation print the same, a bad value after them too
        for flag in ("-h", "--he"):
            assert main([flag, "--kicks", "nope"]) == 0
            assert capsys.readouterr() == (text, "")

    @pytest.mark.parametrize(
        "key", [key for key in FLAGGED_KEYS if cli._KEYS[key].parse in (float, complex)]
    )
    def test_signed_values_bind_to_their_flag(self, capsys, key):
        values = ["-1e-3", "-4e-2", "-.01", "-2.5E+1", "-inf", "-nan"]
        if cli._KEYS[key].parse is complex:
            values += ["-0.04+0.01j", "-1e-3-2e-3j", "-infj"]
        for value in values:
            results = []
            for argv in ([cli._flag(key), value], [f"{cli._flag(key)}={value}"]):
                code = main(argv + ["--echo-config"])
                results.append((code, capsys.readouterr()))
            # as the file line: the echo, or the model's one-line refusal
            try:
                expected = (0, (echo_config(parse_config(f"{key} = {value}")), ""))
            except ConfigError as exc:
                expected = (2, ("", f"configuration error: {exc}\n"))
            assert results[0] == results[1] == expected, (key, value)

    @pytest.mark.parametrize(
        "argv, read_as",
        [
            (["--epsilon", "-1e-3"], ["--epsilon=-1e-3"]),
            (["--eps", "-1e-3"], ["--epsilon=-1e-3"]),
            (["--config", "-1.cfg"], ["--config=-1.cfg"]),
            (["--epsilon=-1e-3", "-2e-3"], "not a flag: '-2e-3'"),
            (["--echo-config", "-1"], "not a flag: '-1'"),
            (["--o", "-1"], "ambiguous flag '--o'"),
            (["-h", "-1"], ["--help"]),
            (["--alpha", "--kicks", "-1"], "--alpha: expected a value"),
            (["--alpha", "-inf"], ["--alpha=-inf"]),
            (["--alpha", "-nan"], ["--alpha=-nan"]),
            (["--epsilon", "-infj"], ["--epsilon=-infj"]),
            (["--out", "-x.csv"], ["--out=-x.csv"]),
            (["--alpha", "-h"], "--alpha: expected a value"),
        ],
        ids=["flag", "abbreviated", "config", "after-value", "no-value-flag",
             "ambiguous", "short-help", "flag-not-a-value", "not-a-number",
             "negative-nan", "imaginary-infinity", "dash-path", "help-not-a-value"],
    )
    def test_signed_value_binding(self, tmp_path, capsys, monkeypatch, argv, read_as):
        # a token that starts with one '-' and is not '-h' is the value of the
        # flag before it; any other token after a flag's value is refused
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-1.cfg").write_text("kicks = 7\n")
        code = main(argv + ["--echo-config"])
        result = (code, capsys.readouterr())
        if isinstance(read_as, str):
            assert result == (2, ("", f"configuration error: {read_as}\n"))
        else:
            assert result == (main(read_as + ["--echo-config"]), capsys.readouterr())
            # the value reached its key's parser or the model
            assert result[0] == 0 or "must be finite" in result[1].err
        assert ("kicks = 7" in result[1].out) == (argv[0] == "--config")

    def test_out_may_start_with_a_dash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--kicks", "3", *SMALL, "--out", "-x.csv"]) == 0
        assert [path.name for path in tmp_path.iterdir()] == ["-x.csv"]
        assert (tmp_path / "-x.csv").read_text().startswith(CSV_HEADER + "\n")

    def test_a_flag_is_never_taken_as_a_value(self, capsys):
        assert main(["--epsilon", "--kicks", "3", "--echo-config"]) == 2
        assert capsys.readouterr() == ("", "configuration error: --epsilon: expected a value\n")

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (["--bogus"], "not a flag: '--bogus'"),
            (["--bogus=3"], "not a flag: '--bogus=3'"),
            (["--epsilon"], "--epsilon: expected a value"),
            (["--kicks", "3", "stray"], "not a flag: 'stray'"),
            (["--", "--kicks", "3"], "not a flag: '--'"),
            (["-"], "not a flag: '-'"),
            ([""], "not a flag: ''"),
            (["--c", "x.cfg"], "ambiguous flag '--c'"),
            (["--echo-config=x"], "--echo-config takes no value"),
            (["--echo=x"], "--echo-config takes no value"),
            (["--help="], "--help takes no value"),
            (["--scan-param", "alpha"], "not a flag: '--scan-param'"),
        ],
        ids=["unknown", "unknown-with-value", "missing-value", "stray", "double-dash",
             "dash", "empty", "ambiguous", "switch-with-value", "abbreviated-switch",
             "help-with-value", "scan-key"],
    )
    def test_argv_refusals_are_one_line(self, capsys, argv, refusal):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"configuration error: {refusal}\n")

    def test_flag_values_are_not_parsed_as_documents(self, capsys):
        assert main(["--alpha", "0.05\nkicks = 7", "--echo-config"]) == 2
        assert "kicks = 7" not in capsys.readouterr().out

    @pytest.mark.parametrize("key", FLAGGED_KEYS)
    def test_every_flag_overrides_file(self, tmp_path, key):
        spec = cli._KEYS[key]
        file_raw = other_raw(key, value_of(parse_config(""), key))
        flag_raw = other_raw(key, spec.parse(file_raw))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {file_raw}\n")
        assert value_of(parse_config(cfg.read_text()), key) == spec.parse(file_raw)
        config, _ = cli.config_from_args(["--config", str(cfg), cli._flag(key), flag_raw])
        assert value_of(config, key) == spec.parse(flag_raw) != spec.parse(file_raw)

    def test_flags_are_the_non_scan_keys(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(SCAN_DOCUMENT)
        scan = parse_config(SCAN_DOCUMENT)
        for key in cli._KEYS:
            assert (key in FLAGGED_KEYS) == (not key.startswith("scan_")), key
            # each flag sets its key; a scan key has none
            token = f"{cli._flag(key)}={cli._render(value_of(scan, key))}"
            code = main(["--config", str(cfg), token, "--echo-config"])
            expected = (0, (echo_config(scan), "")) if key in FLAGGED_KEYS else (
                2, ("", f"configuration error: not a flag: {token!r}\n")
            )
            assert (code, capsys.readouterr()) == expected, key
        # the help lists these flags and no other
        assert main(["--help"]) == 0
        rows = capsys.readouterr().out.split("\n\n", 1)[1].splitlines()
        listed = {word for row in rows for word in row.replace(",", "").split() if word[0] == "-"}
        assert listed == {cli._flag(key) for key in FLAGGED_KEYS} | {
            "-h", "--help", "--config", "--echo-config"
        }
        # none is a prefix of another, so a flag given in full names it alone
        assert not [(a, b) for a in listed for b in listed if a != b and b.startswith(a)]

    def test_compare_checks_closed_forms_before_evolving(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "evolve_blocks", failing_evolve_blocks)
        out = tmp_path / "run.csv"
        argv = ["--mode", "compare", "--alpha", "1e160", "--kicks", "3"]
        assert main(argv + ["--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["compare", "analytic"])
    def test_closed_forms_check_the_last_kick_before_any_row(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        # the first block's closed forms would pass; the last kick's phases keep
        # no digit, and the run exits 3 before the full-basis run and before any
        # row.  At large alpha, omega1 / sqrt2 is about alpha, so the phase
        # roundoff first exceeds its bound near k = 1.5 B, inside the second block
        calls = []

        def counted(start, stop, params):
            calls.append((start, stop))
            return analytic.amplitude_rows(start, stop, params)

        monkeypatch.setattr(cli, "amplitude_rows", counted)
        monkeypatch.setattr(cli, "evolve_blocks", failing_evolve_blocks)
        n = 2 * propagation.BLOCK_KICKS
        alpha = PHASE_ROUNDOFF_TOL / np.finfo(float).eps / (0.75 * n)
        out = tmp_path / "run.csv"
        argv = ["--mode", mode, "--alpha", str(alpha), "--kicks", str(n)]
        argv += ["--cutoff-a", "3", "--cutoff-b", "3"]
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            f"numerical contract violation: phase roundoff {n} * omega1 / sqrt2 * 2^-52"
        )
        assert list(tmp_path.iterdir()) == []
        assert calls == [(n, n + 1)]
        # a run that passes evaluates the last kick before its rows, then
        # each block once
        monkeypatch.setattr(cli, "evolve_blocks", evolve_blocks)
        calls.clear()
        assert main(["--mode", mode, "--kicks", "300", *SMALL, "--out", str(out)]) == 0
        blocks = list(propagation.kick_blocks(300))
        assert calls == [(300, 301)] + blocks

    @pytest.mark.parametrize("mode", ["analytic", "compare"])
    def test_underflowing_gauge_phase_runs(self, tmp_path, capsys, mode):
        # arg epsilon = atan2(1e-320, 1e10) underflows to 0, a gauge factor of
        # 1: the rows are those of the real epsilon 1e10
        argv = ["--mode", mode, "--T", "1e-10", "--kicks", "3"]
        argv += ["--cutoff-a", "3", "--cutoff-b", "3"]
        csvs = []
        for epsilon in ("1e10+1e-320j", "1e10"):
            out = tmp_path / f"{epsilon}.csv"
            assert main(argv + ["--epsilon", epsilon, "--out", str(out)]) == 0
            assert "Traceback" not in capsys.readouterr().err
            csvs.append(out.read_text())
        _, rows = read_rows(tmp_path / "1e10.csv")
        assert len(rows) == 4 and np.isfinite(np.array(rows, dtype=float)).all()
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize(
        "flag, value", [("--alpha", "nan"), ("--epsilon", "inf"), ("--T", "inf")]
    )
    def test_non_finite_parameter_exit_code(self, tmp_path, capsys, flag, value):
        out = tmp_path / "run.csv"
        assert main([flag, value, "--kicks", "3", "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a square in the frequencies overflows
            (["--mode", "analytic", "--alpha", "1e200"], "kick frequencies are not finite"),
            (["--mode", "analytic", "--alpha", "1e160"], "kick frequencies are not finite"),
            (["--mode", "compare", "--epsilon", "1e200"], "kick frequencies are not finite"),
            # finite closed forms whose phases keep no digit at k = 3
            (["--mode", "analytic", "--epsilon", "1e150"], "phase roundoff"),
            (["--mode", "analytic", "--alpha", "1e150"], "phase roundoff"),
            (["--mode", "analytic", "--alpha", "1e100"], "phase roundoff"),
            (["--mode", "compare", "--alpha", "1e100"], "phase roundoff"),
            # alpha^2 underflows, with or without omega: the vacuum, to
            # double precision
            (["--mode", "analytic", "--alpha", "1e-170", "--epsilon", "0"], None),
            (["--mode", "analytic", "--alpha", "0", "--epsilon", "0"], None),
            (["--mode", "analytic", "--alpha", "1e-160"], None),
            # |alpha| << |epsilon T| and |alpha| >> |epsilon T|: rows that
            # sum to 1
            (["--mode", "analytic", "--alpha", "1e-5", "--epsilon", "1"], None),
            (["--mode", "compare", "--alpha", "1e-5", "--epsilon", "1"], None),
            (["--mode", "analytic", "--alpha", "17", "--epsilon", "1e-11"], None),
        ],
    )
    def test_overflowing_closed_forms_exit_code(self, tmp_path, capsys, argv, message):
        # the closed forms at the ends of the float range exit 3 with the
        # contract they break, or 0 with the oracle's probabilities
        out = tmp_path / "run.csv"
        code = main(argv + ["--kicks", "3", "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if message is not None:
            assert code == 3 and err.startswith(f"numerical contract violation: {message}")
            assert not out.exists()
            return
        assert (code, err) == (0, "")
        _, rows = read_rows(out)
        first = 1 if argv[1] == "analytic" else 11
        probs = np.array(rows, dtype=float)[:, first : first + 4]
        params = cli.config_from_args(argv)[0].params
        assert np.max(np.abs(probs - oracle_probabilities(range(4), params, 400))) < 1e-12

    @pytest.mark.parametrize("mode", ["analytic", "compare"])
    @pytest.mark.parametrize(
        "flag, moduli",
        [
            ("--epsilon", "|epsilon T| = inf, |alpha| = 0.04"),
            ("--alpha", "|epsilon T| = 0.01, |alpha| = inf"),
        ],
        ids=["epsilon", "alpha"],
    )
    def test_overflowing_complex_modulus_exit_code(self, tmp_path, capsys, mode, flag, moduli):
        # both parts are finite and the modulus is not: abs() raised OverflowError
        out = tmp_path / "run.csv"
        argv = ["--mode", mode, flag, "1.5e308+1.5e308j", "--kicks", "3"]
        assert main(argv + ["--cutoff-a", "3", "--cutoff-b", "3", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"numerical contract violation: kick frequencies are not finite at {moduli}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--T", "1e300"),
            ("--chi-a", "1e300"),
            ("--epsilon", "1e300"),
            ("--T", "1e17"),
        ],
    )
    def test_phase_roundoff_exit_code(self, tmp_path, capsys, flag, value):
        # the step unitary is still unitary, but its phases lambda t keep no
        # significant digit
        out = tmp_path / "run.csv"
        argv = [flag, value, "--kicks", "3", "--cutoff-a", "4", "--cutoff-b", "4"]
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical contract violation: phase roundoff" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, phase",
        [
            (["--mode", "analytic", "--T", "1e17", "--alpha", "1e15", "--kicks", "3"],
             "3 * omega1 / sqrt2"),
            (["--mode", "analytic", "--T", "1e12", "--alpha", "1e10"],
             "2000 * omega1 / sqrt2"),
            (["--mode", "analytic", "--epsilon", "0", "--alpha", "1e15", "--kicks", "3"],
             "3 * omega1 / sqrt2"),
            (["--mode", "compare", "--T", "1e17", "--alpha", "1e15", "--kicks", "3"],
             "3 * omega1 / sqrt2"),
            (["--mode", "compare", "--T", "1e12", "--alpha", "1e10"],
             "2000 * omega1 / sqrt2"),
        ],
    )
    def test_closed_form_phase_roundoff_exit_code(self, tmp_path, capsys, argv, phase):
        # the closed forms stay finite and sum to 1, but their phases
        # k * omega1 / sqrt2 keep no significant digit;
        # compare refuses them before the full-basis run
        out = tmp_path / "run.csv"
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"numerical contract violation: phase roundoff {phase} * 2^-52" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_closed_form_overflow_prints_one_line(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        argv = ["--mode", "analytic", "--T", "1e100", "--alpha", "1e98", "--kicks", "3"]
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical contract violation: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--epsilon", "--alpha"])
    @pytest.mark.parametrize("cutoff", ["3", "4"])
    def test_overflowing_generator_exit_code(self, tmp_path, capsys, flag, cutoff):
        # an entry of H or G overflows to inf; eigh would not converge
        out = tmp_path / "run.csv"
        argv = [flag, "1.7e308", "--kicks", "2", "--cutoff-a", cutoff, "--cutoff-b", cutoff]
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical contract violation: matrix has a non-finite entry")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_scan_exit_code(self, tmp_path, capsys):
        # the second point, epsilon = 8.5e307, overflows the hopping entries
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "mode = scan\nscan_param = epsilon\nscan_start = 0.01\n"
            "scan_stop = 1.7e308\nscan_steps = 3\n"
        )
        argv = ["--config", str(cfg), "--kicks", "2"] + SMALL
        assert main(argv + ["--out", str(tmp_path / "run.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical contract violation: matrix has a non-finite entry")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("param", ["alpha", "epsilon"])
    def test_overflowing_scan_span_exit_code(self, tmp_path, capsys, param):
        # both endpoints are finite, their difference is not
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            f"mode = scan\nscan_param = {param}\nscan_start = -1.7e308\n"
            "scan_stop = 1.7e308\nscan_steps = 3\n"
        )
        argv = ["--config", str(cfg), "--kicks", "2", "--cutoff-a", "3", "--cutoff-b", "3"]
        assert main(argv + ["--out", str(tmp_path / "run.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: scan span -1.7e+308 to 1.7e+308 overflows\n"
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "flags, scan",
        [
            (["--alpha", "9", "--kicks", "1"], None),
            (["--kicks", "2"], "scan_param = alpha\nscan_start = 0\nscan_stop = 9\n"),
        ],
        ids=["simulate", "scan"],
    )
    def test_no_qubit_support_exit_code(self, tmp_path, capsys, flags, scan):
        # a kick of alpha = 9 displaces mode a to mean photon number 81; the
        # largest qubit amplitude left, 7e-16, is below the 1e-15 projection
        # floor
        argv = flags + ["--cutoff-a", "100", "--cutoff-b", "2"]
        files = []
        if scan is not None:
            cfg = tmp_path / "scan.cfg"
            cfg.write_text(f"mode = scan\n{scan}scan_steps = 3\n")
            argv += ["--config", str(cfg)]
            files.append(cfg)
        assert main(argv + ["--out", str(tmp_path / "run.csv")]) == 3
        assert capsys.readouterr().err == (
            "numerical contract violation: "
            "a state has no numerical support on the qubit subspace\n"
        )
        assert list(tmp_path.iterdir()) == files

    def test_norm_drift_exit_code(self, tmp_path, capsys, monkeypatch):
        off_norm_vacuum(monkeypatch)
        out = tmp_path / "run.csv"
        assert main(["--kicks", "5", "--cutoff-a", "4", "--cutoff-b", "4", "--out", str(out)]) == 3
        assert "norm" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["simulate", "compare", "scan"])
    def test_non_unitary_step_exit_code(self, tmp_path, capsys, monkeypatch, mode):
        # the period matrix is probed once it is built, so the run stops
        # there, before its first block
        scaled_steps(monkeypatch, 1.001)
        monkeypatch.setattr(propagation, "_blocks", failing_evolve_blocks)
        cfg, out = tmp_path / "run.cfg", tmp_path / "run.csv"
        cfg.write_text(SCAN_DOCUMENT if mode == "scan" else f"mode = {mode}\n")
        assert main(["--config", str(cfg), "--kicks", "5", "--out", str(out)] + SMALL) == 3
        assert capsys.readouterr().err.startswith(
            "numerical contract violation: period matrix is not unitary: max |P^+ P v - v| = "
        )
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("probe", ["real", "none"])
    @pytest.mark.parametrize("mode", ["simulate", "compare", "scan"])
    # 10^200: 6.4 x 16 D^2 bytes is more than the largest float
    @pytest.mark.parametrize(
        "cutoff", ["100000", "4000000000", "1" + "0" * 200], ids=["1e5", "4e9", "1e200"]
    )
    def test_unindexable_cutoffs_exit_2(self, tmp_path, capsys, monkeypatch, cutoff, mode, probe):
        if probe == "none":
            monkeypatch.setattr(cli, "_physical_memory", lambda: None)
        argv = ["--cutoff-a", cutoff, "--cutoff-b", cutoff, "--out", str(tmp_path / "run.csv")]
        if mode == "scan":
            cfg = tmp_path / "scan.cfg"
            cfg.write_text(SCAN_DOCUMENT)
            argv += ["--config", str(cfg)]
        else:
            argv += ["--mode", mode]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: too large for this machine: cutoffs {cutoff}")
        assert err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == ([cfg] if mode == "scan" else [])

    @pytest.mark.parametrize("mode", ["simulate", "compare", "scan"])
    def test_unparsed_config_beyond_numpy_index_range_is_refused(
        self, tmp_path, monkeypatch, mode
    ):
        # a RunConfig built without the parser meets the same guard, before
        # the output is opened, even where the memory cannot be read
        monkeypatch.setattr(cli, "_physical_memory", lambda: None)
        monkeypatch.setattr(cli, "_output", lambda path: pytest.fail(f"opened {path}"))
        scan = dict(scan_param="alpha", scan_start=0.01, scan_stop=0.05, scan_steps=3)
        config = RunConfig(
            params=SystemParams(dims=cli.ModeDims(2, 379625063)),
            mode=mode,
            out=str(tmp_path / "run.csv"),
            **(scan if mode == "scan" else {}),
        )
        with pytest.raises(ConfigError, match="more than numpy's largest array"):
            run(config)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["simulate", "compare", "scan"])
    @pytest.mark.parametrize(
        "message",
        ["Unable to allocate 1.15 PiB for an array with shape (9000000, 9000000) "
         "and data type complex128", ""],
        ids=["numpy message", "no message"],
    )
    def test_memory_error_exit_2(self, tmp_path, capsys, monkeypatch, mode, message):
        def failing_build(params):
            raise MemoryError(message)

        monkeypatch.setattr(propagation, "build_coupler_hamiltonian", failing_build)
        out = tmp_path / "run.csv"
        argv = ["--kicks", "3"] + SMALL + ["--out", str(out)]
        if mode == "scan":
            cfg = tmp_path / "scan.cfg"
            cfg.write_text(SCAN_DOCUMENT)
            argv += ["--config", str(cfg)]
        else:
            argv += ["--mode", mode]
        assert main(argv) == 2
        err = capsys.readouterr().err
        detail = f": {message}" if message else ""
        assert err == f"configuration error: too large for this machine{detail}\n"
        assert sorted(tmp_path.iterdir()) == ([cfg] if mode == "scan" else [])

    @pytest.mark.parametrize("mode", ["simulate", "compare", "scan"])
    def test_run_beyond_physical_memory_is_refused_first(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        # a machine of 10 kB: at cutoffs 4/4 the estimate is 6.4 x 16 x 16^2 B
        monkeypatch.setattr(cli, "_physical_memory", lambda: 10_000)
        calls = []
        monkeypatch.setattr(cli, "evolve_blocks", lambda *args, **kwargs: calls.append(args))
        argv = ["--kicks", "3"] + SMALL + ["--out", str(tmp_path / "run.csv")]
        if mode == "scan":
            cfg = tmp_path / "scan.cfg"
            cfg.write_text(SCAN_DOCUMENT)
            argv += ["--config", str(cfg)]
        else:
            argv += ["--mode", mode]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "configuration error: too large for this machine: cutoffs 4 x 4 (D = 16) "
            "need about 2.62e-05 GB, it has 1e-05 GB\n"
        )
        assert calls == []
        assert sorted(tmp_path.iterdir()) == ([cfg] if mode == "scan" else [])

    def test_analytic_and_echo_are_never_refused(self, tmp_path, capsys, monkeypatch):
        # the closed forms live on the four qubit states, whatever the cutoffs
        monkeypatch.setattr(cli, "_physical_memory", lambda: 1)
        outs = [tmp_path / "unindexable.csv", tmp_path / "reference.csv"]
        for cutoff, out in zip(["100000", "15"], outs):
            argv = ["--mode", "analytic", "--kicks", "50", "--out", str(out)]
            assert main(argv + ["--cutoff-a", cutoff, "--cutoff-b", cutoff]) == 0
        assert len(outs[0].read_text().splitlines()) == 52
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert main(["--cutoff-a", "100", "--cutoff-b", "100", "--echo-config"]) == 0
        assert "cutoff_a = 100\n" in capsys.readouterr().out

    @pytest.mark.parametrize("sysconf", [-1, ValueError, OSError])
    def test_unknown_physical_memory_skips_the_check(self, tmp_path, monkeypatch, sysconf):
        def unknown(name):
            if isinstance(sysconf, int):
                return sysconf
            raise sysconf(name)

        monkeypatch.setattr(cli.os, "sysconf", unknown)
        assert cli._physical_memory() is None
        out = tmp_path / "run.csv"
        assert main(["--kicks", "3"] + SMALL + ["--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 5

    def test_reference_cutoffs_fit(self):
        # this machine's memory, when it can be read, holds the reference run
        memory = cli._physical_memory()
        assert memory is None or memory > cli.PEAK_MATRICES * 16 * 225**2

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 0.01\nkicks = 5\ncutoff_a = 4\ncutoff_b = 4\n")
        assert main(["--config", str(cfg), "--alpha", "0.09", "--echo-config"]) == 0
        out = capsys.readouterr().out
        assert "alpha = 0.09" in out
        assert "kicks = 5" in out

    def test_echo_round_trip(self, capsys):
        assert main(["--alpha", "0.05", "--echo-config"]) == 0
        config = parse_config(capsys.readouterr().out)
        assert config.params.alpha == 0.05


class TestArgvFuzz:
    """Seeded random argv, each ending in --echo-config so that nothing runs:
    full, abbreviated, ambiguous and unknown flags, missing values, stray
    tokens, '-'-prefixed values and '=' forms."""

    CASES = 300
    VALUE_FLAGS = ["--config"] + [cli._flag(key) for key in FLAGGED_KEYS]
    VALUES = ["-1e-3", "-inf", "-x.csv", "-1", "-", "3", "0", "bogus", "", "0.05\nkicks = 7"]
    CONFIGS = ["c.cfg", "scan.cfg", "-1.cfg", ""]
    DEFAULT = parse_config("")

    def abbreviation(self, rng, flag):
        """flag, or a prefix of it that names it alone."""
        names_it = [
            flag[:n] for n in range(3, len(flag) + 1)
            if [f for f in cli._FLAGS if f.startswith(flag[:n])] == [flag]
        ]
        return rng.choice(names_it)

    def value(self, rng, flag):
        if flag == "--config":
            return rng.choice(self.CONFIGS)
        key = flag[2:].replace("-", "_")
        default = value_of(self.DEFAULT, key)
        good = [cli._render(default), other_raw(key, default)]
        return rng.choice(good * 3 + self.VALUES)

    def item(self, rng):
        """One piece of argv as written with '--flag value', and with
        '--flag=value'."""
        kind = rng.choice(["pair"] * 5 + ["missing", "unknown", "ambiguous", "stray", "switch"])
        flag = rng.choice(self.VALUE_FLAGS)
        if kind == "pair":
            value = self.value(rng, flag)
            flag = self.abbreviation(rng, flag)
            return [flag, value], [f"{flag}={value}"]
        token = {
            "missing": flag,
            "unknown": rng.choice(["--bogus", "--alphaa", "--scan-param", "--", "--=3"]),
            "ambiguous": rng.choice(["--c", "--e", "--o", "--cu", "--ch=1", "--e=x"]),
            "stray": rng.choice(["stray", "-x", "-1e-3", "", "a=b", "-h=1"]),
            "switch": rng.choice(["--echo-config", "--ech", "--echo-config=x", "--echo="]),
        }[kind]
        return [token], [token]

    def outcome(self, capsys, argv):
        before = sorted(os.listdir())
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{argv!r} raised {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 2), argv
        if code == 2:
            assert out == "" and re.fullmatch("configuration error: [^\n]*\n", err), argv
        else:
            assert err == "" and parse_config(out) == cli.config_from_args(argv)[0], argv
        assert sorted(os.listdir()) == before, argv
        return code, out, err

    def test_seeded_argv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text("kicks = 7\nalpha = -0.05\n")
        (tmp_path / "scan.cfg").write_text(SCAN_DOCUMENT)
        rng = random.Random(0)
        codes = []
        for _ in range(self.CASES):
            items = [self.item(rng) for _ in range(rng.randint(0, 4))]
            spaced = [token for item in items for token in item[0]] + ["--echo-config"]
            joined = [token for item in items for token in item[1]] + ["--echo-config"]
            result = self.outcome(capsys, spaced)
            assert self.outcome(capsys, joined) == result, (spaced, joined)
            codes.append(result[0])
        # both outcomes are drawn often
        assert min(codes.count(0), codes.count(2)) > self.CASES // 10


class TestHandBuiltFuzz:
    """Hypothesis-drawn RunConfigs at cutoffs near 3/3 with near-valid and
    wrong-typed params, parameters, cutoffs, kicks, scan fields and out
    paths.  Each is refused with a ConfigError when it or its SystemParams
    or ModeDims is built, or its echo re-parses to it, number for number,
    and it runs to exit 0 or to an error main maps to a documented exit code."""

    NAN = float("nan")
    COUNTS = [-1, 0, 1, 2.5, 3.0, NAN, True, np.int64(2), np.float64(2), "3", None]
    # float32(0.25) and complex64(0.25) are exact, float32(0.01) is not
    NARROW = [np.float32(0.25), np.float32(0.01), np.complex64(0.25), np.complex64(0.01)]
    ENDPOINTS = [0, 1, -1.0, NAN, float("inf"), "0.5", np.float64(0.25), True, None, *NARROW]
    OUTS = [
        "-x.csv", "", "a\0b", " x.csv", "x.csv ", "a#b.csv", "a\nb", "no/run.csv", ".",
        Path("run.csv"), 5, None,
    ]

    @staticmethod
    def near(valid, wrong):
        """A field drawn from valid seven times in eight, else from wrong."""
        return st.sampled_from([valid] * 7 + [st.sampled_from(wrong)]).flatmap(lambda s: s)

    # the fields of a SystemParams and its ModeDims, which the test builds
    # inside its try: a value they refuse is a ConfigError like any other
    PARAMS = st.fixed_dictionaries({
        "alpha": near(st.just(0.04), [*NARROW, float("inf")]),
        "epsilon": near(st.just(0.01), NARROW),
        "T": near(st.just(1.0), [np.float32(1.5), np.float32(1.1), 0, 1j]),
        "chi_a": near(st.just(1.0), [1j]),
        "dims": st.tuples(near(st.just(3), [1, 3.0]), st.just(3)),
    })
    BASE = st.fixed_dictionaries({
        "params": near(PARAMS, [None, "alpha = 0.04"]),
        "n_kicks": near(st.integers(1, 4), COUNTS),
        "mode": near(st.sampled_from([*cli.MODES, "scan", "scan"]), ["bogus", None]),
        "ordering": near(st.sampled_from([*Ordering][:2]), [Ordering.MID_PULSE, "bogus"]),
        "out": near(st.just("run.csv"), OUTS),
    })
    SCAN = st.fixed_dictionaries({
        "scan_param": near(st.sampled_from(cli.SCAN_PARAMS), ["chi_a", None]),
        "scan_start": near(st.floats(0, 1), ENDPOINTS),
        "scan_stop": near(st.floats(1, 2), ENDPOINTS),
        "scan_steps": near(st.integers(2, 3), COUNTS),
    })

    # a failure report imports libcst, whose import warns; under "error" that
    # warning would end the whole session in place of this test's report
    @pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(base=BASE, scan=SCAN, matched=st.sampled_from([True, True, True, False]))
    def test_built_config_is_refused_or_runs(self, base, scan, matched):
        # scan fields go with mode = scan, unless the draw mismatches them
        fields = base | (scan if (base["mode"] == "scan") == matched else {})
        try:
            if isinstance(fields["params"], dict):
                dims = ModeDims(*fields["params"]["dims"])
                fields["params"] = SystemParams(**(fields["params"] | {"dims": dims}))
            config = RunConfig(**fields)
        except ConfigError:
            return
        echoed = parse_config(echo_config(config))
        assert echoed == config
        # numpy calls a narrow float equal to its parse in the narrow type
        for spec in cli._KEYS.values():
            value = attrgetter(spec.field)(config)
            if isinstance(value, Number):
                assert complex(value) == complex(attrgetter(spec.field)(echoed)), spec.field
        # a fixture would outlive the example: each run gets its own directory
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            try:
                assert run(config) == 0
            except (ConfigError, ContractViolationError, OSError, MemoryError):
                pass


SRC = Path(__file__).resolve().parent.parent / "src"


class TestModuleEntryPoint:
    """python -m kicked_coupler.cli in a fresh interpreter, the path the
    bench times for setup_s, with every warning an error."""

    def run_python(self, tmp_path, *args):
        return subprocess.run(
            [sys.executable, "-W", "error", *args],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
        )

    def run_module(self, tmp_path, *argv):
        return self.run_python(tmp_path, "-m", "kicked_coupler.cli", *argv)

    def test_run_writes_the_csv(self, tmp_path):
        done = self.run_module(
            tmp_path, "--kicks", "3", "--cutoff-a", "3", "--cutoff-b", "3", "--out", "run.csv"
        )
        # level 2 is the last one at cutoffs 3/3, and it holds more than EDGE_TOL
        edge_note = "note: the last Fock level of mode a holds population 6.39e-05 at k = 3"
        assert (done.returncode, done.stderr) == (0, f"{edge_note} (above 1e-06)\n")
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        # the vacuum at k = 0, then one row per kick
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]

    @pytest.mark.parametrize(
        "argv, code, stderr",
        [
            (["--mode", "simulate"], 0, ""),
            (["--mode", "analytic"], 0, ""),
            (["--mode", "compare"], 0, ""),
            (["--config", "scan.cfg"], 0, ""),
            (["--alpha", "1e200"], 3, "numerical contract violation: phase roundoff "),
            # an np.hypot overflow outside np.errstate would print a RuntimeWarning traceback
            (["--mode", "analytic", "--epsilon", "1.5e308+1.5e308j"], 3,
             "numerical contract violation: kick frequencies are not finite at "
             "|epsilon T| = inf, |alpha| = 0.04\n"),
        ],
        ids=["simulate", "analytic", "compare", "scan", "exit-3", "exit-3-modulus"],
    )
    def test_dev_mode_runs_are_clean(self, tmp_path, argv, code, stderr):
        # development mode reports a descriptor or scratch file left open by
        # _output as a ResourceWarning on stderr, which the in-process suite
        # does not see; at these sizes no run prints an edge note
        scan = SCAN_DOCUMENT.replace("scan_steps = 3", "scan_steps = 2")
        (tmp_path / "scan.cfg").write_text(scan)
        argv = [*argv, "--kicks", "20", "--cutoff-a", "5", "--cutoff-b", "5", "--out", "run.csv"]
        done = self.run_python(tmp_path, "-X", "dev", "-m", "kicked_coupler.cli", *argv)
        assert done.returncode == code, done.stderr
        assert done.stderr.startswith(stderr) and done.stderr.count("\n") == (code != 0)

    def test_config_error_prints_one_line(self, tmp_path):
        done = self.run_module(tmp_path, "--kicks", "0")
        assert done.returncode == 2
        assert done.stderr == "configuration error: kicks must be positive, got 0\n"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_prints_one_line(self, tmp_path):
        done = self.run_module(tmp_path, "--bogus")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "configuration error: not a flag: '--bogus'\n"

    def test_help_goes_to_stdout(self, tmp_path):
        done = self.run_module(tmp_path, "-h")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: kicked-coupler ")
        assert "--echo-config" in done.stdout

    def test_import_leaves_argparse_out(self, tmp_path):
        # after numpy, the CLI's import may add only the standard library
        # (no argparse) and the package itself: no scipy, no mpmath
        code = (
            "import sys, numpy; before = set(sys.modules); import kicked_coupler.cli; "
            "added = set(sys.modules) - before; print('argparse' in sys.modules); "
            "print(sorted(name for name in added if name.split('.')[0] not in "
            "{'kicked_coupler', *sys.stdlib_module_names}))"
        )
        done = self.run_python(tmp_path, "-c", code)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n[]\n", "")


SMALL = ["--cutoff-a", "4", "--cutoff-b", "4"]


def csv_bytes(tmp_path, argv, name="run.csv"):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    data = out.read_bytes()
    out.unlink()
    return data


EDGE_NOTE = "note: the last Fock level of mode a holds population 0.0829 at k = 110"


class TestEdgeNote:
    """A run that succeeds with more than EDGE_TOL at level dim - 1 of a
    mode says so in one stderr line; its exit code and CSV stay as they are."""

    def test_strong_kick_names_the_value_its_k_and_mode(self, tmp_path, capsys):
        assert main(["--alpha", "1", "--kicks", "2000", "--out", str(tmp_path / "o.csv")]) == 0
        assert capsys.readouterr().err.splitlines() == [f"{EDGE_NOTE} (above 1e-06)"]

    def test_reference_point_prints_none(self, tmp_path, capsys):
        # simulate, 2000 kicks, at the reference point: 4.6e-30 at the edge
        assert main(["--out", str(tmp_path / "o.csv")]) == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("mode, lines", [("compare", 1), ("analytic", 0)])
    def test_every_full_basis_mode_and_no_other(self, tmp_path, capsys, mode, lines):
        argv = ["--mode", mode, "--alpha", "1", "--kicks", "300", "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == lines and all(line.startswith("note: the last Fock") for line in err)

    def test_the_note_leaves_the_csv_unchanged(self, tmp_path, capsys, monkeypatch):
        argv = ["--alpha", "1", "--kicks", "2000"]
        noted = csv_bytes(tmp_path, argv)
        assert capsys.readouterr().err.startswith(EDGE_NOTE)
        monkeypatch.setattr(cli, "EDGE_TOL", 2.0)
        assert csv_bytes(tmp_path, argv) == noted
        assert capsys.readouterr().err == ""

    def test_a_scan_prints_one_line_naming_its_point(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "mode = scan\nkicks = 300\nscan_param = alpha\nscan_start = 0.5\n"
            "scan_stop = 1\nscan_steps = 3\n"
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        assert capsys.readouterr().err.splitlines() == [f"{EDGE_NOTE}, alpha = 1 (above 1e-06)"]

    def test_a_failed_run_prints_its_failure_alone(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(propagation, "NORM_RTOL", 0.0)
        assert main(["--alpha", "1", "--kicks", "300", "--out", str(tmp_path / "o.csv")]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical contract violation: squared norm drifted")


class TestRowFormatting:
    def test_percent_format_equals_format(self, rng):
        # _csv_rows and _render format with _FLOAT, '%.12g'; the CSVs of
        # earlier versions used format(x, '.12g'), so both must give the same
        # text for every float
        bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64)
        values = bits.view(np.float64).tolist() + [
            0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
            2.2250738585072009e-308, 1.7976931348623157e308, 1e-12, 0.1, 1 / 3,
        ]
        assert [format(x, ".12g") for x in values] == [fmt(x) for x in values]

    def test_rows_equal_the_per_cell_format(self, rng):
        # the ten CSV_HEADER columns after k, then compare's (K, 4) and (K,)
        # extra columns
        table = rng.normal(size=(9, 15))
        table[2, 3], table[4, 5], table[6, 12] = -0.0, np.nan, -0.0
        obs = QubitObservables(table[:, :4], table[:, 4], table[:, 5], table[:, 6:10])
        for width, extra in [(10, ()), (15, (table[:, 10:14], table[:, 14]))]:
            expected = "".join(
                ",".join([str(k)] + [fmt(v) for v in row]) + "\n"
                for k, row in enumerate(table[:, :width].tolist(), 5)
            )
            assert cli._csv_rows(obs, 5, *extra) == expected


class TestStreamedRuns:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "simulate"],
            ["--mode", "simulate", "--ordering", "kick_then_free"],
            ["--mode", "analytic"],
            ["--mode", "compare"],
        ],
        ids=["simulate", "simulate-kick-then-free", "analytic", "compare"],
    )
    @pytest.mark.parametrize("kicks", [1, 6, 7, 8, 20, 300])
    def test_block_size_leaves_the_csv_unchanged(self, tmp_path, monkeypatch, argv, kicks):
        argv = argv + SMALL + ["--kicks", str(kicks)]
        default = csv_bytes(tmp_path, argv)
        monkeypatch.setattr(propagation, "BLOCK_KICKS", 7)
        assert csv_bytes(tmp_path, argv) == default
        assert default.count(b"\n") == kicks + 2

    @pytest.mark.parametrize("kicks", [6, 7, 8, 20, 300])
    @pytest.mark.parametrize(
        "scan",
        [
            "scan_param = alpha\nscan_start = 0.02\nscan_stop = 0.3\nscan_steps = 3\n",
            # epsilon = 0 at the middle point: the concurrence is 0 at every
            # kick, so each block edge is a tie and k_at_max must stay 0
            "scan_param = epsilon\nscan_start = -0.05\nscan_stop = 0.05\nscan_steps = 3\n",
        ],
        ids=["alpha", "epsilon-tie"],
    )
    def test_block_size_leaves_the_scan_unchanged(self, tmp_path, monkeypatch, kicks, scan):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(f"mode = scan\nalpha = 0.3\n{scan}")
        argv = ["--config", str(cfg), "--kicks", str(kicks)] + SMALL
        default = csv_bytes(tmp_path, argv)
        monkeypatch.setattr(propagation, "BLOCK_KICKS", 7)
        assert csv_bytes(tmp_path, argv) == default
        rows = [line.split(",") for line in default.decode().splitlines()[1:]]
        if "epsilon" in scan:
            assert rows[1][1:4] == ["0", "0", "0"]

    def test_scan_rows_match_whole_trajectories(self, tmp_path, monkeypatch):
        # the running maxima over blocks of 7 equal argmax and max over the
        # whole trajectory of each point
        monkeypatch.setattr(propagation, "BLOCK_KICKS", 7)
        config = parse_config(
            f"mode = scan\nkicks = 60\ncutoff_a = 4\ncutoff_b = 4\nout = {tmp_path / 'o.csv'}\n"
            "alpha = 0.3\nepsilon = 0.2\n"
            "scan_param = T\nscan_start = 0.5\nscan_stop = 1.5\nscan_steps = 4\n"
        )
        assert run(config) == 0
        _, rows = read_rows(tmp_path / "o.csv")
        for value, row in zip(np.linspace(0.5, 1.5, 4), rows):
            params = replace(config.params, T=float(value))
            obs = annotate_trajectory(evolve(params, 60), params.dims)
            k = int(np.argmax(obs.concurrence))
            assert row[2:] == [fmt(obs.concurrence[k]), str(k), fmt(obs.leakage.max())]

    @pytest.mark.parametrize("mode", ["simulate", "analytic", "compare"])
    def test_peak_memory_does_not_grow_with_kicks(self, tmp_path, mode):
        # unstreamed, 18 000 more kicks at D = 64 hold 18 MB more states, and
        # 2.6 MB more closed-form amplitudes and probabilities
        peaks = []
        for kicks in (2000, 20000):
            out = tmp_path / f"{kicks}.csv"
            tracemalloc.start()
            try:
                assert main(["--mode", mode, "--kicks", str(kicks), "--cutoff-a", "8",
                             "--cutoff-b", "8", "--out", str(out)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1e6, peaks

    @pytest.mark.parametrize(
        "param, start, stop, steps",
        [
            ("alpha", 0.02, 0.06, 24),
            ("epsilon", -0.05, 0.05, 7),
            ("T", 0.5, 1.5, 11),
            # the step 1e-323 / 4 underflows to 0, where np.linspace takes
            # k / div * span: 5e-324 at k = 2, where k * step gives 0
            ("alpha", 0.0, 1e-323, 5),
        ],
        ids=["alpha", "epsilon", "T", "subnormal-step"],
    )
    def test_scan_values_equal_linspace(self, tmp_path, monkeypatch, param, start, stop, steps):
        values = []

        def recording_evolve_blocks(params, n_kicks, **kwargs):
            values.append(getattr(params, param))
            return evolve_blocks(params, n_kicks, **kwargs)

        monkeypatch.setattr(cli, "evolve_blocks", recording_evolve_blocks)
        config = parse_config(
            f"mode = scan\nkicks = 1\ncutoff_a = 2\ncutoff_b = 2\nout = {tmp_path / 'o.csv'}\n"
            f"scan_param = {param}\nscan_start = {start!r}\nscan_stop = {stop!r}\n"
            f"scan_steps = {steps}\n"
        )
        assert run(config) == 0
        expected = np.linspace(start, stop, steps)
        assert np.array(values).tobytes() == expected.tobytes()
        _, rows = read_rows(tmp_path / "o.csv")
        assert [row[1] for row in rows] == [fmt(value) for value in expected]
        if stop == 1e-323:
            assert values[2] == 5e-324

    def test_scan_peak_does_not_grow_with_steps(self, tmp_path, monkeypatch):
        # each point's own run is bounded by the four-matrix test below; with
        # it stubbed out as one fixed one-row block, the peak grows with
        # scan_steps only if the values or the rows are held: 28 000 more
        # values of np.linspace take 224 kB
        obs = QubitObservables(
            np.full((1, 4), 0.25), np.array([0.25]), np.array([0.5]), np.full((1, 4), 0.25)
        )
        monkeypatch.setattr(cli, "_observed_blocks", lambda *args: iter([(1, obs)]))
        peaks = []
        for steps in (2000, 30000):
            config = parse_config(
                f"mode = scan\nkicks = 1\nout = {tmp_path / 'o.csv'}\nscan_param = alpha\n"
                f"scan_start = 0.01\nscan_stop = 0.05\nscan_steps = {steps}\n"
            )
            peaks.append(traced_peak(lambda: run(config)))
        assert abs(peaks[1] - peaks[0]) < 5e4, peaks

    @pytest.mark.parametrize(
        "document, rows",
        [
            ("mode = simulate\n", 2 * propagation.BLOCK_KICKS + 2),
            ("mode = compare\n", 2 * propagation.BLOCK_KICKS + 2),
            (SCAN_DOCUMENT.replace("scan_steps = 3", "scan_steps = 2"), 2),
            (
                "mode = scan\nscan_param = epsilon\nscan_start = 0.01\n"
                "scan_stop = 0.05\nscan_steps = 2\n", 2,
            ),
            (
                "mode = scan\nscan_param = T\nscan_start = 0.5\nscan_stop = 1.5\n"
                "scan_steps = 2\n", 2,
            ),
        ],
        ids=["simulate", "compare", "scan", "scan-epsilon", "scan-T"],
    )
    def test_peak_memory_is_four_matrices(self, tmp_path, document, rows):
        # at the reference cutoffs the peak is the build of a step unitary
        # while the other one is alive (an alpha scan rebuilds the kick, an
        # epsilon or T scan the free step, next to the cached other); a run
        # holds its unitaries and one block, which must stay below that
        # (2 B + 1 kicks: two full blocks and a short third, so that every
        # run, each scan point's included, fills a block of B rows)
        cfg, out = tmp_path / "run.cfg", tmp_path / "run.csv"
        cfg.write_text(document)
        argv = ["--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--kicks", "1"]) == 0  # first-call imports and caches
        kicks = 2 * propagation.BLOCK_KICKS + 1
        peak = traced_peak(lambda: main(argv + ["--kicks", str(kicks)]))
        assert len(out.read_text().splitlines()) == rows + 1
        assert peak <= 4 * MATRIX_BYTES + 128 * 1024, peak / MATRIX_BYTES

    @pytest.mark.parametrize(
        "ordering, cache",
        [*((ordering, None) for ordering in Ordering), (Ordering.KICK_THEN_FREE, {})],
        ids=[*(ordering.value for ordering in Ordering), "shared-cache"],
    )
    def test_observed_blocks_hold_one_block(self, ordering, cache):
        # the first next() builds the step unitaries before tracing starts;
        # the rest of the run then holds one block of states at a time
        params = SystemParams()
        b = propagation.BLOCK_KICKS
        observed = cli._observed_blocks(params, 3 * b, ordering, [(-np.inf, 0, "", "")], cache)
        next(observed)
        block_bytes = b * params.dims.joint * 16

        def drain():
            for _ in observed:
                pass

        peak = traced_peak(drain)
        assert peak < 1.5 * block_bytes, peak / block_bytes

    @pytest.mark.parametrize("mode", ["simulate", "analytic", "compare", "scan"])
    def test_default_blocks_equal_one_block(self, tmp_path, monkeypatch, mode):
        # the CSV streamed in blocks of BLOCK_KICKS equals the one computed
        # as a single block, as an unstreamed run does, at the block edges
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.3\n" + SCAN_DOCUMENT if mode == "scan" else f"mode = {mode}\n")
        b = propagation.BLOCK_KICKS
        for kicks in (1, b - 1, b, b + 1, 3 * b + 5, 2567):
            argv = ["--config", str(cfg), "--kicks", str(kicks)] + SMALL
            streamed = csv_bytes(tmp_path, argv)
            monkeypatch.setattr(propagation, "BLOCK_KICKS", kicks + 1)
            assert csv_bytes(tmp_path, argv) == streamed, kicks
            monkeypatch.setattr(propagation, "BLOCK_KICKS", b)


def deny_writes_without_permission(monkeypatch):
    """As root, make os.open refuse what the kernel refuses to a file's
    owner without root's privileges: writing a file, or creating a file in
    a directory, whose mode has no owner write bit.  Other users need no
    emulation."""
    if os.geteuid() != 0:
        return
    real_open = os.open

    def checked_open(path, flags, mode=0o777, *, dir_fd=None):
        if flags & (os.O_WRONLY | os.O_RDWR):
            # an existing file, or the directory of an O_TMPFILE open or of
            # a new file; if neither exists, the kernel's ENOENT names path
            target = path if os.path.exists(path) else os.path.dirname(path) or "."
            if os.path.exists(target) and not os.stat(target).st_mode & stat.S_IWUSR:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_open(path, flags, mode, dir_fd=dir_fd)

    monkeypatch.setattr(os, "open", checked_open)


def failing_evolve_blocks(*args, **kwargs):
    pytest.fail("the full-basis run started before the checks that precede it")


def record_spool_dirs(monkeypatch):
    """The dir argument of each scratch file the CLI opens, in order."""
    dirs = []
    original = tempfile.TemporaryFile

    def recording(*args, **kwargs):
        dirs.append(kwargs.get("dir"))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli.tempfile, "TemporaryFile", recording)
    return dirs


class TestOutputFile:
    FAILING_RUNS = {
        "norm-drift": (["--kicks", "30"] + SMALL, off_norm_vacuum),
        "closed-form": (["--mode", "compare", "--alpha", "1e160", "--kicks", "30"] + SMALL,
                        None),
    }

    @pytest.mark.parametrize("failure", sorted(FAILING_RUNS))
    def test_exit_3_leaves_no_file(self, tmp_path, monkeypatch, failure):
        argv, patch = self.FAILING_RUNS[failure]
        if patch:
            patch(monkeypatch)
        # several blocks are written before the norm contract fails
        monkeypatch.setattr(propagation, "BLOCK_KICKS", 7)
        assert main(argv + ["--out", str(tmp_path / "run.csv")]) == 3
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failure", sorted(FAILING_RUNS))
    def test_failed_run_keeps_the_existing_file(self, tmp_path, monkeypatch, failure):
        argv, patch = self.FAILING_RUNS[failure]
        if patch:
            patch(monkeypatch)
        monkeypatch.setattr(propagation, "BLOCK_KICKS", 7)
        out = tmp_path / "run.csv"
        out.write_bytes(b"earlier result\n")
        assert main(argv + ["--out", str(out)]) == 3
        assert out.read_bytes() == b"earlier result\n"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize(
        "case", ["missing directory", "closed directory", "write-protected file"]
    )
    def test_unwritable_output_fails_before_the_run(self, tmp_path, monkeypatch, capsys, case):
        directory = tmp_path / "d"
        out = directory / "run.csv"
        if case != "missing directory":
            directory.mkdir()
        if case == "write-protected file":
            out.write_bytes(b"earlier result\n")
            out.chmod(0o444)
        if case == "closed directory":
            directory.chmod(0o555)
        before = sorted(tmp_path.rglob("*"))
        deny_writes_without_permission(monkeypatch)
        monkeypatch.setattr(cli, "evolve_blocks", failing_evolve_blocks)
        try:
            assert main(["--kicks", "10000", "--out", str(out)]) == 1
        finally:
            if directory.exists():
                directory.chmod(0o755)
        code = errno.ENOENT if case == "missing directory" else errno.EACCES
        # the message names the requested path, not a temporary one
        assert capsys.readouterr().err == (
            f"i/o error: [Errno {code}] {os.strerror(code)}: {str(out)!r}\n"
        )
        assert sorted(tmp_path.rglob("*")) == before
        if case == "write-protected file":
            assert out.read_bytes() == b"earlier result\n"
            assert stat.S_IMODE(out.stat().st_mode) == 0o444

    def test_writable_file_in_a_closed_directory(self, tmp_path, monkeypatch):
        # the file is rewritten in place, as open(out, "w") would; a failed
        # run leaves it as it was
        expected = csv_bytes(tmp_path, ["--kicks", "9"] + SMALL, name="fresh.csv")
        closed = tmp_path / "closed"
        closed.mkdir()
        out = closed / "run.csv"
        out.write_bytes(b"earlier result\n")
        closed.chmod(0o555)
        try:
            deny_writes_without_permission(monkeypatch)
            with monkeypatch.context() as m:
                off_norm_vacuum(m)
                assert main(["--kicks", "9"] + SMALL + ["--out", str(out)]) == 3
            assert out.read_bytes() == b"earlier result\n"
            assert main(["--kicks", "9"] + SMALL + ["--out", str(out)]) == 0
            assert out.read_bytes() == expected
            assert list(closed.iterdir()) == [out]
        finally:
            closed.chmod(0o755)

    def test_success_rewrites_the_file_in_place(self, tmp_path):
        # the existing file keeps its inode, so its hard links see the CSV,
        # and it is cut to the CSV's length
        out = tmp_path / "run.csv"
        out.write_bytes(b"a longer earlier result\n" * 1000)
        link = tmp_path / "link.csv"
        link.hardlink_to(out)
        inode = out.stat().st_ino
        expected = csv_bytes(tmp_path, ["--kicks", "9"] + SMALL, name="fresh.csv")
        assert main(["--kicks", "9"] + SMALL + ["--out", str(out)]) == 0
        assert out.read_bytes() == link.read_bytes() == expected
        assert out.stat().st_ino == inode
        assert sorted(tmp_path.iterdir()) == [link, out]

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "data" / "run.csv"
        target.parent.mkdir()
        target.write_bytes(b"earlier result\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        expected = csv_bytes(tmp_path, ["--kicks", "9"] + SMALL, name="fresh.csv")
        assert main(["--kicks", "9"] + SMALL + ["--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == expected
        assert sorted(tmp_path.rglob("*")) == [target.parent, target, link]

    def test_dangling_symlink_creates_its_target(self, tmp_path):
        target = tmp_path / "run.csv"
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["--kicks", "3"] + SMALL + ["--out", str(link)]) == 0
        assert link.is_symlink() and target.read_bytes().startswith(CSV_HEADER.encode())

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_follows_the_umask(self, tmp_path, umask):
        out = tmp_path / "run.csv"
        previous = os.umask(umask)
        try:
            assert main(["--kicks", "3"] + SMALL + ["--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    def test_existing_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "run.csv"
        out.write_bytes(b"earlier result\n")
        out.chmod(0o640)
        assert main(["--kicks", "3"] + SMALL + ["--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_bytes().startswith(CSV_HEADER.encode())

    def test_fifo_is_written_directly(self, tmp_path, monkeypatch):
        # a non-regular target is opened and written, never replaced
        expected = csv_bytes(tmp_path, ["--kicks", "9"] + SMALL, name="fresh.csv")
        spool_dirs = record_spool_dirs(monkeypatch)
        fifo = tmp_path / "run.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        try:
            assert main(["--kicks", "9"] + SMALL + ["--out", str(fifo)]) == 0
        finally:
            reader.join(timeout=30)
        assert received == [expected]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert list(tmp_path.iterdir()) == [fifo]
        # the rows are spooled in the system's temporary directory
        assert spool_dirs == [None]

    def test_device_rows_are_spooled_in_the_temporary_directory(self, monkeypatch):
        spool_dirs = record_spool_dirs(monkeypatch)
        assert main(["--kicks", "3"] + SMALL + ["--out", os.devnull]) == 0
        assert spool_dirs == [None]

    @pytest.mark.parametrize("existing", [False, True])
    def test_file_rows_are_spooled_beside_it(self, tmp_path, monkeypatch, existing):
        out = tmp_path / "run.csv"
        if existing:
            out.write_bytes(b"earlier result\n")
        spool_dirs = record_spool_dirs(monkeypatch)
        assert main(["--kicks", "3"] + SMALL + ["--out", str(out)]) == 0
        assert spool_dirs == [str(tmp_path)]

    def test_every_mode_has_one_runner(self):
        assert cli.MODES == tuple(cli._RUNNERS) == cli._KEYS["mode"].choices
