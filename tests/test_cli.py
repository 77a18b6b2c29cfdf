import errno
import os
import stat
import tempfile
import threading
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from operator import attrgetter

import numpy as np
import pytest

from kicked_coupler import (
    ConfigError,
    Ordering,
    annotate_trajectory,
    evolve,
    evolve_blocks,
)
from kicked_coupler import analytic, cli, numerics, propagation
from kicked_coupler.cli import (
    CSV_HEADER,
    RunConfig,
    _fmt,
    echo_config,
    main,
    parse_config,
    run,
)
from kicked_coupler.propagation import UNITARY_INPUTS
from conftest import MATRIX_BYTES, traced_peak


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


FLAGGED_KEYS = [key for key, spec in cli._KEYS.items() if spec.help is not None]
SCAN_DOCUMENT = (
    "mode = scan\nscan_param = alpha\nscan_start = 0.01\nscan_stop = 0.05\n"
    "scan_steps = 3\n"
)


def value_of(config, key):
    """The value a config holds for a key; None for a scan key of a config
    without a scan."""
    try:
        return attrgetter(cli._KEYS[key].field)(config)
    except AttributeError:
        return None


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
    return spec.render(value * (3 + 1j if spec.parse is complex else 3))


class TestParseConfig:
    def test_empty_document_defaults(self):
        config = parse_config("")
        p = config.params
        assert (p.chi_a, p.chi_b) == (1.0, 1.0)
        assert p.alpha == 0.04 and p.epsilon == 0.01 and p.T == 1.0
        assert (p.dims.dim_a, p.dims.dim_b) == (15, 15)
        assert config.mode == "simulate"
        assert config.n_kicks == 2000
        assert config.scan is None

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

    def test_ordering_rejects_mid_pulse(self):
        # mid-pulse sampling is what compare mode uses; it is not selectable
        with pytest.raises(ConfigError, match="ordering"):
            parse_config("ordering = mid_pulse")
        with pytest.raises(SystemExit) as exc:
            main(["--ordering", "mid_pulse", "--echo-config"])
        assert exc.value.code == 2

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
        for key, spec in cli._KEYS.items():
            value = value_of(base, key)
            if value == value_of(default, key):
                document += f"{key} = {other_raw(key, value)}\n"
            else:
                document += f"{key} = {spec.render(value)}\n"
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

    @pytest.mark.parametrize(
        "cutoffs", [(100000, 100000), (4000000000, 4000000000), (2, 379625063)]
    )
    def test_cutoffs_beyond_numpy_index_range(self, cutoffs):
        document = "cutoff_a = %d\ncutoff_b = %d\n" % cutoffs
        with pytest.raises(ConfigError, match="more than numpy's largest array"):
            parse_config(document)

    def test_largest_indexable_cutoffs_are_accepted(self):
        # D = 759250124 is the largest D with 16 D^2 bytes within np.intp
        config = parse_config("cutoff_a = 2\ncutoff_b = 379625062\n")
        assert 16 * config.params.dims.joint**2 <= np.iinfo(np.intp).max
        assert 16 * (config.params.dims.joint + 1) ** 2 > np.iinfo(np.intp).max


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
        # analytic.amplitude_blocks; the formatted cells agree byte for byte,
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
            calls.append((params, np.concatenate(blocks), kwargs["cache"]))
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
                param, _fmt(value), _fmt(obs.concurrence[k]), str(k), _fmt(obs.leakage.max())
            ]
        # one cache for the whole scan, holding one unitary per kind
        caches = {id(cache) for _, _, cache in calls}
        assert len(caches) == 1
        cache, last = calls[-1][2], calls[-1][0]
        assert set(cache) == {"free", "kick"}
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


CLOSED_FORM_WARNING = (
    "warning: closed-form amplitudes use |alpha| and |epsilon|; "
    "complex phases are ignored on the analytic path"
)
CLOSED_FORM_NOTE = (
    "note: |epsilon*T| below the coupled-formula threshold; "
    "using the uncoupled (epsilon = 0) amplitudes"
)


class TestMain:
    @pytest.mark.parametrize("mode", ["analytic", "compare"])
    @pytest.mark.parametrize(
        "flags, lines",
        [
            ([], []),
            (["--epsilon", "0"], [CLOSED_FORM_NOTE]),
            (["--alpha", "0.04+0.01j"], [CLOSED_FORM_WARNING]),
            (["--alpha", "0.04+0.01j", "--epsilon", "0"], [CLOSED_FORM_WARNING, CLOSED_FORM_NOTE]),
        ],
        ids=["plain", "uncoupled", "complex", "both"],
    )
    def test_closed_form_notes_print_once(self, tmp_path, capsys, mode, flags, lines):
        argv = ["--mode", mode, "--kicks", "5", *SMALL, "--out", str(tmp_path / "o.csv")]
        assert main(argv + flags) == 0
        assert capsys.readouterr().err.splitlines() == lines

    def test_note_follows_the_branch_taken(self, tmp_path, capsys, monkeypatch):
        # one predicate decides both: with the threshold raised past
        # |epsilon T| = 0.01, the note prints and the rows are the uncoupled ones
        monkeypatch.setattr(analytic, "SINGULAR_COUPLING_THRESHOLD", 0.02)
        csvs = []
        for epsilon in ("0.01", "0"):
            out = tmp_path / f"{epsilon}.csv"
            argv = ["--mode", "analytic", "--kicks", "5", "--epsilon", epsilon]
            assert main(argv + SMALL + ["--out", str(out)]) == 0
            assert capsys.readouterr().err.splitlines() == [CLOSED_FORM_NOTE]
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

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

    def test_success_exit_code(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["--kicks", "5", "--cutoff-a", "4", "--cutoff-b", "4", "--out", str(out)]) == 0
        assert out.exists()

    def test_config_error_exit_code(self, capsys):
        assert main(["--kicks", "nope"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file(self):
        assert main(["--config", "/nonexistent/path.cfg"]) == 2

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

    def test_flags_are_the_non_scan_keys(self):
        options = {
            option
            for action in cli._build_arg_parser()._actions
            for option in action.option_strings
        }
        assert options == {cli._flag(key) for key in FLAGGED_KEYS} | {
            "-h", "--help", "--config", "--echo-config"
        }
        for key in cli._KEYS:
            assert (key in FLAGGED_KEYS) == (not key.startswith("scan_")), key

    def test_compare_checks_closed_forms_before_evolving(self, tmp_path, monkeypatch):
        def failing_evolve_blocks(*args, **kwargs):
            pytest.fail("evolve_blocks ran before the closed-form contracts were checked")

        monkeypatch.setattr(cli, "evolve_blocks", failing_evolve_blocks)
        out = tmp_path / "run.csv"
        argv = ["--mode", "compare", "--alpha", "1e-5", "--epsilon", "1", "--kicks", "3"]
        assert main(argv + ["--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--alpha", "nan"), ("--epsilon", "inf"), ("--T", "inf")]
    )
    def test_non_finite_parameter_exit_code(self, tmp_path, capsys, flag, value):
        out = tmp_path / "run.csv"
        assert main([flag, value, "--kicks", "3", "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "analytic", "--alpha", "1e200"],
            ["--mode", "analytic", "--alpha", "1e160"],
            ["--mode", "compare", "--epsilon", "1e200"],
            ["--mode", "analytic", "--epsilon", "1e150"],
            # omega2 cancels to 0 when |alpha| << |epsilon T|
            ["--mode", "analytic", "--alpha", "1e-5", "--epsilon", "1"],
            ["--mode", "compare", "--alpha", "1e-5", "--epsilon", "1"],
            # finite closed forms whose phases keep no digit (alpha 1e150 and
            # 1e100 at k = 3) or whose probabilities do not sum to 1
            ["--mode", "analytic", "--alpha", "1e150"],
            ["--mode", "analytic", "--alpha", "1e100"],
            ["--mode", "compare", "--alpha", "1e100"],
            ["--mode", "analytic", "--alpha", "17", "--epsilon", "1e-11"],
        ],
    )
    def test_overflowing_closed_forms_exit_code(self, tmp_path, capsys, argv):
        out = tmp_path / "run.csv"
        with np.errstate(all="ignore"):
            assert main(argv + ["--kicks", "3", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical contract violation" in err
        assert "Traceback" not in err
        assert not out.exists()

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
             f"{propagation.BLOCK_KICKS - 1} * omega1 / sqrt2"),
            (["--mode", "analytic", "--epsilon", "0", "--alpha", "1e15", "--kicks", "3"],
             "3 * |alpha|"),
            (["--mode", "compare", "--T", "1e17", "--alpha", "1e15", "--kicks", "3"],
             "3 * omega1 / sqrt2"),
            (["--mode", "compare", "--T", "1e12", "--alpha", "1e10"],
             f"{propagation.BLOCK_KICKS - 1} * omega1 / sqrt2"),
        ],
    )
    def test_closed_form_phase_roundoff_exit_code(self, tmp_path, capsys, argv, phase):
        # the closed forms stay finite and sum to 1, but their phases
        # k * omega1 / sqrt2 (k * |alpha| uncoupled) keep no significant digit;
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

    def test_norm_drift_exit_code(self, tmp_path, capsys, monkeypatch):
        original = numerics.unitary_from_spectrum
        monkeypatch.setattr(
            numerics,
            "unitary_from_spectrum",
            lambda values, vectors, t: 1.001 * original(values, vectors, t),
        )
        out = tmp_path / "run.csv"
        assert main(["--kicks", "5", "--cutoff-a", "4", "--cutoff-b", "4", "--out", str(out)]) == 3
        assert "norm" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cutoff", ["100000", "4000000000"])
    def test_unindexable_cutoffs_exit_2(self, tmp_path, capsys, cutoff):
        out = tmp_path / "run.csv"
        argv = ["--cutoff-a", cutoff, "--cutoff-b", cutoff, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cutoffs ")
        assert err.count("\n") == 1
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


SMALL = ["--cutoff-a", "4", "--cutoff-b", "4"]


def csv_bytes(tmp_path, argv, name="run.csv"):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    data = out.read_bytes()
    out.unlink()
    return data


class TestRowFormatting:
    def test_percent_format_equals_format(self, rng):
        # _fmt and _csv_rows format with '%.12g'; the CSVs of earlier
        # versions used format(x, '.12g'), so both must give the same text
        # for every float
        bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64)
        values = bits.view(np.float64).tolist() + [
            0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
            2.2250738585072009e-308, 1.7976931348623157e308, 1e-12, 0.1, 1 / 3,
        ]
        assert [format(x, ".12g") for x in values] == [_fmt(x) for x in values]

    def test_rows_equal_the_per_cell_format(self, rng):
        table = rng.normal(size=(9, 10))
        table[2, 3], table[4, 5] = -0.0, np.nan
        expected = "".join(
            ",".join([str(k)] + [_fmt(v) for v in row]) + "\n"
            for k, row in enumerate(table.tolist(), 5)
        )
        assert cli._csv_rows(table, 5) == expected


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
            assert row[2:] == [_fmt(obs.concurrence[k]), str(k), _fmt(obs.leakage.max())]

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
        "document, kicks, rows",
        [
            ("mode = simulate\n", 600, 601),
            ("mode = compare\n", 600, 601),
            (SCAN_DOCUMENT.replace("scan_steps = 3", "scan_steps = 2"), 300, 2),
        ],
        ids=["simulate", "compare", "scan"],
    )
    def test_peak_memory_is_four_matrices(self, tmp_path, document, kicks, rows):
        # at the reference cutoffs the peak is the build of a step unitary
        # while the other one is alive; a run holds its unitaries and two
        # blocks, which must stay below that (600 kicks: two full blocks)
        cfg, out = tmp_path / "run.cfg", tmp_path / "run.csv"
        cfg.write_text(document)
        argv = ["--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--kicks", "1"]) == 0  # first-call imports and caches
        peak = traced_peak(lambda: main(argv + ["--kicks", str(kicks)]))
        assert len(out.read_text().splitlines()) == rows + 1
        assert peak <= 4 * MATRIX_BYTES + 128 * 1024, peak / MATRIX_BYTES

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
            try:
                # an existing file, or the directory of an O_TMPFILE open
                st = os.stat(path)
            except FileNotFoundError:
                st = os.stat(os.path.dirname(path) or ".")
            if not st.st_mode & stat.S_IWUSR:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_open(path, flags, mode, dir_fd=dir_fd)

    monkeypatch.setattr(os, "open", checked_open)


def failing_evolve_blocks(*args, **kwargs):
    pytest.fail("the run started before the output was opened")


def drifting_norm(monkeypatch):
    original = numerics.unitary_from_spectrum
    monkeypatch.setattr(
        numerics,
        "unitary_from_spectrum",
        lambda values, vectors, t: 1.001 * original(values, vectors, t),
    )


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
        "norm-drift": (["--kicks", "30"] + SMALL, drifting_norm),
        "closed-form": (["--mode", "compare", "--alpha", "1e-5", "--epsilon", "1",
                         "--kicks", "30"] + SMALL, None),
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
                drifting_norm(m)
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
