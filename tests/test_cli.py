from dataclasses import fields, is_dataclass, replace
from operator import attrgetter

import numpy as np
import pytest

from kicked_coupler import ConfigError, Ordering, annotate_trajectory, evolve
from kicked_coupler import cli, propagation
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

    @pytest.mark.parametrize(
        "extra",
        ["", "epsilon = 0\n", "alpha = 0.3\nepsilon = 0.05\nT = 1.7\n"],
        ids=["reference", "uncoupled", "strong"],
    )
    def test_analytic_probabilities_equal_compare_columns(self, tmp_path, extra):
        # both modes take their closed-form probabilities from
        # truncated_amplitudes; the formatted cells agree byte for byte
        tables = {}
        for mode in ("analytic", "compare"):
            config = self.small_config(
                tmp_path, extra=f"mode = {mode}\nkicks = 300\n{extra}"
            )
            assert run(config) == 0
            tables[mode] = read_rows(tmp_path / "o.csv")[1]
        analytic = [row[1:5] for row in tables["analytic"]]
        compare = [row[11:15] for row in tables["compare"]]
        assert len(analytic) == 301
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

        def recording_evolve(params, n_kicks, **kwargs):
            states = evolve(params, n_kicks, **kwargs)
            calls.append((params, states, kwargs["cache"]))
            return states

        monkeypatch.setattr(cli, "evolve", recording_evolve)
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

        def recording_evolve(params, n_kicks, **kwargs):
            caches.append(kwargs["cache"])
            return evolve(params, n_kicks, **kwargs)

        monkeypatch.setattr(cli, "evolve", recording_evolve)
        run(config)
        run(replace(config, params=replace(config.params, epsilon=0.02)))
        assert caches[0] is caches[1] and caches[2] is caches[3]
        assert caches[0] is not caches[2]


class TestMain:
    def test_success_exit_code(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["--kicks", "5", "--cutoff-a", "4", "--cutoff-b", "4", "--out", str(out)]) == 0
        assert out.exists()

    def test_config_error_exit_code(self, capsys):
        assert main(["--kicks", "nope"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file(self):
        assert main(["--config", "/nonexistent/path.cfg"]) == 2

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
        def failing_evolve(*args, **kwargs):
            pytest.fail("evolve ran before the closed-form contracts were checked")

        monkeypatch.setattr(cli, "evolve", failing_evolve)
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
            # finite closed forms whose probabilities do not sum to 1
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

    def test_norm_drift_exit_code(self, tmp_path, capsys, monkeypatch):
        original = propagation.unitary_from_generator
        monkeypatch.setattr(
            propagation, "unitary_from_generator", lambda h, t: 1.001 * original(h, t)
        )
        out = tmp_path / "run.csv"
        assert main(["--kicks", "5", "--cutoff-a", "4", "--cutoff-b", "4", "--out", str(out)]) == 3
        assert "norm" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 0.01\nkicks = 5\ncutoff_a = 4\ncutoff_b = 4\n")
        out = capsys = None
        import io
        import contextlib

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["--config", str(cfg), "--alpha", "0.09", "--echo-config"]) == 0
        assert "alpha = 0.09" in buf.getvalue()
        assert "kicks = 5" in buf.getvalue()

    def test_echo_round_trip(self, tmp_path):
        import io
        import contextlib

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["--alpha", "0.05", "--echo-config"]) == 0
        config = parse_config(buf.getvalue())
        assert config.params.alpha == 0.05
