import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hexsum
from hexsum import cli
from hexsum.cli import (
    ConfigError,
    ExperimentConfig,
    _csv_text,
    _fit_slope,
    _format_cell,
    _json_safe,
    build_config,
    main,
    parse_argv,
    rho_ladder,
    validate_config,
)
from hexsum.families import random_spectrum
from hexsum.fourier import SpectralFunction, make_grid, save_spectral
from hexsum.kernels import R_MAX, hex_kernel_deriv_values, series_tail_bound
from hexsum.means import lambda_shells


def _cfg(argv):
    return build_config(*parse_argv(argv))


def _error_line(argv, capsys):
    """The one stderr line of a rejected run, which exits 2 and prints nothing else."""
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    return line


def _write_input(tmp_path, degree=3, seed=0, name="f.json"):
    f = random_spectrum(degree, np.random.default_rng(seed))
    path = tmp_path / name
    save_spectral(f, path)
    return str(path)


# ------------------------------------------------------------- configuration


def test_config_defaults():
    cfg = _cfg(["bernstein"])
    assert cfg == ExperimentConfig(command="bernstein")
    assert cfg.k_min == 1 and cfg.k_max == 7 and cfg.p == 2.0
    assert cfg.grid_n == "auto" and cfg.fmt == "csv" and cfg.seed == 0


def test_config_file_then_flags_precedence(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"rho-kmax": 3, "r": 2, "grid": 48}))
    cfg = _cfg(["bernstein", "--config", str(conf), "--r", "4"])
    assert cfg.k_max == 3      # from file
    assert cfg.grid_n == 48    # from file
    assert cfg.r == 4          # flag overrides file


def test_config_file_unknown_key(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"rho_kmax": 3}))
    with pytest.raises(ConfigError, match="unknown keys"):
        _cfg(["bernstein", "--config", str(conf)])


def test_config_file_not_object(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        _cfg(["bernstein", "--config", str(conf)])


def test_config_file_null_value_is_exit_2(tmp_path, monkeypatch, capsys):
    # a JSON null is coerced like any other value, never skipped as "unset"
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "conf.json"
    conf.write_text('{"r": null}')
    assert main(["rates", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: r must be an integer, got None"]


def test_config_file_nested_too_deep_is_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "deep.json"
    conf.write_text("[" * 100_000)
    assert main(["verify", "--config", str(conf)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config file") and "valid JSON" in err[0]


def test_config_file_missing():
    with pytest.raises(ConfigError, match="cannot read"):
        _cfg(["bernstein", "--config", "/nonexistent/conf.json"])


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_option_values = st.integers(-2, 8) | st.sampled_from(["auto", "inf", "csv", "json", "2", "-1", "nan"])
_config_docs = (
    st.dictionaries(st.sampled_from(sorted(cli._OPTIONS)), _option_values, max_size=4)
    | st.dictionaries(st.sampled_from(sorted(cli._OPTIONS)) | st.text(max_size=6), _json_values, max_size=5)
    | _json_values
)


@given(_config_docs)
@settings(max_examples=100, deadline=None)
def test_main_fuzzed_config_file(tmp_path_factory, doc):
    # --grid and --out override the file, so no example runs a huge grid or
    # writes outside its directory; every key is still coerced and checked
    work = tmp_path_factory.mktemp("fuzz")
    conf = work / "conf.json"
    conf.write_text(json.dumps(doc))
    argv = [
        "bernstein", "--rho-kmax", "1", "--grid", "auto",
        "--out", str(work / "report"), "--config", str(conf),
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""


def test_p_coercion(tmp_path, monkeypatch, capsys):
    assert _cfg(["approximate", "--p", "inf", "--grid", "32"]).p == math.inf
    assert _cfg(["approximate", "--p", "1.5", "--grid", "32"]).p == 1.5
    # the range is fourier's own check, run before the "p != 2 needs --grid" rule
    monkeypatch.chdir(tmp_path)
    for argv, line in (
        (["approximate", "--p", "0.5"], "error: order p must satisfy p >= 1, got 0.5"),
        (["approximate", "--p", "two"], "error: p must be a number or 'inf', got 'two'"),
    ):
        assert _error_line(argv, capsys) == line


def test_grid_coercion(tmp_path, monkeypatch, capsys):
    assert _cfg(["approximate", "--grid", "auto"]).grid_n == "auto"
    assert _cfg(["approximate", "--grid", "48"]).grid_n == 48
    # the resolution range is HexGrid's own check
    monkeypatch.chdir(tmp_path)
    for argv, line in (
        (["approximate", "--grid", "3"], "error: grid resolution n must be an integer >= 4, got 3"),
        (["approximate", "--grid", "big"], "error: grid must be an integer or 'auto', got 'big'"),
        (  # n^2 past the float range: the line names n by its size, not its 401 digits
            ["bernstein", "--rho-kmax", "2", "--grid", "1" + "0" * 400],
            "error: grid resolution n of 1329 bits has n^2 past the float range",
        ),
    ):
        assert _error_line(argv, capsys) == line


def test_validate_config_rules(tmp_path, monkeypatch, capsys):
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig("bernstein", k_min=5, k_max=2))
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig("bernstein", k_min=-1, k_max=2))
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig("bernstein", fmt="xml"))
    # the library's ranges are the library's checks, each run before any rung
    monkeypatch.chdir(tmp_path)
    for argv, line in (
        (["bernstein", "--r", "99"], "error: derivative order must be an integer in 0..6, got 99"),
        (["approximate", "--r", "0"], "error: order r must be an integer >= 1, got 0"),
        (["kfun", "--n", "0"], "error: order n must be an integer >= 1, got 0"),
        (
            ["kfun", "--rho-kmin", "0"],
            "error: the scales 2^-k for k in --rho-kmin..--rho-kmax must be a 1-D array "
            "of scales in (0, 1/2], got 1.0",
        ),
    ):
        assert _error_line(argv, capsys) == line


def test_rho_ladder_values():
    cfg = ExperimentConfig("bernstein", k_min=1, k_max=3)
    assert rho_ladder(cfg) == [(1, 0.5), (2, 0.75), (3, 0.875)]


# ------------------------------------------------------------------ formatting


def test_format_cell():
    assert _format_cell(None) == ""
    assert _format_cell(True) == "true"
    assert _format_cell(False) == "false"
    assert _format_cell(7) == "7"
    assert _format_cell(0.1) == "0.10000000000000001"
    assert _format_cell("plain") == "plain"
    assert _format_cell("a,b") == '"a,b"'
    assert _format_cell('say "hi"') == '"say ""hi"""'


def test_csv_text_union_header():
    rows = [{"a": 1, "b": 2.5}, {"a": 3, "c": "x"}]
    text = _csv_text(rows)
    lines = text.splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,2.5,"
    assert lines[2] == "3,,x"
    assert text.endswith("\n")


def test_json_safe_nonfinite():
    assert _json_safe(math.nan) == "nan"
    assert _json_safe(math.inf) == "inf"
    assert _json_safe(1.5) == 1.5
    assert _json_safe(np.int64(3)) == 3


def test_fit_slope_exact_power():
    ks = [1, 2, 3, 4, 5]
    devs = [2.0 ** (-2 * k) for k in ks]
    slope, stderr = _fit_slope(ks, devs)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- end to end


def test_main_rates_with_input(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inp = _write_input(tmp_path, degree=4)
    rc = main(["rates", "--input", inp, "--rho-kmax", "5", "--r", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out
    report = tmp_path / "rates_report.csv"
    assert report.exists()
    lines = report.read_text().splitlines()
    assert lines[0].startswith("row_type,family,k,rho,r,deviation")
    # 5 point rows + 1 summary row
    assert len(lines) == 7
    assert "summary" in lines[-1] and ",ok" in lines[-1]


def test_main_rates_exact_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inp = _write_input(tmp_path, degree=1)
    rc = main(["rates", "--input", inp, "--r", "2", "--rho-kmax", "4"])
    assert rc == 0
    text = (tmp_path / "rates_report.csv").read_text()
    assert "exact-zero" in text


def test_main_rates_needs_four_points(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inp = _write_input(tmp_path)
    rc = main(["rates", "--input", inp, "--rho-kmin", "2", "--rho-kmax", "4"])
    assert rc == 2
    assert "at least 4 ladder points" in capsys.readouterr().err


def test_main_rejects_bad_input_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    doc = {
        "max_degree": 2,
        "entries": [{"k": [1, 1, 0], "re": 1.0, "im": 0.0}],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["approximate", "--input", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "invalid spectral input" in err
    assert "(1, 1, 0)" in err


def test_main_rejects_nan_coefficient(tmp_path, monkeypatch, capsys):
    # json.load accepts a bare NaN; it must not reach the sweeps
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "nan.json"
    bad.write_text(
        '{"max_degree": 1, "entries": [{"k": [1, 0, -1], "re": NaN, "im": 0.0}]}'
    )
    rc = main(["rates", "--input", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "invalid spectral input" in captured.err and "finite" in captured.err


def test_main_rejects_deeply_nested_input(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000)
    assert main(["rates", "--input", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid spectral input: invalid JSON")


@pytest.mark.parametrize(
    "exc, line",
    [
        (ValueError("no such number"), "error: no such number"),
        (OverflowError("no such number"), "error: no such number"),
        (MemoryError(), "error: MemoryError"),
    ],
    ids=["ValueError", "OverflowError", "MemoryError"],
)
def test_main_library_error_in_runner_is_exit_2(tmp_path, monkeypatch, capsys, exc, line):
    # a library exception inside a runner is one stderr line and exit 2,
    # not a traceback with exit 1 (the assertion-failure code)
    monkeypatch.chdir(tmp_path)
    inp = _write_input(tmp_path)

    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr("hexsum.cli.deviation_ladder", boom)
    assert main(["rates", "--input", inp]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


def test_main_one_coefficient_on_a_huge_shell(tmp_path, monkeypatch):
    # work and memory follow the shells that carry data, not the degree: one
    # float per shell up to 2e8 would be 1.6 GB per multiplier array
    monkeypatch.chdir(tmp_path)
    nu = 200_000_000
    c = 1.0 + 0.5j
    inp = tmp_path / "huge.json"
    save_spectral(SpectralFunction({(nu, -nu, 0): c}), inp)
    sweeps = (["rates", "--r", "2"], ["approximate", "--r", "2"], ["kfun", "--n", "2"])
    for args in sweeps:
        argv = args + ["--input", str(inp), "--format", "json", "--out", "r.json"]
        assert main(argv) == 0, args
        rows = json.loads((tmp_path / "r.json").read_text())["rows"]
        points = [row for row in rows if row["row_type"] == "point"]
        assert len(points) == 7
        for row in points:
            if args[0] == "kfun":
                # zero is the best candidate; every cut below nu is empty
                assert row["winner"] == "zero"
                assert row["upper"] == pytest.approx(abs(c), rel=1e-15)
            else:
                want = abs(c) * lambda_shells(np.array([nu]), 2, row["rho"])[1][0]
                assert row["deviation"] == pytest.approx(want, rel=1e-15)


def test_main_high_degree_input(tmp_path, monkeypatch):
    # one coefficient per shell up to 1100, past the degree (~1030) where the
    # binomial coefficients C(nu, j) of the multipliers no longer fit a float
    monkeypatch.chdir(tmp_path)
    degree = 1100
    f = SpectralFunction({(nu, -nu, 0): 1.0 / (1 + nu) for nu in range(degree + 1)})
    inp = tmp_path / "high.json"
    save_spectral(f, inp)
    for command in ("rates", "approximate"):
        out = f"{command}.json"
        argv = [command, "--input", str(inp), "--r", "2", "--format", "json"]
        assert main(argv + ["--out", out]) == 0
        rows = json.loads((tmp_path / out).read_text())["rows"]
        devs = [row["deviation"] for row in rows if row["row_type"] == "point"]
        assert len(devs) == 7
        assert all(isinstance(d, float) and math.isfinite(d) and d > 0.0 for d in devs)


def test_main_declared_degree_far_above_data(tmp_path, monkeypatch):
    # shell arrays follow the data, not the declared bound (3e9 shells would
    # need 22 GiB per array)
    monkeypatch.chdir(tmp_path)
    sweeps = (
        ["rates", "--r", "2"],
        ["approximate", "--r", "2"],
        ["kfun", "--n", "2"],
        ["approximate", "--grid", "16", "--p", "inf"],
        ["kfun", "--grid", "16", "--p", "3", "--rho-kmax", "3"],
    )
    entry = {"k": [1, 0, -1], "re": 1.0, "im": 0.0}
    reports = {}
    for declared in (1, 3_000_000_000):
        inp = tmp_path / f"declared{declared}.json"
        inp.write_text(json.dumps({"max_degree": declared, "entries": [entry]}))
        for i, args in enumerate(sweeps):
            assert main(args + ["--input", str(inp), "--format", "json", "--out", "r.json"]) == 0
            rows = json.loads((tmp_path / "r.json").read_text())["rows"]
            reports[declared, i] = [{k: v for k, v in r.items() if k != "family"} for r in rows]
    for i, args in enumerate(sweeps):
        assert reports[3_000_000_000, i] == reports[1, i], args


@pytest.mark.parametrize("command", ["kernel", "bernstein", "approximate", "rates"])
def test_main_rho_ladder_beyond_float_precision_is_exit_2(tmp_path, monkeypatch, capsys, command):
    # rho = 1 - 2^-54 rounds to 1.0; the kernel command stops at k = 10 already.
    # The whole ladder is checked before its first rung runs.
    monkeypatch.chdir(tmp_path)
    for name in ("bernstein_integral", "deviation_ladder"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("computed a rung of a rejected ladder"))
    for k_min in ("59", "50"):
        if command == "kernel":
            line = "error: kernel needs rho-kmax <= 10 so its series cutoff stays affordable, got 60"
        else:
            line = "error: the radii 1 - 2^-k for k in --rho-kmin..--rho-kmax must lie in [0, 1), got 1.0"
        assert _error_line([command, "--rho-kmin", k_min, "--rho-kmax", "60"], capsys) == line
    top = 10 if command == "kernel" else 53
    cfg = ExperimentConfig(command, k_min=top, k_max=top)
    validate_config(cfg)
    assert rho_ladder(cfg) == [(top, 1.0 - 2.0**-top)]


@pytest.mark.parametrize("command", ["verify", "kernel"])
def test_main_negative_seed_is_exit_2(tmp_path, monkeypatch, capsys, command):
    # rejected before any check runs or any helper is forked, with a message naming the seed
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on a rejected config"))
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"seed": -2}))
    for argv, seed in (([command, "--seed", "-1"], -1), ([command, "--config", str(conf)], -2)):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: seed must be nonnegative, got {seed}"]
    assert not list(tmp_path.glob("*_report.*"))
    validate_config(ExperimentConfig(command, seed=0))


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("verify", "p", "3"),
        ("kernel", "n", "2"),
        ("bernstein", "input", "missing.json"),
        ("approximate", "seed", "5"),
        ("rates", "grid", "64"),
        ("rates", "p", "3"),
        ("kfun", "r", "2"),
    ],
)
def test_main_key_the_command_does_not_read_is_exit_2(
    tmp_path, monkeypatch, capsys, command, key, value
):
    # a flag or config-file key the command would ignore is rejected, not dropped
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on a rejected config"))
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: value}))
    for argv in ([command, f"--{key}", value], [command, "--config", str(conf)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {command} does not read --{key}"]
    assert not list(tmp_path.glob("*_report.*"))


def test_main_kfun_delta_underflow_is_exit_2(tmp_path, monkeypatch, capsys):
    # delta = 2^-1075 underflows to 0.0; 2^-1074 is the smallest subnormal
    monkeypatch.chdir(tmp_path)
    inp = _write_input(tmp_path)
    assert main(["kfun", "--input", inp, "--rho-kmin", "1074", "--rho-kmax", "1074"]) == 0
    capsys.readouterr()
    # the line names the first scale out of range, not the whole ladder
    for argv in (["--rho-kmin", "1075", "--rho-kmax", "1075"], ["--rho-kmax", "2000"]):
        line = _error_line(["kfun", "--input", inp, *argv], capsys)
        assert line == (
            "error: the scales 2^-k for k in --rho-kmin..--rho-kmax must be a 1-D array "
            "of scales in (0, 1/2], got 0.0"
        )
        assert len(line) < 200


def test_main_argparse_error_is_exit_2(capsys):
    # parse_argv's rejections and the coercions' leave by one path: one line, no usage block
    for argv, message in (
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
        (["bernstein", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["bernstein", "--r", "abc"], "r must be an integer, got 'abc'"),
        (["verify", "--seed", "x"], "seed must be an integer, got 'x'"),
        (["bernstein", "--format", "xml"], "format must be 'csv' or 'json', got 'xml'"),
        (["bernstein", "--rho-kma", "5"], "unrecognized arguments: --rho-kma 5"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: " + message), argv


def test_main_help_is_exit_0_and_lists_every_option(capsys):
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for key, (_, _, metavar, _) in cli._OPTIONS.items():
        assert f"--{key} {metavar}" in captured.out
    assert "--config PATH" in captured.out


def test_options_are_declared_once_in_the_table(capsys):
    # the help lists the table's flags plus --config, and none coerces or
    # restricts its value: the raw string reaches build_config, whose
    # coercion from the table reads it
    assert main(["--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    listed = [line.split()[0] for line in lines if line.startswith("  --")]
    assert listed == [f"--{key}" for key in cli._OPTIONS] + ["--config"]
    for key in cli._OPTIONS:
        for argv in (["verify", f"--{key}", " 07 "], [f"--{key}= 07 ", "verify"]):
            assert parse_argv(argv) == ("verify", {key: " 07 "}, None)
    assert parse_argv(["verify", "--config", " 07 "]) == ("verify", {}, " 07 ")


class _ArgparseOracle(argparse.ArgumentParser):
    """The parser parse_argv replaced, built from the table with exact flag
    spellings only and without -h; it raises its rejections as ConfigError."""

    def __init__(self):
        super().__init__(prog="hexsum", allow_abbrev=False, add_help=False)
        self.add_argument("command", choices=cli.COMMANDS)
        for key in (*cli._OPTIONS, "config"):
            self.add_argument(f"--{key}", dest=key)

    def error(self, message):
        raise ConfigError(message)

    def parse_argv(self, argv):
        ns = vars(self.parse_args(argv))
        command, config = ns.pop("command"), ns.pop("config")
        return command, {key: value for key, value in ns.items() if value is not None}, config


def _outcome(parse, argv):
    """(command, flags, config) from parse, or the message it rejects argv with."""
    try:
        return parse(argv)
    except ConfigError as exc:
        return str(exc)


_flag_keys = st.sampled_from([*cli._OPTIONS, "config"])
_flag_values = st.sampled_from(["-1", "-.5", "-x", "-1e5", "inf", "1.5", "a b"])
_junk_words = st.sampled_from(
    ["", "-", "frob", "--bogus", "--bogus=1", "--rho-kma", "-1.", "-1\n", "-.5\n", "-a b", "--r=a b"]
) | st.text(max_size=5).filter(lambda w: w != "--" and w.partition("=")[0] not in ("-h", "--help"))
_flag_groups = st.one_of(
    st.tuples(_flag_keys, _flag_values | _junk_words).map(lambda kv: [f"--{kv[0]}", kv[1]]),
    st.tuples(_flag_keys, _flag_values).map(lambda kv: [f"--{kv[0]}={kv[1]}"]),
)
_odd_groups = st.one_of(
    _flag_keys.map(lambda key: [f"--{key}"]),  # its value missing, or the next group's word
    _flag_values.map(lambda value: [value]),
    _junk_words.map(lambda word: [word]),
)


@st.composite
def _argvs(draw):
    """Flags in both spellings, repeats, junk, and the command anywhere or missing;
    -h, --help and "--" stay out: the fuzzed main test covers them."""
    groups = draw(st.lists(_flag_groups, max_size=5)) + draw(st.lists(_odd_groups, max_size=2))
    argv = [word for group in draw(st.permutations(groups)) for word in group]
    command = draw(st.sampled_from([*sorted(cli.COMMANDS), None]))
    if command is not None:
        argv.insert(draw(st.integers(min_value=0, max_value=len(argv))), command)
    return argv


@given(_argvs())
@example(["verify", "--r", "-a b", "--p", "-1\n", "--n", "-.5", "--out", "-", "--grid=-x y"])
@example(["--seed", "1", "verify", "--seed=2"])
@settings(max_examples=400, deadline=None)
def test_parse_argv_agrees_with_argparse(argv):
    assert _outcome(parse_argv, argv) == _outcome(_ArgparseOracle().parse_argv, argv), argv


@pytest.mark.parametrize("key, value", [("out", None), ("out", ["a"]), ("input", 3), ("format", None)])
def test_config_file_non_string_path_or_format_is_exit_2(tmp_path, monkeypatch, capsys, key, value):
    # a non-string is rejected, not stringified into a report named None or ['a']
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on a rejected config"))
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: value}))
    assert main(["verify", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {key} must be a string, got {value!r}"]
    assert os.listdir(tmp_path) == ["conf.json"]


def test_config_file_takes_command_line_spellings(tmp_path):
    # each key has one coercion: a JSON value and its command-line string agree
    conf = tmp_path / "conf.json"
    spelled = {"rho-kmin": "2", "rho-kmax": "3", "r": "2", "p": "inf", "grid": "48"}
    conf.write_text(json.dumps(spelled))
    from_file = _cfg(["approximate", "--config", str(conf)])
    conf.write_text(json.dumps({"rho-kmin": 2, "rho-kmax": 3, "r": 2, "p": "inf", "grid": 48}))
    assert _cfg(["approximate", "--config", str(conf)]) == from_file
    flags = [word for key, value in spelled.items() for word in (f"--{key}", value)]
    assert _cfg(["approximate", *flags]) == from_file
    assert (from_file.k_min, from_file.k_max, from_file.r, from_file.grid_n) == (2, 3, 2, 48)
    assert from_file.p == math.inf


_argv_tokens = st.lists(
    st.sampled_from([f"--{key}" for key in cli._OPTIONS] + ["--config", "--bogus", "-x", "--help", "--"])
    | st.sampled_from(["0", "1", "2", "-1", "4", "1.5", "inf", "nan", "auto", "csv", "json"])
    | st.sampled_from(["@input", "@config"])
    | st.text(max_size=4),
    max_size=8,
)


@given(st.sampled_from(sorted(cli.COMMANDS)) | st.text(max_size=6), _argv_tokens)
@settings(max_examples=100, deadline=None)
def test_main_fuzzed_command_line(tmp_path_factory, command, tokens):
    # the overrides come last, so they win: the report stays in the example's
    # directory, and a command that reads them gets a short ladder and no grid
    work = tmp_path_factory.mktemp("argv")
    paths = {"@input": _write_input(work), "@config": str(work / "conf.json")}
    (work / "conf.json").write_text('{"format": "json"}')
    argv = [command, *(paths.get(token, token) for token in tokens), "--out", str(work / "report")]
    reads = cli.COMMANDS[command][1] if command in cli.COMMANDS else ()
    argv += ["--rho-kmax", "4"] if "rho-kmax" in reads else []
    argv += ["--grid", "auto"] if "grid" in reads else []
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)  # a junk relative --input or --config path is looked up here
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""


def test_main_kfun_multiplier_overflow_is_exit_2(tmp_path, monkeypatch, capsys):
    # shells below 180 have multiplier 0; the first nonzero one, 180!,
    # exceeds the largest float
    monkeypatch.chdir(tmp_path)
    f = SpectralFunction({(nu, -nu, 0): 1.0 / (1 + nu) for nu in range(257)})
    inp = tmp_path / "deg256.json"
    save_spectral(f, inp)
    argv = ["kfun", "--n", "180", "--input", str(inp), "--rho-kmax", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "n=180" in err and "degree 180" in err


def test_main_kfun_order_past_170_fails_before_the_exact_product(tmp_path, monkeypatch, capsys):
    # nu!/(nu-n)! >= n! > 170! for nu >= n, so the multiplier is refused
    # without math.perm(nu, n), which alone takes seconds at this order
    monkeypatch.chdir(tmp_path)
    n = 600_000
    inp = tmp_path / "one.json"
    save_spectral(SpectralFunction({(n, -n, 0): 1.0}), inp)
    start = time.perf_counter()
    assert main(["kfun", "--n", str(n), "--rho-kmax", "1", "--input", str(inp)]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err.splitlines() == [
        f"error: order n={n}: nu!/(nu-n)! exceeds the float range at degree {n}"
    ]


def _json_report(tmp_path, argv):
    rc = main(argv + ["--format", "json", "--out", "r.json"])
    return rc, json.loads((tmp_path / "r.json").read_text())["rows"]


def test_main_exact_norm_beyond_squared_range(tmp_path, monkeypatch, capsys):
    # |c|^2 and (170!)^2 overflow a float although every reported value fits
    monkeypatch.chdir(tmp_path)
    big = tmp_path / "big.json"
    save_spectral(SpectralFunction({(1, -1, 0): 1e308 + 1e308j}), big)
    rc, rows = _json_report(tmp_path, ["rates", "--r", "1", "--input", str(big)])
    assert rc == 0 and rows[-1]["status"] == "ok"
    # shell 1 at rho = 1/2: |c| (1 - rho)
    assert rows[0]["deviation"] == pytest.approx(math.hypot(1e308, 1e308) / 2, rel=1e-15)
    assert rows[-1]["slope"] == pytest.approx(1.0, abs=1e-12)

    ops = tmp_path / "ops170.json"
    save_spectral(SpectralFunction({(nu, -nu, 0): 1.0 / (1 + nu) for nu in range(171)}), ops)
    argv = ["kfun", "--n", "170", "--rho-kmax", "2", "--input", str(ops)]
    rc, rows = _json_report(tmp_path, argv)
    assert rc == 0 and rows[-1]["status"] == "ok"
    for row in rows[:-1]:
        with mpmath.workdps(40):
            delta = mpmath.mpf(2) ** -row["k"]
            mass = mpmath.fsum(
                (mpmath.ff(nu, 170) * (1 - delta) ** nu / (1 + nu)) ** 2 for nu in range(171)
            )
            want = float(delta**170 * mpmath.sqrt(mass))  # 1.89e202 at k = 1
        assert row["lower_proxy"] == pytest.approx(want, rel=1e-13)
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["kfun", "rates", "approximate"])
def test_main_exact_norm_sum_beyond_float_range(tmp_path, monkeypatch, command):
    # the squared terms 1e308, 4e308 and 81 are finite, but their sum is not:
    # the exact L2 norm sums them again in units of the largest term
    monkeypatch.chdir(tmp_path)
    coeffs = {(1, -1, 0): 1e154, (2, -1, -1): 1e154, (3, -1, -2): 3.0}
    inp = tmp_path / "wide.json"
    save_spectral(SpectralFunction(coeffs), inp)
    rc, rows = _json_report(tmp_path, [command, "--input", str(inp)])  # r = n = 1
    assert rc == 0 and rows[-1]["status"] == "ok"
    if command == "kfun":
        # identity wins: upper = delta ||f^[1]||_2, f^[1] scaling shell nu by nu
        mass = sum(Fraction(max(map(abs, k))) ** 2 * Fraction(c) ** 2 for k, c in coeffs.items())
        for row in rows[:-1]:
            assert row["winner"] == "identity"
            root = Fraction(math.isqrt(mass.numerator * 4**64 // mass.denominator), 2**64)
            want = float(Fraction(row["delta"]) * root)
            assert abs(row["upper"] - want) <= 1e-15 * want


@pytest.mark.parametrize(
    "coeffs, args",
    [
        # shells 50 and 51 at 1.7e308: the deviation at rho = 1/2 is 2.4e308
        ({(50, -50, 0): 1.7e308, (51, -51, 0): 1.7e308}, ["rates"]),
        # the same on the grid: distinct bins, so the grid L2 norm is 2.4e308 too
        (
            {(50, -50, 0): 1.7e308, (51, -51, 0): 1.7e308},
            ["approximate", "--grid", "8", "--p", "2"],
        ),
    ],
    ids=["rates-exact", "approximate-grid"],
)
def test_main_non_finite_deviation_fails(tmp_path, monkeypatch, capsys, coeffs, args):
    monkeypatch.chdir(tmp_path)
    inp = tmp_path / "big.json"
    save_spectral(SpectralFunction(coeffs), inp)
    rc, rows = _json_report(tmp_path, args + ["--input", str(inp)])
    assert rc == 1
    assert rows[0]["deviation"] == "inf"
    assert rows[-1]["status"] == "non-finite"
    out = capsys.readouterr().out
    assert "PASS" not in out and "FAIL: deviations finite" in out


@pytest.mark.parametrize("c", [1e-200, 1e-160])
def test_main_exact_norm_below_squared_range(tmp_path, monkeypatch, capsys, c):
    # |c|^2 underflows to 0 (1e-200) or to a subnormal (1e-160)
    monkeypatch.chdir(tmp_path)
    tiny = tmp_path / "tiny.json"
    save_spectral(SpectralFunction({(1, -1, 0): c}), tiny)
    rc, rows = _json_report(tmp_path, ["rates", "--r", "1", "--input", str(tiny)])
    assert rc == 0 and rows[-1]["status"] == "ok"
    # shell 1 at rho = 1/2: c (1 - rho)
    assert rows[0]["deviation"] == pytest.approx(c / 2, rel=1e-15)
    assert "identically zero" not in capsys.readouterr().out


def test_main_grid_norm_beyond_squared_range(tmp_path, monkeypatch):
    # |v|^2 of a 7.1e307 sample overflows although the grid L2 norm fits
    monkeypatch.chdir(tmp_path)
    big = tmp_path / "big.json"
    save_spectral(SpectralFunction({(1, -1, 0): 1e308 + 1e308j}), big)
    argv = ["approximate", "--grid", "8", "--p", "2", "--input", str(big)]
    rc, rows = _json_report(tmp_path, argv)
    assert rc == 0 and rows[-1]["status"] == "ok"
    assert rows[0]["deviation"] == pytest.approx(7.0710678e307, rel=1e-8)


@pytest.mark.parametrize("command", ["approximate", "kfun"])
def test_main_aliasing_grid_is_exit_2(tmp_path, monkeypatch, capsys, command):
    # the battery reaches degree 64, so n = 8 puts distinct frequencies in one bin
    monkeypatch.chdir(tmp_path)
    assert main([command, "--grid", "8", "--p", "2", "--rho-kmax", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: grid n=8 aliases degree 64")
    assert not (tmp_path / f"{command}_report.csv").exists()


def test_main_kfun_kmin_zero_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["kfun", "--rho-kmin", "0"])
    assert rc == 2
    assert "rho-kmin" in capsys.readouterr().err


def test_main_approximate_p_not_two_needs_grid(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inp = _write_input(tmp_path)
    rc = main(["approximate", "--input", inp, "--p", "4"])
    assert rc == 2
    assert "--grid" in capsys.readouterr().err


def test_main_approximate_spectral_and_grid_paths(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inp = _write_input(tmp_path, degree=3)
    rc = main(
        ["approximate", "--input", inp, "--rho-kmax", "4", "--out", "a.csv"]
    )
    assert rc == 0
    spectral = (tmp_path / "a.csv").read_text()
    assert ",0," in spectral.splitlines()[1]  # grid_n column is 0: exact path
    rc = main(
        [
            "approximate", "--input", inp, "--rho-kmax", "4",
            "--p", "inf", "--grid", "32", "--out", "b.csv",
        ]
    )
    assert rc == 0
    gridded = (tmp_path / "b.csv").read_text()
    assert "32" in gridded


@pytest.mark.parametrize("p", ["1", "1.5", "2", "3", "inf"])
def test_main_approximate_grid_path_brackets_exact_l2(tmp_path, monkeypatch, capsys, p):
    # the battery reaches degree 64, so any grid above 256 keeps its bins apart
    monkeypatch.chdir(tmp_path)
    rc, rows = _json_report(tmp_path, ["approximate", "--grid", "280", "--p", p, "--rho-kmax", "3"])
    assert rc == 0
    summaries = [row for row in rows if row["row_type"] == "summary"]
    assert len(summaries) == 5 and all(row["status"] == "ok" for row in summaries)
    lines = capsys.readouterr().out.splitlines()
    side = {"1": "<=", "1.5": "<=", "2": "==", "3": ">=", "inf": ">="}[p]
    assert lines[:-1] == [
        f"PASS: grid deviation {side} exact L2 deviation [{row['family']}]" for row in summaries
    ]
    assert lines[-1].startswith("approximate: 5/5 assertions passed")


def test_main_approximate_grid_bracket_fails_off_side(tmp_path, monkeypatch, capsys):
    # a p = 1 grid norm twice the exact L2 deviation breaks the bracket
    monkeypatch.chdir(tmp_path)
    inp = _write_input(tmp_path, degree=3)
    real = cli.deviation_ladder

    def inflated(f, rhos, r, p, grid):
        return [d * (1.0 if grid is None else 2.0) for d in real(f, rhos, r, 2.0, None)]

    monkeypatch.setattr(cli, "deviation_ladder", inflated)
    argv = ["approximate", "--input", inp, "--grid", "16", "--p", "1", "--rho-kmax", "3"]
    rc, rows = _json_report(tmp_path, argv)
    assert rc == 1 and rows[-1]["status"] == "fail"
    assert "FAIL: grid deviation <= exact L2 deviation" in capsys.readouterr().out


def test_main_bernstein_single_point_json(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(
        [
            "bernstein", "--r", "1", "--rho-kmin", "1", "--rho-kmax", "1",
            "--format", "json",
        ]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "bernstein_report.json").read_text())
    assert doc["command"] == "bernstein"
    assert doc["config"]["r"] == 1
    assert doc["config"]["grid_n"] == "auto"
    summary = doc["rows"][-1]
    assert summary["row_type"] == "summary"
    assert summary["ratio_last_two"] == "nan"  # JSON-safe encoding
    assert summary["status"] == "ok"


def test_main_bernstein_order_zero_ladder(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["bernstein", "--r", "0", "--rho-kmax", "2"])
    assert rc == 0
    assert "order-0" in capsys.readouterr().out
    lines = (tmp_path / "bernstein_report.csv").read_text().splitlines()
    assert len(lines) == 4  # header + 2 points + summary


@pytest.mark.parametrize(
    "argv, k_last",
    [(["--rho-kmax", "2"], 2), (["--rho-kmax", "3", "--r", "5"], 3)],
)
def test_main_bernstein_short_ladder_skips_ratio(tmp_path, monkeypatch, capsys, argv, k_last):
    # the scaled ratio is 0.73-0.83 at k = 2 and 0.895-0.928 at k = 3: not settled
    monkeypatch.chdir(tmp_path)
    assert main(["bernstein", *argv]) == 0
    out = capsys.readouterr().out
    assert f"PASS: ladder ends at k={k_last} with {k_last} point(s): ratio check skipped" in out


def test_main_bernstein_asserts_ratio_from_k4(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["bernstein", "--rho-kmin", "3", "--rho-kmax", "4"]) == 0
    assert "PASS: last-two scaled ratio within [0.9, 1.1]" in capsys.readouterr().out


def test_main_kernel_command(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["kernel", "--rho-kmin", "1", "--rho-kmax", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kernel: 2/2 assertions passed" in out
    text = (tmp_path / "kernel_report.csv").read_text()
    assert "mean_abs_err" in text.splitlines()[0]


def test_main_kernel_rounding_allowance(tmp_path, monkeypatch, capsys):
    # seeds 203 and 206 put a closed-vs-series rounding gap of ~1.5e-12 at
    # rho = 0.875, above the tail bound plus an absolute 1e-12
    monkeypatch.chdir(tmp_path)
    for seed in ("203", "206"):
        assert main(["kernel", "--seed", seed]) == 0
        assert "kernel: 2/2 assertions passed" in capsys.readouterr().out


def test_main_kernel_certifies_the_top_of_its_ladder(tmp_path, monkeypatch, capsys):
    # each row cuts the series at the least c whose tail bound is within one
    # ulp of the kernel peak, so the series gap is certified at every rung
    monkeypatch.chdir(tmp_path)
    eps = sys.float_info.epsilon
    argv = ["kernel", "--rho-kmin", "6", "--rho-kmax", "7", "--format", "json", "--out", "k.json"]
    assert main(argv) == 0
    assert "kernel: 2/2 assertions passed" in capsys.readouterr().out
    rows = json.loads((tmp_path / "k.json").read_text())["rows"]
    assert [row["k"] for row in rows] == [6, 7]
    for row in rows:
        peak = 1.0 + series_tail_bound(row["rho"], 0)
        c = row["cutoff"]
        assert series_tail_bound(row["rho"], c) <= eps * peak < series_tail_bound(row["rho"], c - 1)
        assert row["tail_bound"] == series_tail_bound(row["rho"], c)
        assert row["series_gap"] <= 1e-9 * peak
        assert row["status"] == "ok"
    assert rows[0]["cutoff"] < rows[1]["cutoff"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: graded quadrature")
def test_main_kernel_passes_at_k9(tmp_path, monkeypatch, capsys):
    # a known defect: the mean check reads 1.0020 on the grid capped at 4096,
    # so the run exits 1; the assertion is right and the quadrature too coarse
    monkeypatch.chdir(tmp_path)
    assert main(["kernel", "--rho-kmin", "9", "--rho-kmax", "9"]) == 0
    assert "kernel: 2/2 assertions passed" in capsys.readouterr().out


def test_main_kernel_ladder_above_k10_is_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["kernel", "--rho-kmax", "11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: kernel needs rho-kmax <= 10 so its series cutoff stays affordable, got 11"
    ]
    assert not list(tmp_path.glob("*_report.*"))


def test_main_kernel_coarse_grid_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["kernel", "--rho-kmax", "2", "--grid", "16"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_main_kfun_with_input(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inp = _write_input(tmp_path, degree=5)
    rc = main(["kfun", "--input", inp, "--rho-kmax", "4", "--n", "2"])
    assert rc == 0
    text = (tmp_path / "kfun_report.csv").read_text()
    assert "lower_proxy" in text.splitlines()[0]
    assert "violated" not in text


def test_main_verify_with_input_roundtrip(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inp = _write_input(tmp_path, degree=2)
    rc = main(["verify", "--input", inp])
    assert rc == 0
    text = (tmp_path / "verify_report.csv").read_text()
    assert "input.serialization_roundtrip" in text


def test_reports_are_byte_identical_across_reruns(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inp = ["--input", _write_input(tmp_path, degree=4, seed=3)]
    for args, code in (
        (["rates", "--r", "2"] + inp, 0),
        (["approximate", "--r", "2", "--grid", "40", "--p", "inf"] + inp, 0),
        (["kfun", "--grid", "40", "--p", "3"] + inp, 0),
        # 3 divides 192, the kernel grid's three-residue case; a two-point
        # ladder ends too early for the convergence-ratio assertion
        (["bernstein", "--r", "3", "--rho-kmax", "2", "--grid", "192"], 0),
    ):
        argv = args + ["--out", "rep.csv"]
        assert main(argv) == code
        first = (tmp_path / "rep.csv").read_bytes()
        assert main(argv) == code
        second = (tmp_path / "rep.csv").read_bytes()
        assert first == second, args
        assert b"\r" not in first


@pytest.mark.parametrize("r", range(R_MAX + 1))
def test_bernstein_grid_192_reruns_byte_identical(tmp_path, monkeypatch, r):
    # 3 divides 192, so the kernel grid sums its fundamental domain on the
    # a = b (mod 3) sublattice.  The two-point ladder ends at k = 2, too early
    # for the convergence-ratio assertion, so every order exits 0.
    monkeypatch.chdir(tmp_path)
    argv = ["bernstein", "--r", str(r), "--rho-kmax", "2", "--grid", "192", "--out", "rep.json"]
    assert main(argv + ["--format", "json"]) == 0
    first = (tmp_path / "rep.json").read_bytes()
    assert main(argv + ["--format", "json"]) == 0
    assert (tmp_path / "rep.json").read_bytes() == first
    assert b"\r" not in first
    g = make_grid(192)
    t1, t2, t3 = g.t_arrays
    for row in json.loads(first)["rows"][:-1]:
        want = math.fsum(np.abs(hex_kernel_deriv_values(row["rho"], t1, t2, t3, r))) * g.weight
        assert abs(row["integral"] - want) <= 1e-12 * want


def test_default_report_name_uses_format(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inp = _write_input(tmp_path)
    assert main(["rates", "--input", inp, "--format", "json"]) == 0
    assert (tmp_path / "rates_report.json").exists()


def test_unwritable_report_is_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inp = _write_input(tmp_path)
    rc = main(["rates", "--input", inp, "--out", "no/such/dir/rep.csv"])
    assert rc == 2
    assert "cannot write report" in capsys.readouterr().err


def test_cli_import_leaves_argparse_and_gettext_unloaded(tmp_path):
    # the command line is read from the option table: hexsum.cli loads
    # neither module unless a bare numpy interpreter has it too
    code = "import json, sys, {}; print(json.dumps(sorted({{'argparse', 'gettext'}} & set(sys.modules))))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hexsum.__file__)))
    loaded = []
    for module in ("numpy", "hexsum.cli"):
        proc = subprocess.run(
            [sys.executable, "-c", code.format(module)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded.append(set(json.loads(proc.stdout)))
    assert loaded[1] <= loaded[0]
    proc = subprocess.run(
        [sys.executable, "-m", "hexsum", "--help"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "--config PATH" in proc.stdout


def test_cli_import_adds_no_numpy_polynomial(tmp_path):
    # no hexsum code uses numpy.polynomial, fractions or decimal: importing
    # hexsum.cli after numpy leaves each as loaded as numpy alone does (numpy 2
    # loads none of them)
    code = (
        "import sys, numpy\n"
        "names = ('numpy.polynomial', 'fractions', 'decimal')\n"
        "bare = [name in sys.modules for name in names]\n"
        "import hexsum.cli\n"
        "print([name for name, was in zip(names, bare) if (name in sys.modules) != was])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hexsum.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_numpy_random_and_fft(tmp_path):
    # both load with hexsum.cli, not on first use: measured on 2 cores with
    # numpy 2.4.6, loading numpy.random on first use raised the battery-exact
    # benchmark's peak RSS from 31.8 to 35.6 MB, and, with hexsum.verify also
    # loaded on first use, its wall time by 30%
    code = (
        "import sys, hexsum.cli\n"
        "print([name for name in ('numpy.random', 'numpy.fft') if name not in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hexsum.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_runs_with_scipy_blocked(tmp_path):
    # the runtime needs numpy only: with scipy made unimportable, the CLI
    # imports without numpy.f2py or numpy.testing, and every command runs
    inp = _write_input(tmp_path)
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import hexsum.cli\n"
        "heavy = [m for m in ('numpy.f2py', 'numpy.testing') if m in sys.modules]\n"
        "inp = sys.argv[1]\n"
        "runs = [['kernel', '--rho-kmax', '2'], ['bernstein', '--r', '0', '--rho-kmax', '2'],\n"
        "        ['approximate', '--r', '2', '--input', inp], ['rates', '--input', inp],\n"
        "        ['kfun', '--input', inp, '--rho-kmax', '2'], ['verify', '--seed', '0']]\n"
        "rcs = [hexsum.cli.main(argv + ['--out', 'rep.csv']) for argv in runs]\n"
        "print(repr((heavy, rcs)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hexsum.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code, inp], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(([], [0] * 6))
