"""Batch experiment driver.

Subcommands: verify (invariant battery), kernel (mean + series cross
check; the series is cut at the least c whose tail bound is within one ulp
of the kernel peak, and rho-kmax <= 10), bernstein (derivative-integral
ladder), approximate (deviation sweeps), rates (log-log slope fits), kfun
(K-functional brackets).

Sweep radii follow the geometric ladder rho = 1 - 2^{-k}: every rate in
the library is a power of 1 - rho, so log2 spacing makes fitted slopes
directly readable.  Reports go to CSV (header row, LF endings, 17
significant digits) or JSON; identical config + seed produces
byte-identical files.

Each sweep family ends in a summary row whose status is ok (rates: or
exact-zero) or names the problem; non-finite marks an inf or nan
deviation, upper or lower_proxy and always fails an assertion.

_OPTIONS declares every option once: its --flag, its config-file key,
and one coercion that reads a JSON value or its command-line spelling
alike.  Each command reads the keys COMMANDS lists for it, plus out,
format and config; a flag or config-file key it does not read is rejected.
The command may come before, between or after the flags, each written
--KEY VALUE or --KEY=VALUE with KEY in full; a repeated flag's last value wins.

Each argument's range has one home, the library.  validate_config keeps
only what the library cannot know, each ladder's radii or scales pass the
library's own check before any rung runs, and a library ValueError exits 2.

Exit codes: 0 all assertions pass (or --help); 1 an assertion failed (the
report is still written); 2 the run was rejected, with one "error: ..."
line on stderr, no usage block and no traceback: an unknown command or
flag, a bad flag or config value, a flag or key the command does not
read, an unreadable or invalid input or config file, a library ValueError
or OverflowError, memory exhaustion, or a report that cannot be written.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .families import FamilySpec, builtin_families
from .fourier import (
    HexGrid,
    SpectralFormatError,
    _check_p,
    make_grid,
    load_spectral,
    max_coeff_diff,
    spectral_from_json_dict,
    spectral_to_json_dict,
)
from .kernels import (
    _check_rho,
    bernstein_integral,
    hex_deriv_series_values,
    hex_kernel_closed_values,
    series_tail_bound,
)
from .means import _check_deltas, deviation_ladder, kfun_ladder
from .verify import CheckResult, run_all_checks

#: largest rho-kmax of the kernel command, whose series cutoff grows like
#: k 2^k: 5068 terms at k = 7, 40685 at k = 10
KERNEL_KMAX = 10

#: bernstein's last-two scaled ratio is settled within [0.9, 1.1] from this
#: rung on (0.73-0.83 at k = 2, 0.895-0.928 at k = 3 for r = 1..6)
_RATIO_KMIN = 4


class ConfigError(Exception):
    """Invalid configuration, flag value, or config file."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    k_min: int = 1
    k_max: int = 7
    r: int = 1
    n: int = 1
    p: float = 2.0
    grid_n: int | str = "auto"
    input_path: str | None = None
    output_path: str | None = None
    fmt: str = "csv"
    seed: int = 0


def _parse(key: str, value, types, parse, what: str):
    """value if it has one of types; a string is first parsed with parse,
    so a JSON value and its command-line spelling are read alike."""
    if isinstance(value, str):
        try:
            value = parse(value)
        except ValueError:
            raise ConfigError(f"{key} must be {what}, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


def _coerce_int(key: str, value) -> int:
    return _parse(key, value, int, int, "an integer")


def _coerce_p(key: str, value) -> float:
    return float(_parse(key, value, (int, float), float, "a number or 'inf'"))


def _coerce_grid(key: str, value) -> int | str:
    if isinstance(value, str) and value.strip().lower() == "auto":
        return "auto"
    return _parse(key, value, int, int, "an integer or 'auto'")


def _coerce_str(key: str, value) -> str:
    return _parse(key, value, str, str, "a string")


#: every option, as config-file key and as flag --key -> (ExperimentConfig
#: field, coercion of a JSON value or a command-line string, metavar, help)
_OPTIONS = {
    "rho-kmin": ("k_min", _coerce_int, "K", "ladder start: rho = 1 - 2^-K (default 1)"),
    "rho-kmax": ("k_max", _coerce_int, "K", "ladder end (default 7)"),
    "r": ("r", _coerce_int, "R", "derivative / mean order (default 1)"),
    "n": ("n", _coerce_int, "N", "K-functional order for kfun (default 1)"),
    "p": ("p", _coerce_p, "P", "norm order, a number or 'inf' (default 2)"),
    "grid": ("grid_n", _coerce_grid, "N|auto", "grid resolution (default auto)"),
    "input": ("input_path", _coerce_str, "PATH", "spectral-function JSON input"),
    "out": ("output_path", _coerce_str, "PATH", "report path (default <command>_report.<format>)"),
    "format": ("fmt", _coerce_str, "csv|json", "report format (default csv)"),
    "seed": ("seed", _coerce_int, "SEED", "seed for randomized checks (default 0)"),
}
_FLAGS = {f"--{key}" for key in (*_OPTIONS, "config")}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, nesting
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(doc) - set(_OPTIONS)
    if unknown:
        raise ConfigError(
            f"config file {path} has unknown keys: {sorted(unknown)}"
        )
    return doc


def validate_config(cfg: ExperimentConfig) -> None:
    """The checks the library cannot make; p's range is fourier's own check."""
    if cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    if cfg.k_min > cfg.k_max:
        raise ConfigError(f"rho-kmin {cfg.k_min} exceeds rho-kmax {cfg.k_max}")
    if cfg.k_min < 0:  # 2^-k overflows from k = -1024 on
        raise ConfigError(f"rho-kmin must be nonnegative, got {cfg.k_min}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {cfg.fmt!r}")
    if cfg.command == "kernel" and cfg.k_max > KERNEL_KMAX:
        raise ConfigError(
            f"kernel needs rho-kmax <= {KERNEL_KMAX} so its series cutoff stays "
            f"affordable, got {cfg.k_max}"
        )
    _check_p(cfg.p)
    if cfg.command in ("approximate", "kfun") and cfg.p != 2.0 and cfg.grid_n == "auto":
        raise ConfigError("p != 2 requires an explicit --grid N")


def build_config(command: str, flags: dict, config_path: str | None) -> ExperimentConfig:
    """Defaults, then config-file keys, then flags, merged into one dict;
    every value is coerced as it is read, each source in _OPTIONS order.
    A key the command does not read is rejected, from the file or as a flag."""
    doc = {} if config_path is None else _load_config_file(config_path)
    reads = COMMANDS[command][1] + ("out", "format")
    for key in _OPTIONS:
        if key not in reads and (key in doc or key in flags):
            raise ConfigError(f"{command} does not read --{key}")
    values = {}
    for source in (doc, flags):
        for key, (field, coerce, _, _) in _OPTIONS.items():
            if key in source:  # a JSON null is coerced, and rejected, like any value
                values[field] = coerce(key, source[key])
    cfg = ExperimentConfig(command, **values)
    validate_config(cfg)
    return cfg


def rho_ladder(cfg: ExperimentConfig) -> list[tuple[int, float]]:
    """(k, 1 - 2^-k) for k = rho-kmin..rho-kmax.  The radii grow with k, so the library's
    check of the two ends covers every rung, before a ladder far past rho < 1 is built."""
    ends = [1.0 - math.ldexp(1.0, -k) for k in (cfg.k_min, cfg.k_max)]
    _check_rho(ends, (1,), "the radii 1 - 2^-k for k in --rho-kmin..--rho-kmax")
    return [(k, 1.0 - math.ldexp(1.0, -k)) for k in range(cfg.k_min, cfg.k_max + 1)]


def _explicit_grid(cfg: ExperimentConfig) -> HexGrid | None:
    return None if cfg.grid_n == "auto" else make_grid(cfg.grid_n)


def _sweep_families(cfg: ExperimentConfig) -> list[FamilySpec]:
    if cfg.input_path is None:
        return builtin_families(64)
    f = load_spectral(cfg.input_path)
    return [FamilySpec(f"input({cfg.input_path})", f, 0.0)]


# --------------------------------------------------------------------------
# runners: each returns (rows, assertions)
# --------------------------------------------------------------------------

def run_verify(cfg: ExperimentConfig):
    results = run_all_checks(cfg.seed)
    if cfg.input_path is not None:
        f = load_spectral(cfg.input_path)
        back = spectral_from_json_dict(spectral_to_json_dict(f))
        gap = max_coeff_diff(f, back)
        results.append(
            CheckResult(
                "input.serialization_roundtrip", gap == 0.0, gap, 0.0, cfg.input_path
            )
        )
    rows = [
        {
            "check": r.name,
            "passed": r.passed,
            "residual": r.residual,
            "tol": r.tol,
            "seed": cfg.seed,
            "detail": r.detail,
        }
        for r in results
    ]
    assertions = [(r.name, r.passed) for r in results]
    return rows, assertions


def _kernel_cutoff(rho: float, bound: float) -> int:
    """Least c >= 0 with series_tail_bound(rho, c) <= bound: doubling, then bisection."""
    lo, hi = -1, 0  # the tail exceeds bound at lo (at -1 by convention)
    while series_tail_bound(rho, hi) > bound:
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if series_tail_bound(rho, mid) > bound else (lo, mid)
    return hi


def run_kernel(cfg: ExperimentConfig):
    rng = np.random.default_rng([cfg.seed, 101])
    t1 = rng.uniform(-3.0, 3.0, size=200)
    t2 = rng.uniform(-3.0, 3.0, size=200)
    t3 = -(t1 + t2)
    grid = _explicit_grid(cfg)
    eps = sys.float_info.epsilon
    rows = []
    mean_ok = True
    gap_ok = True
    for k, rho in rho_ladder(cfg):
        res = bernstein_integral(rho, 0, grid)
        peak = 1.0 + series_tail_bound(rho, 0)  # the kernel's value at t = 0
        cutoff = _kernel_cutoff(rho, eps * peak)
        closed = hex_kernel_closed_values(rho, t1, t2, t3)
        series = hex_deriv_series_values(rho, t1, t2, t3, 0, cutoff)
        tail = series_tail_bound(rho, cutoff)
        gap = float(np.abs(closed - series.real).max())
        # the series sums terms of total size below peak, so rounding may add
        # a few dozen ulps of it on top of the tail
        row_mean_ok = abs(res.value - 1.0) <= 1e-6
        row_gap_ok = gap <= tail + 64.0 * eps * peak
        mean_ok &= row_mean_ok
        gap_ok &= row_gap_ok
        rows.append(
            {
                "k": k,
                "rho": rho,
                "grid_n": res.grid_n,
                "full_resolution": res.full_resolution,
                "mean": res.value,
                "mean_abs_err": abs(res.value - 1.0),
                "series_gap": gap,
                "tail_bound": tail,
                "cutoff": cutoff,
                "sample_points": 200,
                "seed": cfg.seed,
                "status": "ok" if (row_mean_ok and row_gap_ok) else "fail",
            }
        )
    assertions = [
        ("kernel mean equals 1 within 1e-6 across the ladder", mean_ok),
        ("closed form within the series tail bound at all sample points", gap_ok),
    ]
    return rows, assertions


def run_bernstein(cfg: ExperimentConfig):
    grid = _explicit_grid(cfg)
    rows = []
    scaled_values = []
    for k, rho in rho_ladder(cfg):
        res = bernstein_integral(rho, cfg.r, grid)
        scaled = res.value * (1.0 - rho) ** cfg.r
        scaled_values.append(scaled)
        rows.append(
            {
                "row_type": "point",
                "k": k,
                "rho": rho,
                "r": cfg.r,
                "integral": res.value,
                "scaled": scaled,
                "grid_n": res.grid_n,
                "cap_hit": not res.full_resolution,
            }
        )
    c_emp = max(scaled_values)
    ratio = (
        scaled_values[-1] / scaled_values[-2] if len(scaled_values) >= 2 else math.nan
    )
    if cfg.r == 0:
        ok = all(abs(s - 1.0) <= 1e-6 for s in scaled_values)
        label = "order-0 scaled integral equals 1 within 1e-6"
    elif len(scaled_values) >= 2 and rows[-1]["k"] >= _RATIO_KMIN:
        ok = 0.9 <= ratio <= 1.1
        label = "last-two scaled ratio within [0.9, 1.1]"
    else:
        ok = True
        label = (
            f"ladder ends at k={rows[-1]['k']} with {len(scaled_values)} point(s): ratio check "
            f"skipped (needs 2 points and k >= {_RATIO_KMIN})"
        )
    rows.append(
        {
            "row_type": "summary",
            "r": cfg.r,
            "c_emp": c_emp,
            "ratio_last_two": ratio,
            "points": len(scaled_values),
            "status": "ok" if ok else "fail",
        }
    )
    return rows, [(label, ok)]


def run_approximate(cfg: ExperimentConfig):
    grid = _explicit_grid(cfg)
    spectral_exact = grid is None
    rows = []
    assertions = []
    if spectral_exact:
        label = "deviation nonincreasing along the ladder"
    else:
        side = "<=" if cfg.p < 2 else ">=" if cfg.p > 2 else "=="
        label = f"grid deviation {side} exact L2 deviation"
    ladder = rho_ladder(cfg)
    rhos = [rho for _, rho in ladder]
    for fam in _sweep_families(cfg):
        prev = None
        ok = True
        devs = deviation_ladder(fam.function, rhos, cfg.r, cfg.p, grid)
        exacts = devs if spectral_exact else deviation_ladder(fam.function, rhos, cfg.r, 2.0, None)
        for (k, rho), dev, exact in zip(ladder, devs, exacts):
            if spectral_exact:
                if prev is not None and dev > prev * (1.0 + 1e-12):
                    ok = False
                prev = dev
            # an alias-free grid gives the exact L2 norm at p = 2 (the DFT
            # is unitary), and grid p-means increase with p
            elif (cfg.p >= 2 and dev < exact * (1.0 - 1e-12)) or (
                cfg.p <= 2 and dev > exact * (1.0 + 1e-12)
            ):
                ok = False
            rows.append(
                {
                    "row_type": "point",
                    "family": fam.name,
                    "k": k,
                    "rho": rho,
                    "r": cfg.r,
                    "p": cfg.p,
                    "deviation": dev,
                    "grid_n": 0 if spectral_exact else grid.n,
                    "tail_l2": fam.tail_l2,
                }
            )
        finite = all(map(math.isfinite, devs))
        rows.append(
            {
                "row_type": "summary",
                "family": fam.name,
                "r": cfg.r,
                "max_deviation": max(devs),
                "min_deviation": min(devs),
                "status": ("ok" if ok else "fail") if finite else "non-finite",
            }
        )
        if not finite:
            assertions.append((f"deviations finite [{fam.name}]", False))
        else:
            assertions.append((f"{label} [{fam.name}]", ok))
    return rows, assertions


def _fit_slope(ks: list[int], devs: list[float]) -> tuple[float, float]:
    """Least-squares slope of log2 dev against log2(1 - rho) = -k."""
    xs = [-float(k) for k in ks]
    ys = [math.log2(d) for d in devs]
    m = len(xs)
    xbar = math.fsum(xs) / m
    ybar = math.fsum(ys) / m
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    resid = math.fsum(
        (y - ybar - slope * (x - xbar)) ** 2 for x, y in zip(xs, ys)
    )
    stderr = math.sqrt(resid / (m - 2) / sxx) if m > 2 else math.nan
    return slope, stderr


def run_rates(cfg: ExperimentConfig):
    ladder = rho_ladder(cfg)
    if len(ladder) < 4:
        raise ConfigError(
            f"rate fits require at least 4 ladder points, got {len(ladder)}"
        )
    rows = []
    assertions = []
    for fam in _sweep_families(cfg):
        devs = deviation_ladder(fam.function, [rho for _, rho in ladder], cfg.r, 2.0, None)
        for (k, rho), dev in zip(ladder, devs):
            rows.append(
                {
                    "row_type": "point",
                    "family": fam.name,
                    "k": k,
                    "rho": rho,
                    "r": cfg.r,
                    "deviation": dev,
                    "log2_deviation": math.log2(dev) if dev > 0.0 else math.nan,
                }
            )
        if not all(map(math.isfinite, devs)):
            status, label = "non-finite", "deviations finite"
        elif all(d == 0.0 for d in devs):
            status, label = "exact-zero", "deviation identically zero (degree < r)"
        elif any(d == 0.0 for d in devs):
            status, label = "mixed-zero", "deviations all positive or all zero"
        else:
            status, label = "ok", f"slope fitted over {len(devs)} points"
        slope, stderr = (
            _fit_slope([k for k, _ in ladder], devs) if status == "ok" else (math.nan, math.nan)
        )
        rows.append(
            {
                "row_type": "summary",
                "family": fam.name,
                "r": cfg.r,
                "slope": slope,
                "stderr": stderr,
                "points": len(devs),
                "status": status,
            }
        )
        assertions.append((f"{label} [{fam.name}]", status in ("ok", "exact-zero")))
    return rows, assertions


def run_kfun(cfg: ExperimentConfig):
    grid = _explicit_grid(cfg)
    spectral_exact = grid is None
    rows = []
    assertions = []
    ks = range(cfg.k_min, cfg.k_max + 1)
    # the scales 2^-k fall with k, so the check of the two ends covers the ladder
    ends = [math.ldexp(1.0, -k) for k in (cfg.k_min, cfg.k_max)]
    _check_deltas(ends, "the scales 2^-k for k in --rho-kmin..--rho-kmax")
    deltas = [math.ldexp(1.0, -k) for k in ks]
    for fam in _sweep_families(cfg):
        ratios = []
        violated = False
        finite = True
        ests = kfun_ladder(fam.function, deltas, cfg.n, cfg.p, grid)
        for k, est in zip(ks, ests):
            finite &= math.isfinite(est.upper) and math.isfinite(est.lower_proxy)
            if est.upper == 0.0:
                if est.lower_proxy > 1e-13:
                    violated = True
            else:
                ratios.append(est.lower_proxy / est.upper)
            rows.append(
                {
                    "row_type": "point",
                    "family": fam.name,
                    "k": k,
                    "delta": est.delta,
                    "n": cfg.n,
                    "p": cfg.p,
                    "upper": est.upper,
                    "lower_proxy": est.lower_proxy,
                    "winner": est.argmin_candidate,
                    "grid_n": 0 if spectral_exact else grid.n,
                }
            )
        rows.append(
            {
                "row_type": "summary",
                "family": fam.name,
                "n": cfg.n,
                "c_observed": max(ratios) if ratios else 0.0,
                "points": len(ks),
                "status": "non-finite" if not finite else "violated" if violated else "ok",
            }
        )
        if not finite:
            assertions.append((f"upper and lower proxy finite [{fam.name}]", False))
        else:
            assertions.append(
                (f"lower proxy within a finite multiple of upper [{fam.name}]", not violated)
            )
    return rows, assertions


#: command -> (runner, the _OPTIONS keys it reads besides out and format)
COMMANDS = {
    "verify": (run_verify, ("seed", "input")),
    "kernel": (run_kernel, ("rho-kmin", "rho-kmax", "grid", "seed")),
    "bernstein": (run_bernstein, ("rho-kmin", "rho-kmax", "r", "grid")),
    "approximate": (run_approximate, ("rho-kmin", "rho-kmax", "r", "p", "grid", "input")),
    "rates": (run_rates, ("rho-kmin", "rho-kmax", "r", "input")),
    "kfun": (run_kfun, ("rho-kmin", "rho-kmax", "n", "p", "grid", "input")),
}


# --------------------------------------------------------------------------
# report writing
# --------------------------------------------------------------------------

def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(rows: list[dict]) -> str:
    header: list[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(key)) for key in header))
    return "\n".join(lines) + "\n"


def _json_safe(value):
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    if isinstance(value, np.integer):
        return int(value)
    return value


def _json_text(cfg: ExperimentConfig, rows: list[dict]) -> str:
    doc = {
        "command": cfg.command,
        "config": {f.name: _json_safe(getattr(cfg, f.name)) for f in fields(cfg)},
        "rows": [{k: _json_safe(v) for k, v in row.items()} for row in rows],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_report(cfg: ExperimentConfig, rows: list[dict]) -> str:
    path = cfg.output_path or f"{cfg.command}_report.{cfg.fmt}"
    text = _csv_text(rows) if cfg.fmt == "csv" else _json_text(cfg, rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def _is_flag(word: str) -> bool:
    r"""--KEY[=VALUE] or a word that starts with '-', is not '-', has no space and is no negative
    number (^-\d+$|^-\d*\.\d+$, $ also before a final newline; str tests: a re compile costs more)."""
    whole, dot, frac = word[1:].removesuffix("\n").partition(".")
    number = frac.isdecimal() and (whole.isdecimal() or not whole) if dot else whole.isdecimal()
    looks = word[:1] == "-" and word != "-" and " " not in word and not number
    return looks or word.partition("=")[0] in _FLAGS


def parse_argv(argv: list[str]) -> tuple[str, dict, str | None] | None:
    """(command, {KEY: raw value}, config path) from argv, or None on -h or
    --help.  The word after --KEY is its value unless _is_flag(word)."""
    command, flags, extras = None, {}, []
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return None
        name, eq, value = word.partition("=")
        if name in _FLAGS:
            value = value if eq else next(words, "--")  # at the end, like a flag: no value
            if not eq and _is_flag(value):
                raise ConfigError(f"argument {name}: expected one argument")
            flags[name[2:]] = value
        elif _is_flag(word) or command is not None:
            extras.append(word)
        elif word not in COMMANDS:
            raise ConfigError(f"argument command: invalid choice: {word!r} (choose from {', '.join(map(repr, COMMANDS))})")
        else:
            command = word
    if command is None:
        raise ConfigError("the following arguments are required: command")
    if extras:
        raise ConfigError("unrecognized arguments: " + " ".join(extras))
    return command, flags, flags.pop("config", None)


_HELP = f"usage: hexsum {{{','.join(COMMANDS)}}} [--KEY VALUE | --KEY=VALUE ...]\n\noptions:\n" + "".join(
    f"  {f'--{key} {metavar}':<19}{text}\n" for key, (_, _, metavar, text) in _OPTIONS.items()
) + "  --config PATH      JSON config file whose keys are the options above"


def _reject(message: str) -> int:
    """Print a rejected run's one stderr line, even if the message holds a
    line break (a flag or a path may), and return exit code 2."""
    print("error: " + " ".join(message.splitlines()), file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    try:
        if (parsed := parse_argv(sys.argv[1:] if argv is None else argv)) is None:  # -h, --help
            print(_HELP)
            return 0
        cfg = build_config(*parsed)
        rows, assertions = COMMANDS[cfg.command][0](cfg)
    except SpectralFormatError as exc:
        return _reject(f"invalid spectral input: {exc}")
    except (ConfigError, OSError, ValueError, OverflowError, MemoryError) as exc:
        # the run cannot produce a report; exit 1 is kept for failed assertions
        return _reject(str(exc) or type(exc).__name__)
    try:
        path = write_report(cfg, rows)
    except OSError as exc:
        return _reject(f"cannot write report: {exc}")
    failed = 0
    for label, ok in assertions:
        print(("PASS" if ok else "FAIL") + f": {label}")
        failed += 0 if ok else 1
    print(
        f"{cfg.command}: {len(assertions) - failed}/{len(assertions)} assertions "
        f"passed; report written to {path}"
    )
    return 0 if failed == 0 else 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
