"""Workload definitions: the steps of one pass and how each report is checked.

Each workload is built so that one module does most of its work, and the
modules the other workloads exercise stay nearly idle there:

* ``kernel-ladder``: ``kernels`` (grid coordinates, circle tables, Leibniz
  combine at r=3, |.| reduction; the r=0 step skips the combine).
* ``grid-sweep``: ``fourier`` transforms (``synthesize`` in both sweep
  commands, plus ``analyze`` in the library round trip).
* ``battery-exact``: the sparse spectral store (``SpectralFunction.items`` /
  ``shell_masses`` re-sorting, ``HexIndex`` construction) on the built-in
  family battery, plus the ``verify`` battery; no grid.
* ``high-degree``: ``means.lambda_complement`` on a sparse degree-256 input,
  where the store holds only 257 coefficients.

A step fails on an exception, a non-zero exit, any FAIL line, or a number
off its reference: recorded values (``references.json``) for inputs that do
not depend on the seed, the independent paths of ``checks.py`` for seeded
inputs.  The CLI's own PASS lines are not trusted, and ``kfun``'s winner
string is never compared (it can flip on a rounding tie).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

#: relative tolerance against recorded or independently computed values
RTOL = 1e-9
#: largest coefficient error of the analyze(synthesize(f)) round trip
ROUNDTRIP_TOL = 1e-12
#: checks in the verify battery when the benchmark was defined
VERIFY_CHECKS = 31
#: report fields that are not compared with recorded references: the kfun
#: winner (rounding ties), seed echoes, free text, and the rates fit's
#: standard error (a residual sum prone to cancellation)
UNRECORDED = {"winner", "seed", "stderr", "detail"}

SEED = object()  # flag value replaced by the run's seed

DEFAULTS = {"rho-kmin": 1, "rho-kmax": 7, "r": 1, "n": 1, "p": "2", "grid": "auto"}


@dataclass(frozen=True)
class Step:
    command: str  # hexsum command, or "roundtrip" for the library round trip
    flags: dict
    check: Callable  # (report, step, ctx) -> list of problems

    @property
    def label(self) -> str:
        """The step as typed on the command line, with S for the run's seed."""
        words = [self.command]
        for key, value in self.flags.items():
            words += [f"--{key}", "S" if value is SEED else str(value)]
        return " ".join(words)

    @property
    def span(self) -> str:
        return "lib.roundtrip" if self.command == "roundtrip" else f"cli.{self.command}"

    def param(self, key: str):
        return self.flags.get(key, DEFAULTS.get(key))

    def ladder(self) -> list[int]:
        return list(range(self.param("rho-kmin"), self.param("rho-kmax") + 1))

    def norm_order(self) -> float:
        return math.inf if str(self.param("p")) == "inf" else float(self.param("p"))

    def argv(self, seed: int, inputs: Path) -> list[str]:
        argv = [self.command]
        for key, value in self.flags.items():
            if value is SEED:
                value = seed
            elif key == "input":
                value = inputs / value
            argv += [f"--{key}", str(value)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: dict  # file name -> (kind, degree), written by the worker
    steps: tuple


@dataclass
class Context:
    """What a check needs beyond the report: the seed, inputs and references."""

    seed: int
    inputs: Path
    references: dict  # step label -> recorded rows, for this workload
    memo: dict = field(default_factory=dict)

    def spectrum(self, name: str) -> checks.Spectrum:
        if name not in self.memo:
            self.memo[name] = checks.load_spectrum(self.inputs / name)
        return self.memo[name]


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

def _points(doc: dict) -> list[dict]:
    return [row for row in doc["rows"] if row.get("row_type") == "point"]


def recorded(doc: dict, step: Step, ctx: Context) -> list[str]:
    """Rows equal the recorded ones: numbers within RTOL, everything else exactly."""
    ref_rows = ctx.references.get(step.label)
    if ref_rows is None:
        return [f"no recorded reference for {step.label!r}"]
    rows = doc["rows"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for key, want in ref.items():
            got = row.get(key)
            if isinstance(want, float):
                ok = checks.close(got, want, RTOL)
            else:
                ok = got == want
            if not ok:
                problems.append(f"row {i} {key}: {got!r}, reference {want!r}")
    return problems


def verify_rows(doc: dict, step: Step, ctx: Context) -> list[str]:
    """Every check passed with a finite residual within its tolerance."""
    rows = doc["rows"]
    problems = [] if len(rows) >= VERIFY_CHECKS else [f"only {len(rows)} checks ran"]
    for row in rows:
        residual, tol = float(row["residual"]), float(row["tol"])
        if row["passed"] is not True or not (math.isfinite(residual) and residual <= tol):
            problems.append(f"{row['check']}: residual {row['residual']!r} > tol {row['tol']!r}")
    return problems


def _norm(step: Step, ctx: Context) -> tuple[checks.Spectrum, checks.Norm]:
    f = ctx.spectrum(step.flags["input"])
    p = step.norm_order()
    if step.param("grid") == "auto":
        return f, checks.exact_l2(f)
    return f, checks.grid_lp(f, int(step.param("grid")), p)


def deviation_rows(doc: dict, step: Step, ctx: Context) -> list[str]:
    """approximate / rates deviations, and the rates slope, on the independent path."""
    f, norm = _norm(step, ctx)
    r = step.param("r")
    want = {k: checks.deviation(f, norm, r, 1.0 - 2.0**-k) for k in step.ladder()}
    points = _points(doc)
    problems = [] if len(points) == len(want) else [f"{len(points)} ladder points"]
    for row in points:
        if not checks.close(row["deviation"], want.get(row["k"], math.nan), RTOL):
            problems.append(f"k={row['k']}: deviation {row['deviation']!r}, expected {want.get(row['k'])!r}")
    if step.command == "rates":
        slope = checks.fit_slope(list(want), list(want.values()))
        got = [row["slope"] for row in doc["rows"] if row.get("row_type") == "summary"]
        if len(got) != 1 or not abs(float(got[0]) - slope) <= RTOL * max(1.0, abs(slope)):
            problems.append(f"slope {got!r}, expected {slope!r}")
    return problems


def kfun_rows(doc: dict, step: Step, ctx: Context) -> list[str]:
    """kfun upper and lower_proxy on the independent path (winner not compared)."""
    f, norm = _norm(step, ctx)
    n = step.param("n")
    points = _points(doc)
    problems = [] if len(points) == len(step.ladder()) else [f"{len(points)} ladder points"]
    for row in points:
        upper, lower = checks.kfun(f, norm, 2.0 ** -row["k"], n)
        if not checks.close(row["upper"], upper, RTOL):
            problems.append(f"k={row['k']}: upper {row['upper']!r}, expected {upper!r}")
        if not checks.close(row["lower_proxy"], lower, RTOL):
            problems.append(f"k={row['k']}: lower_proxy {row['lower_proxy']!r}, expected {lower!r}")
    return problems


def roundtrip_rows(entries: list, step: Step, ctx: Context) -> list[str]:
    """analyze(synthesize(f)) gives back every coefficient of f within ROUNDTRIP_TOL."""
    f = ctx.spectrum(step.flags["input"])
    degree = step.flags["degree"]
    want = {tuple(k): c for k, c in zip(f.k.tolist(), f.c)}
    if len(entries) != 3 * degree * degree + 3 * degree + 1:
        return [f"{len(entries)} coefficients returned"]
    err = max(abs(complex(re, im) - want.get(tuple(k), 0.0)) for k, re, im in entries)
    return [] if err <= ROUNDTRIP_TOL else [f"round-trip coefficient error {err!r}"]


# --------------------------------------------------------------------------
# the workloads
# --------------------------------------------------------------------------

GRID_DEGREE, GRID_N = 12, 56
HIGH_DEGREE = 256

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kernel-ladder",
            {},
            (
                Step("bernstein", {"r": 3, "rho-kmax": 5}, recorded),
                Step("bernstein", {"r": 0, "rho-kmax": 5}, recorded),
            ),
        ),
        Workload(
            "grid-sweep",
            {"grid.json": ("random_spectrum", GRID_DEGREE)},
            (
                Step(
                    "approximate",
                    {"r": 2, "p": "inf", "grid": GRID_N, "input": "grid.json"},
                    deviation_rows,
                ),
                Step(
                    "kfun",
                    {"n": 1, "p": "3", "grid": GRID_N, "rho-kmax": 1, "input": "grid.json"},
                    kfun_rows,
                ),
                Step(
                    "roundtrip",
                    {"input": "grid.json", "grid": GRID_N, "degree": GRID_DEGREE},
                    roundtrip_rows,
                ),
            ),
        ),
        Workload(
            "battery-exact",
            {},
            (
                Step("rates", {"r": 2, "rho-kmin": 2, "rho-kmax": 5}, recorded),
                Step("kfun", {"n": 2, "rho-kmax": 1}, recorded),
                Step("approximate", {"r": 2, "rho-kmax": 1}, recorded),
                Step("verify", {"seed": SEED}, verify_rows),
            ),
        ),
        Workload(
            "high-degree",
            {"sparse.json": ("one_per_shell", HIGH_DEGREE)},
            (
                Step(
                    "rates",
                    {"r": 2, "rho-kmin": 2, "rho-kmax": 8, "input": "sparse.json"},
                    deviation_rows,
                ),
                Step("kfun", {"n": 2, "input": "sparse.json"}, kfun_rows),
                Step("approximate", {"r": 2, "input": "sparse.json"}, deviation_rows),
            ),
        ),
    )
}
