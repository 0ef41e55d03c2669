"""Acceptance suite: one test per numbered criterion, in order.

Each test computes its residuals, records a single PASS/FAIL line (also
written to acceptance_report.txt at the repository root), and asserts.
Runtime budgets are part of the pass condition; the report names each
budget but not the elapsed time, so that reruns leave it unchanged.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from hexsum.families import (
    kernel_family,
    polynomial_family,
    random_spectrum,
    shell_decay_family,
)
from hexsum.fourier import (
    GridFunction,
    lp_norm,
    make_grid,
    max_coeff_diff,
    phi_values,
    scale_shells,
    synthesize,
)
from hexsum.kernels import (
    bernstein_integral,
    hex_deriv_series_values,
    hex_kernel_closed_values,
    product_integral,
    series_tail_bound,
)
from hexsum.lattice import frequency_arrays
from hexsum.means import (
    apply_operator,
    apply_operator_derivative_form,
    deviation_ladder,
    kfun_ladder,
    lambda_shells,
    poisson_integral_convolution,
    poisson_integral_spectral,
    remainder_coefficient_check,
)

REPORT: list[str] = []


def _record(num: int, ok: bool, detail: str, start: float, budget: float) -> None:
    """Record the criterion's line and assert it, runtime budget included.

    The report carries the budget, not the elapsed time, so reruns do not
    rewrite it; a budget failure names the elapsed time.
    """
    elapsed = time.perf_counter() - start
    passed = ok and elapsed < budget
    line = f"criterion {num:02d}: {'PASS' if passed else 'FAIL'} - {detail} (budget {budget:g} s)"
    REPORT.append(line)
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num:02d} took {elapsed:.2f} s, budget {budget:g} s"


@pytest.fixture(scope="module", autouse=True)
def _write_report_file():
    yield
    path = Path(__file__).resolve().parents[1] / "acceptance_report.txt"
    path.write_text("\n".join(REPORT) + "\n", encoding="utf-8")


def test_criterion_01_discrete_orthonormality():
    start = time.perf_counter()
    grid = make_grid(64)
    t1, t2, t3 = grid.t_arrays
    k1, k2, _ = frequency_arrays(8)
    table = phi_values(k1, k2, t1, t2, t3)
    gram = (table * grid.weight) @ table.conj().T
    err = float(np.max(np.abs(gram - np.eye(len(k1)))))
    ok = err <= 1e-12
    _record(
        1,
        ok,
        f"max |gram - identity| = {err:.3g} over {len(k1)} indices at n=64 "
        "(tol 1e-12)",
        start,
        10,
    )


def test_criterion_02_kernel_mean_is_one():
    start = time.perf_counter()
    worst = 0.0
    grids = []
    for rho in (0.3, 0.6, 0.9):
        res = bernstein_integral(rho, 0)
        worst = max(worst, abs(res.value - 1.0))
        grids.append(res.grid_n)
    ok = worst <= 1e-6
    _record(
        2,
        ok,
        f"max |mean - 1| = {worst:.3g} at rho in (0.3, 0.6, 0.9), "
        f"auto grids {grids} (tol 1e-6)",
        start,
        30,
    )


def test_criterion_03_closed_form_matches_series():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    t1 = rng.uniform(-2.0, 2.0, size=1000)
    t2 = rng.uniform(-2.0, 2.0, size=1000)
    t3 = -(t1 + t2)
    closed = hex_kernel_closed_values(0.8, t1, t2, t3)
    series = hex_deriv_series_values(0.8, t1, t2, t3, 0, cutoff=400)
    tail = series_tail_bound(0.8, 400)
    gap = float(np.abs(closed - series.real).max())
    imag = float(np.abs(series.imag).max())
    ok = gap <= 1e-9 and imag <= 1e-9
    _record(
        3,
        ok,
        f"max |closed - series| = {gap:.3g} over 1000 points at rho=0.8, "
        f"cutoff 400 (tail certificate {tail:.3g}, tol 1e-9)",
        start,
        30,
    )


def test_criterion_04_product_integral_exact_values():
    start = time.perf_counter()
    worst_pair = 0.0
    worst_triple = 0.0
    for rho in [round(0.1 * i, 1) for i in range(1, 10)]:
        pair = product_integral(rho, [0, 0])
        triple = product_integral(rho, [0, 0, 0])
        want = (1.0 + rho**3) / (1.0 - rho**3)
        worst_pair = max(worst_pair, abs(pair - 1.0))
        worst_triple = max(worst_triple, abs(triple - want) / want)
    ok = worst_pair <= 1e-4 and worst_triple <= 1e-4
    _record(
        4,
        ok,
        f"two-factor mean off by {worst_pair:.3g}, three-factor relative "
        f"error {worst_triple:.3g} over rho = 0.1..0.9 (tol 1e-4)",
        start,
        120,
    )


def test_criterion_05_derivative_integral_growth():
    start = time.perf_counter()
    summaries = []
    ok = True
    for r in (1, 2, 3):
        scaled = []
        for k in range(1, 8):
            rho = 1.0 - 2.0**-k
            res = bernstein_integral(rho, r)
            scaled.append(res.value * (1.0 - rho) ** r)
        c_emp = max(scaled)
        ratio = scaled[-1] / scaled[-2]
        ok = ok and 0.9 <= ratio <= 1.1 and math.isfinite(c_emp)
        summaries.append(f"r={r}: C_emp={c_emp:.4f}, ratio={ratio:.4f}")
    _record(
        5,
        ok,
        "; ".join(summaries)
        + " (ratio window [0.9, 1.1])",
        start,
        600,
    )


def test_criterion_06_operator_forms_agree():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        degree = int(rng.integers(0, 11))
        r = int(rng.integers(1, 5))
        rho = float(rng.uniform(0.0, 0.99))
        f = random_spectrum(degree, rng)
        gap = max_coeff_diff(
            apply_operator(f, rho, r), apply_operator_derivative_form(f, rho, r)
        )
        worst = max(worst, gap)
    ok = worst <= 1e-12
    _record(
        6,
        ok,
        f"max coefficientwise gap = {worst:.3g} over 50 random spectra, "
        "degree <= 10, r <= 4 (tol 1e-12)",
        start,
        5,
    )


def test_criterion_07_complement_integral_identity():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for r in (2, 3, 4):
        for nu in range(r, 31):
            for rho in [round(0.1 * i, 1) for i in range(1, 10)]:
                lhs, rhs = remainder_coefficient_check(nu, r, rho)
                worst = max(worst, abs(lhs - rhs))
                count += 1
    ok = worst <= 1e-10
    _record(
        7,
        ok,
        f"max |multiplier - integral| = {worst:.3g} over {count} "
        "(nu, r, rho) triples (tol 1e-10)",
        start,
        10,
    )


def test_criterion_08_saturation():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    fixed_ok = True
    for r in (1, 2, 3, 4):
        f = random_spectrum(r - 1, rng)
        for rho in (0.3, 0.9):
            g = apply_operator(f, rho, r)
            fixed_ok = fixed_ok and max_coeff_diff(f, g) == 0.0
    damped_ok = True
    for r in (1, 2, 3):
        for rho in (0.1, 0.5, 0.9):
            lam = lambda_shells(np.arange(r, 41), r, rho)[0]
            damped_ok = damped_ok and bool(np.all((0.0 < lam) & (lam < 1.0)))
    ok = fixed_ok and damped_ok
    _record(
        8,
        ok,
        f"degree < r fixed bitwise: {fixed_ok}; shells nu >= r strictly "
        f"damped (multiplier in (0,1)): {damped_ok}",
        start,
        5,
    )


def test_criterion_09_convergence_rate_slopes():
    start = time.perf_counter()
    fam = kernel_family(0.5, max_degree=64)
    ks = list(range(2, 9))
    summaries = []
    ok = True
    for r in (1, 2, 3):
        devs = deviation_ladder(fam.function, [1.0 - 2.0**-k for k in ks], r, 2.0, None)
        slope = float(
            np.polyfit([-k for k in ks], [math.log2(d) for d in devs], 1)[0]
        )
        ok = ok and abs(slope - r) <= 0.15
        summaries.append(f"r={r}: slope={slope:.4f}")
    _record(
        9,
        ok,
        "; ".join(summaries)
        + f" (window r +/- 0.15, spectral tail {fam.tail_l2:.2g})",
        start,
        60,
    )


def test_criterion_10_poisson_convolution_oracle():
    start = time.perf_counter()
    f = polynomial_family(5).function
    norm = f.l2_norm()
    f = scale_shells(f, lambda shells: np.full(len(shells), 1.0 / norm))
    grid = make_grid(48)
    direct = poisson_integral_convolution(synthesize(f, grid), 0.5)
    spectral = synthesize(poisson_integral_spectral(f, 0.5), grid)
    diff = GridFunction(grid, direct.values - spectral.values)
    l2 = lp_norm(diff, 2.0)
    sup = float(np.max(np.abs(diff.values)))
    ok = l2 <= 1e-8
    _record(
        10,
        ok,
        f"grid-L2 gap = {l2:.3g} (max-abs {sup:.3g}) for a unit-norm "
        "degree-5 polynomial at n=48, rho=0.5 (tol 1e-8)",
        start,
        60,
    )


def test_criterion_11_k_functional_sandwich():
    start = time.perf_counter()
    ok = True
    summaries = []
    for s in (2.0, 3.0, 4.0):
        fam = shell_decay_family(s, max_degree=64)
        for n in (1, 2):
            ratios = []
            violated = False
            for est in kfun_ladder(fam.function, [2.0**-k for k in range(1, 7)], n, 2.0):
                if est.upper == 0.0:
                    violated = violated or est.lower_proxy > 1e-13
                else:
                    ratios.append(est.lower_proxy / est.upper)
            c_obs = max(ratios) if ratios else 0.0
            ok = ok and not violated and math.isfinite(c_obs)
            summaries.append(f"(s={s:g}, n={n}): C={c_obs:.3f}")
    _record(
        11,
        ok,
        "lower <= C * upper with "
        + ", ".join(summaries)
        + "; ordering never violated",
        start,
        120,
    )
