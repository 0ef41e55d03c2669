"""Invariant battery: every library-level contract as a runnable check.

Each check measures a residual and compares it against a pinned
tolerance; run_all_checks returns the full list of CheckResults in a
fixed order.  Randomized checks draw from a seeded generator with
tolerance-safe margins, so pass/fail verdicts do not depend on the seed.

The battery spreads over the usable CPUs through one work queue: the
check indices wait in a pipe, and the caller and the forked helpers each
take the next one whenever they are idle, so no process waits on a fixed
share.  Each helper writes one JSON line [index, *fields] per finished
check to a pipe of its own.  Each check has its own generator, so no
result depends on the process that ran it.  Every index left without a
complete result line, because its check raised or its helper died, is
rerun in the caller.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import astuple, dataclass

import numpy as np
import numpy.random  # noqa: F401 - loaded with the module, not on first use

from . import families, fourier, kernels, means
from .fourier import (
    GridFunction,
    SpectralFormatError,
    analyze,
    lp_norm,
    make_grid,
    max_coeff_diff,
    pairwise_sum,
    phi_values,
    spectral_from_json_dict,
    spectral_to_json_dict,
    synthesize,
)
from .lattice import (
    OMEGA_AREA,
    _omega_mask,
    fold_arrays,
    frequency_arrays,
    from_cartesian,
    to_cartesian,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tol: float
    detail: str = ""


def _result(name: str, residual: float, tol: float, detail: str = "") -> CheckResult:
    residual = float(residual)
    return CheckResult(name, residual <= tol, residual, float(tol), detail)


def _random_points(rng: np.random.Generator, count: int, span: float = 6.0):
    t1 = rng.uniform(-span, span, size=count)
    t2 = rng.uniform(-span, span, size=count)
    return t1, t2


# --------------------------------------------------------------------------
# lattice checks
# --------------------------------------------------------------------------

def check_shell_enumeration(rng) -> CheckResult:
    """frequency_arrays' shells vs a brute-force cube scan, and |J_nu| = 6 nu."""
    side = np.arange(-20, 21)
    c1, c2 = np.repeat(side, side.size), np.tile(side, side.size)  # (k1, k2) order
    degree = np.maximum(np.maximum(np.abs(c1), np.abs(c2)), np.abs(c1 + c2))
    bad = 0
    for nu in range(21):
        on = degree == nu
        b1, b2 = c1[on], c2[on]
        k1, k2, _ = frequency_arrays(nu, nu)
        order = np.lexsort((k2, k1))
        if not (np.array_equal(k1[order], b1) and np.array_equal(k2[order], b2)):
            bad += 1
        if nu >= 1 and k1.size != 6 * nu:
            bad += 1
        if not np.all((k1[1:] > k1[:-1]) | ((k1[1:] == k1[:-1]) & (k2[1:] >= k2[:-1]))):
            bad += 1
    return _result("lattice.shell_enumeration", bad, 0, "nu <= 20 vs cube scan")


def check_fold(rng) -> CheckResult:
    """fold lands in the hexagon, is exactly idempotent and leaves Omega fixed."""
    t1, t2 = _random_points(rng, 2000, span=8.0)
    f1, f2, f3 = fold_arrays(t1, t2)
    bad = int(np.count_nonzero(~_omega_mask(f1, f2, f3)))
    g1, g2, g3 = fold_arrays(f1, f2)
    bad += int(np.count_nonzero((g1 != f1) | (g2 != f2) | (g3 != f3)))
    inside = _omega_mask(t1, t2, -t1 - t2)  # these points must not move
    bad += int(np.count_nonzero(inside & ((f1 != t1) | (f2 != t2))))
    return _result("lattice.fold_membership_idempotent", bad, 0, "2000 random points")


def check_fold_phase_invariance(rng) -> CheckResult:
    """Basis monomials cannot tell a point from its fold."""
    t1, t2 = _random_points(rng, 1000)
    t3 = -(t1 + t2)
    f1, f2, f3 = fold_arrays(t1, t2)
    k1, k2, _ = frequency_arrays(5)
    worst = 0.0
    # 8 frequencies at a time: each 8 x 1000 table (128 kB) stays under glibc's
    # mmap threshold, so a forked process does not fault in fresh pages per
    # block; one table of all 91 would add ~4 MB to peak memory
    for s in range(0, len(k1), 8):
        a, b = k1[s:s + 8], k2[s:s + 8]
        d = np.abs(phi_values(a, b, f1, f2, f3) - phi_values(a, b, t1, t2, t3)).max()
        worst = max(worst, float(d))
    return _result("lattice.fold_phase_invariance", worst, 1e-10, "deg <= 5, 1000 points")


#: lattice periods (j1, j2) with |j1|, |j2| <= 9 and j1 = j2 (mod 3)
_TILING_SHIFTS = np.array(
    [(j1, j2) for j1 in range(-9, 10) for j2 in range(-9, 10) if (j1 - j2) % 3 == 0]
).T


def _tiling_hits(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Half-open Omega membership of every translate, one row per point."""
    u, v = t1[:, None] + _TILING_SHIFTS[0], t2[:, None] + _TILING_SHIFTS[1]
    return _omega_mask(u, v, -u - v)


def check_tiling(rng) -> CheckResult:
    """Each point has exactly one lattice translate inside the hexagon."""
    t1, t2 = _random_points(rng, 300, span=4.0)
    bad = int(np.count_nonzero(_tiling_hits(t1, t2).sum(axis=1) != 1))
    return _result("lattice.tiling_uniqueness", bad, 0, "300 points, shifts |j| <= 9")


def check_coordinates(rng) -> CheckResult:
    """Cartesian round trips, the Jacobian factor, and the hexagon area."""
    x1, x2 = rng.uniform(-5, 5, size=(500, 2)).T
    t1, t2, t3 = from_cartesian(x1, x2)
    y1, y2 = to_cartesian(t1, t2)
    worst = np.max([np.abs(y1 - x1), np.abs(y2 - x2), np.abs(t1 + t2 + t3)])
    # linear map matrix from unit steps in (t1, t2)
    ox, oy = to_cartesian(0.0, 0.0)
    a1 = to_cartesian(1.0, 0.0)
    a2 = to_cartesian(0.0, 1.0)
    det = (a1[0] - ox) * (a2[1] - oy) - (a2[0] - ox) * (a1[1] - oy)
    worst = max(worst, abs(det - 2.0 * math.sqrt(3.0) / 3.0))
    # shoelace area of the fundamental hexagon in (t1, t2)
    verts = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    twice = sum(
        x0 * y1_ - x1_ * y0
        for (x0, y0), (x1_, y1_) in zip(verts, verts[1:] + verts[:1])
    )
    worst = max(worst, abs(0.5 * twice - OMEGA_AREA))
    return _result("lattice.coordinates_roundtrip", worst, 1e-12, "500 points + area/Jacobian")


# --------------------------------------------------------------------------
# fourier checks
# --------------------------------------------------------------------------

def check_orthonormality_small(rng) -> CheckResult:
    """Brute-force Gram matrix on the n=16 grid, degrees <= 3."""
    grid = make_grid(16)
    k1, k2, _ = frequency_arrays(3)
    rows = phi_values(k1, k2, *grid.t_arrays)
    # einsum, not @: a threaded BLAS product this small is slow and its time noisy
    gram = np.einsum("ik,jk->ij", rows, rows.conj()) * grid.weight
    worst = float(np.abs(gram - np.eye(len(k1))).max())
    return _result("fourier.orthonormality_small", worst, 1e-12, "n=16, deg <= 3")


def check_roundtrip_parseval(rng) -> CheckResult:
    """analyze(synthesize(f)) returns f; grid Parseval holds."""
    f = families.random_spectrum(6, rng)
    grid = make_grid(64)
    g = synthesize(f, grid)
    back = analyze(g, 6)
    worst = max_coeff_diff(f, back)
    mass = math.fsum(abs(c) ** 2 for c in f.coeffs.tolist())
    mean_sq = float(pairwise_sum(np.abs(g.values) ** 2)) * grid.weight
    worst = max(worst, abs(mass - mean_sq))
    return _result("fourier.roundtrip_parseval", worst, 1e-12, "deg 6 at n=64")


def check_lp_norms(rng) -> CheckResult:
    """Monotonicity in p and absolute homogeneity."""
    f = families.random_spectrum(5, rng)
    grid = make_grid(48)
    g = synthesize(f, grid)
    ladder = [1.0, 1.5, 2.0, 3.0, 6.0, math.inf]
    norms = [lp_norm(g, p) for p in ladder]
    worst = 0.0
    for lo, hi in zip(norms, norms[1:]):
        worst = max(worst, lo - hi)
    c = -2.5 + 1.25j
    scaled = GridFunction(grid, c * g.values)
    for p in (1.0, 2.0, math.inf):
        worst = max(worst, abs(lp_norm(scaled, p) - abs(c) * lp_norm(g, p)))
    return _result("fourier.lp_norms", worst, 1e-12, "p ladder + homogeneity")


def check_json_io(rng) -> CheckResult:
    """Round trip is exact; malformed documents are rejected with context."""
    f = families.random_spectrum(4, rng)
    back = spectral_from_json_dict(json.loads(json.dumps(spectral_to_json_dict(f))))
    bad = 0 if max_coeff_diff(f, back) == 0.0 else 1

    doc = {"max_degree": 2, "entries": [{"k": [1, 2, 0], "re": 1.0, "im": 0.0}]}
    try:
        spectral_from_json_dict(doc)
        bad += 1
    except SpectralFormatError as exc:
        if "(1, 2, 0)" not in str(exc):
            bad += 1
    for broken in (
        {"max_degree": 1, "entries": [], "extra": 1},
        {"max_degree": 1, "entries": [{"k": [1, -1, 0], "re": 0.0, "im": 0.0, "x": 1}]},
        {
            "max_degree": 1,
            "entries": [
                {"k": [1, -1, 0], "re": 1.0, "im": 0.0},
                {"k": [1, -1, 0], "re": 2.0, "im": 0.0},
            ],
        },
        {"max_degree": 0, "entries": [{"k": [1, -1, 0], "re": 1.0, "im": 0.0}]},
    ):
        try:
            spectral_from_json_dict(broken)
            bad += 1
        except SpectralFormatError:
            pass
    return _result("fourier.json_io", bad, 0, "round trip + 5 reject cases")


def check_determinism(rng) -> CheckResult:
    """Repeated evaluation is bit-identical."""
    f = families.random_spectrum(5, rng)
    grid = make_grid(32)
    a = synthesize(f, grid).values
    b = synthesize(f, grid).values
    bad = 0 if np.array_equal(a, b) else 1
    ca = analyze(GridFunction(grid, a), 5)
    cb = analyze(GridFunction(grid, b), 5)
    if max_coeff_diff(ca, cb) != 0.0:
        bad += 1
    x = rng.standard_normal(10001)
    if pairwise_sum(x) != pairwise_sum(x.copy()):
        bad += 1
    return _result("fourier.determinism", bad, 0, "synthesize/analyze/pairwise repeats")


def check_pairwise_sum(rng) -> CheckResult:
    """Tree summation matches fsum to near machine precision."""
    x = rng.standard_normal(100000)
    exact = math.fsum(memoryview(x))  # the floats in place, with no list of them
    err = abs(float(pairwise_sum(x)) - exact) / (1.0 + abs(exact))
    m = rng.standard_normal((257, 33))
    col = pairwise_sum(m, axis=0)
    err2 = max(
        abs(float(col[j]) - math.fsum(memoryview(m[:, j]))) for j in range(m.shape[1])
    )
    return _result("fourier.pairwise_sum", max(err, err2), 1e-12, "vs fsum, flat + axis")


# --------------------------------------------------------------------------
# kernel checks
# --------------------------------------------------------------------------

def check_classical_kernel(rng) -> CheckResult:
    """Point values, the derivative bound, and the two code paths."""
    worst = 0.0
    for z in rng.uniform(-8, 8, size=20):
        worst = max(worst, abs(kernels.classical_kernel_deriv(0.0, z, 0) - 1.0))
    for rho in (0.1, 0.5, 0.9):
        exact = (1.0 + rho) / (1.0 - rho)
        worst = max(
            worst, abs(kernels.classical_kernel_deriv(rho, 0.0, 0) - exact) / exact
        )
    rhos = rng.uniform(0.0, 0.99, size=1500)
    zs = rng.uniform(-math.pi, math.pi, size=1500)
    for r in range(kernels.R_MAX + 1):
        vals = kernels.classical_kernel_deriv(rhos, zs, r)
        bound = 2.0 * math.factorial(r) / (1.0 - rhos) ** (r + 1)
        worst = max(worst, float((np.abs(vals) / bound).max()) - 1.0)
        # the iterative table path agrees with the direct formula
        for rho in (0.2, 0.7):
            tab = kernels._classical_deriv_table(rho, zs[:50], r)[r]
            direct = kernels.classical_kernel_deriv(rho, zs[:50], r)
            scale = float(np.abs(direct).max()) + 1.0
            worst = max(worst, float(np.abs(tab - direct).max()) / scale)
    return _result("kernels.classical_kernel", worst, 1e-12, "values, bound, table path")


def check_weight_derivatives(rng) -> CheckResult:
    """Partial-fraction weight derivatives vs independently reduced forms."""
    worst = 0.0
    refs3 = (
        lambda rho: -3.0 * (1.0 + rho * rho) / (1.0 + rho) ** 4,
        lambda rho: 6.0 * (rho * rho - rho + 2.0) / (1.0 + rho) ** 5,
        lambda rho: 6.0 * (-3.0 * rho * rho + 6.0 * rho - 11.0) / (1.0 + rho) ** 6,
    )
    refs2 = (
        lambda rho: (1.0 - rho) / (1.0 + rho) ** 3,
        lambda rho: 2.0 * (rho - 2.0) / (1.0 + rho) ** 4,
        lambda rho: 6.0 * (3.0 - rho) / (1.0 + rho) ** 5,
    )
    for rho in np.linspace(0.0, 0.95, 20):
        d3, d2 = kernels._weight_derivs(rho, 3)
        for order in (1, 2, 3):
            scale = 1.0 + abs(refs3[order - 1](rho))
            worst = max(worst, abs(d3[order] - refs3[order - 1](rho)) / scale)
            worst = max(worst, abs(d2[order] - refs2[order - 1](rho)))
    return _result("kernels.weight_derivatives", worst, 1e-12, "orders 1-3, exact forms")


def check_closed_vs_series(rng) -> CheckResult:
    """Truncated shell series sits within its own tail bound of the closed form."""
    t1, t2 = _random_points(rng, 200, span=3.0)
    t3 = -(t1 + t2)
    worst = 0.0
    for rho in (0.3, 0.6):
        closed = kernels.hex_kernel_closed_values(rho, t1, t2, t3)
        for cutoff in (10, 25):
            vals = kernels.hex_deriv_series_values(rho, t1, t2, t3, 0, cutoff)
            tail = kernels.series_tail_bound(rho, cutoff)
            gap = float(np.abs(closed - vals.real).max())
            worst = max(worst, gap - tail, float(np.abs(vals.imag).max()) - 1e-12)
    return _result("kernels.closed_vs_series", worst, 1e-12, "tail bound certifies")


def check_kernel_values(rng) -> CheckResult:
    """Positivity, the center value, and the rho=0 degeneration."""
    t1, t2 = _random_points(rng, 500, span=3.0)
    t3 = -(t1 + t2)
    worst = 0.0
    for rho in (0.1, 0.4, 0.7, 0.95):
        vals = kernels.hex_kernel_closed_values(rho, t1, t2, t3)
        if not np.all(vals > 0.0):
            worst = max(worst, 1.0)
        center = kernels.hex_kernel_closed_values(rho, [0.0], [0.0], [0.0])[0]
        exact = (1.0 + 4.0 * rho + rho * rho) / (1.0 - rho) ** 2
        worst = max(worst, abs(center - exact) / exact)
    z0 = kernels.hex_kernel_closed_values(0.0, t1, t2, t3)
    worst = max(worst, float(np.abs(z0 - 1.0).max()))
    return _result("kernels.kernel_values", worst, 1e-12, "positive, center, rho=0")


def check_hex_deriv_order_zero(rng) -> CheckResult:
    """Order-0 derivative is the closed form, bit for bit."""
    t1, t2 = _random_points(rng, 100, span=3.0)
    t3 = -(t1 + t2)
    bad = 0
    for rho in (0.2, 0.8):
        a = kernels.hex_kernel_deriv_values(rho, t1, t2, t3, 0)
        b = kernels.hex_kernel_closed_values(rho, t1, t2, t3)
        if not np.array_equal(a, b):
            bad += 1
    return _result("kernels.hex_deriv_order_zero", bad, 0, "exact equality")


def check_hex_deriv_finite_difference(rng) -> CheckResult:
    """First rho-derivative vs central differences, 1e-5 relative."""
    t1, t2 = _random_points(rng, 50, span=3.0)
    t3 = -(t1 + t2)
    h = 1e-5
    worst = 0.0
    for rho in (0.2, 0.5, 0.8):
        d1 = kernels.hex_kernel_deriv_values(rho, t1, t2, t3, 1)
        fd = (
            kernels.hex_kernel_closed_values(rho + h, t1, t2, t3)
            - kernels.hex_kernel_closed_values(rho - h, t1, t2, t3)
        ) / (2 * h)
        worst = max(worst, float((np.abs(fd - d1) / (1.0 + np.abs(d1))).max()))
    return _result("kernels.hex_deriv_fd", worst, 1e-5, "r=1, central step 1e-5")


def check_hex_deriv_series(rng) -> CheckResult:
    """Leibniz derivatives vs the termwise-differentiated series at cutoff 600."""
    t1, t2 = _random_points(rng, 64, span=3.0)
    t3 = -(t1 + t2)
    rho = 0.7
    orders = (1, 2, 3)
    series = kernels.hex_deriv_series_values(rho, t1, t2, t3, orders, 600)
    worst = 0.0
    for r, row in zip(orders, series):
        closed = kernels.hex_kernel_deriv_values(rho, t1, t2, t3, r)
        worst = max(worst, float(np.abs(closed - row.real).max()))
    return _result("kernels.hex_deriv_series", worst, 1e-7, "rho=0.7, r <= 3")


def check_bernstein_order_zero(rng) -> CheckResult:
    """The kernel has unit mean, so the r=0 integral is 1."""
    worst = 0.0
    for rho in (0.3, 0.9):
        res = kernels.bernstein_integral(rho, 0)
        worst = max(worst, abs(res.value - 1.0))
        if not res.full_resolution:
            worst = max(worst, 1.0)
    return _result("kernels.bernstein_order_zero", worst, 1e-6, "auto grid")


def check_product_integrals(rng) -> CheckResult:
    """Product integrals respect their explicit factorial bounds and exact values."""
    worst = 0.0
    for rho in (0.3, 0.7):
        one = 1.0 - rho
        worst = max(worst, abs(kernels.product_integral(rho, [0]) - 1.0))
        worst = max(worst, abs(kernels.product_integral(rho, [0, 0]) - 1.0))
        exact3 = (1.0 + rho**3) / (1.0 - rho**3)
        worst = max(
            worst,
            abs(kernels.product_integral(rho, [0, 0, 0]) - exact3) / exact3 * 1e-3,
        )
        for r1 in (1, 2, 3):
            bound = 2.0 * math.factorial(r1) / one**r1
            val = kernels.product_integral(rho, [r1])
            worst = max(worst, (val - bound) / bound)
        for orders in ((1, 1), (2, 1)):
            r = sum(orders)
            bound = 4.0 * math.prod(math.factorial(o) for o in orders) / one**r
            val = kernels.product_integral(rho, orders)
            worst = max(worst, (val - bound) / bound)
        for orders in ((1, 0, 0), (1, 1, 1)):
            r = sum(orders)
            bound = 8.0 * math.prod(math.factorial(o) for o in orders) / one ** (r + 1)
            val = kernels.product_integral(rho, orders)
            worst = max(worst, (val - bound) / bound)
    return _result("kernels.product_integrals", worst, 1e-6, "bounds + exact r=0 values")


# --------------------------------------------------------------------------
# summation checks
# --------------------------------------------------------------------------

def check_lambda_multipliers(rng) -> CheckResult:
    """Range, edge cases, the frozen sample, and the full-sum identity."""
    worst = 0.0
    if means.lambda_shells(np.array([2]), 2, 0.5)[0][0] != 0.75:
        worst = 1.0
    for r in (4, 5):
        if np.any(means.lambda_shells(np.array([0, 1, 3]), r, 0.3)[0] != 1.0):
            worst = 1.0
    radii = (0.0, 0.4, 0.9)
    lam = means.lambda_shells(np.array([1, 5, 17]), 1, np.array(radii))[0]  # a row per radius
    worst = max(worst, float(np.max(np.abs(lam - [[x**nu for nu in (1, 5, 17)] for x in radii]))))
    rhos = rng.uniform(0.0, 0.999, size=6)
    nus = np.array([0, 1, 2, 5, 20, 60, 200])
    for r in (1, 2, 3, 6):
        lam, comp = means.lambda_shells(nus, r, rhos)
        if not np.all((0.0 <= lam) & (lam <= 1.0)):
            worst = max(worst, 1.0)
        worst = max(worst, float(np.max(np.abs(lam + comp - 1.0)[:, nus <= 60])))
    return _result("means.lambda_multipliers", worst, 1e-12, "nu <= 200, r <= 6")


def check_operator_equivalence(rng) -> CheckResult:
    """Spectral multipliers vs the derivative-form assembly."""
    worst = 0.0
    for _ in range(30):
        f = families.random_spectrum(10, rng)
        r = int(rng.integers(1, 5))
        for rho in (0.3, 0.7):
            a = means.apply_operator(f, rho, r)
            b = means.apply_operator_derivative_form(f, rho, r)
            worst = max(worst, max_coeff_diff(a, b))
    return _result("means.operator_equivalence", worst, 1e-12, "30 spectra, r <= 4")


def check_saturation(rng) -> CheckResult:
    """Low-degree spectra are exact fixed points; higher shells strictly damp."""
    bad = 0
    for r in (1, 2, 3):
        f = families.random_spectrum(r - 1, rng) if r > 1 else families.basis_family(0).function
        out = means.apply_operator(f, 0.6, r)
        bad += int(np.count_nonzero(_at_support(f, out) != f.coeffs))
        lam = means.lambda_shells(np.arange(r, r + 31), r, np.array([0.05, 0.5, 0.95]))[0]
        bad += int(np.count_nonzero(~(lam < 1.0)))
    return _result("means.saturation", bad, 0, "fixed points exact, damping strict")


def check_deviation_monotone(rng) -> CheckResult:
    """Shell deviations decrease as rho increases."""
    worst = 0.0
    nus = np.array([3, 7, 20])
    for r in (1, 2, 3):
        comps = means.lambda_shells(nus, r, np.linspace(0.05, 0.95, 19))[1]  # a row per radius
        worst = max(worst, float(np.max(np.diff(comps, axis=0)[:, nus >= r])))
    # strictly decreasing in exact arithmetic; allow a few ulp of rounding
    return _result("means.deviation_monotone", worst, 1e-14, "complement falls in rho")


def _at_support(a, b) -> np.ndarray:
    """b's coefficients at the frequencies of a, in a's order; 0 off b's support."""
    span = max(a.degree(), b.degree())
    side = 2 * span + 1
    on_b = np.zeros(side * side, dtype=complex)  # b on the square |k1|, |k2| <= span
    on_b[(b.k1 + span) * side + b.k2 + span] = b.coeffs
    return on_b[(a.k1 + span) * side + a.k2 + span]


def _relative_gap_on(a, b) -> float:
    """max |a_k - b_k| / (1 + |a_k|) over the support of a, b_k = 0 off b's."""
    d = a.coeffs - _at_support(a, b)
    gap = np.hypot(d.real, d.imag) / (1.0 + np.hypot(a.coeffs.real, a.coeffs.imag))
    return float(gap.max(initial=0.0))


def check_commutation(rng) -> CheckResult:
    """Radial derivative of the Poisson integral = rho^n times the n-th derivative."""
    worst = 0.0
    f = families.random_spectrum(10, rng)
    for n in (1, 2, 3, 4):
        for rho in (0.3, 0.8):
            a = means.poisson_integral_spectral(means.radial_derivative(f, n), rho)
            b = fourier.scale_shells(
                f,
                lambda shells: np.array([
                    (rho**n) * (math.perm(nu, n) * rho ** (nu - n) if nu >= n else 0.0)
                    for nu in shells.tolist()
                ]),
            )
            worst = max(worst, _relative_gap_on(a, b))
    return _result("means.commutation", worst, 1e-13, "n <= 4, two float paths")


def check_functionals_on_basis(rng) -> CheckResult:
    """Deviation and derivative functionals take known values on basis monomials."""
    nu = 5
    f = families.basis_family(nu).function
    grid = make_grid(32)
    worst = 0.0
    for r in (1, 2):
        for rho in (0.3, 0.6):
            comp = float(means.lambda_shells(np.array([nu]), r, rho)[1][0])
            for p in (1.0, 2.0, math.inf):
                worst = max(worst, abs(means.deviation_ladder(f, [rho], r, p, grid)[0] - comp))
                ref = math.perm(nu, r) * rho**nu
                worst = max(worst, abs(means.m_p(f, rho, r, p, grid) - ref) / ref)
            worst = max(worst, abs(means.deviation_ladder(f, [rho], r, 2.0, None)[0] - comp))
    return _result("means.functionals_on_basis", worst, 1e-10, "|phi_k| = 1 everywhere")


def check_deviation_l2_paths(rng) -> CheckResult:
    """Grid deviation agrees with the exact spectral L2 form."""
    f = families.random_spectrum(8, rng)
    grid = make_grid(64)
    worst = 0.0
    for r in (1, 3):
        on_grid = means.deviation_ladder(f, [0.4, 0.85], r, 2.0, grid)
        exact = means.deviation_ladder(f, [0.4, 0.85], r, 2.0, None)
        worst = max(worst, *(abs(a - b) for a, b in zip(on_grid, exact)))
    return _result("means.deviation_l2_paths", worst, 1e-10, "deg 8 at n=64")


def check_remainder_coefficients(rng) -> CheckResult:
    """Complement multiplier equals the one-dimensional remainder integral."""
    worst = 0.0
    for nu, r, rho in ((5, 2, 0.5), (30, 4, 0.9), (12, 3, 0.1), (25, 2, 0.75)):
        lhs, rhs = means.remainder_coefficient_check(nu, r, rho)
        worst = max(worst, abs(lhs - rhs))
    return _result("means.remainder_coefficients", worst, 1e-10, "exact rational integral")


def check_remainder_norm(rng) -> CheckResult:
    """Exact remainder-integral norm reproduces the direct deviation."""
    f = families.random_spectrum(8, rng)
    grid = make_grid(64)
    worst = 0.0
    for r, rho in ((2, 0.5), (3, 0.8)):
        a = means.remainder_integral_norm(f, rho, r, 2.0, grid)
        b = means.deviation_ladder(f, [rho], r, 2.0, grid)[0]
        worst = max(worst, abs(a - b))
    return _result("means.remainder_norm", worst, 1e-8, "exact integral vs tails")


def check_kfun(rng) -> CheckResult:
    """K-functional bracket: exact zeros, basis bound, sandwich ordering."""
    worst = 0.0
    poly = families.polynomial_family(1).function
    worst = max(worst, means.kfun_ladder(poly, [0.25], 2, 2.0)[0].upper)
    nu, n = 4, 2
    f = families.basis_family(nu).function
    for est in means.kfun_ladder(f, [0.5, 0.25, 0.125], n, 2.0):
        cap = min(1.0, est.delta**n * math.perm(nu, n))
        worst = max(worst, est.upper - cap * (1.0 + 1e-12))
    shell = families.shell_decay_family(3.0, 24).function
    ratios = []
    for est in means.kfun_ladder(shell, [0.5, 0.25, 0.125, 0.0625], 1, 2.0):
        if est.upper == 0.0 and est.lower_proxy > 1e-13:
            worst = max(worst, 1.0)
        if est.upper > 0.0:
            ratios.append(est.lower_proxy / est.upper)
    detail = f"lower/upper max ratio {max(ratios):.3f}" if ratios else "degenerate"
    return _result("means.kfun", worst, 1e-12, detail)


def check_poisson_convolution(rng) -> CheckResult:
    """Spectral Poisson integral vs the direct grid convolution."""
    f = families.random_spectrum(3, rng)
    grid = make_grid(48)
    rho = 0.5
    spectral = synthesize(means.poisson_integral_spectral(f, rho), grid)
    conv = means.poisson_integral_convolution(synthesize(f, grid), rho)
    diff = GridFunction(grid, spectral.values - conv.values)
    return _result(
        "means.poisson_convolution", lp_norm(diff, 2.0), 1e-8, "n=48, deg 3, rho=0.5"
    )


ALL_CHECKS = [
    check_shell_enumeration,
    check_fold,
    check_fold_phase_invariance,
    check_tiling,
    check_coordinates,
    check_orthonormality_small,
    check_roundtrip_parseval,
    check_lp_norms,
    check_json_io,
    check_determinism,
    check_pairwise_sum,
    check_classical_kernel,
    check_weight_derivatives,
    check_closed_vs_series,
    check_kernel_values,
    check_hex_deriv_order_zero,
    check_hex_deriv_finite_difference,
    check_hex_deriv_series,
    check_bernstein_order_zero,
    check_product_integrals,
    check_lambda_multipliers,
    check_operator_equivalence,
    check_saturation,
    check_deviation_monotone,
    check_commutation,
    check_functionals_on_basis,
    check_deviation_l2_paths,
    check_remainder_coefficients,
    check_remainder_norm,
    check_kfun,
    check_poisson_convolution,
]


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where that is unknown or fork is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _run_check(checks: list, seed: int, i: int) -> CheckResult:
    return checks[i](np.random.default_rng([seed, i]))


def _taken(queue: int):
    """Check indices taken from the queue, one at a time, until it is empty.  A
    one-byte read of a pipe is atomic, so no two processes take the same index."""
    while byte := os.read(queue, 1):
        yield byte[0]


def _start_helper(checks: list, seed: int, queue: int):
    """Fork a process that runs the checks it takes from the queue and writes
    one JSON line [i, *fields] per finished check to a pipe of its own;
    returns its pid and the read end of the pipe."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "w", encoding="utf-8") as pipe:
                for i in _taken(queue):
                    row = json.dumps([i, *astuple(_run_check(checks, seed, i))])
                    print(row, file=pipe, flush=True)  # dumps escapes every newline
        finally:
            os._exit(0)  # no cleanup of the caller's state, no traceback
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    """Run the whole battery; results in ALL_CHECKS order.

    Check i draws from np.random.default_rng([seed, i]), so its result does
    not depend on the process that runs it.  The indices wait in one queue,
    a pipe, and the caller and w - 1 forked helpers (w being the usable
    CPUs) each take the next index whenever they are idle; w = 1, or a fork
    that fails, leaves the caller to take them all.  After every helper is
    reaped, each index with no complete result line, because its check
    raised or its helper died, is rerun here in index order, so a check
    that raises raises in the caller.  Every helper is reaped before this
    returns or raises.  Python 3.12 and later warn (DeprecationWarning) on
    a fork from a process that runs several threads, such as a BLAS pool;
    the fork still happens.
    """
    checks = list(ALL_CHECKS)
    indices = bytes(range(len(checks)))  # ValueError past 256 checks, before any pipe
    width = max(1, min(_usable_cpus(), len(checks)))
    results = [None] * len(checks)
    queue, feed = os.pipe()
    os.write(feed, indices)  # far below a pipe's capacity
    os.close(feed)  # an empty queue now reads as end of file
    helpers = []  # (pid, read end of its pipe)
    try:
        for _ in range(width - 1):
            try:
                helpers.append(_start_helper(checks, seed, queue))
            except OSError:  # no process to be had: the caller takes the rest
                break
        for i in _taken(queue):
            results[i] = _run_check(checks, seed, i)
        for _, pipe in helpers:
            for line in pipe.read().split(b"\n")[:-1]:  # every newline-terminated line
                i, *fields = json.loads(line)
                results[i] = CheckResult(*fields)
    finally:
        while os.read(queue, len(checks)):  # after a raise, helpers find the queue empty
            pass
        os.close(queue)
        for pid, pipe in helpers:
            pipe.close()  # a helper still writing stops on the broken pipe
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped elsewhere
                pass
    for i, result in enumerate(results):
        if result is None:
            results[i] = _run_check(checks, seed, i)
    return results
