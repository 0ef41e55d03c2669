"""Taylor-Abel-Poisson summation of hexagonal Fourier series.

The order-r mean A_{rho,r} keeps the first r terms of the Taylor
expansion (in 1 - rho) of the Poisson integral.  Spectrally it scales
the shell-nu coefficients by

    lambda_{nu,r}(rho) = 1                                       nu < r,
                         sum_{j<r} C(nu,j) (1-rho)^j rho^{nu-j}  nu >= r,

so polynomials of degree below r are fixed points and every higher
shell is strictly damped.  For nu >= r the multiplier and its complement
are the binomial tails P[X <= r-1] and P[X >= r] of X ~ Bin(nu, 1-rho),
I_rho(nu-r+1, r) and I_{1-rho}(r, nu-r+1) in DLMF 8.17.5.  The tail
beyond r - 1/2 from the mean is summed term by term (Loader's saddle-point
form where a binomial coefficient leaves the float range), the other is 1
minus it, so nothing cancels as rho -> 1 and every shell costs the same.
Below r they are exactly 1.0 and 0.0.  The same operator is sum_{k<r}
(1-rho)^k/k! times the k-th rho-derivative of the Poisson integral,
implemented here too as an independent float path for cross-checking.

Every mean, deviation, derivative norm and K-functional candidate is a
shell multiplier applied to f; rho and r are plain numbers throughout,
except that lambda_shells also takes a ladder's radii as one array.
Every operator is scale_shells(f, fn_of_shells), fn_of_shells mapping the
array of f's occupied shells to their multipliers.  This module keeps the
multipliers, operators and ladders; every norm comes from fourier's
_norm_plan, which turns multipliers into norms, and the ladder functions
build one plan for all their radii or scales.  Deviations admit an exact
integral representation integrating the r-th derivative of the Poisson
integral against (1-zeta)^{r-1} from rho to 1; remainder_integral_norm
evaluates it shell by shell in exact integer arithmetic, rounded once,
and takes its norm from the plan too.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .fourier import GridFunction, HexGrid, SpectralFunction, _QUIET, _norm_plan, scale_shells
from .kernels import _check_rho, hex_kernel_closed_values
from .lattice import _check_int


# --------------------------------------------------------------------------
# multipliers
# --------------------------------------------------------------------------

#: most (pair, term) table entries in one _binomial_tail block
_TAIL_ENTRIES = 1 << 14


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def lambda_shells(shells: np.ndarray, r: int, rho) -> tuple[np.ndarray, np.ndarray]:
    """Shell multipliers lambda_{nu,r}(rho) = P[Bin(nu, 1-rho) <= r-1] at each of
    shells, and their complements P[Bin(nu, 1-rho) >= r]; both in [0, 1], each
    accurate down to underflow, and each entry independent of the others.  A
    1-D array of radii rho gives one row per radius, its own call bit for bit.
    When no shell reaches r, every row is exactly (1, 0), with no term search
    and no float of r, so any order r past the shells costs nothing."""
    _check_rho(rho, (0, 1))
    _check_int("order r", r, 1)
    shells = np.asarray(shells)
    if shells.dtype.kind not in "iu":  # bool is kind "b"
        raise ValueError(f"shell indices must be integers, got dtype {shells.dtype}")
    if shells.min(initial=0) < 0:
        raise ValueError("shell index must be nonnegative")
    radii = np.atleast_1d(np.asarray(rho, dtype=float))
    lam, comp = np.ones((len(radii), len(shells))), np.zeros((len(radii), len(shells)))
    high = shells >= r
    n_high = np.count_nonzero(high)
    if not n_high:
        return (lam, comp) if np.ndim(rho) else (lam[0], comp[0])
    nu, at = np.tile(shells[high], len(radii)), np.repeat(radii, n_high)
    lower = nu >= (r - 0.5) / (1.0 - at)  # the mean nu (1-rho) is past r - 1/2
    tail = np.empty(len(nu))
    step = max(1, _TAIL_ENTRIES // max(map(len, _orders(r))))
    for s in range(0, len(nu), step):
        block = slice(s, s + step)
        tail[block] = _binomial_tail(nu[block], r, at[block], lower[block])
    other = 1.0 - tail
    lam[:, high] = np.where(lower, tail, other).reshape(len(radii), n_high)
    comp[:, high] = np.where(lower, other, tail).reshape(len(radii), n_high)
    return (lam, comp) if np.ndim(rho) else (lam[0], comp[0])


@functools.lru_cache(maxsize=None)
def _orders(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """i = 1..r-1 (1..K past 532) with r - i, and k - 1 with 1/(r-1+k), k = 1..K, for the
    least K with prod_{k<=K} r/(r+k) * (r+K+1)/(K+1) <= 2^-56.  Callers only read them."""
    logs = itertools.accumulate(-math.log2(1 + k / r) for k in itertools.count(1))
    big = next(k for k, lg in enumerate(logs, 1) if lg + math.log2(1 + r / (k + 1)) <= -56)
    i, k = np.arange(1.0, r if r <= 532 else big + 1), np.arange(1.0, big + 1.0)
    return i, r - i, k - 1.0, 1.0 / (r - 1.0 + k)


def _binomial_tail(nu: np.ndarray, r: int, rho: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """P[X <= r-1] on the rows where lower, else P[X >= r], X ~ Bin(nu, 1-rho), nu >= r,
    with nu, rho and lower given per row: each row takes the tail beyond r - 1/2
    from the mean.

    Summed, one row per (radius, shell) pair, from t = P[X = r-1] by the term
    ratio, at most r/(r+k) past the first: the K terms of _orders(r) miss < 2^-56
    of the sum.  t is rho**nu at r = 1, else the quotients of C(nu, r-1)
    (1-rho)^(r-1) times rho^m in halves, or _loader_point past 531 quotients or
    the float range.  The two tails share one pass over t.
    """
    q, b = 1.0 - rho, r - 1
    i, r_minus_i, k_minus_1, inv_bk = _orders(r)
    m = nu - float(b)
    mi = m[:, None] + i  # C(nu, b) = prod (m + i) / i; lower ratios (r - i) / (m + i)
    sums = np.empty(len(m))
    for below, rows in ((True, lower), (False, ~lower)):
        if not rows.any():
            continue
        if below:
            terms = r_minus_i * (rho[rows] / q[rows])[:, None]
            terms /= mi[rows]
        else:  # ratios (m + 1 - k) / (b + k), 0 from k = m + 1 on
            terms = m[rows, None] - k_minus_1
            terms *= (q[rows] / rho[rows])[:, None] * inv_bk
        np.multiply.accumulate(terms, axis=1, out=terms)
        sums[rows] = below + np.add.reduce(terms, axis=1)
    if b == 0:
        return np.array([x**e for x, e in zip(rho.tolist(), m.tolist())]) * sums
    cq = np.multiply.reduce(mi * (q[:, None] / i), axis=1) if b <= 531 else np.full(len(m), np.inf)
    power = rho**m
    t = cq * power
    if not power.min() >= sys.float_info.min:  # in halves, neither underflows before t does
        thin = power < sys.float_info.min
        half = m[thin] // 2
        t[thin] = cq[thin] * rho[thin] ** half * rho[thin] ** (m[thin] - half)
    if not cq.max() < math.inf:
        huge = np.isinf(cq)
        t[huge] = _loader_point(nu[huge].astype(float), float(b), q[huge], rho[huge])
    return t * sums


def _loader_point(n: np.ndarray, x: float, q: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """C(n, x) q^x rho^(n-x), 0 < x < n, q = 1 - rho, in the saddle-point form of
    C. Loader, "Fast and accurate computation of binomial probabilities" (2000)."""
    k = np.stack(np.broadcast_arrays(n, x, n - x))  # n, x, n - x
    k2 = 1.0 / (k * k)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - k2 / 1188) * k2) * k2) * k2) / k
    small = np.vectorize(lambda v: math.lgamma(v + 1.0) - (v + 0.5) * math.log(v) + v)
    table = small(np.clip(k, 1.0, 15.0)) - 0.5 * math.log(2.0 * math.pi)
    stirlerr = np.where(k > 15, series, table)  # ln k! - ln(sqrt(2 pi k) (k/e)^k)
    mean = np.stack([n * q, n * rho])
    d = k[1:] - mean
    v = d / (k[1:] + mean)
    near = d * v + 2.0 * k[1:] * v * sum(v ** (2 * j) / (2 * j + 1) for j in range(1, 10))
    # deviances k ln(k/mean) + mean - k, by their series in v near the mean
    bd0 = np.where(np.abs(v) < 0.1, near, k[1:] * np.log(k[1:] / mean) + mean - k[1:])
    ln = stirlerr[0] - stirlerr[1] - stirlerr[2] - bd0[0] - bd0[1]
    return np.exp(ln) * np.sqrt(n / (2.0 * math.pi * x * (n - x)))


def _perm_shells(shells: np.ndarray, n: int) -> np.ndarray:
    """Radial-derivative multipliers nu!/(nu-n)! at each of shells (0 below n).

    Raises ValueError when a multiplier leaves the float range.
    """
    out = np.zeros(len(shells))
    for i, nu in enumerate(shells.tolist()):
        if nu >= n:
            try:
                if n > 170:  # nu!/(nu-n)! >= n! >= 171!, past the float range: skip the product
                    raise OverflowError
                out[i] = float(math.perm(nu, n))
            except OverflowError:
                raise ValueError(
                    f"order n={n}: nu!/(nu-n)! exceeds the float range at degree {nu}"
                ) from None
    return out


# --------------------------------------------------------------------------
# operators
# --------------------------------------------------------------------------

def apply_operator(f: SpectralFunction, rho: float, r: int) -> SpectralFunction:
    """A_{rho,r}(f): scale shell nu by lambda_{nu,r}(rho).

    Shells with multiplier exactly 1 pass through bitwise unchanged;
    rho=0 zeroes every shell nu >= r, leaving the partial sum S_{r-1}.
    """
    _check_rho(rho)  # one radius: lambda_shells also takes a ladder's
    return scale_shells(f, lambda shells: lambda_shells(shells, r, rho)[0])


def apply_operator_derivative_form(f: SpectralFunction, rho: float, r: int) -> SpectralFunction:
    """A_{rho,r}(f) assembled from Poisson-integral derivatives.

    Realizes sum_{k<r} (1-rho)^k/k! * d^k/drho^k P(f)(rho, .) through the
    spectral multipliers nu!/(nu-k)! rho^{nu-k}.  Mathematically equal to
    apply_operator; numerically an independent association of the same
    binomial terms (agreement within 1e-12 is a library contract).
    """
    _check_rho(rho)
    _check_int("order r", r, 1)

    def multiplier(nu: int) -> float:
        terms = []
        for k in range(min(r - 1, nu) + 1):
            outer = (1.0 - rho) ** k / math.factorial(k)
            inner = math.perm(nu, k) * rho ** (nu - k)
            terms.append(outer * inner)
        return math.fsum(terms)

    return scale_shells(f, lambda shells: np.array([multiplier(nu) for nu in shells.tolist()]))


def radial_derivative(f: SpectralFunction, n: int) -> SpectralFunction:
    """Order-n radial derivative: shell nu scaled by nu!/(nu-n)!, low shells dropped."""
    _check_int("derivative order n", n, 1)
    return scale_shells(f, lambda shells: _perm_shells(shells, n))


def poisson_integral_spectral(f: SpectralFunction, rho: float) -> SpectralFunction:
    """Poisson integral of f: shell nu scaled by rho^nu, each a Python float power
    (numpy's power of an array may round some differently)."""
    _check_rho(rho)
    return scale_shells(f, lambda shells: np.array([rho**nu for nu in shells.tolist()]))


def poisson_integral_convolution(g, rho: float):
    """Poisson integral by direct grid convolution (oracle path).

    Convolves the samples with closed-form kernel values over the same
    grid: out[m] = (1/N^2) sum_d g[m - d] K[d], indices cyclic per axis
    because a full (t1, t2) step of 3 is a lattice period.  Every one of
    the N^2 shifts d is summed, with no FFT: for each d1 the sum over d2
    is one real BLAS product of the rows shifted by d1 ([Re | Im] stacked)
    with the circulant matrix of K[d1, .].  O(N^4) — intended for
    cross-checks at small n, not production use.
    """
    grid = g.grid
    n = grid.n
    t1, t2, t3 = grid.t_arrays
    kern = hex_kernel_closed_values(rho, t1, t2, t3).reshape(n, n)
    parts = np.stack([g.values.real, g.values.imag]).reshape(2, n, n)
    lag = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n  # lag[j, m2] = m2 - j
    out = np.zeros((2 * n, n))
    for d1 in range(n):
        out += np.roll(parts, d1, axis=1).reshape(2 * n, n) @ kern[d1, lag]
    return GridFunction(grid, ((out[:n] + 1j * out[n:]) * grid.weight).ravel())


# --------------------------------------------------------------------------
# deviation and derivative norms
# --------------------------------------------------------------------------

@_QUIET
def deviation_ladder(
    f: SpectralFunction, rhos: list[float], r: int, p: float, grid: HexGrid | None
) -> list[float]:
    """||f - A_{rho,r}(f)||_p at each rho of rhos from one norm plan and one
    lambda_shells call; exact L2 when grid is None.  Formed with the
    complement multipliers, so there is no 1 - lambda cancellation."""
    _check_rho(rhos, (1,), "rhos")
    _check_int("order r", r, 1)
    shells, norm, _ = _norm_plan(f, p, grid)
    return [norm(comp) for comp in lambda_shells(shells, r, np.array(rhos, dtype=float))[1]]


@_QUIET
def m_p(
    f: SpectralFunction, rho: float, r: int, p: float, grid: HexGrid | None
) -> float:
    """||radial derivative of order r of the Poisson integral||_p at radius rho.

    Spectral multipliers nu!/(nu-r)! rho^nu (equal to rho^r times the r-th
    rho-derivative multipliers); exact L2 when grid is None, else on the
    grid.
    """
    _check_rho(rho)
    _check_int("order r", r, 1)
    shells, norm, _ = _norm_plan(f, p, grid)
    return norm(_perm_shells(shells, r) * rho**shells)


# --------------------------------------------------------------------------
# K-functional
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class KfunEstimate:
    """Two-sided smoothness estimate at scale delta, order n."""

    delta: float
    n: int
    upper: float
    lower_proxy: float
    argmin_candidate: str


def _check_deltas(deltas, name: str = "deltas") -> list[float]:
    """deltas as a list of floats if they are a 1-D array of scales in (0, 1/2];
    else ValueError naming ``name`` and the first entry outside, or the dimension."""
    scales = np.asarray(deltas, dtype=float)
    if scales.ndim != 1:
        got = f"a {scales.ndim}-D array"
    elif len(outside := scales[~((0.0 < scales) & (scales <= 0.5))]):  # NaN is outside too
        got = float(outside[0])
    else:
        return scales.tolist()
    raise ValueError(f"{name} must be a 1-D array of scales in (0, 1/2], got {got}")


@_QUIET
def kfun_ladder(
    f: SpectralFunction, deltas: list[float], n: int, p: float, grid: HexGrid | None = None
) -> list[KfunEstimate]:
    """Bracket the order-n K-functional of f at each scale delta of deltas.

    upper minimizes ||f - h||_p + delta^n ||h^[n]||_p over a finite
    candidate family, in this order: zero, f itself, the order-n means
    A_{zeta,n}(f) at zeta = 1 - delta 2^j (j = -2..2), and the partial
    sums of f cut at each occupied shell (a cut at an empty shell scores
    like the one below it); the first least score wins.  The mean at
    zeta = 1 - delta is the canonical near-minimizer, so upper has the
    right decay order.  lower_proxy is delta^n times the p-norm of the
    order-n radial derivative of the Poisson integral at rho = 1 - delta,
    a lower bound up to a constant depending only on n.

    One norm plan serves the ladder: the error and roughness norms of zero,
    f and the partial sums do not depend on delta and are taken once, those
    of each distinct mean (one lambda_shells call for every zeta in [0, 1))
    once, and only the lower proxy per delta.  For p=2 with grid=None both
    sides are exact from shell masses; otherwise a grid is required.
    """
    deltas = _check_deltas(deltas)
    _check_int("order n", n, 1)
    shells, norm, cut_norms = _norm_plan(f, p, grid)
    perm = _perm_shells(shells, n)
    zeros, ones = np.zeros(len(shells)), np.ones(len(shells))
    fixed = [("zero", norm(ones), norm(zeros)), ("identity", norm(zeros), norm(perm))]
    cut_names = [f"partial_sum({m})" for m in shells.tolist()]
    cut_err, cut_rough = cut_norms(ones, False), cut_norms(perm, True)
    ladder = [[1.0 - delta * 2.0**j for j in range(-2, 3)] for delta in deltas]
    zetas = list(dict.fromkeys(z for row in ladder for z in row if 0.0 <= z < 1.0))
    lam, comp = lambda_shells(shells, n, np.array(zetas))
    mean_norms = dict(zip(zetas, zip(map(norm, comp), map(norm, perm * lam))))
    estimates = []
    for delta, row in zip(deltas, ladder):
        dn = delta**n if n < 1075 else 0.0  # delta <= 1/2: 0.0 from n = 1075 on, no float of n
        scored = [(name, err + dn * rough) for name, err, rough in fixed]
        for zeta in row:
            if zeta in mean_norms:
                err, rough = mean_norms[zeta]
                scored.append((f"mean(zeta={zeta:.17g})", err + dn * rough))
        scored += zip(cut_names, (cut_err + dn * cut_rough).tolist())
        upper, winner = math.inf, "none"
        for name, score in scored:  # strict: the first least score wins
            if score < upper:
                upper, winner = score, name
        lower = dn * norm(perm * (1.0 - delta) ** shells)
        estimates.append(KfunEstimate(delta, n, upper, lower, winner))
    return estimates


# --------------------------------------------------------------------------
# remainder-integral identity
# --------------------------------------------------------------------------

def _remainder_integral(nu: int, r: int, rho: float) -> float:
    """(nu!/(nu-r)!)/(r-1)! * int_rho^1 zeta^{nu-r} (1-zeta)^{r-1} dzeta, 0.0 for nu < r.

    Evaluated exactly in integers and rounded once.  A float rho is a dyadic
    rational a/b, and with m = nu-r+1+j the binomial expansion of
    (1-zeta)^{r-1} integrates to sum_j C(r-1, j) (-1)^j (b^m - a^m) / (m b^m):
    over the common denominator L b^nu, L = lcm(m), the numerator is one
    integer, and int / int rounds the quotient correctly.  So the result is
    the exact integral correctly rounded, independent of the tail sum of
    lambda_shells and of any quadrature.
    """
    if nu < r:
        return 0.0
    a, b = float(rho).as_integer_ratio()
    ms = range(nu - r + 1, nu + 1)
    lcm = math.lcm(*ms)
    num = sum(
        (-1) ** j * math.comb(r - 1, j) * (b**m - a**m) * b ** (nu - m) * (lcm // m)
        for j, m in enumerate(ms)
    )
    return math.perm(nu, r) * num / (lcm * b**nu * math.factorial(r - 1))


def remainder_coefficient_check(nu: int, r: int, rho: float) -> tuple[float, float]:
    """Both sides of the shell-wise deviation identity.

    lhs: the complement multiplier 1 - lambda_{nu,r}(rho), the binomial
    tail of lambda_shells.  rhs: the integral
    (nu!/(nu-r)!)/(r-1)! * int_rho^1 zeta^{nu-r} (1-zeta)^{r-1} dzeta,
    exact and rounded once (_remainder_integral).  The two sides agree to
    1e-10 or better.
    """
    _check_int("order r", r, 2)
    _check_int("shell index nu", nu, r)
    _check_rho(rho)
    lhs = float(lambda_shells(np.array([nu]), r, rho)[1][0])
    return (lhs, _remainder_integral(nu, r, rho))


@_QUIET
def remainder_integral_norm(
    f: SpectralFunction, rho: float, r: int, p: float, grid: HexGrid | None
) -> float:
    """||integral form of f - A_{rho,r}(f)||_p; exact L2 when grid is None.

    Integrates the r-th rho-derivative of the Poisson integral of f
    against (1-zeta)^{r-1}/(r-1)! over [rho, 1], shell by shell: each
    shell's integral is the exact rational one of _remainder_integral,
    rounded once, so one unit coefficient gives remainder_coefficient_check's
    rhs bit for bit.  Requires r >= 2 (at r = 1 the identity degenerates
    to the plain Poisson deviation).  The norm comes from the norm plan,
    so a grid that aliases two coefficients raises ValueError.
    """
    _check_rho(rho)
    _check_int("order r", r, 2)
    shells, norm, _ = _norm_plan(f, p, grid)
    return norm(np.array([_remainder_integral(nu, r, rho) for nu in shells.tolist()]))
