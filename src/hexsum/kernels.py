"""Poisson-type kernels for the hexagonal lattice.

The lattice kernel P(rho, t) = sum_nu rho^nu sum_{k in J_nu} phi_k(t)
factors through the circle kernel

    P_rho(z) = (1 - rho^2) / (1 - 2 rho cos z + rho^2)

evaluated at the three pairwise coordinate differences z1, z2, z3 of a
point t:

    P(rho, t) = W3(rho) * P_rho(z1) P_rho(z2) P_rho(z3)
              + W2(rho) * (P_rho(z1)P_rho(z2) + P_rho(z1)P_rho(z3)
                           + P_rho(z2)P_rho(z3)),

with rational weights W3 = (1 - rho^3)/(1 + rho)^3 and
W2 = rho/(1 + rho)^2.  High-order rho-derivatives come from the general
Leibniz rule: the circle-kernel derivatives have the closed form
2 r! Re(e^{irz} / (1 - rho e^{iz})^{r+1}) and the weight derivatives come
from partial fractions in 1 + rho, summed exactly in integers and rounded
once.
The expansion is one coefficient tensor C[i, j, k] over the factor orders,
on one factor table per coordinate: rows for the orders 0..r, then a row
of ones that stands for an absent factor.

Grid sample (m1, m2) has z1 = 2 pi a / n, z3 = 2 pi b / n and
z2 = -2 pi (a + b) / n, (a, b) = ((m1 + 2 m2) mod n, (m1 - m2) mod n) (Li,
Sun and Xu, SIAM J. Numer. Anal. 46, 2008).  So grid integrals need the
circle-kernel tables only at the n roots of unity, and the kernel is a few
small matrix products in a and b times a Hankel factor in a + b.  The map
m -> (a, b) is onto Z_n^2 unless 3 | n, when it covers a = b (mod 3) thrice.
The tables are even, and the 12 maps of D6 (permutations of z1, z2, z3 and
z -> -z) permute the grid, so a grid integral sums one fundamental domain
{0 <= a <= b, a + 2b <= n}, about a twelfth of the points, each weighted by
the size of its orbit.  The Leibniz tensor is symmetric in its factors; a
product integral |T_i(z1) T_j(z2) T_k(z3)| takes its tensor averaged over
the permutations of the factors, on the tables |T|.  Both build only
their tensor: one entry, _kernel_mean, checks rho, picks the grid, builds
the tables and sums.  The domain goes in row blocks, each evaluated and
reduced by the pairwise tree in two buffers allocated once per call and
reused across blocks, since new block-sized arrays would fault in their
pages again on every block.  The orbit weights take no third buffer: on a
block they are two 1-D step functions read through strided views, one in
b - a and one in a + 2b, times |F| in place, with the few edge points of
the domain written back times their own orbit sizes.

The truncated shell series serves as an independent oracle, with one
entry, hex_deriv_series_values: order 0 is the kernel itself, with the
tail sum_{nu > c} 6 nu rho^nu in closed form (series_tail_bound), and
order r its termwise r-th rho-derivative.  It sums every
frequency of every shell term by term, ring by ring: shell nu is the six
edges k = nu c_i + j c_{i+2}, 0 <= j < nu, of the unit-shell corners
c_0..c_5, so its sum is sum_i phi_{nu c_i} sum_{j < nu} phi_{j c_{i+2}},
one cumsum along nu of the corner exponentials: O(cutoff) work per point.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .fourier import TWO_PI_OVER_3, HexGrid, _tree_sum
from .lattice import _check_int

#: largest derivative order of the kernels and their integrals
R_MAX = 6

#: auto-scaled quadrature never exceeds this resolution
GRID_CAP = 4096


def _check_rho(rho, ndims: tuple[int, ...] | None = (0,), name: str = "rho") -> None:
    """Raise ValueError naming ``name`` unless rho has ndims dimensions (None: any)
    and its radii lie in [0, 1); a float or int is compared without numpy."""
    if isinstance(rho, (float, int)):
        ndim, outside = 0, [] if 0.0 <= rho < 1.0 else [rho]
    else:
        a = np.asarray(rho)
        ndim, outside = a.ndim, a[~((0.0 <= a) & (a < 1.0))]
    if ndims is not None and ndim not in ndims:
        what = " or ".join(("one radius", "a 1-D array of radii")[d] for d in ndims)
        raise ValueError(f"{name} must be {what}, got a {ndim}-D {type(rho).__name__}")
    if len(outside):
        raise ValueError(f"{name} must lie in [0, 1), got {float(outside[0])}")


# --------------------------------------------------------------------------
# weights
# --------------------------------------------------------------------------

#: W3 and W2 as sums of c_m x^-m, m = 0, 1, ..., in x = 1 + rho
_PARTIAL_FRACTIONS = ((-1, 3, -3, 2), (0, 1, -1))


def _weight_derivs(rho: float, r: int) -> tuple[list[float], list[float]]:
    """rho-derivatives of orders 0..r of W3 and W2, each correctly rounded.

    W3 = -1 + 3/x - 3/x^2 + 2/x^3 and W2 = 1/x - 1/x^2, and the s-th
    derivative of x^-m is (-1)^s m (m+1) ... (m+s-1) x^-(m+s).  With rho = a/b
    exactly, 1/x = b/(a+b), so each derivative is one quotient of integers
    over (a+b)^(3+s), and int / int rounds it once, correctly.
    """
    a, b = float(rho).as_integer_ratio()
    d = a + b
    triple, pair = [], []
    for s in range(r + 1):
        for coeffs, out in zip(_PARTIAL_FRACTIONS, (triple, pair)):
            num = sum(
                c * math.prod(range(m, m + s)) * b ** (m + s) * d ** (3 - m)
                for m, c in enumerate(coeffs)
            )
            out.append(num / ((-1) ** s * d ** (3 + s)))
    return triple, pair


# --------------------------------------------------------------------------
# circle kernel
# --------------------------------------------------------------------------

def classical_kernel_deriv(rho, z, r: int):
    """r-th rho-derivative of the circle kernel P_rho(z).

    r=0 is the kernel itself; r >= 1 uses the residue-style closed form
    2 r! Re(e^{irz} / (1 - rho e^{iz})^{r+1}).  Always bounded by
    2 r! / (1 - rho)^{r+1} in modulus.  ``rho`` and ``z`` may be arrays,
    broadcast against each other; scalars give a float, evaluated as a
    one-element array so that it equals the array evaluation bit for bit.
    """
    _check_rho(rho, None)
    _check_int("derivative order", r, 0, R_MAX)
    scalar = np.ndim(rho) == np.ndim(z) == 0
    rho, z = np.atleast_1d(np.asarray(rho, dtype=float), np.asarray(z, dtype=float))
    if r == 0:
        value = (1.0 - rho * rho) / (1.0 - 2.0 * rho * np.cos(z) + rho * rho)
    else:
        w = np.cos(z) + 1j * np.sin(z)
        value = 2.0 * math.factorial(r) * (w**r / (1.0 - rho * w) ** (r + 1)).real
    return float(value[0]) if scalar else value


def _classical_deriv_table(rho: float, z: np.ndarray, r_max: int) -> np.ndarray:
    """Factor table at angles z: rows 0..r_max the circle-kernel
    rho-derivatives of those orders, row r_max + 1 all ones (an absent factor).

    Built iteratively from u = 1/(1 - rho e^{iz}): row j is
    2 j! Re(e^{ijz} u^{j+1}); row 0 is (1 - rho^2)|u|^2.
    """
    w = np.exp(1j * np.asarray(z, dtype=float))
    u = 1.0 / (1.0 - rho * w)
    table = np.empty((r_max + 2,) + w.shape)
    row = table[0, ...]  # a view, also for a scalar z
    np.multiply(u.real, u.real, out=row)
    row += u.imag * u.imag
    row *= 1.0 - rho * rho
    table[-1] = 1.0
    w *= u  # the step e^{iz} u from one order to the next
    fact = 1
    for j in range(1, r_max + 1):
        u *= w
        fact *= j
        table[j] = 2.0 * fact * u.real
    return table


# --------------------------------------------------------------------------
# hexagonal kernel, closed form
# --------------------------------------------------------------------------

def _z_arrays(t1, t2, t3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t1, t2, t3 = (np.asarray(t, dtype=float) for t in (t1, t2, t3))
    return TWO_PI_OVER_3 * (t2 - t3), TWO_PI_OVER_3 * (t3 - t1), TWO_PI_OVER_3 * (t1 - t2)


def hex_kernel_closed_values(rho: float, t1, t2, t3) -> np.ndarray:
    """Closed-form lattice kernel P(rho, t) on coordinate arrays; strictly positive."""
    _check_rho(rho)
    # copies: a view of row 0 would keep its table's row of ones alive
    p1, p2, p3 = (_classical_deriv_table(rho, z, 0)[0].copy() for z in _z_arrays(t1, t2, t3))
    (w3,), (w2,) = _weight_derivs(rho, 0)
    return w3 * (p1 * p2 * p3) + w2 * (p1 * p2 + p1 * p3 + p2 * p3)


# --------------------------------------------------------------------------
# shell series oracle
# --------------------------------------------------------------------------

def series_tail_bound(rho: float, cutoff: int) -> float:
    """Exact value of sum_{nu > cutoff} 6 nu rho^nu."""
    _check_rho(rho)
    _check_int("cutoff", cutoff)
    if rho == 0.0:
        return 0.0
    one = 1.0 - rho
    return 6.0 * rho ** (cutoff + 1) * ((cutoff + 1) * one + rho) / (one * one)


#: most entries in one (6, cutoff + 1, points) corner table
_RING_ENTRIES = 1 << 14


def _shell_sums(cutoff: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """S[nu] = sum_{k in J_nu} phi_k at the phases (x, y), for nu = 0..cutoff.

    phi_k = e^{i (k1 x + k2 y)}.  The unit-shell corners, in order, are
    c_0..c_5 = (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), so
    c_{i+1} - c_i = c_{i+2}, and c_{i+3} = -c_i makes rows 3..5 of the corner
    table phi_{nu c_i} the conjugates of rows 0..2 (the phases are real).
    """
    nu = np.arange(cutoff + 1, dtype=float)
    table = np.zeros((6, cutoff + 1, len(x)), dtype=complex)
    np.multiply(nu[:, None], np.array([x, y, y - x])[:, None, :], out=table[:3].imag)
    np.exp(table[:3], out=table[:3])
    np.conjugate(table[:3], out=table[3:])
    edges = np.cumsum(table, axis=1)  # edges[l, nu - 1] = sum_{j < nu} phi_{j c_l}
    sums = np.empty((cutoff + 1, len(x)), dtype=complex)
    sums[0] = 1.0
    # corner i pairs with the edge along c_{i+2}
    sums[1:] = (table[:4, 1:] * edges[2:, :-1]).sum(axis=0)
    sums[1:] += (table[4:, 1:] * edges[:2, :-1]).sum(axis=0)
    return sums


def hex_deriv_series_values(rho: float, t1, t2, t3, r, cutoff: int) -> np.ndarray:
    """Termwise-differentiated shell series: sum_nu nu!/(nu-r)! rho^{nu-r} (shell sum).

    r = 0 is the kernel's own series, whose tail series_tail_bound(rho,
    cutoff) bounds.  ``r`` is one order or a sequence of orders; a sequence
    returns one row per order from a single series evaluation.  Values are
    complex; the exact sum is real, so the imaginary part is a rounding
    diagnostic.  The shell sums come from _shell_sums, with the points in
    chunks that bound its corner table.  Each row is one real product of
    its weights with the shell sums (real and imaginary parts interleaved),
    row by row, so a sequence equals its single orders bit for bit.
    """
    _check_rho(rho)
    _check_int("cutoff", cutoff)
    orders = np.atleast_1d(r).tolist()
    weights = np.zeros((len(orders), cutoff + 1))
    for row, o in zip(weights, orders):
        _check_int("derivative order", o, 0, R_MAX)
        row[o:] = [math.perm(nu, o) * rho ** (nu - o) for nu in range(o, cutoff + 1)]
    t1, t2, t3 = (np.asarray(t, dtype=float) for t in (t1, t2, t3))
    x, y = TWO_PI_OVER_3 * (t1 - t3).ravel(), TWO_PI_OVER_3 * (t2 - t3).ravel()
    out = np.empty((len(orders), len(x)), dtype=complex)
    chunk = max(1, _RING_ENTRIES // (6 * (cutoff + 1)))
    for start in range(0, len(x), chunk):
        part = slice(start, start + chunk)
        sums = _shell_sums(cutoff, x[part], y[part]).view(float)
        for row, w in zip(out, weights):
            row[part] = (w @ sums).view(complex)
    return out.reshape(np.shape(r) + (len(x),))


# --------------------------------------------------------------------------
# hexagonal kernel derivatives (Leibniz over the closed form)
# --------------------------------------------------------------------------

def _leibniz_tensor(rho: float, r: int) -> np.ndarray:
    """C[i, j, k]: coefficient of d1[i] d2[j] d3[k] in the r-th rho-derivative.

    d1, d2, d3 are the derivative tables of the three circle factors; index
    r + 1 stands for an absent factor, whose table row is all ones.
    """
    fact = math.factorial
    coeffs = np.zeros((r + 2, r + 2, r + 2))
    for s, (w3, w2) in enumerate(zip(*_weight_derivs(rho, r))):
        for i in range(r - s + 1):
            for j in range(r - s - i + 1):
                k = r - s - i - j
                coeffs[i, j, k] = (fact(r) // (fact(s) * fact(i) * fact(j) * fact(k))) * w3
            j = r - s - i
            pair = (fact(r) // (fact(s) * fact(i) * fact(j))) * w2
            coeffs[i, j, r + 1] = coeffs[i, r + 1, j] = coeffs[r + 1, i, j] = pair
    return coeffs


def hex_kernel_deriv_values(rho: float, t1, t2, t3, r: int) -> np.ndarray:
    """r-th rho-derivative of the lattice kernel on coordinate arrays; r=0 is the closed form."""
    _check_rho(rho)
    _check_int("derivative order", r, 0, R_MAX)
    if r == 0:
        return hex_kernel_closed_values(rho, t1, t2, t3)
    d1, d2, d3 = (_classical_deriv_table(rho, z, r) for z in _z_arrays(t1, t2, t3))
    return np.einsum("ijk,i...,j...,k...->...", _leibniz_tensor(rho, r), d1, d2, d3)


# --------------------------------------------------------------------------
# kernel integrals
# --------------------------------------------------------------------------

def min_resolution(rho: float) -> int:
    """Smallest grid resolution resolving the kernel peak: ceil(32/(1-rho)).

    The kernel concentrates on a scale of 1-rho near the origin as
    rho -> 1; 32 samples across the peak keep the order-0 absolute-value
    integral below 1e-3 relative error (validated against its exact mean
    of 1).  For derivative orders r >= 1 that bound is unverified: at
    rho = 1 - 2^-5, r = 3 the auto grid is off by about 0.26% against
    n = 8192.
    """
    _check_rho(rho)
    return math.ceil(32.0 / (1.0 - rho))


#: most points in one block of the fundamental domain
_BLOCK_POINTS = 1 << 15

#: distinct permutations of a sorted triple (a, b, c), indexed by [a == b, b == c]
_PERMUTATIONS = np.array([[6, 3], [3, 1]])


def _domain_blocks(n: int):
    """Row blocks of the fundamental domain D = {0 <= a <= b, a + 2b <= n}.

    The grid point (a, b) stands for the angle triple (a, -(a + b), b) mod n,
    on which D6 acts by permutations and negation.  D holds one point of
    every orbit, on all of Z_n^2, or on the a = b (mod 3) sublattice when
    3 | n.  Yields (a, b, steps, edges): row and column indices, both in
    steps of 1 (or of 3, one residue class at a time), of a rectangle of at
    most _BLOCK_POINTS points (a[p], b[q]), and the orbit sizes of those
    points in two parts, so that no block-sized weight array is built.
    steps is two read-only (len(a), len(b)) views whose product is 12 on D
    and 0 on the rest of the rectangle.  With a = a[0] + step p and
    b = a[0] + step q, a <= b is j = q - p >= 0 and a + 2b <= n is
    k = p + 2q <= K = (n - 3 a[0]) // step, so the views are two 1-D step
    functions, 12 [j >= 0] read with strides (-1, 1) and [k <= K] read with
    strides (1, 2).  edges = (ip, iq, w) puts the orbit sizes w in place of
    12 at the points (a[ip], b[iq]) on the edges of D: 6 on each edge
    a = 0, a = b and a + 2b = n, 3 at (0, n/2), 2 at (n/3, n/3), 1 at
    (0, 0).  The sizes sum to the number of points covered.
    A point of D is the sorted triple (a, b, c), c = (n - a - b) mod n: its
    distinct permutations count 6, 3 or 1, and negation doubles them
    unless a = 0, where it maps (0, b, c) to the permutation (0, c, b).
    """
    step = 3 if n % 3 == 0 else 1
    for residue in range(step):
        rows = np.arange(residue, n // 3 + 1, step)
        start = 0
        while start < len(rows):
            a0 = int(rows[start])
            b = np.arange(a0, (n - a0) // 2 + 1, step)
            a = rows[start:start + max(1, _BLOCK_POINTS // len(b))]
            shape = (len(a), len(b))
            upper = np.zeros(len(a) + len(b) - 1)  # at j = 1 - len(a) .. len(b) - 1
            upper[len(a) - 1:] = 12.0
            lower = np.zeros(len(a) + 2 * len(b) - 2)  # at k = 0 .. len(a) + 2 len(b) - 3
            lower[:(n - 3 * a0) // step + 1] = 1.0
            s = upper.itemsize
            steps = (
                np.ndarray(shape, buffer=upper, offset=(len(a) - 1) * s, strides=(-s, s)),
                np.ndarray(shape, buffer=lower, strides=(s, 2 * s)),
            )
            for view in steps:
                view.flags.writeable = False
            # row p holds the columns p..last[p]; the edges a = b, a + 2b = n
            # and a = 0 take their orbit sizes
            p = np.arange(len(a))
            last = (n - a - 2 * a0) // (2 * step)
            far = p[a + 2 * b[last] == n]
            top = np.arange(last[0] + 1) if a0 == 0 else p[:0]
            ip = np.concatenate([p, far, np.zeros_like(top)])
            iq = np.concatenate([p, last[far], top])
            ea, eb = a[ip], b[iq]
            ec = (n - ea - eb) % n
            perms = _PERMUTATIONS[(ea == eb).astype(int), (eb == ec).astype(int)]
            yield a, b, steps, (ip, iq, perms * np.where(ea == 0, 1.0, 2.0))
            start += len(a)


def _grid_mean_abs(table: np.ndarray, coeffs: np.ndarray, grid: HexGrid) -> float:
    """Grid mean of |F| = |sum_ijk C[i, j, k] T[i](z1) T[j](z2) T[k](z3)|.

    T = table holds even rows at the n roots of unity, and C = coeffs is
    symmetric in its three axes.  So F is invariant under D6 (z -> -z and
    the permutations of z1, z2, z3), and the grid sum runs over the
    fundamental domain of _domain_blocks only, each point weighted by the
    size of its orbit.  A block is a few small matrix products in a and b
    times the Hankel factor T[j](z2) in a + b, a strided view of T[j]
    gathered at the block's len(a) + len(b) - 1 sums, reduced by the
    zero-padded pairwise tree of pairwise_sum; fsum combines the blocks, so
    reruns agree bit for bit.
    Every block is evaluated and reduced in the same two buffers, allocated
    once per call: the products go into them in place, and _tree_sum reads
    the block's values from the first and halves them inside the second.
    The orbit sizes take no third buffer: |F| is multiplied in place by
    the two step-function views of _domain_blocks, and the edge values,
    read before, are written back times their sizes.  So a value is
    |F| * 12 * 1 inside D, |F| * 0 outside and |F| * w on an edge, the same
    bits as |F| times a weight array.  Block-sized arrays fault in every
    4 KiB page each time they are mapped, so fresh ones per block would
    fault on every block; with the two buffers, a warm call at n = 512 or
    1024 takes 96 minor faults after import hexsum.cli (2 cores, numpy 2.4).
    """
    n, r = grid.n, coeffs.shape[0] - 2
    slices = np.flatnonzero(np.any(coeffs, axis=(0, 2))).tolist()
    step = 3 if n % 3 == 0 else 1
    vbuf = tbuf = np.empty(0)
    totals = []
    for a, b, (upper, lower), (ip, iq, edge_w) in _domain_blocks(n):
        a_table, b_table = table[:, a].T, table[:, b]
        shape, size = upper.shape, upper.size
        # T[j][-(a[p] + b[q]) mod n] with a[p] + b[q] = 2 a[0] + step (p + q)
        at_sums = table.take((-(2 * a[0] + step * np.arange(sum(shape) - 1))) % n, axis=1)
        row, s = at_sums.strides
        hankel = np.ndarray((len(table),) + shape, buffer=at_sums, strides=(row, s, s))
        if len(vbuf) < size:  # tbuf is also _tree_sum's work, 3/4 of the padded m
            m = 1 << (size - 1).bit_length()
            vbuf, tbuf = np.empty(m), np.empty(m)
        vals, term = vbuf[:size].reshape(shape), tbuf[:size].reshape(shape)
        for i, j in enumerate(slices):
            out = term if i else vals
            np.matmul(a_table @ coeffs[:, j, :], b_table, out=out)
            if j <= r:
                out *= hankel[j]
            if i:
                vals += term
        np.abs(vals, out=vals)
        edges = vals[ip, iq]
        vals *= upper
        vals *= lower
        vals[ip, iq] = edges * edge_w
        totals.append(float(_tree_sum(vbuf[:size], tbuf)))
    return math.fsum(totals) * step * grid.weight


class BernsteinResult(NamedTuple):
    value: float
    grid_n: int
    full_resolution: bool


def _kernel_mean(rho: float, coeffs, grid: HexGrid | None, absolute=False) -> BernsteinResult:
    """_grid_mean_abs of the tensor coeffs on the factor table at rho (its
    moduli if ``absolute``).  The grid must resolve min_resolution(rho) up to
    GRID_CAP: None auto-scales to the larger of 64 and that, and a coarser
    grid raises.  ``full_resolution`` is False on a grid capped below it.
    """
    full = min_resolution(rho)
    need = min(full, GRID_CAP)
    if grid is None:
        grid = HexGrid(max(64, need))
    elif grid.n < need:
        raise ValueError(f"grid resolution {grid.n} is below the required {need} for rho={rho}")
    roots = (2.0 * math.pi / grid.n) * np.arange(grid.n)
    table = _classical_deriv_table(rho, roots, coeffs.shape[0] - 2)
    if absolute:
        table = np.abs(table)
    return BernsteinResult(_grid_mean_abs(table, coeffs, grid), grid.n, grid.n >= full)


def bernstein_integral(rho: float, r: int, grid: HexGrid | None = None) -> BernsteinResult:
    """Mean over the hexagon of |r-th rho-derivative of the kernel|.

    ``grid=None`` auto-scales the resolution; ``full_resolution`` is False
    when the grid is capped below min_resolution(rho).
    """
    _check_rho(rho)  # before _leibniz_tensor reads rho
    _check_int("derivative order", r, 0, R_MAX)
    return _kernel_mean(rho, _leibniz_tensor(rho, r), grid)


def product_integral(rho: float, orders: Sequence[int], grid: HexGrid | None = None) -> float:
    """Mean over the hexagon of |product of circle-factor derivatives|.

    One order integrates a single factor at z1, two the pair (z1, z2),
    three all three coordinates; ``orders`` gives the derivative order of
    each factor.
    """
    if np.ndim(orders) != 1:
        raise ValueError(f"orders must be a sequence of derivative orders, got {orders!r}")
    if not 1 <= len(orders) <= 3:
        raise ValueError(f"product_integral takes 1 to 3 orders, got {len(orders)}")
    for o in orders:
        _check_int("derivative order", o, 0, R_MAX)
    r = max(orders)
    coeffs = np.zeros((r + 2, r + 2, r + 2))
    coeffs[tuple(orders) + (r + 1,) * (3 - len(orders))] = 1.0
    # |T_i T_j T_k| = |T_i| |T_j| |T_k| is linear in the tensor on the |T|
    # tables, so its grid sum is that of the tensor averaged over the axis
    # permutations, which _grid_mean_abs takes
    coeffs = sum(np.transpose(coeffs, s) for s in itertools.permutations(range(3))) / 6
    return _kernel_mean(rho, coeffs, grid, absolute=True).value
