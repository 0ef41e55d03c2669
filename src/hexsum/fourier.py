"""Fourier analysis for hexagon-periodic functions.

The orthonormal basis on the fundamental hexagon Omega is

    phi_k(t) = exp((2 pi i / 3) (k1 t1 + k2 t2 + k3 t3)),

indexed by zero-sum integer triples k.  Grid averages over the uniform
n x n sampling (t1, t2) = (3 m1 / n, 3 m2 / n) reproduce integrals over
Omega exactly for trigonometric polynomials of degree d whenever 4 d < n,
because frequency differences in the (t1, t2)-dual chart are bounded by
2 d per component.

The transforms are 2-D DFTs, since phi_k(m) = exp(2 pi i ((k1 - k3) m1 +
(k2 - k3) m2) / n) on the grid (Li, Sun and Xu, SIAM J. Numer. Anal. 46,
2008); numpy's pocketfft is deterministic, so reruns agree bit for bit.

A SpectralFunction is read through its canonical support arrays f.k1, f.k2,
f.shell and f.coeffs.  Supports from outside pass _support_checks once; the
library's own spectra on frequency_arrays' tables are stored as built.

Every norm of f with its shells rescaled comes from one norm plan,
_norm_plan(f, p, grid): the exact L2 norm from the shell masses when grid
is None, else the grid p-norm of one inverse FFT, refused with ValueError
on a grid where two coefficients share a DFT bin.  The means' ladders,
remainder_integral_norm and SpectralFunction.l2_norm all go through it.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np
import numpy.fft  # noqa: F401 - loaded with the module, not on first use

from .lattice import _check_int, _is_int, fold_arrays, frequency_arrays

TWO_PI_OVER_3 = 2.0 * math.pi / 3.0
#: numpy overflow warnings off: inf and nan in a norm are results, handled or
#: reported.  Use it as a decorator: the decorator form may nest, a with block not.
_QUIET = np.errstate(over="ignore", invalid="ignore")

def exactness_threshold(max_degree: int) -> int:
    """Least grid resolution n > 4 max_degree: a grid with n samples per axis
    integrates degree-d polynomials exactly when n > 4 d, and analyze() warns
    below this resolution."""
    return 4 * max_degree + 1


class SpectralFormatError(ValueError):
    """Raised when a serialized spectral function violates the format."""


class ResolutionWarning(UserWarning):
    """Grid too coarse for the requested analysis degree."""


# --------------------------------------------------------------------------
# deterministic reductions
# --------------------------------------------------------------------------

def pairwise_sum(values: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Sum with a fixed binary-tree reduction order.

    The array is zero-padded to a power of two and halved repeatedly, so
    the association order depends only on the length, never on chunking or
    thread count.  ``axis=None`` reduces the flattened array.  The sum is
    taken in np.sum's accumulator dtype, so bool and narrow integers widen
    (an empty input gives its zero), and float and complex keep theirs.
    """
    a = np.asarray(values)
    if axis is None:
        a = a.ravel()
    elif axis != 0:
        a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    empty = np.add.reduce(a[:0], axis=0, keepdims=True)  # an array even for dtype object
    if n == 0:
        return empty[0]
    a = a.astype(empty.dtype, copy=False)
    m = 1 << (n - 1).bit_length()
    total = _tree_sum(a, np.empty((3 * m // 4,) + a.shape[1:], dtype=a.dtype))
    return total.copy() if a.ndim > 1 else total


def _tree_sum(a: np.ndarray, work: np.ndarray) -> np.ndarray:
    """a[0] after zero-padding a to m entries on axis 0, m a power of two, and
    halving it, x[0::2] + x[1::2], until one entry is left.

    a is only read, and nothing is allocated: the padding is implicit, and
    the levels ping-pong between work[:m/2] and work[m/2:3m/4], so work
    needs 3m/4 entries.  The pairs, the pad and the order of every addition
    are those of the padded array, so the sum agrees with it bit for bit.
    """
    n = len(a)
    if n == 1:
        return a[0]
    m = 1 << (n - 1).bit_length()
    x, spare = work[:m // 2], work[m // 2:]
    half = n // 2
    np.add(a[0:2 * half:2], a[1:2 * half:2], out=x[:half])
    x[half:] = 0
    if n % 2:  # the last entry pairs with the first pad
        np.add(a[n - 1:], x[half:half + 1], out=x[half:half + 1])
    while len(x) > 1:
        x, spare = np.add(x[0::2], x[1::2], out=spare[:len(x) // 2]), x
    return x[0]


# --------------------------------------------------------------------------
# basis evaluation
# --------------------------------------------------------------------------

def phi_values(k1, k2, t1, t2, t3) -> np.ndarray:
    """Basis monomials phi_k, k = (k1, k2, -k1 - k2), on coordinate arrays:
    one row per frequency, one column per point."""
    k1, k2 = np.asarray(k1)[..., None], np.asarray(k2)[..., None]
    t1, t2, t3 = (np.ravel(t) for t in (t1, t2, t3))
    return np.exp(1j * (TWO_PI_OVER_3 * (k1 * t1 + k2 * t2 + (-k1 - k2) * t3)))


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

class HexGrid:
    """Uniform n x n sampling of Omega with equal weights 1/n^2.

    Sample (m1, m2) sits at (t1, t2) = (3 m1 / n, 3 m2 / n), folded into
    Omega.  Points are stored row-major in (m1, m2).  ``t_arrays`` folds
    all n^2 points on each access; the transforms and the kernel integrals
    work from (m1, m2) directly and build no coordinate arrays.
    """

    def __init__(self, n: int):
        _check_int("grid resolution n", n, 4)
        self.n = int(n)
        try:
            self.weight = 1.0 / (self.n * self.n)
        except OverflowError:  # n named by its size: all its digits would swamp the line
            raise ValueError(
                f"grid resolution n of {self.n.bit_length()} bits has n^2 past the float range"
            ) from None

    @property
    def size(self) -> int:
        return self.n * self.n

    @property
    def t_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Folded homogeneous coordinates of all n^2 points."""
        m1, m2 = np.divmod(np.arange(self.size), self.n)
        return fold_arrays((3.0 * m1) / self.n, (3.0 * m2) / self.n)

    def __repr__(self) -> str:
        return f"HexGrid(n={self.n})"


def make_grid(n: int) -> HexGrid:
    """Build the uniform n x n sampling of Omega.  Requires n >= 4."""
    return HexGrid(n)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples aligned with a grid's point order."""

    grid: HexGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.size,):
            raise ValueError(
                f"expected {self.grid.size} samples for n={self.grid.n}, "
                f"got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)


# --------------------------------------------------------------------------
# spectral functions
# --------------------------------------------------------------------------

def _canonical_order(k1: np.ndarray, k2: np.ndarray, shell: np.ndarray) -> np.ndarray | None:
    """None when (shell, k1, k2) strictly increases, which also rules out
    duplicates; otherwise the stable lexsort order into canonical order."""
    up = k2[1:] > k2[:-1]
    up = (k1[1:] > k1[:-1]) | ((k1[1:] == k1[:-1]) & up)
    up = (shell[1:] > shell[:-1]) | ((shell[1:] == shell[:-1]) & up)
    return None if up.all() else np.lexsort((k2, k1, shell))


def _repeats(*keys: np.ndarray) -> np.ndarray:
    """Mask of positions 1.. of sorted key arrays whose keys all equal the
    previous position's."""
    return np.logical_and.reduce([a[1:] == a[:-1] for a in keys])


def _support_checks(k1, k2, shell, max_degree: int):
    """The masks, in input order, of entries with shell <= max_degree and of entries that
    repeat an earlier (shell, k1, k2), and the canonical order (None if already canonical)."""
    repeat = np.zeros(len(shell), dtype=bool)
    order = _canonical_order(k1, k2, shell)
    if order is not None:
        repeat[order[1:][_repeats(shell[order], k1[order], k2[order])]] = True
    return shell <= max_degree, repeat, order


def _integer_columns(columns, label: str) -> list[np.ndarray]:
    """Equal-length frequency columns as new int64 arrays, or as object
    arrays of ints when one lies past int64, for the store's bound to name.

    Integer and bool input takes one cast.  Other input is checked entry by
    entry, and a row holding an entry that is not an integer, such as 1.5,
    inf or NaN, raises ValueError naming it as ``label`` = row: a cast
    alone would truncate 1.5 to 1.
    """
    arrays = [np.asarray(c) for c in columns]
    if all(a.dtype.kind in "bi" for a in arrays):
        return [np.array(a, dtype=np.int64) for a in arrays]
    lists = [a.tolist() for a in arrays]
    for row in zip(*lists):
        if not all(map(_is_integral, row)):
            raise ValueError(f"frequency {label} = {row} must have integer entries")
    ints = [[int(x) for x in col] for col in lists]
    try:
        return [np.array(col, dtype=np.int64) for col in ints]
    except OverflowError:  # an int past int64, which the store's bound names
        return [np.array(col, dtype=object) for col in ints]


def _is_integral(x) -> bool:
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):  # complex, NaN, inf, ...
        return False


#: largest coefficient gap between f and its conjugate reflection that
#: SpectralFunction.is_real_symmetric accepts
_SYMMETRY_TOL = 1e-12

#: every stored k1 and k2, and every k_i and max_degree of a spectral file,
#: lies in (-2^62, 2^62), so every int64 sum k1 + k2 + k3 and shell is exact
_K_BOUND = 2**62


def _shell_groups(shell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(shell, return_inverse=True) for non-decreasing shells, as in
    a canonical support: run starts and a cumsum, no sort."""
    start = np.ones(len(shell), dtype=bool)
    start[1:] = shell[1:] != shell[:-1]
    return shell[start], np.cumsum(start) - 1


class _Key(tuple):
    """A (k1, k2, k3) key of SpectralFunction.items(): a tuple that also has
    as_tuple(), which the benchmark's round-trip step (perfbench/worker.py)
    calls on each key."""

    __slots__ = ()

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)


class SpectralFunction:
    """Finite map from zero-sum frequency triples to coefficients.

    The support is stored once, as the read-only canonical arrays ``f.k1``,
    ``f.k2``, ``f.shell`` and ``f.coeffs`` (k3 is implied); items() is a
    per-entry view of them.  ``from_arrays(k1, k2, coeffs)``, the mapping
    constructor and the JSON reader check a support from outside once;
    spectra the library builds on frequency_arrays' tables are stored as
    built.  ``max_degree`` is a declared bound on degree(k) of every stored
    key.  Iteration order is canonical (shell by shell, lexicographic within
    a shell), which downstream code relies on for reproducible rounding.
    Canonical input, such as a file written by ``save_spectral``, is stored
    in time linear in its length, without a sort.
    """

    def __init__(
        self,
        coeffs: Mapping[tuple[int, int, int], complex] | Iterable,
        max_degree: int | None = None,
    ):
        items = list(coeffs.items() if hasattr(coeffs, "items") else coeffs)
        keys = np.asarray([k for k, _ in items]).reshape(-1, 3)
        # an int past int64 fails the zero sum or _set_support's bound
        k1, k2, k3 = _integer_columns(keys.T, "(k1, k2, k3)")
        bad = np.flatnonzero(k1 + k2 + k3)
        if bad.size:
            i = bad[0]
            raise ValueError(f"frequency triple must sum to 0, got ({k1[i]}, {k2[i]}, {k3[i]})")
        self._set_support(k1, k2, [complex(c) for _, c in items], max_degree)

    @classmethod
    def from_arrays(cls, k1, k2, coeffs, max_degree=None) -> "SpectralFunction":
        """The spectrum with coefficient coeffs[j] at (k1[j], k2[j], -k1[j] - k2[j]),
        in any order; entries that are not integers, duplicates, |k1| or
        |k2| >= 2^62, a max_degree that is not an integer >= 0 and keys above
        it raise ValueError."""
        return cls.__new__(cls)._set_support(k1, k2, coeffs, max_degree)

    @classmethod
    def _built(cls, k1, k2, shell, coeffs, max_degree: int) -> "SpectralFunction":
        """The spectrum on a canonical support the library built: stored unchecked."""
        return cls.__new__(cls)._store(k1, k2, shell, coeffs, max_degree)

    def _set_support(self, k1, k2, coeffs, max_degree) -> "SpectralFunction":
        """Check lengths, the frequency bound, duplicates and max_degree, in
        that order, then store the support once as read-only canonical arrays.

        Input whose (shell, k1, k2) strictly increases is canonical and free
        of duplicates, so it is only copied: linear time.  Other input is
        sorted.  Either way the stored arrays are new, never the caller's.
        """
        if max_degree is not None:
            _check_int("max_degree", max_degree)
        k1, k2, coeffs = np.asarray(k1), np.asarray(k2), np.array(coeffs, dtype=complex)
        if k1.ndim != 1 or not k1.shape == k2.shape == coeffs.shape:
            raise ValueError("k1, k2 and coeffs must be 1-D arrays of one length")
        k1, k2 = _integer_columns((k1, k2), "(k1, k2)")
        # compared on both sides, since np.abs(-2^63) wraps to -2^63
        outside = (k1 <= -_K_BOUND) | (k1 >= _K_BOUND) | (k2 <= -_K_BOUND) | (k2 >= _K_BOUND)
        if outside.any():
            i = int(outside.argmax())
            a, b = int(k1[i]), int(k2[i])
            raise ValueError(f"frequency ({a}, {b}, {-a - b}) lies outside |k1|, |k2| < 2^62")
        shell = np.maximum(np.maximum(np.abs(k1), np.abs(k2)), np.abs(k1 + k2))
        deg = int(shell.max(initial=0))
        bound = deg if max_degree is None else max_degree
        inside, repeat, order = _support_checks(k1, k2, shell, bound)
        if repeat.any():
            i = order[repeat[order].argmax()]  # the repeat that comes first in canonical order
            raise ValueError(f"duplicate frequency ({k1[i]}, {k2[i]}, {-k1[i] - k2[i]})")
        if not inside.all():
            raise ValueError(f"coefficient at degree {deg} exceeds declared max_degree {max_degree}")
        if order is not None:
            k1, k2, shell, coeffs = k1[order], k2[order], shell[order], coeffs[order]
        return self._store(k1, k2, shell, coeffs, bound)

    def _store(self, k1, k2, shell, coeffs, max_degree: int) -> "SpectralFunction":
        """Keep arrays that already form a canonical support within max_degree, made
        read-only; spectra may share read-only tables, such as frequency_arrays'."""
        for a in (k1, k2, shell, coeffs):
            a.flags.writeable = False
        self.k1, self.k2, self.shell, self.coeffs = k1, k2, shell, coeffs
        self.max_degree = int(max_degree)
        return self

    # -- access ------------------------------------------------------------

    def items(self) -> list[tuple[tuple[int, int, int], complex]]:
        """(k1, k2, k3) keys and coefficients in canonical (shell-major,
        lexicographic) order."""
        return [
            (_Key((a, b, -a - b)), c)
            for a, b, c in zip(self.k1.tolist(), self.k2.tolist(), self.coeffs.tolist())
        ]

    @property
    def support_size(self) -> int:
        return len(self.k1)

    def degree(self) -> int:
        """Largest shell actually carrying a coefficient (0 if empty)."""
        return int(self.shell.max(initial=0))

    # -- diagnostics ---------------------------------------------------------

    def shell_masses(self) -> np.ndarray:
        """Sum of |coeff|^2 per shell, indexed 0..max_degree."""
        c = self.coeffs
        return np.bincount(self.shell, c.real * c.real + c.imag * c.imag, self.max_degree + 1)

    @_QUIET
    def l2_norm(self) -> float:
        """Exact L2 norm over Omega: the norm plan's, at multiplier 1 on every
        shell, so it is finite and nonzero wherever the norm is."""
        shells, norm, _ = _norm_plan(self, 2.0, None)
        return norm(np.ones(len(shells)))

    def is_real_symmetric(self) -> bool:
        """True when the coefficient at -k is within _SYMMETRY_TOL of the conjugate
        at k: f against its conjugate reflection, so a NaN coefficient gives False."""
        reflection = SpectralFunction.from_arrays(
            -self.k1, -self.k2, self.coeffs.conj(), self.max_degree
        )
        return max_coeff_diff(self, reflection) <= _SYMMETRY_TOL

    def __repr__(self) -> str:
        return f"SpectralFunction(support={self.support_size}, max_degree={self.max_degree})"


def scale_shells(
    f: SpectralFunction, multipliers: Callable[[np.ndarray], np.ndarray]
) -> SpectralFunction:
    """Scale every coefficient of f by its shell's multiplier; entries scaled to
    exactly 0 drop.

    ``multipliers`` is called once, with the ascending int64 array of the
    shells occupied in f, and returns one real or complex multiplier per shell.
    """
    shells, at = _shell_groups(f.shell)
    m = np.asarray(multipliers(shells), dtype=complex)[at]
    v = np.empty_like(f.coeffs)  # Python's complex product term by term; numpy's may fuse
    v.real = m.real * f.coeffs.real - m.imag * f.coeffs.imag
    v.imag = m.real * f.coeffs.imag + m.imag * f.coeffs.real
    keep = v != 0
    # any subsequence of a canonical support is canonical: no checks, no sort
    return SpectralFunction._built(f.k1[keep], f.k2[keep], f.shell[keep], v[keep], f.max_degree)


def max_coeff_diff(f: SpectralFunction, g: SpectralFunction) -> float:
    """Largest coefficientwise difference over the union of supports.  Equal
    supports take f - g; others are merged by one stable sort, where a
    frequency in both is an adjacent pair a, -b, whose sum rounds as a - b.
    np.hypot rounds each modulus as abs() does."""
    if np.array_equal(f.k1, g.k1) and np.array_equal(f.k2, g.k2):
        d = f.coeffs - g.coeffs
    else:
        k1, k2 = np.concatenate((f.k1, g.k1)), np.concatenate((f.k2, g.k2))
        order = np.lexsort((k2, k1))
        k1, k2 = k1[order], k2[order]
        first = np.ones(len(order), dtype=bool)  # first of its frequency
        first[1:] = (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1])
        d = np.add.reduceat(np.concatenate((f.coeffs, -g.coeffs))[order], np.flatnonzero(first))
    return float(np.max(np.hypot(d.real, d.imag), initial=0.0))


# --------------------------------------------------------------------------
# transforms
# --------------------------------------------------------------------------

def _dft_bins(k1: np.ndarray, k2: np.ndarray, n: int) -> np.ndarray:
    """Row-major n x n DFT bin ((k1 - k3) mod n, (k2 - k3) mod n) of phi_k."""
    return ((2 * k1 + k2) % n) * n + (k1 + 2 * k2) % n


def _grid_function(grid: HexGrid, bins: np.ndarray, coeffs: np.ndarray) -> GridFunction:
    """sum_j coeffs[j] phi_(k_j) on grid; coefficients sharing a bin add up in order."""
    spectrum = np.zeros(grid.size, dtype=complex)
    np.add.at(spectrum, bins, coeffs)
    return GridFunction(grid, np.fft.ifft2(spectrum.reshape(grid.n, -1), norm="forward").ravel())


def synthesize(f: SpectralFunction, grid: HexGrid) -> GridFunction:
    """Evaluate f on every grid point with one inverse 2-D FFT."""
    return _grid_function(grid, _dft_bins(f.k1, f.k2, grid.n), f.coeffs)


def analyze(g: GridFunction, max_degree: int) -> SpectralFunction:
    """Grid-average Fourier coefficients for all degrees <= max_degree, by one FFT.

    Exact for inputs sampled from polynomials of degree d when the grid
    satisfies 4 d < n; otherwise aliasing corrupts coefficients and a
    ResolutionWarning is emitted.
    """
    _check_int("max_degree", max_degree)
    n, least = g.grid.n, exactness_threshold(max_degree)
    if n < least:
        message = f"grid n={n} is below the exactness threshold {least} for degree {max_degree}"
        warnings.warn(message + "; coefficients may alias", ResolutionWarning, stacklevel=2)
    spectrum = np.fft.fft2(g.values.reshape(n, n), norm="forward").ravel()
    k1, k2, shell = frequency_arrays(max_degree)
    return SpectralFunction._built(k1, k2, shell, spectrum[_dft_bins(k1, k2, n)], max_degree)


def _check_p(p: float) -> None:
    if not p >= 1:  # NaN fails too
        raise ValueError(f"order p must satisfy p >= 1, got {p}")


def lp_norm(g: GridFunction, p: float) -> float:
    """Grid L_p norm with the uniform probability weight.

    p = inf returns the grid maximum, which for continuous integrands is a
    lower bound on the true sup-norm converging as the grid refines.  A sum
    of |v|^p beyond the normal range is taken again in units of max|v|.
    """
    _check_p(p)
    mags = np.abs(g.values)
    if math.isinf(p):
        return float(mags.max(initial=0.0))
    with np.errstate(over="ignore"):
        total = float(pairwise_sum(mags ** p)) * g.grid.weight
    if not sys.float_info.min <= total < math.inf:  # |v|^p overflowed or underflowed
        top = float(mags.max(initial=0.0))
        if 0.0 < top < math.inf:
            return top * (float(pairwise_sum((mags / top) ** p)) * g.grid.weight) ** (1.0 / p)
    return total ** (1.0 / p)


# --------------------------------------------------------------------------
# norms of shell-scaled functions
# --------------------------------------------------------------------------

#: sums of squares, in units of 2^-1074, that round to a normal float
_NORMAL = range(2**52, (2**1024 - 2**970) << 1074)


def _from_units(s: int) -> float:
    """s 2^-1074 for s in _NORMAL, correctly rounded: float() rounds the top 64
    bits once, their last bit set if any bit below them is (a sticky bit)."""
    k = max(s.bit_length() - 64, 0)
    top = s >> k
    return math.ldexp(float(top | (top << k != s)), k - 1074)


def _norm_plan(
    f: SpectralFunction, p: float, grid: HexGrid | None
) -> tuple[np.ndarray, Callable[[np.ndarray], float], Callable[[np.ndarray, bool], np.ndarray]]:
    """Norm plan of f: occupied shells, norm and cut_norms.

    norm(mult) is ||f with shell shells[i] scaled by mult[i]||_p, and
    cut_norms(w, upto) the array of norm(w * (shells <= m)) (upto) or
    norm(w * (shells > m)) over m in shells.  The only place that chooses
    how a norm is evaluated: grid=None is the exact L2 norm from the shell
    masses, else the grid p-norm of one inverse FFT of the scaled
    coefficients in their DFT bins.  Set-up happens once per plan, and cost
    follows the occupied shells.  An exact sum of squares that overflows,
    or underflows to a subnormal or 0, is summed again in units of its
    largest term (exact powers of two), so only norms beyond the float
    range are inf; callers run under _QUIET.  Exact cut_norms sums the
    terms t = w w masses of norm as integers t 2^1074, prefix by prefix,
    and rounds each sum once: norm's fsum bit for bit.  A sum outside
    _NORMAL takes norm, as does every cut if a mass is inf (norm sums
    0 * inf = nan).  A grid on which two nonzero coefficients share a DFT
    bin would alias them silently, so it raises ValueError, as does p < 1.
    """
    _check_p(p)
    coeffs = f.coeffs
    shells, at = _shell_groups(f.shell)
    if grid is None:
        if p != 2:
            raise ValueError("a grid is required for p != 2")
        masses = np.bincount(at, coeffs.real * coeffs.real + coeffs.imag * coeffs.imag)

        def norm(mult: np.ndarray) -> float:
            try:
                total = math.fsum((mult * mult * masses).tolist())
            except OverflowError:  # finite terms whose sum passes the float range
                total = math.inf
            if sys.float_info.min <= total < math.inf:
                return math.sqrt(total)
            if total == 0.0 and not mult.any():  # every term is 0, none 0 * inf = nan
                return 0.0
            # real, then imaginary parts: split here, since only the rescue reads them
            c_mant, c_exp = np.frexp(np.concatenate([coeffs.real, coeffs.imag]))
            m_mant, m_exp = np.frexp(mult[np.concatenate([at, at])])
            mant, exp = m_mant * c_mant, m_exp + c_exp
            top = int(np.max(exp, where=mant != 0, initial=-4096))  # below every exponent
            total = math.fsum(np.ldexp(mant * mant, 2 * (exp - top)).tolist())
            try:
                return math.ldexp(math.sqrt(total), top)
            except OverflowError:
                return math.inf
    else:
        bins = _dft_bins(f.k1, f.k2, grid.n)
        # a sort, not np.unique: its hash path is several times slower on a few
        # hundred bins and pays a one-off set-up in every process
        occupied = np.sort(bins[coeffs != 0])
        if np.any(occupied[1:] == occupied[:-1]):
            raise ValueError(
                f"grid n={grid.n} aliases degree {f.degree()}: two coefficients share "
                f"a DFT bin (any n > {4 * f.degree()} avoids it)"
            )

        def norm(mult: np.ndarray) -> float:
            return lp_norm(_grid_function(grid, bins, mult[at] * coeffs), p)

    def cut_norms(w: np.ndarray, upto: bool) -> np.ndarray:
        sums = [-1] * len(shells)  # outside _NORMAL
        if grid is None and np.isfinite(masses).all():
            terms = w * w * masses
            finite = np.isfinite(terms)
            mant, exp = np.frexp(np.where(finite, terms, 0.0))
            ints, shifts = (mant * 2.0**53).astype(np.int64).tolist(), (exp + 1021).tolist()
            # t 2^1074 = (mantissa 2^53) 2^(exponent + 1021), where a subnormal t's right
            # shift drops only zero bits; an inf term takes the sums past _NORMAL
            sums = list(itertools.accumulate(
                (a << e if e >= 0 else a >> -e) if ok else _NORMAL.stop
                for ok, a, e in zip(finite.tolist(), ints, shifts)
            ))
            sums = sums if upto else [sums[-1] - s for s in sums]
        return np.array([
            math.sqrt(_from_units(s)) if s in _NORMAL
            else norm(w * ((shells <= m) if upto else (shells > m)))
            for m, s in zip(shells.tolist(), sums)
        ])

    return shells, norm, cut_norms


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

_TOP_LEVEL_KEYS = {"max_degree", "entries"}
_ENTRY_KEYS = {"k", "re", "im"}


def spectral_to_json_dict(f: SpectralFunction) -> dict:
    entries = [
        {"k": [a, b, -a - b], "re": c.real, "im": c.imag}
        for a, b, c in zip(f.k1.tolist(), f.k2.tolist(), f.coeffs.tolist())
    ]
    return {"max_degree": f.max_degree, "entries": entries}


def save_spectral(f: SpectralFunction, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(spectral_to_json_dict(f), fh, indent=2)
        fh.write("\n")


def _as_float(value) -> float:
    """A JSON number as a float for the finiteness check: nan for anything
    else, ``bool`` included, and for an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


def spectral_from_json_dict(doc: dict) -> SpectralFunction:
    """Parse the output of spectral_to_json_dict, raising SpectralFormatError.

    One pass checks each entry's structure and collects k and re/im; the
    zero-sum, max_degree and duplicate (by _support_checks) and finiteness
    checks then run on arrays.  The message names the first entry with any
    fault, and at that entry the first failed check in the order structure,
    zero sum, max_degree, duplicate, finiteness.  The checked arrays are
    stored directly: as they are when canonical, as save_spectral writes
    them, else after one sort by the duplicate check's order.
    """
    if not isinstance(doc, dict):
        raise SpectralFormatError("spectral document must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise SpectralFormatError(f"unknown top-level fields: {sorted(unknown)}")
    missing = _TOP_LEVEL_KEYS - set(doc)
    if missing:
        raise SpectralFormatError(f"missing top-level fields: {sorted(missing)}")
    max_degree = doc["max_degree"]
    if not _is_int(max_degree) or not 0 <= max_degree < _K_BOUND:  # int64 store arithmetic
        raise SpectralFormatError(f"max_degree must be an integer in [0, 2^62): {max_degree!r}")
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise SpectralFormatError("entries must be a list")

    def fault(pos: int, zero_sum: bool, inside: bool, repeat: bool) -> SpectralFormatError:
        k = tuple(entries[pos]["k"])
        if not zero_sum:
            return SpectralFormatError(f"entry {pos}: frequency {k} does not sum to zero")
        if not inside:
            return SpectralFormatError(f"entry {pos}: frequency {k} exceeds max_degree {max_degree}")
        if repeat:
            return SpectralFormatError(f"entry {pos}: duplicate frequency {k}")
        return SpectralFormatError(f"entry {pos}: re/im must be finite numbers")

    ks: list[int] = []  # k1, k2, k3 of each entry, flat
    parts: list[float] = []  # re, im of each entry, nan unless a JSON number
    stop = None  # error of the first entry with a fault in its structure
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            stop = SpectralFormatError(f"entry {pos} must be an object")
            break
        if entry.keys() != _ENTRY_KEYS:
            unknown = set(entry) - _ENTRY_KEYS
            stop = SpectralFormatError(
                f"entry {pos}: unknown fields {sorted(unknown)}" if unknown
                else f"entry {pos}: missing fields {sorted(_ENTRY_KEYS - set(entry))}"
            )
            break
        k, re, im = entry["k"], entry["re"], entry["im"]
        if not (  # exact ints and floats, as json.load gives them, are tested first
            isinstance(k, list) and len(k) == 3
            and (type(k[0]) is type(k[1]) is type(k[2]) is int or all(map(_is_int, k)))
        ):
            stop = SpectralFormatError(f"entry {pos}: k must be a list of 3 integers, got {k!r}")
            break
        ks += k
        parts.append(re if type(re) is float else _as_float(re))
        parts.append(im if type(im) is float else _as_float(im))
    if ks and not -_K_BOUND < min(ks) <= max(ks) < _K_BOUND:
        # an entry with |k_i| >= 2^62 fails its zero sum or max_degree: the first ends the arrays
        pos = int(np.flatnonzero(np.abs(np.array(ks, dtype=object)) >= _K_BOUND)[0]) // 3
        stop = fault(pos, sum(ks[3 * pos:3 * pos + 3]) == 0, False, False)
        del ks[3 * pos:], parts[2 * pos:]
    k1, k2, k3 = np.array(ks, dtype=np.int64).reshape(-1, 3).T.copy()  # contiguous rows
    coeffs = np.array(parts, dtype=float).view(complex)
    shell = np.maximum(np.maximum(np.abs(k1), np.abs(k2)), np.abs(k3))
    zero_sum = k1 + k2 + k3 == 0
    inside, repeat, order = _support_checks(k1, k2, shell, max_degree)
    bad = np.flatnonzero(~(zero_sum & inside & ~repeat & np.isfinite(coeffs)))
    if bad.size:
        pos = int(bad[0])
        raise fault(pos, zero_sum[pos], inside[pos], repeat[pos])
    if stop is not None:
        raise stop
    if order is not None:  # the one sort, by the duplicate check's order
        k1, k2, shell, coeffs = k1[order], k2[order], shell[order], coeffs[order]
    return SpectralFunction._built(k1, k2, shell, coeffs, max_degree)


def load_spectral(path) -> SpectralFunction:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError, deep nesting
            raise SpectralFormatError(f"invalid JSON: {exc}") from exc
    return spectral_from_json_dict(doc)
