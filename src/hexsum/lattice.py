"""Geometry of the planar hexagonal lattice in homogeneous coordinates.

Points are triples t = (t1, t2, t3) with t1 + t2 + t3 = 0 and frequencies
are integer triples with the same zero-sum constraint, both handled as
coordinate arrays (index_shell is a per-entry view of frequency_arrays,
as (k1, k2, k3) tuples).  The fundamental domain

    Omega = {t : -1 <= t1 < 1, -1 <= t2 < 1, -1 < t3 <= 1}

is a half-open hexagon whose translates by the period lattice (zero-sum
integer triples j with j1 = j2 = j3 mod 3) tile the plane exactly once.
In the (t1, t2) chart the periods are generated by (1, 1) and (3, 0) and
Omega has area 3.  The Cartesian chart is reached through the generator
matrix H = [[sqrt(3), 0], [-1, 2]], with area element dx = (2 sqrt(3)/3) dt.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SQRT3 = math.sqrt(3.0)

#: area of Omega in the (t1, t2) chart
OMEGA_AREA = 3.0

# Shifts that move the base parallelogram {a*(1,1) + b*(3,0) : a, b in [0,1)}
# onto Omega.  Exactly one of them applies to any given point; this is the
# tiling property and is asserted by the test suite.
_OMEGA_SHIFTS = ((0, 0), (1, 1), (3, 0), (4, 1))


def _is_int(value) -> bool:
    """Python or numpy integer: ``bool`` is an ``int`` subclass but not a number here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(name: str, value, least: int = 0, most: int | None = None) -> None:
    """Raise ValueError naming ``name`` unless value is an integer (_is_int) in
    least..most: the one check of every degree, shell, order and resolution."""
    if not (_is_int(value) and least <= value and (most is None or value <= most)):
        span = f">= {least}" if most is None else f"in {least}..{most}"
        # an integer past 64 bits is named by its size: all its digits would swamp the line
        bits = int(value).bit_length() if _is_int(value) else 0
        got = f"an integer of {bits} bits" if bits > 64 else repr(value)
        raise ValueError(f"{name} must be an integer {span}, got {got}")


def from_cartesian(x1, x2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map Cartesian coordinate arrays onto homogeneous coordinates.

    t1 = -x2/2 + sqrt(3)/2 * x1,  t2 = x2,  t3 = -t1 - t2.  The zero-sum
    constraint holds exactly by construction.
    """
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    t1 = -0.5 * x2 + 0.5 * _SQRT3 * x1
    return t1, x2, -t1 - x2


def to_cartesian(t1, t2) -> tuple[np.ndarray, np.ndarray]:
    """Inverse chart on coordinate arrays: x = (1/3) H (2 t1 + t2, t1 + 2 t2)^T."""
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    u = 2.0 * t1 + t2
    v = t1 + 2.0 * t2
    return (_SQRT3 * u) / 3.0, (-u + 2.0 * v) / 3.0


def _omega_mask(t1, t2, t3):
    """Half-open membership test for Omega, elementwise on floats or arrays."""
    return (-1.0 <= t1) & (t1 < 1.0) & (-1.0 <= t2) & (t2 < 1.0) & (-1.0 < t3) & (t3 <= 1.0)


def fold_arrays(t1: np.ndarray, t2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised fold of (t1, t2) coordinate arrays into Omega.

    Points of Omega come back unchanged, bit for bit, which rounding in the
    reduction below would not guarantee; so the fold is exactly idempotent.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    inside = _omega_mask(t1, t2, -t1 - t2)
    # Coordinates of t in the period basis (1, 1), (3, 0).
    a = t2
    b = (t1 - t2) / 3.0
    sa = np.floor(a)
    sb = np.floor(b)
    r1 = t1 - (sa + 3.0 * sb)
    r2 = t2 - sa
    # Rounding can land the reduced point on an excluded edge of the base
    # cell (e.g. t2 - floor(t2) evaluating to 1.0 for t2 just below an
    # integer).  Renormalize by whole periods; the shifts are exact in
    # floating point for the magnitudes that can occur here.
    hit = r2 >= 1.0
    r1 = np.where(hit, r1 - 1.0, r1)
    r2 = np.where(hit, r2 - 1.0, r2)
    d = r1 - r2
    r1 = np.where(d < 0.0, r1 + 3.0, np.where(d >= 3.0, r1 - 3.0, r1))
    out1 = np.empty_like(r1)
    out2 = np.empty_like(r2)
    done = np.zeros(r1.shape, dtype=bool)
    for j1, j2 in _OMEGA_SHIFTS:
        u1 = r1 - j1
        u2 = r2 - j2
        ok = ~done & _omega_mask(u1, u2, -u1 - u2)
        out1[ok] = u1[ok]
        out2[ok] = u2[ok]
        done |= ok
    if not done.all():
        raise AssertionError("shift table failed to cover the base cell")
    out1, out2 = np.where(inside, t1, out1), np.where(inside, t2, out2)
    return out1, out2, -(out1 + out2)


@functools.lru_cache(maxsize=1, typed=True)  # typed: 2.0 and True miss the kept 2 and 1
def frequency_arrays(
    max_degree: int, min_degree: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k1, k2 and shell of every frequency with min_degree <= degree <= max_degree,
    as read-only arrays.

    The order is canonical: shell-major, lexicographic in (k1, k2) within a
    shell.  Shell nu >= 1 holds 6 nu frequencies: (-nu, 0..nu), then the two
    ends k2 = -nu - min(k1, 0) and nu - max(k1, 0) of each row -nu < k1 < nu,
    then (nu, -nu..0).  The cost is linear in the number of frequencies, and
    the last result is kept, so callers that ask for the same degrees in a row
    (the families of one battery, the spectra of one check) build it once.
    """
    _check_int("max_degree", max_degree)
    lowest = max(min_degree, 0)
    _check_int("min_degree", lowest)
    nu = np.arange(lowest, max_degree + 1, dtype=np.int64)
    size = np.maximum(6 * nu, 1)
    shell = np.repeat(nu, size)
    j = np.arange(shell.size) - np.repeat(np.cumsum(size) - size, size)  # place in the shell
    k1 = np.clip((j - shell - 1) // 2 - shell + 1, -shell, shell)
    k2 = np.where((j - shell) % 2, -shell - np.minimum(k1, 0), shell - np.maximum(k1, 0))
    k2 = np.where(j <= shell, j, np.where(k1 == shell, j + 1 - 6 * shell, k2))
    for a in (k1, k2, shell):
        a.flags.writeable = False
    return k1, k2, shell


def index_shell(nu: int) -> list[tuple[int, int, int]]:
    """All frequencies of degree exactly nu, in lexicographic (k1, k2) order.

    The shell has 6 * nu elements for nu >= 1 and a single element for
    nu = 0.
    """
    _check_int("shell index nu", nu)
    k1, k2, _ = frequency_arrays(nu, nu)
    return [(a, b, -a - b) for a, b in zip(k1.tolist(), k2.tolist())]
