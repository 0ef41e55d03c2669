"""Independent numerical paths used to check hexsum reports.

Nothing here imports hexsum.  Shell multipliers come from the regularised
incomplete beta function (``lambda_complement(nu, r, rho) =
I_{1-rho}(r, nu-r+1)``, ``lambda_coeff = I_rho(nu-r+1, r)``, DLMF 8.17),
not from the library's binomial sums.  Grid values come from a 2-D inverse
FFT: on the n x n grid, ``phi_k(m) = exp(2 pi i ((k1-k3) m1 + (k2-k3) m2) / n)``,
so a spectrum with degree d < n/4 is synthesized exactly by placing its
coefficients at ``((k1-k3) mod n, (k2-k3) mod n)``.  The library evaluates
every basis function on every grid point instead.
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import betainc


class Spectrum(NamedTuple):
    k: np.ndarray  # (N, 3) integer frequencies
    c: np.ndarray  # (N,) complex coefficients
    degree: np.ndarray  # (N,) shell of each frequency
    max_degree: int


def load_spectrum(path) -> Spectrum:
    """Read a spectral JSON file (the ``save_spectral`` format) directly."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    k = np.array([e["k"] for e in doc["entries"]], dtype=np.int64).reshape(-1, 3)
    c = np.array([complex(e["re"], e["im"]) for e in doc["entries"]])
    return Spectrum(k, c, np.abs(k).max(axis=1), int(doc["max_degree"]))


def close(value, ref: float, rtol: float) -> bool:
    """|value - ref| <= rtol |ref|; a NaN or a non-finite value fails.

    Report cells arrive as numbers, or as 'nan'/'inf' strings when non-finite.
    """
    value = float(value)
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


# --------------------------------------------------------------------------
# shell multipliers
# --------------------------------------------------------------------------

def complement(nu: np.ndarray, r: int, rho: float) -> np.ndarray:
    out = np.zeros(nu.shape)
    high = nu >= r
    out[high] = betainc(r, nu[high] - r + 1, 1.0 - rho)
    return out


def coeff(nu: np.ndarray, r: int, rho: float) -> np.ndarray:
    out = np.ones(nu.shape)
    high = nu >= r
    out[high] = betainc(nu[high] - r + 1, r, rho)
    return out


def falling(nu: np.ndarray, n: int) -> np.ndarray:
    """nu! / (nu - n)! for nu >= n, else 0."""
    out = np.ones(nu.shape)
    for i in range(n):
        out *= nu - i
    return np.where(nu >= n, out, 0.0)


# --------------------------------------------------------------------------
# norms of shell-scaled spectra: norm(mult) = || sum_k mult[deg k] c_k phi_k ||
# --------------------------------------------------------------------------

Norm = Callable[[np.ndarray], float]


def exact_l2(f: Spectrum) -> Norm:
    masses = np.bincount(f.degree, weights=np.abs(f.c) ** 2, minlength=f.max_degree + 1)
    return lambda mult: math.sqrt(float(np.sum(mult * mult * masses)))


def grid_lp(f: Spectrum, n: int, p: float) -> Norm:
    if 4 * f.max_degree >= n:
        raise ValueError(f"grid {n} aliases degree {f.max_degree}")
    rows = (f.k[:, 0] - f.k[:, 2]) % n
    cols = (f.k[:, 1] - f.k[:, 2]) % n

    def norm(mult: np.ndarray) -> float:
        table = np.zeros((n, n), dtype=complex)
        np.add.at(table, (rows, cols), mult[f.degree] * f.c)
        mags = np.abs(np.fft.ifft2(table)) * (n * n)
        if math.isinf(p):
            return float(mags.max())
        return float(np.mean(mags**p)) ** (1.0 / p)

    return norm


# --------------------------------------------------------------------------
# the quantities the reports carry
# --------------------------------------------------------------------------

def shells(f: Spectrum) -> np.ndarray:
    return np.arange(f.max_degree + 1)


def deviation(f: Spectrum, norm: Norm, r: int, rho: float) -> float:
    """||f - A_{rho,r} f|| from the complement multipliers."""
    return norm(complement(shells(f), r, rho))


def kfun(f: Spectrum, norm: Norm, delta: float, n: int) -> tuple[float, float]:
    """(upper, lower_proxy) over the candidate family ``kfun_estimate`` documents."""
    nu = shells(f)
    dn = delta**n
    fall = falling(nu, n)
    scores = [norm(np.ones(nu.shape)), dn * norm(fall)]  # zero, identity
    for zeta in (1.0 - delta * 2.0**j for j in range(-2, 3)):
        if 0.0 <= zeta < 1.0:
            lam = coeff(nu, n, zeta)
            scores.append(norm(complement(nu, n, zeta)) + dn * norm(fall * lam))
    for m in range(f.max_degree + 1):
        scores.append(norm((nu > m).astype(float)) + dn * norm(fall * (nu <= m)))
    lower = dn * norm(fall * (1.0 - delta) ** nu)
    return min(scores), lower


def fit_slope(ks: list[int], devs: list[float]) -> float:
    """Least-squares slope of log2(dev) against log2(1 - rho) = -k."""
    return float(np.polyfit(-np.asarray(ks, dtype=float), np.log2(devs), 1)[0])
