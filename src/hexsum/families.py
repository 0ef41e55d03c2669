"""Built-in spectral test families for sweeps and rate experiments.

Each family is a truncated SpectralFunction together with a certified
L2 tail bound for whatever was cut off, so experiments can state when
truncation is negligible.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .fourier import SpectralFunction
from .kernels import _check_rho, series_tail_bound
from .lattice import _check_int, frequency_arrays


class FamilySpec(NamedTuple):
    name: str
    function: SpectralFunction
    tail_l2: float


def kernel_family(rho0: float = 0.5, max_degree: int = 64) -> FamilySpec:
    """The lattice Poisson kernel at radius rho0, truncated spectrally.

    Coefficients are rho0^nu on every shell-nu frequency.  The L2 tail is
    sqrt(sum_{nu > D} 6 nu rho0^{2 nu}), evaluated in closed form; at the
    default (0.5, 64) it is ~2e-20, machine-negligible.
    """
    _check_rho(rho0, name="rho0")
    f = _shell_weighted(max_degree, lambda nu: rho0**nu)
    tail = math.sqrt(series_tail_bound(rho0 * rho0, max_degree)) if rho0 else 0.0
    return FamilySpec(f"kernel(rho0={rho0:g})", f, tail)


def shell_decay_family(s: float, max_degree: int = 64) -> FamilySpec:
    """Power-law shell decay: coeff = (1+nu)^{-s}/sqrt(6 nu) on shell nu.

    The per-shell L2 mass is exactly (1+nu)^{-2s}, so smoothness is
    controlled by s alone.  The constant shell carries coefficient 1.
    The reported L2 tail uses the integral comparison
    sum_{nu > D} (1+nu)^{-2s} <= (1+D)^{1-2s}/(2s-1).
    """
    if not s > 0.5:  # NaN fails too
        raise ValueError(f"decay exponent must exceed 1/2, got {s}")
    f = _shell_weighted(max_degree, lambda nu: (1.0 + nu) ** (-s) / math.sqrt(6.0 * nu))
    # sum_{m >= D+2} m^{-2s} <= integral_{D+1}^inf x^{-2s} dx
    tail = math.sqrt((1.0 + max_degree) ** (1.0 - 2.0 * s) / (2.0 * s - 1.0))
    return FamilySpec(f"shell_decay(s={s:g})", f, tail)


def polynomial_family(degree: int = 2) -> FamilySpec:
    """A fixed real-symmetric trigonometric polynomial of the given degree.

    The origin carries 1; on shell nu, the frequency k > -k at place pos carries
    0.5 / (nu (1 + pos mod 3)) e^{2 pi i (pos mod 5) / 5}, and -k, at 6 nu - 1 - pos, its conjugate.
    """
    _check_int("degree", degree)
    k1, k2, shell = frequency_arrays(degree)
    pos = np.arange(len(shell)) - 3 * shell * (shell - 1) - (shell > 0)  # place in the shell
    upper = (k1 > 0) | ((k1 == 0) & (k2 > 0))
    pos = np.where(upper, pos, 6 * shell - 1 - pos)
    mag = 0.5 / (np.maximum(shell, 1) * (1 + pos % 3))
    phases = [p * 2.0 * math.pi / 5.0 for p in range(5)]
    cos, sin = np.array([[math.cos(a) for a in phases], [math.sin(a) for a in phases]])[:, pos % 5]
    coeffs = np.empty(len(shell), dtype=complex)
    coeffs.real, coeffs.imag = mag * cos, np.where(upper, 1.0, -1.0) * (mag * sin)
    coeffs[0] = 1.0
    f = SpectralFunction._built(k1, k2, shell, coeffs, degree)
    return FamilySpec(f"polynomial(degree={degree})", f, 0.0)


def basis_family(nu: int) -> FamilySpec:
    """A single unit coefficient on one shell-nu frequency."""
    _check_int("shell index nu", nu)
    k1, k2, shell = frequency_arrays(nu, nu)
    f = SpectralFunction._built(k1[:1], k2[:1], shell[:1], np.ones(1, dtype=complex), nu)
    return FamilySpec(f"basis(nu={nu})", f, 0.0)


def random_spectrum(max_degree: int, rng: np.random.Generator) -> SpectralFunction:
    """Random real-symmetric coefficients on every frequency up to max_degree, of
    unit L2 norm.

    The negated-frequency coefficient is the conjugate, so synthesized values
    are real.  Draw order is canonical (shell-major), so a seeded generator
    reproduces the same spectrum.
    """
    k1, k2, shell = frequency_arrays(max_degree)
    # draws in canonical order on the origin (real) and each shell's upper half,
    # k > -k; negation takes place j of shell nu to 6 nu - 1 - j, the conjugate's
    pos = np.arange(len(shell)) - 3 * shell * (shell - 1) - (shell > 0)  # place in the shell
    upper = pos >= 3 * shell
    re, im = np.empty((2, len(shell)))
    draws = np.insert(rng.standard_normal(2 * np.count_nonzero(upper) - 1), 1, 0.0)
    re[upper], im[upper] = draws.reshape(-1, 2).T
    mirror = (np.arange(len(shell)) + 6 * shell - 1 - 2 * pos)[~upper]
    re[~upper], im[~upper] = re[mirror], -im[mirror]
    norm = math.sqrt(math.fsum((re * re + im * im).tolist()))
    if norm > 0.0:
        re, im = re / norm, im / norm
    coeffs = np.empty(re.size, dtype=complex)
    coeffs.real, coeffs.imag = re, im
    return SpectralFunction._built(k1, k2, shell, coeffs, max_degree)


def _shell_weighted(max_degree: int, weight: Callable[[int], float]) -> SpectralFunction:
    """1 at the origin and weight(nu) on every frequency of shell nu, 1 <= nu <= max_degree."""
    _check_int("max_degree", max_degree)
    k1, k2, shell = frequency_arrays(max_degree)
    weights = np.array([1.0] + [weight(nu) for nu in range(1, max_degree + 1)], dtype=complex)
    return SpectralFunction._built(k1, k2, shell, weights[shell], max_degree)


def builtin_families(max_degree: int = 64) -> list[FamilySpec]:
    """The standard sweep battery: analytic, three power-law decays, one polynomial."""
    return [
        kernel_family(0.5, max_degree),
        shell_decay_family(2.0, max_degree),
        shell_decay_family(3.0, max_degree),
        shell_decay_family(4.0, max_degree),
        polynomial_family(2),
    ]
