import math

import numpy as np
import pytest

from hexsum.families import (
    basis_family,
    builtin_families,
    kernel_family,
    polynomial_family,
    random_spectrum,
    shell_decay_family,
)
from hexsum.fourier import SpectralFunction, max_coeff_diff
from hexsum.kernels import series_tail_bound
from hexsum.lattice import frequency_arrays, index_shell


def test_kernel_family_masses_and_tail():
    fam = kernel_family(0.5, max_degree=32)
    assert fam.name == "kernel(rho0=0.5)"
    masses = fam.function.shell_masses()
    for nu in (0, 1, 7):
        assert masses[nu] == pytest.approx(6 * nu * 0.25**nu if nu else 1.0, rel=1e-12)
    brute = math.fsum(6 * nu * 0.25**nu for nu in range(33, 4000))
    assert fam.tail_l2**2 == pytest.approx(series_tail_bound(0.25, 32), rel=1e-12)
    assert fam.tail_l2**2 >= brute


def test_kernel_family_validation():
    with pytest.raises(ValueError):
        kernel_family(1.0)
    with pytest.raises(ValueError):
        kernel_family(0.5, max_degree=-1)


def test_shell_decay_masses():
    for s in (2.0, 3.0):
        fam = shell_decay_family(s, max_degree=24)
        masses = fam.function.shell_masses()
        assert masses[0] == pytest.approx(1.0)
        for nu in (1, 5, 24):
            assert masses[nu] == pytest.approx((1.0 + nu) ** (-2 * s), rel=1e-12)
        brute = math.fsum(
            (1.0 + nu) ** (-2 * s) for nu in range(25, 200000)
        )
        assert fam.tail_l2**2 >= brute


def test_shell_decay_validation():
    with pytest.raises(ValueError):
        shell_decay_family(0.5)
    with pytest.raises(ValueError):
        shell_decay_family(0.4)
    with pytest.raises(ValueError, match="decay exponent must exceed 1/2, got nan"):
        shell_decay_family(float("nan"))


def test_polynomial_family_is_real_symmetric():
    fam = polynomial_family(5)
    assert fam.name == "polynomial(degree=5)"
    assert fam.function.degree() == 5
    assert fam.function.is_real_symmetric()
    assert fam.tail_l2 == 0.0
    with pytest.raises(ValueError):
        polynomial_family(-1)


def test_basis_family_single_entry():
    fam = basis_family(3)
    f = fam.function
    assert f.support_size == 1
    ((k, c),) = list(f.items())
    assert k == index_shell(3)[0]
    assert c == 1.0
    with pytest.raises(ValueError):
        basis_family(-1)


def test_random_spectrum_deterministic():
    a = random_spectrum(6, np.random.default_rng(42))
    b = random_spectrum(6, np.random.default_rng(42))
    assert max_coeff_diff(a, b) == 0.0
    c = random_spectrum(6, np.random.default_rng(43))
    assert max_coeff_diff(a, c) > 0.0


def test_random_spectrum_properties():
    f = random_spectrum(8, np.random.default_rng(0))
    assert f.degree() == 8
    assert f.is_real_symmetric()
    assert f.l2_norm() == pytest.approx(1.0, rel=1e-12)
    k1, k2, _ = frequency_arrays(4)
    re, im = np.random.default_rng(2).standard_normal((2, k1.size))
    h = SpectralFunction.from_arrays(k1, k2, re + 1j * im)
    assert not h.is_real_symmetric()


def test_builtin_family_names():
    fams = builtin_families(16)
    assert [f.name for f in fams] == [
        "kernel(rho0=0.5)",
        "shell_decay(s=2)",
        "shell_decay(s=3)",
        "shell_decay(s=4)",
        "polynomial(degree=2)",
    ]
    for fam in fams:
        if not fam.name.startswith("polynomial"):
            assert fam.function.degree() == 16
