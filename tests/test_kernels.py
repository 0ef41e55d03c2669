import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsum import kernels
from hexsum.fourier import TWO_PI_OVER_3, make_grid, phi_values
from hexsum.kernels import (
    GRID_CAP,
    R_MAX,
    bernstein_integral,
    classical_kernel_deriv,
    _classical_deriv_table,
    _domain_blocks,
    _leibniz_tensor,
    hex_deriv_series_values,
    hex_kernel_closed_values,
    hex_kernel_deriv_values,
    min_resolution,
    product_integral,
    series_tail_bound,
    _weight_derivs,
)
from hexsum.lattice import frequency_arrays


# ------------------------------------------------------------ circle kernel


def test_classical_kernel_frozen_values():
    for rho in (0.0, 0.25, 0.8):
        assert classical_kernel_deriv(rho, 0.0, 0) == pytest.approx(
            (1 + rho) / (1 - rho)
        )
        assert classical_kernel_deriv(rho, math.pi, 0) == pytest.approx(
            (1 - rho) / (1 + rho)
        )
    assert classical_kernel_deriv(0.0, 1.234, 0) == pytest.approx(1.0)
    # d/drho at the peak: 2 Re(w / (1 - rho w)^2) with w = 1 -> 2/(1-rho)^2
    assert classical_kernel_deriv(0.5, 0.0, 1) == pytest.approx(8.0)


def test_classical_kernel_circle_mean_is_one():
    z = (np.arange(720) + 0.5) * (2 * math.pi / 720)
    table = _classical_deriv_table(0.7, z, 0)
    assert float(np.mean(table[0])) == pytest.approx(1.0, abs=1e-12)


rhos = st.floats(min_value=0.0, max_value=0.95)
zs = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@given(rhos, zs, st.integers(min_value=1, max_value=4))
@settings(max_examples=150)
def test_classical_derivative_bound(rho, z, r):
    val = classical_kernel_deriv(rho, z, r)
    bound = 2.0 * math.factorial(r) / (1.0 - rho) ** (r + 1)
    assert abs(val) <= bound * (1 + 1e-12)


def test_classical_table_matches_scalar():
    z = np.linspace(-3, 3, 37)
    table = _classical_deriv_table(0.6, z, 3)
    for r in range(4):
        for i in (0, 11, 36):
            assert table[r][i] == pytest.approx(
                classical_kernel_deriv(0.6, float(z[i]), r), rel=1e-13, abs=1e-13
            )


@pytest.mark.parametrize("r", range(R_MAX + 1))
def test_classical_kernel_array_matches_scalar_calls(r):
    # one direct formula for arrays and scalars, so equal bit for bit
    rng = np.random.default_rng(r)
    rho = rng.uniform(0.0, 0.99, size=300)
    z = rng.uniform(-8.0, 8.0, size=300)
    got = classical_kernel_deriv(rho, z, r)
    assert got.shape == (300,)
    want = [classical_kernel_deriv(a, b, r) for a, b in zip(rho.tolist(), z.tolist())]
    assert np.array_equal(got, want)
    # a scalar rho broadcasts against the angles
    assert np.array_equal(
        classical_kernel_deriv(0.7, z, r), [classical_kernel_deriv(0.7, b, r) for b in z]
    )
    assert type(classical_kernel_deriv(0.5, 0.25, r)) is float
    assert type(classical_kernel_deriv(np.float64(0.5), np.float64(0.25), r)) is float


#: orders that are not integers: each raises the order check's ValueError
BAD_ORDERS = [1.5, 1.0, "1", True, np.float64(1.0), None]


def test_classical_kernel_validation():
    for bad in (1.0, -0.1):
        with pytest.raises(ValueError):
            classical_kernel_deriv(np.array([0.2, 0.5, bad, 0.9]), np.zeros(4), 1)
    with pytest.raises(ValueError):
        classical_kernel_deriv(1.0, 0.0, 0)
    with pytest.raises(ValueError):
        classical_kernel_deriv(-0.1, 0.0, 0)
    with pytest.raises(ValueError):
        classical_kernel_deriv(0.5, 0.0, -1)
    with pytest.raises(ValueError):
        classical_kernel_deriv(0.5, 0.0, R_MAX + 1)
    for r in BAD_ORDERS:
        with pytest.raises(ValueError, match="derivative order must be an integer"):
            classical_kernel_deriv(0.5, 0.1, r)


# ----------------------------------------------------------- exact weights


def _w3(rho):
    return _weight_derivs(rho, 0)[0][0]


def _w2(rho):
    return _weight_derivs(rho, 0)[1][0]


def test_weight_frozen_values():
    assert _w3(0.5) == pytest.approx(0.875 / 3.375)
    assert _w2(0.5) == pytest.approx(2.0 / 9.0)
    assert _w3(0.0) == 1.0
    assert _w2(0.0) == 0.0


def test_weight_derivatives_match_closed_forms():
    for rho in np.linspace(0.0, 0.9, 10):
        b = 1.0 + rho
        (_, w3_1, w3_2), (_, w2_1, w2_2) = _weight_derivs(rho, 2)
        assert w3_1 == pytest.approx(-3.0 * (1.0 + rho * rho) / b**4, rel=1e-13)
        assert w2_1 == pytest.approx((1.0 - rho) / b**3, rel=1e-13, abs=1e-15)
        assert w3_2 == pytest.approx(6.0 * (rho * rho - rho + 2.0) / b**5, rel=1e-13)
        assert w2_2 == pytest.approx(2.0 * (rho - 2.0) / b**4, rel=1e-13)


def test_weight_mean_decomposition_identity():
    # hexagon mean of the kernel is W3 * (1+rho^3)/(1-rho^3) + 3 W2 = 1,
    # using the exact means of the triple and pair factor products
    for rho in np.linspace(0.0, 0.95, 12):
        triple_mean = (1.0 + rho**3) / (1.0 - rho**3)
        total = _w3(rho) * triple_mean + 3.0 * _w2(rho)
        assert total == pytest.approx(1.0, abs=1e-14)


def test_weight_derivs_correctly_rounded():
    # 60-digit derivatives of both weights, rounded once, for every order
    rng = np.random.default_rng(7)
    rhos = [0.0, 0.5, 1.0 - 2.0**-20, 1.0 - 3.7e-9]
    rhos += list(rng.random(40)) + list(1.0 - 10.0 ** rng.uniform(-12.0, 0.0, 60))
    w3 = lambda x: (1 - x**3) / (1 + x) ** 3
    w2 = lambda x: x / (1 + x) ** 2
    with mpmath.workdps(60):
        for rho in rhos:
            triple, pair = _weight_derivs(rho, R_MAX)
            x = mpmath.mpf(float(rho))
            for s in range(R_MAX + 1):
                assert triple[s] == float(mpmath.diff(w3, x, s)), (rho, s)
                assert pair[s] == float(mpmath.diff(w2, x, s)), (rho, s)


# --------------------------------------------------------------- hex kernel


def test_hex_kernel_center_frozen():
    center = ([0.0], [0.0], [0.0])
    # (1 + 4 rho + rho^2) / (1 - rho)^2 at rho = 1/2 -> 3.25 / 0.25 = 13
    assert hex_kernel_closed_values(0.5, *center)[0] == pytest.approx(13.0)
    assert hex_kernel_closed_values(0.0, *center)[0] == pytest.approx(1.0)
    for rho in (0.1, 0.5, 0.9):
        want = (1 + 4 * rho + rho * rho) / (1 - rho) ** 2
        assert hex_kernel_closed_values(rho, *center)[0] == pytest.approx(want)


def test_hex_kernel_rho_zero_is_one():
    rng = np.random.default_rng(8)
    a, b = rng.uniform(-1, 1, size=(20, 2)).T
    np.testing.assert_allclose(hex_kernel_closed_values(0.0, a, b, -a - b), 1.0, rtol=1e-12)


def test_hex_kernel_positive():
    g = make_grid(24)
    t1, t2, t3 = g.t_arrays
    for rho in (0.3, 0.7):
        vals = hex_kernel_closed_values(rho, t1, t2, t3)
        assert np.all(vals > 0.0)


def test_hex_kernel_values_match_scalar():
    g = make_grid(8)
    t1, t2, t3 = g.t_arrays
    vals = hex_kernel_closed_values(0.6, t1, t2, t3)
    for i in range(0, g.size, 5):
        assert vals[i] == hex_kernel_closed_values(0.6, t1[i], t2[i], t3[i])


def test_hex_kernel_grid_mean_is_one():
    g = make_grid(64)
    t1, t2, t3 = g.t_arrays
    vals = hex_kernel_closed_values(0.5, t1, t2, t3)
    assert g.weight * float(np.sum(vals)) == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------ shell series


def test_series_tail_bound_frozen():
    assert series_tail_bound(0.5, 3) == pytest.approx(3.75)
    assert series_tail_bound(0.5, 0) == pytest.approx(
        math.fsum(6 * nu * 0.5**nu for nu in range(1, 300))
    )
    assert series_tail_bound(0.0, 5) == 0.0
    with pytest.raises(ValueError):
        series_tail_bound(0.5, -1)


@pytest.mark.parametrize("cutoff", [-1, 1.5, 2.0, "2", True, None])
def test_series_cutoff_must_be_a_nonnegative_integer(cutoff):
    # a fractional cutoff would sum the shells up to its ceiling but bound
    # the tail beyond the fraction
    t = ([0.1], [0.2], [-0.3])
    for call in (
        lambda: series_tail_bound(0.5, cutoff),
        lambda: hex_deriv_series_values(0.5, *t, 0, cutoff),
        lambda: hex_deriv_series_values(0.5, *t, 1, cutoff),
    ):
        with pytest.raises(ValueError, match="cutoff must be an integer >= 0"):
            call()


def test_tail_bound_matches_brute_sum():
    for rho, c in ((0.3, 2), (0.8, 10)):
        brute = math.fsum(6 * nu * rho**nu for nu in range(c + 1, 2000))
        assert series_tail_bound(rho, c) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("cutoff", [*range(9), 20, 40])
def test_deriv_series_matches_frequency_sum(cutoff):
    # the ring sums against every frequency of every shell, one by one, for
    # the kernel (order 0) and its first two derivatives
    rng = np.random.default_rng(cutoff)
    t1, t2 = rng.uniform(-3, 3, size=(2, 50))
    t3 = -(t1 + t2)
    shells = np.zeros((cutoff + 1, 50), dtype=complex)
    for a, b, nu in zip(*(k.tolist() for k in frequency_arrays(cutoff))):
        shells[nu] += phi_values(a, b, t1, t2, t3)
    got = hex_deriv_series_values(0.7, t1, t2, t3, (0, 1, 2), cutoff)
    for r, row in enumerate(got):
        weights = np.array([math.perm(nu, r) * 0.7 ** (nu - r) if nu >= r else 0.0
                            for nu in range(cutoff + 1)])
        want = weights @ shells
        # absolute sum of the series' terms: |J_nu| = 6 nu frequencies of modulus 1
        scale = float(weights @ np.maximum(6 * np.arange(cutoff + 1), 1))
        np.testing.assert_allclose(row.real, want.real, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(row.imag, want.imag, rtol=0, atol=1e-13 * scale)


def test_deriv_series_orders_match_single_calls_in_every_chunk():
    # two full chunks of the corner table at cutoff 40 and part of a third
    points = 2 * (kernels._RING_ENTRIES // (6 * 41)) + 18
    rng = np.random.default_rng(3)
    t1, t2 = rng.uniform(-2, 2, size=(2, points))
    t3 = -(t1 + t2)
    orders = (0, 2, 0, 1)
    got = hex_deriv_series_values(0.6, t1, t2, t3, orders, 40)
    assert got.shape == (4, points)
    for row, r in zip(got, orders):
        assert np.array_equal(row, hex_deriv_series_values(0.6, t1, t2, t3, r, 40))


def test_corner_table_is_as_accurate_as_direct_exponentials():
    # e^{i nu theta} as a coarse times a fine factor, against 50 digits at the
    # kernel command's largest cutoff; both forms are off by the rounding of
    # their angles, so the products stay within twice the direct form's error
    cutoff = 40685
    rng = np.random.default_rng(8)
    t1, t2 = rng.uniform(-3, 3, size=(2, 3))
    t3 = -(t1 + t2)
    x, y = TWO_PI_OVER_3 * (t1 - t3), TWO_PI_OVER_3 * (t2 - t3)
    table = kernels._corner_table(cutoff, x, y)
    assert table.shape == (6, cutoff + 1, 3)
    assert np.array_equal(table[3:], table[:3].conj())
    # B = 202: 201 is the last fine offset and 202 the first coarse step
    nus = np.concatenate([[0, 1, 201, 202], rng.integers(0, cutoff + 1, 200), [cutoff]])
    worst = {"table": 0.0, "direct": 0.0}
    with mpmath.workdps(50):
        for row, theta in enumerate((x, y, y - x)):
            direct = np.exp(1j * (nus[:, None] * theta))
            for j, nu in enumerate(nus.tolist()):
                for p, angle in enumerate(theta.tolist()):
                    exact = mpmath.expj(nu * mpmath.mpf(angle))
                    worst["table"] = max(worst["table"], abs(table[row, nu, p] - exact))
                    worst["direct"] = max(worst["direct"], abs(direct[j, p] - exact))
    assert table[:3, 0].tolist() == [[1.0] * 3] * 3
    assert 0.0 < worst["direct"] < 1e-10
    assert worst["table"] <= 2.0 * worst["direct"], worst


def test_deriv_series_memory_stays_small():
    # the ring sums hold a corner table of bounded size, never a table over
    # the (2 cutoff + 1)^2 frequency square
    rng = np.random.default_rng(5)
    t1, t2 = rng.uniform(-3, 3, size=(2, 64))
    t3 = -(t1 + t2)
    tracemalloc.start()
    try:
        hex_deriv_series_values(0.7, t1, t2, t3, (1, 2, 3), 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_grid_integral_memory_stays_small():
    # at n = 1024 a block holds 2^15 points: two 256 KiB buffers for the
    # values and the tree, and the orbit weights as 1-D step functions;
    # fresh block-sized temporaries took the peak to 1.57 MB, and a third
    # buffer for the weights to 1058-1164 KiB
    g = make_grid(1024)
    for r in range(R_MAX + 1):
        tracemalloc.start()
        try:
            bernstein_integral(0.95, r, grid=g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 900 * 1024, (r, peak)


def test_closed_values_memory_stays_small_and_keeps_its_bits():
    # each factor is an array of its own, not a view that keeps its table's
    # unused row of ones alive (30 MiB here); the table's rows are written in
    # place, with no table-sized temporary (26 MiB)
    rng = np.random.default_rng(6)
    t1, t2 = rng.uniform(-1.5, 1.5, size=(2, 1 << 18))
    t3 = -(t1 + t2)
    rho = 0.7
    tracemalloc.start()
    try:
        got = hex_kernel_closed_values(rho, t1, t2, t3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20
    factors = []
    for z in (t2 - t3, t3 - t1, t1 - t2):
        u = 1.0 / (1.0 - rho * np.exp(1j * (TWO_PI_OVER_3 * z)))
        factors.append((1.0 - rho * rho) * (u.real * u.real + u.imag * u.imag))
    p1, p2, p3 = factors
    (w3,), (w2,) = kernels._weight_derivs(rho, 0)
    want = w3 * (p1 * p2 * p3) + w2 * (p1 * p2 + p1 * p3 + p2 * p3)
    assert got.tobytes() == want.tobytes()


def test_closed_matches_series_within_tail():
    rng = np.random.default_rng(12)
    for rho, cutoff in ((0.4, 60), (0.8, 400)):
        a, b = rng.uniform(-1, 1, size=(10, 2)).T
        vals = hex_deriv_series_values(rho, a, b, -a - b, 0, cutoff)
        tail_bound = series_tail_bound(rho, cutoff)
        closed = hex_kernel_closed_values(rho, a, b, -a - b)
        assert np.abs(vals.imag).max() < 1e-9
        assert np.abs(vals.real - closed).max() <= tail_bound + 1e-9


# ------------------------------------------------------------- derivatives


def test_deriv_order_zero_is_closed_form():
    t = ([0.2, 0.0], [-0.5, 0.0], [0.3, 0.0])
    assert np.array_equal(hex_kernel_deriv_values(0.7, *t, 0), hex_kernel_closed_values(0.7, *t))


def test_deriv_matches_series():
    g = make_grid(8)
    t1, t2, t3 = g.t_arrays
    stacked = hex_deriv_series_values(0.6, t1, t2, t3, (1, 2, 3), cutoff=400)
    for r, row in zip((1, 2, 3), stacked):
        direct = hex_kernel_deriv_values(0.6, t1, t2, t3, r)
        series = hex_deriv_series_values(0.6, t1, t2, t3, r, cutoff=400)
        np.testing.assert_allclose(direct, series.real, rtol=1e-8, atol=1e-8)
        assert np.array_equal(row, series)


def test_deriv_matches_finite_difference():
    t = ([0.3], [0.1], [-0.4])
    h = 1e-6
    fd = (hex_kernel_closed_values(0.5 + h, *t) - hex_kernel_closed_values(0.5 - h, *t)) / (2 * h)
    assert hex_kernel_deriv_values(0.5, *t, 1)[0] == pytest.approx(fd[0], rel=1e-7)


def test_deriv_validation():
    t = ([0.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        hex_kernel_deriv_values(0.5, *t, R_MAX + 1)
    with pytest.raises(ValueError):
        hex_kernel_deriv_values(0.5, *t, -1)
    with pytest.raises(ValueError):
        hex_kernel_deriv_values(1.0, *t, 1)
    for r in BAD_ORDERS:
        with pytest.raises(ValueError, match="derivative order must be an integer"):
            hex_kernel_deriv_values(0.5, *t, r)


@pytest.mark.parametrize("r", [*BAD_ORDERS, [1, 1.5], ["1"]])
def test_deriv_series_order_must_be_an_integer(r):
    t = ([0.3], [0.1], [-0.4])
    with pytest.raises(ValueError, match="derivative order must be an integer"):
        hex_deriv_series_values(0.5, *t, r, 10)


# ---------------------------------------------------------------- integrals


def test_min_resolution_frozen():
    assert min_resolution(0.0) == 32
    assert min_resolution(0.5) == 64
    # 32 / 0.1 rounds up past 320 in binary floating point
    assert min_resolution(0.9) == 321


def test_auto_grid_size():
    assert bernstein_integral(0.0, 0).grid_n == 64
    assert bernstein_integral(0.9, 0).grid_n == 321
    assert min_resolution(1.0 - 2.0**-9) > GRID_CAP
    res = bernstein_integral(1.0 - 2.0**-9, 0)
    assert (res.grid_n, res.full_resolution) == (GRID_CAP, False)


def test_explicit_coarse_grid_rejected():
    with pytest.raises(ValueError):
        bernstein_integral(0.5, 1, grid=make_grid(16))


def test_explicit_grid_is_required_only_up_to_the_cap():
    # min_resolution(1 - 2^-9) = 16384: an explicit grid must reach GRID_CAP only
    rho = 1.0 - 2.0**-9
    for integral in (lambda g: bernstein_integral(rho, 0, g), lambda g: product_integral(rho, [0], g)):
        with pytest.raises(ValueError, match=f"below the required {GRID_CAP} "):
            integral(make_grid(GRID_CAP // 2))
    res = bernstein_integral(rho, 0, make_grid(GRID_CAP))
    assert (res.grid_n, res.full_resolution) == (GRID_CAP, False)
    assert res.value == bernstein_integral(rho, 0).value
    assert product_integral(rho, [0], make_grid(GRID_CAP)) == product_integral(rho, [0])


def test_bernstein_order_zero_is_one():
    res = bernstein_integral(0.5, 0)
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert res.grid_n == 64
    assert res.full_resolution


def test_bernstein_positive_and_finite():
    res = bernstein_integral(0.5, 2)
    assert math.isfinite(res.value) and res.value > 0.0


def test_product_integral_frozen():
    for rho in (0.2, 0.5, 0.8):
        assert product_integral(rho, [0]) == pytest.approx(1.0, abs=1e-8)
        assert product_integral(rho, [0, 0]) == pytest.approx(1.0, abs=1e-6)
    # mean of the 3-factor product with all orders zero: (1 + rho^3)/(1 - rho^3)
    got = product_integral(0.5, [0, 0, 0])
    assert got == pytest.approx((1 + 0.125) / (1 - 0.125), rel=1e-4)


def test_product_integral_validation():
    with pytest.raises(ValueError, match="1 to 3 orders, got 0"):
        product_integral(0.5, [])
    with pytest.raises(ValueError, match="1 to 3 orders, got 4"):
        product_integral(0.5, [0, 0, 0, 0])
    for orders in (2, 0.5, [[0, 1]]):
        with pytest.raises(ValueError, match="orders must be a sequence"):
            product_integral(0.5, orders)
    with pytest.raises(ValueError):
        product_integral(0.5, [R_MAX + 1])
    # the orders are checked before rho, and rho before any grid is built
    with pytest.raises(ValueError, match="1 to 3 orders, got 0"):
        product_integral(1.0, [])
    with pytest.raises(ValueError, match="rho must lie in"):
        product_integral(1.0, [1], grid=make_grid(16))
    with pytest.raises(ValueError, match="rho must lie in"):
        bernstein_integral(1.0, R_MAX + 1)


@pytest.mark.parametrize("r", BAD_ORDERS)
def test_integral_orders_must_be_integers(r):
    with pytest.raises(ValueError, match="derivative order must be an integer"):
        bernstein_integral(0.5, r)
    for orders in ([r], [0, r], [r, 0, 0]):
        with pytest.raises(ValueError, match="derivative order must be an integer"):
            product_integral(0.5, orders)


def test_numpy_integer_orders_and_cutoffs_are_accepted():
    t = ([0.3], [0.1], [-0.4])
    two, ten = np.int64(2), np.int64(10)
    assert classical_kernel_deriv(0.5, 0.1, two) == classical_kernel_deriv(0.5, 0.1, 2)
    assert np.array_equal(hex_kernel_deriv_values(0.5, *t, two), hex_kernel_deriv_values(0.5, *t, 2))
    assert np.array_equal(
        hex_deriv_series_values(0.5, *t, np.array([1, 2]), ten),
        hex_deriv_series_values(0.5, *t, (1, 2), 10),
    )
    assert series_tail_bound(0.5, ten) == series_tail_bound(0.5, 10)
    assert bernstein_integral(0.5, np.int64(3)) == bernstein_integral(0.5, 3)
    assert product_integral(0.5, np.array([2, 1])) == product_integral(0.5, [2, 1])


@pytest.mark.parametrize("n", range(1, 61))
def test_domain_blocks_hit_every_orbit_once(monkeypatch, n):
    # brute-force D6 orbits of the angle triples (a, -(a + b), b) mod n, on
    # Z_n^2 or, when 3 | n, on the a = b (mod 3) sublattice; 40 points a
    # block gives many blocks, one-row blocks and, when 3 | n, several
    # blocks in each residue class
    points = [(a, b) for a in range(n) for b in range(n) if n % 3 or (a - b) % 3 == 0]
    for block_points in (kernels._BLOCK_POINTS, 40):
        monkeypatch.setattr(kernels, "_BLOCK_POINTS", block_points)
        weights = {}
        for a, b, (upper, lower), (ip, iq, edge_w) in _domain_blocks(n):
            w = upper * lower
            w[ip, iq] = edge_w
            for p, q in zip(*np.nonzero(w)):
                key = (int(a[p]), int(b[q]))
                assert key not in weights
                weights[key] = w[p, q]
        hit = set()
        for a, b in points:
            triple = (a, (-a - b) % n, b)
            orbit = {
                (y[0], y[2])
                for s in itertools.permutations(triple)
                for y in (s, tuple(-v % n for v in s))
            }
            (rep,) = orbit & weights.keys()
            assert weights[rep] == len(orbit), (n, block_points, rep)
            hit.add(rep)
        assert hit == weights.keys()
        assert sum(weights.values()) == len(points)


# The grid engine works from root-of-unity tables and (a, b) reindexing over
# one fundamental domain of D6; the oracle evaluates every folded grid point
# directly.  n = 81, 96 and 321 are multiples of 3, where the reindexing
# covers the a = b (mod 3) sublattice; 101 is odd and prime to 3.
ORACLE_GRIDS = [(64, 0.5), (81, 0.6), (96, 0.65), (101, 0.65), (321, 0.9)]
PRODUCT_CASES = [[0], [4], [0, 0], [2, 5], [3, 0], [0, 0, 0], [1, 0, 3], [6, 2, 1]]


@pytest.mark.parametrize("n, rho", ORACLE_GRIDS)
def test_bernstein_integral_matches_pointwise_sum(n, rho):
    g = make_grid(n)
    t1, t2, t3 = g.t_arrays
    for r in range(R_MAX + 1):
        vals = hex_kernel_deriv_values(rho, t1, t2, t3, r)
        want = math.fsum(np.abs(vals)) * g.weight
        got = bernstein_integral(rho, r, grid=g).value
        assert abs(got - want) <= 1e-12 * want, (n, r)


@pytest.mark.parametrize("n, rho", ORACLE_GRIDS)
def test_product_integral_matches_pointwise_sum(n, rho):
    g = make_grid(n)
    t1, t2, t3 = g.t_arrays
    zs = (
        TWO_PI_OVER_3 * (t2 - t3),
        TWO_PI_OVER_3 * (t3 - t1),
        TWO_PI_OVER_3 * (t1 - t2),
    )
    for orders in PRODUCT_CASES:
        prod = np.ones(g.size)
        for z, order in zip(zs, orders):
            prod = prod * _classical_deriv_table(rho, z, order)[order]
        want = math.fsum(np.abs(prod)) * g.weight
        got = product_integral(rho, orders, grid=g)
        assert abs(got - want) <= 1e-12 * want, (n, orders)


def test_grid_tensors_are_symmetric_in_their_axes_bitwise(monkeypatch):
    # _grid_mean_abs sums one fundamental domain of D6, so the tensor it
    # takes must equal all its axis transposes
    def assert_symmetric(coeffs):
        for axes in itertools.permutations(range(3)):
            assert np.array_equal(np.transpose(coeffs, axes), coeffs), axes

    for rho in (0.0, 0.3, 0.5, 0.9, 1.0 - 2.0**-9, 1.0 - 3.7e-9):
        for r in range(R_MAX + 1):
            assert_symmetric(_leibniz_tensor(rho, r))
    seen = []

    def capture(rho, coeffs, grid, absolute=False):
        seen.append(coeffs)
        return kernels.BernsteinResult(0.0, 0, True)

    monkeypatch.setattr(kernels, "_kernel_mean", capture)
    for orders in PRODUCT_CASES:
        product_integral(0.5, orders)
    assert len(seen) == len(PRODUCT_CASES)
    for coeffs in seen:
        assert_symmetric(coeffs)


def test_deriv_values_keep_input_shape():
    g = make_grid(6)
    t1, t2, t3 = (t.reshape(6, 6) for t in g.t_arrays)
    vals = hex_kernel_deriv_values(0.4, t1, t2, t3, 2)
    assert vals.shape == (6, 6)
    flat = hex_kernel_deriv_values(0.4, t1.ravel(), t2.ravel(), t3.ravel(), 2)
    np.testing.assert_array_equal(vals.ravel(), flat)
    # scalar coordinates give one value, the factor tables one row per order
    for i in (0, 13, 35):
        point = (t.ravel()[i] for t in (t1, t2, t3))
        assert np.ndim(value := hex_kernel_deriv_values(0.4, *point, 2)) == 0
        assert value == flat[i]


def test_bernstein_integral_row_blocks_match_pointwise_sum():
    # the fundamental domain of the 1024 grid spans several row blocks
    assert len(list(_domain_blocks(1024))) > 2
    g = make_grid(1024)
    t1, t2, t3 = g.t_arrays
    vals = hex_kernel_deriv_values(0.95, t1, t2, t3, 2)
    want = math.fsum(np.abs(vals)) * g.weight
    got = bernstein_integral(0.95, 2, grid=g).value
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("n, rhos", [
    (64, (0.0, 0.25, 0.5)),
    (100, (0.3, 0.6, 0.67)),
    (1000, (0.9, 0.95, 0.968)),
    (1024, (0.5, 0.9375, 1.0 - 2.0**-5)),
    # the last two rungs are capped below their full resolution
    (4096, (0.99, 1.0 - 2.0**-7, 1.0 - 2.0**-9, 1.0 - 2.0**-10)),
])
def test_order_zero_grid_mean_is_exact(n, rhos):
    # for 3 not dividing n the grid mean keeps the coefficients rho^nu of the
    # frequencies that alias to 0: 6 j of them on each shell nu = j n, so the
    # mean is 1 + sum_j 6 j x^j = 1 + 6 x / (1 - x)^2 with x = rho^n, whatever
    # the partition into blocks
    g = make_grid(n)
    for rho in rhos:
        x = rho**n
        want = 1.0 + 6.0 * x / (1.0 - x) ** 2
        got = bernstein_integral(rho, 0, grid=g).value
        assert abs(got - want) <= 1e-12 * want, (n, rho)


# The reference below is the block loop as it was before the blocks shared
# two buffers: the orbit weights from three masks, np.abs(vals) * w, and a
# zero-padded concatenate halved into one new array per level.  The buffered
# loop keeps its partition, weights and association order, so every value
# agrees bit for bit.


def _reference_domain_blocks(n):
    step = 3 if n % 3 == 0 else 1
    for residue in range(step):
        rows = np.arange(residue, n // 3 + 1, step)
        start = 0
        while start < len(rows):
            a0 = int(rows[start])
            b = np.arange(a0, (n - a0) // 2 + 1, step)
            a = rows[start:start + max(1, kernels._BLOCK_POINTS // len(b))]
            p = np.arange(len(a))
            last = (n - a - 2 * a0) // (2 * step)
            q = np.arange(len(b))
            w = 12.0 * ((q >= p[:, None]) & (q <= last[:, None]))
            far = p[a + 2 * b[last] == n]
            top = q[:last[0] + 1] if a0 == 0 else q[:0]
            ip = np.concatenate([p, far, np.zeros_like(top)])
            iq = np.concatenate([p, last[far], top])
            ea, eb = a[ip], b[iq]
            ec = (n - ea - eb) % n
            perms = np.array([[6, 3], [3, 1]])[(ea == eb).astype(int), (eb == ec).astype(int)]
            w[ip, iq] = perms * np.where(ea == 0, 1, 2)
            yield a, b, w
            start += len(a)


def _reference_tree_sum(x):
    x = np.concatenate([x, np.zeros((1 << (len(x) - 1).bit_length()) - len(x))])
    while len(x) > 1:
        x = x[0::2] + x[1::2]
    return x[0]


def _reference_grid_mean_abs(table, coeffs, grid):
    n, r = grid.n, coeffs.shape[0] - 2
    slices = np.flatnonzero(np.any(coeffs, axis=(0, 2))).tolist()
    step = 3 if n % 3 == 0 else 1
    totals = []
    for a, b, w in _reference_domain_blocks(n):
        a_table, b_table = table[:, a].T, table[:, b]
        sums = (-(2 * a[0] + step * np.arange(len(a) + len(b) - 1))) % n
        hankel = np.lib.stride_tricks.sliding_window_view(table[:, sums], len(b), axis=1)
        vals = 0.0
        for j in slices:
            term = (a_table @ coeffs[:, j, :]) @ b_table
            if j <= r:
                term *= hankel[j]
            vals += term
        totals.append(float(_reference_tree_sum((np.abs(vals) * w).ravel())))
    return math.fsum(totals) * step * grid.weight


@pytest.mark.parametrize("n, rho, block_points", [
    *((n, rho, kernels._BLOCK_POINTS) for n, rho in ORACLE_GRIDS),
    (1024, 0.95, kernels._BLOCK_POINTS),
    (4096, 0.99, kernels._BLOCK_POINTS),
    # many blocks: rows wider than the bound one to a block, then several
    # rows to a block, on Z_n^2 and on the three residue classes mod 3
    (101, 0.65, 40),
    (96, 0.65, 40),
])
def test_grid_integrals_equal_reference_block_loop_bitwise(monkeypatch, n, rho, block_points):
    monkeypatch.setattr(kernels, "_BLOCK_POINTS", block_points)
    g = make_grid(n)

    def values():
        return (
            [bernstein_integral(rho, r, grid=g).value for r in range(R_MAX + 1)],
            [product_integral(rho, orders, grid=g) for orders in PRODUCT_CASES],
        )

    got = values()
    monkeypatch.setattr(kernels, "_grid_mean_abs", _reference_grid_mean_abs)
    assert got == values()
