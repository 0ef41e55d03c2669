import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsum import means
from hexsum.families import (
    basis_family,
    builtin_families,
    polynomial_family,
    random_spectrum,
)
from hexsum.fourier import (
    SpectralFunction,
    _norm_plan,
    load_spectral,
    make_grid,
    max_coeff_diff,
    scale_shells,
    synthesize,
)
from hexsum.kernels import hex_kernel_closed_values
from hexsum.lattice import index_shell
from hexsum.means import (
    KfunEstimate,
    _perm_shells,
    _remainder_integral,
    apply_operator,
    apply_operator_derivative_form,
    deviation_ladder,
    kfun_ladder,
    lambda_shells,
    m_p,
    poisson_integral_convolution,
    poisson_integral_spectral,
    radial_derivative,
    remainder_coefficient_check,
    remainder_integral_norm,
)


# ---------------------------------------------------------------- multipliers


def test_lambda_frozen_value():
    # nu=2, r=2, rho=1/2: C(2,0) (1/4) + C(2,1)(1/2)(1/2) = 1/4 + 1/2
    lam, comp = lambda_shells(np.array([2]), 2, 0.5)
    assert (lam.tolist(), comp.tolist()) == ([0.75], [0.25])


def test_lambda_below_order_is_one():
    for r in (1, 2, 5):
        lam, comp = lambda_shells(np.arange(r), r, 0.37)
        assert lam.tolist() == [1.0] * r
        assert comp.tolist() == [0.0] * r


def test_lambda_order_one_is_poisson():
    # order 1 is the single term rho**nu, returned as the correctly rounded pow
    assert lambda_shells(np.arange(1, 20), 1, 0.6)[0].tolist() == [0.6**nu for nu in range(1, 20)]
    assert lambda_shells(np.array([777]), 1, 0.75)[0].tolist() == [0.75**777]


@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=0.999),
)
@settings(max_examples=300)
def test_lambda_identity_and_range(nu, r, rho):
    (lam,), (comp,) = lambda_shells(np.array([nu]), r, rho)
    assert 0.0 <= lam <= 1.0
    assert 0.0 <= comp <= 1.0
    assert lam + comp == pytest.approx(1.0, abs=1e-12)


def _binomial_terms(nu, rho):
    """C(nu,j) (1-rho)^j rho^(nu-j) for j = 0..nu at the working precision."""
    x = mpmath.mpf(rho)
    if x == 0:
        return [mpmath.mpf(0)] * nu + [mpmath.mpf(1)]
    terms = [x**nu]
    ratio = (1 - x) / x
    for j in range(nu):
        terms.append(terms[-1] * ratio * (nu - j) / (j + 1))
    return terms


def test_lambda_matches_high_precision_binomial_sums():
    # the defining binomial sums at 50 digits, against the multipliers
    worst = 0.0
    nus = (1, 2, 3, 7, 20, 61, 200, 777, 1031, 2000)
    with mpmath.workdps(50):
        for rho in (0.0, 0.01, 0.2, 0.5, 0.75, 0.9, 0.99, 0.999):
            terms = {nu: _binomial_terms(nu, rho) for nu in nus}
            for r in range(1, 7):
                lam, comp = lambda_shells(np.array(nus), r, rho)
                for nu, got_lam, got_comp in zip(nus, lam.tolist(), comp.tolist()):
                    for got, ref in (
                        (got_lam, mpmath.fsum(terms[nu][:r])),
                        (got_comp, mpmath.fsum(terms[nu][r:])),
                    ):
                        assert 0.0 <= got <= 1.0
                        if ref >= 1e-300:
                            worst = max(worst, float(abs(got - ref) / ref))
    assert worst <= 1e-13


def test_lambda_frozen_grid_bit_for_bit():
    # values of the two-pass implementation this one replaced, as float.hex: the
    # whole array and each one-shell array give them, bit for bit
    doc = json.loads((Path(__file__).parent / "data" / "lambda_shells_frozen.json").read_text())
    shells = np.array(doc["shells"])
    assert len(doc["rows"]) == 16
    for row in doc["rows"]:
        r, rho = row["r"], float.fromhex(row["rho"])
        want = [[float.fromhex(x) for x in row[key]] for key in ("lam", "comp")]
        got = lambda_shells(shells, r, rho)
        assert [a.tobytes() for a in got] == [np.array(x).tobytes() for x in want], (r, rho)
        for j in range(len(shells)):
            (lam,), (comp,) = lambda_shells(shells[j:j + 1], r, rho)
            assert (lam.hex(), comp.hex()) == (want[0][j].hex(), want[1][j].hex()), (r, rho, j)


def test_lambda_validation():
    for shells, r, rho in (
        ([-1], 1, 0.5), ([3, -2, 5], 2, 0.5), ([2], 0, 0.5), ([2], 1, 1.0), ([2], 1, -0.1),
    ):
        with pytest.raises(ValueError):
            lambda_shells(np.array(shells), r, rho)
    lam, comp = lambda_shells(np.array([], dtype=np.int64), 2, 0.5)
    assert lam.size == comp.size == 0
    # a list is taken as the array it makes, integer-checked like any other
    got = lambda_shells([4, 5], 2, 0.5)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in lambda_shells(np.array([4, 5]), 2, 0.5)]
    with pytest.raises(ValueError, match="shell indices must be integers"):
        lambda_shells([4.0, 5.0], 2, 0.5)


def test_lambda_shells_must_be_integers():
    # shell 4.5 once read 0.2431, between shells 4 and 5, and [True, False]
    # read as shells 1 and 0
    for shells in ([4.0, 4.5, 5.0], [4.0], [True, False], []):
        with pytest.raises(ValueError, match="shell indices must be integers"):
            lambda_shells(np.array(shells), 2, 0.5)
    for dtype in (np.int32, np.uint8, np.uint64):
        got = lambda_shells(np.array([4, 5], dtype=dtype), 2, 0.5)
        want = lambda_shells(np.array([4, 5]), 2, 0.5)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_lambda_scalars_match_shell_rows_bitwise():
    # a one-shell array (a scalar multiplier) equals its own row of the
    # whole array bit for bit, exactly 1.0 / 0.0 below r
    shells = np.arange(301)
    for rho in (0.0, 0.1, 0.5, 0.75, 0.9, 0.999, 1.0 - 2.0**-20):
        for r in range(1, 7):
            lam, comp = lambda_shells(shells, r, rho)
            assert np.all(lam[:r] == 1.0) and np.all(comp[:r] == 0.0)
            for nu in range(301):
                (one,), (one_comp,) = lambda_shells(shells[nu:nu + 1], r, rho)
                assert (one, one_comp) == (lam[nu], comp[nu])


def test_lambda_shell_rows_do_not_depend_on_each_other():
    # long arrays mix both tails and, at rho = 0.1, rows whose rho^m underflows
    shells = np.arange(0, 2000, 7)
    for r in (2, 6, 24):
        for rho in (0.1, 0.9):
            lam, comp = lambda_shells(shells, r, rho)
            for j, nu in enumerate(shells.tolist()):
                (one,), (one_comp,) = lambda_shells(np.array([nu]), r, rho)
                assert (one, one_comp) == (lam[j], comp[j])


RADII = (0.0, 1e-300, 1e-10, 0.01, 0.1, 0.3, 0.5, 0.75, 0.9, 0.99, 0.999,
         1.0 - 2.0**-20, 1.0 - 2.0**-40, 1.0 - 2.0**-52)


@pytest.mark.parametrize("r", (1, 2, 3, 4, 5, 6, 10, 50, 531, 532, 600, 1000))
def test_lambda_radius_rows_equal_scalar_calls_bitwise(r):
    # one row per radius, each the scalar call at that radius bit for bit: both
    # tails, underflowing powers, Loader's form past 531 quotients, and (at
    # r >= 531, where a pair's table has ~530 terms) several blocks per call
    shells = np.array([0, 1, 2, 3, 5, 7, 10, 20, 50, 100, 200, 500, 530, 531, 532, 533,
                       600, 777, 1000, 1031, 2000, 5000, 10**4, 10**5, 7 * 10**5, 10**6,
                       10**7, 10**8, 2 * 10**8])
    lam, comp = lambda_shells(shells, r, np.array(RADII))
    assert lam.shape == comp.shape == (len(RADII), len(shells))
    for j, rho in enumerate(RADII):
        one_lam, one_comp = lambda_shells(shells, r, rho)
        assert lam[j].tobytes() == one_lam.tobytes(), (r, rho)
        assert comp[j].tobytes() == one_comp.tobytes(), (r, rho)


def test_lambda_radius_vectors_at_the_edges():
    # no radii (kfun --rho-kmin 1074 has no zeta in [0, 1)) and no shells; a
    # radius outside [0, 1) anywhere in the vector raises
    lam, comp = lambda_shells(np.arange(5), 2, np.array([]))
    assert lam.shape == comp.shape == (0, 5)
    lam, comp = lambda_shells(np.array([], dtype=np.int64), 2, np.array([0.5, 0.25]))
    assert lam.shape == comp.shape == (2, 0)
    (lam,), (comp,) = lambda_shells(np.array([2]), 2, np.array([0.5]))
    assert (lam.tolist(), comp.tolist()) == ([0.75], [0.25])
    for radii in ([0.5, 1.0], [-0.1, 0.5]):
        with pytest.raises(ValueError, match="rho must lie in"):
            lambda_shells(np.arange(5), 2, np.array(radii))
    with pytest.raises(ValueError, match="^rho must be one radius or a 1-D array of radii, got a 2-D"):
        lambda_shells(np.arange(5), 2, np.array([[0.5, 0.25]]))
    with pytest.raises(ValueError, match="order r must be an integer >= 1, got 0"):
        lambda_shells(np.arange(5), 0, np.array([]))


def test_ladders_take_one_multiplier_call(monkeypatch):
    # kfun's default ladder delta = 2^-1..2^-7 has 35 candidate zetas, 10 of
    # them distinct and in [0, 1); a rates ladder is one call too
    calls = []
    real = means.lambda_shells

    def counted(shells, r, rho):
        calls.append(np.ravel(rho).tolist())
        return real(shells, r, rho)

    monkeypatch.setattr(means, "lambda_shells", counted)
    f = _random_f(3, degree=40)
    deltas = [2.0**-k for k in range(1, 8)]
    ests = kfun_ladder(f, deltas, 2, 2.0)
    assert calls == [[1.0 - 2.0**-3, 1.0 - 2.0**-2, 0.5, 0.0] + [1.0 - 2.0**-k for k in range(4, 10)]]
    assert len(ests) == 7
    calls.clear()
    rhos = [1.0 - 2.0**-k for k in range(2, 9)]
    deviation_ladder(f, rhos, 2, 2.0, None)
    assert calls == [rhos]


def _binomial_tails(nu, r, rho):
    """(P[X <= r-1], P[X >= r]) for X ~ Bin(nu, 1-rho), exact to 60 digits at the binary rho.

    A tail is summed from its boundary term only while its terms fall, until
    the rest is below 1e-70 of the sum; the other tail is 1 minus it, which is
    then at least about 0.4.
    """
    with mpmath.workdps(80):
        x = mpmath.mpf(rho)
        q = 1 - x
        tails = []
        for j, step in ((r - 1, -1), (r, 1)):
            ratio = (lambda j: j * x / ((nu - j + 1) * q)) if step < 0 else (
                lambda j: (nu - j) * q / ((j + 1) * x))
            falling = r - 1 < (nu + 1) * q if step < 0 else r > nu * q - x
            if not falling:
                tails.append(None)
                continue
            term = mpmath.binomial(nu, j) * q**j * x ** (nu - j)
            total = term
            while 0 < j < nu and term > 0:
                rho_j = ratio(j)
                if term * rho_j / (1 - rho_j) < total * mpmath.mpf(10) ** -70:
                    break
                term *= rho_j
                j += step
                total += term
            tails.append(total)
        lower, upper = tails
        return (1 - upper if lower is None else lower), (1 - lower if upper is None else upper)


def test_lambda_matches_exact_binomial_tails_wide():
    # relative error against exact binomial tails at the binary rho, from the
    # first shells to 2e8 and orders to 1000, wherever the tail is >= 1e-300
    eps = np.finfo(float).eps
    worst = {True: 0.0, False: 0.0}  # keyed by r <= 6
    nus = (1, 2, 3, 5, 7, 10, 20, 50, 100, 200, 500, 777, 1000, 1031, 2000, 5000,
           10**4, 10**5, 7 * 10**5, 10**6, 10**7, 10**8, 2 * 10**8)
    rhos = (0.0, 0.01, 0.1, 0.3, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0 - 2.0**-20, 1.0 - 2.0**-40)
    for r in (1, 2, 3, 4, 5, 6, 12, 24, 100, 1000):
        shells = [nu for nu in nus if nu >= r]
        for rho in rhos:
            lam, comp = lambda_shells(np.array(shells), r, rho)
            for nu, got_lam, got_comp in zip(shells, lam.tolist(), comp.tolist()):
                refs = _binomial_tails(nu, r, rho)
                for got, ref in zip((got_lam, got_comp), refs):
                    assert 0.0 <= got <= 1.0
                    if ref >= 1e-300:
                        worst[r <= 6] = max(worst[r <= 6], float(abs(got - ref) / ref))
    assert worst[True] <= 32 * eps
    assert worst[False] <= 1e-12


def test_summation_params_validation():
    # every function of (rho, r) rejects rho outside [0, 1) and r < 1 alike,
    # and a radius argument of the wrong shape, naming the argument
    f = _random_f(0, degree=2)
    calls = (
        ("rho", lambda rho, r: apply_operator(f, rho, r)),
        ("rho", lambda rho, r: apply_operator_derivative_form(f, rho, r)),
        ("rhos", lambda rho, r: deviation_ladder(f, [rho], r, 2.0, None)),
        ("rho", lambda rho, r: m_p(f, rho, r, 2.0, None)),
    )
    for name, call in calls:
        call(0.0, 1)
        for rho, r, message in (
            (1.0, 1, f"{name} must lie in [0, 1), got 1.0"),
            (-0.2, 1, f"{name} must lie in [0, 1), got -0.2"),
            (0.5, 0, "order r must be an integer >= 1, got 0"),
        ):
            with pytest.raises(ValueError) as error:
                call(rho, r)
            assert str(error.value) == message
    # m_p took a list of two radii for one, and deviation_ladder a bare
    # radius for a ladder, each returning a wrong number
    for _, call in calls[:2] + calls[3:]:
        with pytest.raises(ValueError) as error:
            call([0.3, 0.5], 1)
        assert str(error.value) == "rho must be one radius, got a 1-D list"
    with pytest.raises(ValueError) as error:
        deviation_ladder(f, 0.5, 1, 2.0, None)
    assert str(error.value) == "rhos must be a 1-D array of radii, got a 0-D float"


_ORDER_CALLS = {
    "apply_operator": lambda f, r: apply_operator(f, 0.5, r),
    "apply_operator_derivative_form": lambda f, r: apply_operator_derivative_form(f, 0.5, r),
    "lambda_shells": lambda f, r: lambda_shells(np.arange(5), r, 0.5),
    "deviation_ladder": lambda f, r: deviation_ladder(f, [0.5], r, 2.0, None),
    "m_p": lambda f, r: m_p(f, 0.5, r, 2.0, None),
    "radial_derivative": lambda f, r: radial_derivative(f, r),
    "kfun_ladder": lambda f, r: kfun_ladder(f, [0.25], r, 2.0),
    "remainder_coefficient_check": lambda f, r: remainder_coefficient_check(4, r, 0.5),
    "remainder_integral_norm": lambda f, r: remainder_integral_norm(f, 0.5, r, 2.0, make_grid(32)),
}


@pytest.mark.parametrize("r", [1.5, 2.0, True, "2", None])
@pytest.mark.parametrize("call", list(_ORDER_CALLS.values()), ids=list(_ORDER_CALLS))
def test_orders_must_be_integers(call, r):
    # a fractional order gave a mean between two orders, and True read as 1
    f = _random_f(0, degree=3)
    call(f, 2)
    with pytest.raises(ValueError, match="order( [rn])? must be an integer >= [12], got "):
        call(f, r)


@pytest.mark.parametrize(
    "call",
    [
        lambda f, grid: deviation_ladder(f, [0.5], 1, math.nan, grid),
        lambda f, grid: kfun_ladder(f, [0.5], 1, math.nan, grid),
        lambda f, grid: m_p(f, 0.5, 1, math.nan, grid),
        lambda f, grid: remainder_integral_norm(f, 0.5, 2, math.nan, grid),
    ],
    ids=["deviation_ladder", "kfun_ladder", "m_p", "remainder_integral_norm"],
)
@pytest.mark.parametrize("n", [None, 32])
def test_nan_norm_order_is_refused(call, n):
    # a NaN p returned nan deviations, and kfun an upper bound of inf
    f = _random_f(0, degree=3)
    with pytest.raises(ValueError, match="order p must satisfy p >= 1, got nan"):
        call(f, None if n is None else make_grid(n))


# ------------------------------------------------------------------ operators


def _random_f(seed, degree=6):
    return random_spectrum(degree, np.random.default_rng(seed))


def test_operator_at_rho_zero_is_partial_sum():
    f = _random_f(1)
    for r in (1, 3):
        g = apply_operator(f, 0.0, r)
        assert max_coeff_diff(g, scale_shells(f, lambda shells: (shells < r).astype(float))) == 0.0


def test_operator_fixes_low_degree_exactly():
    f = _random_f(2, degree=2)
    g = apply_operator(f, 0.7, 3)
    # degree(f) = 2 < r = 3, so every multiplier is exactly 1
    assert g.items() == f.items()


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_operator_forms_agree(seed):
    f = _random_f(seed)
    a = apply_operator(f, 0.55, 3)
    b = apply_operator_derivative_form(f, 0.55, 3)
    assert max_coeff_diff(a, b) < 1e-12


def test_operator_damps_strictly():
    f = _random_f(3)
    g = dict(apply_operator(f, 0.4, 2).items())
    for k, c in f.items():
        if max(map(abs, k)) >= 2:
            assert abs(g.get(k, 0.0)) < abs(c)


def _scalar_scaled(f, multiplier):
    """The per-shell scalar path: the coefficient c on shell nu becomes
    complex(multiplier(nu)) * c, Python's complex product, and exact zeros drop."""
    kept = []
    for a, b, nu, c in zip(f.k1.tolist(), f.k2.tolist(), f.shell.tolist(), f.coeffs.tolist()):
        v = complex(multiplier(nu)) * c
        if v != 0:
            kept.append(((a, b, -a - b), v))
    return SpectralFunction(kept, f.max_degree)


def _derivative_form_multiplier(nu, rho, r):
    return math.fsum(
        (1.0 - rho) ** k / math.factorial(k) * (math.perm(nu, k) * rho ** (nu - k))
        for k in range(min(r - 1, nu) + 1)
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_operators_match_the_scalar_path_bitwise(seed):
    f = _random_f(seed, degree=10)
    for rho, r in ((0.0, 2), (0.3, 1), (0.7, 3), (0.95, 4)):
        pairs = (
            (apply_operator(f, rho, r),
             lambda nu: lambda_shells(np.array([nu]), r, rho)[0][0]),
            (apply_operator_derivative_form(f, rho, r),
             lambda nu: _derivative_form_multiplier(nu, rho, r)),
            (radial_derivative(f, r),
             lambda nu: float(math.perm(nu, r)) if nu >= r else 0.0),
            (poisson_integral_spectral(f, rho), lambda nu: rho**nu),
        )
        for got, multiplier in pairs:
            want = _scalar_scaled(f, multiplier)
            for a, b in zip((got.k1, got.k2, got.shell, got.coeffs),
                            (want.k1, want.k2, want.shell, want.coeffs)):
                assert np.array_equal(a, b), (rho, r)
            assert got.max_degree == want.max_degree


def test_radial_derivative():
    f = SpectralFunction(
        {k: 1.0 for k in index_shell(5)} | {(0, 0, 0): 2.0}
    )
    g = dict(radial_derivative(f, 2).items())
    assert g[index_shell(5)[0]] == pytest.approx(20.0)  # 5!/3! = 20
    assert index_shell(0)[0] not in g
    with pytest.raises(ValueError):
        radial_derivative(f, 0)


def test_poisson_spectral_multiplier():
    f = _random_f(4, degree=4)
    g = dict(poisson_integral_spectral(f, 0.5).items())
    for k, c in f.items():
        assert g[k] == pytest.approx(c * 0.5 ** max(map(abs, k)), rel=1e-15)
    with pytest.raises(ValueError):
        poisson_integral_spectral(f, 1.0)


def test_poisson_convolution_matches_spectral():
    f = _random_f(5, degree=2)
    grid = make_grid(32)
    direct = poisson_integral_convolution(synthesize(f, grid), 0.5)
    spectral = synthesize(poisson_integral_spectral(f, 0.5), grid)
    err = grid.weight * float(np.sum(np.abs(direct.values - spectral.values) ** 2))
    assert math.sqrt(err) < 1e-8


@pytest.mark.parametrize("n", [6, 9, 12])
def test_poisson_convolution_matches_nested_roll_loop(n):
    g = synthesize(_random_f(n, degree=2), make_grid(n))
    kern = hex_kernel_closed_values(0.5, *g.grid.t_arrays).reshape(n, n)
    samples = g.values.reshape(n, n)
    want = np.zeros((n, n), dtype=complex)
    for d1 in range(n):
        rolled = np.roll(samples, d1, axis=0)
        for d2 in range(n):
            want += kern[d1, d2] * np.roll(rolled, d2, axis=1)
    want = (want * g.grid.weight).ravel()
    got = poisson_integral_convolution(g, 0.5).values
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# -------------------------------------------------------------------- norms


def test_deviation_on_single_shell():
    f = basis_family(4).function
    grid = make_grid(32)
    (want,) = lambda_shells(np.array([4]), 2, 0.3)[1].tolist()
    assert deviation_ladder(f, [0.3], 2, 2.0, grid)[0] == pytest.approx(want, rel=1e-10)
    assert deviation_ladder(f, [0.3], 2, 2.0, None)[0] == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValueError, match="grid"):
        deviation_ladder(f, [0.3], 2, 3.0, None)


def test_exact_norm_when_squares_overflow():
    # |c|^2 overflows on shell 0, where the order-1 complement multiplier is
    # 0: the deviation is that of the other shells, not nan
    rest = {(3, -3, 0): 1e-300, (4, -4, 0): 3.0 - 4.0j}
    f = SpectralFunction({(0, 0, 0): 1.7e308, **rest})
    (want,) = deviation_ladder(SpectralFunction(rest), [0.5], 1, 2.0, None)
    assert deviation_ladder(f, [0.5], 1, 2.0, None)[0] == pytest.approx(want, rel=1e-15)
    # scaling by an exact power of two scales the norm, past the squared range too
    g = random_spectrum(5, np.random.default_rng(4))
    big = SpectralFunction({k: math.ldexp(1.0, 900) * c for k, c in g.items()})
    want = math.ldexp(deviation_ladder(g, [0.5], 1, 2.0, None)[0], 900)
    assert deviation_ladder(big, [0.5], 1, 2.0, None)[0] == pytest.approx(want, rel=1e-15)


def test_m_p_on_single_shell():
    f = basis_family(5).function
    grid = make_grid(32)
    want = math.perm(5, 2) * 0.6**5
    assert m_p(f, 0.6, 2, 2.0, grid) == pytest.approx(want, rel=1e-10)
    assert m_p(f, 0.6, 2, 2.0, None) == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValueError):
        m_p(f, 1.0, 2, 2.0, grid)
    with pytest.raises(ValueError):
        m_p(f, 0.5, 0, 2.0, grid)


def test_deviation_grid_matches_spectral():
    f = _random_f(6, degree=8)
    grid = make_grid(64)
    assert deviation_ladder(f, [0.45], 3, 2.0, grid)[0] == pytest.approx(
        deviation_ladder(f, [0.45], 3, 2.0, None)[0], abs=1e-10
    )


# ---------------------------------------------------------------- remainder


def test_remainder_coefficient_identity():
    for nu, r, rho in ((4, 2, 0.3), (9, 3, 0.7), (15, 4, 0.5), (30, 2, 0.9)):
        lhs, rhs = remainder_coefficient_check(nu, r, rho)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_remainder_coefficient_rhs_matches_high_precision_beta():
    # the rational rhs is the exact integral rounded once, so it lies
    # within half an ulp of the 50-digit regularized incomplete beta value
    worst = 0.0
    with mpmath.workdps(50):
        for r in range(2, 7):
            for nu in (r, r + 1, 7, 20, 61, 150, 300):
                for rho in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0 - 2.0**-20):
                    _, rhs = remainder_coefficient_check(nu, r, rho)
                    ref = mpmath.betainc(r, nu - r + 1, 0, 1 - mpmath.mpf(rho), regularized=True)
                    worst = max(worst, float(abs(rhs - ref) / ref))
    assert worst <= 4 * np.finfo(float).eps


def _remainder_integral_fraction(nu, r, rho):
    """The same exact integral summed in Fraction, the reference of the integer sum."""
    x = Fraction(rho)
    integral = sum(
        Fraction((-1) ** j * math.comb(r - 1, j), m) * (1 - x**m)
        for j, m in enumerate(range(nu - r + 1, nu + 1))
    )
    return float(math.perm(nu, r) * integral / math.factorial(r - 1))


def test_remainder_integral_matches_a_fraction_reference():
    # one integer numerator over one denominator, rounded once: the Fraction
    # sum's correctly rounded value, bit for bit
    rng = np.random.default_rng(36)
    cases = [(512, 5, 0.99), (200, 5, 0.97), (8, 2, 0.5), (8, 3, 0.8), (6, 6, 0.0), (40, 3, 1 - 2.0**-53)]
    cases += [
        (int(nu), int(r), float(rho))
        for nu, r, rho in zip(rng.integers(6, 300, 40), rng.integers(2, 7, 40), rng.random(40))
    ]
    for nu, r, rho in cases:
        assert _remainder_integral(nu, r, rho) == _remainder_integral_fraction(nu, r, rho), (nu, r, rho)
    assert _remainder_integral(4, 5, 0.5) == 0.0


def test_remainder_coefficient_validation():
    with pytest.raises(ValueError):
        remainder_coefficient_check(4, 1, 0.5)
    with pytest.raises(ValueError):
        remainder_coefficient_check(1, 2, 0.5)
    with pytest.raises(ValueError):
        remainder_coefficient_check(4, 2, 1.0)
    with pytest.raises(ValueError, match="rho must be one radius"):
        remainder_coefficient_check(4, 2, [0.5])


def test_remainder_coefficient_check_takes_integer_shells_only():
    for nu in (4.5, np.float64(4.0), 4.0, True):
        with pytest.raises(ValueError, match="shell index nu must be an integer"):
            remainder_coefficient_check(nu, 2, 0.5)
    assert remainder_coefficient_check(np.int64(4), 2, 0.5) == remainder_coefficient_check(4, 2, 0.5)


def test_remainder_integral_matches_deviation():
    f = _random_f(7, degree=6)
    grid = make_grid(48)
    got = remainder_integral_norm(f, 0.35, 2, 2.0, grid)
    (want,) = deviation_ladder(f, [0.35], 2, 2.0, grid)
    assert got == pytest.approx(want, abs=1e-8)


def test_remainder_integral_validation():
    f = _random_f(8, degree=3)
    grid = make_grid(32)
    with pytest.raises(ValueError):
        remainder_integral_norm(f, 0.5, 1, 2.0, grid)
    with pytest.raises(ValueError):
        remainder_integral_norm(f, 1.0, 2, 2.0, grid)


def test_remainder_integral_refuses_an_aliasing_grid():
    # below n = 4 * 8 two coefficients of a degree-8 spectrum share a DFT bin,
    # where a synthesized remainder would be silently wrong (0.775..0.897
    # against 0.8436), so the norm plan raises as deviation_ladder does
    f = random_spectrum(8, np.random.default_rng(1))
    for n in (8, 10, 12, 14, 16):
        with pytest.raises(ValueError, match=f"grid n={n} aliases degree 8"):
            remainder_integral_norm(f, 0.5, 2, 2.0, make_grid(n))
        with pytest.raises(ValueError, match=f"grid n={n} aliases degree 8"):
            deviation_ladder(f, [0.5], 2, 2.0, make_grid(n))
    assert remainder_integral_norm(f, 0.5, 2, 2.0, make_grid(64)) == 0.8435908323800145


def test_remainder_integral_exact_shells_only():
    # every shell's integral is exact, whatever its degree
    grid = make_grid(16)
    edge = basis_family(128).function
    got = remainder_integral_norm(edge, 0.5, 2, 2.0, grid)
    assert got == pytest.approx(lambda_shells(np.array([128]), 2, 0.5)[1][0], rel=1e-12)
    # an exact zero stored on shell 400 carries no shell
    padded = SpectralFunction(edge.items() + [((400, -400, 0), 0.0)])
    assert remainder_integral_norm(padded, 0.5, 2, 2.0, grid) == got


def test_remainder_integral_nodes_follow_the_top_shell():
    # one coefficient on shell nu: the norm is the shell's exact integral,
    # remainder_coefficient_check's rhs bit for bit, on a grid within 1e-12
    for nu, r, rho in ((200, 2, 0.5), (200, 3, 0.9), (200, 5, 0.97), (2, 2, 0.3), (61, 4, 0.99)):
        f = basis_family(nu).function
        _, rhs = remainder_coefficient_check(nu, r, rho)
        assert remainder_integral_norm(f, rho, r, 2.0, None) == rhs, (nu, r, rho)
        got = remainder_integral_norm(f, rho, r, 2.0, make_grid(16))
        assert got == pytest.approx(lambda_shells(np.array([nu]), r, rho)[1][0], abs=1e-12)


# ------------------------------------------------------------- K-functional

def test_kfun_deltas_error_names_the_first_bad_scale():
    # a long ladder is not echoed: the message names the first scale outside (0, 1/2]
    f = _random_f(9, degree=3)
    deltas = [2.0**-k for k in range(1, 2001)]
    with pytest.raises(ValueError) as info:
        kfun_ladder(f, deltas, 1, 2.0)
    assert str(info.value) == "deltas must be a 1-D array of scales in (0, 1/2], got 0.0"
    with pytest.raises(ValueError, match=r"got a 2-D array$"):
        kfun_ladder(f, np.array([[0.25]]), 1, 2.0)



def test_kfun_validation():
    f = _random_f(9, degree=3)
    with pytest.raises(ValueError):
        kfun_ladder(f, [0.0], 1, 2.0)
    with pytest.raises(ValueError):
        kfun_ladder(f, [0.25, 0.6], 1, 2.0)
    with pytest.raises(ValueError):
        kfun_ladder(f, [0.25], 0, 2.0)
    with pytest.raises(ValueError):
        kfun_ladder(f, [0.25], 1, 3.0)  # p != 2 needs a grid
    for deltas in (0.25, np.array([[0.25]]), [math.nan], [0.25, math.nan], np.array([-0.1])):
        with pytest.raises(ValueError, match="deltas must be a 1-D array"):
            kfun_ladder(f, deltas, 1, 2.0)
    assert kfun_ladder(f, np.array([0.25]), 1, 2.0) == kfun_ladder(f, [0.25], 1, 2.0)


def test_kfun_polynomial_saturates():
    # degree < n: f is its own order-n candidate with zero roughness
    f = polynomial_family(2).function
    (est,) = kfun_ladder(f, [0.25], 3, 2.0)
    assert isinstance(est, KfunEstimate)
    assert est.upper == 0.0
    assert est.argmin_candidate in ("identity", "partial_sum(2)")
    assert est.lower_proxy == 0.0


def test_kfun_basis_cap():
    # single shell nu: K <= min(||f||, delta^n ||f^[n]||)
    nu, n, delta = 5, 2, 0.25
    f = basis_family(nu).function
    (est,) = kfun_ladder(f, [delta], n, 2.0)
    cap = min(1.0, delta**n * math.perm(nu, n))
    assert est.upper <= cap + 1e-12
    assert est.lower_proxy <= est.upper + 1e-12


def test_kfun_two_sided_and_ordered():
    f = _random_f(10, degree=8)
    for est in kfun_ladder(f, [2.0**-k for k in range(1, 6)], 2, 2.0):
        assert 0.0 <= est.lower_proxy
        assert est.upper <= f.l2_norm() + 1e-12


def test_kfun_fast_path_matches_grid_path():
    f = _random_f(11, degree=7)
    delta, n = 0.25, 2
    (exact,) = kfun_ladder(f, [delta], n, 2.0)
    (gridded,) = kfun_ladder(f, [delta], n, 2.0, grid=make_grid(32))
    assert gridded.upper == pytest.approx(exact.upper, abs=1e-10)
    assert gridded.lower_proxy == pytest.approx(exact.lower_proxy, abs=1e-10)
    assert gridded.argmin_candidate == exact.argmin_candidate


# ------------------------------------------------------- ladders and norm plans

DATA = Path(__file__).parent / "data"


def _kfun_by_candidates(f, delta, n, p, grid):
    """Reference bracket: every candidate scored by its own two norms, in a
    strict scan over zero, identity, the means and the partial sums."""
    shells, norm, _ = _norm_plan(f, p, grid)
    perm = _perm_shells(shells, n)
    candidates = [
        ("zero", np.ones(len(shells)), np.zeros(len(shells))),
        ("identity", np.zeros(len(shells)), perm),
    ]
    for j in range(-2, 3):
        zeta = 1.0 - delta * 2.0**j
        if 0.0 <= zeta < 1.0:
            lam, comp = lambda_shells(shells, n, zeta)
            candidates.append((f"mean(zeta={zeta:.17g})", comp, perm * lam))
    for m in shells.tolist():
        candidates.append((f"partial_sum({m})", (shells > m) * 1.0, perm * (shells <= m)))
    dn = delta**n
    upper, winner = math.inf, "none"
    for name, err, rough in candidates:
        score = norm(err) + dn * norm(rough)
        if score < upper:
            upper, winner = score, name
    return upper, dn * norm(perm * (1.0 - delta) ** shells), winner


def _ladder_cases():
    ladder = [2.0**-k for k in range(1, 8)]
    ops170 = SpectralFunction({(nu, -nu, 0): 1.0 / (1 + nu) for nu in range(171)})
    grid_f = random_spectrum(12, np.random.default_rng(5))
    for fam in builtin_families(64):
        for n in (1, 2, 3):
            yield pytest.param(fam.function, ladder, n, 2.0, None, id=f"{fam.name}-n{n}")
    deg256 = load_spectral(DATA / "deg256.json")
    for n in (1, 2, 3):
        yield pytest.param(deg256, ladder + [2.0**-30], n, 2.0, None, id=f"deg256-n{n}")
    for p in (3.0, math.inf):
        for n in (1, 2):
            yield pytest.param(grid_f, ladder, n, p, make_grid(56), id=f"grid56-p{p}-n{n}")
    # (170!)^2 and the partial sums of squares above it leave the float range
    yield pytest.param(ops170, ladder[:2], 170, 2.0, None, id="ops170-n170")


@pytest.mark.parametrize("f, deltas, n, p, grid", _ladder_cases())
def test_kfun_ladder_equals_one_point_views_and_candidate_scan(f, deltas, n, p, grid):
    ladder = kfun_ladder(f, deltas, n, p, grid)
    assert [est.delta for est in ladder] == deltas
    for delta, est in zip(deltas, ladder):
        assert kfun_ladder(f, [delta], n, p, grid) == [est]
        with np.errstate(over="ignore", invalid="ignore"):
            want = _kfun_by_candidates(f, delta, n, p, grid)
        assert (est.upper, est.lower_proxy, est.argmin_candidate) == want
    rhos = [1.0 - delta for delta in deltas]
    devs = deviation_ladder(f, rhos, n, p, grid)
    assert devs == [deviation_ladder(f, [rho], n, p, grid)[0] for rho in rhos]


def _hard_sums(seed):
    """Shells whose masses span 2^-1120..2^1000, so that prefix sums of
    squares start subnormal and end past the float range, plus sums that
    fall exactly halfway between two floats."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for nu in range(48):
        shell = index_shell(nu)
        for k in rng.choice(len(shell), size=min(len(shell), 3), replace=False):
            re, im = np.ldexp(rng.uniform(-1.0, 1.0, 2), int(rng.integers(-560, 500)))
            coeffs[shell[k]] = complex(re, im)
    return SpectralFunction(coeffs)


@pytest.mark.parametrize(
    "f",
    [_hard_sums(seed) for seed in range(4)]
    + [
        # masses 1 + 2^-52, 2^-53, 2^-53: sums 1 + 3 2^-53 and 1 + 2^-52 + 2^-53
        # are ties, rounded to even
        SpectralFunction(
            {(0, 0, 0): 1.0 + 2.0**-26j, (1, -1, 0): 2.0**-27 + 2.0**-27j,
             (2, -2, 0): 2.0**-27 - 2.0**-27j, (3, -3, 0): 0.0, (4, -4, 0): 1e-320}
        ),
        # an infinite mass: every cut goes through norm, which sums 0 * inf = nan
        SpectralFunction({(0, 0, 0): 1.7e308, (2, -2, 0): 3.0 - 4.0j, (3, -3, 0): 1e-300}),
        SpectralFunction({}),
    ],
)
def test_cut_norms_equal_the_norm_of_each_cut(f):
    with np.errstate(over="ignore", invalid="ignore"):
        shells, norm, cut_norms = _norm_plan(f, 2.0, None)
        rng = np.random.default_rng(len(shells))
        weights = [np.ones(len(shells)), rng.uniform(0.5, 2.0, len(shells))]
        weights += [_perm_shells(shells, n) for n in (1, 2, 3)]
        for w in weights:
            for upto in (True, False):
                want = [norm(w * ((shells <= m) if upto else (shells > m))) for m in shells.tolist()]
                assert cut_norms(w, upto).tolist() == want


def test_exact_norm_of_the_zero_multiplier():
    # 0.0 whatever the masses (subnormal, overflowing to inf, none), as the
    # rescaled sum gives; an infinite coefficient still gives 0 * inf = nan
    with np.errstate(over="ignore", invalid="ignore"):
        for f in (
            _hard_sums(0),
            SpectralFunction({(0, 0, 0): 1.7e308, (2, -2, 0): 1e-300}),
            SpectralFunction({}),
        ):
            shells, norm, _ = _norm_plan(f, 2.0, None)
            for zero in (0.0, -0.0):
                got = norm(np.full(len(shells), zero))
                assert got == 0.0 and math.copysign(1.0, got) == 1.0
        inf = SpectralFunction({(1, -1, 0): complex(math.inf, 0.0)})
        shells, norm, _ = _norm_plan(inf, 2.0, None)
        assert math.isnan(norm(np.zeros(len(shells))))


@pytest.mark.parametrize("grid", [None, make_grid(132)])
def test_kfun_identity_wins_its_tie_with_the_top_partial_sum(grid):
    # identity and the cut at the top shell are the same candidate h = f: error 0
    # and roughness ||f^[n]||, so their scores tie at every delta, and identity
    # comes first
    f = builtin_families(32)[0].function  # kernel(rho0=0.5)
    shells, norm, cut_norms = _norm_plan(f, 2.0, grid)
    perm = _perm_shells(shells, 1)
    assert cut_norms(np.ones(len(shells)), False)[-1] == norm(np.zeros(len(shells))) == 0.0
    assert cut_norms(perm, True)[-1] == norm(perm)
    ests = kfun_ladder(f, [2.0**-k for k in range(2, 7)], 1, 2.0, grid)
    assert [est.argmin_candidate for est in ests] == ["identity"] * 5
