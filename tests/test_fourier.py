import cmath
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexsum import fourier
from hexsum.fourier import (
    _canonical_order,
    _norm_plan,
    _shell_groups,
    GridFunction,
    HexGrid,
    ResolutionWarning,
    SpectralFormatError,
    SpectralFunction,
    analyze,
    exactness_threshold,
    load_spectral,
    lp_norm,
    make_grid,
    max_coeff_diff,
    pairwise_sum,
    phi_values,
    save_spectral,
    scale_shells,
    spectral_from_json_dict,
    spectral_to_json_dict,
    synthesize,
)
from hexsum.families import (
    basis_family,
    builtin_families,
    kernel_family,
    polynomial_family,
    random_spectrum,
    shell_decay_family,
)
from hexsum.lattice import _omega_mask, frequency_arrays, index_shell


# ---------------------------------------------------------------- pairwise sum


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=300
    )
)
@settings(max_examples=200)
def test_pairwise_sum_close_to_fsum(values):
    arr = np.asarray(values, dtype=float)
    got = pairwise_sum(arr)
    want = math.fsum(values)
    assert got == pytest.approx(want, abs=1e-6, rel=1e-12)


def test_pairwise_sum_empty_and_axis():
    assert pairwise_sum(np.array([])) == 0.0
    a = np.arange(12.0).reshape(3, 4)
    np.testing.assert_allclose(pairwise_sum(a, axis=0), a.sum(axis=0))
    assert pairwise_sum(a) == pytest.approx(66.0)


@pytest.mark.parametrize(
    "values",
    [
        np.array([True] * 3),
        np.array([100] * 3, dtype=np.int8),
        np.array([200, 200], dtype=np.uint8),
        np.array([2**62, 2**62 - 1, -5], dtype=np.int64),
        np.array([], dtype=np.int64),
        np.array([], dtype=bool),
        np.array([[100, -100, 27], [100, -100, 100]], dtype=np.int8),
        np.array([1, 2**70], dtype=object),
    ],
    ids=["bool", "int8", "uint8", "int64", "empty-int64", "empty-bool", "int8-rows", "object"],
)
def test_pairwise_sum_widens_like_np_sum(values):
    # np.add on bool is a logical or, and on narrow integers it wraps
    got, want = np.asarray(pairwise_sum(values, axis=0)), np.asarray(np.sum(values, axis=0))
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_pairwise_sum_is_deterministic():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(1000)
    assert pairwise_sum(a) == pairwise_sum(a.copy())


def _concat_halve_sum(values, axis=None):
    """pairwise_sum as it was before its levels shared one buffer: a
    zero-padded concatenate, then one new array per halving level."""
    a = np.asarray(values)
    if axis is None:
        a = a.ravel()
    elif axis != 0:
        a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    if n == 0:
        return np.sum(a, axis=0)
    m = 1
    while m < n:
        m *= 2
    if m != n:
        pad = np.zeros((m - n,) + a.shape[1:], dtype=a.dtype)
        a = np.concatenate([a, pad], axis=0)
    while a.shape[0] > 1:
        a = a[0::2] + a[1::2]
    return a[0]


_TREE_LENGTHS = st.one_of(
    st.integers(0, 7).flatmap(lambda k: st.sampled_from([2**k, 2**k + 1])),
    st.integers(0, 70),
)
# padding adds +0.0, so a -0.0 leaf shows whether the pad and its place are kept
_LEAVES = st.one_of(
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]),
    st.floats(-1e300, 1e300),
)


@pytest.mark.parametrize("kind", ["float", "complex", "int", "rows"])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_pairwise_sum_equals_concatenate_and_halve(kind, data):
    n = data.draw(_TREE_LENGTHS)
    axis = None
    if kind == "int":
        x = np.array(data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)),
                     dtype=np.int64)
    else:
        shape = (n, data.draw(st.integers(0, 3))) if kind == "rows" else (n,)
        count = math.prod(shape) * (2 if kind == "complex" else 1)
        x = np.array(data.draw(st.lists(_LEAVES, min_size=count, max_size=count)))
        x = x.view(complex) if kind == "complex" else x
        x = x.reshape(shape)
        axis = 0 if kind == "rows" else None
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, and overflow
        got = np.asarray(pairwise_sum(x, axis=axis))
        want = np.asarray(_concat_halve_sum(x, axis=axis))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=kind != "int")
    for part in (np.real, np.imag):
        zeros = part(want) == 0
        assert np.array_equal(np.signbit(part(got))[zeros], np.signbit(part(want))[zeros])


# ----------------------------------------------------------------------- grid


def test_exactness_threshold():
    assert exactness_threshold(0) == 1
    assert exactness_threshold(3) == 13
    assert exactness_threshold(8) == 33


def test_grid_basics():
    g = make_grid(6)
    assert g.n == 6
    assert g.size == 36
    assert g.weight == pytest.approx(1.0 / 36.0)
    with pytest.raises(ValueError):
        make_grid(3)
    # n^2 past the float range has no weight 1/n^2: named by its size, not its digits
    with pytest.raises(ValueError) as err:
        HexGrid(10**400)
    assert str(err.value) == "grid resolution n of 1329 bits has n^2 past the float range"


@pytest.mark.parametrize("n", [64.7, 64.0, math.inf, math.nan, "64", True, np.float64(64), None])
def test_grid_resolution_must_be_an_integer(n):
    # a fractional resolution would be truncated to a coarser grid
    with pytest.raises(ValueError, match="grid resolution n must be an integer >= 4"):
        HexGrid(n)


def test_grid_takes_numpy_integers():
    g = HexGrid(np.int64(64))
    assert type(g.n) is int and g.n == 64 and g.weight == make_grid(64).weight


def test_grid_points_are_folded():
    g = make_grid(9)
    t1, t2, t3 = g.t_arrays
    assert t1.shape == (81,)
    assert _omega_mask(t1, t2, t3).all()
    assert np.abs(t1 + t2 + t3).max() < 1e-12


# ---------------------------------------------------------------------- basis


def test_phi_frozen_value():
    # k = (1, 0, -1) at t = (1, 0, -1): exponent (2 pi i / 3) * (t1 - t3) = 4 pi i / 3
    want = cmath.exp(2j * math.pi / 3.0 * 2.0)
    assert complex(phi_values(1, 0, 1.0, 0.0, -1.0)[0]) == pytest.approx(want)


def test_phi_modulus_and_conjugation():
    rng = np.random.default_rng(2)
    a, b = rng.uniform(-1, 1, size=(50, 2)).T
    v = phi_values(2, -1, a, b, -a - b)
    assert np.abs(np.abs(v) - 1.0).max() < 1e-12
    np.testing.assert_allclose(phi_values(-2, 1, a, b, -a - b), v.conj(), rtol=1e-12)


def test_phi_values_matches_scalar():
    # one row per frequency, each the single frequency's row; a point alone
    # gives its column
    g = make_grid(5)
    t1, t2, t3 = g.t_arrays
    k1, k2, _ = frequency_arrays(3)
    rows = phi_values(k1, k2, t1, t2, t3)
    assert rows.shape == (len(k1), g.size)
    for a, b, row in zip(k1.tolist(), k2.tolist(), rows):
        assert np.array_equal(row, phi_values(a, b, t1, t2, t3))
    for i in range(0, g.size, 7):
        np.testing.assert_allclose(
            rows[:, i], phi_values(k1, k2, t1[i], t2[i], t3[i])[:, 0], rtol=0, atol=1e-12
        )


def test_orthonormality_on_exact_grid():
    # n = 16 integrates products of degree <= 3 pairs exactly (total degree 6 < 16/4)
    g = make_grid(16)
    t1, t2, t3 = g.t_arrays
    k1, k2, _ = frequency_arrays(3)
    vals = phi_values(k1, k2, t1, t2, t3)
    for i in range(len(k1)):
        for j in range(len(k1)):
            inner = g.weight * np.vdot(vals[j], vals[i])
            want = 1.0 if i == j else 0.0
            assert abs(inner - want) < 1e-12


# ------------------------------------------------------------------- spectral


def _sample_spectrum(max_degree=4, seed=0):
    rng = np.random.default_rng(seed)
    coeffs = {}
    k1, k2, _ = frequency_arrays(max_degree)
    for a, b in zip(k1.tolist(), k2.tolist()):
        coeffs[(a, b, -a - b)] = complex(rng.standard_normal(), rng.standard_normal())
    return SpectralFunction(coeffs)


def _spectrum(max_degree, rng, real_symmetric):
    """random_spectrum, or independent complex normals on every frequency up to
    max_degree, built from arrays: a spectrum that is not real-symmetric."""
    if real_symmetric:
        return random_spectrum(max_degree, rng)
    k1, k2, _ = frequency_arrays(max_degree)
    re, im = rng.standard_normal((2, k1.size))
    return SpectralFunction.from_arrays(k1, k2, re + 1j * im, max_degree)


def _fields(f):
    return f.k1, f.k2, f.shell, f.coeffs


def test_spectral_function_validation():
    with pytest.raises(ValueError):
        SpectralFunction({(1, 1, 1): 1.0})
    f = SpectralFunction({(1, 0, -1): 2.0, (0, 0, 0): 1.0})
    assert f.items() == [((0, 0, 0), 1.0), ((1, 0, -1), 2.0)]
    assert f.support_size == 2
    assert f.degree() == 1


def test_spectral_function_max_degree_enforced():
    with pytest.raises(ValueError):
        SpectralFunction({(3, 0, -3): 1.0}, max_degree=2)


def test_support_arrays_are_read_only():
    f = _sample_spectrum(3)
    for a in _fields(f):
        with pytest.raises(ValueError):
            a[0] = 0


def test_support_size_leaves_lookup_dict_unbuilt():
    # an instance holds its support arrays and max_degree, no per-entry state
    f = _sample_spectrum(3)
    assert f.support_size == 1 + 3 * 3 * 4
    f.items()
    assert set(vars(f)) == {"k1", "k2", "shell", "coeffs", "max_degree"}


@pytest.mark.parametrize("real_symmetric", [True, False])
def test_lookups_agree_between_constructors(real_symmetric):
    f = _spectrum(5, np.random.default_rng(4), real_symmetric)
    coeffs = dict(f.items())
    by_init = SpectralFunction(coeffs)
    back = np.arange(f.support_size)[::-1]  # bulk path sorts its input
    by_arrays = SpectralFunction.from_arrays(f.k1[back], f.k2[back], f.coeffs[back])
    other = _sample_spectrum(6, seed=1)
    for a, b in zip(_fields(by_init), _fields(by_arrays)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert by_init.l2_norm() == by_arrays.l2_norm()
    assert by_init.is_real_symmetric() == by_arrays.is_real_symmetric() == real_symmetric
    assert max_coeff_diff(by_init, by_arrays) == 0.0
    assert max_coeff_diff(by_init, other) == max_coeff_diff(by_arrays, other) > 0.0


@pytest.mark.parametrize(
    "keys, max_degree, message",
    [
        ([(1, 0, -1), (0, 0, 0), (1, 0, -1)], None, "duplicate frequency (1, 0, -1)"),
        ([(0, 0, 0), (1, 1, 1)], None, "frequency triple must sum to 0, got (1, 1, 1)"),
        ([(0, 0, 0), (3, 0, -3)], 2, "coefficient at degree 3 exceeds declared max_degree 2"),
        # several faults: duplicates are checked before max_degree, and the
        # repeat named is the one first in canonical order, not in input order
        ([(3, 0, -3), (1, 0, -1), (0, 0, 0), (1, 0, -1)], 2, "duplicate frequency (1, 0, -1)"),
        ([(2, 0, -2), (2, 0, -2), (1, 0, -1), (1, 0, -1)], None, "duplicate frequency (1, 0, -1)"),
    ],
    ids=["duplicate", "zero-sum", "max-degree", "duplicate-and-max-degree", "two-duplicates"],
)
def test_bulk_construction_rejects_what_init_rejects(keys, max_degree, message):
    with pytest.raises(ValueError) as init_error:
        SpectralFunction([(k, 1.0) for k in keys], max_degree=max_degree)
    assert str(init_error.value) == message
    k1, k2, k3 = np.array(keys).T
    if (k1 + k2 + k3).any():  # from_arrays implies k3 = -k1 - k2: only a triple can miss 0
        assert str(init_error.value) == "frequency triple must sum to 0, got (1, 1, 1)"
    else:
        with pytest.raises(ValueError) as bulk_error:
            SpectralFunction.from_arrays(k1, k2, np.ones(len(keys), complex), max_degree)
        assert str(bulk_error.value) == str(init_error.value)


@pytest.mark.parametrize("k1, k2, coeffs", [
    ([0, 1], [0], [1.0, 2.0]),
    ([0, 1], [0, -1], [1.0]),
    (np.zeros((2, 1), int), np.zeros((2, 1), int), np.ones((2, 1))),
    (0, 0, 1.0),
])
def test_from_arrays_rejects_arrays_of_other_shapes(k1, k2, coeffs):
    with pytest.raises(ValueError, match="must be 1-D arrays of one length"):
        SpectralFunction.from_arrays(k1, k2, coeffs)


@pytest.mark.parametrize("make, frequency", [
    (lambda: SpectralFunction.from_arrays([0, -2**63], [1, 0], [1.0, 2.0]), (-2**63, 0, 2**63)),
    (lambda: SpectralFunction.from_arrays([2**62], [2**62], [1.0]), (2**62, 2**62, -2**63)),
    (lambda: SpectralFunction({(2**62, 2**62, -2**63): 1.0}), (2**62, 2**62, -2**63)),
    (lambda: SpectralFunction.from_arrays([1, 2**63], [0, 0], [1.0, 2.0]), (2**63, 0, -2**63)),
    (lambda: SpectralFunction.from_arrays([0], [-2**63 - 1], [1.0]), (0, -2**63 - 1, 2**63 + 1)),
    (lambda: SpectralFunction({(1, -1, 0): 1.0, (2**63, 0, -2**63): 2.0}), (2**63, 0, -2**63)),
    (lambda: SpectralFunction({(0, -2**63 - 1, 2**63 + 1): 1.0}), (0, -2**63 - 1, 2**63 + 1)),
    # a duplicate too: the bound is checked first
    (lambda: SpectralFunction.from_arrays([1, 1, 2**62], [0, 0, 0], [1.0, 2.0, 3.0]), (2**62, 0, -2**62)),
    (lambda: SpectralFunction([((1, -1, 0), 1.0), ((1, -1, 0), 2.0), ((2**62, -2**62, 0), 3.0)]),
     (2**62, -2**62, 0)),
], ids=[
    "arrays-min-int64", "arrays-shell-2^63", "mapping-shell-2^63",
    "arrays-2^63", "arrays-below-int64", "mapping-2^63", "mapping-below-int64",
    "arrays-duplicate-and-2^62", "mapping-duplicate-and-2^62",
])
def test_store_rejects_frequencies_at_or_past_2_pow_62(make, frequency):
    # at the bound an int64 shell can wrap: the first three were stored with
    # shells 0, 2^62, 2^62; past int64 the conversion itself overflows
    with pytest.raises(ValueError, match=re.escape(f"frequency {frequency} lies outside")):
        make()


@pytest.mark.parametrize("make, frequency", [
    (lambda: SpectralFunction.from_arrays([1.5], [0], [1.0]), "(k1, k2) = (1.5, 0)"),
    (lambda: SpectralFunction.from_arrays([0, 2], [1, -0.5], [1.0, 2.0]), "(k1, k2) = (2, -0.5)"),
    (lambda: SpectralFunction.from_arrays([math.inf], [0], [1.0]), "(k1, k2) = (inf, 0)"),
    (lambda: SpectralFunction.from_arrays([0], [math.nan], [1.0]), "(k1, k2) = (0, nan)"),
    (lambda: SpectralFunction({(1.7, -1.7, 0.0): 1.0}), "(k1, k2, k3) = (1.7, -1.7, 0.0)"),
    (lambda: SpectralFunction({(0, 0, 0): 1.0, (1, -1, 0.5): 2.0}), "(k1, k2, k3) = (1.0, -1.0, 0.5)"),
    (lambda: SpectralFunction({(math.inf, -math.inf, 0): 1.0}), "(k1, k2, k3) = (inf, -inf, 0.0)"),
], ids=["arrays-half", "arrays-second", "arrays-inf", "arrays-nan",
        "mapping-1.7", "mapping-k3", "mapping-inf"])
def test_store_rejects_frequencies_that_are_not_integers(make, frequency):
    # a cast alone truncated 1.5 to 1 and (1.7, -1.7, 0.0) to (1, -1, 0)
    with pytest.raises(ValueError, match=re.escape(f"frequency {frequency} must have integer")):
        make()


def test_store_takes_integral_floats_as_their_integers():
    f = SpectralFunction.from_arrays([1.0, -2.0, 2**61], np.array([0.0, 1.0, 0.0]), [1, 2, 3])
    assert f.k1.dtype == f.k2.dtype == np.int64
    assert f.k1.tolist() == [1, -2, 2**61] and f.k2.tolist() == [0, 1, 0]
    g = SpectralFunction({(1.0, -1.0, 0.0): 1.0, (0, 0, 0): 2.0})
    assert g.items() == [((0, 0, 0), 2.0), ((1, -1, 0), 1.0)]
    assert SpectralFunction.from_arrays(np.array([3], dtype=np.int8), [True], [1.0]).k2.tolist() == [1]


def test_store_accepts_frequencies_just_below_2_pow_62():
    top = 2**62 - 1
    k1, k2 = [top, 0, -top, top, -top], [0, -top, top, top, -top]
    f = SpectralFunction.from_arrays(k1, k2, np.ones(5))
    want = sorted((max(abs(a), abs(b), abs(a + b)), a, b) for a, b in zip(k1, k2))
    assert list(zip(f.shell.tolist(), f.k1.tolist(), f.k2.tolist())) == want
    assert f.degree() == 2**63 - 2
    assert SpectralFunction({(top, top, -2 * top): 1.0}).degree() == 2**63 - 2


def test_kernel_family_coefficients_bitwise():
    f = kernel_family(0.5).function
    k1, k2, shell, c = _fields(f)
    for got, want in zip((k1, k2, shell), frequency_arrays(64)):
        assert np.array_equal(got, want)
    assert c.tolist() == [0.5**nu for nu in shell.tolist()]
    assert f.support_size == 1 + 3 * 64 * 65


def _random_spectrum_oracle(max_degree, rng):
    """random_spectrum drawn one normal at a time, as a dict of coefficients."""
    coeffs = {}
    for k in (k for nu in range(max_degree + 1) for k in index_shell(nu)):
        neg = tuple(-v for v in k)
        if k < neg:
            continue
        if k == neg:
            coeffs[k] = complex(rng.standard_normal(), 0.0)
        else:
            c = complex(rng.standard_normal(), rng.standard_normal())
            coeffs[k] = c
            coeffs[neg] = c.conjugate()
    norm = math.sqrt(math.fsum(c.real * c.real + c.imag * c.imag for c in coeffs.values()))
    return {k: c / norm for k, c in coeffs.items()}


@pytest.mark.parametrize("seed", [0, 7])
def test_random_spectrum_matches_scalar_draws(seed):
    f = random_spectrum(12, np.random.default_rng(seed))
    want = _random_spectrum_oracle(12, np.random.default_rng(seed))
    got = dict(f.items())
    assert got.keys() == want.keys()
    for k, c in want.items():
        assert (got[k].real.hex(), got[k].imag.hex()) == (c.real.hex(), c.imag.hex())
    assert f.max_degree == 12


def _random_spectrum_by_negation(max_degree, rng):
    """random_spectrum built from the origin and the upper half, then their
    negations, left for the store to sort."""
    k1, k2, _ = frequency_arrays(max_degree)
    half = (k1 > 0) | ((k1 == 0) & (k2 >= 0))
    k1, k2 = k1[half], k2[half]
    re, im = np.insert(rng.standard_normal(2 * k1.size - 1), 1, 0.0).reshape(-1, 2).T
    k1, k2 = np.concatenate([k1, -k1[1:]]), np.concatenate([k2, -k2[1:]])
    re, im = np.concatenate([re, re[1:]]), np.concatenate([im, -im[1:]])
    norm = math.sqrt(math.fsum((re * re + im * im).tolist()))
    if norm > 0.0:
        re, im = re / norm, im / norm
    coeffs = np.empty(re.size, dtype=complex)
    coeffs.real, coeffs.imag = re, im
    return SpectralFunction.from_arrays(k1, k2, coeffs, max_degree)


@pytest.mark.parametrize("max_degree", [0, 1, 2, 5, 10, 64])
def test_random_spectrum_is_drawn_in_canonical_order(monkeypatch, max_degree):
    # the store only copies the draw, and it equals the sorted construction
    # bit for bit, signed zeros included
    def no_sort(keys):
        raise AssertionError("random_spectrum sorted its draw")

    for seed in range(20):
        want = _random_spectrum_by_negation(max_degree, np.random.default_rng(seed))
        with monkeypatch.context() as patch:
            patch.setattr(np, "lexsort", no_sort)
            got = random_spectrum(max_degree, np.random.default_rng(seed))
        assert _bits(got) == _bits(want), seed


def test_spectral_items_canonical_order():
    f = _sample_spectrum(3, seed=5)
    keys = [k for k, _ in f.items()]
    decorated = [(max(abs(a), abs(b), abs(c)), a, b) for a, b, c in keys]
    assert decorated == sorted(decorated)


def test_shell_masses_and_l2():
    f = SpectralFunction({(0, 0, 0): 3.0, (1, 0, -1): 4.0})
    masses = f.shell_masses()
    assert masses[0] == pytest.approx(9.0)
    assert masses[1] == pytest.approx(16.0)
    assert f.l2_norm() == pytest.approx(5.0)


@pytest.mark.parametrize(
    "c, want", [(1e200, 1e200), (1e-200, 1e-200), (1e308 + 1e308j, 1.4142135623730951e308)]
)
def test_l2_norm_at_the_float_range_edges(c, want):
    # |c|^2 overflows or underflows, but the norm itself is a float: no inf,
    # no 0, and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SpectralFunction({(1, -1, 0): c}).l2_norm() == want


def test_l2_norm_is_the_plan_norm_at_multiplier_one():
    for fam in builtin_families(64):
        shells, norm, _ = _norm_plan(fam.function, 2.0, None)
        assert fam.function.l2_norm() == norm(np.ones(len(shells))), fam.name


def test_is_real_symmetric():
    f = SpectralFunction({(1, 0, -1): 1 + 2j, (-1, 0, 1): 1 - 2j})
    assert f.is_real_symmetric()
    g = SpectralFunction({(1, 0, -1): 1 + 2j})
    assert not g.is_real_symmetric()


def test_scale_shells_drops_zeros():
    f = _sample_spectrum(3)
    calls = []
    g = scale_shells(f, lambda shells: calls.append(shells) or (shells != 2).astype(float))
    assert len(calls) == 1  # once per call, with the occupied shells ascending
    assert calls[0].dtype == np.int64 and calls[0].tolist() == [0, 1, 2, 3]
    assert g.support_size == f.support_size - len(index_shell(2))
    got = dict(g.items())
    for k, c in f.items():
        if max(map(abs, k)) != 2:
            assert got[k] == c


@pytest.mark.parametrize("seed", range(4))
def test_scale_shells_stores_what_the_checked_constructor_would(seed):
    # the kept entries go straight into the store; the checked constructor
    # gives the same read-only arrays, bit for bit
    rng = np.random.default_rng(seed)
    f = random_spectrum(6, rng)
    weights = rng.standard_normal(7) * (rng.uniform(size=7) < 0.7)
    g = scale_shells(f, lambda shells: weights[shells])
    checked = SpectralFunction.from_arrays(g.k1, g.k2, g.coeffs, f.max_degree)
    assert g.max_degree == checked.max_degree == 6
    for a, b in zip(_fields(g), _fields(checked)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert not a.flags.writeable
    assert all(a.base is None for a in _fields(g))  # not views of f's arrays


@given(st.lists(st.integers(0, 6), max_size=30).map(sorted))
def test_shell_groups_equal_unique_on_sorted_shells(shells):
    shell = np.array(shells, dtype=np.int64)
    got, want = _shell_groups(shell), np.unique(shell, return_inverse=True)
    assert got[0].dtype == want[0].dtype and got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()


def test_truncate_and_subtract():
    f = _sample_spectrum(4)
    g = scale_shells(f, lambda shells: (shells <= 2).astype(float))
    assert g.degree() == 2
    assert g.support_size == 1 + 3 * 2 * 3
    kept = dict(g.items())
    for k, c in f.items():
        if max(map(abs, k)) <= 2:
            assert kept[k] == c
        else:
            assert k not in kept
    assert max_coeff_diff(f, f) == 0.0
    assert max_coeff_diff(f, g) > 0.0


def _max_coeff_diff_by_dicts(f, g):
    """A walk over the key union of per-entry dicts, with Python's abs(complex)."""
    a, b = dict(f.items()), dict(g.items())
    return max((abs(a.get(k, 0j) - b.get(k, 0j)) for k in a.keys() | b.keys()), default=0.0)


def test_max_coeff_diff_matches_the_dict_walk():
    rng = np.random.default_rng(17)
    empty = SpectralFunction({})
    one = SpectralFunction({(1, -1, 0): 3.0 - 4.0j})
    # disjoint supports, stored explicit zeros, one or both sides empty
    pairs = [
        (empty, empty),
        (empty, one),
        (one, empty),
        (one, SpectralFunction({(0, 1, -1): 1.0 + 1.0j, (2, -1, -1): 0.0})),
        (SpectralFunction({(1, -1, 0): 0.0, (0, 0, 0): -0.0j}), SpectralFunction({(1, -1, 0): 0.0})),
    ]
    for _ in range(200):
        halves = []
        for _ in range(2):
            h = random_spectrum(int(rng.integers(0, 5)), rng)
            keep = rng.random(h.support_size) < 0.6
            c = h.coeffs
            c = np.where(rng.random(len(c)) < 0.2, 0.0, c * np.exp(rng.normal(0.0, 30.0, len(c))))
            halves.append(SpectralFunction.from_arrays(h.k1[keep], h.k2[keep], c[keep]))
        pairs.append(tuple(halves))
    for f, g in pairs:
        for a, b in ((f, g), (g, f), (f, f)):
            got = max_coeff_diff(a, b)
            assert type(got) is float
            assert got == _max_coeff_diff_by_dicts(a, b)


def _merged_diff(f, g):
    """max_coeff_diff by the merge of the two supports, whatever they are."""
    k1, k2 = np.concatenate((f.k1, g.k1)), np.concatenate((f.k2, g.k2))
    order = np.lexsort((k2, k1))
    k1, k2 = k1[order], k2[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1])
    d = np.add.reduceat(np.concatenate((f.coeffs, -g.coeffs))[order], np.flatnonzero(first))
    return float(np.max(np.hypot(d.real, d.imag), initial=0.0))


def test_max_coeff_diff_skips_the_merge_on_equal_supports(monkeypatch):
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
    rng = np.random.default_rng(29)
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, 5e-324])
    for degree in (0, 1, 3, 10):
        for _ in range(20):
            f = random_spectrum(degree, rng)
            c = f.coeffs * np.exp(rng.normal(0.0, 30.0, f.support_size))
            pick = rng.random(len(c)) < 0.3
            c.real[pick] = rng.choice(special, int(pick.sum()))  # keeps the sign of -0.0
            g = SpectralFunction.from_arrays(f.k1, f.k2, c)
            keep = rng.random(f.support_size) < 0.7
            keep[rng.integers(f.support_size)] = False  # a proper subset of the support
            h = SpectralFunction.from_arrays(f.k1[keep], f.k2[keep], c[keep])
            for a, b, equal in ((f, g, True), (g, f, True), (g, g, True), (f, h, False), (h, g, False)):
                del sorts[:]
                with np.errstate(invalid="ignore"):  # inf - inf
                    got = max_coeff_diff(a, b)
                    assert len(sorts) == (0 if equal else 1)
                    assert got.hex() == _merged_diff(a, b).hex()


# -------------------------------------------------------- analyze / synthesize


def test_analyze_roundtrip_and_parseval():
    f = _sample_spectrum(6, seed=9)
    g = make_grid(64)
    samples = synthesize(f, g)
    assert isinstance(samples, GridFunction)
    back = analyze(samples, max_degree=6)
    assert max_coeff_diff(f, back) < 1e-12
    mass = sum(f.shell_masses())
    mean_sq = g.weight * float(np.sum(np.abs(samples.values) ** 2))
    assert abs(mass - mean_sq) < 1e-10


def _oracle_degrees(n):
    """A degree below n/4, one at n/4 (aliasing), and one at which bins collide.

    (k1, k2) -> ((k1 - k3) mod n, (k2 - k3) mod n) is one-to-one on degrees
    below n/2, or below n/3 when 3 divides n.
    """
    return sorted({(n - 1) // 4, -(-n // 4), n // 3 if n % 3 == 0 else n // 2})


@pytest.mark.parametrize("n", [4, 9, 56, 81])
def test_synthesize_matches_direct_sum(n):
    g = make_grid(n)
    t1, t2, t3 = g.t_arrays
    for degree in _oracle_degrees(n):
        f = _sample_spectrum(degree, seed=n)
        want = np.zeros(g.size, dtype=complex)
        for k, c in f.items():
            want += c * phi_values(k[0], k[1], t1, t2, t3)
        got = synthesize(f, g).values
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (n, degree)
    k1, k2, _ = np.array([k for k, _ in f.items()]).T
    bins = {((2 * a + b) % n, (a + 2 * b) % n) for a, b in zip(k1, k2)}
    assert len(bins) < f.support_size  # the top degree puts two frequencies in one bin


@pytest.mark.parametrize("n", [4, 9, 56, 81])
def test_analyze_matches_grid_average(n):
    g = make_grid(n)
    t1, t2, t3 = g.t_arrays
    rng = np.random.default_rng(n)
    samples = GridFunction(g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size))
    for degree in _oracle_degrees(n):
        k1, k2, _ = frequency_arrays(degree)
        want = np.mean(samples.values * np.conj(phi_values(k1, k2, t1, t2, t3)), axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            back = analyze(samples, degree)
        assert back.support_size == len(k1)
        assert np.array_equal(back.k1, k1) and np.array_equal(back.k2, k2)
        assert np.abs(back.coeffs - want).max() <= 1e-13 * np.abs(want).max(), (n, degree)


def test_analyze_warns_below_threshold():
    f = _sample_spectrum(4, seed=1)
    g = make_grid(16)
    samples = synthesize(f, g)
    with pytest.warns(ResolutionWarning):
        analyze(samples, max_degree=4)


@pytest.mark.parametrize("max_degree", [1.5, 2.0, True, "2", None, -1, 2.5])
def test_analyze_degree_must_be_a_nonnegative_integer(max_degree):
    # so must every degree and shell index of the lattice and the families,
    # and the store's declared bound, where None means "the largest shell":
    # 2.5 once built degree 3 under its own name, and max_degree=True stored 1
    samples = synthesize(_sample_spectrum(2, seed=1), make_grid(16))
    calls = [
        ("max_degree", lambda d: analyze(samples, d)),
        ("max_degree", frequency_arrays),
        ("shell index nu", index_shell),
        ("max_degree", lambda d: kernel_family(0.5, d)),
        ("max_degree", lambda d: shell_decay_family(2.0, d)),
        ("max_degree", lambda d: random_spectrum(d, np.random.default_rng(0))),
        ("max_degree", builtin_families),
        ("degree", polynomial_family),
        ("shell index nu", basis_family),
    ]
    if max_degree is not None:
        calls += [
            ("max_degree", lambda d: SpectralFunction.from_arrays([0], [0], [1.0], d)),
            ("max_degree", lambda d: SpectralFunction({(0, 0, 0): 1.0}, d)),
        ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got "):
            call(max_degree)


def test_gridfunction_shape_validated():
    g = make_grid(8)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(5, dtype=complex))


# -------------------------------------------------------------------- lp_norm


def test_lp_norm_basics():
    g = make_grid(8)
    one = GridFunction(g, np.ones(g.size, dtype=complex))
    for p in (1.0, 2.0, 3.5, math.inf):
        assert lp_norm(one, p) == pytest.approx(1.0)
    for p in (0.5, math.nan):
        with pytest.raises(ValueError, match="order p must satisfy p >= 1"):
            lp_norm(one, p)


def test_lp_norm_monotone_in_p():
    g = make_grid(12)
    rng = np.random.default_rng(4)
    f = GridFunction(g, rng.standard_normal(g.size) + 0j)
    norms = [lp_norm(f, p) for p in (1.0, 2.0, 4.0, 8.0)]
    assert norms == sorted(norms)
    assert lp_norm(f, math.inf) == pytest.approx(float(np.max(np.abs(f.values))))


def test_lp_norm_homogeneous():
    g = make_grid(8)
    rng = np.random.default_rng(6)
    vals = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    f = GridFunction(g, vals)
    s = GridFunction(g, 3.0 * vals)
    for p in (1.0, 2.0, math.inf):
        assert lp_norm(s, p) == pytest.approx(3.0 * lp_norm(f, p))


def test_lp_norm_beyond_the_range_of_its_powers():
    g = make_grid(8)
    for scale in (1e-200, 1e-160, 1e300):
        f = GridFunction(g, np.full(g.size, scale * (0.6 + 0.8j)))
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(f, p) == pytest.approx(scale, rel=1e-14)
    zero = GridFunction(g, np.zeros(g.size, dtype=complex))
    assert lp_norm(zero, 2.0) == 0.0


# ------------------------------------------------------------------- JSON I/O


def test_json_roundtrip_exact(tmp_path):
    f = _sample_spectrum(5, seed=13)
    path = tmp_path / "spec.json"
    save_spectral(f, path)
    g = load_spectral(path)
    assert max_coeff_diff(f, g) == 0.0
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_json_dict_shape():
    f = SpectralFunction({(1, 0, -1): 0.5 - 0.25j})
    d = spectral_to_json_dict(f)
    assert set(d) == {"max_degree", "entries"}
    e = d["entries"][0]
    assert e["k"] == [1, 0, -1]
    assert e["re"] == 0.5
    assert e["im"] == -0.25
    assert spectral_from_json_dict(d).items() == [((1, 0, -1), 0.5 - 0.25j)]


def test_json_rejects_bad_payloads():
    good = spectral_to_json_dict(SpectralFunction({(1, 0, -1): 1.0}))

    bad_sum = json.loads(json.dumps(good))
    bad_sum["entries"][0]["k"] = [1, 2, 0]
    with pytest.raises(SpectralFormatError, match=r"\(1, 2, 0\)"):
        spectral_from_json_dict(bad_sum)

    unknown = json.loads(json.dumps(good))
    unknown["extra"] = 1
    with pytest.raises(SpectralFormatError):
        spectral_from_json_dict(unknown)

    missing = json.loads(json.dumps(good))
    del missing["entries"][0]["re"]
    with pytest.raises(SpectralFormatError):
        spectral_from_json_dict(missing)

    toobig = json.loads(json.dumps(good))
    toobig["max_degree"] = 0
    with pytest.raises(SpectralFormatError):
        spectral_from_json_dict(toobig)

    dup = json.loads(json.dumps(good))
    dup["entries"].append(dict(dup["entries"][0]))
    with pytest.raises(SpectralFormatError):
        spectral_from_json_dict(dup)

    notnum = json.loads(json.dumps(good))
    notnum["entries"][0]["im"] = "zero"
    with pytest.raises(SpectralFormatError):
        spectral_from_json_dict(notnum)

    for field, value in (
        ("re", math.nan),
        ("im", math.inf),
        ("re", -math.inf),
        ("re", 10**400),
        ("im", True),
    ):
        nonfinite = json.loads(json.dumps(good))
        nonfinite["entries"][0][field] = value
        with pytest.raises(SpectralFormatError, match="finite"):
            spectral_from_json_dict(nonfinite)

    for value in (True, 2**62):  # 2^62 is beyond the store's int64 arithmetic
        bad_degree = json.loads(json.dumps(good))
        bad_degree["max_degree"] = value
        with pytest.raises(SpectralFormatError, match="max_degree"):
            spectral_from_json_dict(bad_degree)

    bool_k = json.loads(json.dumps(good))
    bool_k["entries"][0]["k"] = [True, 0, -1]
    with pytest.raises(SpectralFormatError, match="k must be"):
        spectral_from_json_dict(bool_k)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_zero_sum_k = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda t: [t[0], t[1], -t[0] - t[1]])
_valid_entries = st.fixed_dictionaries({"k": _zero_sum_k, "re": _finite, "im": _finite})
_any_entries = st.fixed_dictionaries(
    {
        "k": _zero_sum_k | st.lists(st.integers() | st.booleans(), max_size=4) | _json_values,
        "re": st.floats() | st.integers() | _json_values,
        "im": st.floats() | st.integers() | _json_values,
    },
    optional={"extra": _json_values},
)
_spectral_docs = st.fixed_dictionaries(
    {
        "max_degree": st.integers(0, 8) | st.integers() | _json_values,
        "entries": st.lists(_valid_entries | _any_entries, max_size=5) | _json_values,
    },
    optional={"extra": _json_values},
)


def test_load_spectral_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SpectralFormatError):
        load_spectral(path)
    path.write_bytes(b'{"max_degree": 0, "entries": [\xff]}')
    with pytest.raises(SpectralFormatError):
        load_spectral(path)


def _reference_from_json_dict(doc):
    """Entry-by-entry reference reader, each entry's checks in order with a
    tuple key and a dict: the oracle for spectral_from_json_dict's messages
    and stored support."""
    def is_int(value):
        return isinstance(value, int) and not isinstance(value, bool)

    def is_finite_number(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        try:
            return math.isfinite(value)
        except OverflowError:
            return False

    if not isinstance(doc, dict):
        raise SpectralFormatError("spectral document must be a JSON object")
    unknown = set(doc) - {"max_degree", "entries"}
    if unknown:
        raise SpectralFormatError(f"unknown top-level fields: {sorted(unknown)}")
    missing = {"max_degree", "entries"} - set(doc)
    if missing:
        raise SpectralFormatError(f"missing top-level fields: {sorted(missing)}")
    max_degree = doc["max_degree"]
    if not is_int(max_degree) or not 0 <= max_degree < 2**62:
        raise SpectralFormatError(f"max_degree must be an integer in [0, 2^62): {max_degree!r}")
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise SpectralFormatError("entries must be a list")
    coeffs = {}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SpectralFormatError(f"entry {pos} must be an object")
        unknown = set(entry) - {"k", "re", "im"}
        if unknown:
            raise SpectralFormatError(f"entry {pos}: unknown fields {sorted(unknown)}")
        missing = {"k", "re", "im"} - set(entry)
        if missing:
            raise SpectralFormatError(f"entry {pos}: missing fields {sorted(missing)}")
        k = entry["k"]
        if not isinstance(k, list) or len(k) != 3 or not all(is_int(v) for v in k):
            raise SpectralFormatError(f"entry {pos}: k must be a list of 3 integers, got {k!r}")
        if sum(k) != 0:
            raise SpectralFormatError(f"entry {pos}: frequency {tuple(k)} does not sum to zero")
        idx = tuple(k)
        if max(map(abs, k)) > max_degree:
            raise SpectralFormatError(
                f"entry {pos}: frequency {tuple(k)} exceeds max_degree {max_degree}"
            )
        if idx in coeffs:
            raise SpectralFormatError(f"entry {pos}: duplicate frequency {tuple(k)}")
        re, im = entry["re"], entry["im"]
        if not (is_finite_number(re) and is_finite_number(im)):
            raise SpectralFormatError(f"entry {pos}: re/im must be finite numbers")
        coeffs[idx] = complex(re, im)
    return SpectralFunction(coeffs, max_degree=max_degree)


def _bits(f):
    """The stored support as dtypes and raw bytes: -0.0 differs from 0.0."""
    return [(a.dtype.str, a.tobytes()) for a in _fields(f)] + [f.max_degree]


_small_k = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(lambda t: [t[0], t[1], -t[0] - t[1]])
_bad_entries = st.sampled_from(
    [
        {"k": [1, 1, 1], "re": 1.0, "im": 0.0},  # non-zero sum
        {"k": [5, -5, 0], "re": 1.0, "im": 0.0},  # above every max_degree drawn
        {"k": [0, 0, 0], "re": 1.0, "im": math.inf},
        {"k": [1, -1, 0], "re": 1.0, "im": 0.0},
        {"k": [2**70, -2**70, 0], "re": 1.0, "im": 0.0},  # beyond int64, sums to zero
        {"k": [2**70, 0, 0], "re": 1.0, "im": 0.0},
        {"k": [2**63 - 1, 2**63 - 1, 2], "re": 1.0, "im": 0.0},  # sum 2^64 wraps to 0 in int64
        {"k": [2**62, -2**62, 0], "re": 1.0, "im": 0.0},
        {"k": [0, 0, 0], "re": math.nan, "im": 0.0},
        {"k": [0, 1, -1], "re": 1.0, "im": "x"},
        {"k": [1, 0, -1], "re": 10**400, "im": 0.0},
        {"k": [1, 0, -1], "re": True, "im": 0.0},
        {"k": [True, 0, -1], "re": 1.0, "im": 0.0},
        {"k": [1, 0], "re": 1.0, "im": 0.0},
        {"k": (1, 0, -1), "re": 1.0, "im": 0.0},
        {"k": [1, -1, 0], "re": 1.0},
        {"k": [1, -1, 0], "re": 1.0, "im": 0.0, "x": 1},
        [],
    ]
)
_small_entries = st.fixed_dictionaries(
    {"k": _small_k, "re": _finite, "im": _finite | st.integers(-2, 2)}
)


@st.composite
def _faulty_docs(draw):
    """Small valid entries with faults inserted at several positions: the
    fixed bad entries, or a copy of another entry with k3 shifted by 0..2 (a
    duplicate, or a wrong sum sharing k1 and k2 with a valid entry)."""
    valid = draw(st.lists(_small_entries, max_size=6))
    entries = list(valid)
    for _ in range(draw(st.integers(0, 3))):
        if valid and draw(st.booleans()):
            k = list(draw(st.sampled_from(valid))["k"])
            k[2] += draw(st.integers(-2, 2))
            fault = {"k": k, "re": 1.0, "im": 0.0}
        else:
            fault = draw(_bad_entries)
        entries.insert(draw(st.integers(0, len(entries))), fault)
    return {"max_degree": draw(st.integers(0, 4)), "entries": entries}


@given(_spectral_docs | _faulty_docs() | _json_values)
@example(  # a valid entry, then a wrong sum on a lower shell with the same k1, k2
    {"max_degree": 3, "entries": [{"k": [1, 1, -2], "re": 1.0, "im": 0.0},
                                  {"k": [1, 1, 1], "re": 1.0, "im": 0.0}]}
)
@settings(max_examples=500, deadline=None)
def test_spectral_from_json_dict_fuzz(doc):
    # outside input parses or raises the one format error, with the message and
    # the stored support of the entry-by-entry reader
    try:
        want = _reference_from_json_dict(doc)
    except SpectralFormatError as exc:
        with pytest.raises(SpectralFormatError) as got:
            spectral_from_json_dict(doc)
        assert str(got.value) == str(exc)
        return
    assert _bits(spectral_from_json_dict(doc)) == _bits(want)


@pytest.mark.parametrize(
    "k, fault",
    [
        ([2**70, -2**70, 0], "exceeds max_degree 3"),
        ([-(2**63), 2**63, 0], "exceeds max_degree 3"),
        ([2**62, -(2**62), 0], "exceeds max_degree 3"),
        ([2**70, 0, 0], "does not sum to zero"),
        ([2**63 - 1, 2**63 - 1, 2], "does not sum to zero"),
    ],
)
def test_json_huge_frequencies_get_the_entry_message(k, fault):
    # the first faulty entry picks the message, also past the int64 range
    entries = [{"k": [0, 0, 0], "re": 1.0, "im": 0.0}, {"k": k, "re": 1.0, "im": 0.0}, []]
    with pytest.raises(SpectralFormatError) as err:
        spectral_from_json_dict({"max_degree": 3, "entries": entries})
    assert str(err.value) == f"entry 1: frequency {tuple(k)} {fault}"


def test_json_roundtrip_keeps_signed_zeros(tmp_path):
    k1, k2 = np.array([0, 1, 1, 2]), np.array([0, -1, 0, -2])
    zeros = np.array([[-0.0, -0.0], [-0.0, 1.0], [1.0, -0.0], [0.0, 0.0]]).view(complex).ravel()
    f = SpectralFunction.from_arrays(k1, k2, zeros)
    path = tmp_path / "zeros.json"
    save_spectral(f, path)
    g = load_spectral(path)
    assert _bits(g) == _bits(f)
    assert np.signbit(g.coeffs.view(float)).tolist() == [True, True, True, False, False, True, False, False]


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=30, deadline=None)
def test_shuffled_input_stores_the_canonical_arrays(seed, real_symmetric):
    rng = np.random.default_rng(seed)
    f = _spectrum(4, rng, real_symmetric)
    k1, k2, c = f.k1, f.k2, f.coeffs
    perm = rng.permutation(len(k1))
    shuffled = SpectralFunction.from_arrays(k1[perm], k2[perm], c[perm], 4)
    canonical = SpectralFunction.from_arrays(k1, k2, c, 4)
    assert _bits(shuffled) == _bits(canonical) == _bits(f)
    doc = spectral_to_json_dict(f)
    doc["entries"] = [doc["entries"][i] for i in perm.tolist()]
    assert _bits(spectral_from_json_dict(doc)) == _bits(f)


def test_canonical_input_is_stored_without_a_sort(monkeypatch):
    f = random_spectrum(5, np.random.default_rng(2))
    doc = spectral_to_json_dict(f)
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(len(keys[0])) or lexsort(keys))
    assert _bits(spectral_from_json_dict(doc)) == _bits(f)
    assert analyze(synthesize(f, make_grid(24)), 5).support_size == f.support_size
    assert scale_shells(f, lambda shells: 0.5**shells).support_size == f.support_size
    assert sorts == []
    doc["entries"].reverse()
    assert _bits(spectral_from_json_dict(doc)) == _bits(f)
    assert sorts == [f.support_size]  # the duplicate check's sort; the store only copies


@pytest.mark.parametrize("order", ["canonical", "reversed"])
def test_load_spectral_checks_once_and_stores_what_it_checked(tmp_path, monkeypatch, order):
    f = random_spectrum(4, np.random.default_rng(5))
    doc = spectral_to_json_dict(f)
    if order == "reversed":
        doc["entries"].reverse()
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    calls = []
    checks = fourier._support_checks
    monkeypatch.setattr(fourier, "_support_checks", lambda *args: calls.append(1) or checks(*args))

    def no_second_pass(*args, **kwargs):
        raise AssertionError("load_spectral passed its checked arrays to from_arrays")

    monkeypatch.setattr(SpectralFunction, "from_arrays", no_second_pass)
    assert _bits(load_spectral(path)) == _bits(f)
    assert calls == [1]


@given(st.integers(0, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_library_built_spectra_are_canonical_and_read_only(tmp_path_factory, degree, seed):
    # these spectra are stored as built, with no check at run time
    f = random_spectrum(degree, np.random.default_rng(seed))
    path = tmp_path_factory.mktemp("built") / "f.json"
    save_spectral(f, path)
    grid = make_grid(max(4, exactness_threshold(degree)))
    built = [
        f, load_spectral(path), analyze(synthesize(f, grid), degree),
        basis_family(degree).function, polynomial_family(degree).function,
        *(family.function for family in builtin_families(degree)),
    ]
    for g in built:
        assert not any(a.flags.writeable for a in _fields(g))
        assert g.k1.dtype == g.k2.dtype == g.shell.dtype == np.int64
        assert _canonical_order(g.k1, g.k2, g.shell) is None
        degrees = np.maximum(np.maximum(np.abs(g.k1), np.abs(g.k2)), np.abs(g.k1 + g.k2))
        assert np.array_equal(g.shell, degrees)
        assert g.max_degree >= g.degree()


def test_reversed_grid_file_loads_as_the_canonical_one(tmp_path):
    # a degree-12 random spectrum, as the grid inputs of the benchmark (469 entries)
    f = random_spectrum(12, np.random.default_rng([0, 0]))
    canonical, backwards = tmp_path / "grid.json", tmp_path / "reversed.json"
    save_spectral(f, canonical)
    doc = json.loads(canonical.read_text())
    doc["entries"].reverse()
    backwards.write_text(json.dumps(doc))
    a, b = load_spectral(canonical), load_spectral(backwards)
    assert f.support_size == 469 and a.max_degree == b.max_degree == 12
    for x, y in zip(_fields(a), _fields(b)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert not y.flags.writeable


@pytest.mark.parametrize("order", ["canonical", "reversed"])
def test_bulk_construction_owns_its_arrays(order):
    k1, k2 = np.array([0, -1, 0, 1, 1]), np.array([0, 1, 1, -1, 0])  # canonical
    step = 1 if order == "canonical" else -1
    inputs = [k1[::step].copy(), k2[::step].copy(), np.arange(1.0, 6.0)[::step] * (1 - 2j)]
    f = SpectralFunction.from_arrays(*inputs, max_degree=1)
    before = _bits(f)
    for given_array in inputs:
        assert given_array.flags.writeable
        assert not any(np.shares_memory(given_array, a) for a in _fields(f))
        given_array[:] = given_array[::-1] * 3
    assert _bits(f) == before
    assert ((1, -1, 0), 4 - 8j) in f.items()
