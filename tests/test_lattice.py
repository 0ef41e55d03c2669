import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsum.fourier import SpectralFunction, phi_values
from hexsum.kernels import _z_arrays
from hexsum.lattice import (
    OMEGA_AREA,
    _omega_mask,
    fold_arrays,
    frequency_arrays,
    from_cartesian,
    index_shell,
    to_cartesian,
)

EPS = 1e-12


def test_from_cartesian_frozen_value():
    # the Cartesian point (2/sqrt(3), 0) maps to the lattice vertex (1, 0, -1)
    t1, t2, t3 = from_cartesian(2.0 / math.sqrt(3.0), 0.0)
    assert abs(t1 - 1.0) < 1e-15
    assert t2 == 0.0
    assert abs(t3 + 1.0) < 1e-15


def test_cartesian_roundtrip():
    rng = np.random.default_rng(7)
    x1, x2 = rng.uniform(-5, 5, size=(200, 2)).T
    t1, t2, t3 = from_cartesian(x1, x2)
    assert np.array_equal(t1 + t2 + t3, np.zeros(200))
    y1, y2 = to_cartesian(t1, t2)
    assert np.abs(y1 - x1).max() < EPS and np.abs(y2 - x2).max() < EPS


def test_generator_matrix_and_area():
    a1 = to_cartesian(1.0, 0.0)
    a2 = to_cartesian(0.0, 1.0)
    det = a1[0] * a2[1] - a2[0] * a1[1]
    assert abs(det - 2.0 * math.sqrt(3.0) / 3.0) < 1e-15
    assert OMEGA_AREA == 3.0


def test_tuple_key_rejects_nonzero_sum():
    with pytest.raises(ValueError, match=r"must sum to 0, got \(1, 1, 1\)"):
        SpectralFunction({(1, 1, 1): 1.0})


def test_tuple_key_round_trips_through_the_store():
    k = (3, -1, -2)
    assert k in index_shell(3)
    f = SpectralFunction({k: 1.0})
    # its shell is read from the support arrays, and items() gives the tuple back
    assert (f.k1.tolist(), f.k2.tolist(), f.shell.tolist()) == ([3], [-1], [3])
    assert f.items() == [(k, 1.0)] and isinstance(f.items()[0][0], tuple)


def test_z_angles():
    z1, z2, z3 = _z_arrays(1.0, 0.0, -1.0)
    assert abs(z1 - 2.0 * math.pi / 3.0) < 1e-15
    assert abs(z2 + 4.0 * math.pi / 3.0) < 1e-15
    assert abs(z3 - 2.0 * math.pi / 3.0) < 1e-15
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.uniform(-2, 2, size=2)
        z1, z2, z3 = _z_arrays(a, b, -a - b)
        assert abs(z1 + z2 + z3) < 1e-12


def test_shell_sizes():
    assert [len(index_shell(nu)) for nu in range(6)] == [1, 6, 12, 18, 24, 30]


def test_shell_matches_brute_force():
    for nu in range(13):
        brute = set()
        for k1 in range(-nu, nu + 1):
            for k2 in range(-nu, nu + 1):
                k3 = -k1 - k2
                if max(abs(k1), abs(k2), abs(k3)) == nu:
                    brute.add((k1, k2, k3))
        got = index_shell(nu)
        assert set(got) == brute
        assert len(got) == len(brute)
        assert got == sorted(got)


def test_shell_closed_under_negation():
    for nu in (1, 4, 9):
        k1, k2, _ = frequency_arrays(nu, nu)
        shell = set(zip(k1.tolist(), k2.tolist()))
        assert set(zip((-k1).tolist(), (-k2).tolist())) == shell


def test_frequency_arrays_match_cube_scan():
    # canonical order: shell-major, lexicographic in (k1, k2) within a shell
    for d in range(21):
        brute = sorted(
            (max(abs(k1), abs(k2), abs(k1 + k2)), k1, k2)
            for k1 in range(-d, d + 1)
            for k2 in range(-d, d + 1)
            if abs(k1 + k2) <= d
        )
        k1, k2, shell = frequency_arrays(d)
        assert list(zip(shell.tolist(), k1.tolist(), k2.tolist())) == brute
        assert len(brute) == 1 + 3 * d * (d + 1)
    k1, k2, shell = frequency_arrays(9, min_degree=4)
    assert shell.tolist() == sorted(shell.tolist()) and set(shell.tolist()) == set(range(4, 10))
    assert [(a, b, -a - b) for a, b in zip(k1.tolist(), k2.tolist())] == [
        k for nu in range(4, 10) for k in index_shell(nu)
    ]


#: every (max_degree, min_degree) that the test suite asks frequency_arrays for
SUITE_DEGREES = (
    [(d, 0) for d in [*range(25), 27, 28, 32, 40, 64]]
    + [(d, d) for d in [*range(48), 128, 200]]
    + [(9, 4)]
)


def test_frequency_arrays_memo_is_read_only_and_fresh():
    # the one kept result is handed out again, read-only, and equals a fresh
    # enumeration whatever was asked for before
    for max_degree, min_degree in SUITE_DEGREES + SUITE_DEGREES[::-1]:
        got = frequency_arrays(max_degree, min_degree)
        assert all(a is b for a, b in zip(got, frequency_arrays(max_degree, min_degree)))
        fresh = frequency_arrays.__wrapped__(max_degree, min_degree)
        for a, b in zip(got, fresh):
            assert a is not b and a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[:1] = 7


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        index_shell(-1)
    with pytest.raises(ValueError):
        frequency_arrays(-1)


coords = st.floats(
    min_value=-20.0, max_value=20.0, allow_nan=False, allow_infinity=False
)


@given(coords, coords)
@settings(max_examples=200)
def test_fold_lands_in_omega_and_is_idempotent(a, b):
    ft = fold_arrays([a], [b])
    assert _omega_mask(*ft).all()
    assert [x.tobytes() for x in fold_arrays(ft[0], ft[1])] == [x.tobytes() for x in ft]


@given(coords, coords)
@settings(max_examples=100)
def test_fold_preserves_basis_monomials(a, b):
    k1, k2 = [1, 2, 0], [0, -1, 3]
    at_ft = phi_values(k1, k2, *fold_arrays([a], [b]))
    assert np.abs(at_ft - phi_values(k1, k2, a, b, -(a + b))).max() < 1e-9


def test_fold_identity_inside_omega():
    f1, f2, f3 = fold_arrays([0.25], [-0.5])
    assert (f1[0], f2[0], f3[0]) == (0.25, -0.5, 0.25)


def test_fold_arrays_matches_scalar():
    # each point folds as it does alone
    rng = np.random.default_rng(11)
    t1 = rng.uniform(-8, 8, size=300)
    t2 = rng.uniform(-8, 8, size=300)
    f1, f2, f3 = fold_arrays(t1, t2)
    for i in range(300):
        assert fold_arrays(t1[i], t2[i]) == (f1[i], f2[i], f3[i])


def test_fold_arrays_leaves_points_of_omega_unchanged():
    # the reduction to the base cell rounds t2 + 1 for t2 in (-1/2, 0) and
    # t1 + 3 past the cell's left edge; the points of Omega skip it, bit for bit
    rng = np.random.default_rng(0)
    t1, t2 = rng.uniform(-1.0, 1.0, size=(2, 100_000))
    inside = _omega_mask(t1, t2, -t1 - t2)
    f1, f2, f3 = fold_arrays(t1, t2)
    assert np.count_nonzero(inside) > 70_000
    assert f1[inside].tobytes() == t1[inside].tobytes()
    assert f2[inside].tobytes() == t2[inside].tobytes()
    assert f3[inside].tobytes() == (-t1 - t2)[inside].tobytes()


def test_tiling_exactly_one_translate_in_omega():
    rng = np.random.default_rng(5)
    for _ in range(150):
        a, b = rng.uniform(-4, 4, size=2)
        hits = 0
        for j1 in range(-9, 10):
            for j2 in range(-9, 10):
                if (j1 - j2) % 3 != 0:
                    continue
                u, v = a + j1, b + j2
                if _omega_mask(u, v, -u - v):
                    hits += 1
        assert hits == 1


def test_fold_boundary_rounding_regression():
    # t2 - floor(t2) rounds up to exactly 1.0 here; the reduced point then
    # sits on an excluded edge of the base cell and must be renormalized
    tiny = -3.7977372615123547e-69
    t1 = np.array([1.0, tiny, 3.0 + tiny, -1.0 - 1e-18])
    t2 = np.array([tiny, 1.0, tiny, -1.0 - 1e-18])
    assert _omega_mask(*fold_arrays(t1, t2)).all()
    for a, b in zip(t1, t2):
        assert _omega_mask(*fold_arrays(a, b))


def test_omega_membership_boundary():
    assert _omega_mask(-1.0, 0.0, 1.0)      # t1 = -1 included
    assert not _omega_mask(1.0, 0.0, -1.0)  # t1 = 1 excluded
    assert _omega_mask(0.0, -1.0, 1.0)      # t3 = 1 included
    assert not _omega_mask(0.0, 1.0, -1.0)  # t2 = 1 excluded
