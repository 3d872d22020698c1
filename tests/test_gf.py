"""Exact field arithmetic and linear algebra.

Expected values in the oracle tests below were derived by hand (row
reduction over GF(5) on paper) and frozen before the implementation was
written.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabrec.gf import (
    DEFAULT_MODULI,
    SMALL_RREF_ENTRIES,
    Field,
    FieldError,
    coset_rank_maximize,
)


F5 = Field(5)
F2 = Field(2)
F4 = Field(2, 2)
F9 = Field(3, 2)
F8 = Field(2, 3)
F251 = Field(251)


# -- frozen hand-derived values ------------------------------------------


def test_kernel_canonical_gf5():
    # ker [[1,2],[2,4]] over GF(5): x = -2y, canonical echelon rep (1, 2)
    a = F5.mat([[1, 2], [2, 4]])
    k = F5.kernel(a)
    assert k.tolist() == [[1, 2]]
    assert not np.any(F5.matmul(a, k.T))


def test_solve_free_vars_zero_gf5():
    a = F5.mat([[1, 2], [2, 4]])
    x = F5.solve(a, F5.mat([[1], [2]]).reshape(-1))
    assert x.tolist() == [1, 0]


def test_solve_inconsistent_returns_none():
    a = F5.mat([[1, 2], [2, 4]])
    assert F5.solve(a, np.array([1, 3], dtype=np.int16)) is None


def test_rref_pivots():
    a = F5.mat([[0, 1, 2], [0, 2, 4], [1, 0, 3]])
    r, piv = F5.rref(a)
    assert piv == (0, 1)
    assert r.tolist() == [[1, 0, 3], [0, 1, 2], [0, 0, 0]]


def test_coset_rank_maximize_exhaustive():
    base = F5.mat([[1, 0], [0, 0]])
    d = F5.mat([[0, 0], [0, 1]])
    m, coeffs, rank, exhaustive = coset_rank_maximize(F5, base, [d])
    assert rank == 2
    assert exhaustive
    assert coeffs == (1,)  # smallest coefficient attaining full rank
    assert m.tolist() == [[1, 0], [0, 1]]


def test_coset_rank_maximize_no_directions():
    base = F5.mat([[1, 1], [2, 2]])
    m, coeffs, rank, exhaustive = coset_rank_maximize(F5, base, [])
    assert rank == 1 and coeffs == () and exhaustive


def test_gf4_arithmetic_table():
    # GF(4) = {0, 1, t, t+1} encoded 0,1,2,3 with t^2 = t + 1
    assert int(F4.mul(2, 2)) == 3
    assert int(F4.mul(2, 3)) == 1
    assert int(F4.add(2, 3)) == 1
    assert F4.inv(2) == 3
    assert int(F4.add(1, 1)) == 0
    # GF(256), t^8 = 1 + t^2 + t^3 + t^4: t * t^7 exercises the top reduction row
    assert int(Field(2, 8).mul(2, 128)) == 29


def test_gf9_arithmetic():
    # GF(9), t^2 = -2t - 2 = t + 1 (modulus x^2 + 2x + 2)
    t = 3  # encodes t
    assert int(F9.mul(t, t)) == int(F9.add(3, 1))  # t^2 = t + 1 -> digits (1,1) -> 4
    assert int(F9.mul(t, t)) == 4


# -- field axioms, exhaustively ------------------------------------------


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
def test_field_axioms_exhaustive_small(p, k):
    f = Field(p, k)
    els = np.arange(f.q)
    a = els[:, None, None]
    b = els[None, :, None]
    c = els[None, None, :]
    assert np.array_equal(f.add(f.add(a, b), c), f.add(a, f.add(b, c)))
    assert np.array_equal(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)))
    assert np.array_equal(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)))
    ab = f.mul(els[:, None], els[None, :])
    assert np.array_equal(ab, ab.T)
    for x in f.nonzero():
        assert int(f.mul(x, f.inv(x))) == 1
    assert np.array_equal(f.add(els, f.neg(els)), np.zeros(f.q, dtype=np.int64))


@pytest.mark.slow
@pytest.mark.parametrize("p,k", sorted(DEFAULT_MODULI))
def test_field_axioms_exhaustive_all_extensions(p, k):
    f = Field(p, k)
    els = np.arange(f.q)
    # pairwise laws fully; associativity/distributivity on a full 3d grid
    a = els[:, None, None]
    b = els[None, :, None]
    c = els[None, None, :]
    assert np.array_equal(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)))
    assert np.array_equal(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)))
    for x in f.nonzero():
        assert int(f.mul(x, f.inv(x))) == 1


def test_bad_modulus_rejected():
    with pytest.raises(FieldError):
        Field(2, 2, modulus=(0, 0, 1))  # x^2 reducible
    with pytest.raises(FieldError):
        Field(4)
    with pytest.raises(FieldError):
        Field(2, 9)


# -- linear algebra properties --------------------------------------------


# GF(251) has the widest tables and the largest int64 sums in matmul
fields = st.sampled_from([F5, F2, F4, F9, F8, F251])


@st.composite
def field_matrix(draw, f=None, max_dim=5):
    fld = f if f is not None else draw(fields)
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    data = draw(st.lists(st.integers(0, fld.q - 1), min_size=m * n, max_size=m * n))
    return fld, np.array(data, dtype=np.int16).reshape(m, n)


@given(field_matrix())
@settings(max_examples=120, deadline=None)
def test_rref_row_space_preserved(fm):
    f, a = fm
    r, piv = f.rref(a)
    assert len(piv) == f.rank(a)
    # every original row lies in the span of the rref rows and vice versa
    stacked = np.concatenate([a, r], axis=0)
    assert f.rank(stacked) == len(piv)
    # pivot columns of the rref are standard basis vectors
    for i, c in enumerate(piv):
        col = r[:, c]
        assert col[i] == 1 and np.count_nonzero(col) == 1


@given(field_matrix())
@settings(max_examples=120, deadline=None)
def test_kernel_is_kernel(fm):
    f, a = fm
    ker = f.kernel(a)
    assert ker.shape[0] == a.shape[1] - f.rank(a)
    if ker.shape[0]:
        assert not np.any(f.matmul(a, ker.T))
    # canonical: rref of the kernel basis is itself
    r, piv = f.rref(ker)
    assert np.array_equal(r[: len(piv)], ker)


@given(field_matrix(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_consistent_systems(fm, data):
    f, a = fm
    if a.shape[1] == 0:
        return
    x0 = np.array(
        data.draw(st.lists(st.integers(0, f.q - 1), min_size=a.shape[1], max_size=a.shape[1])),
        dtype=np.int16,
    )
    b = f.matmul(a, x0[:, None]).reshape(-1)
    x = f.solve(a, b)
    assert x is not None
    assert np.array_equal(f.matmul(a, x[:, None]).reshape(-1), b)


@given(field_matrix(max_dim=4))
@example((F4, np.zeros((3, 0), dtype=np.int16)))
@example((F5, np.zeros((2, 0), dtype=np.int16)))
@settings(max_examples=80, deadline=None)
def test_matmul_against_naive(fm):
    f, a = fm
    b_shape = (a.shape[1], 3)
    rng = np.random.default_rng(7)
    b = rng.integers(0, f.q, size=b_shape).astype(np.int16)
    expect = np.zeros((a.shape[0], 3), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(3):
            s = 0
            for t in range(a.shape[1]):
                if f.k == 1:  # plain integers, independent of the field tables
                    s = (s + int(a[i, t]) * int(b[t, j])) % f.p
                else:
                    s = int(f.add(s, f.mul(int(a[i, t]), int(b[t, j]))))
            expect[i, j] = s
    assert np.array_equal(f.matmul(a, b), expect.astype(np.int16))


def reference_rref(f, a):
    """Gauss-Jordan with scalar field operations; same pivot rule as rref."""
    nrows, ncols = a.shape
    rows = [[int(x) for x in row] for row in a]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        below = [i for i in range(r, nrows) if rows[i][c]]
        if not below:
            continue
        rows[r], rows[below[0]] = rows[below[0]], rows[r]
        s = f.inv(rows[r][c])
        rows[r] = [int(f.mul(s, x)) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                g = int(f.neg(rows[i][c]))
                rows[i] = [int(f.add(y, f.mul(g, x))) for x, y in zip(rows[r], rows[i])]
        pivots.append(c)
    return np.array(rows, dtype=np.int16).reshape(nrows, ncols), tuple(pivots)


# sides up to twice the square root of the cutoff: about 40% of the shapes
# drawn are past it, so rref takes both its list and its vectorised path
RREF_SIDE = 2 * int(SMALL_RREF_ENTRIES ** 0.5)


@st.composite
def rref_input(draw):
    f = draw(fields)
    m = draw(st.integers(0, RREF_SIDE))
    n = draw(st.integers(0, RREF_SIDE))
    rank = draw(st.integers(0, RREF_SIDE))
    zeros = draw(st.sampled_from([0.0, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if rank < min(m, n):
        a = f.matmul(rng.integers(0, f.q, size=(m, rank)).astype(np.int16),
                     rng.integers(0, f.q, size=(rank, n)).astype(np.int16))
    else:
        a = rng.integers(0, f.q, size=(m, n)).astype(np.int16)
    a[rng.random((m, n)) < zeros] = 0
    return f, a


@given(rref_input())
@example((F5, np.zeros((0, 0), dtype=np.int16)))
@example((F4, np.zeros((0, RREF_SIDE), dtype=np.int16)))
@example((F9, np.zeros((RREF_SIDE, 0), dtype=np.int16)))
@settings(max_examples=200, deadline=None)
def test_rref_against_scalar_reference(fm):
    f, a = fm
    got, piv = f.rref(a)
    want, want_piv = reference_rref(f, a)
    assert got.dtype == np.int16 and got.shape == a.shape
    assert piv == want_piv
    assert np.array_equal(got, want)


def test_matinv_round_trip():
    a = F4.mat([[1, 2], [3, 0]])  # det = -(2*3) = t*(t+1) = 1
    ai = F4.matinv(a)
    assert ai is not None
    assert np.array_equal(F4.matmul(a, ai), F4.eye(2))
    singular = F4.mat([[1, 2], [2, 3]])  # row2 = t * row1
    assert F4.matinv(singular) is None


def test_coset_rank_maximize_refuses_past_its_limit():
    # 3 directions over GF(5) are 125 points, past a limit of 100: the base
    # comes back unwalked, flagged as not exhaustive
    base = F5.zeros(3, 3)
    dirs = []
    for i in range(3):
        d = F5.zeros(3, 3)
        d[i, i] = 1
        dirs.append(d)
    m, coeffs, rank, exhaustive = coset_rank_maximize(F5, base, dirs, exhaustive_limit=100)
    assert not exhaustive
    assert rank == 0 and coeffs == (0, 0, 0) and not m.any()
    m, coeffs, rank, exhaustive = coset_rank_maximize(F5, base, dirs, exhaustive_limit=125)
    assert exhaustive and rank == 3 and coeffs == (1, 1, 1)