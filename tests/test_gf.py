"""Exact field arithmetic and linear algebra.

Expected values in the oracle tests below were derived by hand (row
reduction over GF(5) on paper) and frozen before the implementation was
written.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabrec.gf import (
    DEFAULT_MODULI,
    SMALL_MATMUL_PRODUCT,
    SMALL_RREF_ENTRIES,
    SPARSE_RREF_NONZEROS_PER_LINE,
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


@given(field_matrix(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_matrix_is_solve_column_by_column(fm, data):
    # the batched solves (Ext^1 restrictions, Nakayama actions, graded lifts)
    # rely on this: one augmented rref, each column with its free variables
    # 0, None as soon as one column has no solution
    f, a = fm
    cols = data.draw(st.integers(0, 3))
    x0 = np.array(data.draw(st.lists(st.integers(0, f.q - 1), min_size=a.shape[1] * cols,
                                     max_size=a.shape[1] * cols)), dtype=np.int16)
    b = f.matmul(a, x0.reshape(a.shape[1], cols))
    if data.draw(st.booleans()) and b.size:
        i = data.draw(st.integers(0, b.shape[0] - 1))
        b[i, -1] = f.add(int(b[i, -1]), 1)
    x = f.solve_matrix(a, b)
    each = [f.solve(a, b[:, j]) for j in range(cols)]
    if any(c is None for c in each):
        assert x is None
    else:
        assert x.shape == (a.shape[1], cols)
        assert all(np.array_equal(x[:, j], c) for j, c in enumerate(each))
    with pytest.raises(FieldError, match="rhs length"):
        f.solve(a, np.zeros(a.shape[0] + 1, dtype=np.int16))


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


def reference_matmul(f, a, b):
    """a @ b from the field's tables and int64 sums: every product a_ij b_jk
    by the multiplication table, summed in base-p digits."""
    prods = f.mul(a[:, :, None], b[None, :, :]).astype(np.int64)
    powers = f.p ** np.arange(f.k, dtype=np.int64)
    digits = (prods[..., None] // powers) % f.p
    return ((digits.sum(axis=1) % f.p) @ powers).astype(np.int16)


@pytest.mark.parametrize("f", [F2, Field(3), F4, F5, Field(2, 8), F251],
                         ids=lambda f: f"GF({f.q})")
@pytest.mark.parametrize("m,n,r", [(3, 4000, 2), (5, 7, 6), (0, 4, 3), (3, 0, 4),
                                   (4, 5, 0), (0, 0, 0)])
def test_matmul_against_int64_reference(f, m, n, r):
    # the float64 product must be exact; with every entry q - 1 a prime
    # field's sums reach their bound n (p - 1)^2, 2.5e8 for GF(251) at
    # n = 4,000, past what float32 holds exactly
    rng = np.random.default_rng(m * 100 + n + r)
    a = rng.integers(0, f.q, size=(m, n)).astype(np.int16)
    b = rng.integers(0, f.q, size=(n, r)).astype(np.int16)
    for x, y in [(a, b), (np.full_like(a, f.q - 1), np.full_like(b, f.q - 1))]:
        got = f.matmul(x, y)
        assert got.dtype == np.int16 and got.shape == (m, r)
        assert np.array_equal(got, reference_matmul(f, x, y))


def digit_blowup_matmul(f, a, b):
    """a @ b by the digit blow-up that Field.matmul runs on nonempty shapes."""
    (m, n), r, k = a.shape, b.shape[1], f.k
    digits = f._digits.take(a, axis=0).reshape(m, n * k)
    blown = f._blowup[f._krange, b[:, None, :]].reshape(n * k, r * k)
    out = (digits @ blown).astype(np.int64) % f.p
    return (out.reshape(m, r, k) @ f._powers).astype(np.int16)


@pytest.mark.parametrize("f", [F2, Field(3), F4, F5], ids=lambda f: f"GF({f.q})")
def test_matmul_empty_shapes_match_the_digit_blowup(f):
    # a zero dimension returns zeros at once; shape, dtype and entries are
    # those the blow-up gives
    rng = np.random.default_rng(f.q)
    for m, n, r in itertools.product((0, 1, 3), repeat=3):
        if m and n and r:
            continue
        a = rng.integers(0, f.q, size=(m, n)).astype(np.int16)
        b = rng.integers(0, f.q, size=(n, r)).astype(np.int16)
        got, want = f.matmul(a, b), digit_blowup_matmul(f, a, b)
        assert got.shape == want.shape == (m, r) and got.dtype == want.dtype
        assert np.array_equal(got, want)


# m x n x r around SMALL_MATMUL_PRODUCT = 512: below, at and above it
SMALL_MATMUL_SHAPES = [(7, 73, 1), (1, 511, 1), (3, 10, 17), (8, 8, 8), (2, 256, 1),
                       (1, 1, 512), (3, 9, 19), (1, 513, 1), (9, 8, 8)]


@pytest.mark.parametrize("f", [F2, Field(3), F4, F5, F8, F9, Field(5, 2), F251],
                         ids=lambda f: f"GF({f.q})")
def test_small_matmul_against_the_digit_blowup(f):
    # the table path, called directly and through matmul on either side of
    # its threshold, gives the blow-up's shape, dtype and bytes
    assert SMALL_MATMUL_PRODUCT == 512
    rng = np.random.default_rng(f.q)
    for m, n, r in SMALL_MATMUL_SHAPES:
        a = rng.integers(0, f.q, size=(m, n)).astype(np.int16)
        b = rng.integers(0, f.q, size=(n, r)).astype(np.int16)
        for x, y in [(a, b), (np.full_like(a, f.q - 1), np.full_like(b, f.q - 1))]:
            want = digit_blowup_matmul(f, x, y)
            for got in (f._matmul_small(x, y), f.matmul(x, y)):
                assert got.shape == want.shape == (m, r) and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (m, n, r)


@pytest.mark.parametrize("f", [F2, Field(3), F4, F9, F251], ids=lambda f: f"GF({f.q})")
def test_trimmed_matmul_against_the_digit_blowup(f):
    # a large product drops the inner indices where a's column or b's row is
    # zero; the zero columns of a and zero rows of b overlap only in part,
    # or cover every inner index, and the result is the untrimmed blow-up's
    rng = np.random.default_rng(f.q)
    for m, n, r in [(9, 40, 7), (3, 200, 2), (20, 30, 20), (1, 600, 1)]:
        assert m * n * r > SMALL_MATMUL_PRODUCT
        a = rng.integers(1, f.q, size=(m, n)).astype(np.int16)
        b = rng.integers(1, f.q, size=(n, r)).astype(np.int16)
        a_zero, b_zero = rng.random(n) < 0.4, rng.random(n) < 0.4
        a_zero[:2], b_zero[:2] = (True, False), (True, True)  # overlap in part
        a[:, a_zero], b[b_zero] = 0, 0
        everywhere = b.copy()
        everywhere[~a_zero] = 0
        for x, y in [(a, b), (a, everywhere)]:
            want = digit_blowup_matmul(f, x, y)
            got = f.matmul(x, y)
            assert got.shape == want.shape == (m, r) and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (m, n, r)
        assert not f.matmul(a, everywhere).any()


def reference_kernel(f, a):
    """The kernel read off the rref of a in its own column order, which is
    not yet reduced, and reduced once more: Field.kernel's result by a
    second elimination instead of the column-reversed one."""
    ncols = a.shape[1]
    r, piv = f.rref(a)
    free = [c for c in range(ncols) if c not in piv]
    if not free:
        return np.zeros((0, ncols), dtype=np.int16)
    basis = np.zeros((len(free), ncols), dtype=np.int16)
    basis[range(len(free)), free] = 1
    basis[:, piv] = f.neg(r[: len(piv), free].T)
    return f.row_space(basis)


@pytest.mark.parametrize("f", [F2, F4, F5], ids=lambda f: f"GF({f.q})")
def test_kernel_without_pivots_is_the_identity(f):
    # no pivot: the kernel is everything, and eye(ncols) is its echelon
    # basis, with the bytes the second reduction gave
    for shape in ((0, 0), (0, 5), (3, 0), (3, 5), (1, 1)):
        a = np.zeros(shape, dtype=np.int16)
        got = f.kernel(a)
        assert got.dtype == np.int16 and got.shape == (shape[1], shape[1])
        assert got.tobytes() == np.eye(shape[1], dtype=np.int16).tobytes()
        assert got.tobytes() == reference_kernel(f, a).tobytes()
        assert f.rref_kernel(a, ()).tobytes() == got.tobytes()
    rng = np.random.default_rng(f.q)
    for _ in range(200):
        a = rng.integers(0, f.q, size=tuple(rng.integers(0, 6, size=2))).astype(np.int16)
        a[:, rng.random(a.shape[1]) < 0.3] = 0
        got, want = f.kernel(a), reference_kernel(f, a)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
# drawn are past it, so rref takes its list path and, by density, its
# sparse or its vectorised one
RREF_SIDE = 2 * int(SMALL_RREF_ENTRIES ** 0.5)


@st.composite
def rref_input(draw):
    f = draw(fields)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.integers(0, 2)) == 0:
        # a third of the draws: kron(I_t, B) with its rows and columns permuted, up to 64 a side:
        # sparse, with long runs of fill-in and back-substitution
        b = rng.integers(0, f.q, size=(draw(st.integers(1, 4)), draw(st.integers(1, 4))))
        t = draw(st.integers(1, 64 // max(b.shape)))
        a = f.kron(np.eye(t, dtype=np.int16), b.astype(np.int16))
        return f, a[rng.permutation(a.shape[0])][:, rng.permutation(a.shape[1])]
    m = draw(st.integers(0, RREF_SIDE))
    n = draw(st.integers(0, RREF_SIDE))
    rank = draw(st.integers(0, RREF_SIDE))
    zeros = draw(st.sampled_from([0.0, 0.5, 0.9, 0.98]))
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
@settings(max_examples=300, deadline=None)
def test_rref_against_scalar_reference(fm):
    f, a = fm
    got, piv = f.rref(a)
    want, want_piv = reference_rref(f, a)
    assert got.dtype == np.int16 and got.shape == a.shape
    assert piv == want_piv
    assert np.array_equal(got, want)
    assert f.pivots(a) == want_piv and f.rank(a) == len(want_piv)
    ker, want_ker = f.kernel(a), reference_kernel(f, a)
    assert ker.dtype == want_ker.dtype and ker.shape == want_ker.shape
    assert ker.tobytes() == want_ker.tobytes()


def pinned_nonzeros(f, shape, nnz, seed):
    """A matrix of the given shape with exactly nnz nonzero entries."""
    rng = np.random.default_rng(seed)
    a = np.zeros(shape, dtype=np.int16)
    a.flat[rng.choice(a.size, size=nnz, replace=False)] = rng.integers(1, f.q, size=nnz)
    return a


def test_rref_paths_on_either_side_of_their_thresholds(monkeypatch):
    # at most SMALL_RREF_ENTRIES entries: the list path; past it, at most
    # SPARSE_RREF_NONZEROS_PER_LINE (rows + cols) nonzeros: the sparse path;
    # one more, or dense: the vectorised path.  rref, row_space, pivots,
    # rank and kernel all take the matrix's path, once, and give the
    # references' answers.  Each path is told whether to reduce: rref,
    # row_space and kernel read the rref, pivots and rank only its pivots
    # (forward elimination), and a path not asked to reduce returns None
    # for the matrix.
    assert (SMALL_RREF_ENTRIES, SPARSE_RREF_NONZEROS_PER_LINE) == (256, 4)
    taken = []
    for name, path in [("_rref_small", "list"), ("_rref_sparse", "sparse"),
                       ("_rref_vectorised", "vectorised")]:
        def counted(self, m, reduce, _run=getattr(Field, name), _path=path):
            taken.append((_path, reduce))
            out = _run(self, m, reduce)
            assert (out[0] is None) == (not reduce)
            return out
        monkeypatch.setattr(Field, name, counted)
    cases = []
    for f in (F5, F4, F251):
        cases += [
            (f, pinned_nonzeros(f, (16, 16), 200, f.q), "list"),
            (f, pinned_nonzeros(f, (1, 256), 256, f.q), "list"),
            (f, pinned_nonzeros(f, (17, 16), 4 * 33, f.q), "sparse"),
            (f, pinned_nonzeros(f, (40, 60), 4 * 100, f.q), "sparse"),
            (f, pinned_nonzeros(f, (17, 16), 4 * 33 + 1, f.q), "vectorised"),
            (f, pinned_nonzeros(f, (40, 60), 4 * 100 + 1, f.q), "vectorised"),
            (f, pinned_nonzeros(f, (30, 20), 600, f.q), "vectorised"),
        ]
    reduces = {"rref": True, "row_space": True, "kernel": True,
               "pivots": False, "rank": False}
    for f, a, path in cases:
        want, want_piv = reference_rref(f, a)
        want_ker = reference_kernel(f, a)
        got = {}
        for name, reduce in reduces.items():
            taken.clear()
            got[name] = getattr(f, name)(a)
            assert taken == [(path, reduce)], (name, a.shape, np.count_nonzero(a))
        rref, piv = got["rref"]
        assert got["pivots"] == piv == want_piv and got["rank"] == len(want_piv)
        assert rref.dtype == np.int16 and rref.tobytes() == want.tobytes()
        assert got["row_space"].tobytes() == want[: len(want_piv)].tobytes()
        ker = got["kernel"]
        assert ker.shape == want_ker.shape and ker.tobytes() == want_ker.tobytes()
    assert {path for _, _, path in cases} == {"list", "sparse", "vectorised"}
    # an empty matrix is its own rref, with no pivots, and takes no path
    for shape in ((0, 0), (0, 7), (7, 0)):
        a = np.zeros(shape, dtype=np.int16)
        want, want_ker = reference_rref(f, a)[0], reference_kernel(f, a)
        taken.clear()
        got = {name: getattr(f, name)(a) for name in reduces}
        assert taken == []
        assert got["rref"][1] == got["pivots"] == () and got["rank"] == 0
        for m, w in ((got["rref"][0], want), (got["row_space"], want[:0]),
                     (got["kernel"], want_ker)):
            assert m.dtype == w.dtype and m.shape == w.shape and m.tobytes() == w.tobytes()
    # dense matrices keep the vectorised path, where the dict path is slower
    for f in (F251, F4):
        taken.clear()
        f.rank(np.random.default_rng(f.q).integers(1, f.q, size=(200, 200)).astype(np.int16))
        assert taken == [("vectorised", False)]


def test_pivots_and_rank_refuse_a_non_matrix():
    for a in (np.zeros(3, dtype=np.int16), np.zeros(0, dtype=np.int16)):
        for call in (F5.pivots, F5.rank, F5.kernel):
            with pytest.raises(FieldError, match="rref expects a matrix"):
                call(a)


def reference_products(f, t, x, y):
    """Every x_a y_b by scalar field operations, row b * len(x) + a."""
    d = t.shape[0]
    rows = []
    for yb in y:
        for xa in x:
            out = [0] * d
            for i in range(d):
                for j in range(d):
                    c = int(f.mul(int(xa[i]), int(yb[j])))
                    out = [int(f.add(o, f.mul(c, int(v)))) for o, v in zip(out, t[i, j])]
            rows.append(out)
    return np.array(rows, dtype=np.int16).reshape(len(y) * len(x), d)


@pytest.mark.parametrize("f", [F2, F4, F8, F251], ids=lambda f: f"GF({f.q})")
@pytest.mark.parametrize("nx,ny", [(3, 2), (0, 2), (2, 0), (1, 1)])
def test_products_against_scalar_reference(f, nx, ny):
    # random structure constants: products is bilinear, the algebra need
    # not be associative
    rng = np.random.default_rng(nx * 10 + ny)
    d = 4
    t = rng.integers(0, f.q, size=(d, d, d)).astype(np.int16)
    x = rng.integers(0, f.q, size=(nx, d)).astype(np.int16)
    y = rng.integers(0, f.q, size=(ny, d)).astype(np.int16)
    got = f.products(t, x, y)
    assert got.dtype == np.int16
    assert np.array_equal(got, reference_products(f, t, x, y))


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