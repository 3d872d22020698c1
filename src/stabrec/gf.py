"""Exact arithmetic and linear algebra over finite fields GF(p^k) with q = p^k <= 256.

Field elements are plain Python ints (and numpy integer arrays) in the range
0..q-1.  An element encodes the coefficient vector of a polynomial in the
generator t, in base p: n = sum(c_i * p**i) represents sum(c_i * t**i); for a
prime field (k = 1, modulus t) that is n itself.  Every field takes its
arithmetic from dense q x q lookup tables built once per field.

A matrix product a @ b (m x n times n x r) has two paths with the same
result, chosen by its shape alone.  When it takes at most
SMALL_MATMUL_PRODUCT scalar products m n r, as nearly all the calls the
searches make do, every product a_ij b_jk is taken at once: over a prime
field as an int64 product of the entries (sums of at most
n (p-1)^2 < 2^25, exact), reduced mod p; over GF(2^k) from the
multiplication table, summed by bitwise xor, since adding digit vectors
mod 2 is xor; over any other extension field from the table too, with the
products' base-p digits summed in int64 (at most n (p-1)) and reduced mod
p digit by digit.  A larger product first drops every inner index j at
which column j of a or row j of b is zero, since a_ij b_jk is then zero
for all i, k; what is left is a single product over GF(p): the left
factor is written out in base-p digits and each entry of the right
factor becomes the k x k GF(p)-matrix of multiplication by that entry.
That product is taken in float64, so that BLAS runs it; its entries are
integers of at most n k (p-1)^2 <= 62,500 n for an inner dimension n,
below 2^53 for any n up to 10^11, so it is exact in any summation order;
it is reduced mod p in int64.  The small path saves the blow-up's fixed
cost, most of a few-entry product over GF(p) or GF(2^k) (over odd-p
extension fields the two paths cost about the same); past the threshold
the blow-up wins, by 2-2.5 times at 30 x 30 x 30 over GF(4) on a 2-vCPU
Xeon.

Row reduction has three paths with the same result: the RREF and its
pivot columns are unique, whatever order the rows are reduced in.
Matrices of at most SMALL_RREF_ENTRIES entries, which are nearly all the
calls the searches make, are reduced on Python lists with list copies of
the tables, free of numpy's per-call overhead.  A larger matrix with at
most SPARSE_RREF_NONZEROS_PER_LINE * (rows + cols) nonzeros, as the total
Hom complexes of the derived checks are, is reduced on its nonzeros: each
row a {column: value} dict, eliminated by the pivot rows found so far
(`_rref_sparse`).  Any other matrix is reduced with one vectorised row
operation per pivot, on the columns from the pivot's onward.  Each
reduction is only as full as its caller reads:
- `rref` and `row_space` run Gauss-Jordan, clearing above and below each
  pivot;
- `pivots` and `rank` run forward elimination alone, clearing only below
  each pivot (the sparse path: reducing each row to a new leading column),
  which finds the same pivot columns;
- `kernel` reduces the matrix with its columns reversed, once, and reads
  the kernel's reduced echelon basis straight off that (`rref_kernel`).

All matrix routines are exact and deterministic.  Matrices are numpy arrays
of dtype int16 (float64 and int64 internally where products can overflow).
"""

from __future__ import annotations

import itertools

import numpy as np

# Default moduli for extension fields, as tuples of coefficients of the
# monic irreducible polynomial, lowest degree first, highest coefficient 1.
# These follow the standard (Conway polynomial) choices.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 2): (3, 6, 1),
    (11, 2): (2, 7, 1),
    (13, 2): (2, 12, 1),
}

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
                 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
                 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251)


# rref runs on Python lists up to this many entries and vectorised above it.
# The list path costs per row touched, the vectorised one per pivot: square
# matrices cross over near 18 x 18, and on the matrices the searches and
# resolutions actually reduce, 256 was the cheapest cutoff tried.
SMALL_RREF_ENTRIES = 256

# a larger matrix with at most this many nonzeros per row and column
# together, nnz <= 4 (rows + cols), is reduced on its nonzeros.  The
# vectorised path pays numpy's per-call overhead on every pivot whatever the
# density, the dict path pays per nonzero touched: on dense matrices 64 to
# 200 on a side it is 3.5-7 times slower (128 x 128 over GF(251): 17 ms
# vectorised, 123 ms on dicts, 2-vCPU Xeon), so they stay vectorised.
SPARSE_RREF_NONZEROS_PER_LINE = 4

# matmul takes a product of at most this many scalar products m n r from the
# tables and int64 sums, larger ones as one float64 product over GF(p)
SMALL_MATMUL_PRODUCT = 512


class FieldError(ValueError):
    pass


def _matrix(a) -> np.ndarray:
    """a as a fresh int16 matrix, for a row reduction to overwrite."""
    m = np.array(a, dtype=np.int16)
    if m.ndim != 2:
        raise FieldError("rref expects a matrix")
    return m


def _sparse(m: np.ndarray) -> bool:
    """Whether a matrix past SMALL_RREF_ENTRIES is reduced on its nonzeros."""
    return np.count_nonzero(m) <= SPARSE_RREF_NONZEROS_PER_LINE * sum(m.shape)


class Field:
    """The finite field GF(p^k), q = p^k <= 256.

    Scalar methods (add, mul, ...) accept ints or integer numpy arrays
    elementwise, with entries in 0..q-1: they index the field's tables.
    """

    def __init__(self, p: int, k: int = 1, modulus: tuple[int, ...] | None = None):
        if p not in _SMALL_PRIMES:
            raise FieldError(f"p = {p} is not a prime <= 251")
        if not 1 <= k <= 8 or p ** k > 256:  # k first: a huge p**k never ends
            raise FieldError(f"q = {p}**{k} out of supported range (q <= 256)")
        self.p = p
        self.k = k
        self.q = p ** k
        if modulus is None:
            # every (p, k) with k > 1 and q <= 256 has a default; k = 1 is t
            modulus = DEFAULT_MODULI.get((p, k), (0, 1))
        if any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) for c in modulus):
            # int() would truncate a float or parse a string
            raise FieldError(f"modulus coefficients must be integers, got {modulus!r}")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree k")
        self.modulus = modulus
        self._build_tables()

    # -- construction ------------------------------------------------------

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        n = np.arange(q, dtype=np.int64)
        powers = p ** np.arange(k, dtype=np.int64)
        digits = (n[:, None] // powers) % p

        add_digits = (digits[:, None, :] + digits[None, :, :]) % p
        self._add_t = (add_digits @ powers).astype(np.int16)
        self._neg_t = (((-digits) % p) @ powers).astype(np.int16)

        # t^m mod modulus for m < 2k-1, as digit vectors of length k
        red = np.zeros((2 * k - 1, k), dtype=np.int64)
        for m in range(k):
            red[m, m] = 1
        top = [(-c) % p for c in self.modulus[:k]]  # t^k = -(m_0 + ... + m_{k-1} t^{k-1})
        for m in range(k, 2 * k - 1):
            prev = red[m - 1]
            shifted = np.zeros(k, dtype=np.int64)
            shifted[1:] = prev[:-1]
            shifted = (shifted + prev[-1] * np.asarray(top)) % p
            red[m] = shifted

        # coefficients of t^0 .. t^(2k-2) in the unreduced product, folded
        # by red and reduced mod p once (below (2k-1) k p^3, exact in int64)
        conv = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            conv[:, :, i: i + k] += digits[:, None, i, None] * digits[None, :, :]
        self._mul_t = (((conv @ red) % p) @ powers).astype(np.int16)

        # invertibility of every nonzero element certifies irreducibility
        self._inv_t = np.zeros(q, dtype=np.int16)
        rows, cols = np.nonzero(self._mul_t == 1)
        self._inv_t[rows] = cols
        if np.count_nonzero(self._inv_t[1:]) != q - 1:
            raise FieldError("modulus is not irreducible over GF(p)")

        # for matmul, in float64 so that its product runs on BLAS: the base-p
        # digits of each element, and the GF(p)-matrices of x -> x * b
        # (_blowup[i, b] holds the digits of t^i * b)
        self._digits = digits.astype(np.float64)
        self._blowup = self._digits[self._mul_t[powers]]
        self._powers = powers
        self._krange = np.arange(k)[:, None]

        # for the small-shape matmul over odd p, k > 1: the digits as int64
        self._digits_i = digits

        # for the small-shape rref: the tables as nested Python lists
        self._mul_l = self._mul_t.tolist()
        self._add_l = self._add_t.tolist()
        self._neg_l = self._neg_t.tolist()
        self._inv_l = self._inv_t.tolist()

        # for the vectorised row operation: -(a b) in one lookup
        self._negmul = self._neg_t[self._mul_t]

    # -- scalar / elementwise arithmetic -----------------------------------

    def add(self, a, b):
        return self._add_t[a, b]

    def neg(self, a):
        return self._neg_t[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self._mul_t[a, b]

    def inv(self, a: int) -> int:
        a = int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self._inv_t[a])

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)

    # -- matrices -----------------------------------------------------------

    def mat(self, rows, shape: tuple[int, int] | None = None) -> np.ndarray:
        a = np.asarray(rows, dtype=np.int64)
        if shape is not None:
            a = a.reshape(shape)
        if a.ndim != 2:
            raise FieldError(f"expected a matrix, got ndim={a.ndim}")
        if self.k == 1:
            a = a % self.p
        elif a.size and (a.min() < 0 or a.max() >= self.q):
            raise FieldError("matrix entries out of field range")
        return a.astype(np.int16)

    def zeros(self, m: int, n: int) -> np.ndarray:
        return np.zeros((m, n), dtype=np.int16)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int16)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b.  With m, n or r zero the product is the zero matrix.  With
        m n r at most SMALL_MATMUL_PRODUCT it is summed from the products of
        the entries (`_matmul_small`).  Above that, only the inner indices j
        where column j of a and row j of b are both nonzero contribute; the
        product is zero if there is none, and otherwise one product over
        GF(p) on those indices: the base-p digits of a (m x nk) times the
        blow-up of b into multiplication matrices (nk x rk), reduced mod p
        and recombined digit by digit.

        The blow-up product is taken in float64, so BLAS runs it.  Its
        entries are integers of at most n k (p-1)^2 < 2^53, exact whatever
        order the sum is taken in; they are reduced as int64 (int32 would
        overflow for GF(251) once n reaches 34,360).  Both paths give the
        same int16 matrix."""
        a = np.asarray(a, dtype=np.int16)
        b = np.asarray(b, dtype=np.int16)
        if a.shape[1] != b.shape[0]:
            raise FieldError(f"shape mismatch {a.shape} @ {b.shape}")
        (m, n), r, k = a.shape, b.shape[1], self.k
        if not (m and n and r):
            return np.zeros((m, r), dtype=np.int16)
        if m * n * r <= SMALL_MATMUL_PRODUCT:
            return self._matmul_small(a, b)
        inner = np.flatnonzero(a.any(axis=0) & b.any(axis=1))
        if not inner.size:
            return np.zeros((m, r), dtype=np.int16)
        if inner.size < n:
            a, b, n = a[:, inner], b[inner], inner.size
        digits = self._digits.take(a, axis=0).reshape(m, n * k)
        blown = self._blowup[self._krange, b[:, None, :]].reshape(n * k, r * k)
        out = (digits @ blown).astype(np.int64)
        out %= self.p
        return (out.reshape(m, r, k) @ self._powers).astype(np.int16)

    def _matmul_small(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b from the products of the entries, for nonempty a and b with
        at most SMALL_MATMUL_PRODUCT of them.  A prime field multiplies the
        entries as int64 (each sum at most n (p-1)^2 < 2^25) and reduces
        mod p.  An extension field takes each product a_ij b_jk from its
        table, an m x n x r array, and sums over j in base-p digits: for
        p = 2 the digitwise sum mod 2 is the bitwise xor of the encodings;
        for odd p the products' digits are summed as int64 (at most
        n (p-1)), reduced mod p and recombined."""
        p = self.p
        if self.k == 1:
            out = a.astype(np.int64) @ b.astype(np.int64)
            out %= p
            return out.astype(np.int16)
        prods = self._mul_t[a[:, :, None], b[None, :, :]]
        if p == 2:
            return np.bitwise_xor.reduce(prods, axis=1)
        out = self._digits_i.take(prods, axis=0).sum(axis=1)
        out %= p
        return (out @ self._powers).astype(np.int16)

    def products(self, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Coordinate rows of every product x_a y_b of an algebra with
        structure constants t, t[i, j] the coordinates of b_i b_j: row
        b * len(x) + a holds x_a y_b.  Two matrix products: x_a b_j for all
        a, j, then contracted with y.  Each is taken as (B^T A^T)^T, so that
        matmul blows up x and y k^2-fold and the d x d^2 tensor only k-fold."""
        d, nx, ny = t.shape[0], len(x), len(y)
        x, y = np.asarray(x, dtype=np.int16), np.asarray(y, dtype=np.int16)
        xt = self.matmul(t.reshape(d, d * d).T, x.reshape(nx, d).T).T.reshape(nx, d, d)
        xt = xt.transpose(1, 0, 2).reshape(d, nx * d)
        return self.matmul(xt.T, y.reshape(ny, d).T).T.reshape(ny * nx, d)

    def scale(self, c: int, a: np.ndarray) -> np.ndarray:
        return np.asarray(self.mul(int(c), np.asarray(a)), dtype=np.int16)

    def kron(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Kronecker product with entry products taken in the field."""
        a = np.asarray(a, dtype=np.int16)
        b = np.asarray(b, dtype=np.int16)
        m, n = a.shape
        r, s = b.shape
        out = np.asarray(self.mul(a[:, None, :, None], b[None, :, None, :]), dtype=np.int16)
        return out.reshape(m * r, n * s)

    def add_mat(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.asarray(self.add(a, b), dtype=np.int16)

    def sub_mat(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.asarray(self.sub(a, b), dtype=np.int16)

    def rref(self, a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """Reduced row echelon form.  Returns (rref matrix, pivot column
        tuple).  The dense paths (`_rref_small`, `_rref_vectorised`) choose
        each pivot as the leftmost column, then the smallest row index; the
        sparse path (`_rref_sparse`) inserts the rows in turn instead.  All
        reach the same matrix, since the RREF of a matrix is unique."""
        m = _matrix(a)
        if m.size <= SMALL_RREF_ENTRIES:
            return self._rref_small(m)
        if _sparse(m):
            return self._rref_sparse(m)
        return self._rref_vectorised(m)

    def pivots(self, a: np.ndarray) -> tuple[int, ...]:
        """The pivot columns of `rref`, by forward elimination alone, on the
        same path `rref` takes: on the dense paths each pivot clears only
        the rows below it, and on the sparse path each row is reduced only
        until it leads at a new column.  Either leaves the pivot columns of
        the (unique) rref without its back-substitution."""
        m = _matrix(a)
        if not m.size:
            return ()
        if m.size <= SMALL_RREF_ENTRIES:
            return self._pivots_small(m)
        if _sparse(m):
            return self._rref_sparse(m, reduce=False)[1]
        return self._rref_vectorised(m, reduce=False)[1]

    def _rref_small(self, m: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """Gauss-Jordan on Python lists with the list copies of the tables;
        same pivot rule as the vectorised path, so the same (unique) RREF."""
        nrows, ncols = m.shape
        rows = m.tolist()
        mul, add, neg, inv = self._mul_l, self._add_l, self._neg_l, self._inv_l
        pivots = []
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            i = r
            while i < nrows and not rows[i][c]:
                i += 1
            if i == nrows:
                continue
            row = rows[i]
            rows[i] = rows[r]
            if row[c] != 1:
                scale = mul[inv[row[c]]]
                row = [scale[x] for x in row]
            rows[r] = row
            for j in range(nrows):
                f = rows[j][c]
                if f and j != r:
                    minus = mul[neg[f]]
                    rows[j] = [add[y][minus[x]] for x, y in zip(row, rows[j])]
            pivots.append(c)
            r += 1
        return np.array(rows, dtype=np.int16).reshape(nrows, ncols), tuple(pivots)

    def _pivots_small(self, m: np.ndarray) -> tuple[int, ...]:
        """`pivots` on Python lists: `_rref_small` with each pivot row left
        unscaled and only the rows below it cleared, by -(f / pivot)."""
        nrows, ncols = m.shape
        rows = m.tolist()
        mul, add, neg, inv = self._mul_l, self._add_l, self._neg_l, self._inv_l
        pivots = []
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            i = r
            while i < nrows and not rows[i][c]:
                i += 1
            if i == nrows:
                continue
            row = rows[i]
            rows[i] = rows[r]
            rows[r] = row
            scale = mul[neg[inv[row[c]]]]
            # rows r+1..i are zero at c: row i now holds the old row r
            for j in range(i + 1, nrows):
                f = rows[j][c]
                if f:
                    minus = mul[scale[f]]
                    rows[j] = [add[y][minus[x]] for x, y in zip(row, rows[j])]
            pivots.append(c)
            r += 1
        return tuple(pivots)

    def _rref_sparse(self, m: np.ndarray, reduce: bool = True
                     ) -> tuple[np.ndarray | None, tuple[int, ...]]:
        """Gaussian elimination on the nonzeros, with the list copies of the
        tables.  Each row is a {column: value} dict.  The rows are inserted
        in turn: a row is reduced by the pivot row at its leading column
        until it leads at a column with no pivot row, where it is scaled to
        a leading 1 and becomes that column's pivot row, or vanishes.  The
        pivot rows are then an echelon basis of the row space, so their
        leading columns are the rref's pivot columns.  With reduce False
        only those are returned, with None for the matrix.  Otherwise each
        pivot row, from the last pivot column down, is cleared at the later
        pivot columns by the rows already reduced, which gives the rref's
        rows."""
        mul, add, neg, inv = self._mul_l, self._add_l, self._neg_l, self._inv_l

        def clear(row, c, pivot_row):
            """row - row[c] pivot_row, in place; pivot_row is 1 at c."""
            minus = mul[neg[row[c]]]
            for col, x in pivot_row.items():
                y = add[row.get(col, 0)][minus[x]]
                if y:
                    row[col] = y
                else:
                    del row[col]

        i, j = np.nonzero(m)
        rows = [{} for _ in range(m.shape[0])]
        for r, c, x in zip(i.tolist(), j.tolist(), m[i, j].tolist()):
            rows[r][c] = x
        piv = {}
        for row in rows:
            while row:
                c = min(row)
                if c not in piv:
                    if row[c] != 1:
                        scale = mul[inv[row[c]]]
                        row = {col: scale[x] for col, x in row.items()}
                    piv[c] = row
                    break
                clear(row, c, piv[c])
        cols = sorted(piv)
        if not reduce:
            return None, tuple(cols)
        for c in reversed(cols):
            row = piv[c]
            # the rows of later pivot columns are zero at every other one,
            # so clearing one of them leaves the others as they are
            for later in [col for col in row if col != c and col in piv]:
                clear(row, later, piv[later])
        reduced = [piv[c] for c in cols]
        out = np.zeros(m.shape, dtype=np.int16)
        out[[r for r, row in enumerate(reduced) for _ in row],
            [col for row in reduced for col in row]] = [
                x for row in reduced for x in row.values()]
        return out, tuple(cols)

    def _rref_vectorised(self, m: np.ndarray, reduce: bool = True
                         ) -> tuple[np.ndarray, tuple[int, ...]]:
        """Gauss-Jordan with one numpy row operation per pivot; m is
        overwritten.  Left of its pivot column c the pivot row is zero, so
        the operation adds -(f x) (one `_negmul` lookup) to columns c onward
        only.  With reduce False only the rows below each pivot are cleared:
        the pivots are those of the rref, the matrix is only in echelon
        form."""
        nrows, ncols = m.shape
        mul, negmul, add, inv = self._mul_t, self._negmul, self._add_t, self._inv_t
        pivots = []
        r = 0
        for c in range(ncols):
            if r >= nrows:
                break
            nz = np.nonzero(m[r:, c])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                m[[r, i], c:] = m[[i, r], c:]
            if m[r, c] != 1:
                m[r, c:] = mul[inv[m[r, c]], m[r, c:]]
            rows_to_fix = r + nz[1:]
            if reduce:
                rows_to_fix = np.concatenate([np.nonzero(m[:r, c])[0], rows_to_fix])
            if rows_to_fix.size:
                update = negmul[m[rows_to_fix, c][:, None], m[r, c:]]
                m[rows_to_fix, c:] = add[m[rows_to_fix, c:], update]
            pivots.append(c)
            r += 1
        return m, tuple(pivots)

    def rank(self, a: np.ndarray) -> int:
        return len(self.pivots(a))

    def row_space(self, a: np.ndarray) -> np.ndarray:
        """Canonical basis (RREF rows, zero rows dropped) of the row space."""
        r, piv = self.rref(a)
        return r[: len(piv)]

    def kernel(self, a: np.ndarray) -> np.ndarray:
        """Canonical (RREF) basis of the right kernel {x : a x = 0}, as rows:
        one elimination, of a with its columns reversed (`rref_kernel`)."""
        return self.rref_kernel(*self.rref(_matrix(a)[:, ::-1]))

    def rref_kernel(self, r: np.ndarray, piv: tuple[int, ...]) -> np.ndarray:
        """`kernel` of a matrix a from the rref r and pivots piv of a with
        its columns reversed, a[:, ::-1], as `rref` returns them, so that a
        caller holding them does not reduce a again.

        Read in a's own column order, the basis vector of each free column
        c is 1 at c, 0 at every other free column, and nonzero elsewhere
        only at pivot columns right of c.  So in order of c it is already
        the reduced echelon basis of the kernel, and none of it is reduced
        again.  With no pivots the
        kernel is everything, and the identity is its echelon basis."""
        ncols = r.shape[1]
        if not piv:
            return self.eye(ncols)
        piv = [ncols - 1 - c for c in piv]
        free = [c for c in range(ncols) if c not in piv]
        basis = np.zeros((len(free), ncols), dtype=np.int16)
        basis[range(len(free)), free] = 1
        basis[:, piv] = self.neg(r[: len(piv), ::-1][:, free].T)
        return basis

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """One solution x of a x = b (free variables set to 0), or None: the
        one-column case of solve_matrix."""
        x = self.solve_matrix(a, np.asarray(b, dtype=np.int16).reshape(-1, 1))
        return None if x is None else x[:, 0]

    def solve_matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """One solution X of a X = b for matrix right-hand side (free
        variables set to 0), or None."""
        a = np.asarray(a, dtype=np.int16)
        b = np.asarray(b, dtype=np.int16)
        if b.shape[0] != a.shape[0]:
            raise FieldError("rhs length mismatch")
        r, piv = self.rref(np.concatenate([a, b], axis=1))
        ncols = a.shape[1]
        if any(pc >= ncols for pc in piv):
            return None
        x = np.zeros((ncols, b.shape[1]), dtype=np.int16)
        for ri, pc in enumerate(piv):
            x[pc] = r[ri, ncols:]
        return x

    def matinv(self, a: np.ndarray) -> np.ndarray | None:
        a = np.asarray(a, dtype=np.int16)
        n = a.shape[0]
        if a.shape != (n, n):
            raise FieldError("matinv expects a square matrix")
        return self.solve_matrix(a, self.eye(n))

    def is_invertible(self, a: np.ndarray) -> bool:
        a = np.asarray(a)
        return a.shape[0] == a.shape[1] and self.rank(a) == a.shape[0]


def coset_rank_maximize(field: Field, base: np.ndarray, directions: list[np.ndarray],
                        *, exhaustive_limit: int = 1 << 16):
    """Maximize rank over the affine coset {base + sum c_i directions[i]}.

    Walks the coefficient vectors in odometer order (the first coefficient
    fastest) up to the first that reaches full rank, min(base.shape).
    Returns (matrix, coeffs, rank, exhaustive).  A coset of more than
    exhaustive_limit points is not walked: the base point comes back with
    exhaustive False, and the caller must treat the answer as undecided.
    With exhaustive True the rank is the maximum over the coset.

    The engine no longer calls it; it stays because the benchmark's tracer
    (perfbench/tracing.py) wraps it by name, and goes with that entry.
    """
    base = np.asarray(base, dtype=np.int16)
    n = len(directions)
    best = (base, (0,) * n, field.rank(base))
    if best[2] >= min(base.shape) or n == 0:
        return (*best, True)
    if field.q ** n > exhaustive_limit:
        return (*best, False)
    for rev in itertools.islice(itertools.product(range(field.q), repeat=n), 1, None):
        m = base
        for c, d in zip(rev[::-1], directions):
            if c:
                m = field.add_mat(m, field.scale(c, d))
        r = field.rank(m)
        if r > best[2]:
            best = (m, rev[::-1], r)
            if r >= min(base.shape):
                break
    return (*best, True)
