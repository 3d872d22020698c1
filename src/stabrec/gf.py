"""Exact arithmetic and linear algebra over finite fields GF(p^k) with q = p^k <= 256.

Field elements are plain Python ints (and numpy integer arrays) in the range
0..q-1.  An element encodes the coefficient vector of a polynomial in the
generator t, in base p: n = sum(c_i * p**i) represents sum(c_i * t**i); for a
prime field (k = 1, modulus t) that is n itself.  Every field takes its
arithmetic from dense q x q lookup tables built once per field.  A matrix
product is a single integer product over GF(p): the left factor is written
out in base-p digits and each entry of the right factor becomes the k x k
GF(p)-matrix of multiplication by that entry.

Row reduction has two paths with the same result (the RREF is unique and
both use the same pivot rule).  Matrices of at most SMALL_RREF_ENTRIES
entries, which are nearly all the calls the searches make, are reduced on
Python lists with list copies of the tables, free of numpy's per-call
overhead; larger ones are reduced with one vectorised row operation per
pivot.

All matrix routines are exact and deterministic.  Matrices are numpy arrays
of dtype int16 (int64 internally where products can overflow).
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


class FieldError(ValueError):
    pass


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

        # for matmul: the base-p digits of each element, and the GF(p)-matrices
        # of x -> x * b: _blowup[i, b] holds the digits of t^i * b
        self._digits = digits
        self._powers = powers
        self._blowup = digits[self._mul_t[powers]]

        # for the small-shape rref: the tables as nested Python lists
        self._mul_l = self._mul_t.tolist()
        self._add_l = self._add_t.tolist()
        self._neg_l = self._neg_t.tolist()
        self._inv_l = self._inv_t.tolist()

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
        """a @ b as one integer product over GF(p): the base-p digits of a
        (m x nk) times the blow-up of b into multiplication matrices
        (nk x rk), reduced mod p and recombined digit by digit."""
        a = np.asarray(a, dtype=np.int16)
        b = np.asarray(b, dtype=np.int16)
        if a.shape[1] != b.shape[0]:
            raise FieldError(f"shape mismatch {a.shape} @ {b.shape}")
        (m, n), r, k = a.shape, b.shape[1], self.k
        digits = self._digits.take(a, axis=0).reshape(m, n * k)
        blown = self._blowup[np.arange(k)[:, None], b[:, None, :]].reshape(n * k, r * k)
        out = digits @ blown
        out %= self.p
        return (out.reshape(m, r, k) @ self._powers).astype(np.int16)

    def products(self, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Coordinate rows of every product x_a y_b of an algebra with
        structure constants t, t[i, j] the coordinates of b_i b_j: row
        b * len(x) + a holds x_a y_b.  Two matrix products: x_a b_j for all
        a, j, then contracted with y."""
        d, nx, ny = t.shape[0], len(x), len(y)
        xt = self.matmul(x, t.reshape(d, d * d)).reshape(nx, d, d)
        return self.matmul(y, xt.transpose(1, 0, 2).reshape(d, nx * d)).reshape(ny * nx, d)

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
        """Reduced row echelon form.  Pivot choice: leftmost column, then
        smallest row index.  Returns (rref matrix, pivot column tuple)."""
        m = np.array(a, dtype=np.int16)
        if m.ndim != 2:
            raise FieldError("rref expects a matrix")
        if m.size <= SMALL_RREF_ENTRIES:
            return self._rref_small(m)
        return self._rref_vectorised(m)

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

    def _rref_vectorised(self, m: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """Gauss-Jordan with one numpy row operation per pivot; m is
        overwritten."""
        nrows, ncols = m.shape
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
                m[[r, i]] = m[[i, r]]
            piv = int(m[r, c])
            if piv != 1:
                m[r] = self.mul(self.inv(piv), m[r])
            col = m[:, c].copy()
            col[r] = 0
            rows_to_fix = np.nonzero(col)[0]
            if rows_to_fix.size:
                factors = m[rows_to_fix, c]
                update = self.mul(factors[:, None], m[r][None, :])
                m[rows_to_fix] = self.sub(m[rows_to_fix], update)
            pivots.append(c)
            r += 1
        return m, tuple(pivots)

    def rank(self, a: np.ndarray) -> int:
        return len(self.rref(a)[1])

    def row_space(self, a: np.ndarray) -> np.ndarray:
        """Canonical basis (RREF rows, zero rows dropped) of the row space."""
        r, piv = self.rref(a)
        return r[: len(piv)]

    def kernel(self, a: np.ndarray) -> np.ndarray:
        """Canonical (RREF) basis of the right kernel {x : a x = 0}, as rows."""
        a = np.asarray(a, dtype=np.int16)
        nrows, ncols = a.shape
        r, piv = self.rref(a)
        free = [c for c in range(ncols) if c not in piv]
        if not free:
            return np.zeros((0, ncols), dtype=np.int16)
        basis = np.zeros((len(free), ncols), dtype=np.int16)
        basis[range(len(free)), free] = 1
        basis[:, piv] = self.neg(r[: len(piv), free].T)
        return self.row_space(basis)

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """One solution x of a x = b (free variables set to 0), or None."""
        a = np.asarray(a, dtype=np.int16)
        b = np.asarray(b, dtype=np.int16).reshape(-1)
        if b.shape[0] != a.shape[0]:
            raise FieldError("rhs length mismatch")
        aug = np.concatenate([a, b[:, None]], axis=1)
        r, piv = self.rref(aug)
        ncols = a.shape[1]
        if ncols in piv:
            return None
        x = np.zeros(ncols, dtype=np.int16)
        for ri, pc in enumerate(piv):
            x[pc] = r[ri, ncols]
        return x

    def solve_matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """One solution X of a X = b for matrix right-hand side, or None."""
        a = np.asarray(a, dtype=np.int16)
        b = np.asarray(b, dtype=np.int16)
        aug = np.concatenate([a, b], axis=1)
        r, piv = self.rref(aug)
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
