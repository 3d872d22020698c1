"""Finite-dimensional graded algebras given by structure constants.

Used both for the associated graded algebra of the radical filtration of a
bound quiver algebra and for the graded endomorphism algebra produced by the
reconstruction routine, so that the two can be compared by one isomorphism
search.
"""

from __future__ import annotations

import itertools

import numpy as np

from stabrec.errors import Inconclusive, PresentationError
from stabrec.gf import Field


class GradedAlgebra:
    """An associative graded algebra over GF(q) with unit in degree 0.

    Attributes:
        field: base field.
        degrees: tuple, degree of each basis element (nonnegative).
        labels: display labels per basis element.
        table: (n, n, n) int16 array, table[i, j] = coefficients of b_i b_j.
    """

    def __init__(self, field: Field, degrees, labels, table, name: str = "G"):
        self.field = field
        self.degrees = tuple(int(d) for d in degrees)
        self.labels = tuple(labels)
        self.table = np.asarray(table, dtype=np.int16)
        self.name = name
        n = len(self.degrees)
        if self.table.shape != (n, n, n):
            raise PresentationError("structure constant table has wrong shape")

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def dims_by_degree(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))

    def degree_indices(self, d: int) -> list[int]:
        return [i for i, x in enumerate(self.degrees) if x == d]

    def mul_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Product of two coefficient vectors."""
        f = self.field
        out = np.zeros(self.dim, dtype=np.int16)
        xi = np.nonzero(x)[0]
        for i in xi:
            yi = np.nonzero(y)[0]
            for j in yi:
                c = f.mul(int(x[i]), int(y[j]))
                out = f.add_mat(out[None, :], f.scale(int(c), self.table[i, j][None, :]))[0]
        return out

    def unit(self) -> np.ndarray | None:
        """Coefficient vector of the multiplicative identity, or None."""
        f = self.field
        n = self.dim
        # solve u with u * b_j = b_j for all j (and b_j * u = b_j)
        rows = []
        rhs = []
        for j in range(n):
            # sum_i u_i table[i, j] = e_j
            rows.append(self.table[:, j, :].T)  # (n out-coords, n unknowns)
            e = np.zeros(n, dtype=np.int16)
            e[j] = 1
            rhs.append(e)
        big = np.concatenate(rows, axis=0)
        vec = np.concatenate(rhs)
        u = f.solve(big, vec)
        if u is None:
            return None
        # check right-unit too
        for j in range(n):
            e = np.zeros(n, dtype=np.int16)
            e[j] = 1
            if not np.array_equal(self.mul_vec(e, u), e):
                return None
        return u

    def verify(self) -> None:
        """Check grading, associativity and existence of a degree-0 unit."""
        f = self.field
        n = self.dim
        for i in range(n):
            for j in range(n):
                v = self.table[i, j]
                d = self.degrees[i] + self.degrees[j]
                for l in np.nonzero(v)[0]:
                    if self.degrees[int(l)] != d:
                        raise PresentationError(
                            f"product b_{i} b_{j} has a component in degree "
                            f"{self.degrees[int(l)]}, expected {d}")
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    ei = np.zeros(n, dtype=np.int16)
                    ei[i] = 1
                    ej = np.zeros(n, dtype=np.int16)
                    ej[j] = 1
                    el = np.zeros(n, dtype=np.int16)
                    el[l] = 1
                    left = self.mul_vec(self.mul_vec(ei, ej), el)
                    right = self.mul_vec(ei, self.mul_vec(ej, el))
                    if not np.array_equal(left, right):
                        raise PresentationError(f"not associative at ({i},{j},{l})")
        u = self.unit()
        if u is None:
            raise PresentationError("no two-sided unit")
        for l in np.nonzero(u)[0]:
            if self.degrees[int(l)] != 0:
                raise PresentationError("unit is not concentrated in degree 0")

    # -- canonical primitive idempotents of the degree-0 part ---------------

    def primitive_idempotents(self) -> list[np.ndarray]:
        """The primitive orthogonal idempotents of the degree-0 subalgebra.

        The degree-0 part is assumed split semisimple commutative (a finite
        product of copies of the base field), which is verified on the way.
        Returned in a canonical order: sorted by their coefficient tuples.
        """
        f = self.field
        idx = self.degree_indices(0)
        m = len(idx)
        if m == 0:
            raise PresentationError("no degree-0 part")
        # structure constants of the degree-0 subalgebra
        sub = np.zeros((m, m, m), dtype=np.int16)
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                v = self.table[i, j]
                for c, l in enumerate(idx):
                    sub[a, b, c] = v[l]
                if np.count_nonzero(v) != np.count_nonzero(sub[a, b]):
                    raise PresentationError("degree-0 part is not closed")
        for a in range(m):
            for b in range(m):
                if not np.array_equal(sub[a, b], sub[b, a]):
                    raise PresentationError("degree-0 part is not commutative")

        def mul0(x, y):
            out = np.zeros(m, dtype=np.int16)
            for i in np.nonzero(x)[0]:
                for j in np.nonzero(y)[0]:
                    c = f.mul(int(x[i]), int(y[j]))
                    out = f.add_mat(out[None, :], f.scale(int(c), sub[i, j][None, :]))[0]
            return out

        idems: list[np.ndarray] = []
        if f.q ** m <= 1 << 16:
            for coeffs in itertools.product(range(f.q), repeat=m):
                x = np.array(coeffs, dtype=np.int16)
                if not np.any(x):
                    continue
                if np.array_equal(mul0(x, x), x):
                    idems.append(x)
        else:
            raise Inconclusive("degree-0 part too large to enumerate idempotents")
        # primitive = not a sum of two orthogonal nonzero idempotents;
        # in a split commutative semisimple algebra these are the atoms
        prims = []
        for e in idems:
            smaller = [g for g in idems if not np.array_equal(g, e)
                       and np.array_equal(mul0(e, g), g)]
            if not any(np.any(g) for g in smaller):
                prims.append(e)
        if len(prims) == 0:
            raise PresentationError("degree-0 part has no primitive idempotents")
        total = prims[0]
        for e in prims[1:]:
            total = f.add_mat(total[None, :], e[None, :])[0]
        u = self.unit()
        u0 = np.array([u[i] for i in self.degree_indices(0)], dtype=np.int16)
        if not np.array_equal(total, u0):
            raise PresentationError("primitive idempotents do not sum to the unit; "
                                    "degree-0 part is not split semisimple")
        prims.sort(key=lambda e: tuple(int(c) for c in e))
        out = []
        for e in prims:
            full = np.zeros(self.dim, dtype=np.int16)
            for a, i in enumerate(idx):
                full[i] = e[a]
            out.append(full)
        return out


class GradedIso:
    """A degree-preserving algebra isomorphism, stored as one block matrix
    per degree (columns: source basis of that degree, rows: target basis)."""

    def __init__(self, src: GradedAlgebra, tgt: GradedAlgebra, blocks: dict[int, np.ndarray]):
        self.src = src
        self.tgt = tgt
        self.blocks = blocks

    def apply(self, x: np.ndarray) -> np.ndarray:
        f = self.src.field
        out = np.zeros(self.tgt.dim, dtype=np.int16)
        for d, block in self.blocks.items():
            si = self.src.degree_indices(d)
            ti = self.tgt.degree_indices(d)
            comp = f.matmul(block, np.asarray([x[i] for i in si], dtype=np.int16)[:, None]).reshape(-1)
            for a, i in enumerate(ti):
                out[i] = f.add(out[i], comp[a])
        return out

    def verify(self) -> bool:
        g, h = self.src, self.tgt
        n = g.dim
        for i in range(n):
            for j in range(n):
                ei = np.zeros(n, dtype=np.int16)
                ei[i] = 1
                ej = np.zeros(n, dtype=np.int16)
                ej[j] = 1
                lhs = self.apply(g.mul_vec(ei, ej))
                rhs = h.mul_vec(self.apply(ei), self.apply(ej))
                if not np.array_equal(lhs, rhs):
                    return False
        f = g.field
        for d in set(g.degrees):
            b = self.blocks[d]
            if not f.is_invertible(b):
                return False
        return True


class GradedIsoResult:
    """Outcome of graded_iso_check: verdict in {'iso', 'no', 'inconclusive'}."""

    def __init__(self, verdict: str, iso: GradedIso | None = None, reason: str = ""):
        self.verdict = verdict
        self.iso = iso
        self.reason = reason

    def __bool__(self):
        return self.verdict == "iso"

    def __repr__(self):
        return f"GradedIsoResult({self.verdict}{', ' + self.reason if self.reason else ''})"


def _is_degree_one_generated(g: GradedAlgebra) -> bool:
    """Whether every degree d >= 2 component is spanned by products of
    degree-1 and degree-(d-1) elements."""
    f = g.field
    maxdeg = max(g.degrees) if g.degrees else 0
    for d in range(2, maxdeg + 1):
        idx = g.degree_indices(d)
        if not idx:
            continue
        ones = g.degree_indices(1)
        lower = g.degree_indices(d - 1)
        prods = []
        for i in ones:
            for j in lower:
                prods.append(g.table[i, j])
        if not prods:
            return False
        mat = np.stack(prods)[:, idx]
        if f.rank(mat) != len(idx):
            return False
    return True


def graded_iso_check(g1: GradedAlgebra, g2: GradedAlgebra, *,
                     budget: int = 200000) -> GradedIsoResult:
    """Decide whether two graded algebras are isomorphic as graded algebras.

    Strategy: match dimension data, put both degree-0 parts in their
    canonical primitive idempotent bases, then search over (a) bijections
    of the idempotents and (b) invertible degree-1 block maps compatible
    with the idempotent bimodule structure, extending multiplicatively to
    higher degrees and verifying.  Both inputs are required to be generated
    in degrees 0 and 1; otherwise the search is not exhaustive and the
    verdict 'inconclusive' is returned instead of 'no'.
    """
    if g1.dims_by_degree() != g2.dims_by_degree():
        return GradedIsoResult("no", reason="graded dimensions differ")
    f = g1.field
    if (g2.field.p, g2.field.k) != (f.p, f.k):
        return GradedIsoResult("no", reason="different base fields")
    gen1 = _is_degree_one_generated(g1)
    gen2 = _is_degree_one_generated(g2)
    if not (gen1 and gen2):
        return GradedIsoResult("inconclusive",
                               reason="an input is not generated in degrees 0 and 1")
    e1 = g1.primitive_idempotents()
    e2 = g2.primitive_idempotents()
    if len(e1) != len(e2):
        return GradedIsoResult("no", reason="different numbers of blocks")
    n_blocks = len(e1)
    ones1 = g1.degree_indices(1)
    ones2 = g2.degree_indices(1)

    def one_block(g, idems, a, b, ones):
        """Row basis (in coefficient space of degree 1) of e_a G_1 e_b."""
        vecs = []
        for i in ones:
            x = np.zeros(g.dim, dtype=np.int16)
            x[i] = 1
            y = g.mul_vec(idems[a], g.mul_vec(x, idems[b]))
            vecs.append(y[ones])
        m = np.stack(vecs) if vecs else np.zeros((0, len(ones)), dtype=np.int16)
        return g.field.row_space(m)

    blocks1 = {(a, b): one_block(g1, e1, a, b, ones1)
               for a in range(n_blocks) for b in range(n_blocks)}
    blocks2 = {(a, b): one_block(g2, e2, a, b, ones2)
               for a in range(n_blocks) for b in range(n_blocks)}

    perms = itertools.permutations(range(n_blocks))
    tried = 0
    for perm in perms:
        if any(blocks1[(a, b)].shape[0] != blocks2[(perm[a], perm[b])].shape[0]
               for a in range(n_blocks) for b in range(n_blocks)):
            continue
        # choose an invertible map on each nonzero degree-1 block
        slots = [(a, b) for a in range(n_blocks) for b in range(n_blocks)
                 if blocks1[(a, b)].shape[0] > 0]
        sizes = [blocks1[s].shape[0] for s in slots]
        space = 1
        for s in sizes:
            space *= f.q ** (s * s)
        if space > budget:
            return GradedIsoResult("inconclusive",
                                   reason=f"degree-1 search space {space} exceeds budget")
        choice_iters = []
        for s in sizes:
            mats = [np.array(c, dtype=np.int16).reshape(s, s)
                    for c in itertools.product(range(f.q), repeat=s * s)]
            mats = [m for m in mats if f.is_invertible(m)]
            choice_iters.append(mats)
        for combo in itertools.product(*choice_iters):
            tried += 1
            iso = _extend_and_verify(g1, g2, e1, e2, perm, slots, combo,
                                     blocks1, blocks2, ones1, ones2)
            if iso is not None:
                return GradedIsoResult("iso", iso=iso)
    return GradedIsoResult("no", reason=f"all {tried} degree-1 candidates failed")


def _extend_and_verify(g1, g2, e1, e2, perm, slots, combo, blocks1, blocks2,
                       ones1, ones2):
    """Build the candidate map degree by degree; None if inconsistent."""
    f = g1.field
    maxdeg = max(g1.degrees)
    n_blocks = len(e1)
    # degree 0: e_a -> e_{perm(a)}
    idx0_1 = g1.degree_indices(0)
    idx0_2 = g2.degree_indices(0)
    t0 = np.zeros((len(idx0_2), len(idx0_1)), dtype=np.int16)
    basis0 = np.stack([e[idx0_1] for e in e1])  # rows: idempotents in deg-0 coords
    inv0 = f.matinv(basis0.T)
    if inv0 is None:
        return None
    targ0 = np.stack([e2[perm[a]][idx0_2] for a in range(n_blocks)])
    t0 = f.matmul(targ0.T, inv0)
    # degree 1: assemble from per-block choices.  The Peirce blocks span
    # degree 1 independently, so T_1 is determined by src @ T_1^T = img.
    if ones1:
        src_rows = []
        img_rows = []
        for (slot, mat) in zip(slots, combo):
            a, b = slot
            src_rows.append(blocks1[slot])
            img_rows.append(f.matmul(mat, blocks2[(perm[a], perm[b])]))
        src_all = np.concatenate(src_rows, axis=0)
        img_all = np.concatenate(img_rows, axis=0)
        t1t = f.solve_matrix(src_all, img_all)
        if t1t is None:
            return None
        t1 = t1t.T
        if not f.is_invertible(t1):
            return None
        blocks = {0: t0, 1: t1}
    else:
        t1 = np.zeros((0, 0), dtype=np.int16)
        blocks = {0: t0}
    for d in range(2, maxdeg + 1):
        idx_d1 = g1.degree_indices(d)
        idx_d2 = g2.degree_indices(d)
        if not idx_d1:
            continue
        ones = g1.degree_indices(1)
        lower1 = g1.degree_indices(d - 1)
        lower2 = g2.degree_indices(d - 1)
        prod_src = []
        prod_img = []
        tl = blocks[d - 1]
        for ii, i in enumerate(ones):
            for jj, j in enumerate(lower1):
                prod_src.append(g1.table[i, j][idx_d1])
                xi = t1[:, ii]
                yj = tl[:, jj]
                img = np.zeros(len(idx_d2), dtype=np.int16)
                for a2, i2 in enumerate(ones2):
                    if not xi[a2]:
                        continue
                    for b2, j2 in enumerate(lower2):
                        if not yj[b2]:
                            continue
                        c = f.mul(int(xi[a2]), int(yj[b2]))
                        img = f.add_mat(img[None, :],
                                        f.scale(int(c), g2.table[i2, j2][idx_d2][None, :]))[0]
                prod_img.append(img)
        src_m = np.stack(prod_src)
        img_m = np.stack(prod_img)
        # T_d with T_d @ s = img for every product pair, i.e. src @ T_d^T = img
        tdt = f.solve_matrix(src_m, img_m)
        if tdt is None:
            return None
        td = tdt.T
        if not f.is_invertible(td):
            return None
        blocks[d] = td
    iso = GradedIso(g1, g2, blocks)
    if iso.verify():
        return iso
    return None
