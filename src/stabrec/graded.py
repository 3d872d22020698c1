"""Finite-dimensional graded algebras given by structure constants.

Used both for the associated graded algebra of the radical filtration of a
bound quiver algebra and for the graded endomorphism algebra produced by the
reconstruction routine, so that the two can be compared by one isomorphism
search.
"""

from __future__ import annotations

import itertools

import numpy as np

from stabrec.errors import PresentationError
from stabrec.gf import Field

# graded_iso_check answers 'inconclusive' when the degree-1 search space,
# q^(s^2) block matrices for each nonzero s x s Peirce block, is larger
DEGREE1_SEARCH_BUDGET = 200000


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
        return self.field.products(self.table, [x], [y])[0]

    def unit(self) -> np.ndarray | None:
        """Coefficient vector of the multiplicative identity, or None."""
        f, n = self.field, self.dim
        # the left unit: sum_i u_i table[i, j] = b_j for every j
        u = f.solve(self.table.transpose(1, 2, 0).reshape(n * n, n), f.eye(n).reshape(-1))
        if u is None or not np.array_equal(f.products(self.table, f.eye(n), [u]), f.eye(n)):
            return None
        return u

    def verify(self) -> None:
        """Check grading, associativity and existence of a degree-0 unit."""
        f, n, t = self.field, self.dim, self.table
        deg = np.array(self.degrees, dtype=np.int64)
        expected = deg[:, None] + deg[None, :]
        bad = np.argwhere((t != 0) & (deg != expected[:, :, None]))
        if len(bad):
            i, j, l = bad[0]
            raise PresentationError(
                f"product b_{i} b_{j} has a component in degree {deg[l]}, "
                f"expected {expected[i, j]}")
        # (b_i b_j) b_l against b_i (b_j b_l), one i and one degree e of b_j
        # at a time.  On a graded table both lie in degree deg i + e + deg l,
        # so only the l with that sum at most the top degree are compared;
        # b_i b_j has its coordinates in degree deg i + e, and b_i b_a
        # vanishes unless deg a <= top - deg i (the indices ks)
        top = deg.max(initial=0)
        for i in range(n):
            ks = np.flatnonzero(deg <= top - deg[i])
            bad = []
            for e in np.unique(deg[ks]):
                js = np.flatnonzero(deg == e)
                ls = np.flatnonzero(deg <= top - deg[i] - e)
                mid = np.flatnonzero(deg == deg[i] + e)
                shape = (len(js), len(ls), n)
                left = f.matmul(t[i][np.ix_(js, mid)],
                                t[np.ix_(mid, ls)].reshape(len(mid), -1)).reshape(shape)
                right = f.matmul(t[np.ix_(js, ls, ks)].reshape(-1, len(ks)), t[i, ks])
                hit = np.argwhere(np.any(left != right.reshape(shape), axis=2))
                if len(hit):
                    bad.append((js[hit[0][0]], ls[hit[0][1]]))
            if bad:
                j, l = min(bad)
                raise PresentationError(f"not associative at ({i},{j},{l})")
        # the unit equations split by degree with their right side in degree
        # 0, so on a graded table unit() finds its solution in degree 0
        if self.unit() is None:
            raise PresentationError("no two-sided unit")

    # -- canonical primitive idempotents of the degree-0 part ---------------

    def primitive_idempotents(self) -> list[np.ndarray]:
        """The primitive orthogonal idempotents of the degree-0 subalgebra.

        The degree-0 part must be split semisimple commutative (a finite
        product of copies of the base field), which is decided on the way.
        Returned in a canonical order: sorted by their coefficient tuples.
        """
        f = self.field
        idx = self.degree_indices(0)
        m = len(idx)
        if m == 0:
            raise PresentationError("no degree-0 part")
        # structure constants of the degree-0 subalgebra
        sub = self.table[np.ix_(idx, idx, idx)]
        if np.count_nonzero(self.table[np.ix_(idx, idx)]) != np.count_nonzero(sub):
            raise PresentationError("degree-0 part is not closed")
        if not np.array_equal(sub, sub.transpose(1, 0, 2)):
            raise PresentationError("degree-0 part is not commutative")
        u = self.unit()
        one = None if u is None else u[idx]
        if one is None or not np.array_equal(f.products(sub, [one], f.eye(m)), f.eye(m)):
            raise PresentationError("degree-0 part does not hold the unit")
        # Refine {1} by the idempotents 1 - (b_i - c)^(q-1), one per basis
        # element b_i and value c: the factors where b_i takes the value c.
        # sub[i] is multiplication by b_i on coordinate rows.
        atoms = one[None]
        values = np.arange(f.q)[:, None]
        for i in range(m):
            powers = np.tile(one, (f.q, 1))  # row c: (b_i - c)^(q-1) at the end
            for _ in range(f.q - 1):
                powers = f.sub_mat(f.matmul(powers, sub[i]), f.mul(values, powers))
            # x -> x^q is linear on a commutative algebra over GF(q), so it is
            # the identity, i.e. the part is split semisimple, iff it fixes
            # every basis element
            if not np.array_equal(f.matmul(powers[:1], sub[i])[0], f.eye(m)[i]):
                raise PresentationError("degree-0 part is not split semisimple")
            parts = f.products(sub, atoms, f.sub_mat(one, powers))
            atoms = parts[np.any(parts, axis=1)]
        out = np.zeros((m, self.dim), dtype=np.int16)
        out[:, idx] = sorted(atoms.tolist())
        return list(out)


class GradedIso:
    """A degree-preserving algebra isomorphism, given by one block per degree
    (columns: source basis of that degree, rows: target basis) and stored as
    the one matrix that has them as its blocks."""

    def __init__(self, src: GradedAlgebra, tgt: GradedAlgebra, blocks: dict[int, np.ndarray]):
        self.src = src
        self.tgt = tgt
        self.matrix = np.zeros((tgt.dim, src.dim), dtype=np.int16)
        for d, block in blocks.items():
            self.matrix[np.ix_(tgt.degree_indices(d), src.degree_indices(d))] = block

    def verify(self) -> bool:
        g, h, f = self.src, self.tgt, self.src.field
        img = self.matrix.T  # row i: the image of b_i
        # row j * n + i: the image of b_i b_j, and the product of the images
        lhs = f.matmul(g.table.transpose(1, 0, 2).reshape(g.dim * g.dim, g.dim), img)
        return np.array_equal(lhs, f.products(h.table, img, img)) and f.is_invertible(img)


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
        prods = g.table[np.ix_(g.degree_indices(1), g.degree_indices(d - 1), idx)]
        if f.rank(prods.reshape(-1, len(idx))) != len(idx):
            return False
    return True


def graded_iso_check(g1: GradedAlgebra, g2: GradedAlgebra) -> GradedIsoResult:
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
    # equal degree-0 dimension m, and each degree-0 part is GF(q)^m with its
    # m primitive idempotents, so the two block counts agree
    e1 = g1.primitive_idempotents()
    e2 = g2.primitive_idempotents()
    n_blocks = len(e1)
    ones1 = g1.degree_indices(1)
    ones2 = g2.degree_indices(1)

    def peirce_blocks(g, idems, ones):
        """Row bases (in coefficient space of degree 1) of e_a G_1 e_b,
        keyed (a, b)."""
        m = len(idems)
        right = g.field.products(g.table, g.field.eye(g.dim)[ones], idems)  # b_i e_b
        both = g.field.products(g.table, idems, right).reshape(m, len(ones), m, g.dim)
        return {(a, b): g.field.row_space(both[b, :, a][:, ones])
                for a in range(m) for b in range(m)}

    blocks1 = peirce_blocks(g1, e1, ones1)
    blocks2 = peirce_blocks(g2, e2, ones2)

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
        if space > DEGREE1_SEARCH_BUDGET:
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
    x = np.zeros((len(ones1), g2.dim), dtype=np.int16)  # images of the b_i of degree 1
    x[:, ones2] = t1.T
    for d in range(2, maxdeg + 1):
        idx_d1 = g1.degree_indices(d)
        if not idx_d1:
            continue
        lower1 = g1.degree_indices(d - 1)
        # and of the b_j of degree d - 1
        y = np.zeros((len(lower1), g2.dim), dtype=np.int16)
        y[:, g2.degree_indices(d - 1)] = blocks[d - 1].T
        # row j * len(ones1) + i: b_i b_j, and the product of the images
        src_m = g1.table[np.ix_(ones1, lower1, idx_d1)].transpose(1, 0, 2).reshape(-1, len(idx_d1))
        img_m = f.products(g2.table, x, y)[:, g2.degree_indices(d)]
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
