"""Finite-dimensional left modules over a bound quiver algebra.

A module is a representation of the quiver: one GF(q) vector space per
vertex plus one matrix per arrow, acting on column vectors, satisfying the
relations of the algebra.  A path (a_1, ..., a_l), written first-applied
first, acts by the composite A_{a_l} ... A_{a_1}.

Subspaces are per-vertex echelon row bases; the builders of submodules
and quotients take them as they are and check arrow-invariance, never
closing them.  Global rows (vertex components concatenated in vertex
order), each supported at one vertex, are split into them once, in
`submodule` and `quotient`; nothing generates a submodule from arbitrary
rows.  All computations are exact: `decompose` certifies each summand by a
local-ring test and `module_isomorphic` matches summands by Krull-Schmidt.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from stabrec.errors import PresentationError


# rows of coefficients per field product in combination_flats(); bounds the
# candidate maps held at once during exhaustive searches
COMBINE_CHUNK = 256


class Module:
    """A quiver representation.

    Attributes:
        algebra: the bound quiver algebra acted by.
        dims: tuple of vertex dimensions.
        mats: tuple of arrow action matrices, mats[a] with shape
            (dims[tgt(a)], dims[src(a)]).
        name: display label, not used in any computation.
    """

    __slots__ = ("algebra", "dims", "mats", "name", "offsets", "dim", "_key")

    def __init__(self, algebra, dims, mats, name: str = "M", check: bool = True):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != algebra.nvertices:
            raise PresentationError("dims length must equal number of vertices")
        f = algebra.field
        fixed = []
        for a, (_, src, tgt) in enumerate(algebra.arrows):
            m = np.asarray(mats[a]).reshape(self.dims[tgt], self.dims[src])
            # entries index the field's tables, so range-check before any use
            if m.size and (int(m.min()) < 0 or int(m.max()) >= f.q):
                raise PresentationError("matrix entries out of field range")
            fixed.append(np.asarray(m, dtype=np.int16))
        self.mats = tuple(fixed)
        self.name = name
        self.offsets = (0, *itertools.accumulate(self.dims))
        self.dim = self.offsets[-1]
        self._key = None
        if check:
            algebra.check_relations(self)

    def __repr__(self):
        return f"Module({self.name}, dims={self.dims})"

    @property
    def key(self) -> bytes:
        """Content key: equal keys imply equal representations on the nose."""
        if self._key is None:
            parts = [np.asarray(self.dims, dtype=np.int64).tobytes()]
            parts.extend(m.tobytes() for m in self.mats)
            self._key = b"|".join(parts)
        return self._key

    def slice_of(self, rows: np.ndarray, v: int) -> np.ndarray:
        """Vertex-v columns of a global row matrix."""
        return rows[:, self.offsets[v]: self.offsets[v + 1]]

    def word_action(self, word: tuple[int, ...]) -> np.ndarray:
        """Action matrix of a path, first arrow applied first."""
        A = self.algebra
        if not word:
            raise ValueError("use vertex_projection for idempotents")
        src = A.arrows[word[0]][1]
        m = np.eye(self.dims[src], dtype=np.int16)
        for a in word:
            m = A.field.matmul(self.mats[a], m)
        return m

    def is_zero(self) -> bool:
        return self.dim == 0


class ModuleMap:
    """A homomorphism of representations, stored as per-vertex blocks."""

    __slots__ = ("src", "tgt", "blocks")

    def __init__(self, src: Module, tgt: Module, blocks, check: bool = False):
        self.src = src
        self.tgt = tgt
        self.blocks = tuple(
            np.asarray(b, dtype=np.int16).reshape(tgt.dims[v], src.dims[v])
            for v, b in enumerate(blocks)
        )
        if check and not self.is_map():
            raise PresentationError("blocks do not commute with the arrow actions")

    @staticmethod
    def identity(m: Module) -> "ModuleMap":
        return ModuleMap(m, m, [np.eye(d, dtype=np.int16) for d in m.dims])

    @staticmethod
    def zero(src: Module, tgt: Module) -> "ModuleMap":
        return ModuleMap(src, tgt, [np.zeros((tgt.dims[v], src.dims[v]), dtype=np.int16)
                                    for v in range(len(src.dims))])

    def is_map(self) -> bool:
        f = self.src.algebra.field
        for a, (_, u, v) in enumerate(self.src.algebra.arrows):
            lhs = f.matmul(self.tgt.mats[a], self.blocks[u])
            rhs = f.matmul(self.blocks[v], self.src.mats[a])
            if not np.array_equal(lhs, rhs):
                return False
        return True

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        if other.tgt is not self.src and other.tgt.key != self.src.key:
            raise PresentationError("composition mismatch")
        f = self.src.algebra.field
        return ModuleMap(other.src, self.tgt,
                         [f.matmul(self.blocks[v], other.blocks[v])
                          for v in range(len(self.blocks))])

    def add(self, other: "ModuleMap") -> "ModuleMap":
        f = self.src.algebra.field
        return ModuleMap(self.src, self.tgt,
                         [f.add_mat(a, b) for a, b in zip(self.blocks, other.blocks)])

    def sub(self, other: "ModuleMap") -> "ModuleMap":
        f = self.src.algebra.field
        return ModuleMap(self.src, self.tgt,
                         [f.sub_mat(a, b) for a, b in zip(self.blocks, other.blocks)])

    def scale(self, c: int) -> "ModuleMap":
        f = self.src.algebra.field
        return ModuleMap(self.src, self.tgt, [f.scale(c, b) for b in self.blocks])

    def global_matrix(self) -> np.ndarray:
        m = np.zeros((self.tgt.dim, self.src.dim), dtype=np.int16)
        for v in range(len(self.blocks)):
            m[self.tgt.offsets[v]: self.tgt.offsets[v + 1],
              self.src.offsets[v]: self.src.offsets[v + 1]] = self.blocks[v]
        return m

    def flat(self) -> np.ndarray:
        """Coordinates in Hom(src, tgt) as one vector (vertex blocks in order,
        row-major)."""
        if not self.blocks:
            return np.zeros(0, dtype=np.int16)
        return np.concatenate([b.reshape(-1) for b in self.blocks])

    def is_zero(self) -> bool:
        return not any(np.any(b) for b in self.blocks)

    def is_iso(self) -> bool:
        f = self.src.algebra.field
        return self.src.dims == self.tgt.dims and all(
            f.is_invertible(b) if b.size else True for b in self.blocks)

    def rank(self) -> int:
        f = self.src.algebra.field
        return sum(f.rank(b) for b in self.blocks)

    def is_injective_map(self) -> bool:
        return self.rank() == self.src.dim

    def is_surjective_map(self) -> bool:
        return self.rank() == self.tgt.dim

def factor_through_surjection(epi: ModuleMap, f: ModuleMap) -> ModuleMap:
    """The unique h with h epi = f, for epi: X ->> W surjective and
    ker(epi) contained in ker(f)."""
    fld = epi.src.algebra.field
    blocks = []
    for v in range(len(epi.blocks)):
        sol = fld.solve_matrix(epi.blocks[v].T, f.blocks[v].T)
        if sol is None:
            raise PresentationError("map does not kill the kernel of the surjection")
        blocks.append(sol.T)
    return ModuleMap(epi.tgt, f.tgt, blocks)


def factor_through_injection(mono: ModuleMap, f: ModuleMap) -> ModuleMap:
    """The unique h with mono h = f, for mono: W -> X injective and
    im(f) contained in im(mono)."""
    fld = mono.src.algebra.field
    blocks = []
    for v in range(len(mono.blocks)):
        sol = fld.solve_matrix(mono.blocks[v], f.blocks[v])
        if sol is None:
            raise PresentationError("image does not land in the submodule")
        blocks.append(sol)
    return ModuleMap(f.src, mono.src, blocks)


def combine(maps: list[ModuleMap], coeffs) -> ModuleMap:
    """Linear combination of parallel maps."""
    return next(combinations(maps, [coeffs]))


def combinations(maps: list[ModuleMap], coeff_rows) -> Iterator[ModuleMap]:
    """combine(maps, row) for each coefficient row, in the order given.

    The maps' flat vectors are stacked once (see combination_flats)."""
    if not maps:
        raise PresentationError("cannot combine an empty list of maps")
    src, tgt = maps[0].src, maps[0].tgt
    stacked = np.stack([h.flat() for h in maps])
    for vec in combination_flats(src.algebra.field, stacked, coeff_rows):
        yield flat_to_map(src, tgt, vec)


def combination_flats(fld, stacked: np.ndarray, coeff_rows) -> Iterator[np.ndarray]:
    """The flat row c @ stacked for each coefficient row c, in the order
    given.  Each chunk of up to COMBINE_CHUNK rows costs one field product;
    rows are read from coeff_rows only a chunk at a time, so it may be a
    lazy iterator."""
    rows = iter(coeff_rows)
    while chunk := list(itertools.islice(rows, COMBINE_CHUNK)):
        yield from fld.matmul(np.array(chunk, dtype=np.int16), stacked)


def lift_through_surjection(epi: ModuleMap, f: ModuleMap) -> ModuleMap:
    """Some L with epi L = f, or raise.  Always solvable when f.src is
    projective and epi is surjective."""
    h = _solve_hom(f.src, epi.src, f, left=epi)
    if h is None:
        raise PresentationError("map does not lift through the surjection")
    return h


def extend_along_injection(mono: ModuleMap, f: ModuleMap) -> ModuleMap:
    """Some g with g mono = f, or raise.  Always solvable when f.tgt is
    injective and mono is injective."""
    g = _solve_hom(mono.tgt, f.tgt, f, right=mono)
    if g is None:
        raise PresentationError("map does not extend along the injection")
    return g


def _solve_hom(src: Module, tgt: Module, f: ModuleMap, left: ModuleMap | None = None,
               right: ModuleMap | None = None) -> ModuleMap | None:
    """The h in Hom(src, tgt) with left h right = f whose coordinates in the
    hom_flats basis have their free variables 0, or None if there is none."""
    fld = src.algebra.field
    basis = hom_flats(src, tgt)
    c = fld.solve(compose_flats(basis, src, tgt, left, right).T, f.flat())
    return None if c is None else flat_to_map(src, tgt, fld.matmul(c[None, :], basis)[0])


def compose_flats(rows: np.ndarray, src: Module, tgt: Module, left: ModuleMap | None = None,
                  right: ModuleMap | None = None) -> np.ndarray:
    """The flat rows of left h right for every flat row h of Hom(src, tgt),
    for left: tgt -> T and right: S -> src, either left out for the identity.

    One field product per vertex and side, the stacked rows kept on the
    left: Field.matmul blows up its right factor k^2-fold, so L h is taken
    as (h^T L^T)^T.  Every reshape has explicit sizes, so no rows is fine."""
    fld = src.algebra.field
    r, out, pos = len(rows), [], 0
    for v, (a, c) in enumerate(zip(tgt.dims, src.dims)):
        h = rows[:, pos: pos + a * c]
        pos += a * c
        a2 = a if left is None else left.tgt.dims[v]
        c2 = c if right is None else right.src.dims[v]
        if not r * a * c * a2 * c2:
            out.append(np.zeros((r, a2 * c2), dtype=np.int16))
            continue
        if right is not None:
            h = fld.matmul(h.reshape(r * a, c), right.blocks[v]).reshape(r, a * c2)
        if left is not None:
            ht = h.reshape(r, a, c2).transpose(0, 2, 1).reshape(r * c2, a)
            h = fld.matmul(ht, left.blocks[v].T).reshape(r, c2, a2).transpose(0, 2, 1)
        out.append(h.reshape(r, a2 * c2))
    return np.concatenate(out, axis=1)


def flat_to_map(src: Module, tgt: Module, vec: np.ndarray) -> ModuleMap:
    blocks = []
    pos = 0
    for v in range(len(src.dims)):
        n = tgt.dims[v] * src.dims[v]
        blocks.append(np.asarray(vec[pos: pos + n], dtype=np.int16).reshape(tgt.dims[v], src.dims[v]))
        pos += n
    return ModuleMap(src, tgt, blocks)


def hom_space(m: Module, n: Module) -> list[ModuleMap]:
    """Canonical basis of Hom_A(m, n).

    The maps F with N_a F_u = F_v M_a for every arrow a: u -> v, as the
    reduced-echelon basis of that space in flat coordinates, so it is
    deterministic.  Out of a projective m they come from the generators of
    m; out of any other m, from the kernel of that intertwining system.
    """
    return [flat_to_map(m, n, vec) for vec in hom_flats(m, n)]


def hom_flats(m: Module, n: Module) -> np.ndarray:
    """The hom_space basis as the rows of one matrix (ModuleMap.flat)."""
    return m.algebra.cached(("hom", m.key, n.key), lambda: _hom_flats(m, n))


def _hom_flats(m: Module, n: Module) -> np.ndarray:
    # out of a projective the generators give a basis with no system to
    # solve; the echelon basis of a subspace is unique, so its row space has
    # the bytes of the Kronecker kernel
    if is_projective(m):
        return m.algebra.field.row_space(_generated_hom_flats(m, n))
    return _kronecker_flats(m, n)


def _kronecker_flats(m: Module, n: Module) -> np.ndarray:
    """The echelon basis of Hom_A(m, n) as the kernel of the intertwining
    system N_a F_u = F_v M_a, one block of rows per arrow a: u -> v."""
    f = m.algebra.field
    nv = len(m.dims)
    sizes = [n.dims[v] * m.dims[v] for v in range(nv)]
    total = sum(sizes)
    if total == 0:
        return np.zeros((0, 0), dtype=np.int16)
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    rows = []
    for a, (_, u, v) in enumerate(m.algebra.arrows):
        r = n.dims[v] * m.dims[u]
        if r == 0:
            continue
        block = np.zeros((r, total), dtype=np.int16)
        # vec(N_a F_u) = (N_a kron I) vec(F_u), row-major vec
        lhs = f.kron(n.mats[a], np.eye(m.dims[u], dtype=np.int16))
        block[:, starts[u]: starts[u + 1]] = lhs
        # vec(F_v M_a) = (I kron M_a^T) vec(F_v)
        rhs = f.kron(np.eye(n.dims[v], dtype=np.int16), m.mats[a].T)
        block[:, starts[v]: starts[v + 1]] = f.sub_mat(block[:, starts[v]: starts[v + 1]], rhs)
        rows.append(block)
    system = np.concatenate(rows, axis=0) if rows else np.zeros((0, total), dtype=np.int16)
    return f.kernel(system)


def _generated_hom_flats(p: Module, n: Module) -> np.ndarray:
    """A basis of Hom_A(p, n) for a projective p, as flat rows, with no
    linear system to solve: a map out of a projective is free on its
    generators.

    The generators g_i at v_i are the top generators of p (as in
    projective_cover).  The vectors b g_i, b running over the paths from v_i
    to w, form a basis of p_w, the columns of E_w.  The map sending g_i to
    x_i in e_{v_i} n sends b g_i to N_b x_i (the columns of G_w), so its
    block at w is F_w = G_w E_w^-1.  Row (i, j) is the map sending g_i to
    the j-th unit vector of n_{v_i} and every other generator to 0; the rows
    are a basis, not the echelon one.
    """
    f = p.algebra.field
    blocks = [[np.zeros((0, n.dims[w] * pw), dtype=np.int16)] for w, pw in enumerate(p.dims)]
    for v, m_v, rights in _generator_inverses(p):
        if n.dims[v] == 0:
            continue
        # the generators at v share G: row (j, r) and column b hold (N_b)[r, j]
        for w, (x, right) in enumerate(zip(_path_images(n, v, slice(None)), rights)):
            (nw, nv, paths), pw = x.shape, p.dims[w]
            out = f.matmul(x.transpose(1, 0, 2).reshape(nv * nw, paths), right)
            blocks[w].append(out.reshape(nv, nw, m_v, pw).transpose(2, 0, 1, 3)
                             .reshape(m_v * nv, nw * pw))
    return np.concatenate([np.concatenate(b) for b in blocks], axis=1)


def _generator_inverses(p: Module) -> list[tuple[int, int, list[np.ndarray]]]:
    """For a projective p, (v, m_v, rights) for each vertex v holding m_v
    top generators: rights[w] holds the rows of E_w^-1 (E_w as in
    _generated_hom_flats) that belong to the columns b g_i of the
    generators at v, as a paths x (m_v dims[w]) matrix.  Kept in the
    algebra memo, since Homs out of one projective are asked for many
    targets."""
    def build():
        f = p.algebra.field
        gens = _top_generators(p)
        tops = [(v, sum(u == v for u, _ in gens)) for v in sorted({v for v, _ in gens})]
        out = [(v, m_v, []) for v, m_v in tops]
        for w, e in enumerate(_generator_images(p, gens)):
            pw = p.dims[w]
            e_inv = f.matinv(e) if e.shape == (pw, pw) else None
            if e_inv is None:
                raise PresentationError("paths on the top generators are not a basis "
                                        "of the module: it is not projective")
            start = 0
            for v, m_v, rights in out:
                paths = len(p.algebra.projective_basis_words(v, w))
                block = e_inv[start: start + m_v * paths].reshape(m_v, paths, pw)
                rights.append(block.transpose(1, 0, 2).reshape(paths, m_v * pw))
                start += m_v * paths
        return out
    return p.algebra.cached(("generator inverses", p.key), build)


def end_space(m: Module) -> list[ModuleMap]:
    return hom_space(m, m)


def sum_module(mods: list[Module], name: str | None = None) -> Module:
    """The direct sum of mods alone, block diagonal in the order given, for
    callers that use no injection or projection."""
    if not mods:
        raise PresentationError("direct_sum of an empty list; pass the algebra's zero module instead")
    A = mods[0].algebra
    dims = tuple(sum(m.dims[v] for m in mods) for v in range(A.nvertices))
    mats = []
    for a in range(len(A.arrows)):
        _, src, tgt = A.arrows[a]
        big = np.zeros((dims[tgt], dims[src]), dtype=np.int16)
        r = c = 0
        for m in mods:
            big[r: r + m.dims[tgt], c: c + m.dims[src]] = m.mats[a]
            r += m.dims[tgt]
            c += m.dims[src]
        mats.append(big)
    return Module(A, dims, mats, name=name or "(" + " + ".join(m.name for m in mods) + ")",
                  check=False)


def direct_sum(mods: list[Module], name: str | None = None):
    """Direct sum with canonical injections and projections.

    Returns:
        (sum module, [injections], [projections]).
    """
    total = sum_module(mods, name)
    dims = total.dims
    injs, projs = [], []
    row_off = [0] * len(dims)
    for m in mods:
        iblocks, pblocks = [], []
        for v in range(len(dims)):
            i = np.zeros((dims[v], m.dims[v]), dtype=np.int16)
            p = np.zeros((m.dims[v], dims[v]), dtype=np.int16)
            o = row_off[v]
            i[o: o + m.dims[v], :] = np.eye(m.dims[v], dtype=np.int16)
            p[:, o: o + m.dims[v]] = np.eye(m.dims[v], dtype=np.int16)
            iblocks.append(i)
            pblocks.append(p)
            row_off[v] = o + m.dims[v]
        injs.append(ModuleMap(m, total, iblocks))
        projs.append(ModuleMap(total, m, pblocks))
    return total, injs, projs


def zero_module(algebra, name: str = "0") -> Module:
    nv = algebra.nvertices
    return Module(algebra, (0,) * nv,
                  [np.zeros((0, 0), dtype=np.int16) for _ in algebra.arrows],
                  name=name, check=False)


def _split(m: Module, rows: np.ndarray) -> list[np.ndarray]:
    """Per-vertex echelon bases of the span of global rows that are each
    supported at one vertex at most, else PresentationError."""
    rows = np.asarray(rows, dtype=np.int16)
    rows = rows.reshape(-1, m.dim) if rows.size else np.zeros((0, m.dim), dtype=np.int16)
    at = [np.any(m.slice_of(rows, v), axis=1) for v in range(len(m.dims))]
    if np.any(np.sum(at, axis=0) > 1):
        raise PresentationError("row basis is not vertex-homogeneous")
    blocks = [m.slice_of(rows[hit], v) for v, hit in enumerate(at)]
    return [m.algebra.field.row_space(x) if len(x) else x for x in blocks]


def submodule(m: Module, rows: np.ndarray, name: str = "sub") -> tuple[Module, ModuleMap]:
    """The submodule spanned by global rows, each supported at one vertex,
    with its inclusion; PresentationError unless the span is arrow-invariant
    (this is the check that a given subspace is a submodule)."""
    return _sub_from_spaces(m, _split(m, rows), name)


def _sub_from_spaces(m: Module, spaces: list[np.ndarray], name: str) -> tuple[Module, ModuleMap]:
    """Build the submodule on given per-vertex row bases, or raise
    PresentationError if they are not arrow-invariant."""
    f = m.algebra.field
    dims = tuple(s.shape[0] for s in spaces)
    mats = []
    for a, (_, u, v) in enumerate(m.algebra.arrows):
        if dims[u] == 0 or m.dims[v] == 0:
            mats.append(np.zeros((dims[v], dims[u]), dtype=np.int16))
            continue
        img = f.matmul(m.mats[a], spaces[u].T)  # columns: images of basis vectors
        coords = f.solve_matrix(spaces[v].T, img) if dims[v] else None if img.any() else img[:0]
        if coords is None:
            raise PresentationError("row spaces are not arrow-invariant")
        mats.append(coords)
    sub = Module(m.algebra, dims, mats, name=name, check=False)
    incl = ModuleMap(sub, m, [spaces[v].T for v in range(len(dims))])
    return sub, incl


def quotient(m: Module, rows: np.ndarray, name: str = "quot") -> tuple[Module, ModuleMap]:
    """The quotient by the submodule spanned by global rows, each supported
    at one vertex, with its projection; PresentationError unless the span is
    arrow-invariant (as for submodule)."""
    return _quot_from_spaces(m, _split(m, rows), name)


def _quot_from_spaces(m: Module, spaces: list[np.ndarray], name: str) -> tuple[Module, ModuleMap]:
    """The quotient by the submodule with the given per-vertex echelon
    bases, or PresentationError if an arrow maps a basis out of the span at
    its target.  The quotient keeps the free (non-pivot) coordinates: the
    projection reduces a vector by the basis, and an arrow acts through the
    section that puts them back with the pivot coordinates zero."""
    f = m.algebra.field
    projs, frees = [], []
    for d, s in zip(m.dims, spaces):
        piv = [int(np.flatnonzero(row)[0]) for row in s]
        free = [c for c in range(d) if c not in piv]
        proj = np.eye(d, dtype=np.int16)[free]
        proj[:, piv] = f.neg(s[:, free].T)
        projs.append(proj)
        frees.append(free)
    mats = []
    for a, (_, u, v) in enumerate(m.algebra.arrows):
        t = f.matmul(projs[v], m.mats[a])
        if t.size and spaces[u].size and f.matmul(t, spaces[u].T).any():
            raise PresentationError("row spaces are not arrow-invariant")
        mats.append(t[:, frees[u]])
    quot = Module(m.algebra, [len(x) for x in frees], mats, name=name, check=False)
    return quot, ModuleMap(m, quot, projs)


def kernel(fmap: ModuleMap, name: str = "ker") -> tuple[Module, ModuleMap]:
    """Kernel submodule with inclusion."""
    f = fmap.src.algebra.field
    spaces = [f.kernel(b) for b in fmap.blocks]
    return _sub_from_spaces(fmap.src, spaces, name)


def image(fmap: ModuleMap, name: str = "im") -> tuple[Module, ModuleMap]:
    """Image submodule of the target, with inclusion."""
    f = fmap.src.algebra.field
    spaces = [f.row_space(b.T) for b in fmap.blocks]
    return _sub_from_spaces(fmap.tgt, spaces, name)


def cokernel(fmap: ModuleMap, name: str = "coker") -> tuple[Module, ModuleMap]:
    """Cokernel with projection from the target: the quotient by the
    image's vertex spaces, as image takes them."""
    f = fmap.src.algebra.field
    return _quot_from_spaces(fmap.tgt, [f.row_space(b.T) for b in fmap.blocks], name)


def radical(m: Module) -> list[np.ndarray]:
    """Per-vertex row bases of rad(A) m = sum of arrow images."""
    return [m.algebra.field.row_space(img) for img in _arrow_images(m)]


def _arrow_images(m: Module) -> list[np.ndarray]:
    """Per vertex v, the columns of every arrow into v, as rows of m_v."""
    images = [[np.zeros((0, d), dtype=np.int16)] for d in m.dims]
    for a, (_, _u, v) in enumerate(m.algebra.arrows):
        images[v].append(m.mats[a].T)
    return [np.concatenate(i) for i in images]


def radical_submodule(m: Module) -> tuple[Module, ModuleMap]:
    return _sub_from_spaces(m, radical(m), name=f"rad({m.name})")


def top_dims(m: Module) -> tuple[int, ...]:
    gens = [v for v, _ in _top_generators(m)]
    return tuple(gens.count(v) for v in range(len(m.dims)))


def socle_dims(m: Module) -> tuple[int, ...]:
    return tuple(s.shape[0] for s in socle(m))


def socle(m: Module) -> list[np.ndarray]:
    """Per-vertex row bases of the socle (joint kernel of all arrows out)."""
    f = m.algebra.field
    nv = len(m.dims)
    out = []
    for v in range(nv):
        stacked = [m.mats[a] for a, (_, u, _t) in enumerate(m.algebra.arrows) if u == v]
        if not stacked:
            out.append(np.eye(m.dims[v], dtype=np.int16))
            continue
        sys = np.concatenate(stacked, axis=0)
        out.append(f.kernel(sys))
    return out


def radical_series(m: Module) -> list[list[np.ndarray]]:
    """Per-vertex bases of rad^i m for i = 0, 1, ... until zero."""
    f = m.algebra.field
    cur = [np.eye(d, dtype=np.int16) for d in m.dims]
    series = [cur]
    while any(s.shape[0] for s in cur):
        nxt = [np.zeros((0, m.dims[v]), dtype=np.int16) for v in range(len(m.dims))]
        for a, (_, u, v) in enumerate(m.algebra.arrows):
            if cur[u].shape[0] == 0:
                continue
            img = f.matmul(m.mats[a], cur[u].T).T
            nxt[v] = f.row_space(np.concatenate([nxt[v], img], axis=0))
        if [s.shape[0] for s in nxt] == [s.shape[0] for s in cur]:
            raise PresentationError("radical series does not terminate; algebra not admissible")
        series.append(nxt)
        cur = nxt
    return series


def projective_cover(m: Module):
    """Minimal projective cover.

    Returns:
        (P, epi) where epi: P -> m is surjective with ker epi contained in
        rad P.  P is a direct sum of indecomposable projectives matching the
        top of m; generators are the echelon complement of rad m.  Kept in
        the algebra memo under (m.key, m.name), as the name reaches P; later
        calls share P and epi (see read_only).
    """
    return m.algebra.cached(("cover", m.key, m.name), lambda: read_only(*_projective_cover(m)))


def _projective_cover(m: Module):
    A = m.algebra
    gens = _top_generators(m)
    if not gens:
        p = zero_module(A)
        return p, ModuleMap(p, m, [np.zeros((m.dims[v], 0), dtype=np.int16)
                                   for v in range(len(m.dims))])
    p = sum_module([A.projective(v) for v, _ in gens], name=f"P({m.name})")
    epi = ModuleMap(p, m, _generator_images(m, gens))
    if not epi.is_surjective_map():
        raise PresentationError("projective cover construction failed to surject")
    return p, epi


def read_only(*objs):
    """objs, modules and maps, with their arrays made read-only: a memoised
    construction is shared by every later call, so no caller may write into
    it.  A map's source and target are left as they are."""
    for o in objs:
        for a in (o.mats if isinstance(o, Module) else o.blocks):
            a.flags.writeable = False
    return objs


def _top_generators(m: Module) -> tuple[tuple[int, int], ...]:
    """(vertex, coordinate) of each unit vector in the echelon complement of
    rad m: a basis of m modulo its radical, in vertex order.  Kept in the
    algebra memo: top_dims, is_projective, projective_cover, hom_flats and
    derived.total_hom_dims all read it."""
    def build():
        f = m.algebra.field
        gens = []
        for v, img in enumerate(_arrow_images(m)):
            piv = f.pivots(img)
            gens.extend((v, c) for c in range(m.dims[v]) if c not in piv)
        return tuple(gens)
    return m.algebra.cached(("top", m.key), build)


def _path_images(m: Module, v: int, cols) -> list[np.ndarray]:
    """Per vertex w, the images M_b e_c of the unit vectors e_c of m_v, c in
    cols (an index list or slice), under the basis paths b from v to w,
    stacked on a last axis (dims[w] x len(cols) x paths).  An arrow's image
    is a column selection, a longer path's its prefix's times one arrow."""
    A = m.algebra
    images = {(): np.eye(m.dims[v], dtype=np.int16)[:, cols]}

    def image(word):
        if word not in images:
            images[word] = (m.mats[word[0]][:, cols] if len(word) == 1 else
                            A.field.matmul(m.mats[word[-1]], image(word[:-1])))
        return images[word]

    out = []
    for w in range(len(m.dims)):
        stack = [image(A.basis_words[b]) for b in A.projective_basis_words(v, w)]
        out.append(np.stack(stack, axis=2) if stack else
                   np.zeros((m.dims[w], images[()].shape[1], 0), dtype=np.int16))
    return out


def _generator_images(m: Module, gens: tuple[tuple[int, int], ...]) -> list[np.ndarray]:
    """Per vertex w, one column b g per generator g = e_c at v in gens (in
    order) and basis path b from v to w: the vertex blocks of the map onto
    m from the sum of the P(v)."""
    blocks = [[np.zeros((d, 0), dtype=np.int16)] for d in m.dims]
    for v in sorted({v for v, _ in gens}):
        for w, x in enumerate(_path_images(m, v, [c for u, c in gens if u == v])):
            blocks[w].append(x.reshape(m.dims[w], x.shape[1] * x.shape[2]))
    return [np.concatenate(b, axis=1) for b in blocks]


def cover_kernel(m: Module):
    """(K, incl, P, epi) for the kernel of the minimal projective cover."""
    p, epi = projective_cover(m)
    k, incl = kernel(epi, name=f"om({m.name})")
    return k, incl, p, epi


def injective_hull(m: Module):
    """Minimal injective hull.

    Returns:
        (I, mono) where mono: m -> I is injective and an isomorphism on
        socles.  I is a sum of indecomposable injectives matching soc m.
        Kept in the algebra memo under (m.key, m.name), as the name reaches
        I; later calls share I and mono (see read_only).
    """
    return m.algebra.cached(("hull", m.key, m.name), lambda: read_only(*_injective_hull(m)))


def _injective_hull(m: Module):
    """One summand I(v) per functional dual to the socle basis of m_v (and
    vanishing on its echelon complement); the rows of mono at w that belong
    to the summand of xi are the xi M_b, b over the paths from w to v."""
    A = m.algebra
    f = A.field
    duals = []  # (vertex v, the functionals at v as rows)
    for v, s in enumerate(socle(m)):
        if s.shape[0] == 0:
            continue
        r, piv = f.rref(s)
        free = [c for c in range(m.dims[v]) if c not in piv]
        basis_rows = np.concatenate(
            [r[: len(piv)]] +
            ([np.eye(m.dims[v], dtype=np.int16)[free]] if free else []), axis=0)
        duals.append((v, f.matinv(basis_rows.T)[: s.shape[0]]))
    if not duals:
        i0 = zero_module(A)
        return i0, ModuleMap(m, i0, [np.zeros((0, m.dims[v]), dtype=np.int16)
                                     for v in range(len(m.dims))])
    big = sum_module([A.injective(v) for v, xi in duals for _ in xi], name=f"I({m.name})")
    blocks = [[np.zeros((0, d), dtype=np.int16)] for d in m.dims]
    for v, xi in duals:
        for w, x in enumerate(_functional_images(m, v, xi)):
            # the summand of xi[j] holds the rows x[:, j], paths in order
            blocks[w].append(x.transpose(1, 0, 2).reshape(x.shape[1] * x.shape[0], m.dims[w]))
    mono = ModuleMap(m, big, [np.concatenate(b) for b in blocks])
    if not mono.is_injective_map():
        raise PresentationError("injective hull construction failed to embed")
    return big, mono


def _functional_images(m: Module, v: int, xi: np.ndarray) -> list[np.ndarray]:
    """Per vertex w, the functionals xi M_b on m_w for the rows xi of
    functionals on m_v and the basis paths b from w to v, stacked on a first
    axis (paths x len(xi) x dims[w]).  The mirror of _path_images: a path's
    image is its one-arrow-shorter suffix's times its first arrow."""
    A = m.algebra
    images = {(): xi}

    def image(word):
        if word not in images:
            images[word] = A.field.matmul(image(word[1:]), m.mats[word[0]])
        return images[word]

    out = []
    for w in range(len(m.dims)):
        stack = [image(A.basis_words[b]) for b in A.projective_basis_words(w, v)]
        out.append(np.stack(stack) if stack else
                   np.zeros((0, len(xi), m.dims[w]), dtype=np.int16))
    return out


def hull_cokernel(m: Module):
    """(C, proj, I, mono) for the cokernel of the minimal injective hull."""
    i, mono = injective_hull(m)
    c, proj = cokernel(mono, name=f"om-({m.name})")
    return c, proj, i, mono


def is_projective(m: Module) -> bool:
    """Whether dim m equals that of its projective cover, the sum of P(v) over top m."""
    return m.dim == sum(t * m.algebra.projective(v).dim for v, t in enumerate(top_dims(m)))


def is_injective_module(m: Module) -> bool:
    """Whether dim m equals that of its injective hull, the sum of I(v) over soc m."""
    return m.dim == sum(s * m.algebra.injective(v).dim for v, s in enumerate(socle_dims(m)))


# -- pushout / extensions --------------------------------------------------


def pushout(f: ModuleMap, g: ModuleMap):
    """Pushout of f: X -> Y and g: X -> Z, the cokernel of (f, -g): X -> Y + Z.

    Returns:
        (W, py, pz) with py: Y -> W, pz: Z -> W and py f = pz g.
    """
    if f.src.key != g.src.key:
        raise PresentationError("pushout legs must share their source")
    _, (iy, iz), _ = _sum2(f.tgt, g.tgt)
    w, proj = cokernel(iy.compose(f).sub(iz.compose(g)), name="pushout")
    return w, proj.compose(iy), proj.compose(iz)


def _sum2(a: Module, b: Module):
    s, injs, projs = direct_sum([a, b])
    return s, tuple(injs), tuple(projs)


class Ext1:
    """Ext^1(M, N) presented off the minimal cover of M.

    Attributes:
        dim: dimension of Ext^1.
        reps: list of ModuleMaps K -> N representing a basis of classes,
            where K is the cover kernel of M.
    """

    def __init__(self, m: Module, n: Module):
        self.m = m
        self.n = n
        k, incl, p, epi = cover_kernel(m)
        self.k, self.incl, self.p, self.epi = k, incl, p, epi
        f = m.algebra.field
        flat = hom_flats(k, n)
        # the restrictions g incl of all g: P -> N, in the basis of Hom(K, N)
        coords = f.solve_matrix(flat.T, compose_flats(hom_flats(p, n), p, n, right=incl).T)
        if coords is None:
            raise PresentationError("restriction image escaped Hom(K, N)")
        img, piv = f.rref(coords.T)
        self._img, self._piv, self._basis_flat = img[:len(piv)], list(piv), flat
        self._free = [c for c in range(len(flat)) if c not in piv]
        self.dim = len(self._free)
        self.reps = [flat_to_map(k, n, flat[c]) for c in self._free]

    def class_coords(self, g: ModuleMap) -> np.ndarray:
        """Coordinates of the class of g: K -> N in the chosen basis."""
        f = self.m.algebra.field
        c = f.solve(self._basis_flat.T, g.flat())
        if c is None:
            raise PresentationError("map is not in Hom(K, N)")
        # c less its pivot entries times the (reduced) echelon rows of the image
        vec = c.astype(np.int16)[None, :]
        red = f.matmul(vec[:, self._piv], self._img[:, self._free])
        return f.sub_mat(vec[:, self._free], red)[0]

    def realize(self, g: ModuleMap):
        """Short exact sequence 0 -> N -> E -> M -> 0 with class [g].

        Returns:
            (E, mono, epi) where mono: N -> E and epi: E -> M.
        """
        if g.src.key != self.k.key or g.tgt.key != self.n.key:
            raise PresentationError("realize expects a map cover_kernel(M) -> N")
        w, p_p, p_n = pushout(self.incl, g)
        # epi: W -> M induced by (cover epi, 0) on P + N, which kills the
        # pushout relations since incl lands in ker(epi)
        sumpn, (ip, in_), _ = _sum2(self.p, self.n)
        tomod = [np.concatenate([self.epi.blocks[v],
                                 np.zeros((self.m.dims[v], self.n.dims[v]), dtype=np.int16)],
                                axis=1) for v in range(len(self.m.dims))]
        combined = ModuleMap(sumpn, self.m, tomod)
        onto_w = ModuleMap(sumpn, w, [np.concatenate([p_p.blocks[v], p_n.blocks[v]], axis=1)
                                      for v in range(len(self.m.dims))])
        epi = factor_through_surjection(onto_w, combined)
        return w, p_n, epi


def ext1(m: Module, n: Module) -> Ext1:
    return Ext1(m, n)


def ses_class(ext: Ext1, mono: ModuleMap, epi: ModuleMap) -> np.ndarray:
    """Class coordinates of the extension 0 -> N -> E -> M -> 0 in ext."""
    lift = lift_through_surjection(epi, ext.epi)
    restricted = lift.compose(ext.incl)
    g = factor_through_injection(mono, restricted)
    return ext.class_coords(g)


def is_exact_pair(mono: ModuleMap, epi: ModuleMap) -> bool:
    """Whether 0 -> src(mono) -> E -> tgt(epi) -> 0 is exact."""
    if mono.tgt.key != epi.src.key:
        return False
    if not mono.is_injective_map() or not epi.is_surjective_map():
        return False
    if not epi.compose(mono).is_zero():
        return False
    return mono.src.dim + epi.tgt.dim == mono.tgt.dim


# -- decomposition ----------------------------------------------------------


class Summand(NamedTuple):
    module: Module
    incl: ModuleMap
    proj: ModuleMap


def _fitting_split(m: Module, f_end: ModuleMap):
    """If f_end gives a nontrivial Fitting decomposition, return the pair of
    (rows_kernel, rows_image) per-vertex spaces, else None.  Any power
    f^n with n >= dim m has the stable kernel and image (Fitting's lemma)."""
    fld = m.algebra.field
    for _ in range(m.dim.bit_length()):
        f_end = f_end.compose(f_end)
    r = f_end.rank()
    if r == 0 or r == m.dim:
        return None
    return [fld.kernel(b) for b in f_end.blocks], [fld.row_space(b.T) for b in f_end.blocks]


def _structure_constants(m: Module, ends: list[ModuleMap], pivots) -> np.ndarray:
    """T[i, j] = coordinates (entries at the basis pivots) of ends[i] after ends[j]."""
    fld, d = m.algebra.field, len(ends)
    prods = []
    for v, n in enumerate(m.dims):
        if n:
            b = np.stack([e.blocks[v] for e in ends])
            p = fld.matmul(b.reshape(d * n, n), b.transpose(1, 0, 2).reshape(n, d * n))
            prods.append(p.reshape(d, n, d, n).transpose(0, 2, 1, 3).reshape(d, d, n * n))
    return np.concatenate(prods, axis=2)[:, :, pivots]


def _power(e: ModuleMap, n: int) -> ModuleMap:
    """e composed with itself n >= 1 times."""
    if n == 1:
        return e
    half = _power(e.compose(e), n // 2)
    return half.compose(e) if n % 2 else half


def _split_once(m: Module):
    """A nontrivial Fitting splitting (ker_spaces, im_spaces) of m, or None
    when End m is local, i.e. m is indecomposable.

    Let B = End m and C the two-sided ideal generated by its commutators.
    B/C is commutative, so x -> x^q is linear modulo C, and F = {x : x^q - x
    in C} has dimension dim C + t, t the number of local factors of B/C
    (Berlekamp).  If t > 1, a basis element x of F outside C + k*1 has
    distinct scalars in two factors of B/J(B); x - lam*1 with lam one of
    them is neither nilpotent nor invertible.  If t = 1 and C is nilpotent,
    C lies in J(B) and B is local.  Otherwise B is not local (a finite
    division ring is a field), and a walk over B meets a splitting
    endomorphism."""
    ends = end_space(m)
    if len(ends) == 1:
        return None  # End = k is local
    for e in ends:
        out = _fitting_split(m, e)
        if out is not None:
            return out
    fld, d = m.algebra.field, len(ends)
    pivots = (np.stack([e.flat() for e in ends]) != 0).argmax(axis=1)
    t = _structure_constants(m, ends, pivots)
    eye = fld.eye(d)
    comm = fld.row_space(fld.sub_mat(t, t.transpose(1, 0, 2)).reshape(d * d, d))
    # B comm is a left ideal, so (B comm) B is the two-sided ideal C
    ideal = fld.row_space(fld.products(t, fld.row_space(fld.products(t, eye, comm)), eye))
    power = ideal  # C^(dim C + 1) = 0 iff C is nilpotent
    for _ in range(ideal.shape[0]):
        power = fld.row_space(fld.products(t, power, ideal))
    one = ModuleMap.identity(m).flat()[pivots]
    frob = np.stack([_power(e, fld.q).flat()[pivots] for e in ends])
    # x (frob - 1) lies in C iff it is orthogonal to the kernel of C
    fixed = fld.kernel(fld.matmul(fld.kernel(ideal), fld.sub_mat(frob, eye).T))
    if fixed.shape[0] > ideal.shape[0] + 1:
        rows = (fld.sub_mat(x, fld.scale(lam, one)) for x in fixed for lam in fld.elements())
    elif not power.shape[0]:
        return None
    else:  # walk B, first coefficient turning fastest
        rows = (c[::-1] for c in itertools.product(range(fld.q), repeat=d))
    for e in combinations(ends, rows):
        out = _fitting_split(m, e)
        if out is not None:
            return out
    raise PresentationError("End is not local but no endomorphism splits")


def decompose(m: Module) -> list[Summand]:
    """Decompose into indecomposable summands with splitting witnesses.

    Returns a list of Summand(module, incl, proj) with sum(incl_i proj_i)
    equal to the identity; every summand has a local endomorphism ring.
    Memoised on m.key; each call binds fresh summands, named after m, to m.
    """
    if m.dim == 0:
        return []
    packed = m.algebra.cached(("decompose", m.key), lambda: _packed_summands(m))
    if packed is None:
        return [Summand(m, ModuleMap.identity(m), ModuleMap.identity(m))]
    arrows, nv, out = m.algebra.arrows, len(m.dims), []
    for suffix, dims, entries in packed:
        shapes = ([(dims[v], dims[u]) for _, u, v in arrows]
                  + list(zip(m.dims, dims)) + list(zip(dims, m.dims)))
        ends = itertools.accumulate(r * c for r, c in shapes)
        blocks = [entries[e - r * c: e].reshape(r, c) for e, (r, c) in zip(ends, shapes)]
        s = Module(m.algebra, dims, blocks[:-2 * nv], name=m.name + suffix, check=False)
        out.append(Summand(s, ModuleMap(s, m, blocks[-2 * nv: -nv]), ModuleMap(m, s, blocks[-nv:])))
    return out


def _packed_summands(m: Module):
    """(name suffix, dims, entries) per summand of m, None if m is indecomposable;
    entries, one read-only vector shared by later calls, holds the arrow matrices,
    inclusion and projection blocks in turn.  The Fitting pieces go through the memo."""
    split = _split_once(m)
    if split is None:
        return None
    k_mod, k_incl = _sub_from_spaces(m, split[0], ".a")
    i_mod, i_incl = _sub_from_spaces(m, split[1], ".b")
    projs = _complementary_projections(m, k_incl, i_incl)
    out = []
    for piece, incl, proj in ((k_mod, k_incl, projs[0]), (i_mod, i_incl, projs[1])):
        for s in decompose(piece):
            arrays = s.module.mats + incl.compose(s.incl).blocks + s.proj.compose(proj).blocks
            entries = np.concatenate([a.reshape(-1) for a in arrays])
            entries.flags.writeable = False
            out.append((s.module.name, s.module.dims, entries))
    return out


def _complementary_projections(m: Module, incl_a: ModuleMap, incl_b: ModuleMap):
    """Projections onto two complementary submodules given their inclusions."""
    fld = m.algebra.field
    pa, pb = [], []
    for v in range(len(m.dims)):
        da = incl_a.blocks[v].shape[1]
        db = incl_b.blocks[v].shape[1]
        c = np.concatenate([incl_a.blocks[v], incl_b.blocks[v]], axis=1)
        if c.shape[0] != da + db:
            raise PresentationError("submodules are not complementary")
        cinv = fld.matinv(c) if c.size else np.zeros((0, 0), dtype=np.int16)
        if cinv is None:
            raise PresentationError("submodules are not complementary")
        pa.append(cinv[:da, :])
        pb.append(cinv[da:, :])
    return (ModuleMap(m, incl_a.src, pa), ModuleMap(m, incl_b.src, pb))


def module_isomorphic(m: Module, n: Module) -> ModuleMap | None:
    """An isomorphism m -> n, or None if m and n are not isomorphic."""
    if m.dims != n.dims:
        return None
    return match_summands(m, n, decompose(m), decompose(n))


def match_summands(m: Module, n: Module, xs: list[Summand],
                   ys: list[Summand]) -> ModuleMap | None:
    """sum b.incl h a.proj: m -> n over a Krull-Schmidt matching of the
    indecomposable summands xs of m with ys of n, or None if there is none.

    X is isomorphic to Y iff some element of the Hom(X, Y) basis is
    invertible: for an isomorphism g, the g^-1 f span the local ring End X.
    """
    if len(xs) != len(ys):
        return None
    iso = ModuleMap.zero(m, n)
    unmatched = list(ys)
    for a in xs:
        for j, b in enumerate(unmatched):
            if a.module.dims != b.module.dims:
                continue
            h = next((h for h in hom_space(a.module, b.module) if h.is_iso()), None)
            if h is not None:
                iso = iso.add(b.incl.compose(h).compose(a.proj))
                del unmatched[j]
                break
        else:
            return None
    return iso
