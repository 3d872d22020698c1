"""Bound quiver algebras kQ/I over a finite field.

A presentation consists of a quiver (vertices, arrows) and admissible
relations: each relation is a linear combination of parallel paths of length
at least 2.  Paths are written first-applied first: the word (a, b) is the
path along arrow a followed by arrow b.  The algebra product x * y composes
y first, then x, so that left modules are quiver representations with the
usual arrow action.

A normal path basis is computed by noncommutative Groebner completion of the
relations under the degree-lexicographic word order.  Admissibility (the
arrow ideal of the quotient is nilpotent) is certified afterwards by
computing radical powers; presentations that do not define a
finite-dimensional algebra with nilpotent radical are rejected.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from stabrec.errors import Inconclusive, PresentationError
from stabrec.gf import Field
from stabrec.graded import GradedAlgebra
from stabrec import modules as _mod

MAX_PATH_LEN = 32
# _build_mult allocates an n x n x n int16 table, 2 n^3 bytes for n basis
# elements: 64 MiB at this cap (the bundled fixtures have n <= 12)
MAX_BASIS_DIM = 320
_AGENDA_CAP = 20000
UNIT_POINT_LIMIT = 1 << 16


def _degkey(word: tuple[int, ...]) -> tuple:
    return (len(word), word)


class SelfInjectivity:
    """Result of the self-injectivity test.

    For a basic algebra, self-injectivity holds exactly when every
    indecomposable projective has a simple socle and the assignment
    vertex -> socle vertex is a permutation (a dimension count then forces
    P_v to equal the injective hull of its socle).
    """

    def __init__(self, ok: bool, perm: tuple[int, ...] | None, witness: str,
                 socle_dims: tuple[int, ...]):
        self.ok = ok
        self.perm = perm
        self.witness = witness
        self.socle_dims = socle_dims

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"SelfInjectivity(ok={self.ok}, perm={self.perm}, witness={self.witness!r})"


class SymmetryReport:
    """Result of the symmetric-algebra test.  socle_values: a basis (rows)
    of the vectors (lambda(s_v))_v over symmetric lambda (see
    Algebra.symmetry), None if not self-injective.  functional: the first
    such lambda with no zero value, in odometer order over the basis of
    symmetric functionals."""

    def __init__(self, symmetric: bool, functional: np.ndarray | None,
                 socle_values: np.ndarray | None):
        self.symmetric = symmetric
        self.functional = functional
        self.socle_values = socle_values


def _has_unit_point(f: Field, a: np.ndarray, rows: np.ndarray) -> bool:
    """Whether a + span(rows) has a point with no zero entry.

    Blocks of linked rows of the reduced basis are decided apart; one with
    fewer than q columns always has such a point (an affine space over GF(q)
    is no union of fewer than q hyperplanes).  Else the walk tries only the
    q - 1 coefficients of each row that keep its pivot entry nonzero (one
    point over GF(2)), at most UNIT_POINT_LIMIT points, or Inconclusive."""
    basis = f.row_space(rows)
    if np.any(a[~np.any(basis, axis=0)] == 0):
        return False
    blocks = []
    for i, row in enumerate(basis):
        hit = [k for k, b in enumerate(blocks) if np.any(b[1] & (row != 0))]
        blocks = [b for k, b in enumerate(blocks) if k not in hit] + [(
            [i] + [r for k in hit for r in blocks[k][0]],
            np.any([row != 0] + [blocks[k][1] for k in hit], axis=0))]
    for idx, cols in blocks:
        sub, at = basis[idx][:, cols], a[cols]
        if sub.shape[1] < f.q:
            continue
        if (f.q - 1) ** len(idx) > UNIT_POINT_LIMIT:
            raise Inconclusive(f"more than {UNIT_POINT_LIMIT} socle points to try")
        walk = itertools.product(*[[c for c in f.elements() if f.add(at[np.flatnonzero(r)[0]], c)]
                                   for r in sub])
        chunks = (list(itertools.islice(walk, 4096)) for _ in itertools.count())
        if not any(np.all(f.add_mat(at[None], f.matmul(np.array(c, dtype=np.int16), sub)),
                          axis=1).any() for c in itertools.takewhile(len, chunks)):
            return False
    return True


class Algebra:
    """A bound quiver algebra with a computed normal path basis."""

    def __init__(self, field: Field, vertices: list[str],
                 arrows: list[tuple[str, str, str]],
                 relations: list[list[tuple[int, list[str]]]],
                 name: str = "A", max_path_len: int = MAX_PATH_LEN):
        self.field = field
        self.name = name
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise PresentationError("duplicate vertex names")
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        self.arrows = []
        self.aindex = {}
        for aname, src, tgt in arrows:
            if aname in self.aindex or aname in self.vindex:
                raise PresentationError(f"duplicate name {aname!r}")
            if src not in self.vindex or tgt not in self.vindex:
                raise PresentationError(f"arrow {aname!r} references unknown vertex")
            self.aindex[aname] = len(self.arrows)
            self.arrows.append((aname, self.vindex[src], self.vindex[tgt]))
        self.max_path_len = max_path_len
        self.relations = [self._parse_relation(r) for r in relations]
        self._rules: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        self._complete()
        self._build_basis()
        self._build_mult()
        self._certify_admissible()
        self._memo: dict = {}

    def cached(self, key, build):
        """The value stored under key, computed by build() on first use.

        An algebra is immutable once built, so anything derived from it (and
        from content-keyed modules over it) is kept for its lifetime here:
        its projectives, injectives, self-injectivity report, regular module
        and filtrability answers per simple set; per module key the top
        generators, generator inverses and decomposition; per pair of keys
        the Hom basis and stable Hom; per (key, name) the projective
        cover, injective hull, stable core and each Omega^d, whose names
        carry the module's; per complex content key the deepest projective
        resolution built so far, which a deeper call extends downward in
        place by adding degrees; per (simple set, multiplicity vector)
        the sum X = S_1^{m_1} + ... with its copy injections, onto which
        the filtration searches try surjections and canonical_top maps;
        and per (simple set, module key) the greedy S-radical filtration
        (or the message of its stall) and the projective-remainder answer.
        No shared array is ever written into (see modules.read_only)."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    # -- presentation parsing ------------------------------------------------

    def nsrc(self, word: tuple[int, ...]) -> int:
        return self.arrows[word[0]][1]

    def ntgt(self, word: tuple[int, ...]) -> int:
        return self.arrows[word[-1]][2]

    @property
    def nvertices(self) -> int:
        return len(self.vertices)

    def _parse_relation(self, rel) -> dict[tuple[int, ...], int]:
        poly: dict[tuple[int, ...], int] = {}
        sig = None
        for coeff, names in rel:
            c = int(coeff) % self.field.p if self.field.k == 1 else int(coeff)
            if not (0 <= c < self.field.q):
                raise PresentationError(f"coefficient {coeff} out of field range")
            word = tuple(self.aindex[n] for n in names)
            if len(word) < 2:
                raise PresentationError("relation terms must be paths of length >= 2")
            for x, y in zip(word, word[1:]):
                if self.arrows[x][2] != self.arrows[y][1]:
                    raise PresentationError(f"path {names} is not composable")
            here = (self.nsrc(word), self.ntgt(word))
            if sig is None:
                sig = here
            elif sig != here:
                raise PresentationError("relation terms are not parallel paths")
            if c:
                poly[word] = int(self.field.add(poly.get(word, 0), c))
                if poly[word] == 0:
                    del poly[word]
        return poly

    # -- Groebner completion ---------------------------------------------------

    def _reduce(self, poly: dict) -> dict:
        f = self.field
        changed = True
        while changed:
            changed = False
            for word in sorted(poly, key=_degkey, reverse=True):
                c = poly.get(word)
                if not c:
                    continue
                hit = None
                for l in range(len(word), 1, -1):
                    for start in range(0, len(word) - l + 1):
                        sub = word[start: start + l]
                        if sub in self._rules:
                            hit = (start, sub)
                            break
                    if hit:
                        break
                if hit is None:
                    continue
                start, sub = hit
                tail = self._rules[sub]
                del poly[word]
                pre, post = word[:start], word[start + len(sub):]
                for tword, tc in tail.items():
                    neww = pre + tword + post
                    val = int(f.add(poly.get(neww, 0), f.mul(c, tc)))
                    if val:
                        poly[neww] = val
                    else:
                        poly.pop(neww, None)
                changed = True
                break
        return {w: c for w, c in poly.items() if c}

    def _add_rule_from(self, poly: dict, agenda: deque) -> None:
        poly = self._reduce(dict(poly))
        if not poly:
            return
        lead = max(poly, key=_degkey)
        if len(lead) > self.max_path_len:
            raise PresentationError(
                f"Groebner completion produced a rule of length {len(lead)} "
                f"beyond the path cap {self.max_path_len}")
        f = self.field
        cinv = f.inv(poly[lead])
        tail = {w: int(f.neg(f.mul(cinv, c))) for w, c in poly.items() if w != lead}
        # retire any rule whose lead contains the new lead, requeue its poly
        stale = []
        for l in self._rules:
            if l != lead and len(l) >= len(lead):
                if any(l[i: i + len(lead)] == lead for i in range(len(l) - len(lead) + 1)):
                    stale.append(l)
        for l in stale:
            t = self._rules.pop(l)
            old = {l: 1}
            for w, c in t.items():
                old[w] = int(f.add(old.get(w, 0), f.neg(c)))
            agenda.append(old)
        self._rules[lead] = tail
        # queue overlap ambiguities with every current rule, both orders
        for other in list(self._rules):
            for l1, l2 in ((lead, other), (other, lead)):
                t1, t2 = self._rules[l1], self._rules[l2]
                for s in range(1, min(len(l1), len(l2))):
                    if l1[len(l1) - s:] == l2[:s]:
                        suffix = l2[s:]
                        prefix = l1[: len(l1) - s]
                        spoly: dict = {}
                        for w, c in t1.items():
                            nw = w + suffix
                            spoly[nw] = int(f.add(spoly.get(nw, 0), c))
                        for w, c in t2.items():
                            nw = prefix + w
                            spoly[nw] = int(f.add(spoly.get(nw, 0), f.neg(c)))
                        spoly = {w: c for w, c in spoly.items() if c}
                        if spoly:
                            agenda.append(spoly)

    def _complete(self) -> None:
        agenda: deque = deque(dict(p) for p in self.relations if p)
        steps = 0
        while agenda:
            steps += 1
            if steps > _AGENDA_CAP:
                raise PresentationError("Groebner completion did not terminate "
                                        f"within {_AGENDA_CAP} steps")
            self._add_rule_from(agenda.popleft(), agenda)

    # -- basis ---------------------------------------------------------------

    def _build_basis(self) -> None:
        lead_lens = sorted({len(l) for l in self._rules})
        normal: list[tuple[int, ...]] = []
        frontier = [()]
        length = 0
        while frontier:
            length += 1
            if length > self.max_path_len:
                raise PresentationError(
                    f"normal paths exceed the cap {self.max_path_len}; "
                    "the presentation is not admissible")
            nxt = []
            for w in frontier:
                tgt = self.ntgt(w) if w else None
                for a, (_, src, _t) in enumerate(self.arrows):
                    if w and src != tgt:
                        continue
                    nw = w + (a,)
                    bad = False
                    for l in lead_lens:
                        if l <= len(nw) and nw[len(nw) - l:] in self._rules:
                            bad = True
                            break
                    if not bad:
                        nxt.append(nw)
            normal.extend(nxt)
            if len(normal) + self.nvertices > MAX_BASIS_DIM:
                raise PresentationError(
                    f"more than {MAX_BASIS_DIM} normal paths; the presentation "
                    "is not admissible or too large")
            frontier = nxt
        normal.sort(key=_degkey)
        self.basis_words: list[tuple[int, ...]] = [() for _ in self.vertices] + normal
        self.basis_src = []
        self.basis_tgt = []
        self.word_index: dict = {}
        for i, w in enumerate(self.basis_words):
            if not w:
                self.basis_src.append(i)
                self.basis_tgt.append(i)
                self.word_index[("e", i)] = i
            else:
                self.basis_src.append(self.nsrc(w))
                self.basis_tgt.append(self.ntgt(w))
                self.word_index[w] = i
        self.dim = len(self.basis_words)

    def _vec_of_poly(self, poly: dict) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int16)
        for w, c in poly.items():
            v[self.word_index[w]] = c
        return v

    def normal_form(self, word: tuple[int, ...]) -> dict:
        """Fully reduced representation of a path as {normal word: coeff}."""
        return self._reduce({word: 1})

    def _build_mult(self) -> None:
        n = self.dim
        self.mult = np.zeros((n, n, n), dtype=np.int16)
        for i in range(n):
            wi = self.basis_words[i]
            for j in range(n):
                wj = self.basis_words[j]
                # product b_i * b_j applies j first: diagrammatic concat wj + wi
                if not wi:
                    # e_i * b_j = b_j when b_j ends at vertex i
                    if self.basis_tgt[j] == i:
                        self.mult[i, j] = self._unit_vec(j)
                    continue
                if not wj:
                    if self.basis_src[i] == j:
                        self.mult[i, j] = self._unit_vec(i)
                    continue
                if self.basis_tgt[j] != self.basis_src[i]:
                    continue
                nf = self.normal_form(wj + wi)
                self.mult[i, j] = self._vec_of_poly(nf)

    def _unit_vec(self, i: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int16)
        v[i] = 1
        return v

    def _certify_admissible(self) -> None:
        f = self.field
        nv = self.nvertices
        arrow_rad = np.eye(self.dim, dtype=np.int16)[nv:]
        powers = [np.eye(self.dim, dtype=np.int16), f.row_space(arrow_rad)]
        while powers[-1].shape[0]:
            cur = powers[-1]
            # row x of cur goes to a * x: row j of mult[a] is a * b_j
            rows = [f.matmul(cur, self.mult[self.word_index[(a,)]])
                    for a in range(len(self.arrows))]
            nxt = f.row_space(np.concatenate(rows, axis=0)) if rows else \
                np.zeros((0, self.dim), dtype=np.int16)
            if nxt.shape[0] == cur.shape[0]:
                raise PresentationError(
                    "the arrow ideal is not nilpotent; presentation not admissible")
            powers.append(nxt)
        self.radical_powers = powers
        self.loewy_length = len(powers) - 1

    # -- modules -------------------------------------------------------------

    def check_relations(self, module: "_mod.Module") -> None:
        f = self.field
        for poly in self.relations:
            if not poly:
                continue
            first = next(iter(poly))
            s, t = self.nsrc(first), self.ntgt(first)
            acc = np.zeros((module.dims[t], module.dims[s]), dtype=np.int16)
            for w, c in poly.items():
                acc = f.add_mat(acc, f.scale(c, module.word_action(w)))
            if np.any(acc):
                raise PresentationError("module does not satisfy the relations")

    def simple(self, v: int, name: str | None = None) -> "_mod.Module":
        dims = [0] * self.nvertices
        dims[v] = 1
        mats = [np.zeros((dims[t], dims[s]), dtype=np.int16)
                for (_, s, t) in self.arrows]
        return _mod.Module(self, dims, mats,
                           name=name or f"S({self.vertices[v]})", check=False)

    def projective_basis_words(self, v: int, w: int) -> list[int]:
        """Basis indices of e_w (A e_v): paths from v to w, basis order."""
        return [i for i in range(self.dim)
                if self.basis_src[i] == v and self.basis_tgt[i] == w]

    def projective(self, v: int) -> "_mod.Module":
        """The indecomposable projective A e_v as a representation: its
        vertex-w basis is the paths v -> w, and arrow a sends b to a * b,
        read off the product table as mult[a, b]."""
        def build():
            comps = [self.projective_basis_words(v, w) for w in range(self.nvertices)]
            mats = [self.mult[self.word_index[(a,)], comps[u]][:, comps[w]].T
                    for a, (_, u, w) in enumerate(self.arrows)]
            return _mod.Module(self, [len(c) for c in comps], mats,
                               name=f"P({self.vertices[v]})", check=False)
        return self.cached(("projective", v), build)

    def injective(self, v: int) -> "_mod.Module":
        """The indecomposable injective D(e_v A) as a representation: its
        vertex-w basis is dual to the paths w -> v, those of P(w) at v, and
        arrow a sends the functional dual to c to the one taking b to the
        coefficient of c in b * a, the row mult[b, a] of the product table."""
        def build():
            comps = [self.projective_basis_words(w, v) for w in range(self.nvertices)]
            mats = [self.mult[comps[w], self.word_index[(a,)]][:, comps[u]]
                    for a, (_, u, w) in enumerate(self.arrows)]
            return _mod.Module(self, [len(c) for c in comps], mats,
                               name=f"I({self.vertices[v]})", check=False)
        return self.cached(("injective", v), build)

    def right_mult(self, i: int) -> "_mod.ModuleMap":
        """Right multiplication by basis element i, P_{tgt(i)} -> P_{src(i)}:
        the path x goes to x * b_i, the row mult[x, i] of the product table
        (the identity when i is a vertex)."""
        src, tgt, words = self.basis_tgt[i], self.basis_src[i], self.projective_basis_words
        return _mod.ModuleMap(self.projective(src), self.projective(tgt), [
            self.mult[words(src, w), i][:, words(tgt, w)].T for w in range(self.nvertices)])

    # -- structure tests -------------------------------------------------------

    def self_injectivity(self) -> SelfInjectivity:
        return self.cached("self_injectivity", self._build_self_injectivity)

    def _build_self_injectivity(self) -> SelfInjectivity:
        socdims = []
        perm = []
        for v in range(self.nvertices):
            p = self.projective(v)
            soc = _mod.socle(p)
            total = sum(s.shape[0] for s in soc)
            socdims.append(total)
            if total != 1:
                return SelfInjectivity(
                    False, None,
                    f"soc P({self.vertices[v]}) has dimension {total}, not 1",
                    tuple(socdims))
            w = next(w for w in range(self.nvertices) if soc[w].shape[0])
            perm.append(w)
        if len(set(perm)) != self.nvertices:
            return SelfInjectivity(
                False, None,
                f"socle vertex assignment {tuple(perm)} is not a permutation",
                tuple(socdims))
        return SelfInjectivity(True, tuple(perm), "", tuple(socdims))

    def symmetry(self) -> SymmetryReport:
        """Decide whether a symmetrizing form exists: lambda(ab) = lambda(ba)
        with nondegenerate Gram matrix lambda(b_i b_j).

        On a basic self-injective algebra every nonzero right ideal holds the
        socle element s_v of some e_v A, so lambda is nondegenerate iff
        lambda(s_v) != 0 for all v."""
        f, n = self.field, self.dim
        if not self.self_injectivity().ok:
            return SymmetryReport(False, None, None)
        sym = f.kernel(f.sub_mat(self.mult, self.mult.transpose(1, 0, 2)).reshape(n * n, n))
        # columns s_v: the elements of e_v A (paths ending at v) killed by
        # every arrow on the right
        arrows = [self.word_index[(a,)] for a in range(len(self.arrows))]
        socle = np.zeros((n, self.nvertices), dtype=np.int16)
        for v in range(self.nvertices):
            idx = [i for i in range(n) if self.basis_tgt[i] == v]
            soc = f.kernel(self.mult[idx][:, arrows].reshape(len(idx), -1).T)
            if soc.shape[0] != 1:
                raise PresentationError(f"soc(e_{self.vertices[v]} A) is not simple")
            socle[idx, v] = soc[0]
        values = f.matmul(sym, socle)
        # least coefficients in odometer order (the first fastest): fix the last
        # first, each to the smallest value that leaves a point with no zero entry
        coeffs = np.zeros(sym.shape[0], dtype=np.int16)
        point = np.zeros(self.nvertices, dtype=np.int16)
        symmetric = _has_unit_point(f, point, values)
        for i in reversed(range(sym.shape[0]) if symmetric else ()):
            coeffs[i] = next(c for c in f.elements() if _has_unit_point(
                f, f.add_mat(point, f.scale(c, values[i])), values[:i]))
            point = f.add_mat(point, f.scale(int(coeffs[i]), values[i]))
        lam = f.matmul(coeffs[None], sym)[0] if symmetric else None
        return SymmetryReport(symmetric, lam, f.row_space(values))

    # -- associated graded algebra ----------------------------------------------

    def gr_oracle(self) -> GradedAlgebra:
        """The graded algebra of the radical filtration, computed directly
        from radical powers of the regular representation: the structure
        constants of A in a basis adapted to the filtration (layer by layer,
        each layer a complement of the next radical power), each product
        cut down to its component in the degree it is expected in."""
        f, n = self.field, self.dim
        if self._radical_adapted():
            # the basis words, in degree order, are such a basis
            degrees = [len(w) for w in self.basis_words]
            labels = [self._label(i) for i in range(n)]
            coords = self.mult
        else:
            layers = [self._layer_complement(self.radical_powers[j], self.radical_powers[j + 1])
                      for j in range(self.loewy_length)]
            degrees = [j for j, layer in enumerate(layers) for _ in layer]
            labels = [f"deg{j}.{r}" for j, layer in enumerate(layers) for r in range(len(layer))]
            basis = np.concatenate(layers, axis=0)
            # row j * n + i: b_i b_j, then in coordinates of the basis
            prods = f.matmul(f.products(self.mult, basis, basis), f.matinv(basis))
            coords = prods.reshape(n, n, n).transpose(1, 0, 2)
        deg = np.array(degrees)
        expected = (deg[:, None] + deg[None, :])[:, :, None]
        if np.any(coords[deg < expected]):
            raise PresentationError("product escaped its radical layer")
        table = np.where(deg == expected, coords, 0)
        return GradedAlgebra(f, degrees, labels, table, name=f"gr({self.name})")

    def _label(self, i: int) -> str:
        w = self.basis_words[i]
        if not w:
            return self.vertices[i]
        return "*".join(self.arrows[a][0] for a in w)

    def _radical_adapted(self) -> bool:
        """Whether rad^j equals the span of basis words of length >= j."""
        for j, rows in enumerate(self.radical_powers):
            want = sum(1 for w in self.basis_words if len(w) >= j)
            if rows.shape[0] != want:
                return False
            short = [i for i in range(self.dim) if len(self.basis_words[i]) < j]
            if short and np.any(rows[:, short]):
                return False
        return True

    def _layer_complement(self, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
        f = self.field
        reps = []
        cur = lower.copy()
        for row in upper:
            test = np.concatenate([cur, row[None, :]], axis=0)
            if f.rank(test) > cur.shape[0]:
                reps.append(row)
                cur = test
        return np.stack(reps) if reps else np.zeros((0, self.dim), dtype=np.int16)
