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

from collections import deque

import numpy as np

from stabrec.errors import PresentationError
from stabrec.gf import Field, coset_rank_maximize
from stabrec.graded import GradedAlgebra
from stabrec import modules as _mod

MAX_PATH_LEN = 32
_AGENDA_CAP = 20000


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
    """Result of the symmetric-algebra test.

    functional is a vector of values on the path basis when a symmetrizing
    form (lambda(ab) = lambda(ba), nondegenerate) exists.  When symmetric is
    False, max_rank is the best Gram rank over the whole space of symmetric
    functionals, and exhaustive records whether that space was enumerated
    completely."""

    def __init__(self, symmetric: bool, functional: np.ndarray | None,
                 max_rank: int, exhaustive: bool):
        self.symmetric = symmetric
        self.functional = functional
        self.max_rank = max_rank
        self.exhaustive = exhaustive

    def __bool__(self):
        return self.symmetric


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
        from content-keyed modules over it) is kept for its lifetime here."""
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
        # left multiplication matrices of the regular representation
        self.left_mult = np.ascontiguousarray(np.transpose(self.mult, (0, 2, 1)))

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
            rows = []
            for a in range(len(self.arrows)):
                idx = self.word_index[(a,)]
                rows.append(f.matmul(self.left_mult[idx], cur.T).T)
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

    def injective_basis_words(self, v: int, w: int) -> list[int]:
        """Basis indices dual to e_v (A e_w): paths from w to v."""
        return [i for i in range(self.dim)
                if self.basis_src[i] == w and self.basis_tgt[i] == v]

    def projective(self, v: int) -> "_mod.Module":
        """The indecomposable projective A e_v as a representation."""
        return self.cached(("projective", v), lambda: self._build_projective(v))

    def _build_projective(self, v: int) -> "_mod.Module":
        comps = [self.projective_basis_words(v, w) for w in range(self.nvertices)]
        pos = {b: j for w in range(self.nvertices) for j, b in enumerate(comps[w])}
        dims = [len(c) for c in comps]
        mats = []
        for a, (_, u, w) in enumerate(self.arrows):
            m = np.zeros((dims[w], dims[u]), dtype=np.int16)
            for j, b in enumerate(comps[u]):
                word = self.basis_words[b]
                # arrow action appends a to the path, then reduces
                nf = self._reduce({word + (a,): 1})
                for nw, c in nf.items():
                    m[pos[self.word_index[nw]], j] = c
            mats.append(m)
        return _mod.Module(self, dims, mats, name=f"P({self.vertices[v]})", check=False)

    def injective(self, v: int) -> "_mod.Module":
        """The indecomposable injective D(e_v A) as a representation."""
        return self.cached(("injective", v), lambda: self._build_injective(v))

    def _build_injective(self, v: int) -> "_mod.Module":
        comps = [self.injective_basis_words(v, w) for w in range(self.nvertices)]
        pos = {b: j for w in range(self.nvertices) for j, b in enumerate(comps[w])}
        dims = [len(c) for c in comps]
        mats = []
        for a, (_, u, w) in enumerate(self.arrows):
            # (alpha . f)(path b from w to v) = f(b composed after alpha)
            m = np.zeros((dims[w], dims[u]), dtype=np.int16)
            for r, b in enumerate(comps[w]):
                word = self.basis_words[b]
                nf = self._reduce({(a,) + word: 1})
                for nw, c in nf.items():
                    m[r, pos[self.word_index[nw]]] = c
            mats.append(m)
        return _mod.Module(self, dims, mats, name=f"I({self.vertices[v]})", check=False)

    def right_mult(self, i: int) -> "_mod.ModuleMap":
        """Right multiplication by basis element i, P_{tgt(i)} -> P_{src(i)}."""
        wi = self.basis_words[i]
        if not wi:
            return _mod.ModuleMap.identity(self.projective(i))
        src_mod = self.projective(self.basis_tgt[i])
        tgt_mod = self.projective(self.basis_src[i])
        blocks = []
        for w in range(self.nvertices):
            rows = self.projective_basis_words(self.basis_src[i], w)
            cols = self.projective_basis_words(self.basis_tgt[i], w)
            rpos = {b: r for r, b in enumerate(rows)}
            m = np.zeros((len(rows), len(cols)), dtype=np.int16)
            for j, b in enumerate(cols):
                word = self.basis_words[b]
                nf = self._reduce({wi + word: 1})
                for nw, c in nf.items():
                    m[rpos[self.word_index[nw]], j] = c
            blocks.append(m)
        return _mod.ModuleMap(src_mod, tgt_mod, blocks)

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
        """Search for a symmetrizing form lambda with lambda(ab) = lambda(ba)
        and nondegenerate Gram matrix lambda(b_i b_j)."""
        f = self.field
        n = self.dim
        rows = []
        for i in range(n):
            for j in range(i + 1, n):
                diff = f.sub_mat(self.mult[i, j][None, :], self.mult[j, i][None, :])[0]
                if np.any(diff):
                    rows.append(diff)
        sym_space = f.kernel(np.stack(rows)) if rows else f.eye(n)
        if sym_space.shape[0] == 0:
            return SymmetryReport(False, None, 0, True)
        grams = []
        for r in range(sym_space.shape[0]):
            lam = sym_space[r]
            g = np.zeros((n, n), dtype=np.int16)
            for l in np.nonzero(lam)[0]:
                g = f.add_mat(g, f.scale(int(lam[l]), self.mult[:, :, l]))
            grams.append(g)
        base = np.zeros((n, n), dtype=np.int16)
        m, coeffs, rank, exhaustive = coset_rank_maximize(f, base, grams, target_rank=n)
        if rank == n:
            lam = np.zeros(n, dtype=np.int16)
            for c, r in zip(coeffs, range(sym_space.shape[0])):
                if c:
                    lam = f.add_mat(lam[None, :], f.scale(c, sym_space[r][None, :]))[0]
            return SymmetryReport(True, lam, rank, exhaustive)
        return SymmetryReport(False, None, rank, exhaustive)

    # -- associated graded algebra ----------------------------------------------

    def gr_oracle(self) -> GradedAlgebra:
        """The graded algebra of the radical filtration, computed directly
        from radical powers of the regular representation."""
        f = self.field
        layers: list[np.ndarray] = []
        degrees: list[int] = []
        labels: list[str] = []
        adapted = self._radical_adapted()
        for j in range(self.loewy_length):
            upper = self.radical_powers[j]
            lower = self.radical_powers[j + 1] if j + 1 < len(self.radical_powers) \
                else np.zeros((0, self.dim), dtype=np.int16)
            if adapted:
                reps = []
                for i in range(self.dim):
                    if len(self.basis_words[i]) == j:
                        reps.append(self._unit_vec(i))
                        labels.append(self._label(i))
                layer = np.stack(reps) if reps else np.zeros((0, self.dim), dtype=np.int16)
            else:
                layer = self._layer_complement(upper, lower)
                for r in range(layer.shape[0]):
                    labels.append(f"deg{j}.{r}")
            layers.append(layer)
            degrees.extend([j] * layer.shape[0])
        stack = np.concatenate([l for l in layers if l.shape[0]], axis=0)
        offsets = np.concatenate([[0], np.cumsum([l.shape[0] for l in layers])]).astype(int)
        nb = stack.shape[0]
        table = np.zeros((nb, nb, nb), dtype=np.int16)
        for i in range(nb):
            di = degrees[i]
            for j in range(nb):
                dj = degrees[j]
                d = di + dj
                if d >= self.loewy_length or layers[d].shape[0] == 0:
                    continue
                prod = self._mul_vectors(stack[i], stack[j])
                coords = self._coords_in_layer(prod, d, layers)
                table[i, j, offsets[d]: offsets[d + 1]] = coords
        g = GradedAlgebra(f, degrees, labels, table, name=f"gr({self.name})")
        return g

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

    def _mul_vectors(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        f = self.field
        out = np.zeros(self.dim, dtype=np.int16)
        for i in np.nonzero(x)[0]:
            for j in np.nonzero(y)[0]:
                c = f.mul(int(x[i]), int(y[j]))
                out = f.add_mat(out[None, :], f.scale(int(c), self.mult[i, j][None, :]))[0]
        return out

    def _coords_in_layer(self, vec: np.ndarray, d: int, layers: list[np.ndarray]) -> np.ndarray:
        f = self.field
        layer = layers[d]
        lower = self.radical_powers[d + 1] if d + 1 < len(self.radical_powers) \
            else np.zeros((0, self.dim), dtype=np.int16)
        basis = np.concatenate([layer, lower], axis=0)
        sol = f.solve(basis.T, vec)
        if sol is None:
            raise PresentationError("product escaped its radical layer")
        return sol[: layer.shape[0]]
