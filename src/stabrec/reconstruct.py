"""Graded endomorphism algebra of the canonical filtered generator.

Every member S of a certified set has a projective cover P(S), and a minimal
projective padding Q makes the cover kernel om(S) + Q filtrable.  Pushing the
chain of that filtration into P(S) + Q gives a radical chain with top layer S,
and the direct sum of these filtered projectives over all members is the
generator.  Chain-respecting maps between filtered modules induce stable maps
between layers, degree by degree; collecting those for the generator yields a
graded algebra.  With the simple modules as members this recovers the graded
algebra of the radical filtration of the base algebra itself (gr_oracle), and
for a general certified set it computes the same invariant for the unknown
stably equivalent algebra presented by the set.
"""

from __future__ import annotations

import numpy as np

from stabrec.errors import PresentationError, Undecided
from stabrec.filtration import (Filtration, _empty_rows, _full_rows, _of_total,
                                _padded_parts, _sset_sig, _transport_rows,
                                is_filtrable, padding_search,
                                s_radical_filtration, verify_s_radical)
from stabrec.graded import GradedAlgebra, graded_iso_check  # noqa: F401
from stabrec.modules import (Module, ModuleMap, combine, combinations, cover_kernel,
                             direct_sum, factor_through_injection,
                             factor_through_surjection, flat_to_map, hom_flats,
                             module_isomorphic, submodule)
from stabrec.stable import check_simple_set, stable_hom


class FilteredModule:
    """A module together with a fixed radical chain over the member set.

    The wrapped Filtration is re-certified on construction; a chain that is
    merely a filtration (layers in add S but the stable-Hom conditions
    failing at some level) is rejected.
    """

    __slots__ = ("filt", "module", "certificate", "report")

    def __init__(self, filt: Filtration):
        cert = verify_s_radical(filt)
        if not cert.ok:
            raise PresentationError(
                "chain is not radical: " + "; ".join(cert.reasons))
        self.filt = filt
        self.module = filt.module
        self.certificate = cert
        self.report = None

    def __len__(self) -> int:
        return len(self.filt)

    @property
    def sset(self):
        return self.filt.sset

    def level(self, t: int):
        return self.filt.levels()[t]

    def layer(self, t: int) -> Module:
        return self.filt.levels()[t].layer


def filtered_maps(mf: FilteredModule, nf: FilteredModule,
                  shift: int = 0) -> list[ModuleMap]:
    """Basis of the maps g with g(M_j) contained in N_{j+shift} for all j.

    A row w lies in the row space of C iff it pairs to zero with ker C, so
    the condition on g is rows(M_j) G^T ker(N_{j+shift})^T = 0, G the global
    matrix of g: one product per level and factor, over the global matrices
    of the whole hom_flats basis at once."""
    m, n = mf.module, nf.module
    fld = m.algebra.field
    homs = hom_flats(m, n)
    r = len(homs)
    if not r:
        return []
    chain_m, chain_n = mf.filt.chain, nf.filt.chain
    gs = np.zeros((r, n.dim, m.dim), dtype=np.int16)
    pos = 0
    for v, (a, c) in enumerate(zip(n.dims, m.dims)):
        gs[:, n.offsets[v]: n.offsets[v + 1], m.offsets[v]: m.offsets[v + 1]] = \
            homs[:, pos: pos + a * c].reshape(r, a, c)
        pos += a * c
    anns = {}
    parts = [np.zeros((r, 0), dtype=np.int16)]
    for j, rows in enumerate(chain_m[:-1]):
        s = rows.shape[0]
        if not s:
            continue
        t = min(j + shift, len(chain_n) - 1)
        if t not in anns:
            anns[t] = fld.kernel(chain_n[t]).T
        k = anns[t]
        img = fld.matmul(gs.reshape(r * n.dim, m.dim), rows.T).reshape(r, n.dim, s)
        parts.append(fld.matmul(img.transpose(0, 2, 1).reshape(r * s, n.dim), k)
                     .reshape(r, s * k.shape[1]))
    coeffs = fld.kernel(np.concatenate(parts, axis=1).T)
    return [flat_to_map(m, n, vec) for vec in fld.matmul(coeffs, homs)]


def _induced_layer_map(f: ModuleMap, mf: FilteredModule, j: int,
                       nf: FilteredModule, t: int) -> ModuleMap:
    """Layer map M_j/M_{j+1} -> N_t/N_{t+1} induced by a filtered f."""
    lm = mf.level(j)
    ln = nf.level(t)
    rest = f.compose(lm.incl)
    core = factor_through_injection(ln.incl, rest)
    down = ln.qmap.compose(core)
    return factor_through_surjection(lm.qmap, down)


class GradedComponent:
    """One degree of a graded Hom space: the image of the filtered maps
    inside the stable Hom of the layers, with lifts for each basis class."""

    __slots__ = ("degree", "sh", "rows", "lifts", "trivial")

    def __init__(self, degree, sh, rows, lifts, trivial):
        self.degree = degree
        self.sh = sh
        self.rows = rows
        self.lifts = lifts
        self.trivial = trivial

    @property
    def dim(self) -> int:
        return self.rows.shape[0]


class GradedHom:
    """Degree-indexed Hom of the graded category between two fixed chains."""

    __slots__ = ("src", "tgt", "components")

    def __init__(self, src: FilteredModule, tgt: FilteredModule, components):
        self.src = src
        self.tgt = tgt
        self.components = components

    def dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.components)

    def element(self, degree: int, coords) -> "GradedElement":
        return GradedElement(self, degree, np.asarray(coords, dtype=np.int16))

    def basis_element(self, degree: int, index: int) -> "GradedElement":
        return GradedElement(self, degree,
                             self.components[degree].rows[index].copy())


class GradedElement:
    """A homogeneous element: a stable class in the image at its degree."""

    __slots__ = ("ghom", "degree", "coords")

    def __init__(self, ghom: GradedHom, degree: int, coords: np.ndarray):
        self.ghom = ghom
        self.degree = degree
        self.coords = coords

    def is_zero(self) -> bool:
        return not np.any(self.coords)

    def lift(self) -> ModuleMap:
        """A filtered map whose level-0 stable class is this element."""
        comp = self.ghom.components[self.degree]
        if not np.any(self.coords):
            return ModuleMap.zero(self.ghom.src.module, self.ghom.tgt.module)
        x = comp.sh.src.algebra.field.solve(comp.rows.T, self.coords)
        if x is None:
            raise PresentationError("element is outside the graded Hom image")
        return combine(comp.lifts, x)


def graded_hom(mf: FilteredModule, nf: FilteredModule) -> GradedHom:
    """All degrees of Hom in the graded category, with lifts.

    Degree i is the image of the maps g: M -> N_i with g(M_j) in N_{i+j},
    taken inside the stable Hom from the top layer of M to layer i of N.
    """
    if _sset_sig(mf.sset) != _sset_sig(nf.sset):
        raise PresentationError("filtered modules over different member sets")
    fld = mf.module.algebra.field
    comps = []
    top = mf.layer(0)
    for i in range(len(nf)):
        sh = stable_hom(top, nf.layer(i))
        fmaps = filtered_maps(mf, nf, shift=i)
        rows_all = (np.stack([sh.coords(_induced_layer_map(g, mf, 0, nf, i))
                              for g in fmaps])
                    if fmaps else np.zeros((0, sh.dim), dtype=np.int16))
        image = fld.row_space(rows_all)
        xs = fld.solve_matrix(rows_all.T, image.T)
        lifts = list(combinations(fmaps, xs.T)) if fmaps else []
        trivial = [combine(fmaps, c) for c in fld.kernel(rows_all.T)
                   if np.any(c)] if fmaps else []
        comps.append(GradedComponent(i, sh, image, lifts, trivial))
    return GradedHom(mf, nf, comps)


def graded_compose(f: GradedElement, g: GradedElement,
                   out: GradedHom | None = None) -> GradedElement:
    """Product: induce f's lift on level deg(g) and compose with g's class.

    The result is checked two ways: recomputing with a lift shifted by a
    class-trivial filtered map (independence of the lift), and against the
    level-0 class of the composite of actual lifts.
    """
    mf = g.ghom.tgt
    if f.ghom.src is not mf and f.ghom.src.module.key != mf.module.key:
        raise PresentationError("elements are not composable")
    nf, lf = f.ghom.tgt, g.ghom.src
    if out is None:
        out = graded_hom(lf, nf)
    d = f.degree + g.degree
    if d >= len(nf):
        # the target chain is exhausted; a filtered lift lands in zero
        return GradedElement(out, d, np.zeros(0, dtype=np.int16))
    ft = f.lift()
    sh_out = out.components[d].sh
    if f.is_zero() or g.is_zero():
        return GradedElement(out, d, np.zeros(sh_out.dim, dtype=np.int16))
    fbar = _induced_layer_map(ft, mf, g.degree, nf, d)
    gbar = g.ghom.components[g.degree].sh.rep(g.coords)
    coords = sh_out.coords(fbar.compose(gbar))
    trivial = f.ghom.components[f.degree].trivial
    if trivial:
        fbar2 = _induced_layer_map(ft.add(trivial[0]), mf, g.degree, nf, d)
        if not np.array_equal(coords, sh_out.coords(fbar2.compose(gbar))):
            raise PresentationError("composition depends on the choice of lift")
    gt = g.lift()
    direct = sh_out.coords(_induced_layer_map(ft.compose(gt), lf, 0, nf, d))
    if not np.array_equal(coords, direct):
        raise PresentationError("composite lift disagrees with the product")
    return GradedElement(out, d, coords)


# -- generator ---------------------------------------------------------------------

def _same_dim_alternatives(core: Module, sset, mv):
    """Other padding multiplicity vectors of the same total dimension."""
    alg = core.algebra
    pdims = [alg.projective(v).dim for v in range(alg.nvertices)]
    total = sum(c * d for c, d in zip(mv, pdims))
    out = []
    for cand in _of_total(pdims, [total] * len(pdims), total):
        if cand == tuple(mv):
            continue
        parts = _padded_parts(core, cand)
        padded = direct_sum(parts)[0] if len(parts) > 1 else core
        try:
            if is_filtrable(padded, sset) is not None:
                out.append(cand)
        except Undecided:
            pass
    return out


def generator_build(algebra, sset, *, padding_cap: int | None = None) -> FilteredModule:
    """The filtered generator: the sum over members S of P(S) + Q(S).

    Q(S) is a smallest projective padding making the cover kernel of S
    filtrable, found by increasing total dimension then least multiplicity
    vector; paddings of equal dimension that also work are recorded in the
    report.  Each block carries the chain of the padded cover kernel pushed
    up one step, whose new top layer is S; on a symmetric algebra the bottom
    term of each block is checked to be isomorphic to S itself.
    """
    sset = list(sset)
    srep = check_simple_set(algebra, sset)
    if not srep.ok:
        raise PresentationError(
            "member set fails the stable-Hom conditions: "
            + "; ".join(srep.violations))
    symmetric = algebra.symmetry().symmetric
    blocks = []
    infos = []
    for s in sset:
        core, incl, cover, _ = cover_kernel(s)
        if core.dim == 0:
            raise PresentationError(f"{s.name} is projective")
        _, mv, _ = padding_search(core, sset, padding_cap)
        parts = _padded_parts(core, mv)
        inner_total, _, dprojs = direct_sum(parts, name=f"om({s.name})+Q")
        inner = s_radical_filtration(inner_total, sset)
        top_parts = [cover] + parts[1:]
        total, einjs, _ = direct_sum(top_parts, name=f"P({s.name})+Q")
        inc = combine([einjs[0].compose(incl).compose(dprojs[0])]
                      + [einjs[t].compose(dprojs[t]) for t in range(1, len(parts))],
                      [1] * len(parts))
        chain = [_full_rows(total)]
        chain += [_transport_rows(inc, c) for c in inner.chain]
        block = FilteredModule(Filtration(total, sset, chain))
        if symmetric:
            bottom, _ = submodule(total, block.filt.chain[-2], name="bottom")
            if module_isomorphic(bottom, s) is None:
                raise PresentationError(
                    "bottom term of a block is not the member itself "
                    "on a symmetric algebra")
        blocks.append(block)
        infos.append({
            "member": s.name,
            "cover_dim": cover.dim,
            "padding": tuple(mv),
            "padding_alternatives": _same_dim_alternatives(core, sset, mv),
            "levels": len(block),
        })
    out = filtered_direct_sum(blocks) if len(blocks) > 1 else blocks[0]
    out.report = {"blocks": infos, "symmetric": symmetric}
    return out


def filtered_direct_sum(fms: list[FilteredModule]) -> FilteredModule:
    """Direct sum of filtered modules, levelwise; short chains end at zero."""
    if not fms:
        raise PresentationError("empty sum of filtered modules")
    keys = _sset_sig(fms[0].sset)
    if any(_sset_sig(f.sset) != keys for f in fms):
        raise PresentationError("filtered modules over different member sets")
    fld = fms[0].module.algebra.field
    total, injs, _ = direct_sum([f.module for f in fms])
    rmax = max(len(f) for f in fms)
    chain = []
    for t in range(rmax + 1):
        parts = []
        for f, inj in zip(fms, injs):
            c = f.filt.chain
            rows = c[min(t, len(c) - 1)]
            if rows.shape[0]:
                parts.append(_transport_rows(inj, rows))
        chain.append(fld.row_space(np.concatenate(parts)) if parts
                     else _empty_rows(total))
    return FilteredModule(Filtration(total, fms[0].sset, chain))


def end_g(mf: FilteredModule, *, name: str | None = None) -> GradedAlgebra:
    """The graded endomorphism algebra of a filtered module.

    Basis: per degree, the canonical basis of the graded Hom image; the
    resulting structure constants are verified (grading, associativity,
    unit) before returning.
    """
    fld = mf.module.algebra.field
    gh = graded_hom(mf, mf)
    index = [(d, b) for d, comp in enumerate(gh.components)
             for b in range(comp.dim)]
    degrees = [d for d, _ in index]
    labels = [f"d{d}.{b}" for d, b in index]
    offsets = {}
    pos = 0
    for d, comp in enumerate(gh.components):
        offsets[d] = pos
        pos += comp.dim
    n = len(index)
    table = np.zeros((n, n, n), dtype=np.int16)
    for a, (da, ba) in enumerate(index):
        fa = gh.basis_element(da, ba)
        for b, (db, bb) in enumerate(index):
            gb = gh.basis_element(db, bb)
            prod = graded_compose(fa, gb, out=gh)
            if prod.degree >= len(gh.components) or prod.is_zero():
                continue
            comp = gh.components[prod.degree]
            x = fld.solve(comp.rows.T, prod.coords)
            if x is None:
                raise PresentationError(
                    "product left the graded Hom image")
            table[a, b, offsets[prod.degree]: offsets[prod.degree] + comp.dim] = x
    out = GradedAlgebra(fld, degrees, labels, table,
                        name=name or f"EndG({mf.module.name})")
    out.verify()
    return out
