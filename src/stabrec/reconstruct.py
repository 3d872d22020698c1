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

graded_hom gives each degree's image as echelon rows, with one filtered lift
per row; end_g reads every product in one pass over that basis, inducing
each lift on a layer once and composing it with the class representative
of every basis element of that layer's degree.
"""

from __future__ import annotations

import numpy as np

from stabrec.errors import PresentationError, Undecided
from stabrec.filtration import (Filtration, _nested_levels, _of_total, _padded_parts,
                                _sset_sig, is_filtrable, padding_search,
                                s_radical_filtration, verify_s_radical)
from stabrec.graded import GradedAlgebra
from stabrec.modules import (Module, ModuleMap, combine, combinations, cover_kernel,
                             direct_sum, factor_through_injection,
                             factor_through_surjection, flat_to_map, hom_flats, image,
                             module_isomorphic, sum_module)
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
    for j, rows in enumerate(chain_m[:-1]):  # nonzero: chains strictly drop
        s = rows.shape[0]
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
    inside the stable Hom of the layers, as echelon rows, with a filtered
    lift of each row and one filtered map of zero class (None if every
    nonzero filtered map has a nonzero class)."""

    __slots__ = ("sh", "rows", "lifts", "trivial")

    def __init__(self, sh, rows, lifts, trivial):
        self.sh = sh
        self.rows = rows
        self.lifts = lifts
        self.trivial = trivial

    @property
    def dim(self) -> int:
        return self.rows.shape[0]


def graded_hom(mf: FilteredModule, nf: FilteredModule) -> list[GradedComponent]:
    """All degrees of Hom in the graded category, with lifts, degree i at
    index i.

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
        if not fmaps:
            comps.append(GradedComponent(sh, np.zeros((0, sh.dim), dtype=np.int16), [], None))
            continue
        rows_all = np.stack([sh.coords(_induced_layer_map(g, mf, 0, nf, i)) for g in fmaps])
        image = fld.row_space(rows_all)
        xs = fld.solve_matrix(rows_all.T, image.T)
        zero = fld.kernel(rows_all.T)
        comps.append(GradedComponent(sh, image, list(combinations(fmaps, xs.T)),
                                     combine(fmaps, zero[0]) if zero.shape[0] else None))
    return comps


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
        padded = sum_module(parts) if len(parts) > 1 else core
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
        # the terms: P(S) + Q, then the greedy levels of om(S) + Q inside it, then 0
        maps = [ModuleMap.identity(total), *(inc.compose(lv.incl) for lv in inner._levels),
                ModuleMap.zero(total, total)]
        terms = [image(h, name=f"M_{i}") for i, h in enumerate(maps)]
        block = FilteredModule(Filtration(total, sset, levels=_nested_levels(terms)))
        if symmetric and module_isomorphic(block.level(-1).sub, s) is None:
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
    total, injs, _ = direct_sum([f.module for f in fms])
    terms = []
    for t in range(max(len(f) for f in fms) + 1):
        # term t: the image of the blocks' level-t submodules, block-diagonally
        lvs = [(f.level(t), inj) for f, inj in zip(fms, injs) if t < len(f)]
        if lvs:
            projs = direct_sum([lv.sub for lv, _ in lvs])[2]
            h = combine([inj.compose(lv.incl).compose(pr) for (lv, inj), pr in zip(lvs, projs)],
                        [1] * len(lvs))
        else:
            h = ModuleMap.zero(total, total)
        terms.append(image(h, name=f"M_{t}"))
    return FilteredModule(Filtration(total, fms[0].sset, levels=_nested_levels(terms)))


def end_g(mf: FilteredModule, *, name: str | None = None) -> GradedAlgebra:
    """The graded endomorphism algebra of a filtered module.

    Basis: per degree, the canonical basis of the graded Hom image.  The
    product of basis elements a (degree da) and b (degree db) is the class
    of fbar g at degree da + db, where g represents b's class and fbar is
    the map that a's lift f induces from layer db to layer da + db; fbar is
    built once per a and db.  Each product is checked two ways: against
    the same product with f shifted by a filtered map of zero class
    (independence of the lift), and against the level-0 class of the
    composite of the two lifts.  The structure constants are verified
    (grading, associativity, unit) before returning.
    """
    fld = mf.module.algebra.field
    comps = graded_hom(mf, mf)
    index = [(d, b) for d, comp in enumerate(comps) for b in range(comp.dim)]
    offsets = np.cumsum([0] + [comp.dim for comp in comps]).tolist()
    reps = [comps[d].sh.rep(comps[d].rows[b]) for d, b in index]
    n = len(index)
    table = np.zeros((n, n, n), dtype=np.int16)
    for a, (da, ba) in enumerate(index):
        ft = comps[da].lifts[ba]
        shifted = None if comps[da].trivial is None else ft.add(comps[da].trivial)
        for db in range(len(comps) - da):
            d = da + db
            target = comps[d]
            fbar = _induced_layer_map(ft, mf, db, mf, d)
            fbar2 = None if shifted is None else _induced_layer_map(shifted, mf, db, mf, d)
            for bb, gt in enumerate(comps[db].lifts):
                b = offsets[db] + bb
                coords = target.sh.coords(fbar.compose(reps[b]))
                if fbar2 is not None and not np.array_equal(
                        coords, target.sh.coords(fbar2.compose(reps[b]))):
                    raise PresentationError("composition depends on the choice of lift")
                direct = target.sh.coords(_induced_layer_map(ft.compose(gt), mf, 0, mf, d))
                if not np.array_equal(coords, direct):
                    raise PresentationError("composite lift disagrees with the product")
                if not np.any(coords):
                    continue
                x = fld.solve(target.rows.T, coords)
                if x is None:
                    raise PresentationError("product left the graded Hom image")
                table[a, b, offsets[d]: offsets[d + 1]] = x
    out = GradedAlgebra(fld, [d for d, _ in index], [f"d{d}.{b}" for d, b in index],
                        table, name=name or f"EndG({mf.module.name})")
    out.verify()
    return out
