"""Filtrations with layers in add(S) and the S-radical filtration calculus.

A filtration is its levels: per level the submodule M_i, its inclusion, a
layer and a surjection from M_i onto it with kernel M_{i+1}.  A search
builds the levels from the sums X of S-copies and the surjections f: M_i ->>
X that it found.  Any other chain (a loaded file, reconstruct's generator)
gives its terms M_i with their inclusions, and `_nested_levels` builds each
layer as the quotient M_i / M_{i+1}, refusing terms that are not nested;
such layers are decomposed and matched against S when they are counted.
The chain of echelon row bases is read off the levels.  Elements of a Hom
space cross function boundaries as flat rows (the `ModuleMap.flat` layout);
a map is built only where blocks are composed, factored or inverted.
"""

from __future__ import annotations

import copy
import itertools
import math

import numpy as np

from .errors import (
    Inconclusive,
    NoSurjectionInCoset,
    NotFiltrable,
    PresentationError,
    Undecided,
)
from .modules import (
    Module,
    ModuleMap,
    _quot_from_spaces,
    _sub_from_spaces,
    _sum2,
    cokernel,
    combination_flats,
    combine,
    compose_flats,
    decompose,
    direct_sum,
    extend_along_injection,
    factor_through_injection,
    flat_to_map,
    hom_flats,
    injective_hull,
    is_projective,
    kernel,
    module_isomorphic,
    radical_submodule,
    read_only,
    submodule,
    sum_module,
    zero_module,
)
from .stable import stable_hom, stably_isomorphic


# -- row-space plumbing --------------------------------------------------------

def _transport_rows(fmap: ModuleMap, rows: np.ndarray) -> np.ndarray:
    """Row space of the image of a subspace under a map, in target coords."""
    fld = fmap.src.algebra.field
    if rows.shape[0] == 0:
        return np.zeros((0, fmap.tgt.dim), dtype=np.int16)
    g = fmap.global_matrix()
    return fld.row_space(fld.matmul(rows, g.T))


def _sset_sig(sset) -> tuple:
    return tuple(s.key for s in sset)


# -- filtration values -----------------------------------------------------------

class _Level:
    """Level i of a filtration: the submodule M_i with its inclusion, a
    layer with a surjection qmap: M_i ->> layer with kernel M_{i+1}, and
    the layer's multiplicity vector over S (None until `levels` counts it).
    A search's layer is X = sum of S_j^{m_j} and qmap its surjection f; for
    a chain given as its terms they are the quotient M_i / M_{i+1}.
    Level 0 is the module (or an equal-key copy) with an identity inclusion."""

    __slots__ = ("sub", "incl", "layer", "qmap", "mults")

    def __init__(self, sub, incl, layer, qmap, mults):
        self.sub = sub
        self.incl = incl
        self.layer = layer
        self.qmap = qmap
        self.mults = mults


def _nested_levels(terms) -> list[_Level]:
    """The levels of a chain given as its terms (M_i, M_i -> M), from M_0 =
    M down to 0: layer i is the cokernel of M_{i+1} -> M_i, its count left
    to `levels`.  PresentationError where a term is not inside the one
    above."""
    levels = []
    for i, ((sub, incl), (_, below)) in enumerate(zip(terms, terms[1:])):
        try:
            inner = factor_through_injection(incl, below)
        except PresentationError:
            raise PresentationError("rows do not lie in the submodule") from None
        levels.append(_Level(sub, incl, *cokernel(inner, name=f"L_{i}"), None))
    return levels


def _search_level(sset, sub, incl, x, f, mv) -> _Level:
    """A search's level f: sub ->> X.  f shows the layer isomorphic to X, so
    by Krull-Schmidt mv counts it when S is basic (`_is_basic`); otherwise
    X is decomposed when the levels are read."""
    return _Level(sub, incl, x, f, mv if _is_basic(sub.algebra, sset) else None)


def _moved_levels(levels, incl: ModuleMap) -> list[_Level]:
    """levels of a filtration of incl's source, as levels of its target."""
    return [_Level(lv.sub, incl.compose(lv.incl), lv.layer, lv.qmap, lv.mults)
            for lv in levels]


class Filtration:
    """Chain of arrow-stable subspaces of module with add(S) layers, held as
    its levels.

    A search builds a filtration from its levels (`levels=`): each step
    takes a surjection f: M_i ->> X = sum of S_j^{m_j} with kernel M_{i+1},
    so every level is a submodule by construction and its layer is X.  The
    chain is read off the levels, the echelon row basis of each inclusion's
    image, then zero; the levels are not checked again.  A chain given as
    rows (a loaded file) is reduced to echelon row bases and checked once,
    where it enters: each term M_i is built as the submodule its rows span,
    which refuses rows that are not a submodule, and `_nested_levels` builds
    the layers, which refuses a term not nested in the one above;
    reconstruct hands its generator's levels from the same builder.  Every
    chain must start at the module, end at zero and strictly drop.

    A filtration also keeps its S-radical certificate once
    `verify_s_radical` has computed it.  The greedy filtrations are
    memoised (`s_radical_filtration`): a filtration of an equal-key module
    shares the kept one's levels, read-only chain arrays and certificate."""

    __slots__ = ("module", "sset", "chain", "_levels", "_cert")

    def __init__(self, module: Module, sset, chain=None, levels=None):
        self.module = module
        self.sset = list(sset)
        fld = module.algebra.field
        if levels is None:
            self.chain = [fld.row_space(np.asarray(r, dtype=np.int16)) for r in chain]
        else:
            self.chain = [*(fld.row_space(lv.incl.global_matrix().T) for lv in levels),
                          np.zeros((0, module.dim), dtype=np.int16)]
        if not self.chain or self.chain[0].shape[0] != module.dim:
            raise PresentationError("filtration must start at the full module")
        if self.chain[-1].shape[0] != 0:
            raise PresentationError("filtration must end at zero")
        if any(lo.shape[0] >= hi.shape[0] for hi, lo in zip(self.chain, self.chain[1:])):
            raise PresentationError("filtration steps must strictly drop")
        self._levels = levels if levels is not None else _nested_levels(
            [submodule(module, rows, name=f"M_{i}") for i, rows in enumerate(self.chain)])
        self._cert = []

    def __len__(self) -> int:
        return len(self.chain) - 1

    def levels(self) -> list[_Level]:
        """The levels, each multiplicity vector not known from a search
        counted by decomposing its layer (NotFiltrable if a summand is in
        no add(S))."""
        for lv in self._levels:
            if lv.mults is None:
                lv.mults = _layer_mults(lv.layer, self.sset)
        return self._levels

    def mult_sequence(self) -> tuple[tuple[int, ...], ...]:
        """Layer multiplicity vectors, top first."""
        return tuple(lv.mults for lv in self.levels())

    def layer_multiset(self) -> tuple[tuple[int, ...], ...]:
        """Multiset (sorted tuple) of layer multiplicity vectors."""
        return tuple(sorted(self.mult_sequence()))


def _is_basic(algebra, sset) -> bool:
    """Whether every member of S is indecomposable and no two are
    isomorphic, memoised per set.  A duplicated member, or one with a
    projective summand, splits a layer's counts differently from the
    search's X = sum of S_j^{m_j} (or has no count at all)."""
    def build():
        if any(len(decompose(s)) != 1 for s in sset):
            return False
        return all(module_isomorphic(a, b) is None
                   for a, b in itertools.combinations(sset, 2))
    return algebra.cached(("basic set", _sset_sig(sset)), build)


def _layer_mults(layer: Module, sset) -> tuple[int, ...]:
    """Multiplicities of the members among the summands of layer, each
    summand counted for the first member it is isomorphic to."""
    if layer.dim == 0:
        raise PresentationError("zero layer in a filtration")
    mults = [0] * len(sset)
    for p in decompose(layer):
        si = next((si for si, s in enumerate(sset) if p.module.dim == s.dim
                   and module_isomorphic(p.module, s) is not None), None)
        if si is None:
            raise NotFiltrable(f"layer summand of dim {p.module.dim} is not in add(S)")
        mults[si] += 1
    return tuple(mults)


# -- canonical top layer ---------------------------------------------------------

def canonical_top(m: Module, sset):
    """X = sum of S-copies sized by stable Hom (`_copies`), with the
    canonical map g: its component onto copy j of S_i is rep j of stable
    Hom(m, S_i), and g's flat row the sum of their composites with the copy
    injections."""
    shs = [stable_hom(m, s) for s in sset]
    mults = tuple(sh.dim for sh in shs)
    x, injs, layout = _copies(sset, mults)
    if not layout:
        return x, ModuleMap.zero(m, x), mults
    parts = np.concatenate([compose_flats(shs[si].reps[j:j + 1], m, sset[si], left=inj)
                            for inj, (si, j) in zip(injs, layout)])
    ones = np.ones((1, len(parts)), dtype=np.int16)
    return x, flat_to_map(m, x, m.algebra.field.matmul(ones, parts)[0]), mults


def _complete_top(fld, phi, kv, nv):
    """psi vanishing on the rows kv, with columns in the row space nv, and
    phi + psi onto; None if there is none.

    On the unit vectors off the pivots of kv (a complement of it), in order,
    phi is kept where it enlarges the image so far, else the first vector of
    nv that does is added.  This reaches all of T exactly when some psi
    exists: when phi(M) + N = T and dim T - dim phi(K) <= codim K."""
    kpiv = [int(np.flatnonzero(r)[0]) for r in kv]
    comp = [c for c in range(phi.shape[1]) if c not in kpiv]
    span = fld.row_space(fld.matmul(kv, phi.T))
    psi = np.zeros_like(phi)
    for c in comp:
        for n in [psi[:, c], *nv]:
            grown = fld.row_space(np.concatenate([span, fld.add(phi[:, c], n)[None]]))
            if grown.shape[0] > span.shape[0]:
                psi[:, c], span = n, grown
                break
    if span.shape[0] < phi.shape[0]:
        return None
    psi[:, kpiv] = fld.neg(fld.matmul(psi[:, comp], kv[:, comp].T))
    return psi


def lift_to_surjection(g: ModuleMap, dirs: np.ndarray) -> ModuleMap:
    """A surjection in the coset g + span(dirs), g itself when g is onto;
    else raise NoSurjectionInCoset, a certified negative.  dirs are flat
    rows of Hom(g.src, g.tgt).

    By Nakayama a map onto Y is onto iff its top, into T = Y / rad Y, is.
    The directions' tops must be all maps that vanish on K_v and land in N_v
    at each vertex v (their common kernel and the span of their images): a
    dimension count checks it, else Inconclusive.  The rest is linear
    algebra, vertex by vertex (`_complete_top`)."""
    if g.is_surjective_map():
        return g
    if not len(dirs):
        raise NoSurjectionInCoset(f"no surjection onto {g.tgt.name} in the coset")
    fld = g.src.algebra.field
    top = cokernel(radical_submodule(g.tgt)[1])[1]
    flats = compose_flats(dirs, g.src, g.tgt, left=top)
    psis, count, pos, n = [], 0, 0, len(dirs)
    for phi in top.compose(g).blocks:
        t, c = phi.shape
        # every direction's top block at this vertex
        maps = flats[:, pos: pos + t * c].reshape(n, t, c)
        pos += t * c
        kv = fld.kernel(maps.reshape(n * t, c))
        nv = fld.row_space(maps.transpose(0, 2, 1).reshape(n * c, t))
        count += (c - kv.shape[0]) * nv.shape[0]
        psis.append(_complete_top(fld, phi, kv, nv))
    if fld.rank(flats) != count:
        raise Inconclusive("direction tops are not all maps off K into N")
    if any(p is None for p in psis):
        raise NoSurjectionInCoset(f"no surjection onto {g.tgt.name} in the coset")
    c = fld.solve(flats.T, np.concatenate([p.reshape(-1) for p in psis]))
    f = None if c is None else g.add(flat_to_map(g.src, g.tgt, fld.matmul(c[None], dirs)[0]))
    if f is None or not f.is_surjective_map():
        raise PresentationError("top completion did not lift to a surjection")
    return f


def surjective_representative(g: ModuleMap) -> ModuleMap:
    """A surjection stably equal to g, or raise NoSurjectionInCoset.

    By Nakayama a projective map M -> X reaches top X only through the
    projective summands of M: the tops of the projective maps are all maps
    off the tops of the other summands, as lift_to_surjection needs."""
    if g.tgt.dim == 0:
        return g
    return lift_to_surjection(g, stable_hom(g.src, g.tgt).proj)


def top_layer(m: Module, sset):
    """(X, f, K, incl, mults): canonical top quotient and its kernel.

    X is the sum of S-copies with multiplicity dim stable Hom(m, S); f is a
    surjective lift of the canonical stable map.
    """
    x, g, mults = canonical_top(m, sset)
    if x.dim == 0:
        if m.dim:
            raise NoSurjectionInCoset(
                "all stable Hom(m, S) vanish on a nonzero module")
        return x, g, m, ModuleMap.identity(m), mults
    f = surjective_representative(g)
    k, incl = kernel(f, name=f"radS({m.name})")
    return x, f, k, incl, mults


def s_radical_filtration(m: Module, sset, seed: int = 0) -> Filtration:
    """Greedy S-radical filtration; complete for filtrable modules with no
    projective remainder.  `seed` is ignored; it is kept because the
    benchmark workloads pass it.

    The filtration depends on (m.key, S) alone, so it is built once per
    pair and kept in the algebra memo with read-only chain arrays: a call
    with the kept module gets the kept Filtration, a call with an
    equal-key module a Filtration bound to it that shares the kept levels,
    chain and certificate.  A stall is kept as its message and raised
    again as NotFiltrable; any other error is raised and not kept."""
    kept = m.algebra.cached(("s-radical", _sset_sig(sset), m.key),
                            lambda: _greedy(m, sset))
    if isinstance(kept, str):
        raise NotFiltrable(kept)
    if kept.module is m:
        return kept
    filt = copy.copy(kept)
    filt.module, filt.sset = m, list(sset)
    return filt


def _greedy(m: Module, sset) -> Filtration | str:
    """The greedy filtration of m, its chain read-only, or the message of
    the level where it stalls: each level is a canonical top layer
    (`top_layer`), and its kernel the next level."""
    levels, cur, to_m = [], m, ModuleMap.identity(m)
    while cur.dim:
        try:
            x, f, k, incl, mv = top_layer(cur, sset)
        except NoSurjectionInCoset as e:
            return f"greedy filtration stalled: {e}"
        levels.append(_search_level(sset, cur, to_m, x, f, mv))
        cur, to_m = k, to_m.compose(incl)
    filt = Filtration(m, sset, levels=levels)
    for rows in filt.chain:
        rows.flags.writeable = False
    return filt


# -- filtrability ---------------------------------------------------------------

class _Budget:
    __slots__ = ("maps", "hit")

    def __init__(self, maps: int):
        self.maps = maps
        self.hit = False

    def spend(self, n: int = 1) -> bool:
        if self.maps < n:
            self.hit = True
            return False
        self.maps -= n
        return True


def _dims_feasible(dims, sset) -> bool:
    """Necessary condition for filtrability: the vertex dimension vector
    must be a nonnegative integer combination of the member vectors."""
    svecs = [s.dims for s in sset if s.dim]  # a zero member adds nothing
    memo: dict = {}

    def rec(t, i):
        if not any(t):
            return True
        if i == len(svecs):
            return False
        key = (t, i)
        if key in memo:
            return memo[key]
        sv = svecs[i]
        b = min((tc // sc) for tc, sc in zip(t, sv) if sc)
        ok = False
        for y in range(b, -1, -1):
            rest = tuple(tc - y * sc for tc, sc in zip(t, sv))
            if rec(rest, i + 1):
                ok = True
                break
        memo[key] = ok
        return ok

    return rec(tuple(dims), 0)


def _of_total(weights, bounds, total):
    """The vectors 0 <= c <= bounds with sum c_i w_i = total, lazily, in
    lexicographic order; a zero weight forces its coordinate to 0."""
    if not weights:
        if total == 0:
            yield ()
        return
    w, rest_w, rest_b = weights[0], weights[1:], bounds[1:]
    for c in range(min(bounds[0], total // w) + 1 if w else 1):
        for tail in _of_total(rest_w, rest_b, total - c * w):
            yield (c, *tail)


def _mult_candidates(m: Module, sset):
    """Multiplicity vectors for potential top layers, pruned by vertex
    dimensions, by total dimension then lexicographically."""
    weights = [s.dim for s in sset]
    bounds = [min([m.dims[v] // d for v, d in enumerate(s.dims) if d], default=0)
              for s in sset]  # a zero member is in no layer
    for total in range(1, m.dim + 1):
        for mv in _of_total(weights, bounds, total):
            if all(sum(c * s.dims[v] for c, s in zip(mv, sset)) <= d
                   for v, d in enumerate(m.dims)):
                yield mv


def _gaussian_binomial(h: int, r: int, q: int) -> int:
    """[h, r]_q, the number of r-dimensional subspaces of GF(q)^h."""
    if r > h:
        return 0
    num = den = 1
    for j in range(r):
        num *= q ** (h - j) - 1
        den *= q ** (j + 1) - 1
    return num // den


def _echelon_rows(r: int, h: int, q: int):
    """The r x h reduced-echelon matrices of rank r over GF(q), flattened
    row by row, by pivot columns and then free entries in lexicographic
    order: one per r-dimensional subspace of GF(q)^h."""
    for pivots in itertools.combinations(range(h), r):
        base = [0] * (r * h)
        slots = []
        for i, p in enumerate(pivots):
            base[i * h + p] = 1
            slots += [i * h + j for j in range(p + 1, h) if j not in pivots]
        for vals in itertools.product(range(q), repeat=len(slots)):
            for s, v in zip(slots, vals):
                base[s] = v
            yield tuple(base)


def _block_rows(blocks, q: int):
    """Concatenations of one _echelon_rows(r, h, q) per (r, h) in blocks,
    generated lazily, the first block varying slowest."""
    if not blocks:
        yield ()
        return
    for head in _echelon_rows(*blocks[0], q):
        for tail in _block_rows(blocks[1:], q):
            yield head + tail


def _copies(sset, mv):
    """(X, injections, layout): X = sum of S_i^{mv[i]}, copies grouped by
    member, with injs[c] the injection of copy c and layout[c] = (member
    index, copy number).  Memoised per (S, mv), with the arrays of X and its
    injections read-only."""
    def build():
        layout = tuple((si, c) for si, r in enumerate(mv) for c in range(r))
        if layout:
            x, injs, _ = direct_sum([sset[si] for si, _ in layout], name="X")
        else:
            x, injs = zero_module(sset[0].algebra), []
        read_only(x, *injs)
        return x, tuple(injs), layout
    return sset[0].algebra.cached(("X", _sset_sig(sset), tuple(mv)), build)


def _orbit_count(m: Module, sset, mv) -> int:
    """prod_i [h_i, mv[i]]_q, h_i = dim Hom(m, S_i): the orbits
    `_surjections_onto` walks, 0 when some mv[i] > h_i."""
    q = m.algebra.field.q
    return math.prod(_gaussian_binomial(len(hom_flats(m, s)), r, q)
                     for s, r in zip(sset, mv) if r)


def _surjections_onto(m: Module, sset, mv, budget: _Budget):
    """(X, vec, forms) for one surjection f: m ->> X = sum of S_i^{mv[i]}
    per orbit of prod GL_{mv[i]}(q) on the maps whose coefficient blocks
    have full row rank, spending one unit of budget per orbit: vec is f's
    flat row (`flat_to_map(m, X, vec)` is f) and forms the (rref, pivots)
    of its vertex blocks with their columns reversed, which `rref_kernel`
    reads their kernels from.

    Only ker f is used, and ker(g f) = ker f for every automorphism g of X.
    The component of f onto the copies of S_i is an mv[i] x h_i block of
    coefficients over the basis of Hom(m, S_i), of dimension h_i; f is onto
    only if every block has full row rank (else some g in GL_{mv[i]} zeroes
    a copy), and each orbit of such blocks holds one reduced-echelon block.
    So the [h_i, mv[i]]_q products of echelon blocks reach every kernel
    (`_orbit_count` of them).  Some mv[i] > h_i leaves no surjection:
    nothing is yielded and the budget is untouched (a certified absence).
    More orbits than the maps left is a refusal: budget.hit is set and
    nothing is yielded.  `_top_kernels` decides some X before walking them
    (dim X against codim K_all), so it calls this only where it must walk.

    The candidates' flat rows come a chunk at a time from one field product
    of their coefficient rows with the composites inj_c h
    (`combination_flats`), which are stacked once per call (one
    `compose_flats` per copy c); X and its injections are memoised per
    (S, mv) (`_copies`).  Each vertex
    block of a candidate is reduced once, column-reversed, in vertex order,
    and the candidate is dropped at the first block short of full row rank
    (f is onto exactly when every block is); no map is built here."""
    fld = m.algebra.field
    homs = {si: hom_flats(m, sset[si]) for si, r in enumerate(mv) if r}
    if any(mv[si] > len(h) for si, h in homs.items()):
        return
    if _orbit_count(m, sset, mv) > budget.maps:
        budget.hit = True
        return
    x, injs, layout = _copies(sset, mv)
    stacked = np.concatenate([compose_flats(homs[si], m, sset[si], left=inj)
                              for inj, (si, _) in zip(injs, layout)])
    cuts = list(itertools.accumulate((a * c for a, c in zip(x.dims, m.dims)), initial=0))
    shapes = list(zip(cuts, cuts[1:], x.dims, m.dims))
    rows = _block_rows([(mv[si], len(h)) for si, h in homs.items()], fld.q)
    for vec in combination_flats(fld, stacked, rows):
        if not budget.spend():
            return
        forms = []
        for lo, hi, a, c in shapes:
            block = vec[lo:hi].reshape(a, c)
            form = fld.rref(block[:, ::-1]) if a else (block, ())
            if len(form[1]) < a:
                break
            forms.append(form)
        else:
            yield x, vec, forms


def _common_kernel(m: Module, sset) -> list[np.ndarray]:
    """Per vertex, the echelon basis of K_all, the common kernel of every
    map m -> S_i: one `Field.kernel` per vertex of the stacked vertex
    blocks of every `hom_flats` basis element."""
    fld = m.algebra.field
    homs = [hom_flats(m, s) for s in sset]
    cuts, spaces = [0] * len(sset), []
    for v, c in enumerate(m.dims):
        blocks = []
        for i, (s, h) in enumerate(zip(sset, homs)):
            t = s.dims[v]
            blocks.append(h[:, cuts[i]: cuts[i] + t * c].reshape(len(h) * t, c))
            cuts[i] += t * c
        spaces.append(fld.kernel(np.concatenate(blocks)))
    return spaces


def _top_kernels(m: Module, sset, budget: _Budget, keep=None):
    """(mv, X, vec, spaces) for the top quotients f: m ->> X = sum of
    S_i^{mv[i]}, by `_mult_candidates` then `_surjections_onto`, once per
    kernel K of m, vec being f's flat row: both searches test f only
    through K; f is built only for the enumeration's stable test and for a
    level a search keeps (X its layer, mv its count).  spaces are the
    per-vertex echelon kernels of f's blocks: canonical, so they identify
    K.  Callers build K from them (`_sub_from_spaces`) only for the
    kernels they go on to test; the enumeration first drops those failing
    its stable test.  keep, if given, is a predicate on mv; an mv it
    refuses is skipped and spends nothing.

    Every map m -> X is a sum of maps m -> S_i, so its kernel contains
    K_all, their common kernel (`_common_kernel`); let c = codim K_all.
    The candidates come by dim X, and an X with dim X > c has no
    surjection: that and every later X is a certified absence that spends
    nothing.  At dim X = c the only possible kernel is K_all, and m ->> X
    exists exactly when m / K_all is isomorphic to X.  If the orbits fit
    in the budget left they are walked up to the first surjection, which
    is then the one an unbounded walk yields first; otherwise (where the
    walk would be refused) `module_isomorphic` decides: None is a
    certified absence, an iso g gives f = g (m ->> m / K_all) for one unit.
    Once K_all is yielded, no later X of dimension c is looked at.  Only X
    with dim X < c are walked in full.

    A walked candidate is known by the echelon forms `_surjections_onto`
    reduced its column-reversed blocks to: each block's row space is the
    annihilator of its kernel, and reversing the columns of every block
    alike keeps the form canonical, so equal forms are equal kernels, and
    the other way round.  Only for a kernel not seen before are spaces read
    off those forms, with no further reduction (`Field.rref_kernel`)."""
    fld = m.algebra.field
    k_all = _common_kernel(m, sset)
    c = m.dim - sum(len(k) for k in k_all)
    seen, top_done = set(), False
    for mv in _mult_candidates(m, sset):
        dim_x = sum(r * s.dim for r, s in zip(mv, sset))
        if dim_x > c:
            return
        if (top_done and dim_x == c) or (keep is not None and not keep(mv)):
            continue
        if dim_x == c:
            if _orbit_count(m, sset, mv) <= budget.maps:
                top = next(((x, vec) for x, vec, _ in _surjections_onto(m, sset, mv, budget)),
                           None)
            else:
                top = _onto_through_common_kernel(m, sset, mv, k_all)
                if top is not None and not budget.spend():
                    top = None
            if top is not None:
                top_done = True
                yield mv, *top, k_all
            continue
        for x, vec, forms in _surjections_onto(m, sset, mv, budget):
            key = tuple(r.tobytes() for r, _ in forms)
            if key not in seen:
                seen.add(key)
                spaces = [fld.rref_kernel(r, piv) for r, piv in forms]
                yield mv, x, vec, spaces


def _onto_through_common_kernel(m: Module, sset, mv, k_all):
    """(X, vec) for a surjection f: m ->> X = sum of S_i^{mv[i]} with
    kernel k_all, f = g (m ->> m / k_all) for an iso g, or None when
    m / k_all is not isomorphic to X."""
    q, proj = _quot_from_spaces(m, k_all, "top")
    x = _copies(sset, mv)[0]
    iso = module_isomorphic(q, x)
    return None if iso is None else (x, iso.compose(proj).flat())


def _projective_splits(m: Module):
    """(rest, part) for every nonempty group `part` of projective summands
    of m, `rest` the other summands: by size of part, then in
    itertools.combinations order."""
    pieces = decompose(m)
    proj_idx = [i for i, p in enumerate(pieces) if is_projective(p.module)]
    for size in range(1, len(proj_idx) + 1):
        for subset in itertools.combinations(proj_idx, size):
            yield ([p for i, p in enumerate(pieces) if i not in subset],
                   [pieces[i] for i in subset])


def _sum_of(mods, algebra) -> Module:
    return sum_module(mods) if mods else zero_module(algebra)


def _filtrable(m: Module, sset, budget, cache) -> Filtration | None:
    key = m.key
    if key in cache:
        return cache[key]
    if m.dim == 0:
        filt = Filtration(m, sset, levels=[])
        cache[key] = filt
        return filt
    if not _dims_feasible(m.dims, sset):
        cache[key] = None
        return None

    try:
        filt = s_radical_filtration(m, sset)
        cache[key] = filt
        return filt
    except NotFiltrable:
        pass

    for rest, part in _projective_splits(m):
        if not rest:
            continue  # fully projective: the direct search handles it
        merged = _split_and_filter(m, sset, rest, part, budget, cache)
        if merged is not None:
            cache[key] = merged
            return merged

    filt = _search_filtration(m, sset, budget, cache)
    if filt is not None or not budget.hit:
        cache[key] = filt
    return filt


def _split_and_filter(m, sset, rest, part, budget, cache):
    """Filtration of m from filtrations of complementary summand groups."""
    rest_mod, _, rest_prs = direct_sum([p.module for p in rest])
    part_mod, _, part_prs = direct_sum([p.module for p in part])
    f_rest = _filtrable(rest_mod, sset, budget, cache)
    if f_rest is None:
        return None
    f_part = _filtrable(part_mod, sset, budget, cache)
    if f_part is None:
        return None
    rest_to_m = combine([p.incl.compose(pr) for p, pr in zip(rest, rest_prs)], [1] * len(rest))
    part_to_m = combine([p.incl.compose(pr) for p, pr in zip(part, part_prs)], [1] * len(part))
    # the levels of rest, each plus all of part, then those of part
    levels = []
    for lv in f_rest._levels:
        sub, _, (pr, pp) = _sum2(lv.sub, part_mod)
        incl = rest_to_m.compose(lv.incl).compose(pr).add(part_to_m.compose(pp))
        levels.append(_Level(sub, incl, lv.layer, lv.qmap.compose(pr), lv.mults))
    top, unit = levels[0], ModuleMap.identity(m)  # level 0 is m itself
    onto = top.qmap.compose(factor_through_injection(top.incl, unit))
    levels[0] = _Level(m, unit, top.layer, onto, top.mults)
    return Filtration(m, sset, levels=levels + _moved_levels(f_part._levels, part_to_m))


def _search_filtration(m, sset, budget, cache) -> Filtration | None:
    """Bounded exhaustive search over quotients in add(S)."""
    for mv, x, vec, spaces in _top_kernels(m, sset, budget):
        k, incl = _sub_from_spaces(m, spaces, "ker")
        sub = _filtrable(k, sset, budget, cache)
        if sub is not None:
            top = _search_level(sset, m, ModuleMap.identity(m), x, flat_to_map(m, x, vec), mv)
            return Filtration(m, sset, levels=[top, *_moved_levels(sub._levels, incl)])
    return None


def is_filtrable(m: Module, sset, search_cap: int = 200000) -> Filtration | None:
    """A filtration with add(S) layers, or None (certified), or Undecided.

    Greedy first; then splitting off projective summand groups; then a
    bounded exhaustive search over top quotients.  search_cap counts the
    quotients tried, one per orbit of prod GL_{m_i}(q) on the surjections
    onto X = sum of S_i^{m_i}.  An X with some m_i > dim Hom(M, S_i), or
    with dim X above the codimension c of the common kernel K_all of all
    maps M -> S_i, has no surjection: a certified absence that spends
    nothing.  At dim X = c the only possible kernel is K_all; where the
    orbits onto X would not fit the cap left, `module_isomorphic` of M /
    K_all and X decides it for one unit (`_top_kernels`).  A None returned
    after a search that hit no cap is a certified negative; otherwise
    Undecided.
    """
    cache = m.algebra.cached(("filtrable", _sset_sig(sset)), dict)
    budget = _Budget(search_cap)
    filt = _filtrable(m, sset, budget, cache)
    if filt is None and budget.hit:
        raise Undecided("filtration search hit its cap")
    return filt


def has_projective_remainder(m: Module, sset) -> bool:
    """Whether m = N + P with P a nonzero projective summand group and N
    filtrable.  Kept in the algebra memo per (S, m.key); an Undecided from
    a search is raised and not kept."""
    def build():
        return any(is_filtrable(_sum_of([p.module for p in rest], m.algebra), sset) is not None
                   for rest, _ in _projective_splits(m))
    return m.algebra.cached(("remainder", _sset_sig(sset), m.key), build)


def strip_remainder(m: Module, sset, seed: int = 0):
    """(N, P) with m = N + P, P projective maximal with N still filtrable.
    `seed` is ignored; it is kept because the benchmark workloads pass it."""
    for rest, part in sorted(_projective_splits(m), key=lambda s: -len(s[1])):
        n = _sum_of([p.module for p in rest], m.algebra)
        if is_filtrable(n, sset) is not None:
            return n, _sum_of([p.module for p in part], m.algebra)
    if is_filtrable(m, sset) is not None:
        return m, zero_module(m.algebra)
    raise NotFiltrable("no decomposition with a filtrable complement")


# -- certification ----------------------------------------------------------------

class RadicalCertificate:
    """Stable-category test results for an S-filtration.

    ok requires: the induced map on stable Hom into each S is bijective at
    every level above 0 and surjective at level 0, and no level above 0 has
    a projective remainder.  level0_bijective additionally records whether
    the whole module has no projective remainder.
    """

    __slots__ = ("ok", "levels", "reasons", "level0_bijective")

    def __init__(self, ok, levels, reasons, level0_bijective):
        self.ok = ok
        self.levels = levels
        self.reasons = reasons
        self.level0_bijective = level0_bijective


def _canonical_stable_matrix(layer, qmap, sub, s):
    """Matrix of stable Hom(layer, s) -> stable Hom(sub, s) over the chosen
    coset bases."""
    sh_l = stable_hom(layer, s)
    sh_m = stable_hom(sub, s)
    if sh_l.dim == 0:
        return np.zeros((0, sh_m.dim), dtype=np.int16), 0, sh_m.dim
    return sh_m.coords_of(sh_l.precompose(qmap)), sh_l.dim, sh_m.dim


def verify_s_radical(filt: Filtration) -> RadicalCertificate:
    """The S-radical certificate of filt, computed once per Filtration (a
    memoised greedy filtration and its equal-key copies count as one) and
    kept on it; callers share it and must not change it."""
    if not filt._cert:
        filt._cert.append(_verify_s_radical(filt))
    return filt._cert[0]


def _verify_s_radical(filt: Filtration) -> RadicalCertificate:
    fld = filt.module.algebra.field
    levels = []
    reasons = []
    level0_bij = True
    for i, lv in enumerate(filt.levels()):
        rec = {"level": i, "mults": lv.mults}
        bij, surj = True, True
        for s in filt.sset:
            mat, dl, dm = _canonical_stable_matrix(lv.layer, lv.qmap,
                                                   lv.sub, s)
            rank = fld.rank(mat) if mat.size else 0
            if rank < dm:
                surj = False
            if dl != dm or rank < dm:
                bij = False
        rec["stable_surjective"] = surj
        rec["stable_bijective"] = bij
        if i == 0:
            level0_bij = bij
            if not surj:
                reasons.append("level 0 canonical map not stably surjective")
        else:
            if not bij:
                reasons.append(f"level {i} canonical map not stably bijective")
            rem = has_projective_remainder(lv.sub, filt.sset)
            rec["no_projective_remainder"] = not rem
            if rem:
                reasons.append(f"level {i} has a projective remainder")
        levels.append(rec)
    return RadicalCertificate(not reasons, levels, reasons, level0_bij)


# -- exhaustive radical-filtration enumeration ------------------------------------

def exhaustive_radical_filtrations(m: Module, sset, seed: int = 0,
                                   search_cap: int = 500000) -> list[Filtration]:
    """All S-radical filtrations of m, each chain once.

    Each level enumerates surjections f: cur ->> X onto add(S) sums whose
    kernel passes three tests, cheapest first: the stable surjectivity half
    of the minimality criterion (a rank test on memoised stable Homs), then
    filtrability, then no projective remainder (both searches).  The kernel
    submodule is built only for an f that passes the first.  The order is
    sound because a kernel is kept only when all three hold; one failing
    the stable test is never searched, so it cannot leave the enumeration
    undecided.  All three depend on f only through ker f, fixed by
    automorphisms of X, so one surjection per orbit of prod GL_{m_i}(q) is
    tried, and search_cap counts these orbit representatives, over the
    whole search.  Three kinds of X are certified absences that spend
    nothing: a sum with some m_i > dim Hom(cur, S_i), or with dim X above
    the codimension of the common kernel of all maps cur -> S_i, has no
    surjection (`_top_kernels`), and the row bound drops a sum whose
    stable Homs are too few to pass the stable test: g -> g f maps
    stable Hom(X, S_i), of dimension sum_j m_j dim stable Hom(S_j, S_i),
    onto stable Hom(cur, S_i) only if that is at least dim stable
    Hom(cur, S_i).  At dim X equal to that codimension the one possible
    kernel is decided by `module_isomorphic` where its orbits would not
    fit the cap, for one unit.  A cap hit, here or in testing a kernel,
    raises Undecided, never a partial list.
    `seed` is ignored; it is kept because the benchmark workloads pass it.
    """
    budget = _Budget(search_cap)
    fld = m.algebra.field
    results: list[Filtration] = []

    def enough_rows(cur):
        # the row bound on mv: stable Hom(X, S_i) against stable Hom(cur, S_i)
        need = [stable_hom(cur, s).dim for s in sset]
        rows = [[stable_hom(a, s).dim for s in sset] for a in sset]
        return lambda mv: all(sum(r * row[i] for r, row in zip(mv, rows)) >= n
                              for i, n in enumerate(need))

    def stably_onto(cur, x, f):
        for s in sset:
            sh_c = stable_hom(cur, s)
            if sh_c.dim == 0:
                continue
            # enough_rows kept only X with dim stable Hom(X, s) >= sh_c.dim > 0
            if fld.rank(sh_c.coords_of(stable_hom(x, s).precompose(f))) < sh_c.dim:
                return False
        return True

    def minimal_step(cur):
        # distinct kernels of cur give distinct chains below it; an
        # undecided kernel leaves the enumeration undecided: it raises
        out = []
        for mv, x, vec, spaces in _top_kernels(cur, sset, budget, enough_rows(cur)):
            f = flat_to_map(cur, x, vec)
            if not stably_onto(cur, x, f):
                continue
            k, incl = _sub_from_spaces(cur, spaces, "ker")
            if is_filtrable(k, sset) is not None and not has_projective_remainder(k, sset):
                out.append((mv, x, f, k, incl))
        return out

    def dfs(cur, to_m, levels):
        if cur.dim == 0:
            results.append(Filtration(m, sset, levels=levels))
            return
        for mv, x, f, k, incl in minimal_step(cur):
            dfs(k, to_m.compose(incl), levels + [_search_level(sset, cur, to_m, x, f, mv)])

    dfs(m, ModuleMap.identity(m), [])
    if budget.hit:
        raise Undecided("radical filtration enumeration hit its cap")
    return results


# -- alignment -------------------------------------------------------------------

def align_surjections(f: ModuleMap, fp: ModuleMap) -> ModuleMap:
    """sigma in Aut(M) with fp = f . sigma, sigma stably the identity.

    sigma is an automorphism iff its top is onto.  The directions are the
    projective endomorphisms d with f . d = 0: their tops are all maps off
    the top of the non-projective summands into ker(top f), which is the
    image of ker f in top M since f is onto."""
    if not (f.is_surjective_map() and fp.is_surjective_map()):
        raise PresentationError("align_surjections needs surjective inputs")
    m = f.src
    fld = m.algebra.field
    if not stable_hom(m, f.tgt).is_projective_map(f.sub(fp)):
        raise PresentationError("maps are not stably equal")
    pend = stable_hom(m, m).proj
    if not len(pend):
        if np.any(f.sub(fp).flat()):
            raise PresentationError("no projective endomorphisms to adjust by")
        return ModuleMap.identity(m)
    prods = compose_flats(pend, m, m, left=f).T
    c = fld.solve(prods, fp.sub(f).flat())
    if c is None:
        raise PresentationError("stable equality failed to lift")
    h0 = flat_to_map(m, m, fld.matmul(c[None, :], pend)[0])
    try:
        sigma = lift_to_surjection(ModuleMap.identity(m).add(h0),
                                   fld.matmul(fld.kernel(prods), pend))
    except NoSurjectionInCoset as e:
        raise PresentationError("no automorphism aligns the maps") from e
    if np.any(f.compose(sigma).sub(fp).flat()):
        raise PresentationError("alignment verification failed")
    return sigma


def _extend_projective_map(incl: ModuleMap, p: ModuleMap) -> ModuleMap:
    """Projective q: M -> tgt with q . incl = p, for projective p: N -> tgt
    and incl: N -> M injective: p extends along the injective hull iota of
    N, and iota along incl."""
    _, iota = injective_hull(incl.src)
    return extend_along_injection(iota, p).compose(extend_along_injection(incl, iota))


def align_filtrations(f1: Filtration, f2: Filtration) -> ModuleMap:
    """Automorphism sigma of M, stably the identity, with sigma(F2_i) = F1_i.

    Refuses modules with a projective remainder: uniqueness genuinely fails
    there (a projective module can carry radical filtrations with different
    layers).

    The recursion walks the levels A_i of f1 and B_i of f2 together, with
    an iso beta: B_i.sub -> A_i.sub, at level 0 the identity of M.  An
    automorphism s of B_i.sub, stably the identity, aligns the surjections
    A_i.qmap beta and B_i.qmap onto the layers, so beta s restricts to the
    next level's beta; the iso aligning the levels below differs from that
    by a projective map, which extends along B_{i+1}'s inclusion."""
    if f1.module.key != f2.module.key:
        raise PresentationError("filtrations live on different modules")
    m = f1.module
    if has_projective_remainder(m, f1.sset):
        raise PresentationError(
            "module has a projective remainder; alignment is not guaranteed")
    if not (verify_s_radical(f1).ok and verify_s_radical(f2).ok):
        raise PresentationError("both filtrations must be S-radical")
    if len(f1) != len(f2):
        raise PresentationError("radical filtrations of equal length expected")

    fld = m.algebra.field
    levels_a, levels_b = f1.levels(), f2.levels()

    def recurse(i, beta):
        """An iso B_i.sub -> A_i.sub carrying every B_j onto A_j, j >= i."""
        a, b = levels_a[i], levels_b[i]
        cur, la, lb = b.sub, a.layer, b.layer
        qa, qb = a.qmap.compose(beta), b.qmap
        homs = hom_flats(lb, la)
        h = len(homs)
        if not h:
            raise PresentationError("no maps between top layers")
        mat = np.concatenate([compose_flats(homs, lb, la, right=qb),
                              stable_hom(cur, la).proj]).T
        sol = fld.solve(mat, qa.flat())
        if sol is None:
            raise PresentationError("layer quotients are not stably equal")
        psi0 = flat_to_map(lb, la, fld.matmul(sol[None, :h], homs)[0])
        ker = fld.kernel(mat)[:, :h]
        # level 0 is stably bijective, so the directions are projective
        # maps between add(S) modules: radical, with zero tops
        try:
            psi = lift_to_surjection(psi0, fld.matmul(ker[ker.any(axis=1)], homs))
        except NoSurjectionInCoset as e:
            raise PresentationError("no stable iso between top layers") from e
        top = beta.compose(align_surjections(qa, psi.compose(qb)))
        if i + 1 == len(levels_a):
            return top
        # the inclusions of level i + 1 into level i; level 0 is M
        r_a, r_b = (lv[1].incl if i == 0 else factor_through_injection(lv[0].incl, lv[1].incl)
                    for lv in (levels_a[i:], levels_b[i:]))
        try:
            inner = factor_through_injection(r_a, top.compose(r_b))
        except PresentationError:
            inner = None
        if inner is None or r_a.src.dim != r_b.src.dim:
            raise PresentationError("alignment failed to match the next level")
        p = recurse(i + 1, inner).sub(inner)
        if not np.any(p.flat()):
            return top
        out = top.add(r_a.compose(_extend_projective_map(r_b, p)))
        if not out.is_iso():
            raise PresentationError("extension of the inner automorphism failed")
        return out

    sigma = ModuleMap.identity(m)
    if len(f1):
        sigma = ModuleMap(m, m, recurse(0, ModuleMap.identity(levels_a[0].sub)).blocks)
    for ra, rb in zip(f1.chain, f2.chain):
        if not np.array_equal(_transport_rows(sigma, rb), ra):
            raise PresentationError("filtration alignment verification failed")
    if np.any(stable_hom(m, m).coords(sigma.sub(ModuleMap.identity(m)))):
        raise PresentationError("aligning automorphism is not stably trivial")
    return sigma


def stable_iso_lifts(m1: Module, m2: Module, sset, seed: int = 0) -> ModuleMap:
    """Upgrade a stable isomorphism between filtrable no-remainder modules
    to a module isomorphism.  `seed` is ignored; it is kept because the
    benchmark workloads pass it."""
    for m in (m1, m2):
        if is_filtrable(m, sset) is None:
            raise NotFiltrable(f"{m.name} is not filtrable")
        if has_projective_remainder(m, sset):
            raise PresentationError(f"{m.name} has a projective remainder")
    if stably_isomorphic(m1, m2) is None:
        raise PresentationError("modules are not stably isomorphic")
    iso = module_isomorphic(m1, m2)
    if iso is None:
        raise PresentationError(
            "uniqueness violated: stably isomorphic no-remainder filtrable "
            "modules must be isomorphic")
    return iso


# -- padding and hypothesis checks --------------------------------------------------

def _padded_parts(m: Module, mv) -> list[Module]:
    """m followed by mv[v] copies of each indecomposable projective P_v."""
    alg = m.algebra
    return [m] + [alg.projective(v) for v in range(alg.nvertices) for _ in range(mv[v])]


def padding_search(m: Module, sset, cap: int | None = None):
    """Projective P with m + P filtrable, by increasing dim P.

    Raises NotFiltrable when a vertex supported in m lies outside the
    support of S (no padding can ever help), Undecided past the cap
    (default 4 dim A).  Returns (P, multiplicity vector, Filtration).
    """
    alg = m.algebra
    if cap is None:
        cap = 4 * alg.dim
    for v in range(alg.nvertices):
        if m.dims[v] and all(s.dims[v] == 0 for s in sset):
            raise NotFiltrable(
                f"vertex {alg.vertices[v]} is outside the support of S")
    pdims = [alg.projective(v).dim for v in range(alg.nvertices)]
    undecided = False
    for total in range(cap + 1):
        for mv in _of_total(pdims, [cap] * len(pdims), total):
            parts = _padded_parts(m, mv)
            padded = sum_module(parts) if len(parts) > 1 else m
            try:
                filt = is_filtrable(padded, sset)
            except Undecided:
                undecided = True
                continue
            if filt is not None:
                return _sum_of(parts[1:], alg), mv, filt
    raise Undecided("padding search exhausted its cap"
                    + (" with undecided branches" if undecided else ""))


class HypReport:
    """Combined report: simple-set conditions plus per-module padding."""

    __slots__ = ("simple_report", "entries", "ok")

    def __init__(self, simple_report, entries, ok):
        self.simple_report = simple_report
        self.entries = entries
        self.ok = ok


def hyp_check(algebra, sset, cap: int | None = None) -> HypReport:
    """Check the standing hypotheses on (A, S).

    Runs the stable-Hom pattern test on S, then a padding search for every
    simple module and every first syzygy of a member: each must become
    filtrable after adding some projective.
    """
    from .stable import check_simple_set, syzygy

    srep = check_simple_set(algebra, sset)
    mods = [algebra.simple(v) for v in range(algebra.nvertices)]
    mods += [syzygy(s, 1) for s in sset]
    entries = []
    ok = srep.ok
    for mod in mods:
        try:
            pad, mv, _ = padding_search(mod, sset, cap=cap)
            entries.append({"module": mod.name, "status": "ok",
                            "padding": mv, "padding_dim": pad.dim})
        except NotFiltrable as e:
            entries.append({"module": mod.name, "status": "fail",
                            "reason": str(e)})
            ok = False
        except Undecided as e:
            entries.append({"module": mod.name, "status": "undecided",
                            "reason": str(e)})
            ok = False
    return HypReport(srep, entries, ok)
