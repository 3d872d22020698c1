"""Filtrations with layers in add(S) and the S-radical filtration calculus.

A filtration is stored as a chain of global row spaces of the ambient module,
each arrow-stable, strictly decreasing, ending at zero.  Layer witnesses
(isomorphisms onto direct sums of members of S) are recomputed on demand, so
a Filtration value is self-validating.
"""

from __future__ import annotations

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
    Summand,
    cokernel,
    combine,
    combinations,
    decompose,
    direct_sum,
    extend_along_injection,
    hom_space,
    injective_hull,
    is_projective,
    kernel,
    match_summands,
    module_isomorphic,
    quotient,
    radical_submodule,
    submodule,
    submodule_closure,
    zero_module,
)
from .stable import projective_maps, stable_hom, stably_isomorphic


# -- row-space plumbing --------------------------------------------------------

def _full_rows(m: Module) -> np.ndarray:
    return np.eye(m.dim, dtype=np.int16)


def _empty_rows(m: Module) -> np.ndarray:
    return np.zeros((0, m.dim), dtype=np.int16)


def _transport_rows(fmap: ModuleMap, rows: np.ndarray) -> np.ndarray:
    """Row space of the image of a subspace under a map, in target coords."""
    fld = fmap.src.algebra.field
    if rows.shape[0] == 0:
        return np.zeros((0, fmap.tgt.dim), dtype=np.int16)
    g = fmap.global_matrix()
    return fld.row_space(fld.matmul(rows, g.T))


def _rows_in_sub(incl: ModuleMap, rows: np.ndarray) -> np.ndarray:
    """Express rows (contained in the image of incl) in subobject coords."""
    fld = incl.src.algebra.field
    if rows.shape[0] == 0:
        return np.zeros((0, incl.src.dim), dtype=np.int16)
    sol = fld.solve_matrix(incl.global_matrix(), rows.T)
    if sol is None:
        raise PresentationError("rows do not lie in the submodule")
    return fld.row_space(sol.T)


def _contains(fld, big: np.ndarray, small: np.ndarray) -> bool:
    if small.shape[0] == 0:
        return True
    stacked = np.concatenate([big, small], axis=0)
    return fld.row_space(stacked).shape[0] == big.shape[0]


def _sset_sig(sset) -> tuple:
    return tuple(s.key for s in sset)


def _sum_with_mults(sset, mults):
    """Direct sum of S-copies grouped by member: (X, injs, projs, layout),
    layout[c] = (member index, copy number)."""
    algebra = sset[0].algebra
    parts, layout = [], []
    for si, s in enumerate(sset):
        for c in range(mults[si]):
            parts.append(s)
            layout.append((si, c))
    if not parts:
        return zero_module(algebra), [], [], layout
    x, injs, projs = direct_sum(parts, name="X")
    return x, injs, projs, layout


# -- filtration values -----------------------------------------------------------

class _Level:
    __slots__ = ("sub", "incl", "layer", "qmap", "mults", "witness")

    def __init__(self, sub, incl, layer, qmap, mults, witness):
        self.sub = sub
        self.incl = incl
        self.layer = layer
        self.qmap = qmap
        self.mults = mults
        self.witness = witness


class Filtration:
    """Chain of arrow-stable subspaces of module with add(S) layers."""

    __slots__ = ("module", "sset", "chain", "_levels")

    def __init__(self, module: Module, sset, chain, check: bool = True):
        self.module = module
        self.sset = list(sset)
        fld = module.algebra.field
        self.chain = [fld.row_space(np.asarray(r, dtype=np.int16))
                      for r in chain]
        self._levels = None
        if check:
            self._validate()

    def _validate(self):
        m, fld = self.module, self.module.algebra.field
        if self.chain[0].shape[0] != m.dim:
            raise PresentationError("filtration must start at the full module")
        if self.chain[-1].shape[0] != 0:
            raise PresentationError("filtration must end at zero")
        for i in range(len(self.chain) - 1):
            hi, lo = self.chain[i], self.chain[i + 1]
            if lo.shape[0] >= hi.shape[0]:
                raise PresentationError("filtration steps must strictly drop")
            if not _contains(fld, hi, lo):
                raise PresentationError("filtration chain is not nested")
        for rows in self.chain:
            closed = submodule_closure(m, rows)
            if closed.shape[0] != rows.shape[0]:
                raise PresentationError("filtration level is not a submodule")

    def __len__(self) -> int:
        return len(self.chain) - 1

    def levels(self) -> list[_Level]:
        """Materialize submodules, layer quotients, and add(S) witnesses."""
        if self._levels is not None:
            return self._levels
        out = []
        for i in range(len(self)):
            sub, incl = submodule(self.module, self.chain[i], name=f"M_{i}")
            inner = _rows_in_sub(incl, self.chain[i + 1])
            layer, qmap = quotient(sub, inner, name=f"L_{i}")
            mults, witness = _layer_witness(layer, self.sset)
            out.append(_Level(sub, incl, layer, qmap, mults, witness))
        self._levels = out
        return out

    def mult_sequence(self) -> tuple[tuple[int, ...], ...]:
        return tuple(lv.mults for lv in self.levels())

    def layer_multiset(self) -> tuple[tuple[int, ...], ...]:
        """Multiset (sorted tuple) of layer multiplicity vectors."""
        return tuple(sorted(self.mult_sequence()))


def _layer_witness(layer: Module, sset):
    """Multiplicities and an iso onto the grouped direct sum of S-copies."""
    if layer.dim == 0:
        raise PresentationError("zero layer in a filtration")
    pieces = decompose(layer)
    mults = [0] * len(sset)
    for p in pieces:
        si = next((si for si, s in enumerate(sset) if p.module.dim == s.dim
                   and module_isomorphic(p.module, s) is not None), None)
        if si is None:
            raise NotFiltrable(f"layer summand of dim {p.module.dim} is not in add(S)")
        mults[si] += 1
    x, injs, projs, layout = _sum_with_mults(sset, mults)
    copies = [Summand(sset[si], i, q) for (si, _), i, q in zip(layout, injs, projs)]
    witness = match_summands(layer, x, pieces, copies)
    if witness is None or not witness.is_iso():
        raise PresentationError("layer witness failed to assemble")
    return tuple(mults), witness


# -- canonical top layer ---------------------------------------------------------

def canonical_top(m: Module, sset):
    """X = sum of S-copies sized by stable Hom, with the canonical map."""
    mults = [stable_hom(m, s).dim for s in sset]
    x, injs, _, layout = _sum_with_mults(sset, mults)
    g = ModuleMap.zero(m, x)
    for c, (si, j) in enumerate(layout):
        rep = stable_hom(m, sset[si]).reps[j]
        g = g.add(injs[c].compose(rep))
    return x, g, tuple(mults)


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


def lift_to_surjection(g: ModuleMap, dirs: list[ModuleMap]) -> ModuleMap:
    """A surjection in the coset g + span(dirs), g itself when g is onto;
    else raise NoSurjectionInCoset, a certified negative.

    By Nakayama a map onto Y is onto iff its top, into T = Y / rad Y, is.
    The directions' tops must be all maps that vanish on K_v and land in N_v
    at each vertex v (their common kernel and the span of their images): a
    dimension count checks it, else Inconclusive.  The rest is linear
    algebra, vertex by vertex (`_complete_top`)."""
    if g.is_surjective_map():
        return g
    if not dirs:
        raise NoSurjectionInCoset(f"no surjection onto {g.tgt.name} in the coset")
    fld = g.src.algebra.field
    top = cokernel(radical_submodule(g.tgt)[1])[1]
    tops = [top.compose(d) for d in dirs]
    psis, count = [], 0
    for v, phi in enumerate(top.compose(g).blocks):
        maps = [t.blocks[v] for t in tops]
        kv = fld.kernel(np.concatenate(maps))
        nv = fld.row_space(np.concatenate([b.T for b in maps]))
        count += (phi.shape[1] - kv.shape[0]) * nv.shape[0]
        psis.append(_complete_top(fld, phi, kv, nv))
    flats = np.stack([t.flat() for t in tops])
    if fld.rank(flats) != count:
        raise Inconclusive("direction tops are not all maps off K into N")
    if any(p is None for p in psis):
        raise NoSurjectionInCoset(f"no surjection onto {g.tgt.name} in the coset")
    c = fld.solve(flats.T, np.concatenate([p.reshape(-1) for p in psis]))
    f = None if c is None else g.add(combine(dirs, c))
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
    benchmark workloads pass it."""
    chain = [_full_rows(m)]
    cur, to_m = m, ModuleMap.identity(m)
    while cur.dim:
        try:
            _, _, k, incl, _ = top_layer(cur, sset)
        except NoSurjectionInCoset as e:
            raise NotFiltrable(f"greedy filtration stalled: {e}") from e
        to_m = to_m.compose(incl)
        chain.append(_transport_rows(to_m, _full_rows(k)))
        cur = k
    return Filtration(m, sset, chain)


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


def _mult_candidates(m: Module, sset):
    """Multiplicity vectors for potential top layers, pruned by vertex
    dimensions, ordered by total dimension then lexicographically."""
    bounds = []
    for s in sset:
        b = m.dim // s.dim if s.dim else 0  # a zero member is in no layer
        for v in range(len(m.dims)):
            if s.dims[v]:
                b = min(b, m.dims[v] // s.dims[v])
        bounds.append(b)
    cands = []
    for mv in itertools.product(*(range(b + 1) for b in bounds)):
        if not any(mv):
            continue
        dims = [sum(mv[si] * s.dims[v] for si, s in enumerate(sset))
                for v in range(len(m.dims))]
        if all(d <= mvd for d, mvd in zip(dims, m.dims)):
            cands.append((sum(dims), mv))
    cands.sort()
    return [mv for _, mv in cands]


def _gaussian_binomial(h: int, r: int, q: int) -> int:
    """[h, r]_q, the number of r-dimensional subspaces of GF(q)^h."""
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


def _surjections_onto(m: Module, sset, mv, budget: _Budget):
    """(X, f) for one surjection f: m ->> X = sum of S_i^{mv[i]} per orbit of
    prod GL_{mv[i]}(q) on the maps whose coefficient blocks have full row
    rank, spending one unit of budget per orbit.

    Only ker f is used, and ker(g f) = ker f for every automorphism g of X.
    The component of f onto the copies of S_i is an mv[i] x h_i block of
    coefficients over the basis of Hom(m, S_i), of dimension h_i; f is onto
    only if every block has full row rank (else some g in GL_{mv[i]} zeroes
    a copy), and each orbit of such blocks holds one reduced-echelon block.
    So the [h_i, mv[i]]_q products of echelon blocks reach every kernel.
    Some mv[i] > h_i leaves no surjection: nothing is yielded and the budget
    is untouched (a certified absence).  More orbits than the maps left is
    a refusal: budget.hit is set and nothing is yielded."""
    fld = m.algebra.field
    homs = {si: hom_space(m, sset[si]) for si, r in enumerate(mv) if r}
    if any(mv[si] > len(h) for si, h in homs.items()):
        return
    orbits = math.prod(_gaussian_binomial(len(h), mv[si], fld.q) for si, h in homs.items())
    if orbits > budget.maps:
        budget.hit = True
        return
    x, injs, _, layout = _sum_with_mults(sset, mv)
    basis = [inj.compose(h) for inj, (si, _) in zip(injs, layout) for h in homs[si]]
    rows = _block_rows([(mv[si], len(h)) for si, h in homs.items()], fld.q)
    for f in combinations(basis, rows):
        if not budget.spend():
            return
        if f.is_surjective_map():
            yield x, f


def _filtrable(m: Module, sset, budget, cache) -> Filtration | None:
    key = m.key
    if key in cache:
        return cache[key]
    if m.dim == 0:
        filt = Filtration(m, sset, [_empty_rows(m)])
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

    pieces = decompose(m)
    proj_idx = [i for i, p in enumerate(pieces) if is_projective(p.module)]
    if len(pieces) > 1 and proj_idx:
        for size in range(1, len(proj_idx) + 1):
            for subset in itertools.combinations(proj_idx, size):
                rest = [p for i, p in enumerate(pieces) if i not in subset]
                if not rest:
                    break  # fully projective: the direct search handles it
                part = [pieces[i] for i in subset]
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
    rest_to_m = ModuleMap.zero(rest_mod, m)
    for p, pr in zip(rest, rest_prs):
        rest_to_m = rest_to_m.add(p.incl.compose(pr))
    part_to_m = ModuleMap.zero(part_mod, m)
    for p, pr in zip(part, part_prs):
        part_to_m = part_to_m.add(p.incl.compose(pr))
    fld = m.algebra.field
    chain = []
    part_full = _transport_rows(part_to_m, _full_rows(part_mod))
    for rows in f_rest.chain:
        top = _transport_rows(rest_to_m, rows)
        chain.append(fld.row_space(np.concatenate([top, part_full], axis=0)))
    for rows in f_part.chain[1:]:
        chain.append(_transport_rows(part_to_m, rows))
    return Filtration(m, sset, chain)


def _search_filtration(m, sset, budget, cache) -> Filtration | None:
    """Bounded exhaustive search over quotients in add(S)."""
    for mv in _mult_candidates(m, sset):
        seen = set()
        for _, f in _surjections_onto(m, sset, mv, budget):
            k, incl = kernel(f)
            rows = _transport_rows(incl, _full_rows(k))
            skey = rows.tobytes()
            if skey in seen:
                continue
            seen.add(skey)
            sub = _filtrable(k, sset, budget, cache)
            if sub is None:
                continue
            chain = [_full_rows(m)]
            for r in sub.chain:
                chain.append(_transport_rows(incl, r))
            return Filtration(m, sset, chain)
    return None


def is_filtrable(m: Module, sset, search_cap: int = 200000) -> Filtration | None:
    """A filtration with add(S) layers, or None (certified), or Undecided.

    Greedy first; then splitting off projective summand groups; then a
    bounded exhaustive search over top quotients.  search_cap counts the
    quotients tried, one per orbit of prod GL_{m_i}(q) on the surjections
    onto X = sum of S_i^{m_i}; an X with some m_i > dim Hom(M, S_i) has no
    surjection, a certified absence that spends nothing.  A None returned
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
    filtrable."""
    pieces = decompose(m)
    proj_idx = [i for i, p in enumerate(pieces) if is_projective(p.module)]
    for size in range(1, len(proj_idx) + 1):
        for subset in itertools.combinations(proj_idx, size):
            rest = [p.module for i, p in enumerate(pieces) if i not in subset]
            n = direct_sum(rest)[0] if rest else zero_module(m.algebra)
            if is_filtrable(n, sset) is not None:
                return True
    return False


def strip_remainder(m: Module, sset, seed: int = 0):
    """(N, P) with m = N + P, P projective maximal with N still filtrable.
    `seed` is ignored; it is kept because the benchmark workloads pass it."""
    pieces = decompose(m)
    proj_idx = [i for i, p in enumerate(pieces) if is_projective(p.module)]
    for size in range(len(proj_idx), 0, -1):
        for subset in itertools.combinations(proj_idx, size):
            rest = [p.module for i, p in enumerate(pieces) if i not in subset]
            n = direct_sum(rest)[0] if rest else zero_module(m.algebra)
            if is_filtrable(n, sset) is not None:
                part = direct_sum([pieces[i].module for i in subset])[0]
                return n, part
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

    def __bool__(self):
        return self.ok


def _canonical_stable_matrix(layer, qmap, sub, s):
    """Matrix of stable Hom(layer, s) -> stable Hom(sub, s) over the chosen
    coset bases."""
    sh_l = stable_hom(layer, s)
    sh_m = stable_hom(sub, s)
    if sh_l.dim == 0:
        return np.zeros((0, sh_m.dim), dtype=np.int16), 0, sh_m.dim
    rows = np.stack([sh_m.coords(r.compose(qmap)) for r in sh_l.reps])
    return rows, sh_l.dim, sh_m.dim


def verify_s_radical(filt: Filtration) -> RadicalCertificate:
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
                                   max_results: int = 64,
                                   search_cap: int = 500000) -> list[Filtration]:
    """All S-radical filtrations of m, deduplicated by subspace chain.

    Each level enumerates surjections onto add(S) sums whose kernel is
    filtrable, has no projective remainder, and which satisfy the stable
    surjectivity half of the minimality criterion.  Both tests depend on
    the surjection only up to automorphisms of the sum, so one surjection
    per orbit of prod GL_{m_i}(q) is tried, and search_cap counts these
    orbit representatives, over the whole search; a sum with some
    m_i > dim Hom(m, S_i) has no surjection, a certified absence that
    spends nothing.  A cap hit, here or in testing a kernel, raises
    Undecided, never a partial list; stopping at max_results is not one.
    `seed` is ignored; it is kept because the benchmark workloads pass it.
    """
    budget = _Budget(search_cap)
    fld = m.algebra.field
    results: list[Filtration] = []
    seen_chains = set()

    def admissible(cur, x, f, k):
        # an undecided kernel leaves the enumeration undecided: it raises
        if is_filtrable(k, sset) is None or has_projective_remainder(k, sset):
            return False
        for s in sset:
            sh_c = stable_hom(cur, s)
            if sh_c.dim == 0:
                continue
            sh_x = stable_hom(x, s)
            if sh_x.dim == 0:
                return False
            mat = np.stack([sh_c.coords(r.compose(f)) for r in sh_x.reps])
            if fld.rank(mat) < sh_c.dim:
                return False
        return True

    def minimal_step(cur):
        found = {}
        for mv in _mult_candidates(cur, sset):
            for x, f in _surjections_onto(cur, sset, mv, budget):
                k, incl = kernel(f)
                rows = _transport_rows(incl, _full_rows(k))
                skey = rows.tobytes()
                if skey in found:
                    continue
                if admissible(cur, x, f, k):
                    found[skey] = (k, incl)
        return list(found.values())

    def dfs(cur, to_m, chain):
        if len(results) >= max_results:
            return
        if cur.dim == 0:
            key = tuple(r.tobytes() for r in chain)
            if key not in seen_chains:
                seen_chains.add(key)
                results.append(Filtration(m, sset, list(chain)))
            return
        for k, incl in minimal_step(cur):
            nxt = to_m.compose(incl)
            chain.append(_transport_rows(nxt, _full_rows(k)))
            dfs(k, nxt, chain)
            chain.pop()

    dfs(m, ModuleMap.identity(m), [_full_rows(m)])
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
    if not pend:
        if np.any(f.sub(fp).flat()):
            raise PresentationError("no projective endomorphisms to adjust by")
        return ModuleMap.identity(m)
    prods = np.stack([f.compose(p).flat() for p in pend]).T
    c = fld.solve(prods, fp.sub(f).flat())
    if c is None:
        raise PresentationError("stable equality failed to lift")
    h0 = combine(pend, c)
    dirs = [combine(pend, row) for row in fld.kernel(prods) if np.any(row)]
    try:
        sigma = lift_to_surjection(ModuleMap.identity(m).add(h0), dirs)
    except NoSurjectionInCoset as e:
        raise PresentationError("no automorphism aligns the maps") from e
    if np.any(f.compose(sigma).sub(fp).flat()):
        raise PresentationError("alignment verification failed")
    return sigma


def _extend_projective_map(incl: ModuleMap, p: ModuleMap,
                           tgt: Module) -> ModuleMap:
    """Projective q: M -> tgt with q . incl = p, for projective p: N -> tgt
    and incl: N -> M injective."""
    sub = incl.src
    fld = sub.algebra.field
    _, iota = injective_hull(sub)
    gs = hom_space(iota.tgt, tgt)
    if not gs:
        if np.any(p.flat()):
            raise PresentationError("projective map fails to extend")
        return ModuleMap.zero(incl.tgt, tgt)
    mat = np.stack([g.compose(iota).flat() for g in gs]).T
    c = fld.solve(mat, p.flat())
    if c is None:
        raise PresentationError("map is not projective through the hull")
    gamma = combine(gs, c)
    iota2 = extend_along_injection(incl, iota)
    return gamma.compose(iota2)


def align_filtrations(f1: Filtration, f2: Filtration) -> ModuleMap:
    """Automorphism sigma of M, stably the identity, with sigma(F2_i) = F1_i.

    Refuses modules with a projective remainder: uniqueness genuinely fails
    there (a projective module can carry radical filtrations with different
    layers).
    """
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

    def recurse(cur, chain_a, chain_b):
        if len(chain_a) <= 1 or cur.dim == 0:
            return ModuleMap.identity(cur)
        la, qa = quotient(cur, chain_a[1], name="LA")
        lb, qb = quotient(cur, chain_b[1], name="LB")
        homs = hom_space(lb, la)
        if not homs:
            raise PresentationError("no maps between top layers")
        pmaps = projective_maps(cur, la)
        cols = [h.compose(qb).flat() for h in homs] + [p.flat() for p in pmaps]
        mat = np.stack(cols).T
        sol = fld.solve(mat, qa.flat())
        if sol is None:
            raise PresentationError("layer quotients are not stably equal")
        psi0 = combine(homs, sol[: len(homs)])
        dirs = [combine(homs, row[: len(homs)]) for row in fld.kernel(mat)
                if np.any(row[: len(homs)])]
        # level 0 is stably bijective, so the directions are projective
        # maps between add(S) modules: radical, with zero tops
        try:
            psi = lift_to_surjection(psi0, dirs)
        except NoSurjectionInCoset as e:
            raise PresentationError("no stable iso between top layers") from e
        sigma1 = align_surjections(qa, psi.compose(qb))
        moved = [_transport_rows(sigma1, r) for r in chain_b]
        if not np.array_equal(moved[1], chain_a[1]):
            raise PresentationError("alignment failed to match the next level")
        sub, incl = submodule(cur, chain_a[1], name="M1")
        sub_a = [_rows_in_sub(incl, r) for r in chain_a[1:]]
        sub_b = [_rows_in_sub(incl, r) for r in moved[1:]]
        tau = recurse(sub, sub_a, sub_b)
        p = tau.sub(ModuleMap.identity(sub))
        if not np.any(p.flat()):
            return sigma1
        qmap = _extend_projective_map(incl, p, sub)
        sigma2 = ModuleMap.identity(cur).add(incl.compose(qmap))
        if not sigma2.is_iso():
            raise PresentationError("extension of the inner automorphism failed")
        return sigma2.compose(sigma1)

    sigma = recurse(m, f1.chain, f2.chain)
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
    cands = []
    for mv in itertools.product(*(range(cap // d + 1) for d in pdims)):
        total = sum(c * d for c, d in zip(mv, pdims))
        if total <= cap:
            cands.append((total, mv))
    cands.sort()
    undecided = False
    for total, mv in cands:
        parts = [m] + [alg.projective(v) for v in range(alg.nvertices)
                       for _ in range(mv[v])]
        padded = direct_sum(parts)[0] if len(parts) > 1 else m
        try:
            filt = is_filtrable(padded, sset)
        except Undecided:
            undecided = True
            continue
        if filt is not None:
            pad = direct_sum(parts[1:])[0] if len(parts) > 1 else \
                zero_module(alg)
            return pad, mv, filt
    raise Undecided("padding search exhausted its cap"
                    + (" with undecided branches" if undecided else ""))


class HypReport:
    """Combined report: simple-set conditions plus per-module padding."""

    __slots__ = ("simple_report", "entries", "ok")

    def __init__(self, simple_report, entries, ok):
        self.simple_report = simple_report
        self.entries = entries
        self.ok = ok

    def __bool__(self):
        return self.ok


def hyp_check(algebra, sset, extra=(), cap: int | None = None) -> HypReport:
    """Check the standing hypotheses on (A, S).

    Runs the stable-Hom pattern test on S, then a padding search for every
    simple module, every first syzygy of a member, and any extra modules:
    each must become filtrable after adding some projective.
    """
    from .stable import check_simple_set, syzygy

    srep = check_simple_set(algebra, sset)
    mods = [algebra.simple(v) for v in range(algebra.nvertices)]
    mods += [syzygy(s, 1) for s in sset]
    mods += list(extra)
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
