"""Stable module category: projective maps, stable Hom, syzygies, Nakayama.

Everything here assumes the algebra is self-injective; operations refuse to
run otherwise, since the stable category is only triangulated in that case.
"""

from __future__ import annotations

import numpy as np

from .errors import NotSelfInjective, PresentationError
from .modules import (
    Module,
    ModuleMap,
    Summand,
    compose_flats,
    cover_kernel,
    decompose,
    direct_sum,
    flat_to_map,
    hom_flats,
    hull_cokernel,
    injective_hull,
    is_projective,
    match_summands,
    read_only,
    zero_module,
)


def _gate(algebra) -> None:
    rep = algebra.self_injectivity()
    if not rep.ok:
        raise NotSelfInjective(rep.witness)


def projective_maps(m: Module, n: Module) -> list[ModuleMap]:
    """Basis of the subspace of Hom(m, n) of maps factoring through a
    projective module, the canonical reduced one (see _projective_flats)."""
    return [flat_to_map(m, n, r) for r in _projective_flats(m, n)]


def _projective_flats(m: Module, n: Module) -> np.ndarray:
    """The echelon basis of the maps m -> n that factor through a projective,
    as flat rows.

    Every such map factors through the injective hull of m: injectives are
    projective here, and the hull embedding is a left factor of any map into
    a projective-injective.  So they are the g mono, g in Hom(I(m), n).
    """
    _gate(m.algebra)
    if m.dim == 0 or n.dim == 0:
        return np.zeros((0, 0), dtype=np.int16)
    _, mono = injective_hull(m)
    i = mono.tgt
    return m.algebra.field.row_space(compose_flats(hom_flats(i, n), i, n, right=mono))


class StableHom:
    """Hom(m, n) with its projective subspace and a choice of coset
    representatives completing it to a basis, each as flat rows (the
    `ModuleMap.flat` layout): hom the echelon basis of Hom(m, n), proj that
    of the maps factoring through a projective, and reps the hom rows
    outside the span of proj and of the rows kept before them."""

    __slots__ = ("src", "tgt", "hom", "proj", "reps", "_flats")

    def __init__(self, src: Module, tgt: Module, hom: np.ndarray, proj: np.ndarray,
                 reps: list[int]):
        """reps as indices into hom."""
        self.src = src
        self.tgt = tgt
        self.hom = hom
        self._flats = np.concatenate([proj, hom[reps]])
        self.proj = self._flats[:len(proj)]
        self.reps = self._flats[len(proj):]

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, f: ModuleMap) -> np.ndarray:
        """Coordinates of the stable class of f in the representative basis."""
        return self.coords_of(f.flat()[None, :])[0]

    def coords_of(self, rows: np.ndarray) -> np.ndarray:
        """coords of the map of every flat row, one row each, from one solve."""
        sol = self.src.algebra.field.solve_matrix(self._flats.T, rows.T)
        if sol is None:
            raise PresentationError("map outside the Hom space")
        return sol[len(self.proj):].T

    def precompose(self, f: ModuleMap) -> np.ndarray:
        """The flat rows of r f for every rep r, for f: S -> src."""
        return compose_flats(self.reps, self.src, self.tgt, right=f)

    def is_projective_map(self, f: ModuleMap) -> bool:
        return not np.any(self.coords(f))

    def rep(self, coords) -> ModuleMap:
        """A module map whose stable class has the given coordinates."""
        coords = np.asarray(coords, dtype=np.int16)[None, :]
        return flat_to_map(self.src, self.tgt, self.src.algebra.field.matmul(coords, self.reps)[0])


def stable_hom(m: Module, n: Module) -> StableHom:
    _gate(m.algebra)
    return m.algebra.cached(("stable_hom", m.key, n.key), lambda: _stable_hom(m, n))


def _stable_hom(m: Module, n: Module) -> StableHom:
    """The reps are the hom basis elements outside the span of the
    projective maps and the earlier elements: the pivot columns past proj
    of the columns [proj | hom] (`Field.pivots`)."""
    hom, proj = hom_flats(m, n), _projective_flats(m, n)
    piv = m.algebra.field.pivots(np.concatenate([proj, hom]).T)
    return StableHom(m, n, hom, proj, [j - len(proj) for j in piv if j >= len(proj)])


def stable_core(m: Module):
    """Largest direct summand of m without projective indecomposables.

    Returns (core, kept, dropped, on_core) where kept/dropped are the
    Summand records of the decomposition, dropped being the projective
    ones, and on_core[i] is kept[i].module as a summand of core.  Kept in
    the algebra memo under (m.key, m.name), as the name reaches the core;
    later calls share the core and the read-only blocks of every summand,
    and get the three lists as tuples.
    """
    _gate(m.algebra)
    return m.algebra.cached(("core", m.key, m.name), lambda: _stable_core(m))


def _stable_core(m: Module):
    kept, dropped = [], []
    for p in decompose(m):
        (dropped if is_projective(p.module) else kept).append(p)
    if not kept:
        core, on_core = zero_module(m.algebra), []
    else:
        core, injs, projs = direct_sum([p.module for p in kept], name=f"core({m.name})")
        on_core = [Summand(p.module, i, q) for p, i, q in zip(kept, injs, projs)]
    read_only(core, *(f for s in kept + dropped + on_core for f in (s.incl, s.proj)))
    return core, tuple(kept), tuple(dropped), tuple(on_core)


def stably_isomorphic(m: Module, n: Module, seed: int = 0) -> ModuleMap | None:
    """Iso core(m) -> core(n) matching their kept summands, or None (certified).

    `seed` is ignored; it is kept because the benchmark workloads pass it.
    """
    core_m, _, _, on_m = stable_core(m)
    core_n, _, _, on_n = stable_core(n)
    return match_summands(core_m, core_n, on_m, on_n)


def syzygy(m: Module, d: int = 1) -> Module:
    """Omega^d m for d >= 0, cosyzygy for d < 0, projective summands
    stripped at each step.  Kept in the algebra memo under (m.key, m.name,
    d), as the name reaches it, and built from Omega^(d -+ 1) m."""
    _gate(m.algebra)

    def build():
        if d == 0:
            return stable_core(m)[0]
        if d > 0:
            return stable_core(cover_kernel(syzygy(m, d - 1))[0])[0]
        return stable_core(hull_cokernel(syzygy(m, d + 1))[0])[0]
    return m.algebra.cached(("syzygy", m.key, m.name, d), build)


# -- Nakayama functor ---------------------------------------------------------

def _regular_module(alg):
    """The left regular module with its right-action bookkeeping."""
    projs = [alg.projective(v) for v in range(alg.nvertices)]
    total, injs, projections = direct_sum(projs, name="A")
    right = {}
    for v in range(alg.nvertices):
        right[("e", v)] = injs[v].compose(projections[v])
    for a, (_, u, w) in enumerate(alg.arrows):
        rm = alg.right_mult(alg.word_index[(a,)])
        # x . a is zero off the P_{tgt a} component and lands in P_{src a}
        right[("a", a)] = injs[u].compose(rm).compose(projections[w])
    return total, right


def nakayama_module(m: Module) -> Module:
    """nu(m) = D Hom(m, A) as a left module.

    Hom(m, A) is a right module by postcomposing with right multiplications;
    its dual is split into vertex spaces by the transposed idempotent actions.
    """
    _gate(m.algebra)
    alg = m.algebra
    fld = alg.field
    regular, right = alg.cached("regular", lambda: _regular_module(alg))
    flats = hom_flats(m, regular)
    if not len(flats):
        return zero_module(alg, name=f"nu({m.name})")

    def action(rmap: ModuleMap) -> np.ndarray:
        # column j: the coordinates of rmap f_j in the basis f of Hom(m, A)
        return fld.solve_matrix(flats.T, compose_flats(flats, m, regular, left=rmap).T)

    # dual coordinates: y acts as rho(y)^T, so e_v picks out the row space
    # of rho(e_v) and the arrow action of a is right multiplication by rho(a)
    rho_e = [action(right[("e", v)]) for v in range(alg.nvertices)]
    rho_a = [action(right[("a", a)]) for a in range(len(alg.arrows))]
    bases = [fld.row_space(r) for r in rho_e]
    dims = [b.shape[0] for b in bases]
    mats = []
    for a, (_, u, w) in enumerate(alg.arrows):
        img = fld.matmul(bases[u], rho_a[a])
        mats.append(fld.solve_matrix(bases[w].T, img.T).astype(np.int16))
    out = Module(alg, dims, mats, name=f"nu({m.name})")
    if out.dim != m.dim:
        raise PresentationError("Nakayama image has wrong dimension")
    return out


# -- simple-set certification --------------------------------------------------

class SimpleSetReport:
    """Result of the delta-pattern certification of a candidate set."""

    __slots__ = ("ok", "mods", "pattern", "violations")

    def __init__(self, ok, mods, pattern, violations):
        self.ok = ok
        self.mods = mods
        self.pattern = pattern
        self.violations = violations

    def __bool__(self):
        return self.ok

    def __repr__(self):
        tag = "ok" if self.ok else "; ".join(self.violations)
        return f"SimpleSetReport({tag})"


def check_simple_set(algebra, mods: list[Module]) -> SimpleSetReport:
    """Certify that stable Hom between the candidates follows the identity
    pattern and that each is indecomposable non-projective."""
    _gate(algebra)
    violations = []
    for s in mods:
        if s.dim == 0:
            violations.append(f"{s.name} is zero")
            continue
        if is_projective(s):
            violations.append(f"{s.name} is projective")
        if len(decompose(s)) != 1:
            violations.append(f"{s.name} is decomposable")
    n = len(mods)
    pattern = np.zeros((n, n), dtype=np.int64)
    for i, s in enumerate(mods):
        for j, t in enumerate(mods):
            d = stable_hom(s, t).dim
            pattern[i, j] = d
            want = 1 if i == j else 0
            if d != want:
                violations.append(
                    f"stable Hom({s.name},{t.name}) has dim {d}, want {want}")
    return SimpleSetReport(not violations, list(mods), pattern, violations)
