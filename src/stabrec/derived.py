"""Bounded complexes and derived-category checks over a bound quiver algebra.

Complexes are cochain complexes: differentials raise the degree by one and
square to zero (machine-checked on construction).  Derived Hom dimensions
are cohomology dimensions of the total Hom complex

    Hom^n(X, Y) = sum_p Hom_A(X^p, Y^{p+n}),
    (D g)_q = d_Y g_q - (-1)^n g_{q+1} d_X,

computed with X termwise projective, where Hom(X^p, Y^{p+n}) is the sum of
the e_v Y^{p+n} over the top generators of X^p at the vertices v: X as it
is when it is termwise projective, otherwise a truncated projective
resolution of X deep enough that the truncation cannot leak into the
requested window.

Finite windows.  For complexes with cohomological support in [x1, x2] and
[y1, y2], Hom_{D^b}(X, Y[i]) vanishes once i < y1 - x2: the shifted target
then lives in degrees strictly above every degree where X has cohomology,
so the hyper-Ext contributions Ext^p(H^q X, H^{q'} Y[i]) all need p < 0.
This turns the paper-side quantifiers over all shifts into finite loops;
every membership and pattern check below derives its window this way and
records it in the returned report.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cache

import numpy as np

from .errors import PresentationError, Undecided
from .modules import (Module, ModuleMap, zero_module, direct_sum, sum_module, kernel,
                      cokernel, projective_cover, injective_hull, ext1, ses_class, read_only,
                      is_exact_pair, is_projective, is_injective_module,
                      match_summands, module_isomorphic, lift_through_surjection,
                      factor_through_surjection, factor_through_injection,
                      combine, _sum2, _generator_inverses, _path_images,
                      _projective_cover, _top_generators)
from .stable import _gate, stable_core, stably_isomorphic, syzygy, \
    nakayama_module


# -- complexes ----------------------------------------------------------------


class Complex:
    """A bounded cochain complex of modules.

    Zero terms are dropped; `terms` maps degree to a nonzero Module and
    `diffs` maps degree n to the differential term(n) -> term(n+1) when it
    is nonzero.  `term` and `diff` fall back to zero objects outside the
    support, so consumers can index freely.
    """

    __slots__ = ("algebra", "terms", "diffs", "name", "_zero")

    def __init__(self, algebra, terms, diffs, name="C", check=True):
        self.algebra = algebra
        self.name = name
        self.terms = {int(n): m for n, m in terms.items() if m.dim > 0}
        self.diffs = {}
        self._zero = zero_module(algebra)
        for n, d in diffs.items():
            n = int(n)
            if d.is_zero():
                continue
            if n not in self.terms or (n + 1) not in self.terms:
                raise PresentationError(
                    f"nonzero differential at degree {n} without both terms")
            self.diffs[n] = d
        if check:
            self._check()

    def _check(self, degrees=None):
        """Endpoints and d o d = 0 at the given degrees (default: all)."""
        for n in (self.diffs if degrees is None else degrees):
            d = self.diffs.get(n)
            if d is None:
                continue
            if d.src.key != self.terms[n].key or d.tgt.key != self.terms[n + 1].key:
                raise PresentationError(
                    f"differential endpoints disagree with the terms at degree {n}")
            if n + 1 in self.diffs:
                if not self.diffs[n + 1].compose(d).is_zero():
                    raise PresentationError(f"d after d is nonzero at degree {n}")

    @staticmethod
    def from_module(m: Module, degree: int = 0, name: str | None = None) -> "Complex":
        return Complex(m.algebra, {degree: m}, {}, name=name or m.name)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> list[int]:
        return sorted(self.terms)

    def min_degree(self) -> int:
        return min(self.terms) if self.terms else 0

    def max_degree(self) -> int:
        return max(self.terms) if self.terms else 0

    def term(self, n: int) -> Module:
        return self.terms.get(n, self._zero)

    def diff(self, n: int) -> ModuleMap:
        d = self.diffs.get(n)
        if d is None:
            return ModuleMap.zero(self.term(n), self.term(n + 1))
        return d

    def shift(self, k: int) -> "Complex":
        """X[k] with X[k]^n = X^{n+k} and differential (-1)^k d."""
        terms = {n - k: m for n, m in self.terms.items()}
        neg = self.algebra.field.neg(1)
        diffs = {n - k: (d.scale(neg) if k % 2 else d)
                 for n, d in self.diffs.items()}
        return Complex(self.algebra, terms, diffs,
                       name=f"{self.name}[{k}]", check=False)

    def cohomology_dims(self) -> dict[int, int]:
        """Degree -> dim H^n, over the support of the terms."""
        if not self.terms:
            return {}
        return {n: self.cohomology_dim(n)
                for n in range(self.min_degree(), self.max_degree() + 1)}

    def cohomology_dim(self, n: int) -> int:
        """dim H^n = dim X^n - rank d^n - rank d^{n-1}."""
        def rank(k):
            return self.diffs[k].rank() if k in self.diffs else 0
        return self.term(n).dim - rank(n) - rank(n - 1)

    def cohomology_support(self) -> list[int]:
        return [n for n, d in sorted(self.cohomology_dims().items()) if d]

    def cohomology_vertex_dims(self, n: int) -> tuple[int, ...]:
        """Per-vertex dimension vector of H^n."""
        nv = self.algebra.nvertices
        if n not in self.terms:
            return (0,) * nv
        fld = self.algebra.field
        kmod, _ = kernel(self.diff(n))
        below = self.diff(n - 1)
        return tuple(kmod.dims[v] - fld.rank(below.blocks[v])
                     for v in range(nv))

    def is_termwise_projective(self) -> bool:
        return all(is_projective(m) for m in self.terms.values())

    def is_termwise_injective(self) -> bool:
        return all(is_injective_module(m) for m in self.terms.values())


def as_complex(obj, degree: int = 0) -> Complex:
    if isinstance(obj, Complex):
        return obj
    return Complex.from_module(obj, degree=degree)


def complex_sum(parts: list[Complex], name: str | None = None) -> Complex:
    """Degreewise direct sum with block-diagonal differentials."""
    if not parts:
        raise PresentationError("complex_sum of an empty list")
    algebra = parts[0].algebra
    degs = sorted({n for c in parts for n in c.terms})
    totals, injs, projs = {}, {}, {}
    for n in degs:
        totals[n], injs[n], projs[n] = direct_sum([c.term(n) for c in parts])
    diffs = {}
    for n in degs:
        if n + 1 not in totals:
            continue
        d = ModuleMap.zero(totals[n], totals[n + 1])
        for i, c in enumerate(parts):
            piece = c.diffs.get(n)
            if piece is not None:
                d = d.add(injs[n + 1][i].compose(piece).compose(projs[n][i]))
        if not d.is_zero():
            diffs[n] = d
    return Complex(algebra, totals, diffs,
                   name=name or "(" + " + ".join(c.name for c in parts) + ")",
                   check=False)


# -- total Hom complex --------------------------------------------------------


def _groups(x: Complex, y: Complex, n: int):
    """Hom^n(X, Y) in generator coordinates, X termwise projective: a map is
    its images of the top generators of each X^p, so group (p, v) holds the
    m_v generators of X^p at v, each with the coordinates of e_v Y^{p+n}.
    Returns (p, v) -> (first row, m_v), rows in order (p, v, generator,
    coordinate), and dim Hom^n."""
    out, pos = {}, 0
    for p in x.degrees():
        yt = y.terms.get(p + n)
        if yt is None:
            continue
        for v, m_v in sorted(Counter(v for v, _ in _top_generators(x.terms[p])).items()):
            if yt.dims[v]:
                out[p, v] = (pos, m_v)
                pos += m_v * yt.dims[v]
    return out, pos


def total_hom_dims(x: Complex, y: Complex, window: tuple[int, int]) -> tuple[int, ...]:
    """dim H^n of the total Hom complex for n in the closed window.

    X must be termwise projective (`derived_hom_dims` resolves any other
    source), so these are the derived Hom dimensions Hom_{D^b}(X, Y[n]).
    With X^p the sum of the P(v_g) over its top generators g, Hom^n(X, Y)
    is the sum of the e_{v_g} Y^{p+n} (see `_groups`): the identity is its
    basis, and nothing is solved or echelonised.  D_n is one matrix,
    dim Hom^n x dim Hom^{n+1}, assembled from d_Y's vertex blocks and the
    path coefficients of d_X; dim H^n = dim Hom^n - rank D_n - rank D_{n-1}.
    """
    a, b = window
    if a > b:
        raise PresentationError("empty window")
    if not x.is_termwise_projective():
        raise PresentationError("the total Hom complex needs a termwise projective "
                                "source; derived_hom_dims resolves any other")
    fld = x.algebra.field
    groups = {n: _groups(x, y, n) for n in range(a - 1, b + 3)}

    @cache
    def coef(q, v, w):
        # rows (h, g), columns b: the coefficient of b h in d_X(g), for the
        # generators h of X^{q+1} at v and g of X^q at w and the paths b
        # from v to w, read off the column d_X(g) by E_w^-1 (rights[w])
        rights = next(r for u, _, r in _generator_inverses(x.terms[q + 1]) if u == v)[w]
        gens = [c for u, c in _top_generators(x.terms[q]) if u == w]
        dx = x.diffs[q].blocks[w][:, gens]
        paths = len(rights)
        got = fld.matmul(rights.reshape(-1, len(dx)), dx)
        return got.reshape(paths, -1, len(gens)).transpose(1, 2, 0).reshape(-1, paths)

    @cache
    def images(p, v):
        return _path_images(y.terms[p], v, slice(None))

    def differential(n):
        # (D f)_q = d_Y f_q - (-1)^n f_{q+1} d_X: d_Y sends group (p, v) to
        # group (p, v) of Hom^{n+1} by its vertex-v block, and f_p d_X sends
        # it to each group (p - 1, w), with f_p(b h) = Y_b f_p(h)
        (src, rows), (dst, cols) = groups[n], groups[n + 1]
        out = np.zeros((rows, cols), dtype=np.int16)
        for (p, v), (r0, m_v) in src.items():
            yt = y.terms[p + n]
            r1 = r0 + m_v * yt.dims[v]
            dy = y.diffs.get(p + n)
            if dy is not None and (p, v) in dst:
                c0 = dst[p, v][0]
                out[r0: r1, c0: c0 + m_v * dy.tgt.dims[v]] = fld.kron(
                    np.eye(m_v, dtype=np.int16), dy.blocks[v].T)
            if p - 1 not in x.diffs:
                continue
            for w, y_b in enumerate(images(p + n, v)):     # Y_w x Y_v x paths
                (yw, yv, paths) = y_b.shape
                if (p - 1, w) not in dst or not paths:
                    continue
                c0, m_w = dst[p - 1, w]
                prod = fld.matmul(coef(p - 1, v, w),
                                  y_b.transpose(2, 0, 1).reshape(paths, yw * yv))
                block = prod.reshape(m_v, m_w, yw, yv).transpose(0, 3, 1, 2) \
                            .reshape(m_v * yv, m_w * yw)
                out[r0: r1, c0: c0 + m_w * yw] = block if n % 2 else fld.scale(fld.neg(1), block)
        return out

    ds = {n: differential(n) for n in range(a - 1, b + 2)}
    for n in range(a - 1, b + 1):
        if np.any(fld.matmul(ds[n], ds[n + 1])):
            raise PresentationError(
                f"total differential does not square to zero at degree {n}")
    ranks = {n: fld.rank(ds[n]) if ds[n].size else 0 for n in range(a - 1, b + 1)}
    return tuple(len(ds[n]) - ranks[n] - ranks[n - 1] for n in range(a, b + 1))


# -- projective resolutions ---------------------------------------------------


class Resolution:
    """A truncated projective resolution of a bounded complex.

    `complex` is termwise projective with support in [cut, top]; `maps`
    holds the comparison maps eps_n: P^n -> X^n, a degreewise surjective
    chain map that is a quasi-isomorphism in all degrees above `cut`; `of`
    is the complex resolved.  The one `projective_resolution` keeps per
    complex grows downward in place (its `cut` drops); every one it returns
    is a truncation with dicts of its own, sharing the kept terms and maps,
    whose arrays are read-only.  `ranks` holds rank d_P^n for the degrees
    `_check_resolution` has read, so each differential is ranked once.
    """

    __slots__ = ("complex", "maps", "cut", "of", "ranks")

    def __init__(self, cx, maps, cut, of):
        self.complex = cx
        self.maps = maps
        self.cut = cut
        self.of = of
        self.ranks = {}


def projective_resolution(x: Complex, depth: int) -> Resolution:
    """Resolve X by projectives, keeping `depth` terms at or below min X.

    The truncation degree is cut = min_degree(X) - depth + 1.  The top term
    is the projective cover of the highest term of X; each next term P^n
    is the projective cover of the submodule
    V = {(x, p) in X^n + P^{n+1} : d_X x = eps p, d_P p = 0} (see
    `_build_degree`).

    Each degree is built once per complex: the deepest resolution built so
    far is kept in the algebra memo under ("resolution", content key of X)
    (see `_content_key`).  A call whose cut is at or above its lowest
    degree gets its truncation at cut; a deeper call first extends it
    downward from its lowest degree, checking each new degree once (see
    `_extend`).  The result is named P(X) and resolves X itself.
    """
    if depth < 1:
        raise PresentationError("resolution depth must be at least 1")
    algebra = x.algebra
    name = f"P({x.name})"
    if x.is_zero:
        return Resolution(Complex(algebra, {}, {}, name=name), {}, 0, x)
    cut = x.min_degree() - depth + 1
    kept = algebra.cached(("resolution", _content_key(x)), lambda: Resolution(
        Complex(algebra, {}, {}, name=name), {}, x.max_degree() + 1, x))
    if cut < kept.cut:
        _extend(kept, cut)
    cx = Complex(algebra, {n: m for n, m in kept.complex.terms.items() if n >= cut},
                 {n: d for n, d in kept.complex.diffs.items() if n >= cut},
                 name=name, check=False)
    return Resolution(cx, {n: e for n, e in kept.maps.items() if n >= cut}, cut, x)


def _content_key(x: Complex):
    """Equal keys, equal complexes: the degrees with their terms' keys and
    differentials' blocks; a module in degree 0 keys as the module."""
    if list(x.terms) == [0]:
        return x.terms[0].key
    return tuple((n, m.key, b"|".join(b.tobytes() for b in x.diffs[n].blocks)
                  if n in x.diffs else b"") for n, m in sorted(x.terms.items()))


def _extend(kept: Resolution, cut: int):
    """Build the degrees of the kept resolution below its lowest one down to
    cut, in place, with read-only arrays.  Each new degree n is checked
    once, when it is built: d o d = 0 at n (`Complex._check`), and
    `_check_resolution` at n, which also reads the quasi-isomorphism at
    n + 1, where it holds from now on.  The lowest degree moves only past
    a degree that passed."""
    p = kept.complex
    for n in range(kept.cut - 1, cut - 1, -1):
        pn, eps, d = read_only(*_build_degree(kept, n))
        p.terms.pop(n, None)
        p.diffs.pop(n, None)
        if pn.dim:
            p.terms[n] = pn
        if not d.is_zero():
            p.diffs[n] = d
        kept.maps[n] = eps
        p._check([n])
        _check_resolution(kept, [n])
        kept.cut = n


def _build_degree(res: Resolution, n: int):
    """(P^n, eps^n, d_P^n) for the degree n just below the lowest one res
    holds: at the top of X the projective cover of X^n, else the cover of
    V = ker [d_X^n | -eps^{n+1}; 0 | d_P^{n+1}], the submodule of
    X^n + P^{n+1} (Green-Solberg-Zacharia, "Minimal projective
    resolutions", Trans. AMS 353, 2001).  eps^n and d_P^n are the
    inclusion of V after its cover, split at the X^n / P^{n+1} row
    boundary.  Each degree is built once, so the cover is not memoised; a
    nonzero P^n is named P^n."""
    x, p = res.of, res.complex
    if n == x.max_degree():
        pn, eps = projective_cover(x.term(n))
        return pn, eps, ModuleMap.zero(pn, p.term(n + 1))
    fld = x.algebra.field
    xt, pt = x.term(n), p.term(n + 1)
    dx, up, dp = x.diff(n), res.maps[n + 1], p.diff(n + 1)
    _, incl = kernel(ModuleMap(sum_module([xt, pt]), sum_module([dx.tgt, dp.tgt]), [
        np.block([[a, fld.neg(e)], [np.zeros((len(c), xt.dims[v]), dtype=np.int16), c]])
        for v, (a, e, c) in enumerate(zip(dx.blocks, up.blocks, dp.blocks))]))
    pn, cover = _projective_cover(incl.src)
    if pn.dim:
        pn.name = f"P^{n}"
    blocks = incl.compose(cover).blocks
    return (pn, ModuleMap(pn, xt, [b[:d] for b, d in zip(blocks, xt.dims)]),
            ModuleMap(pn, pt, [b[d:] for b, d in zip(blocks, xt.dims)]))


def _check_resolution(res: Resolution, degrees=None):
    """Check the comparison maps at the given degrees (default: all):
    eps^n surjective and d_X eps^n = eps^{n+1} d_P^n, and, as degree n is
    built, H^{n+1} of P equal to that of X up to the top of X; over all
    degrees, the quasi-isomorphism at cut + 1 ... max X, which ranks each
    d_P^n once (`Resolution.ranks`)."""
    x, p, ranks = res.of, res.complex, res.ranks
    for n in (res.maps if degrees is None else degrees):
        e = res.maps[n]
        if x.term(n).dim and not e.is_surjective_map():
            raise PresentationError(f"comparison map not surjective at degree {n}")
        lhs = x.diff(n).compose(e)
        upper = res.maps.get(n + 1)
        rhs = upper.compose(p.diff(n)) if upper is not None else None
        if rhs is None:
            if not lhs.is_zero():
                raise PresentationError(f"comparison fails to chain at degree {n}")
        elif not lhs.sub(rhs).is_zero():
            raise PresentationError(f"comparison fails to chain at degree {n}")
        if n >= x.max_degree():
            continue
        for k in (n, n + 1):
            if k not in ranks:
                ranks[k] = p.diffs[k].rank() if k in p.diffs else 0
        if x.cohomology_dim(n + 1) != p.term(n + 1).dim - ranks[n + 1] - ranks[n]:
            raise PresentationError(
                f"resolution is not a quasi-isomorphism at degree {n + 1}")


def _safe_depth(x: Complex, y: Complex, window: tuple[int, int]) -> int:
    """Resolution depth after which dims in the window are exact.

    The cut degree min(X) - depth + 1 is kept at or below min(Y) - b - 2:
    H^n of the total Hom complex, n <= b, reads Hom^{n+1}(P, Y) only at
    positions p >= min(Y) - b - 1, which lie strictly above the cut, where
    the truncated resolution agrees with the full one.
    """
    a, b = window
    return max(x.min_degree() - y.min_degree() + b + 3, 1)


def derived_hom_dims(x, y, window: tuple[int, int],
                     depth: int | None = None) -> tuple[int, ...]:
    """dim Hom_{D^b(A)}(X, Y[i]) for i in the closed window.

    Modules are accepted and placed in degree 0.  A termwise projective X
    goes to `total_hom_dims` as it is; any other X, whatever Y is, is
    replaced by a projective resolution truncated at a safe depth (see
    `_safe_depth`; passing `depth` overrides it, which is only useful for
    the stability assertions in the tests), so the total Hom complex is
    always read in generator coordinates.
    """
    x = as_complex(x)
    y = as_complex(y)
    a, b = window
    if a > b:
        raise PresentationError("empty window")
    if x.is_zero or y.is_zero:
        return (0,) * (b - a + 1)
    if x.is_termwise_projective():
        return total_hom_dims(x, y, window)
    use = depth if depth is not None else _safe_depth(x, y, window)
    res = projective_resolution(x, use)
    return total_hom_dims(res.complex, y, window)


# -- t-structure membership ---------------------------------------------------


def attest_generation(algebra, members: list[Complex]):
    """Best-effort obstruction check for `members` generating D^b.

    Generation as a triangulated category is accepted as an attestation;
    the one thing that can be refuted cheaply is vertex support: taking
    cones, shifts and summands never creates cohomology composition
    factors at a vertex where no member has any.
    """
    seen = set()
    for c in members:
        lo, hi = c.min_degree(), c.max_degree()
        for n in range(lo, hi + 1):
            dims = c.cohomology_vertex_dims(n)
            seen.update(v for v in range(algebra.nvertices) if dims[v])
    missing = [v for v in range(algebra.nvertices) if v not in seen]
    if missing:
        names = ", ".join(algebra.vertices[v] for v in missing)
        raise PresentationError(
            f"family has no cohomology composition factor at vertex {names}; "
            "it cannot generate the derived category")


class Membership:
    """Outcome of a one-sided t-structure membership test."""

    __slots__ = ("side", "ok", "witness", "checked")

    def __init__(self, side, ok, witness, checked):
        self.side = side
        self.ok = ok
        self.witness = witness      # (member name, shift i, dim) or None
        self.checked = checked      # list of (member name, window)


def t_membership(n_obj, members, side: str) -> Membership:
    """Membership of N in the aisle T^{<=0} or T^{>=0} defined by `members`.

    side "le": N is in T^{<=0} iff Hom(N, S[i]) = 0 for all S and i < 0.
    side "ge": N is in T^{>=0} iff Hom(S[i], N) = 0 for all S and i > 0,
    tested as Hom(S, N[-i]).  Both quantifiers are finite: with cohomology
    supports [x1,x2] for N and [y1,y2] for S, the first Hom vanishes for
    i < y1 - x2 and the second for i > y2 - x1, so only the window between
    those bounds and the sign constraint is computed.  Generation by the
    members is attested, not decided; provably non-generating families are
    rejected (see `attest_generation`).
    """
    if side not in ("le", "ge"):
        raise PresentationError("side must be 'le' or 'ge'")
    n_cx = as_complex(n_obj)
    fam = [as_complex(m) for m in (members if isinstance(members, (list, tuple))
                                   else [members])]
    attest_generation(n_cx.algebra, fam)
    supp_n = n_cx.cohomology_support()
    checked = []
    witness = None
    if supp_n:
        for s_cx in fam:
            supp_s = s_cx.cohomology_support()
            if not supp_s:
                continue
            if side == "le":
                lo = min(supp_s) - max(supp_n)
                win = (lo, -1)
                if lo > -1:
                    checked.append((s_cx.name, None))
                    continue
                dims = derived_hom_dims(n_cx, s_cx, win)
                checked.append((s_cx.name, win))
                for i, d in zip(range(win[0], win[1] + 1), dims):
                    if d and witness is None:
                        witness = (s_cx.name, i, d)
            else:
                hi = max(supp_s) - min(supp_n)
                if hi < 1:
                    checked.append((s_cx.name, None))
                    continue
                dims = derived_hom_dims(s_cx, n_cx, (-hi, -1))
                checked.append((s_cx.name, (1, hi)))
                for j, d in zip(range(-hi, 0), dims):
                    if d and witness is None:
                        witness = (s_cx.name, -j, d)
    return Membership(side, witness is None, witness, checked)


# -- Hom patterns and the endomorphism dg-algebra -----------------------------


class HomPatternReport:
    """Dims of Hom_{D^b}(T, C[i]) (kind I) or Hom_{D^b}(C, T[i]) (kind P)
    over all members T, candidates C and shifts i in the forced window,
    with the failures of the delta pattern listed."""

    __slots__ = ("kind", "ok", "dims", "failures", "member_names",
                 "candidate_names")

    def __init__(self, kind, ok, dims, failures, member_names, candidate_names):
        self.kind = kind
        self.ok = ok
        self.dims = dims            # (member idx, candidate idx, shift) -> dim
        self.failures = failures    # (member idx, candidate idx, shift, got, want)
        self.member_names = member_names
        self.candidate_names = candidate_names


def verify_family_pattern(members, candidates, kind: str) -> HomPatternReport:
    """Check the defining delta pattern of a P- or I-family.

    For kind "I" the candidates play the role of I_S(S): the pattern is
    Hom(T_j, C_i[n]) = k exactly when i = j and n = 0.  For kind "P" the
    orientation flips to Hom(C_i, T_j[n]).  Candidates must be termwise
    injective (kind I) or termwise projective (kind P); over a
    self-injective algebra the two conditions agree.  Kind P reads the
    Homs out of the projective candidates directly, kind I through
    `derived_hom_dims`, which resolves every member that is not termwise
    projective.  The shift window outside which all Homs vanish for degree
    reasons is [min C - max T, max C - min T] in term degrees.
    """
    if kind not in ("P", "I"):
        raise PresentationError("kind must be 'P' or 'I'")
    fam = [as_complex(m) for m in members]
    cands = [as_complex(c) for c in candidates]
    if len(fam) != len(cands):
        raise PresentationError("need one candidate per member")
    for c in cands:
        good = c.is_termwise_injective() if kind == "I" \
            else c.is_termwise_projective()
        if not good:
            raise Undecided(
                f"candidate {c.name} is not termwise "
                f"{'injective' if kind == 'I' else 'projective'}")
    dims = {}
    failures = []
    for i, c in enumerate(cands):
        for j, t in enumerate(fam):
            if c.is_zero or t.is_zero:
                if i == j:
                    failures.append((j, i, 0, 0, 1))
                continue
            if kind == "I":
                lo = c.min_degree() - t.max_degree()
                hi = c.max_degree() - t.min_degree()
                got = derived_hom_dims(t, c, (lo, hi))
            else:
                lo = t.min_degree() - c.max_degree()
                hi = t.max_degree() - c.min_degree()
                got = total_hom_dims(c, t, (lo, hi))
            if not (lo <= 0 <= hi) and i == j:
                failures.append((j, i, 0, 0, 1))
            for n, d in zip(range(lo, hi + 1), got):
                dims[(j, i, n)] = d
                want = 1 if (i == j and n == 0) else 0
                if d != want:
                    failures.append((j, i, n, d, want))
    return HomPatternReport(kind, not failures, dims, failures,
                            [m.name for m in fam], [c.name for c in cands])


def endo_dg_cohomology(candidates,
                       window: tuple[int, int] | None = None) -> dict[int, int]:
    """Cohomology dims of the endomorphism dg-algebra of a family.

    With C the direct sum of the candidate complexes, returns degree ->
    dim H^n(Hom(C, C)) over the requested window, defaulting to the forced
    one [min C - max C, max C - min C] outside which everything vanishes.
    The family must be termwise projective or termwise injective: then the
    homotopy-category answer is the derived one and that window is forced.
    The dims are `derived_hom_dims(C, C)`, which resolves C when it is
    not termwise projective.
    """
    cands = [as_complex(c) for c in candidates]
    total = complex_sum(cands, name="End-source")
    if total.is_zero:
        a, b = window if window is not None else (0, 0)
        return {n: 0 for n in range(a, b + 1)}
    if not (total.is_termwise_projective() or total.is_termwise_injective()):
        raise Undecided("endomorphism cohomology needs a termwise projective "
                        "(= injective) family")
    spread = total.max_degree() - total.min_degree()
    win = window if window is not None else (-spread, spread)
    dims = derived_hom_dims(total, total, win)
    return {n: d for n, d in zip(range(win[0], win[1] + 1), dims)}


class NuFamilyResult:
    """Outcome of the Nakayama-stability check of a candidate family."""

    __slots__ = ("status", "matches", "witness", "detail")

    def __init__(self, status, matches, witness, detail):
        self.status = status        # "Stable" | "Not" | "Undecided"
        self.matches = matches      # candidate idx -> matching candidate idx
        self.witness = witness      # failing candidate idx or None
        self.detail = detail


def nu_family_check(candidates) -> NuFamilyResult:
    """Is the family closed under the Nakayama functor, up to isomorphism?

    One-term complexes are handled completely: nu of the term must be
    isomorphic to the term of some candidate concentrated in the same
    degree (a one-term complex is never isomorphic in D^b to a candidate
    whose cohomology occupies more than that one degree).  A genuinely
    multi-term candidate would need nu transported along differentials;
    if one is present and no negative witness was found elsewhere the
    verdict is Undecided rather than guessed.
    """
    cands = [as_complex(c) for c in candidates]
    matches = {}
    witness = None
    undecided = []
    for i, c in enumerate(cands):
        if len(c.terms) != 1:
            undecided.append(i)
            continue
        deg = c.min_degree()
        nu = nakayama_module(c.term(deg))
        found = None
        for j, other in enumerate(cands):
            if len(other.terms) == 1 and other.min_degree() == deg:
                if module_isomorphic(nu, other.term(deg)) is not None:
                    found = j
                    break
        if found is not None:
            matches[i] = found
            continue
        # could nu(c) still be isomorphic to a multi-term candidate?
        possible = [j for j in range(len(cands)) if len(cands[j].terms) > 1
                    and cands[j].cohomology_support() == [deg]]
        if possible:
            undecided.append(i)
        else:
            witness = i
            break
    if witness is not None:
        return NuFamilyResult("Not", matches, witness,
                              f"nu({cands[witness].name}) matches no candidate")
    if undecided:
        return NuFamilyResult("Undecided", matches, None,
                              "multi-term candidates need nu on differentials")
    return NuFamilyResult("Stable", matches, None, "")


# -- towers -------------------------------------------------------------------


class TowerStep:
    """One short exact sequence 0 -> A -> E -> C -> 0 inside a tower.

    `sub` is A -> E, `quot` is E -> C; the layer C is stably isomorphic to
    Omega^d of the recorded member.
    """

    __slots__ = ("sub", "quot", "member", "d")

    def __init__(self, sub, quot, member, d):
        self.sub = sub
        self.quot = quot
        self.member = member
        self.d = int(d)


class Tower:
    """A filtration of `top` by short exact sequences with 𝒮-layers.

    Steps are listed from the top down: steps[0] presents the top module
    as an extension of its first layer by the rest, and each next step
    presents the previous submodule.  Seams are literal when consecutive
    modules coincide, and are allowed to be merely stably isomorphic
    (reordering cancellations create such seams; `tower_truncate` restores
    literal seams with projective padding before composing inclusions).
    The bottom submodule must be stably zero.
    """

    __slots__ = ("algebra", "members", "steps", "top")

    def __init__(self, algebra, members, steps, top):
        self.algebra = algebra
        self.members = tuple(members)
        self.steps = list(steps)
        self.top = top
        if self.steps and self.steps[0].sub.tgt.key != top.key:
            raise PresentationError("top module disagrees with the first step")

    def d_list(self) -> list[int]:
        return [s.d for s in self.steps]

    def layer_multiset(self) -> tuple:
        return tuple(sorted((s.member, s.d) for s in self.steps))

    def verify(self) -> list[str]:
        """Certify the tower; returns a list of problems, empty when valid."""
        _gate(self.algebra)
        problems = []
        for j, st in enumerate(self.steps):
            if not is_exact_pair(st.sub, st.quot):
                problems.append(f"step {j} is not a short exact sequence")
                continue
            if stably_isomorphic(st.quot.tgt, syzygy(self.members[st.member], st.d)) is None:
                problems.append(
                    f"step {j} layer is not stably Omega^{st.d} of member {st.member}")
        for j in range(len(self.steps) - 1):
            up, low = self.steps[j], self.steps[j + 1]
            if low.sub.tgt.key == up.sub.src.key:
                continue
            if stably_isomorphic(low.sub.tgt, up.sub.src) is None:
                problems.append(f"seam {j} is broken")
        bottom = self.steps[-1].sub.src if self.steps else self.top
        if stable_core(bottom)[0].dim:
            problems.append("bottom of the tower is not stably zero")
        return problems


def random_tower(algebra, members, length: int, seed: int = 0,
                 d_range: tuple[int, int] = (-2, 3),
                 split_only: bool = False) -> Tower:
    """Build a tower by realizing random extension classes bottom-up.

    Each layer is a syzygy shift of a random member; the next ambient
    module realizes a random class of Ext^1(layer, current), or the split
    class when `split_only` is set.  Seams are literal by construction and
    the bottom is the zero module.
    """
    _gate(algebra)
    rng = random.Random(seed)
    cur = zero_module(algebra)
    steps: list[TowerStep] = []
    fld = algebra.field
    for _ in range(length):
        m_idx = rng.randrange(len(members))
        d = rng.randint(*d_range)
        layer = syzygy(members[m_idx], d)
        if layer.dim == 0:
            continue
        ext = ext1(layer, cur)
        if ext.dim and not split_only:
            coeffs = [rng.randrange(fld.q) for _ in range(ext.dim)]
            g = combine(ext.reps, coeffs)
        else:
            g = ModuleMap.zero(ext.k, ext.n)
        e_mod, mono, epi = ext.realize(g)
        steps.insert(0, TowerStep(mono, epi, m_idx, d))
        cur = e_mod
    return Tower(algebra, members, steps, cur)


def _stable_transfer(src: Module, tgt: Module) -> ModuleMap:
    """A module map src -> tgt that is an isomorphism in the stable category:
    the kept summands of both stable cores matched, zero on projective ones."""
    psi = match_summands(src, tgt, stable_core(src)[1], stable_core(tgt)[1])
    if psi is None:
        raise PresentationError("seam modules are not stably isomorphic")
    return psi


def _relink_pair(upper: TowerStep, lower: TowerStep):
    """Restore a literal seam between two steps, padding with an injective.

    The lower ambient E is stably isomorphic to the upper submodule A; the
    mono E -> A + I(E) built from a stable transfer plus the hull embedding
    replaces the lower ambient, and the upper step absorbs the same padding
    so the seam becomes literal.  Cones change only by projective-injective
    summands, which the stable certificates ignore.
    """
    e_low = lower.sub.tgt
    a_up = upper.sub.src
    psi = _stable_transfer(e_low, a_up)
    hull, iota = injective_hull(e_low)
    padded, (i_a, i_h), (p_a, p_h) = _sum2(a_up, hull)
    phi = i_a.compose(psi).add(i_h.compose(iota))
    new_sub = phi.compose(lower.sub)
    _, new_quot = cokernel(new_sub, name=f"{lower.quot.tgt.name}~")
    new_lower = TowerStep(new_sub, new_quot, lower.member, lower.d)
    amb, (j_e, j_h), (q_e, _) = _sum2(upper.sub.tgt, hull)
    up_sub = j_e.compose(upper.sub).compose(p_a).add(j_h.compose(p_h))
    up_quot = upper.quot.compose(q_e)
    new_upper = TowerStep(up_sub, up_quot, upper.member, upper.d)
    return new_upper, new_lower


def _pair_analysis(upper: TowerStep, lower: TowerStep):
    """Resolve one ordering violation (upper.d < lower.d) between steps.

    The middle layer T = E_up / A_low is an extension of the upper cone by
    the lower cone; its class lives in a stable Hom space that the family
    hypotheses force to be zero (then the extension splits and the layers
    swap) or, when lower.d = upper.d + 1 on the same member, spanned by a
    stable isomorphism (then the pair cancels).  Anything else means the
    tower data contradicts the hypotheses.
    """
    g = upper.sub.compose(lower.sub)              # A_low -> E_up
    t_mid, proj_t = cokernel(g, name="mid")
    m = factor_through_surjection(lower.quot, proj_t.compose(upper.sub))
    b = factor_through_surjection(proj_t, upper.quot)
    if not is_exact_pair(m, b):
        raise PresentationError("middle layer failed to assemble")
    ext = ext1(b.tgt, m.src)
    cls = ses_class(ext, m, b)
    if np.any(cls):
        same = upper.member == lower.member
        if lower.d != upper.d + 1 or not same:
            raise PresentationError(
                "tower extension class violates the stable Hom hypotheses")
        return "cancel", None
    # split: a section of b, then pull the complementary submodule back,
    # the kernel of E_up -> T_mid -> T_mid / im(section)
    section = lift_through_surjection(b, ModuleMap.identity(b.tgt))
    _, incl = kernel(cokernel(section)[1].compose(proj_t), name="swap-sub")
    _, proj_new = cokernel(incl, name="swap-layer")
    new_upper = TowerStep(incl, proj_new, lower.member, lower.d)
    sub2 = factor_through_injection(incl, g)
    quot2 = upper.quot.compose(incl)
    new_lower = TowerStep(sub2, quot2, upper.member, upper.d)
    return "swap", (new_upper, new_lower)


class ReorderResult:
    __slots__ = ("tower", "cancelled", "swaps")

    def __init__(self, tower, cancelled, swaps):
        self.tower = tower
        self.cancelled = cancelled  # list of ((member, d), (member, d))
        self.swaps = swaps


def tower_reorder(tower: Tower) -> ReorderResult:
    """Sort the layer shifts non-increasingly from the top.

    Adjacent violations are repaired by the split-swap or the iso-cancel
    move of `_pair_analysis`; cancelled pairs are reported.  Seams touched
    by a cancellation stay stable rather than literal and are re-padded
    lazily when a later move needs to compose across them.  The ambient
    modules may grow by projective-injective summands in the process, so
    the result represents the original top only up to stable isomorphism.
    """
    steps = list(tower.steps)
    floor = steps[-1].sub.src if steps else tower.top
    cancelled = []
    swaps = 0
    i = 0
    while i + 1 < len(steps):
        if steps[i].d >= steps[i + 1].d:
            i += 1
            continue
        if steps[i + 1].sub.tgt.key != steps[i].sub.src.key:
            steps[i], steps[i + 1] = _relink_pair(steps[i], steps[i + 1])
        verdict, payload = _pair_analysis(steps[i], steps[i + 1])
        if verdict == "cancel":
            cancelled.append(((steps[i].member, steps[i].d),
                              (steps[i + 1].member, steps[i + 1].d)))
            del steps[i: i + 2]
        else:
            steps[i: i + 2] = list(payload)
            swaps += 1
        i = max(i - 1, 0)
    top = steps[0].sub.tgt if steps else floor
    out = Tower(tower.algebra, tower.members, steps, top)
    problems = out.verify()
    if problems:
        raise PresentationError("reordered tower failed certification: "
                                + "; ".join(problems))
    return ReorderResult(out, cancelled, swaps)


class Truncation:
    """The triangle M -> N -> L split off a reordered tower.

    `sub_tower` filters M by the layers with d <= 0 and `quot_tower`
    filters L by those with d > 0; `incl` and `proj` are the module maps
    M -> N and N -> L, with L literally the cokernel of the inclusion.
    `ambient` is N itself (possibly padded by projective-injective
    summands while making seams literal).
    """

    __slots__ = ("sub_tower", "incl", "quot_tower", "proj", "ambient", "split")

    def __init__(self, sub_tower, incl, quot_tower, proj, ambient, split):
        self.sub_tower = sub_tower
        self.incl = incl
        self.quot_tower = quot_tower
        self.proj = proj
        self.ambient = ambient
        self.split = split


def tower_truncate(tower: Tower) -> Truncation:
    """Split a tower at the sign change of d into a triangle M -> N -> L.

    The tower is reordered first when needed.  With s the number of layers
    with d > 0, M is the submodule reached after the first s inclusions
    (an iterated extension of the d <= 0 layers, so M lies in T^{<=0}) and
    L = N/M carries the remaining layers (all d > 0, so L lies in T^{>0}).
    When every d is positive M is stably zero; when every d is <= 0 the
    quotient L is zero.
    """
    if any(tower.steps[j].d < tower.steps[j + 1].d
           for j in range(len(tower.steps) - 1)):
        tower = tower_reorder(tower).tower
    steps = list(tower.steps)
    for j in range(len(steps) - 2, -1, -1):
        if steps[j + 1].sub.tgt.key != steps[j].sub.src.key:
            steps[j], steps[j + 1] = _relink_pair(steps[j], steps[j + 1])
    top = steps[0].sub.tgt if steps else tower.top
    algebra = tower.algebra
    split = sum(1 for st in steps if st.d > 0)
    if split == 0:
        incl = ModuleMap.identity(top)
        m_mod = top
    else:
        incl = steps[0].sub
        for j in range(1, split):
            incl = incl.compose(steps[j].sub)
        m_mod = incl.src
    sub_tower = Tower(algebra, tower.members, steps[split:], m_mod)
    # quotient tower: push every upper ambient down by the image of M
    kappa = {split - 1: steps[split - 1].sub} if split else {}
    for j in range(split - 2, -1, -1):
        kappa[j] = steps[j].sub.compose(kappa[j + 1])
    quots = {}
    for j in range(split):
        quots[j] = cokernel(kappa[j], name=f"upper{j}")
    zmod = zero_module(algebra)
    quots[split] = (zmod, ModuleMap.zero(m_mod, zmod))
    upper_steps = []
    for j in range(split):
        q_mod, q_proj = quots[j]
        nxt_mod, nxt_proj = quots[j + 1]
        subu = factor_through_surjection(nxt_proj,
                                         q_proj.compose(steps[j].sub))
        quotu = factor_through_surjection(q_proj, steps[j].quot)
        upper_steps.append(TowerStep(subu, quotu, steps[j].member, steps[j].d))
    if split:
        l_mod, proj = quots[0]
    else:
        l_mod, proj = zmod, ModuleMap.zero(top, zmod)
    quot_tower = Tower(algebra, tower.members, upper_steps, l_mod)
    return Truncation(sub_tower, incl, quot_tower, proj, top, split)


class SideReport:
    __slots__ = ("side", "ok", "problems")

    def __init__(self, side, ok, problems):
        self.side = side
        self.ok = ok
        self.problems = problems


def tower_side_check(tower: Tower, side: str) -> SideReport:
    """Aisle membership of a tower's top read off its layer shifts.

    A layer stably Omega^d S sits in T^{<=0} when d <= 0 and in T^{>0}
    when d > 0, and both aisles are closed under extensions, so a valid
    tower whose shifts all have the right sign certifies membership of
    its top.  side "le" demands d <= 0 everywhere, side "gt" d > 0.
    """
    if side not in ("le", "gt"):
        raise PresentationError("side must be 'le' or 'gt'")
    problems = tower.verify()
    for j, st in enumerate(tower.steps):
        if side == "le" and st.d > 0:
            problems.append(f"layer {j} has d = {st.d} > 0")
        if side == "gt" and st.d <= 0:
            problems.append(f"layer {j} has d = {st.d} <= 0")
    return SideReport(side, not problems, problems)
