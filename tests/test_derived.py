"""Derived layer: complexes, resolutions, t-structure tests, towers."""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np
import pytest
from test_modules import pullback, scrambled, stream_module

from stabrec import derived, fixtures, io
from stabrec.errors import PresentationError, Undecided
from stabrec.modules import (
    ModuleMap,
    _projective_cover,
    cokernel,
    direct_sum,
    ext1,
    hom_space,
    injective_hull,
    is_exact_pair,
    kernel,
    projective_cover,
    quotient,
    radical_series,
    zero_module,
)
from stabrec.stable import stable_core, stable_hom, stably_isomorphic, syzygy
from stabrec.derived import (
    _check_resolution,
    _safe_depth,
    Complex,
    Resolution,
    Tower,
    TowerStep,
    as_complex,
    attest_generation,
    complex_sum,
    derived_hom_dims,
    endo_dg_cohomology,
    nu_family_check,
    projective_resolution,
    random_tower,
    t_membership,
    total_hom_dims,
    tower_reorder,
    tower_side_check,
    tower_truncate,
    verify_family_pattern,
)


@pytest.fixture(scope="module")
def lam():
    return fixtures.load("lambda4")


@pytest.fixture(scope="module")
def n3():
    return fixtures.load("n3")


def jordan(n3, i):
    p = n3.projective(0)
    rows = radical_series(p)[i][0]
    pad = np.zeros((rows.shape[0], p.dim), dtype=np.int16)
    pad[:, : rows.shape[1]] = rows
    return quotient(p, pad, name=f"J{i}")[0]


def two_term(lam):
    """P(u) -> P(v) in degrees -1, 0; cohomology is S(v) in both degrees."""
    pu, pv = lam.projective(0), lam.projective(1)
    d = hom_space(pu, pv)[0]
    return Complex(lam, {-1: pu, 0: pv}, {-1: d}, name="I(U)")


def small_family(lam):
    """Two-member family {S(u), P(u)[1]} with its aligned injective candidates."""
    members = [as_complex(lam.simple(0)), as_complex(lam.projective(0), degree=-1)]
    cands = [two_term(lam), as_complex(lam.projective(0), degree=-1)]
    return members, cands


def test_complex_rejects_nonvanishing_dd(lam):
    pu = lam.projective(0)
    ident = ModuleMap.identity(pu)
    with pytest.raises(PresentationError):
        Complex(lam, {0: pu, 1: pu, 2: pu}, {0: ident, 1: ident})


def test_complex_shift_and_cohomology(lam):
    iu = two_term(lam)
    assert iu.cohomology_dims() == {-1: 1, 0: 1}
    assert iu.min_degree() == -1 and iu.max_degree() == 0
    sh = iu.shift(1)
    assert sh.cohomology_dims() == {-2: 1, -1: 1}
    # odd shifts negate the differential
    neg = lam.field.neg(1)
    want = iu.diff(-1).scale(neg)
    got = sh.diff(-2)
    assert np.array_equal(got.flat(), want.flat())
    assert sh.shift(-1).cohomology_dims() == iu.cohomology_dims()
    assert iu.shift(2).cohomology_dims() == {-3: 1, -2: 1}
    # a degree between the terms has no term and no cohomology
    gap = Complex(lam, {-1: lam.projective(0), 1: lam.simple(0)}, {}, name="gap")
    assert [gap.cohomology_vertex_dims(n) for n in (-1, 0, 1)] == [(1, 1), (0, 0), (1, 0)]


def test_complex_sum_adds_cohomology(lam):
    iu = two_term(lam)
    s = complex_sum([iu, as_complex(lam.simple(0))])
    assert s.cohomology_dims() == {-1: 1, 0: 2}
    assert s.term(0).dim == iu.term(0).dim + 1


def test_zero_complex(lam):
    z = as_complex(zero_module(lam, "0"))
    assert z.is_zero
    assert z.cohomology_dims() == {}
    assert derived_hom_dims(z, lam.simple(0), (-1, 1)) == (0, 0, 0)
    assert derived_hom_dims(lam.simple(0), z, (-1, 1)) == (0, 0, 0)
    res = projective_resolution(z, 2)
    assert res.complex.is_zero and res.maps == {} and res.cut == 0 and res.of is z
    # the endomorphism cohomology of a zero family is zero on any window
    assert endo_dg_cohomology([z, z]) == {0: 0}
    assert endo_dg_cohomology([z], window=(-1, 2)) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_total_hom_projective_pair(lam):
    pu, pv = as_complex(lam.projective(0)), as_complex(lam.projective(1))
    assert total_hom_dims(pu, pv, (-1, 1)) == (0, 1, 0)
    # shifting the target slides the answer
    assert total_hom_dims(pu, pv.shift(1), (-2, 0)) == (0, 1, 0)


def test_total_hom_rejects_a_differential_that_does_not_square_to_zero(lam):
    pu = lam.projective(0)
    ident = ModuleMap.identity(pu)
    x = Complex(lam, {0: pu, 1: pu, 2: pu}, {0: ident, 1: ident}, check=False)
    with pytest.raises(PresentationError, match="does not square to zero"):
        total_hom_dims(x, as_complex(pu), (-1, -1))


def _reference_total_hom_dims(x, y, window):
    """dim H^n of Hom(X, Y) with D applied to one hom_space map at a time
    and each Hom^{n+1} element read as its global matrices."""
    fld = x.algebra.field

    def basis(n):
        return [(p, h) for p in x.degrees() if p + n in y.terms
                for h in hom_space(x.term(p), y.term(p + n))]

    def rank_d(n):
        targets = [q for q in x.degrees() if q + n + 1 in y.terms]
        rows = []
        for p, h in basis(n):
            img = {q: ModuleMap.zero(x.term(q), y.term(q + n + 1)) for q in targets}
            if p in img:
                img[p] = img[p].add(y.diff(p + n).compose(h))
            if p - 1 in img:
                tail = h.compose(x.diff(p - 1))
                img[p - 1] = img[p - 1].add(tail if n % 2 else tail.scale(fld.neg(1)))
            rows.append(np.concatenate([np.zeros(0, dtype=np.int16)]
                                       + [f.global_matrix().ravel() for f in img.values()]))
        return fld.rank(np.array(rows)) if rows and rows[0].size else 0

    a, b = window
    return tuple(len(basis(n)) - rank_d(n) - rank_d(n - 1) for n in range(a, b + 1))


@pytest.mark.parametrize("name", ["lambda4", "nak3", "ka4"])
def test_total_hom_matches_per_map_reference(name):
    # two-term complexes: P(0) -> P(1) in degrees -1, 0, the hull
    # S(0) -> I(S(0)) in degrees 0, 1 and the contractible P(0) = P(0),
    # against each other and shifted; d_Y g d_X != 0 for the last, so a
    # sign of D that ignores n fails the D o D = 0 guard outside char 2.
    # b is not termwise projective: out of it the Homs are derived ones
    # (the source resolved), which the homotopy Homs of the reference equal
    # only into a termwise injective target, and total_hom_dims refuses it
    alg = fixtures.load(name)
    p0, p1 = alg.projective(0), alg.projective(1)
    a = Complex(alg, {-1: p0, 0: p1}, {-1: hom_space(p0, p1)[0]}, name="a")
    hull, iota = injective_hull(alg.simple(0))
    b = Complex(alg, {0: alg.simple(0), 1: hull}, {0: iota}, name="b")
    c = Complex(alg, {-1: p0, 0: p0}, {-1: ModuleMap.identity(p0)}, name="c")
    seen = set()
    pairs = [*itertools.product((a, c), (a, b, c)), (a.shift(1), b),
             (b, a), (b, c), (b, a.shift(-1))]
    for x, y in pairs:
        dims = total_hom_dims if x is not b else derived_hom_dims
        got = dims(x, y, (-3, 3))
        assert got == _reference_total_hom_dims(x, y, (-3, 3))
        seen.update(n % 2 for n, d in zip(range(-3, 4), got) if d)
    assert seen == {0, 1}
    with pytest.raises(PresentationError, match="termwise projective"):
        total_hom_dims(b, b, (-3, 3))


@pytest.mark.parametrize("name", ["lambda4", "nak3", "ka4"])
def test_total_hom_out_of_resolutions_matches_per_map_reference(name):
    # generator coordinates against per-map global matrices: the depth-3
    # resolution of each simple into each simple, projective and resolution
    alg = fixtures.load(name)
    simples = fixtures.simples(alg)
    res = [projective_resolution(as_complex(s), 3).complex for s in simples]
    for x, j in itertools.product(res, range(len(simples))):
        for y in (as_complex(simples[j]), as_complex(alg.projective(j)), res[j]):
            assert total_hom_dims(x, y, (-2, 2)) == _reference_total_hom_dims(x, y, (-2, 2))


def test_derived_hom_frozen_lambda4(lam):
    su, sv = lam.simple(0), lam.simple(1)
    assert derived_hom_dims(su, su, (-2, 2)) == (0, 0, 1, 0, 1)
    assert derived_hom_dims(su, sv, (0, 1)) == (0, 1)
    # negative shifts of modules never map anywhere
    assert derived_hom_dims(su, sv, (-5, -4)) == (0, 0)


def test_derived_hom_projective_fast_path(lam):
    pu = lam.projective(0)
    su = lam.simple(0)
    assert derived_hom_dims(pu, su, (-1, 2)) == (0, 1, 0, 0)
    # the resolution route agrees with the termwise-projective shortcut
    res = projective_resolution(as_complex(su), 4)
    w = (-1, 2)
    via_res = total_hom_dims(res.complex, as_complex(lam.projective(1)), w)
    assert via_res == derived_hom_dims(su, lam.projective(1), w)


def test_derived_and_endo_dims_of_a_cube_are_nine_times():
    # ka4 with X the sum of the syzygies of its simples: Hom is additive in
    # each variable, so X^3 has 9 times and X^4 16 times the derived Hom and
    # endomorphism cohomology dims of X (for X^4, Hom out of resolution
    # terms up to (80, 80, 80))
    alg = fixtures.load("ka4")
    x = direct_sum([syzygy(s, 1) for s in fixtures.simples(alg)], name="X")[0]

    def dims(m):
        res = projective_resolution(as_complex(m), 2)
        endo = endo_dg_cohomology([res.complex])
        return derived_hom_dims(m, m, (-3, 3)), tuple(endo[n] for n in sorted(endo))

    hom1, endo1 = dims(x)
    assert hom1 == (0, 0, 0, 9, 6, 9, 12) and endo1 == (18, 48, 18)
    for k in (3, 4):
        hom, endo = dims(direct_sum([x] * k, name=f"X^{k}")[0])
        assert hom == tuple(k * k * d for d in hom1)
        assert endo == tuple(k * k * d for d in endo1)


def test_safe_depth_is_the_cut_bound():
    # module to module over the window (-3, 3): the cut bound asks for 6
    # terms, and 3 more change no answer (ka4 X and X^2, X the sum of the
    # syzygies of the simples; every ordered pair of lambda4 or n3 simples)
    ka4 = fixtures.load("ka4")
    x = direct_sum([syzygy(s, 1) for s in fixtures.simples(ka4)], name="X")[0]
    pairs = [(x, x), (direct_sum([x, x], name="X^2")[0],) * 2]
    for name in ("lambda4", "n3"):
        pairs += list(itertools.product(fixtures.simples(fixtures.load(name)), repeat=2))
    w = (-3, 3)
    for m, n in pairs:
        depth = _safe_depth(as_complex(m), as_complex(n), w)
        assert depth == 6
        assert derived_hom_dims(m, n, w) == derived_hom_dims(m, n, w, depth=depth + 3)


def test_resolution_period_two(lam):
    su = lam.simple(0)
    res = projective_resolution(as_complex(su), 3)
    assert sorted(res.complex.degrees()) == [-2, -1, 0]
    assert all(res.complex.term(n).dim == 2 for n in (-2, -1, 0))
    # covers alternate between the two indecomposable projectives
    assert len(hom_space(res.complex.term(0), su)) == 1
    assert len(hom_space(res.complex.term(-1), su)) == 0
    assert len(hom_space(res.complex.term(-2), su)) == 1
    assert res.cut == -2


def test_resolution_of_projective_is_itself(lam):
    pu = lam.projective(0)
    res = projective_resolution(as_complex(pu), 3)
    assert res.complex.degrees() == [0]
    assert res.complex.term(0).dims == pu.dims
    assert res.maps[0].is_iso()


def test_resolution_quasi_iso_above_cut(lam):
    iu = two_term(lam)
    res = projective_resolution(iu, 3)
    assert res.cut == iu.min_degree() - 3 + 1
    want = iu.cohomology_dims()
    got = res.complex.cohomology_dims()
    for n in range(res.cut + 1, iu.max_degree() + 1):
        assert got.get(n, 0) == want.get(n, 0)


def _reference_resolution(x, depth):
    """The resolution as pullbacks build it: on top of the cover of the
    highest term, each next term covers the pullback of d_X against the
    comparison map restricted to the cycles of P (covers built afresh,
    not taken from the memo)."""
    algebra = x.algebra
    top, cut = x.max_degree(), x.min_degree() - depth + 1
    pterms, pdiffs, eps = {}, {}, {}
    pterms[top], eps[top] = _projective_cover(x.term(top))
    for n in range(top - 1, cut - 1, -1):
        d_up = pdiffs.get(n + 1) or ModuleMap.zero(
            pterms[n + 1], pterms.get(n + 2, zero_module(algebra)))
        _, zincl = kernel(d_up)
        v, px, pz = pullback(x.diff(n), eps[n + 1].compose(zincl))
        pterms[n], cover = _projective_cover(v)
        eps[n] = px.compose(cover)
        pdiffs[n] = zincl.compose(pz).compose(cover)
    return Resolution(Complex(algebra, pterms, pdiffs, name=f"P({x.name})"), eps, cut, x)


def _fresh(name):
    """A fixture loaded anew, so that its memo holds no resolution yet."""
    return io.load_algebra(json.loads(fixtures.fixture_text(name)))


def _count_builds(monkeypatch):
    """(content key of the complex, degree) of every degree built from now on."""
    built = []
    build = derived._build_degree

    def counted(res, n):
        built.append((derived._content_key(res.of), n))
        return build(res, n)
    monkeypatch.setattr(derived, "_build_degree", counted)
    return built


@pytest.mark.parametrize("name", fixtures.CORPUS + fixtures.EXTRAS)
def test_resolutions_match_the_pullback_reference(name, monkeypatch):
    # every simple, and ka4's X (the sum of the syzygies of its simples)
    # and lambda4's two-term complex, at depths 8, 3 and 11 in that order:
    # the second call truncates the kept resolution and builds nothing,
    # the third extends it by 3 degrees; each answer has the reference's
    # term dims and Hom dims into every simple and projective, and passes
    # every resolution check
    alg = _fresh(name)
    sources = [as_complex(s) for s in fixtures.simples(alg)]
    if name == "ka4":
        x = direct_sum([syzygy(s, 1) for s in fixtures.simples(alg)], name="X")[0]
        sources.append(as_complex(x))
    if name == "lambda4":
        sources.append(two_term(alg))
    targets = [as_complex(m) for v in range(alg.nvertices)
               for m in (alg.simple(v), alg.projective(v))]
    built = _count_builds(monkeypatch)
    for x in sources:
        top, bottom = x.max_degree(), x.min_degree()
        for depth, new in ((8, top - bottom + 8), (3, 0), (11, 3)):
            before = len(built)
            res = projective_resolution(x, depth)
            assert len(built) - before == new
            ref = _reference_resolution(x, depth)
            assert res.cut == ref.cut == bottom - depth + 1
            assert res.of is x and res.complex.name == f"P({x.name})"
            assert sorted(res.maps) == list(range(res.cut, top + 1))
            assert [res.complex.term(n).dims for n in res.maps] \
                == [ref.complex.term(n).dims for n in res.maps]
            _check_resolution(res)
            w = (-top - 1, -res.cut + 1)
            for y in targets:
                assert total_hom_dims(res.complex, y, w) == total_hom_dims(ref.complex, y, w)


def _pinned_resolutions(name):
    """Depth-4 resolutions over a fresh copy of the fixture of: the simples,
    the injectives, Omega^{+-1} of the simples and two random tower tops
    where the algebra is self-injective, three scrambled stream modules,
    and on lambda4 the two-term complex P(u) -> P(v)."""
    alg = _fresh(name)
    sset = fixtures.simples(alg)
    mods = sset + [alg.injective(v) for v in range(alg.nvertices)]
    if alg.self_injectivity().ok:
        mods += [syzygy(s, d) for d in (1, -1) for s in sset]
        mods += [random_tower(alg, sset, 3, seed=seed).top for seed in (1, 2)]
    mods += [scrambled(stream_module(alg, seed), seed) for seed in (1, 2, 3)]
    cxs = [as_complex(m) for m in mods] + ([two_term(alg)] if name == "lambda4" else [])
    return [projective_resolution(x, 4) for x in cxs]


def _resolution_digest(resolutions) -> str:
    """sha256 over each degree n of each resolution: the name, dims and key
    of P^n (the source of eps^n, a zero term included), then the shape and
    bytes of every block of eps^n and of d_P^n."""
    h = hashlib.sha256()
    for res in resolutions:
        for n in sorted(res.maps):
            pn = res.maps[n].src
            h.update(f"{n}|{pn.name}|{pn.dims}|".encode() + pn.key)
            for b in res.maps[n].blocks + res.complex.diff(n).blocks:
                h.update(f"{b.shape}".encode() + b.tobytes())
    return h.hexdigest()[:16]


RESOLUTION_DIGESTS = {
    "lambda4": "1b405ca8c3157930", "n3": "0f5f4ad8025e2cda", "kx2": "dfbf592b76061186",
    "nak3": "b6751528a3ac6c33", "ka4": "9e2519fe4dabcd68", "a2": "a3ed6f74f1b8cc7c",
    "staircase": "b7e7dd31a460846d",
}


@pytest.mark.parametrize("name", fixtures.CORPUS + fixtures.EXTRAS)
def test_resolutions_keep_their_bytes(name):
    # every term name (P^n, the top's P(X^n), a zero term's "0"), term key
    # and comparison and differential block, as first pinned
    assert _resolution_digest(_pinned_resolutions(name)) == RESOLUTION_DIGESTS[name]


def test_kind_i_pattern_builds_each_member_once(monkeypatch):
    # nak3's simples against its injectives: each simple is resolved at
    # depth 3 once, and the other two candidates read its kept resolution
    alg = _fresh("nak3")
    simples = fixtures.simples(alg)
    injectives = [as_complex(alg.injective(v)) for v in range(alg.nvertices)]
    built = _count_builds(monkeypatch)
    assert verify_family_pattern(simples, injectives, "I").ok
    assert sorted(built) == sorted((s.key, n) for s in simples for n in (0, -1, -2))


def test_deeper_derived_hom_extends_the_kept_resolution(monkeypatch):
    alg = _fresh("lambda4")
    s = alg.simple(0)
    built = _count_builds(monkeypatch)
    w = (-3, 3)
    base = derived_hom_dims(s, s, w, depth=8)
    assert len(built) == 8
    assert derived_hom_dims(s, s, w, depth=11) == base
    assert [n for _, n in built[8:]] == [-8, -9, -10]


def test_kept_resolutions_are_read_only():
    alg = _fresh("lambda4")
    res = projective_resolution(two_term(alg), 4)
    p = res.complex
    arrays = [b for d in p.diffs.values() for b in d.blocks if b.size]
    arrays += [b for e in res.maps.values() for b in e.blocks if b.size]
    arrays += [a for m in p.terms.values() for a in m.mats if a.size]
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError):
            a[0, 0] = 1
    # a later call shares them
    again = projective_resolution(two_term(alg), 2)
    assert again.maps[0] is res.maps[0]


def test_derived_depth_stability(lam):
    su, sv = lam.simple(0), lam.simple(1)
    w = (-2, 2)
    base = derived_hom_dims(su, sv, w, depth=6)
    for extra in (7, 8, 9):
        assert derived_hom_dims(su, sv, w, depth=extra) == base


def test_derived_shift_law(lam):
    su, sv = lam.simple(0), lam.simple(1)
    shifted = as_complex(sv).shift(1)
    assert derived_hom_dims(su, shifted, (-1, 1)) == derived_hom_dims(su, sv, (0, 2))


def test_derived_window_validation(lam):
    su = lam.simple(0)
    with pytest.raises(PresentationError):
        derived_hom_dims(su, su, (1, 0))


def test_derived_matches_ext_groups(n3):
    j1, j2 = jordan(n3, 1), jordan(n3, 2)
    for a in (j1, j2):
        for b in (j1, j2):
            dims = derived_hom_dims(a, b, (-3, 3))
            assert dims[:3] == (0, 0, 0)
            assert dims[3] == len(hom_space(a, b))
            for i in (1, 2, 3):
                assert dims[3 + i] == stable_hom(syzygy(a, i), b).dim
            assert ext1(a, b).dim == dims[4]


def test_orthogonality_of_cohomology_signs(n3):
    # H(X) lives in degrees <= 0 and H(Y) in degrees >= 1, so no maps survive
    j1, j2 = jordan(n3, 1), jordan(n3, 2)
    x = Complex(n3, {-1: j2, 0: j1}, {-1: hom_space(j2, j1)[0]}, name="X")
    y = Complex(n3, {1: j1, 2: j2}, {1: hom_space(j1, j2)[0]}, name="Y")
    assert x.cohomology_dims() == {-1: 1, 0: 0}
    assert y.cohomology_dims() == {1: 0, 2: 1}
    assert derived_hom_dims(x, y, (-1, 0)) == (0, 0)
    simples = fixtures.simples(n3)
    assert t_membership(x, simples, "le").ok
    assert not t_membership(x, simples, "ge").ok
    assert t_membership(y, simples, "ge").ok
    assert not t_membership(y, simples, "le").ok


def test_membership_module_and_shifts(lam):
    members = fixtures.simples(lam)
    su = as_complex(lam.simple(0))
    assert t_membership(su, members, "le").ok
    assert t_membership(su, members, "ge").ok
    up = su.shift(1)
    assert t_membership(up, members, "le").ok
    assert not t_membership(up, members, "ge").ok
    dn = su.shift(-1)
    r = t_membership(dn, members, "le")
    assert not r.ok
    assert r.witness == ("S(u)", -1, 1)
    assert t_membership(dn, members, "ge").ok
    # a member with no cohomology bounds nothing and is not checked
    p = lam.projective(0)
    cone = Complex(lam, {0: p, 1: p}, {0: ModuleMap.identity(p)}, name="cone")
    assert cone.cohomology_support() == []
    for side in ("le", "ge"):
        with_cone = t_membership(dn, members + [cone], side)
        alone = t_membership(dn, members, side)
        assert (with_cone.ok, with_cone.witness, with_cone.checked) == \
            (alone.ok, alone.witness, alone.checked)


def test_membership_two_term_candidate(lam):
    members, cands = small_family(lam)
    assert t_membership(cands[0], members, "ge").ok
    # Hom(I(U), P(u)[1][-1]) = Hom(P(v), P(u)) is one-dimensional, so not in the
    # left aisle
    assert not t_membership(cands[0], members, "le").ok


def test_attest_generation(lam):
    attest_generation(lam, [as_complex(s) for s in fixtures.simples(lam)])
    with pytest.raises(PresentationError, match="v"):
        attest_generation(lam, [as_complex(lam.simple(0))])


def test_pattern_small_family(lam):
    members, cands = small_family(lam)
    rep = verify_family_pattern(members, cands, "I")
    assert rep.ok and not rep.failures
    assert rep.dims[(0, 0, 0)] == 1
    assert rep.dims[(1, 1, 0)] == 1
    assert all(v == 0 for (j, i, n), v in rep.dims.items() if (j, i, n) != (j, j, 0))


def test_pattern_swapped_candidates_fail(lam):
    members, cands = small_family(lam)
    rep = verify_family_pattern(members, list(reversed(cands)), "I")
    assert not rep.ok
    assert (0, 0, 0, 0, 1) in rep.failures


def test_pattern_simples_on_each_fixture():
    for name in ("lambda4", "n3", "kx2"):
        alg = fixtures.load(name)
        simples = fixtures.simples(alg)
        hulls = [as_complex(injective_hull(s)[0]) for s in simples]
        covers = [as_complex(projective_cover(s)[0]) for s in simples]
        assert verify_family_pattern(simples, hulls, "I").ok, name
        assert verify_family_pattern(simples, covers, "P").ok, name


def test_pattern_requires_termwise_condition(lam):
    su = as_complex(lam.simple(0))
    with pytest.raises(Undecided):
        verify_family_pattern([su], [su], "I")


def test_endo_two_term_family(lam):
    _, cands = small_family(lam)
    dims = endo_dg_cohomology(cands)
    # both degree -1 classes survive: composing the two arrows lands in the
    # relations, so the differential out of degree -1 vanishes
    assert dims[-1] == 2
    assert dims[0] == 3
    assert all(v == 0 for n, v in dims.items() if n not in (-1, 0))


@pytest.mark.parametrize("name", fixtures.CORPUS + fixtures.EXTRAS)
def test_injective_families_keep_their_answers(name):
    # kind I resolves each simple member; the injectives sum to D(A), so
    # their endomorphism cohomology is End(D(A)) = A^op in degree 0 (a2 and
    # staircase, not self-injective, resolved first)
    alg = fixtures.load(name)
    simples = fixtures.simples(alg)
    injectives = [as_complex(alg.injective(v)) for v in range(alg.nvertices)]
    hulls = [as_complex(injective_hull(s)[0]) for s in simples]
    delta = {(j, i, 0): int(i == j) for i, j in itertools.product(range(len(simples)), repeat=2)}
    for cands in (injectives, hulls):
        rep = verify_family_pattern(simples, cands, "I")
        assert rep.ok and rep.dims == delta
    assert endo_dg_cohomology(injectives, window=(0, 0)) == {0: alg.dim}
    assert endo_dg_cohomology(injectives, window=(-2, 2)) == {-2: 0, -1: 0, 0: alg.dim,
                                                              1: 0, 2: 0}


def test_endo_symmetric_covers_vanish():
    for name, total in (("n3", 3), ("kx2", 2)):
        alg = fixtures.load(name)
        covers = [as_complex(projective_cover(s)[0]) for s in fixtures.simples(alg)]
        dims = endo_dg_cohomology(covers, window=(-6, 6))
        assert dims[0] == total
        assert all(v == 0 for n, v in dims.items() if n != 0)


def test_endo_single_projective(lam):
    pu = as_complex(lam.projective(0))
    dims = endo_dg_cohomology([pu], window=(-2, 2))
    assert dims == {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0}


def test_endo_rejects_nonprojective_terms(lam):
    with pytest.raises(Undecided):
        endo_dg_cohomology([as_complex(lam.simple(0))])


def test_nu_stable_families(lam, n3):
    covers = [as_complex(projective_cover(s)[0]) for s in fixtures.simples(lam)]
    assert nu_family_check(covers).status == "Stable"
    hulls = [as_complex(injective_hull(s)[0]) for s in fixtures.simples(n3)]
    assert nu_family_check(hulls).status == "Stable"


def test_nu_two_term_family_not_stable(lam):
    _, cands = small_family(lam)
    res = nu_family_check(cands)
    assert res.status == "Not"
    assert res.witness == 1
    assert "matches no candidate" in res.detail


def test_nu_multi_term_undecided(lam):
    res = projective_resolution(as_complex(lam.simple(0)), 2)
    assert nu_family_check([res.complex]).status == "Undecided"
    # nu S(u) = S(v) matches no one-term candidate, but S(v) -> I(S(v)) has
    # its cohomology in degree 0 too: undecided, not a witness
    hull, iota = injective_hull(lam.simple(1))
    two = Complex(lam, {-1: lam.simple(1), 0: hull}, {-1: iota}, name="I")
    assert two.cohomology_support() == [0]
    res = nu_family_check([lam.simple(0), two])
    assert (res.status, res.matches, res.witness) == ("Undecided", {}, None)


def test_nu_matches_negative_cohomology(lam, n3):
    # a family fails the twist check exactly when its endomorphism complex
    # has cohomology below degree zero
    fams = [[as_complex(projective_cover(s)[0]) for s in fixtures.simples(lam)],
            [as_complex(injective_hull(s)[0]) for s in fixtures.simples(n3)],
            small_family(lam)[1]]
    for fam in fams:
        res = nu_family_check(fam)
        if res.status == "Undecided":
            continue
        dims = endo_dg_cohomology(fam)
        has_neg = any(v != 0 for n, v in dims.items() if n < 0)
        assert (res.status == "Not") == has_neg


def test_random_tower_verifies(lam, n3):
    for alg in (lam, n3):
        members = fixtures.simples(alg)
        for seed in range(4):
            tw = random_tower(alg, members, 1 + seed, seed=seed, split_only=True)
            assert tw.verify() == []
            assert len(tw.d_list()) == 1 + seed
    # every syzygy of a projective is zero: no layer, so no step
    tw = random_tower(lam, [lam.projective(0)], 3, seed=0)
    assert tw.steps == [] and tw.top.dim == 0 and tw.verify() == []


def test_random_tower_deterministic(lam):
    members = fixtures.simples(lam)
    a = random_tower(lam, members, 5, seed=11)
    b = random_tower(lam, members, 5, seed=11)
    assert a.d_list() == b.d_list()
    assert a.top.key == b.top.key


def test_tower_top_mismatch_rejected(lam):
    members = fixtures.simples(lam)
    tw = random_tower(lam, members, 2, seed=0, split_only=True)
    with pytest.raises(PresentationError):
        Tower(lam, members, tw.steps, lam.projective(0))


def test_reorder_sorted_tower_is_noop(lam):
    members = fixtures.simples(lam)
    tw = random_tower(lam, members, 3, seed=2, d_range=(1, 1), split_only=True)
    res = tower_reorder(tw)
    assert res.swaps == 0 and res.cancelled == []
    assert res.tower.d_list() == tw.d_list()


def test_reorder_swaps_split_pair(lam):
    # layers S(v) at d=0 on top of S(u) at d=1, glued by a split extension
    members = fixtures.simples(lam)
    z = zero_module(lam, "0")
    e1 = syzygy(members[0], 1)
    bottom = TowerStep(ModuleMap.zero(z, e1), ModuleMap.identity(e1), 0, 1)
    ex = ext1(e1, e1)
    e0, mono, epi = ex.realize(ModuleMap.zero(ex.k, ex.n))
    tw = Tower(lam, members, [TowerStep(mono, epi, 1, 0), bottom], e0)
    assert tw.verify() == []
    res = tower_reorder(tw)
    assert res.tower.d_list() == [1, 0]
    assert res.swaps == 1 and res.cancelled == []
    assert res.tower.layer_multiset() == tw.layer_multiset()
    assert res.tower.top.dims == e0.dims


def test_reorder_cancels_contractible_pair(lam):
    # (S(u), 0) over (S(u), 1) glued along a nonsplit extension collapses
    members = fixtures.simples(lam)
    z = zero_module(lam, "0")
    c1 = syzygy(members[0], 1)
    bottom = TowerStep(ModuleMap.zero(z, c1), ModuleMap.identity(c1), 0, 1)
    ex = ext1(members[0], c1)
    assert ex.dim == 1
    e0, mono, epi = ex.realize(ex.reps[0])
    tw = Tower(lam, members, [TowerStep(mono, epi, 0, 0), bottom], e0)
    assert tw.verify() == []
    res = tower_reorder(tw)
    assert res.cancelled == [((0, 0), (0, 1))]
    assert res.tower.steps == []
    assert res.tower.verify() == []


def test_reorder_rejects_bad_class(lam):
    # a nonzero connecting class two levels down violates the Hom hypotheses
    members = fixtures.simples(lam)
    z = zero_module(lam, "0")
    c2 = syzygy(members[1], 2)
    bottom = TowerStep(ModuleMap.zero(z, c2), ModuleMap.identity(c2), 1, 2)
    ex = ext1(members[0], c2)
    e0, mono, epi = ex.realize(ex.reps[0])
    tw = Tower(lam, members, [TowerStep(mono, epi, 0, 0), bottom], e0)
    assert tw.verify() == []
    with pytest.raises(PresentationError, match="stable Hom hypotheses"):
        tower_reorder(tw)


def _multiset_restored(result, original):
    layers = list(result.tower.layer_multiset())
    for pair in result.cancelled:
        layers.extend(pair)
    return sorted(layers) == sorted(original.layer_multiset())


def test_reorder_random_split_towers(lam, n3):
    for alg in (lam, n3):
        members = fixtures.simples(alg)
        for seed in range(12):
            tw = random_tower(alg, members, 4, seed=seed, split_only=True)
            res = tower_reorder(tw)
            ds = res.tower.d_list()
            assert all(a >= b for a, b in zip(ds, ds[1:]))
            assert _multiset_restored(res, tw)


def test_reorder_random_classes_when_admissible(lam, n3):
    # towers drawn with arbitrary connecting classes may leave the regime the
    # reordering argument covers; those raise and are skipped
    for alg in (lam, n3):
        members = fixtures.simples(alg)
        done = 0
        for seed in range(12):
            tw = random_tower(alg, members, 4, seed=seed)
            try:
                res = tower_reorder(tw)
            except PresentationError:
                continue
            ds = res.tower.d_list()
            assert all(a >= b for a, b in zip(ds, ds[1:]))
            assert _multiset_restored(res, tw)
            done += 1
        assert done >= 4


def test_reorder_relinks_a_seam_a_cancellation_left_stable(lam, monkeypatch):
    # towers drawn with connecting classes whose first move cancels a pair:
    # the steps it brings together meet at a seam that is stable, not
    # literal, so the next move first relinks it (_relink_pair, through
    # _stable_transfer), and the result still certifies and truncates
    members = fixtures.simples(lam)
    calls = []
    for name in ("_relink_pair", "_stable_transfer"):
        def counted(*args, _run=getattr(derived, name), _name=name):
            calls.append(_name)
            return _run(*args)
        monkeypatch.setattr(derived, name, counted)
    for seed in (20, 31, 63):
        tw = random_tower(lam, members, 4, seed=seed, d_range=(0, 1))
        calls.clear()
        res = tower_reorder(tw)
        assert calls == ["_relink_pair", "_stable_transfer"], seed
        assert res.cancelled
        ds = res.tower.d_list()
        assert all(a >= b for a, b in zip(ds, ds[1:]))
        assert _multiset_restored(res, tw)
        tr = tower_truncate(res.tower)
        assert tower_side_check(tr.sub_tower, "le").ok
        assert tower_side_check(tr.quot_tower, "gt").ok


def test_truncate_one_sided_towers(lam):
    members = fixtures.simples(lam)
    low = random_tower(lam, members, 4, seed=3, d_range=(-3, 0), split_only=True)
    tr = tower_truncate(low)
    assert tr.split == 0
    assert tr.quot_tower.top.is_zero()
    high = random_tower(lam, members, 4, seed=3, d_range=(1, 4), split_only=True)
    tr = tower_truncate(high)
    assert tr.split == 4
    core = stable_core(tr.sub_tower.top)[0]
    assert core.is_zero()


def test_truncate_mixed_tower(lam):
    members = fixtures.simples(lam)
    tw = random_tower(lam, members, 5, seed=7, d_range=(-2, 3), split_only=True)
    tr = tower_truncate(tw)
    assert 0 < tr.split < 5
    assert tr.ambient.key == tw.top.key
    assert is_exact_pair(tr.incl, tr.proj)
    assert tower_side_check(tr.sub_tower, "le").ok
    assert tower_side_check(tr.quot_tower, "gt").ok


def test_side_check_reports_wrong_sign(lam):
    members = fixtures.simples(lam)
    tw = random_tower(lam, members, 3, seed=1, d_range=(1, 2), split_only=True)
    rep = tower_side_check(tw, "gt")
    assert rep.ok and rep.problems == []
    rep = tower_side_check(tw, "le")
    assert not rep.ok
    assert any("d" in p for p in rep.problems)
    tw = random_tower(lam, members, 2, seed=1, d_range=(-1, 0), split_only=True)
    assert tw.d_list() == [-1, -1]
    rep = tower_side_check(tw, "gt")
    assert not rep.ok
    assert rep.problems == ["layer 0 has d = -1 <= 0", "layer 1 has d = -1 <= 0"]


def test_verify_names_each_problem_of_a_loaded_tower(lam):
    # a tower read from a file is outside input: corrupt one thing at a time
    members = fixtures.simples(lam)
    tw = random_tower(lam, members, 2, seed=0, split_only=True)
    assert tw.verify() == []
    good = io.dump_tower(tw)

    def problems(edit):
        data = json.loads(json.dumps(good))
        edit(data["steps"])
        return io.load_tower(data, lam).verify()

    def zero_quot(steps):
        steps[0]["quot_blocks"] = [[[0] * len(r) for r in b] for b in steps[0]["quot_blocks"]]

    def bump_d(steps):
        steps[0]["d"] += 1

    # a one-step tower on a simple that is not stably the upper submodule
    other = next(i for i, s in enumerate(members)
                 if stably_isomorphic(s, tw.steps[0].sub.src) is None)
    s = members[other]
    lone = Tower(lam, members, [TowerStep(ModuleMap.zero(zero_module(lam, "0"), s),
                                          ModuleMap.identity(s), other, 0)], s)
    assert lone.verify() == []

    def swap_seam(steps):
        steps[1] = io.dump_tower(lone)["steps"][0]

    d = tw.steps[0].d
    assert problems(zero_quot) == ["step 0 is not a short exact sequence"]
    assert problems(bump_d) == [f"step 0 layer is not stably Omega^{d + 1} of member "
                                f"{tw.steps[0].member}"]
    assert problems(swap_seam) == ["seam 0 is broken"]
    assert problems(list.pop) == ["bottom of the tower is not stably zero"]


def test_exact_pair_refusals(lam):
    s, (hull, iota) = lam.simple(1), injective_hull(lam.simple(1))
    _, epi = cokernel(iota)
    assert is_exact_pair(iota, epi)
    # the middle terms differ
    assert not is_exact_pair(iota, ModuleMap.identity(s))
    # not injective, not surjective
    assert not is_exact_pair(ModuleMap.zero(s, hull), epi)
    assert not is_exact_pair(iota, ModuleMap.zero(hull, epi.tgt))
    # both ends fine but the composite is not zero
    assert not is_exact_pair(ModuleMap.identity(hull), ModuleMap.identity(hull))


def test_ext_classes_with_zero_kernel_term(lam):
    # the bottom step of every tower quotients by a zero module
    z = zero_module(lam, "0")
    ex = ext1(lam.simple(1), z)
    assert ex.dim == 0
    coords = ex.class_coords(ModuleMap.zero(ex.k, ex.n))
    assert coords.shape == (0,)
