"""S-filtration calculus over the fixture algebras.

Frozen values below come from hand computation in k[x]/(x^3) (members J_i of
length i) and the two-vertex algebra with alpha beta = 0 = beta alpha.  The
key facts used: Hom(J1, J2) is spanned by the socle embedding and contains
no projective map, every map J3 -> J2 is projective, and over the two-vertex
algebra the simples form a stable simple set with Omega swapping them.
"""

from __future__ import annotations

import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _random_filtrable
from test_modules import known_indecomposables, scrambled

from stabrec import fixtures
from stabrec.errors import (
    Inconclusive,
    NoSurjectionInCoset,
    NotFiltrable,
    PresentationError,
    Undecided,
)
from stabrec.filtration import (
    Filtration,
    _Budget,
    _echelon_rows,
    _full_rows,
    _gaussian_binomial,
    _sum_with_mults,
    _surjections_onto,
    _transport_rows,
    align_filtrations,
    align_surjections,
    canonical_top,
    exhaustive_radical_filtrations,
    has_projective_remainder,
    hyp_check,
    is_filtrable,
    lift_to_surjection,
    padding_search,
    s_radical_filtration,
    stable_iso_lifts,
    strip_remainder,
    surjective_representative,
    top_layer,
    verify_s_radical,
)
from stabrec.gf import Field
from stabrec.modules import (
    combinations,
    direct_sum,
    ext1,
    ModuleMap,
    hom_space,
    kernel,
    module_isomorphic,
    quotient,
    radical_series,
    submodule_closure,
)
from stabrec.stable import projective_maps, stable_hom


@pytest.fixture(scope="module")
def lam():
    return fixtures.load("lambda4")


@pytest.fixture(scope="module")
def n3():
    return fixtures.load("n3")


def jordan(n3, i: int):
    p = n3.projective(0)
    rows = radical_series(p)[i][0]
    block = np.zeros((rows.shape[0], p.dim), dtype=np.int16)
    block[:, : rows.shape[1]] = rows
    q, _ = quotient(p, block, name=f"J{i}")
    return q


# -- filtrability, frozen answers ---------------------------------------------


def test_socle_alone_not_filtrable(n3):
    j1, j2 = jordan(n3, 1), jordan(n3, 2)
    assert is_filtrable(j1, [j2]) is None


def test_double_socle_not_filtrable(n3):
    j1, j2 = jordan(n3, 1), jordan(n3, 2)
    m = direct_sum([j1, j1])[0]
    assert is_filtrable(m, [j2]) is None


def test_projective_alone_not_filtrable(n3):
    # length 3 cannot be built from length-2 layers
    j2, j3 = jordan(n3, 2), jordan(n3, 3)
    assert is_filtrable(j3, [j2]) is None


def test_padded_socle_filtrable(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m = direct_sum([j1, j3])[0]
    filt = is_filtrable(m, [j2])
    assert filt is not None
    assert filt.mult_sequence() == ((1,), (1,))


def test_greedy_matches_is_filtrable(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m = direct_sum([j3, j1])[0]  # order must not matter
    filt = s_radical_filtration(m, [j2])
    assert filt.mult_sequence() == ((1,), (1,))


def test_canonical_top_needs_adjustment(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m = direct_sum([j1, j3])[0]
    x, g, mults = canonical_top(m, [j2])
    assert mults == (1,)
    assert x.dim == 2
    # the canonical representative lands in the socle on the J1 part
    assert not g.is_surjective_map()
    f = surjective_representative(g)
    assert f.is_surjective_map()
    # the adjustment is by a projective map, so the class is unchanged
    assert not np.any(stable_hom(m, x).coords(f.sub(g)))


def test_top_layer_kernel(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m = direct_sum([j1, j3])[0]
    x, f, k, incl, mults = top_layer(m, [j2])
    assert f.compose(incl).is_zero()
    assert k.dim == 2
    assert module_isomorphic(k, j2) is not None


def test_lambda4_projective_filtration(lam):
    su, sv = lam.simple(0), lam.simple(1)
    pu = lam.projective(0)
    filt = is_filtrable(pu, [su, sv])
    assert filt is not None
    assert filt.mult_sequence() == ((1, 0), (0, 1))


def test_lambda4_wrong_simple_certified(lam):
    su, sv = lam.simple(0), lam.simple(1)
    assert is_filtrable(su, [sv]) is None


def test_semisimple_single_level(lam):
    su, sv = lam.simple(0), lam.simple(1)
    m = direct_sum([su, sv])[0]
    filt = s_radical_filtration(m, [su, sv])
    assert filt.mult_sequence() == ((1, 1),)


# -- chain validation -----------------------------------------------------------


def test_rejects_non_submodule_level(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m, injs, _ = direct_sum([j1, j3])
    # the top coordinate of the J3 part does not generate an x-stable line
    bad = np.zeros((1, m.dim), dtype=np.int16)
    bad[0, injs[1].global_matrix()[:, 0].argmax()] = 1
    with pytest.raises(PresentationError):
        Filtration(m, [j2], [np.eye(m.dim, dtype=np.int16), bad,
                             np.zeros((0, m.dim), dtype=np.int16)])


def test_rejects_non_strict_chain(n3):
    j2 = jordan(n3, 2)
    m = direct_sum([j2])[0]
    eye = np.eye(m.dim, dtype=np.int16)
    empty = np.zeros((0, m.dim), dtype=np.int16)
    with pytest.raises(PresentationError):
        Filtration(m, [j2], [eye, eye, empty])


def test_rejects_layer_outside_add_s(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    eye = np.eye(j3.dim, dtype=np.int16)
    empty = np.zeros((0, j3.dim), dtype=np.int16)
    filt = Filtration(j3, [j2], [eye, empty])
    with pytest.raises(NotFiltrable):
        filt.levels()


# -- radical certification --------------------------------------------------------


def test_certificate_padded_socle(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m = direct_sum([j1, j3])[0]
    filt = s_radical_filtration(m, [j2])
    cert = verify_s_radical(filt)
    assert cert.ok
    # J1 is not filtrable, so J3 is not a removable remainder here
    assert cert.level0_bijective


def test_certificate_projective_module(lam):
    su, sv = lam.simple(0), lam.simple(1)
    pu = lam.projective(0)
    filt = is_filtrable(pu, [su, sv])
    cert = verify_s_radical(filt)
    assert cert.ok
    # the whole module is projective: level 0 cannot be stably bijective
    assert not cert.level0_bijective


def test_certificate_rejects_split_layer(lam):
    su = lam.simple(0)
    m, injs, _ = direct_sum([su, su])
    rows = injs[0].global_matrix().T
    eye = np.eye(m.dim, dtype=np.int16)
    empty = np.zeros((0, m.dim), dtype=np.int16)
    filt = Filtration(m, [su], [eye, rows, empty])
    cert = verify_s_radical(filt)
    assert not cert.ok
    assert any("level 0" in r for r in cert.reasons)


# -- remainders -------------------------------------------------------------------


def test_projective_remainder_flags(lam, n3):
    su, sv = lam.simple(0), lam.simple(1)
    assert has_projective_remainder(lam.projective(0), [su, sv])
    assert not has_projective_remainder(su, [su, sv])
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m = direct_sum([j1, j3])[0]
    # J3 cannot be stripped: J1 alone is not filtrable
    assert not has_projective_remainder(m, [j2])


def test_strip_remainder(lam, n3):
    su, sv = lam.simple(0), lam.simple(1)
    n, p = strip_remainder(lam.projective(0), [su, sv])
    assert n.dim == 0 and p.dim == 2
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m = direct_sum([j1, j3])[0]
    n, p = strip_remainder(m, [j2])
    assert n.dim == 4 and p.dim == 0
    m2 = direct_sum([j1, j3, j3])[0]
    n, p = strip_remainder(m2, [j2])
    assert n.dim == 4 and p.dim == 3


# -- enumeration ------------------------------------------------------------------


def test_enumerate_radical_filtrations_n3(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m = direct_sum([j1, j3])[0]
    filts = exhaustive_radical_filtrations(m, [j2])
    # one kernel per ratio of the two surjection parameters
    assert len(filts) == 4
    assert {f.layer_multiset() for f in filts} == {((1,), (1,))}
    for f in filts:
        assert verify_s_radical(f).ok


def test_enumerate_radical_filtrations_projective(lam):
    su, sv = lam.simple(0), lam.simple(1)
    filts = exhaustive_radical_filtrations(lam.projective(0), [su, sv])
    assert len(filts) == 1
    assert filts[0].mult_sequence() == ((1, 0), (0, 1))


def scale_add(maps, coeffs):
    out = maps[0].scale(int(coeffs[0]))
    for h, c in zip(maps[1:], coeffs[1:]):
        out = out.add(h.scale(int(c)))
    return out


def kernel_set(maps) -> set:
    return {_transport_rows(incl, _full_rows(k)).tobytes() for k, incl in map(kernel, maps)}


def orbit_cases():
    """(M, S, mv) over n3, ka4 and lambda4 with q^h <= 4096 maps in
    Hom(M, X), h = dim Hom(M, X), X the sum of S_i^mv[i], mv[i] <= 2."""
    n3, ka4, lam = (fixtures.load(name) for name in ("n3", "ka4", "lambda4"))
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    fam = fixtures.ka4_family()
    lam_s = [lam.simple(0), lam.simple(1)]
    pairs = [
        (direct_sum([j3, j2])[0], [j1, j2]),
        # [5, 1]_5 = 781 orbits onto J2: more than one COMBINE_CHUNK
        (direct_sum([j3, j3, j1])[0], [j1, j2]),
        (direct_sum([n3.projective(0)] * 2)[0], [j1]),
        (direct_sum([fam[1], fam[2], fam[0]])[0], fam),
        (direct_sum([ka4.projective(1), fam[0]])[0], fam),
        (direct_sum([lam.projective(0), lam.projective(1)])[0], lam_s),
        (direct_sum([lam.projective(0), lam.projective(0), lam.simple(1)])[0], lam_s),
    ]
    for m, sset in pairs:
        q = m.algebra.field.q
        for mv in itertools.product(range(3), repeat=len(sset)):
            x = _sum_with_mults(sset, mv)[0]
            if any(mv) and q ** len(hom_space(m, x)) <= 4096:
                yield m, sset, mv


def test_surjections_onto_visit_every_kernel_once_per_orbit():
    """One candidate per orbit of prod GL_{m_i}(q): every kernel of a
    surjection M ->> X is reached, budget.spend is called once per orbit,
    and m_i > h_i is a certified absence, not a refusal."""
    big = 10 ** 6
    seen = collections.Counter()
    for m, sset, mv in orbit_cases():
        q = m.algebra.field.q
        x = _sum_with_mults(sset, mv)[0]
        homs = hom_space(m, x)
        brute = [f for f in combinations(homs, itertools.product(range(q), repeat=len(homs)))
                 if f.is_surjective_map()] if homs else []
        hs = [len(hom_space(m, s)) for s in sset]
        if any(r > h for r, h in zip(mv, hs)):
            budget = _Budget(0)
            assert list(_surjections_onto(m, sset, mv, budget)) == []
            assert (budget.maps, budget.hit) == (0, False) and not brute
            seen["absent"] += 1
            continue
        orbits = math.prod(_gaussian_binomial(h, r, q) for h, r in zip(hs, mv))
        budget, at = _Budget(big), []
        got = []
        for xx, f in _surjections_onto(m, sset, mv, budget):
            assert xx.dims == x.dims and f.tgt is xx
            at.append(big - budget.maps)  # the orbit index of this candidate
            got.append(f)
        assert kernel_set(got) == kernel_set(brute)
        assert (big - budget.maps, budget.hit) == (orbits, False)
        seen["orbits"] += orbits > 1
        seen["several kernels"] += len(kernel_set(brute)) > 1
        # too many orbits for the maps left: a refusal, nothing spent
        budget = _Budget(orbits - 1)
        assert list(_surjections_onto(m, sset, mv, budget)) == []
        assert (budget.maps, budget.hit) == (orbits - 1, True)
        if not got:
            continue
        # a consumer that stops at the first yield pays for what it saw
        budget = _Budget(big)
        next(_surjections_onto(m, sset, mv, budget))
        assert big - budget.maps == at[0]
        # a consumer that spends budget between yields, as nested searches do
        yielded = set(at)
        for start in (orbits + 40, orbits + 40 * len(got)):
            maps, hit, want = start, False, 0
            for c in range(1, orbits + 1):
                if maps < 1:
                    hit = True
                    break
                maps -= 1
                if c in yielded:
                    if maps < 40:
                        hit = True
                    else:
                        maps, want = maps - 40, want + 1
            budget = _Budget(start)
            kept = [f for _, f in _surjections_onto(m, sset, mv, budget) if budget.spend(40)]
            assert (len(kept), budget.maps, budget.hit) == (want, maps, hit)
    assert seen["absent"] and seen["orbits"] and seen["several kernels"]


def test_echelon_rows_against_brute_force():
    for r, h, q in ((0, 3, 2), (1, 3, 5), (2, 4, 3), (2, 3, 4), (3, 3, 2)):
        fld = Field(*{2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}[q])
        brute = set()
        for flat in itertools.product(range(q), repeat=r * h):
            a = np.array(flat, dtype=np.int16).reshape(r, h)
            red, piv = fld.rref(a)
            if len(piv) == r and np.array_equal(red, a):
                brute.add(flat)
        got = list(_echelon_rows(r, h, q))
        assert len(got) == len(set(got)) == _gaussian_binomial(h, r, q)
        assert set(got) == brute


def test_enumeration_decides_a_ka4_stream_module_at_cap_500():
    # ka4 stream module 1 (one of the enumeration benchmark's seeds 1-16):
    # its tops have more than 500 maps q^h but few orbits, so cap 500
    # decides it only when the cap counts orbits
    fam = fixtures.ka4_family()
    m = _random_filtrable(fam[0].algebra, fam, 1)
    assert m.dims == (2, 2, 2)
    filts = exhaustive_radical_filtrations(m, fam, search_cap=500)
    assert filts
    assert all(verify_s_radical(f).ok for f in filts)


def test_capped_enumeration_is_undecided_not_partial():
    # ka4_restricted_projective() has 24 filtrations; a cap that stops the
    # search part way (3 of them found at cap 80) must not read as complete
    fam = fixtures.ka4_family()
    rp = fixtures.ka4_restricted_projective()
    with pytest.raises(Undecided):
        exhaustive_radical_filtrations(rp, fam, search_cap=80)
    assert len(exhaustive_radical_filtrations(rp, fam)) == 24


def test_combinations_match_scale_add():
    rng = np.random.default_rng(3)
    ka4 = fixtures.load("ka4")
    n3 = fixtures.load("n3")
    j2, j3 = jordan(n3, 2), jordan(n3, 3)
    for m, x in ((ka4.projective(0), ka4.projective(0)), (j3, direct_sum([j2, j3])[0])):
        homs = hom_space(m, x)
        assert len(homs) >= 2
        rows = rng.integers(0, m.algebra.field.q, size=(600, len(homs)))
        got = [f.flat().tolist() for f in combinations(homs, iter(rows))]
        assert got == [scale_add(homs, row).flat().tolist() for row in rows]


# -- alignment --------------------------------------------------------------------


def test_align_surjections(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    f = next(h for h in hom_space(j3, j2) if h.is_surjective_map())
    # a correction landing in the socle: projective, does not move the class
    other = hom_space(j1, j2)[0].compose(hom_space(j3, j1)[0])
    assert not other.is_zero() and not other.is_surjective_map()
    fp = f.add(other)
    assert fp.is_surjective_map()
    sigma = align_surjections(f, fp)
    assert sigma.is_iso()
    assert np.array_equal(f.compose(sigma).flat(), fp.flat())


def test_align_filtrations(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m = direct_sum([j1, j3])[0]
    fld = n3.field
    filts = exhaustive_radical_filtrations(m, [j2])
    f1, f2 = filts[0], filts[1]
    assert not np.array_equal(f1.chain[1], f2.chain[1])
    sigma = align_filtrations(f1, f2)
    assert sigma.is_iso()
    moved = fld.row_space(fld.matmul(f2.chain[1],
                                     sigma.global_matrix().T))
    assert np.array_equal(moved, f1.chain[1])


def test_align_refuses_projective_remainder(lam):
    su, sv = lam.simple(0), lam.simple(1)
    filt = is_filtrable(lam.projective(0), [su, sv])
    with pytest.raises(PresentationError):
        align_filtrations(filt, filt)


def test_stable_iso_lifts(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m1 = direct_sum([j1, j3])[0]
    m2 = direct_sum([j3, j1])[0]
    iso = stable_iso_lifts(m1, m2, [j2])
    assert iso.is_iso()
    with pytest.raises(NotFiltrable):
        stable_iso_lifts(j1, j1, [j2])


# -- exact top-layer lifts against the whole coset -------------------------------------


def coset_has_surjection(g, dirs) -> bool:
    if g.is_surjective_map():
        return True
    rows = itertools.product(range(g.src.algebra.field.q), repeat=len(dirs))
    return bool(dirs) and any(g.add(d).is_surjective_map()
                              for d in combinations(dirs, rows))


def check_lift(g, dirs, in_span) -> bool:
    """lift_to_surjection(g, dirs) against the whole coset g + span(dirs),
    which must have at most 4096 points; whether a surjection exists."""
    exists = coset_has_surjection(g, dirs)
    try:
        f = lift_to_surjection(g, dirs)
    except NoSurjectionInCoset:
        assert not exists
        return False
    assert exists and f.is_map() and f.is_surjective_map()
    assert in_span(f.sub(g))
    if g.is_surjective_map():
        assert f is g
    return True


def test_lift_every_map_onto_j2(n3):
    # with the projective J3 every class lifts; without it only the maps
    # already onto do, since projective maps J1 + J2 -> J2 are radical
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    for parts, want in (([j1, j3], {True}), ([j1, j2], {True, False})):
        m = direct_sum(parts)[0]
        sh = stable_hom(m, j2)
        rows = itertools.product(range(5), repeat=len(sh.hom))
        found = {check_lift(g, sh.proj, sh.is_projective_map)
                 for g in combinations(sh.hom, rows)}
        assert found == want


def test_lift_with_unmet_premise_is_undecided(n3):
    # one direction J3 + J3 -> J1 + J1, the top projection on both summands:
    # its span is not all maps of the tops, so nothing may be concluded
    j1, j3 = jordan(n3, 1), n3.projective(0)
    m, _, projs = direct_sum([j3, j3])
    x, injs, _ = direct_sum([j1, j1])
    top = hom_space(j3, j1)[0]
    d = injs[0].compose(top).compose(projs[0]).add(injs[1].compose(top).compose(projs[1]))
    with pytest.raises(Inconclusive):
        lift_to_surjection(ModuleMap.zero(m, x), [d])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["n3", "ka4", "lambda4"]), st.data())
def test_surjective_representative_against_the_whole_coset(name, data):
    # M a scrambled sum with a projective summand P(v), X a sum of one or
    # two known indecomposables, g a random map: the exact lift decides
    # the same as brute force, stays in the stable class of g, and returns
    # g itself when g is onto
    alg = fixtures.load(name)
    pool = known_indecomposables(alg)
    parts = data.draw(st.lists(st.sampled_from(pool), min_size=0, max_size=2))
    parts.append(alg.projective(data.draw(st.integers(0, alg.nvertices - 1))))
    m = scrambled(direct_sum(parts)[0], data.draw(st.integers(0, 2 ** 16)))
    x = direct_sum(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2)))[0]
    sh = stable_hom(m, x)
    q = alg.field.q
    if not sh.hom or q ** len(sh.proj) > 4096:
        return
    coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=len(sh.hom),
                                max_size=len(sh.hom)))
    g = next(combinations(sh.hom, [coeffs]))
    exists = check_lift(g, sh.proj, sh.is_projective_map)
    try:
        assert surjective_representative(g).is_surjective_map() and exists
    except NoSurjectionInCoset:
        assert not exists


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["n3", "ka4", "lambda4"]), st.data())
def test_lift_with_directions_in_a_kernel(name, data):
    # the align_surjections coset: endomorphisms of M plus the projective
    # ones killed by a quotient map f: M -> X, whose tops land in ker(top f)
    alg = fixtures.load(name)
    pool = known_indecomposables(alg)
    parts = data.draw(st.lists(st.sampled_from(pool), min_size=0, max_size=2))
    parts.append(alg.projective(data.draw(st.integers(0, alg.nvertices - 1))))
    m = scrambled(direct_sum(parts)[0], data.draw(st.integers(0, 2 ** 16)))
    fld = alg.field
    w = data.draw(st.lists(st.integers(0, fld.q - 1), min_size=m.dim, max_size=m.dim))
    _, f = quotient(m, submodule_closure(m, np.array([w], dtype=np.int16)))
    pend = projective_maps(m, m)
    if not pend:
        return
    ker = fld.kernel(np.stack([f.compose(p).flat() for p in pend]).T)
    dirs = [next(combinations(pend, [row])) for row in ker]
    if fld.q ** len(dirs) > 4096:
        return
    ends = hom_space(m, m)
    coeffs = data.draw(st.lists(st.integers(0, fld.q - 1), min_size=len(ends),
                                max_size=len(ends)))
    g = next(combinations(ends, [coeffs]))
    span = fld.row_space(np.stack([d.flat() for d in dirs])) if dirs else None

    def in_span(h):
        if span is None:
            return not np.any(h.flat())
        return fld.rank(np.concatenate([span, h.flat()[None, :]])) == span.shape[0]

    check_lift(g, dirs, in_span)


# -- padding and hypothesis report ----------------------------------------------------


def test_padding_search_socle(n3):
    j1, j2 = jordan(n3, 1), jordan(n3, 2)
    pad, mv, filt = padding_search(j1, [j2])
    assert pad.dim == 3
    assert mv == (1,)
    assert filt.mult_sequence() == ((1,), (1,))


def test_padding_search_trivial(lam):
    su, sv = lam.simple(0), lam.simple(1)
    pad, mv, filt = padding_search(su, [su, sv])
    assert pad.dim == 0
    assert mv == (0, 0)


def test_padding_search_support_obstruction(lam):
    su, sv = lam.simple(0), lam.simple(1)
    with pytest.raises(NotFiltrable):
        padding_search(sv, [su])


def test_hyp_check_lambda4(lam):
    su, sv = lam.simple(0), lam.simple(1)
    rep = hyp_check(lam, [su, sv])
    assert rep.ok
    assert all(e["status"] == "ok" for e in rep.entries)
    bad = hyp_check(lam, [su])
    assert not bad.ok
    assert any(e["status"] == "fail" for e in bad.entries)


def test_hyp_check_n3(n3):
    j2 = jordan(n3, 2)
    rep = hyp_check(n3, [j2])
    assert rep.ok
    dims = {e["module"]: e["padding_dim"] for e in rep.entries}
    # the simple needs one copy of the projective, Omega J2 = J1 likewise
    assert set(dims.values()) == {3}


# -- the ka4 reference family -----------------------------------------------------


def test_ka4_family_hypotheses():
    a = fixtures.load("ka4")
    fam = fixtures.ka4_family()
    assert [m.dims for m in fam] == [(1, 0, 0), (0, 1, 1), (0, 1, 1)]
    rep = hyp_check(a, fam)
    assert rep.ok


def test_ka4_family_greedy_extension():
    fam = fixtures.ka4_family()
    sk, splus, _ = fam
    ex = ext1(sk, splus)
    assert ex.dim == 1
    m = ex.realize(ex.reps[0])[0]
    filt = s_radical_filtration(m, fam, seed=0)
    assert filt.mult_sequence() == ((1, 0, 0), (0, 1, 0))
    cert = verify_s_radical(filt)
    assert cert.ok and cert.level0_bijective


def test_ka4_restricted_projective_is_pure_remainder():
    # rp is projective, so the greedy sees no stable top at level 0; only the
    # exhaustive search can exhibit its layer patterns
    fam = fixtures.ka4_family()
    rp = fixtures.ka4_restricted_projective()
    assert rp.dim == 8
    with pytest.raises(NotFiltrable):
        s_radical_filtration(rp, fam, seed=0)
    n, p = strip_remainder(rp, fam, seed=0)
    assert n.dim == 0 and p.dim == 8
