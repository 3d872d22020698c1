"""S-filtration calculus over the fixture algebras.

Frozen values below come from hand computation in k[x]/(x^3) (members J_i of
length i) and the two-vertex algebra with alpha beta = 0 = beta alpha.  The
key facts used: Hom(J1, J2) is spanned by the socle embedding and contains
no projective map, every map J3 -> J2 is projective, and over the two-vertex
algebra the simples form a stable simple set with Omega swapping them.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from stabrec import fixtures
from stabrec.errors import NotFiltrable, PresentationError
from stabrec.filtration import (
    Filtration,
    _Budget,
    _surjections_onto,
    adjust_to_surjection,
    align_filtrations,
    align_surjections,
    canonical_top,
    exhaustive_radical_filtrations,
    find_nonzero_target,
    has_projective_remainder,
    hyp_check,
    is_filtrable,
    padding_search,
    s_radical_filtration,
    stable_iso_lifts,
    strip_remainder,
    surjective_representative,
    symmetric_two_step_swap,
    top_layer,
    verify_s_radical,
)
from stabrec.modules import (
    combinations,
    direct_sum,
    ext1,
    hom_space,
    module_isomorphic,
    quotient,
    radical_series,
)
from stabrec.stable import stable_hom


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


def reference_surjections(m, x, budget):
    """_surjections_onto with one scale/add fold per candidate map."""
    homs = hom_space(m, x)
    q = m.algebra.field.q
    if q ** len(homs) > budget.maps:
        budget.hit = True
        return
    for coeffs in itertools.product(range(q), repeat=len(homs)):
        if not any(coeffs):
            continue
        if not budget.spend():
            return
        f = scale_add(homs, coeffs)
        if f.is_surjective_map():
            yield f


def test_batched_surjections_keep_order_and_budget(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    # Hom dims 2 (24 candidate maps) and 4 (624, more than one chunk)
    for m, x in ((j3, j2), (direct_sum([j2, j1])[0], direct_sum([j1, j1])[0])):
        assert len(hom_space(m, x)) >= 2
        got, want = _Budget(1000), _Budget(1000)
        assert ([f.flat().tolist() for f in _surjections_onto(m, x, got)]
                == [f.flat().tolist() for f in reference_surjections(m, x, want)])
        assert (got.maps, got.hit) == (want.maps, want.hit)
        # a consumer that stops at the first yield
        got, want = _Budget(1000), _Budget(1000)
        next(_surjections_onto(m, x, got))
        next(reference_surjections(m, x, want))
        assert got.maps == want.maps
        # a consumer that spends budget between yields, as nested searches do
        got, want = _Budget(700), _Budget(700)
        seen = []
        for b, gen in ((got, _surjections_onto), (want, reference_surjections)):
            seen.append([f.flat().tolist() for f in gen(m, x, b) if b.spend(40)])
        assert seen[0] == seen[1]
        assert (got.maps, got.hit) == (want.maps, want.hit)


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


# -- surjection adjustment ----------------------------------------------------------


def test_adjust_to_surjection_socle_input(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m, injs, projs = direct_sum([j1, j3])
    filt = s_radical_filtration(m, [j2])
    soc = hom_space(j1, j2)[0]
    f = soc.compose(projs[0])  # lands in the socle, far from surjective
    assert not f.is_surjective_map()
    g, kmod, kincl, kfilt = adjust_to_surjection(f, filt)
    assert g.is_surjective_map()
    assert not np.any(stable_hom(m, j2).coords(g.sub(f)))
    assert kmod.dim == 2
    assert module_isomorphic(kmod, j2) is not None
    assert kfilt.mult_sequence() == ((1,),)


def test_adjust_to_surjection_batch(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m, injs, projs = direct_sum([j1, j3, j2])
    filt = s_radical_filtration(m, [j2])
    soc = hom_space(j1, j2)[0].compose(projs[0])
    onto = next(h for h in hom_space(j3, j2)
                if h.is_surjective_map()).compose(projs[1])
    ident = next(h for h in hom_space(j2, j2)
                 if h.is_iso()).compose(projs[2])
    sh = stable_hom(m, j2)
    for f in (soc, ident, soc.add(ident), soc.add(onto), ident.add(onto)):
        assert np.any(sh.coords(f))
        g, kmod, kincl, kfilt = adjust_to_surjection(f, filt)
        assert g.is_surjective_map()
        assert not np.any(sh.coords(g.sub(f)))
        assert kmod.dim == m.dim - j2.dim
        assert set(kfilt.mult_sequence()) <= {(1,), (2,)}


def test_adjust_rejects_projective_map(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m, injs, projs = direct_sum([j1, j3])
    filt = s_radical_filtration(m, [j2])
    f = hom_space(j3, j2)[0].compose(projs[1])  # factors through a projective
    with pytest.raises(PresentationError):
        adjust_to_surjection(f, filt)


# -- symmetric two-step swap ---------------------------------------------------------


def test_symmetric_two_step_swap(n3):
    assert n3.symmetry().symmetric
    j2 = jordan(n3, 2)
    e = ext1(j2, j2)
    assert e.dim == 1
    total, mono, epi = e.realize(e.reps[0])
    unit = next(h for h in hom_space(j2, j2) if h.is_iso())
    twisted = mono.compose(unit.add(unit))  # scalar twist of the inclusion
    sigma, a, b = symmetric_two_step_swap((mono, epi), (twisted, epi), [j2])
    assert sigma.is_iso() and a.is_iso() and b.is_iso()
    assert np.array_equal(sigma.compose(mono).flat(),
                          twisted.compose(a).flat())
    assert np.array_equal(epi.compose(sigma).flat(),
                          b.compose(epi).flat())


def test_swap_needs_symmetric_algebra(lam):
    su, sv = lam.simple(0), lam.simple(1)
    assert not lam.symmetry().symmetric
    e = ext1(su, sv)
    total, mono, epi = e.realize(e.reps[0])
    with pytest.raises(PresentationError):
        symmetric_two_step_swap((mono, epi), (mono, epi), [su, sv])


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


# -- target finding ---------------------------------------------------------------


def test_find_nonzero_target(n3, lam):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m = direct_sum([j1, j3])[0]
    assert find_nonzero_target(m, [j2]) is j2
    with pytest.raises(PresentationError):
        find_nonzero_target(lam.projective(0), [lam.simple(0), lam.simple(1)])


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
