"""S-filtration calculus over the fixture algebras.

Frozen values below come from hand computation in k[x]/(x^3) (members J_i of
length i) and the two-vertex algebra with alpha beta = 0 = beta alpha.  The
key facts used: Hom(J1, J2) is spanned by the socle embedding and contains
no projective map, every map J3 -> J2 is projective, and over the two-vertex
algebra the simples form a stable simple set with Omega swapping them.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _random_filtrable
from test_modules import known_indecomposables, scrambled, submodule_closure

import stabrec
from stabrec import filtration, fixtures, io
from stabrec.cli import main as cli_main
from stabrec.errors import (
    Inconclusive,
    NoSurjectionInCoset,
    NotFiltrable,
    NotSelfInjective,
    PresentationError,
    StabrecError,
    Undecided,
)
from stabrec.filtration import (
    Filtration,
    _Budget,
    _block_rows,
    _echelon_rows,
    _gaussian_binomial,
    _copies,
    _layer_mults,
    _mult_candidates,
    _of_total,
    _projective_splits,
    _search_filtration,
    _split_and_filter,
    _surjections_onto,
    _top_kernels,
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
    _sub_from_spaces,
    combinations,
    direct_sum,
    ext1,
    flat_to_map,
    ModuleMap,
    hom_space,
    kernel,
    module_isomorphic,
    quotient,
    radical_series,
    submodule,
    zero_module,
)
from stabrec.stable import projective_maps, stable_hom, syzygy


def _full_rows(m):
    return np.eye(m.dim, dtype=np.int16)


def _rows_in_sub(incl, rows):
    """rows, which lie in the image of incl, in the source's coordinates."""
    fld = incl.src.algebra.field
    if rows.shape[0] == 0:
        return np.zeros((0, incl.src.dim), dtype=np.int16)
    return fld.row_space(fld.solve_matrix(incl.global_matrix(), rows.T).T)


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


def map_by_map_top(m, sset):
    """canonical_top assembled one map at a time: X a fresh direct sum of
    the copies, g the sum of inj_c r over the copies, r the map of a rep."""
    shs = [stable_hom(m, s) for s in sset]
    copies = [(s, sh, j) for s, sh in zip(sset, shs) for j in range(sh.dim)]
    if not copies:
        x = zero_module(m.algebra)
        return x, ModuleMap.zero(m, x)
    x, injs, _ = direct_sum([s for s, _, _ in copies], name="X")
    g = ModuleMap.zero(m, x)
    for inj, (s, sh, j) in zip(injs, copies):
        g = g.add(inj.compose(flat_to_map(m, s, sh.reps[j])))
    return x, g


@pytest.mark.parametrize("name", fixtures.CORPUS)
def test_canonical_top_bytes_equal_the_map_by_map_assembly(name):
    # the simples, their first syzygies and three random filtrable modules:
    # the same X (name and content) and the same bytes of g
    alg = fixtures.load(name)
    ss = fixtures.simples(alg)
    mods = ss + [syzygy(s, 1) for s in ss]
    mods += [_random_filtrable(alg, ss, seed) for seed in (1, 2, 3)]
    for m in mods:
        x, g, mults = canonical_top(m, ss)
        want_x, want_g = map_by_map_top(m, ss)
        assert (x.name, x.key) == (want_x.name, want_x.key)
        assert g.src is m and g.tgt is x
        assert g.flat().tobytes() == want_g.flat().tobytes()
        assert mults == tuple(stable_hom(m, s).dim for s in ss)


def test_top_layer_kernel(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m = direct_sum([j1, j3])[0]
    x, f, k, incl, mults = top_layer(m, [j2])
    assert f.compose(incl).is_zero()
    assert k.dim == 2
    assert module_isomorphic(k, j2) is not None
    # the zero module is its own kernel, under a zero top
    z = zero_module(n3)
    x, f, k, incl, mults = top_layer(z, [j2])
    assert (x.dim, k, mults) == (0, z, (0,))
    assert incl.is_iso()
    assert surjective_representative(f) is f


def test_dims_feasible_against_every_combination(lam):
    # (1, 0) and (2, 0) reach one remainder along two paths, the second
    # read from the memo; (0, 2) leaves odd v-dimensions infeasible
    su, sv = lam.simple(0), lam.simple(1)
    sset = [su, direct_sum([su, su])[0], direct_sum([sv, sv])[0]]
    vecs = [s.dims for s in sset]
    for t in itertools.product(range(5), repeat=2):
        want = any(tuple(sum(c * v[i] for c, v in zip(cs, vecs)) for i in range(2)) == t
                   for cs in itertools.product(range(5), repeat=3))
        assert filtration._dims_feasible(t, sset) == want, t


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


def test_rejects_empty_chain(n3):
    j2 = jordan(n3, 2)
    with pytest.raises(PresentationError, match="start at the full module"):
        Filtration(j2, [j2], [])


def test_rejects_non_nested_chain(lam):
    # M = S + S + S: the levels S_1 + S_2 and then S_3 are submodules that
    # strictly drop, but S_3 does not lie in S_1 + S_2
    su = lam.simple(0)
    m, injs, _ = direct_sum([su, su, su])
    eye = np.eye(m.dim, dtype=np.int16)
    empty = np.zeros((0, m.dim), dtype=np.int16)
    s12 = np.concatenate([injs[0].global_matrix().T, injs[1].global_matrix().T])
    s3 = injs[2].global_matrix().T
    with pytest.raises(PresentationError, match="do not lie in the submodule"):
        Filtration(m, [su], [eye, s12, s3, empty])


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


def kernel_keys(maps) -> list:
    return [_transport_rows(incl, _full_rows(k)).tobytes() for k, incl in map(kernel, maps)]


def kernel_set(maps) -> set:
    return set(kernel_keys(maps))


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
            x = _copies(sset, mv)[0]
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
        x = _copies(sset, mv)[0]
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
        for xx, vec, _ in _surjections_onto(m, sset, mv, budget):
            f = flat_to_map(m, xx, vec)
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
            kept = [vec for _, vec, _ in _surjections_onto(m, sset, mv, budget)
                    if budget.spend(40)]
            assert (len(kept), budget.maps, budget.hit) == (want, maps, hit)
    assert seen["absent"] and seen["orbits"] and seen["several kernels"]


def test_echelon_rows_against_brute_force():
    for r, h, q in ((0, 3, 2), (1, 3, 5), (2, 4, 3), (2, 3, 4), (3, 3, 2), (3, 1, 2), (2, 0, 4)):
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
        if r > h:  # the int 0, not the float -0.0 a negative power of q gives
            count = _gaussian_binomial(h, r, q)
            assert type(count) is int and count == 0


def test_of_total_against_a_sorted_product():
    rng = random.Random(5)
    cases = [((), (), 0), ((), (), 2), ((0, 3), (2, 2), 0), ((2, 0, 1), (3, 4, 2), 3)]
    for _ in range(300):
        n = rng.randint(0, 4)
        weights = tuple(rng.choice((0, 1, 2, 3, 5)) for _ in range(n))
        bounds = tuple(rng.randint(0, 4) for _ in range(n))
        cases.append((weights, bounds, rng.randint(0, 12)))
    for weights, bounds, total in cases:
        want = sorted(c for c in itertools.product(*(range(b + 1) for b in bounds))
                      if sum(ci * w for ci, w in zip(c, weights)) == total
                      and all(ci == 0 for ci, w in zip(c, weights) if w == 0))
        assert list(_of_total(weights, bounds, total)) == want


def test_top_kernels_yield_each_reachable_kernel_once():
    # criterion 5's module: every kernel that _surjections_onto reaches at
    # the enumeration's default cap, in the order first reached, once
    fam = fixtures.ka4_family()
    rp = fixtures.ka4_restricted_projective()
    budget = _Budget(500000)
    got = [_transport_rows(incl, _full_rows(k)).tobytes()
           for k, incl in (_sub_from_spaces(rp, spaces, "ker")
                           for _, _, _, spaces in _top_kernels(rp, fam, budget))]
    assert not budget.hit and len(got) == len(set(got))
    budget = _Budget(500000)
    reached = [key for mv in _mult_candidates(rp, fam)
               for key in kernel_keys(flat_to_map(rp, x, vec)
                                      for x, vec, _ in _surjections_onto(rp, fam, mv, budget))]
    assert not budget.hit and len(reached) > len(got)
    assert got == list(dict.fromkeys(reached))


def reference_surjections(m, sset, mv, budget):
    """_surjections_onto built map by map: every candidate a ModuleMap from
    `combinations`, tested with `is_surjective_map`; yields (X, f)."""
    fld = m.algebra.field
    homs = {si: hom_space(m, sset[si]) for si, r in enumerate(mv) if r}
    if any(mv[si] > len(h) for si, h in homs.items()):
        return
    orbits = math.prod(_gaussian_binomial(len(h), mv[si], fld.q) for si, h in homs.items())
    if orbits > budget.maps:
        budget.hit = True
        return
    x, injs, layout = _copies(sset, mv)
    basis = [inj.compose(h) for inj, (si, _) in zip(injs, layout) for h in homs[si]]
    rows = _block_rows([(mv[si], len(h)) for si, h in homs.items()], fld.q)
    for f in combinations(basis, rows):
        if not budget.spend():
            return
        if f.is_surjective_map():
            yield x, f


def reference_top_kernels(m, sset, budget):
    """_top_kernels on reference_surjections, each kernel by Field.kernel."""
    fld = m.algebra.field
    seen = set()
    for mv in _mult_candidates(m, sset):
        for x, f in reference_surjections(m, sset, mv, budget):
            spaces = [fld.kernel(b) for b in f.blocks]
            key = tuple(sp.tobytes() for sp in spaces)
            if key not in seen:
                seen.add(key)
                yield mv, x, f, spaces


def spend_trace(run, maps, toll=0):
    """The items run(budget) yields, each with the budget spent before it,
    a consumer paying toll per yield while it can, and the budget spent and
    hit at the end."""
    budget, out = _Budget(maps), []
    for item in run(budget):
        out.append((maps - budget.maps, item))
        if toll and not budget.spend(toll):
            break
    return out, (maps - budget.maps, budget.hit)


def kernels_key(fld, blocks) -> tuple:
    return tuple(fld.kernel(b).tobytes() for b in blocks)


def test_surjections_onto_against_the_map_by_map_search():
    # the candidate-row search yields the maps and kernels of the map-by-map
    # one, in the same order, with the same budget spent at every yield, and
    # leaves budget.hit as it does; _top_kernels, which decides some tops
    # without walking them, against the bound-free map-by-map reference
    cases = 0
    for m, sset, mv in orbit_cases():
        fld = m.algebra.field

        def new(budget):
            for x, vec, forms in _surjections_onto(m, sset, mv, budget):
                yield x.key, vec.tobytes(), tuple(fld.rref_kernel(*fm).tobytes() for fm in forms)

        def ref(budget):
            for x, f in reference_surjections(m, sset, mv, budget):
                yield x.key, f.flat().tobytes(), kernels_key(fld, f.blocks)

        for maps, toll in ((10 ** 6, 0), (60, 0), (400, 3), (4000, 40)):
            got = spend_trace(new, maps, toll)
            assert got == spend_trace(ref, maps, toll), (m.dims, mv, maps, toll)
            cases += len(got[0]) > 1
    assert cases > 20
    fam = fixtures.ka4_family()
    mods = [fixtures.ka4_restricted_projective()]
    mods += [_random_filtrable(fam[0].algebra, fam, s) for s in range(1, 17)]

    def kernels(top, m, cap):
        budget = _Budget(cap)
        got = [tuple(sp.tobytes() for sp in spaces) for *_, spaces in top(m, fam, budget)]
        assert len(got) == len(set(got))
        return set(got), budget

    # decided wherever the reference is at the same cap, spending no more;
    # where the reference finishes at 5,000, the same kernels when decided
    # and some of them when not (seed 11's reference needs over 10^5)
    hits = collections.Counter()
    for m in mods:
        refs = {cap: kernels(reference_top_kernels, m, cap) for cap in (500, 5000)}
        full, full_budget = refs[5000]
        for cap, (_, ref) in refs.items():
            got, budget = kernels(_top_kernels, m, cap)
            assert budget.hit <= ref.hit and budget.maps >= ref.maps, (cap, m.dims)
            if not full_budget.hit:
                assert got <= full if budget.hit else got == full, (cap, m.dims)
            hits[cap, budget.hit] += 1
    assert all(hits[cap, hit] for cap in (500, 5000) for hit in (True, False))


def stably_onto(cur, x, f, sset) -> bool:
    """Whether g -> g f maps stable Hom(X, S) onto stable Hom(cur, S) for
    every S in sset, one representative at a time."""
    for s in sset:
        sh_c, sh_x = stable_hom(cur, s), stable_hom(x, s)
        imgs = [sh_c.coords(flat_to_map(x, s, r).compose(f)) for r in sh_x.reps]
        rank = cur.algebra.field.rank(np.stack(imgs)) if imgs else 0
        if rank < sh_c.dim:
            return False
    return True


def test_enumeration_searches_only_stably_onto_kernels(monkeypatch):
    # criterion 5's module: every kernel the enumeration hands to
    # is_filtrable comes straight after a top quotient that passes the stable
    # test, with that kernel; one that fails it is never searched
    fam = fixtures.ka4_family()
    rp = fixtures.ka4_restricted_projective()
    events, depth = [], [0]
    real_top, real_filtrable = filtration._top_kernels, filtration.is_filtrable
    real_remainder = filtration.has_projective_remainder

    def top_kernels(m, sset, budget, keep=None):
        for mv, x, vec, spaces in real_top(m, sset, budget, keep):
            if not depth[0]:
                f = flat_to_map(m, x, vec)
                events.append(("top", stably_onto(m, x, f, sset), kernel(f)[0].key))
            yield mv, x, vec, spaces

    def nested(real, record):
        def call(k, sset, *args, **kwargs):
            if record and not depth[0]:
                events.append(("filtrable", k.key))
            depth[0] += 1
            try:
                return real(k, sset, *args, **kwargs)
            finally:
                depth[0] -= 1
        return call

    monkeypatch.setattr(filtration, "_top_kernels", top_kernels)
    monkeypatch.setattr(filtration, "is_filtrable", nested(real_filtrable, True))
    monkeypatch.setattr(filtration, "has_projective_remainder", nested(real_remainder, False))
    assert len(exhaustive_radical_filtrations(rp, fam)) == 24
    tops = [e for e in events if e[0] == "top"]
    assert any(not onto for _, onto, _ in tops) and any(onto for _, onto, _ in tops)
    for i, e in enumerate(events):
        if e[0] == "filtrable":
            assert events[i - 1] == ("top", True, e[1])
        elif e[1]:
            assert events[i + 1] == ("filtrable", e[2])


# -- the bounds that decide a top before walking it --------------------------------


def bound_cases(seeds) -> list:
    """Criterion 5's module and the ka4 stream modules of the given seeds."""
    fam = fixtures.ka4_family()
    return [fixtures.ka4_restricted_projective()] + [
        _random_filtrable(fam[0].algebra, fam, s) for s in seeds]


def common_kernel_by_maps(m, sset) -> list:
    """Per vertex, the echelon basis of the common kernel of every map in
    the hom_space bases of Hom(m, S_i), read off the maps' own blocks."""
    fld = m.algebra.field
    maps = [h for s in sset for h in hom_space(m, s)]
    return [fld.kernel(np.concatenate([np.zeros((0, d), dtype=np.int16)]
                                      + [h.blocks[v] for h in maps]))
            for v, d in enumerate(m.dims)]


def spaces_key(spaces) -> tuple:
    return tuple(sp.tobytes() for sp in spaces)


def test_every_surjection_kills_the_common_kernel():
    # K_all, the common kernel of all maps m -> S_i, lies in the kernel of
    # every surjection an uncapped walk yields, so dim X <= codim K_all, and
    # at dim X = codim K_all the kernel is K_all itself
    fam = fixtures.ka4_family()
    seen = collections.Counter()
    for m in bound_cases(range(1, 9)):
        fld = m.algebra.field
        k_all = common_kernel_by_maps(m, fam)
        assert spaces_key(filtration._common_kernel(m, fam)) == spaces_key(k_all)
        c = m.dim - sum(len(k) for k in k_all)
        budget = _Budget(10 ** 6)
        for mv in _mult_candidates(m, fam):
            for x, vec, _ in _surjections_onto(m, fam, mv, budget):
                f = flat_to_map(m, x, vec)
                assert not any(fld.matmul(b, k.T).any() for b, k in zip(f.blocks, k_all))
                assert x.dim <= c
                if x.dim == c:
                    assert spaces_key(fld.kernel(b) for b in f.blocks) == spaces_key(k_all)
                seen["at c" if x.dim == c else "below c"] += 1
        assert not budget.hit
        seen["K_all > 0"] += c < m.dim
    assert seen["at c"] and seen["below c"] and seen["K_all > 0"]


def test_row_bound_drops_only_tops_with_no_stably_onto_kernel(monkeypatch):
    # every multiplicity vector the enumeration's row bound drops, walked in
    # full, has no surjection that passes the stable test map by map
    fam = fixtures.ka4_family()
    real_top, dropped = filtration._top_kernels, {}

    def top_kernels(m, sset, budget, keep=None):
        for mv in _mult_candidates(m, sset):
            if keep is not None and not keep(mv):
                dropped[m.key, mv] = m
        return real_top(m, sset, budget, keep)

    monkeypatch.setattr(filtration, "_top_kernels", top_kernels)
    for m in bound_cases(range(1, 9)):
        exhaustive_radical_filtrations(m, fam, search_cap=500)
    monkeypatch.undo()
    walked = 0
    for (_, mv), m in dropped.items():
        budget = _Budget(10 ** 5)
        for x, vec, _ in _surjections_onto(m, fam, mv, budget):
            assert not stably_onto(m, x, flat_to_map(m, x, vec), fam), mv
            walked += 1
        assert not budget.hit
    assert len(dropped) > 10 and walked


def test_top_at_the_common_kernel_codimension_is_decided_by_isomorphism():
    # at dim X = codim K_all the only possible kernel is K_all; where the
    # orbits onto X do not fit the budget left, _top_kernels yields it for
    # one unit exactly when m / K_all is isomorphic to X, which is exactly
    # when an uncapped walk reaches a surjection onto X; with no unit left
    # it is a refusal
    fam = fixtures.ka4_family()
    seen = collections.Counter()
    for m in bound_cases(range(1, 17)):
        fld = m.algebra.field
        k_all = common_kernel_by_maps(m, fam)
        c = m.dim - sum(len(k) for k in k_all)
        k, incl = _sub_from_spaces(m, k_all, "K_all")
        top = quotient(m, _transport_rows(incl, _full_rows(k)))[0]
        for mv in _mult_candidates(m, fam):
            x = _copies(fam, mv)[0]
            if x.dim != c:
                continue
            onto = next(_surjections_onto(m, fam, mv, _Budget(10 ** 5)), None) is not None
            assert onto == (module_isomorphic(top, x) is not None)
            orbits = math.prod(_gaussian_binomial(len(hom_space(m, s)), r, fld.q)
                               for s, r in zip(fam, mv) if r)
            budget = _Budget(orbits - 1)
            got = list(_top_kernels(m, fam, budget, keep=lambda w: w == mv))
            if not onto:
                assert (got, budget.maps, budget.hit) == ([], orbits - 1, False)
                seen["absent"] += 1
            elif orbits == 1:
                assert (got, budget.maps, budget.hit) == ([], 0, True)
                seen["no unit left"] += 1
            else:
                [(got_mv, got_x, vec, spaces)] = got
                assert (got_mv, got_x.key, budget.maps, budget.hit) == (mv, x.key, orbits - 2,
                                                                        False)
                f = flat_to_map(m, got_x, vec)
                assert f.is_map() and f.is_surjective_map()
                assert spaces_key(spaces) == spaces_key(k_all)
                assert spaces_key(fld.kernel(b) for b in f.blocks) == spaces_key(k_all)
                seen["iso"] += 1
    assert seen["absent"] and seen["no unit left"] and seen["iso"]


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


# (count, digest) of every filtration exhaustive_radical_filtrations returns,
# None for Undecided, per input and cap: criterion 5's module, then
# _random_filtrable(ka4, fam, s) for s = 1..16.  Recorded before the
# enumeration tested each kernel's stable surjectivity first.  Seeds 3, 5, 9
# and 12-16 were Undecided at cap 500 before the row and common-kernel
# bounds; their entries are the chains the enumeration gave at cap 5,000
# then, and seed 11's (Undecided at both caps then) those it gave at cap
# 500,000.
_SAME = (1, "5e011d0e0b615008")
_C5 = (24, "f327e313bf15a6c5")
_S3 = (1, "6909a501eb166139")
_S5 = (1, "b04a8edeb4ec5ba8")
_DECIDED = [_C5, (1, "1c364aada2641c05"), (1, "2f46ecaa3a3cb817"), _S3,
            (1, "340c1236ca8cfdb3"), _S5, _SAME, _SAME, (1, "085b38f149913515"),
            (1, "89ab5fc81aaa6e79"), _SAME, (1, "1adc8625a049e63e"), _S5, _S5, _S3,
            (1, "eb2948b07595a2ca"), _S5]
PINNED_ENUMERATIONS = {500: _DECIDED, 5000: _DECIDED}


def chain_digest(filts) -> str:
    h = hashlib.sha256()
    for f in filts:
        for rows in f.chain:
            h.update(repr(rows.shape).encode())
            h.update(rows.astype(np.int16).tobytes())
    return h.hexdigest()[:16]


def test_enumeration_output_is_pinned():
    # the decided/undecided pattern and every chain, in order, are those of
    # the enumeration before its cheapest-test-first reordering
    fam = fixtures.ka4_family()
    mods = [fixtures.ka4_restricted_projective()]
    mods += [_random_filtrable(fam[0].algebra, fam, s) for s in range(1, 17)]
    for cap, want in PINNED_ENUMERATIONS.items():
        got = []
        for m in mods:
            try:
                filts = exhaustive_radical_filtrations(m, fam, search_cap=cap)
            except Undecided:
                got.append(None)
                continue
            got.append((len(filts), chain_digest(filts)))
        assert got == want, cap


# -- layer multiplicities: the searches' against the layers' ----------------------


def layer_witness_mults(filt) -> tuple:
    """The multiplicities _layer_mults finds on levels built afresh from
    the chain."""
    out = []
    for i in range(len(filt)):
        sub, incl = submodule(filt.module, filt.chain[i])
        layer, _ = quotient(sub, _rows_in_sub(incl, filt.chain[i + 1]))
        out.append(_layer_mults(layer, filt.sset))
    return tuple(out)


def search_filtrations(m, sset, cap):
    """(route, filtration) for every way the searches filter m: greedy,
    each projective split, the top-quotient search, is_filtrable and every
    enumerated chain, each at cap (a route that hits it is skipped)."""
    out = []
    try:
        out.append(("greedy", s_radical_filtration(m, sset)))
    except NotFiltrable:
        pass
    for rest, part in _projective_splits(m):
        if rest:
            out.append(("split", _split_and_filter(m, sset, rest, part, _Budget(cap), {})))
    out.append(("search", _search_filtration(m, sset, _Budget(cap), {})))
    for route, run in (("is_filtrable", lambda: [is_filtrable(m, sset, search_cap=cap)]),
                       ("enumeration",
                        lambda: exhaustive_radical_filtrations(m, sset, search_cap=cap))):
        try:
            out += [(route, f) for f in run()]
        except Undecided:
            pass
    return [(route, f) for route, f in out if f is not None]


def _cert_fields(f: Filtration) -> tuple:
    c = verify_s_radical(f)
    return c.ok, c.levels, c.reasons, c.level0_bijective


def test_search_multiplicities_equal_the_layer_witnesses():
    # every filtration a search builds is its levels: each inclusion is
    # injective onto its chain level, each surjection onto its layer has
    # the next level as kernel, and the multiplicities are the ones
    # decomposing its layers finds; the same chain given without levels
    # is certified alike.  Over the corpus with its simples (a simple plus
    # a projective also in another basis, so a split's summands are not
    # coordinate blocks), and over criterion 5's module and the
    # enumeration stream with the ka4 family at caps 500 and 5,000
    cases = []
    for name in fixtures.CORPUS:
        alg = fixtures.load(name)
        ss = fixtures.simples(alg)
        last = alg.projective(alg.nvertices - 1)
        mods = [direct_sum(ss)[0], alg.projective(0), direct_sum([ss[0], last])[0]]
        mods += [scrambled(mods[-1], 3)]
        mods += [_random_filtrable(alg, ss, seed) for seed in (1, 2, 3)]
        cases += [(m, ss, 500) for m in mods if m.dim]
    fam = fixtures.ka4_family()
    stream = [fixtures.ka4_restricted_projective()]
    stream += [_random_filtrable(fam[0].algebra, fam, s) for s in range(1, 17)]
    cases += [(m, fam, cap) for cap in (500, 5000) for m in stream]
    routes = collections.Counter()
    for m, sset, cap in cases:
        for route, f in search_filtrations(m, sset, cap):
            assert f.mult_sequence() == layer_witness_mults(f), route
            # level 0 is the module itself (align_filtrations starts there)
            top = f.levels()[0]
            assert top.sub.key == f.module.key, route
            assert np.array_equal(top.incl.global_matrix(), np.eye(m.dim)), route
            for i, lv in enumerate(f.levels()):
                assert lv.incl.is_map() and lv.incl.is_injective_map(), route
                assert np.array_equal(_transport_rows(lv.incl, _full_rows(lv.sub)),
                                      f.chain[i]), route
                assert lv.qmap.is_map() and lv.qmap.is_surjective_map(), route
                k, kin = kernel(lv.qmap)
                assert np.array_equal(_transport_rows(lv.incl.compose(kin), _full_rows(k)),
                                      f.chain[i + 1]), route
                assert _layer_mults(lv.layer, f.sset) == lv.mults, route
            given = Filtration(f.module, f.sset, f.chain)
            assert _cert_fields(given) == _cert_fields(f), route
            routes[route] += 1
    assert set(routes) == {"greedy", "split", "search", "is_filtrable", "enumeration"}
    assert routes["enumeration"] > 24
    # the two fixtures that are not self-injective have no stable Hom, so
    # no search filters anything over them
    for name in fixtures.EXTRAS:
        alg = fixtures.load(name)
        with pytest.raises(NotSelfInjective):
            is_filtrable(direct_sum(fixtures.simples(alg))[0], fixtures.simples(alg))


def _route_chains_digest() -> str:
    """sha256 over the chain of every search route's filtration, each level
    as its shape and int16 bytes, in `search_filtrations` order at cap 500:
    corpus fixtures with their simples, criterion 5's module and the first
    enumeration stream modules with the ka4 family."""
    cases = []
    for name in fixtures.CORPUS:
        alg = fixtures.load(name)
        ss = fixtures.simples(alg)
        last = alg.projective(alg.nvertices - 1)
        mods = [direct_sum(ss)[0], alg.projective(0), direct_sum([ss[0], last])[0]]
        mods += [_random_filtrable(alg, ss, seed) for seed in (1, 2, 3)]
        cases += [(m, ss) for m in mods if m.dim]
    fam = fixtures.ka4_family()
    cases += [(fixtures.ka4_restricted_projective(), fam)]
    cases += [(_random_filtrable(fam[0].algebra, fam, s), fam) for s in (1, 2, 3)]
    routes, digest = collections.Counter(), hashlib.sha256()
    for m, sset in cases:
        for route, f in search_filtrations(m, sset, 500):
            for rows in f.chain:
                digest.update(np.asarray(rows.shape, dtype=np.int64).tobytes())
                digest.update(rows.astype(np.int16).tobytes())
            routes[route] += 1
    assert set(routes) == {"greedy", "split", "search", "is_filtrable", "enumeration"}
    return digest.hexdigest()


def test_search_chains_are_their_own_echelon_bases():
    # a search's chain is read off its levels, the echelon row basis of
    # each inclusion's image; the pin is the bytes every route gave when it
    # still kept the echelon rows it built as its chain, so a route that
    # reads a level in another basis, or another level, changes them.  The
    # row and common-kernel bounds decided one more route at cap 500 (the
    # enumeration of stream seed 3); every route decided before them gives
    # the bytes it gave then
    assert _route_chains_digest() == (
        "e3d8745ee288497ea97666e6c89dc80f19f89b043601e8882d322a6a6811c48d")


def test_loaded_chain_in_another_basis_is_reduced(n3):
    # a chain given without levels (here a file) may list each
    # level in any basis; Filtration reduces it to the echelon one
    sset = fixtures.simples(n3)
    filt = s_radical_filtration(_random_filtrable(n3, sset, 5), sset)
    assert [len(level) for level in filt.chain] == [4, 1, 0]
    d = io.dump_filtration(filt)
    fld = n3.field
    mixed = []
    for level in filt.chain:
        n = len(level)
        # reversed rows, each plus the next: invertible, and not echelon
        # once a level has two rows
        mix = np.eye(n, dtype=np.int16)[::-1] + np.eye(n, k=-1, dtype=np.int16)[::-1]
        mixed.append(fld.matmul(mix % fld.q, level) if n else level)
    assert any(not np.array_equal(a, b) for a, b in zip(mixed, filt.chain))
    d["chain"] = [[[int(x) for x in row] for row in level] for level in mixed]
    back = io.load_filtration(d, n3)
    assert all(np.array_equal(a, b) for a, b in zip(back.chain, filt.chain))
    assert back.mult_sequence() == filt.mult_sequence()


# -- the greedy filtration, its certificate and the remainder test, once each --------


def _fresh(name: str):
    """A bundled algebra loaded anew, so that no earlier test's memo
    shapes a search."""
    return io.load_algebra(json.loads(fixtures.fixture_text(name)))


def _moved(m, alg):
    """m's representation as a module over alg (equal key, own object)."""
    return io.load_module(io.dump_module(m), alg)


def _counting(monkeypatch, name: str) -> list:
    """Patch filtration.name to record each call; returns the record."""
    calls, real = [], getattr(filtration, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(filtration, name, counted)
    return calls


def test_c6_sequence_builds_the_greedy_and_its_certificate_once(monkeypatch):
    # criterion 6's calls on one module: two greedy filtrations, is_filtrable,
    # the lift to a copy with the same key, the alignment of the two, and
    # the greedy filtration of the copy, aligned with itself;
    # no level of n has a projective summand, so every canonical top is
    # one of the greedy's levels
    built = fixtures.load("ka4")
    alg = _fresh("ka4")
    ss = fixtures.simples(alg)
    n = _moved(_random_filtrable(built, fixtures.simples(built), 1), alg)
    copy = _moved(n, alg)
    tops = _counting(monkeypatch, "canonical_top")
    certs = _counting(monkeypatch, "_verify_s_radical")
    f1 = s_radical_filtration(n, ss)
    f2 = s_radical_filtration(n, ss)
    assert is_filtrable(n, ss) is f1 and f2 is f1
    assert stable_iso_lifts(n, copy, ss).is_iso()
    assert align_filtrations(f1, f2).is_iso()
    # the copy's greedy filtration is its own, and shares f1's certificate
    f3 = s_radical_filtration(copy, ss)
    assert f3 is not f1 and f3.module is copy
    assert align_filtrations(f3, f3).is_iso()
    assert len(f1) == 2 and len(tops) == len(f1)
    assert len(certs) == 1 and verify_s_radical(f2).ok
    assert verify_s_radical(f3) is verify_s_radical(f1)


def test_equal_key_module_gets_the_kept_chain_read_only():
    built = fixtures.load("nak3")
    alg = _fresh("nak3")
    ss = fixtures.simples(alg)
    n = _moved(_random_filtrable(built, fixtures.simples(built), 1), alg)
    kept = s_radical_filtration(n, ss)
    assert s_radical_filtration(n, ss) is kept
    copy = _moved(n, alg)
    other = s_radical_filtration(copy, ss)
    assert other is not kept and other.module is copy and kept.module is n
    assert len(other.chain) == len(kept.chain) == 3
    assert all(a is b for a, b in zip(other.chain, kept.chain))
    assert other.mult_sequence() == kept.mult_sequence()
    for rows in kept.chain:
        with pytest.raises(ValueError):
            rows[...] = 0


def test_stalled_greedy_is_kept_as_its_message(monkeypatch):
    # Hom(J1, J2) is the socle embedding, not stably zero and never onto
    alg = _fresh("n3")
    j1, j2 = jordan(alg, 1), jordan(alg, 2)
    with pytest.raises(NotFiltrable, match="greedy filtration stalled") as first:
        s_radical_filtration(j1, [j2])
    tops = _counting(monkeypatch, "canonical_top")
    for m in (j1, _moved(j1, alg)):
        with pytest.raises(NotFiltrable) as again:
            s_radical_filtration(m, [j2])
        assert str(again.value) == str(first.value)
    assert tops == []


def _greedy_answers(m, sset) -> tuple:
    """The greedy filtration's chain bytes, multiplicities and certificate
    (or its stall message), and has_projective_remainder."""
    try:
        f = s_radical_filtration(m, sset)
    except NotFiltrable as e:
        greedy = str(e)
    else:
        c = verify_s_radical(f)
        greedy = ([(r.shape, r.tobytes()) for r in f.chain], f.mult_sequence(),
                  c.ok, c.levels, c.reasons, c.level0_bijective)
    return greedy, has_projective_remainder(m, sset)


def _differential_cases():
    """(fixture, module, member sets) with every module built on the cached
    fixture: random filtrable modules and their sums with a simple or a
    projective over each corpus algebra; the ka4 modules, criterion 5's
    and the enumeration stream with the ka4 family, against both the
    simples and the family."""
    fam = fixtures.ka4_family()
    stream = [fixtures.ka4_restricted_projective()]
    stream += [_random_filtrable(fam[0].algebra, fam, s) for s in range(1, 17)]
    out = []
    for name in fixtures.CORPUS:
        alg = fixtures.load(name)
        ss = fixtures.simples(alg)
        last = alg.projective(alg.nvertices - 1)
        for seed in (1, 2, 3):
            m = _random_filtrable(alg, ss, seed)
            mods = [m, direct_sum([m, ss[0]])[0], direct_sum([m, last])[0]]
            out += [(name, x, [ss] + [fam] * (name == "ka4")) for x in mods if x.dim]
    return out + [("ka4", m, [fam, fixtures.simples(m.algebra)]) for m in stream]


def test_memoised_greedy_answers_equal_fresh_ones():
    # each answer on one algebra per fixture, asked twice and for an
    # equal-key copy, against the same question on an algebra loaded
    # anew; the ka4 modules ask both member sets in turn, so an answer
    # kept for the wrong set shows
    memo = {name: _fresh(name) for name in fixtures.CORPUS}
    kinds = set()
    for name, m, ssets in _differential_cases():
        alg = memo[name]
        mine = _moved(m, alg)
        for sset in ssets:
            fresh = _fresh(name)
            want = _greedy_answers(_moved(m, fresh), [_moved(s, fresh) for s in sset])
            on = [_moved(s, alg) for s in sset]
            for x in (mine, mine, _moved(m, alg)):
                assert _greedy_answers(x, on) == want, (name, m.dims)
            kinds.add((isinstance(want[0], str), want[1]))
    # filtered and stalled greedies, with and without a projective remainder
    assert {(False, False), (True, False), (True, True)} <= kinds


def hostile_sets(lam):
    su, sv = fixtures.simples(lam)
    pv = lam.projective(1)
    sets = {
        "duplicated": [su, su, sv],
        "plus_projective": [direct_sum([su, pv], name="SuPv")[0], sv],
        "decomposable": [direct_sum([su, sv], name="SuSv")[0]],
    }
    mods = {"SS": direct_sum([su, sv], name="SS")[0],
            "PvSS": direct_sum([su, pv, sv], name="PvSS")[0],
            "Pu": lam.projective(0), "Su": su}
    return sets, mods


# Member sets that are not basic (a member twice, a member plus P(v), a
# decomposable member) over lambda4: per (set, module) what is_filtrable,
# the greedy filtration and the enumeration give, as mult_sequence or
# (exception, message); per (set, module) the filtrate exit code, outcome,
# sha256 of its report without the timing and of the --emit filtration.
# Recorded before filtrations kept their search multiplicities.
_GREEDY_STALLS = ("NotFiltrable", "greedy filtration stalled: no surjection onto X in the coset")
_NO_STABLE_TOP = ("NotFiltrable", "greedy filtration stalled: all stable Hom(m, S) vanish "
                                  "on a nonzero module")
_DIM2_OUTSIDE = ("NotFiltrable", "layer summand of dim 2 is not in add(S)")
_DIM1_OUTSIDE = ("NotFiltrable", "layer summand of dim 1 is not in add(S)")
HOSTILE_LIBRARY = {
    ("duplicated", "SS"): (((0, 0, 1), (1, 0, 0)), _GREEDY_STALLS, [((1, 0, 1),)]),
    ("duplicated", "PvSS"): (((0, 0, 1), (1, 0, 0), (0, 0, 1), (1, 0, 0)), _GREEDY_STALLS,
                             [((1, 0, 2), (1, 0, 0))]),
    ("duplicated", "Pu"): (((1, 0, 0), (0, 0, 1)), _NO_STABLE_TOP, [((1, 0, 0), (0, 0, 1))]),
    ("duplicated", "Su"): (((1, 0, 0),), _GREEDY_STALLS, [((1, 0, 0),)]),
    ("plus_projective", "SS"): (None, _GREEDY_STALLS, []),
    ("plus_projective", "PvSS"): (_DIM2_OUTSIDE, _DIM2_OUTSIDE, _DIM2_OUTSIDE),
    ("plus_projective", "Pu"): (None, _NO_STABLE_TOP, []),
    ("plus_projective", "Su"): (None, _GREEDY_STALLS, []),
    ("decomposable", "SS"): (_DIM1_OUTSIDE, _GREEDY_STALLS, _DIM1_OUTSIDE),
    ("decomposable", "PvSS"): (_DIM1_OUTSIDE, _GREEDY_STALLS, []),
    ("decomposable", "Pu"): (None, _NO_STABLE_TOP, []),
    ("decomposable", "Su"): (None, _GREEDY_STALLS, []),
}
HOSTILE_CLI = {
    ("duplicated", "SS"): (0, "filtrable", "fd39ea4eececebc4", "b7a926e97fba0b50"),
    ("duplicated", "PvSS"): (0, "filtrable", "8e2b047f4b08701d", "f1e1e4992d14062e"),
    ("plus_projective", "SS"): (1, "not filtrable", "b3162543cdaf41ab", None),
    ("plus_projective", "PvSS"): (1, "error", "ae39ad46ee47115e", None),
    ("decomposable", "SS"): (1, "error", "56b2644429e4253a", None),
    ("decomposable", "PvSS"): (1, "error", "9e1a504a09c79457", None),
}


def _mults_or_error(run):
    try:
        r = run()
        if r is None:
            return None
        return [f.mult_sequence() for f in r] if isinstance(r, list) else r.mult_sequence()
    except StabrecError as e:
        return (type(e).__name__, str(e))


def test_hostile_member_sets_answer_as_before():
    lam = _fresh("lambda4")
    sets, mods = hostile_sets(lam)
    got = {}
    for sn, sset in sets.items():
        for mn, m in mods.items():
            got[sn, mn] = (_mults_or_error(lambda: is_filtrable(m, sset)),
                           _mults_or_error(lambda: s_radical_filtration(m, sset)),
                           _mults_or_error(lambda: exhaustive_radical_filtrations(m, sset)))
    assert got == HOSTILE_LIBRARY


def test_hostile_member_sets_filtrate_as_before(capsys, tmp_path):
    sets, mods = hostile_sets(_fresh("lambda4"))
    alg = str(Path(stabrec.__file__).parent / "data" / "lambda4.json")

    def write(name, doc):
        path = tmp_path / name
        path.write_text(io.canon_dumps(doc), encoding="utf-8")
        return str(path)

    def digest(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    got = {}
    for sn, sset in sets.items():
        set_file = write(f"{sn}.set.json", [io.dump_module(s) for s in sset])
        for mn in ("SS", "PvSS"):
            emit = tmp_path / f"emit-{sn}-{mn}"
            code = cli_main(["filtrate", alg, set_file, write(f"{mn}.json", io.dump_module(mods[mn])),
                             "--emit", str(emit)])
            rep = json.loads(capsys.readouterr().out)
            del rep["timing"]
            art = emit / "filtrate.filtration.json"
            got[sn, mn] = (code, rep["outcome"], digest(io.canon_dumps(rep)),
                           digest(art.read_text(encoding="utf-8")) if art.exists() else None)
    assert got == HOSTILE_CLI


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


def test_align_filtrations_on_distinct_chains():
    # criterion 6 aligns a greedy filtration with itself; here the greedy
    # one is aligned with every other enumerated chain, both ways, and with
    # that chain given without levels: over nak3 with S = Omega^1 and
    # Omega^-1 of its simples and random filtrable modules
    alg = fixtures.load("nak3")
    fld = alg.field
    pairs = 0
    for d in (1, -1):
        sset = [syzygy(s, d) for s in fixtures.simples(alg)]
        for seed in range(1, 16):
            m = _random_filtrable(alg, sset, seed)
            g = s_radical_filtration(m, sset)
            for e in exhaustive_radical_filtrations(m, sset, search_cap=5000):
                if len(e) == len(g) and all(map(np.array_equal, e.chain, g.chain)):
                    continue
                given = Filtration(m, sset, e.chain)
                for f1, f2 in ((g, e), (e, g), (g, given), (given, g)):
                    sigma = align_filtrations(f1, f2)
                    assert sigma.is_iso() and sigma.src is f1.module
                    assert sigma.is_map()
                    for ra, rb in zip(f1.chain, f2.chain):
                        moved = fld.row_space(fld.matmul(rb, sigma.global_matrix().T))
                        assert np.array_equal(moved, ra)
                pairs += 1
    assert pairs == 54


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
    """Brute force over g + span(dirs), dirs flat rows of Hom(g.src, g.tgt)."""
    if g.is_surjective_map():
        return True
    rows = itertools.product(range(g.src.algebra.field.q), repeat=len(dirs))
    maps = [flat_to_map(g.src, g.tgt, d) for d in dirs]
    return bool(maps) and any(g.add(d).is_surjective_map()
                              for d in combinations(maps, rows))


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
                 for g in combinations([flat_to_map(m, j2, h) for h in sh.hom], rows)}
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
        lift_to_surjection(ModuleMap.zero(m, x), d.flat()[None])


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
    if not len(sh.hom) or q ** len(sh.proj) > 4096:
        return
    coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=len(sh.hom),
                                max_size=len(sh.hom)))
    g = next(combinations([flat_to_map(m, x, h) for h in sh.hom], [coeffs]))
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
    dirs = fld.matmul(ker, np.stack([p.flat() for p in pend]))
    if fld.q ** len(dirs) > 4096:
        return
    ends = hom_space(m, m)
    coeffs = data.draw(st.lists(st.integers(0, fld.q - 1), min_size=len(ends),
                                max_size=len(ends)))
    g = next(combinations(ends, [coeffs]))
    span = fld.row_space(dirs) if len(dirs) else None

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


def test_hyp_check_exhausted_cap_is_undecided(n3):
    # at cap 0 only the unpadded modules are tried, and neither the simple
    # J1 nor Omega J2 = J1 is filtrable by J2 alone
    j2 = jordan(n3, 2)
    with pytest.raises(Undecided, match="^padding search exhausted its cap$"):
        padding_search(jordan(n3, 1), [j2], cap=0)
    rep = hyp_check(n3, [j2], cap=0)
    assert rep.simple_report.ok and not rep.ok
    assert [(e["status"], e["reason"]) for e in rep.entries] == \
        [("undecided", "padding search exhausted its cap")] * 2


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
