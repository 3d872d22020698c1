"""Stable category layer: projective maps, stable Hom, syzygies, Nakayama."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_modules import known_indecomposables, scrambled, stream_module

from stabrec import fixtures, io, modules
from stabrec.derived import as_complex, projective_resolution
from stabrec.errors import NotSelfInjective
from stabrec.filtration import is_filtrable, s_radical_filtration
from stabrec.modules import (
    Module,
    ModuleMap,
    direct_sum,
    ext1,
    hom_space,
    module_isomorphic,
    quotient,
    radical_series,
)
from stabrec.stable import (
    _stable_core,
    _stable_hom,
    check_simple_set,
    nakayama_module,
    projective_maps,
    stable_core,
    stable_hom,
    stably_isomorphic,
    syzygy,
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


def test_gate_refuses_non_self_injective():
    a2 = fixtures.load("a2")
    s = a2.simple(0)
    with pytest.raises(NotSelfInjective):
        stable_hom(s, s)


def test_derived_data_is_memoised_inside_the_algebra():
    alg = io.load_algebra(json.loads(fixtures.fixture_text("lambda4")))
    attrs = set(vars(alg))
    sset = fixtures.simples(alg)
    stable_hom(sset[0], sset[1])
    nakayama_module(sset[0])
    is_filtrable(alg.projective(0), sset)
    assert set(vars(alg)) == attrs
    assert alg.self_injectivity() is alg.self_injectivity()


def memo_snapshot_of(x) -> bytes:
    """The bytes of a memoised value: module names and matrices, map blocks
    and their ends, through tuples and Summands."""
    if isinstance(x, Module):
        return b"|".join([repr(x.dims).encode(), x.name.encode()] + [a.tobytes() for a in x.mats])
    if isinstance(x, ModuleMap):
        return b"|".join([memo_snapshot_of(x.src), memo_snapshot_of(x.tgt)]
                         + [b.tobytes() for b in x.blocks])
    return b"|".join(memo_snapshot_of(y) for y in x)


def memo_snapshot(alg) -> dict:
    """memo_snapshot_of every memoised hull, cover and stable core of alg."""
    return {k: memo_snapshot_of(v) for k, v in alg._memo.items()
            if k[0] in ("hull", "cover", "core")}


@pytest.mark.parametrize("name", fixtures.CORPUS)
def test_memoised_constructions_are_not_written_into(name):
    # later calls share what the memo holds, so no caller may write into it
    alg = io.load_algebra(json.loads(fixtures.fixture_text(name)))
    sset = fixtures.simples(alg)

    def calls():
        m = direct_sum([syzygy(s, 1) for s in sset], name="X")[0]
        for s in sset:
            assert stably_isomorphic(syzygy(s, 2), syzygy(syzygy(s, 1), 1)) is not None
            syzygy(s, -2)
        projective_resolution(as_complex(m), 3)
        s_radical_filtration(m, sset)

    calls()
    before = memo_snapshot(alg)
    assert {k[0] for k in before} == {"hull", "cover", "core"}
    calls()
    after = memo_snapshot(alg)
    assert {k: after[k] for k in before} == before
    # and each value is what a fresh build from its module gives
    for key, val in alg._memo.items():
        if key[0] == "hull":
            assert memo_snapshot_of(modules._injective_hull(val[1].src)) == after[key]
        elif key[0] == "cover":
            assert memo_snapshot_of(modules._projective_cover(val[1].tgt)) == after[key]
        elif key[0] == "core" and val[1] + val[2]:
            m = (val[1] + val[2])[0].incl.tgt
            assert memo_snapshot_of(_stable_core(m)) == after[key]


def test_projective_maps_lambda4(lam):
    su, sv = lam.simple(0), lam.simple(1)
    pu = lam.projective(0)
    assert projective_maps(su, su) == []
    assert projective_maps(su, sv) == []
    # projective source: every map is projective
    full = projective_maps(pu, lam.simple(0))
    assert len(full) == len(hom_space(pu, lam.simple(0))) == 1


def test_stable_hom_lambda4(lam):
    su, sv = lam.simple(0), lam.simple(1)
    pu = lam.projective(0)
    assert stable_hom(su, su).dim == 1
    assert stable_hom(su, sv).dim == 0
    assert stable_hom(pu, su).dim == 0
    assert stable_hom(pu, pu).dim == 0
    sh = stable_hom(su, su)
    assert sh.coords(ModuleMap.identity(su)).tolist() == [1]
    assert sh.is_projective_map(ModuleMap.zero(su, su))


def test_stable_end_j2(n3):
    j2 = jordan(n3, 2)
    sh = stable_hom(j2, j2)
    assert len(sh.hom) == 2
    assert len(sh.proj) == 1
    assert sh.dim == 1
    # the projective subspace is exactly the composites through J3
    j3 = jordan(n3, 3)
    comps = [g.compose(f) for f in hom_space(j2, j3) for g in hom_space(j3, j2)]
    fld = n3.field
    rows = fld.row_space(np.stack([c.flat() for c in comps]))
    prows = fld.row_space(sh.proj)
    assert np.array_equal(rows, prows)


def greedy_reps(m, n):
    """The coset representatives as first chosen, by h + 1 row spaces: each
    Hom basis element, in order, that enlarges the span of the projective
    maps and of the elements kept before it."""
    fld = m.algebra.field
    hom, proj, reps = hom_space(m, n), projective_maps(m, n), []
    if hom:
        stack = [p.flat() for p in proj] if proj else [np.zeros_like(hom[0].flat())]
        cur = fld.row_space(np.stack(stack))
        for h in hom:
            trial = fld.row_space(np.concatenate([cur, h.flat()[None, :]]))
            if trial.shape[0] > cur.shape[0]:
                reps.append(h)
                cur = trial
    return reps


@pytest.mark.parametrize("name", fixtures.CORPUS)
def test_stable_hom_reps_are_the_greedy_choice(name):
    # the pivot columns of one rref pick the same representatives as the
    # greedy loop, on every ordered pair of simples and their syzygies, and
    # of those sums with a projective, scrambled, where projective maps sit
    # among the Hom basis
    alg = fixtures.load(name)
    simples = fixtures.simples(alg)
    mods = simples + [syzygy(s, 1) for s in simples]
    mods += [scrambled(direct_sum([m, alg.projective(v % alg.nvertices)])[0], v)
             for v, m in enumerate(mods)]
    for m in mods:
        for n in mods:
            sh = _stable_hom(m, n)
            want = greedy_reps(m, n)
            assert [r.tobytes() for r in sh.reps] == [r.flat().tobytes() for r in want]
            assert [p.tobytes() for p in sh.proj] == \
                [p.flat().tobytes() for p in projective_maps(m, n)]


def test_stable_coords_reduction(n3):
    j2 = jordan(n3, 2)
    sh = stable_hom(j2, j2)
    ident = ModuleMap.identity(j2)
    c = sh.coords(ident)
    assert c.shape == (1,)
    # subtracting the representative leaves a projective map
    residue = ident.sub(sh.rep(c))
    assert sh.is_projective_map(residue)


@pytest.mark.parametrize("name", fixtures.CORPUS)
def test_stable_rep_is_the_combination_of_the_rep_maps(name):
    # rep(c) against combine of the maps built from the rep rows, for the
    # unit vectors and one dense coordinate vector, on ordered pairs of
    # simples and their syzygies
    alg = fixtures.load(name)
    q = alg.field.q
    simples = fixtures.simples(alg)
    mods = simples + [syzygy(s, 1) for s in simples]
    for m in mods:
        for n in mods:
            sh = stable_hom(m, n)
            maps = [modules.flat_to_map(sh.src, sh.tgt, r) for r in sh.reps]
            coords = list(np.eye(sh.dim, dtype=np.int16))
            coords.append(np.arange(1, sh.dim + 1, dtype=np.int16) % q)
            for c in coords:
                got = sh.rep(c)
                assert got.src is sh.src and got.tgt is sh.tgt
                want = modules.combine(maps, c) if maps else ModuleMap.zero(m, n)
                assert got.flat().tobytes() == want.flat().tobytes()
                assert np.array_equal(sh.coords(got), c)


def test_stable_core_and_iso(n3, lam):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    m, _, _ = direct_sum([j2, j3])
    core, kept, dropped, on_core = stable_core(m)
    assert core.dim == 2 and len(kept) == 1 and len(dropped) == 1
    assert on_core[0].module is kept[0].module and on_core[0].incl.tgt is core
    w = stably_isomorphic(m, j2)
    assert w is not None and w.is_iso()
    assert stably_isomorphic(j1, j2) is None
    pu = lam.projective(0)
    su = lam.simple(0)
    big, _, _ = direct_sum([su, pu])
    assert stably_isomorphic(big, su) is not None
    # projective modules are stably zero
    z = stably_isomorphic(pu, direct_sum([pu, pu])[0])
    assert z is not None and z.src.dim == 0


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["n3", "ka4", "lambda4"]), st.data())
def test_stably_isomorphic_agrees_with_assembled_cores(name, data):
    # stably_isomorphic matches the kept summands of stable_core directly;
    # decomposing the assembled cores again must give the same answer
    alg = fixtures.load(name)
    pool = known_indecomposables(alg)
    parts = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    if data.draw(st.booleans()):  # a stably isomorphic partner
        others = data.draw(st.permutations(parts)) + [alg.projective(0)]
    else:
        others = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    m = scrambled(direct_sum(parts)[0], data.draw(st.integers(0, 2 ** 16)))
    n = scrambled(direct_sum(others)[0], data.draw(st.integers(0, 2 ** 16)))
    core_m, core_n = stable_core(m)[0], stable_core(n)[0]
    w = stably_isomorphic(m, n)
    assert (w is None) == (module_isomorphic(core_m, core_n) is None)
    if w is not None:
        assert w.src.key == core_m.key and w.tgt.key == core_n.key
        assert w.is_map() and w.is_iso()


def test_syzygy_lambda4(lam):
    su, sv = lam.simple(0), lam.simple(1)
    assert module_isomorphic(syzygy(su, 1), sv) is not None
    assert module_isomorphic(syzygy(su, 2), su) is not None
    assert module_isomorphic(syzygy(su, -1), sv) is not None
    pu = lam.projective(0)
    assert syzygy(pu, 1).dim == 0


def test_syzygy_round_trip(n3):
    j2 = jordan(n3, 2)
    back = syzygy(syzygy(j2, 1), -1)
    assert stably_isomorphic(back, j2) is not None
    assert module_isomorphic(syzygy(j2, 1), jordan(n3, 1)) is not None


def test_stable_hom_shift_matches_ext(lam, n3):
    mods = [lam.simple(0), lam.simple(1), lam.projective(0)]
    for m in mods:
        for n in mods:
            assert stable_hom(syzygy(m, 1), n).dim == ext1(m, n).dim
    js = [jordan(n3, i) for i in (1, 2, 3)]
    for m in js:
        for n in js:
            assert stable_hom(syzygy(m, 1), n).dim == ext1(m, n).dim


def test_nakayama_projectives(lam, n3):
    pu, pv = lam.projective(0), lam.projective(1)
    nu_pu = nakayama_module(pu)
    assert module_isomorphic(nu_pu, lam.injective(0)) is not None
    assert module_isomorphic(nu_pu, pv) is not None
    j3 = n3.projective(0)
    assert module_isomorphic(nakayama_module(j3), j3) is not None


def test_nakayama_simples_swap(lam):
    su, sv = lam.simple(0), lam.simple(1)
    assert module_isomorphic(nakayama_module(su), sv) is not None
    assert module_isomorphic(nakayama_module(sv), su) is not None
    nu = nakayama_module(modules.zero_module(lam, "0"))
    assert (nu.dims, nu.name) == ((0, 0), "nu(0)")


def test_nakayama_symmetric_identity(n3):
    for i in (1, 2, 3):
        j = jordan(n3, i)
        assert module_isomorphic(nakayama_module(j), j) is not None


def test_nakayama_nak3():
    a = fixtures.load("nak3")
    perm = a.self_injectivity().perm
    for v in range(3):
        nu_p = nakayama_module(a.projective(v))
        assert module_isomorphic(nu_p, a.injective(v)) is not None
        src = perm.index(v)
        assert module_isomorphic(a.injective(v), a.projective(src)) is not None


@pytest.mark.parametrize("name", fixtures.CORPUS)
def test_serre_duality(name):
    # Omega nu is the Serre functor of stmod A (the Auslander-Reiten
    # formula; Happel, Triangulated categories in the representation
    # theory of finite dimensional algebras, 1988), so
    # dim stHom(X, Y) = dim stHom(Y, Omega nu X): stable_hom, syzygy and
    # nakayama_module against one another, over the simples, Omega^{+-1}
    # of the simples, scrambled stream modules and on ka4 its family
    alg = fixtures.load(name)
    sset = fixtures.simples(alg)
    mods = sset + [syzygy(s, d) for d in (1, -1) for s in sset]
    mods += [scrambled(stream_module(alg, seed), seed) for seed in (1, 2, 3)]
    mods += fixtures.ka4_family() if name == "ka4" else []
    for x in mods:
        serre_x = syzygy(nakayama_module(x), 1)
        for y in mods:
            assert stable_hom(x, y).dim == stable_hom(y, serre_x).dim, (x.name, y.name)


def test_check_simple_set(lam, n3):
    rep = check_simple_set(lam, [lam.simple(0), lam.simple(1)])
    assert rep.ok
    assert rep.pattern.tolist() == [[1, 0], [0, 1]]
    dup = check_simple_set(lam, [lam.simple(0), lam.simple(0)])
    assert not dup.ok
    j2, j3 = jordan(n3, 2), jordan(n3, 3)
    assert check_simple_set(n3, [j2]).ok
    assert not check_simple_set(n3, [j3]).ok  # projective member
    s, _, _ = direct_sum([j2, j2])
    assert not check_simple_set(n3, [s]).ok  # decomposable member
