"""Module category operations over the fixture algebras.

Hom dimensions and syzygy identifications below follow from the standard
structure of k[x]/(x^3) and of the two-vertex algebra with alpha beta = 0 =
beta alpha; all were worked out on paper first.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabrec import fixtures
from stabrec import modules
from stabrec.algebra import Algebra
from stabrec.errors import PresentationError
from stabrec.gf import Field
from stabrec.modules import (
    Module,
    ModuleMap,
    cokernel,
    combinations,
    combine,
    cover_kernel,
    decompose,
    direct_sum,
    end_space,
    ext1,
    extend_along_injection,
    factor_through_injection,
    factor_through_surjection,
    flat_to_map,
    hom_space,
    hull_cokernel,
    image,
    injective_hull,
    is_exact_pair,
    is_injective_module,
    is_projective,
    kernel,
    lift_through_surjection,
    module_isomorphic,
    projective_cover,
    pushout,
    quotient,
    radical_series,
    radical_submodule,
    ses_class,
    socle_dims,
    submodule,
    top_dims,
    zero_module,
)
from stabrec.stable import stable_core, syzygy


@pytest.fixture(scope="module")
def lam():
    return fixtures.load("lambda4")


@pytest.fixture(scope="module")
def n3():
    return fixtures.load("n3")


def jordan(n3, i: int) -> Module:
    """k[x]/(x^i) as a module over k[x]/(x^3)."""
    p = n3.projective(0)
    series = radical_series(p)
    rows = series[i][0]
    block = np.zeros((rows.shape[0], p.dim), dtype=np.int16)
    block[:, : rows.shape[1]] = rows
    q, _ = quotient(p, block, name=f"J{i}")
    return q


def test_jordan_dims(n3):
    assert [jordan(n3, i).dim for i in (1, 2, 3)] == [1, 2, 3]


def test_hom_dimensions_n3(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    assert len(hom_space(j2, j2)) == 2
    assert len(hom_space(j3, j2)) == 2
    assert len(hom_space(j1, j2)) == 1
    assert len(hom_space(j1, j3)) == 1
    assert len(hom_space(j2, j1)) == 1
    for f in hom_space(j3, j2):
        assert f.is_map()


def test_hom_dimensions_lambda4(lam):
    pu, pv = lam.projective(0), lam.projective(1)
    su, sv = lam.simple(0), lam.simple(1)
    assert len(hom_space(pu, pv)) == 1
    assert len(hom_space(pu, pu)) == 1
    assert len(hom_space(pu, su)) == 1
    assert len(hom_space(su, pu)) == 0
    assert len(hom_space(sv, pu)) == 1  # socle embedding


def test_top_socle_radical(lam):
    pu = lam.projective(0)
    assert top_dims(pu) == (1, 0)
    assert socle_dims(pu) == (0, 1)
    rad, incl = radical_submodule(pu)
    assert rad.dims == (0, 1)
    assert incl.is_injective_map()


def test_kernel_image_cokernel(n3):
    j2, j3 = jordan(n3, 2), jordan(n3, 3)
    maps = hom_space(j3, j2)
    f = next(m for m in maps if m.is_surjective_map())
    k, incl = kernel(f)
    assert k.dim == 1
    assert f.compose(incl).is_zero()
    im, _ = image(f)
    assert im.dim == 2
    c, proj = cokernel(f)
    assert c.dim == 0


def test_projective_cover_and_syzygy(lam):
    su = lam.simple(0)
    k, incl, p, epi = cover_kernel(su)
    assert p.dims == (1, 1)
    assert k.dims == (0, 1)  # the syzygy of S(u) is S(v)
    sv = lam.simple(1)
    assert module_isomorphic(k, sv) is not None
    k2, _, _, _ = cover_kernel(k)
    assert module_isomorphic(k2, su) is not None  # period 2


def test_projective_cover_minimality(n3):
    j2 = jordan(n3, 2)
    p, epi = projective_cover(j2)
    assert p.dim == 3
    k, _ = kernel(epi)
    assert k.dim == 1
    # kernel lies in the radical: no generator of P dies
    assert top_dims(k) == (1,) and socle_dims(p) == (1,)


def test_injective_hull(n3):
    j1 = jordan(n3, 1)
    i, mono = injective_hull(j1)
    assert i.dim == 3
    assert mono.is_injective_map()
    c, proj, _, _ = hull_cokernel(j1)
    assert c.dim == 2  # cosyzygy of the simple is J2


def test_injective_hull_lambda4(lam):
    su = lam.simple(0)
    i, mono = injective_hull(su)
    # I(S_u) = I_u = P_v for this algebra
    pv = lam.projective(1)
    assert module_isomorphic(i, pv) is not None
    assert mono.is_injective_map()


def reference_hull(m: Module):
    """The injective hull with its mono built row by row: for each functional
    xi dual to the socle basis of m_v, vertex w and path b from w to v, the
    row xi M_b is one word action and one product."""
    A, f = m.algebra, m.algebra.field
    pieces = []
    for v, s in enumerate(modules.socle(m)):
        if not s.shape[0]:
            continue
        r, piv = f.rref(s)
        free = [c for c in range(m.dims[v]) if c not in piv]
        basis = np.concatenate([r[: len(piv)]] +
                               ([np.eye(m.dims[v], dtype=np.int16)[free]] if free else []))
        binv = f.matinv(basis.T)
        pieces.extend((v, binv[j]) for j in range(s.shape[0]))
    big = direct_sum([A.injective(v) for v, _ in pieces], name=f"I({m.name})")[0]
    blocks = [np.zeros((big.dims[w], m.dims[w]), dtype=np.int16) for w in range(len(m.dims))]
    row_off = [0] * len(m.dims)
    for v, xi in pieces:
        for w in range(len(m.dims)):
            for j, b in enumerate(A.projective_basis_words(w, v)):
                word = A.basis_words[b]
                row = f.matmul(xi[None, :], m.word_action(word))[0] if word else xi
                blocks[w][row_off[w] + j] = row
            row_off[w] += A.injective(v).dims[w]
    return big, blocks


@pytest.mark.parametrize("name", fixtures.CORPUS + fixtures.EXTRAS)
def test_injective_hull_matches_row_by_row_reference(name):
    alg = fixtures.load(name)
    simples = fixtures.simples(alg)
    mods = (simples + [alg.projective(v) for v in range(alg.nvertices)]
            + [cover_kernel(s)[0] for s in simples])
    if alg.self_injectivity().ok:
        mods += [syzygy(s, 1) for s in simples]
    # doubled, a vertex carries several socle functionals
    for m in [m for m in mods if m.dim] + [direct_sum([m, m])[0] for m in mods if m.dim]:
        i, mono = injective_hull(m)
        ref_i, ref_blocks = reference_hull(m)
        assert (i.key, i.name) == (ref_i.key, ref_i.name)
        assert [b.tobytes() for b in mono.blocks] == [b.tobytes() for b in ref_blocks]
        assert [b.shape for b in mono.blocks] == [b.shape for b in ref_blocks]


def test_memoised_constructions_keep_each_name(lam):
    s = lam.simple(0)
    twin = Module(lam, s.dims, s.mats, name="twin", check=False)
    assert twin.key == s.key
    for m in (s, twin):
        i, mono = injective_hull(m)
        p, epi = projective_cover(m)
        core, kept, _, on_core = stable_core(m)
        assert (i.name, mono.src.name) == (f"I({m.name})", m.name)
        assert (p.name, epi.tgt.name) == (f"P({m.name})", m.name)
        assert core.name == f"core({m.name})"
        assert [x.module.name for x in kept + on_core] == [m.name, m.name]
        # a second module with the same content and name shares the values
        again = Module(lam, m.dims, m.mats, name=m.name, check=False)
        assert injective_hull(again)[1] is mono and projective_cover(again)[1] is epi
        assert stable_core(again)[0] is core
    with pytest.raises(ValueError):
        injective_hull(s)[1].blocks[0][...] = 0


def test_projective_injective_flags(n3, lam):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    assert is_projective(j3) and is_injective_module(j3)
    assert not is_projective(j2) and not is_injective_module(j2)
    assert not is_projective(j1)
    assert is_projective(lam.projective(0))
    assert is_injective_module(lam.projective(0))  # self-injective algebra


@pytest.mark.parametrize("name", fixtures.CORPUS + fixtures.EXTRAS)
def test_hom_flats_out_of_projectives_keep_the_kernel_bytes(name):
    # out of a projective, hom_flats is the row space of the generator basis;
    # it must be the Kronecker kernel byte for byte.  Projectives in scrambled
    # bases (one sum repeats a summand) and the zero module against
    # projectives, injectives, simples, zero and a scrambled sum; staircase
    # has projectives zero at some vertices, simples are zero at all but one
    alg = fixtures.load(name)
    ps = [alg.projective(v) for v in range(alg.nvertices)]
    simples = fixtures.simples(alg)
    sources = [scrambled(p, v) for v, p in enumerate(ps)]
    sources += [scrambled(direct_sum(ps + ps[:1])[0], 11), zero_module(alg)]
    targets = ps + [alg.injective(v) for v in range(alg.nvertices)] + simples
    targets += [scrambled(direct_sum(ps + simples)[0], 12), zero_module(alg)]
    for p in sources:
        assert is_projective(p)
        for n in targets:
            got, want = modules._hom_flats(p, n), modules._kronecker_flats(p, n)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
            gen = modules._generated_hom_flats(p, n)
            assert len(gen) == len(want)
            assert all(flat_to_map(p, n, row).is_map() for row in gen)


def test_generated_hom_flats_refuses_a_non_projective(n3):
    # J2 has one generator, but its three paths do not give a basis of it
    with pytest.raises(PresentationError, match="not projective"):
        modules._generated_hom_flats(jordan(n3, 2), n3.projective(0))


def test_direct_sum_witnesses(n3):
    j1, j2 = jordan(n3, 1), jordan(n3, 2)
    s, injs, projs = direct_sum([j1, j2])
    assert s.dim == 3
    ident = injs[0].compose(projs[0]).add(injs[1].compose(projs[1]))
    assert np.array_equal(ident.global_matrix(), np.eye(3, dtype=np.int16))
    assert projs[0].compose(injs[0]).is_iso()
    assert projs[1].compose(injs[0]).is_zero()


def test_decompose_two_blocks(n3):
    j1, j2 = jordan(n3, 1), jordan(n3, 2)
    s, _, _ = direct_sum([j1, j2], name="J1+J2")
    pieces = decompose(s)
    assert sorted(p.module.dim for p in pieces) == [1, 2]
    total = None
    for p in pieces:
        term = p.incl.compose(p.proj)
        total = term if total is None else total.add(term)
    assert np.array_equal(total.global_matrix(), np.eye(3, dtype=np.int16))
    for p in pieces:
        assert p.proj.compose(p.incl).is_iso()


def test_decompose_indecomposable_certificate(n3):
    j2 = jordan(n3, 2)
    pieces = decompose(j2)
    assert len(pieces) == 1


def test_module_isomorphic(n3):
    j1, j3 = jordan(n3, 1), jordan(n3, 3)
    a, _, _ = direct_sum([j1, j3])
    b, _, _ = direct_sum([j3, j1])
    f = module_isomorphic(a, b)
    assert f is not None and f.is_iso() and f.is_map()
    assert module_isomorphic(j1, j3) is None
    j2 = jordan(n3, 2)
    c, _, _ = direct_sum([j1, j1])
    assert module_isomorphic(c, j2) is None  # same dims, different action


def test_ext1_lambda4(lam):
    su, sv = lam.simple(0), lam.simple(1)
    assert ext1(su, sv).dim == 1
    assert ext1(su, su).dim == 0
    assert ext1(lam.projective(0), sv).dim == 0


def test_ext_realize_round_trip(lam):
    su, sv = lam.simple(0), lam.simple(1)
    e = ext1(su, sv)
    rep = e.reps[0]
    total, mono, epi = e.realize(rep)
    assert is_exact_pair(mono, epi)
    assert total.dim == 2
    # the extension realizing the generator is the projective P(u)
    assert module_isomorphic(total, lam.projective(0)) is not None
    coords = ses_class(e, mono, epi)
    assert coords.tolist() == [1]
    # the split extension has class zero
    zero_rep = ModuleMap.zero(e.k, sv)
    tot0, mono0, epi0 = e.realize(zero_rep)
    assert is_exact_pair(mono0, epi0)
    assert ses_class(e, mono0, epi0).tolist() == [0]


def pullback(f: ModuleMap, g: ModuleMap):
    """Pullback of f: Y -> X and g: Z -> X, the kernel of (f, -g) on Y + Z:
    (W, py, pz) with py: W -> Y, pz: W -> Z and f py = g pz.  The reference
    each resolution step is checked against."""
    if f.tgt.key != g.tgt.key:
        raise PresentationError("pullback legs must share their target")
    _, _, (py, pz) = direct_sum([f.src, g.src])
    w, incl = kernel(f.compose(py).sub(g.compose(pz)), name="pullback")
    return w, py.compose(incl), pz.compose(incl)


def test_pushout_pullback(n3):
    j1, j2, j3 = (jordan(n3, i) for i in (1, 2, 3))
    # pushout of the socle embeddings J1 -> J2 along J1 -> J3
    f = hom_space(j1, j2)[0]
    g = hom_space(j1, j3)[0]
    w, py, pz = pushout(f, g)
    assert w.dim == 4
    assert py.compose(f).sub(pz.compose(g)).is_zero()
    epi = hom_space(j3, j2)
    s = next(m for m in epi if m.is_surjective_map())
    w2, qy, qz = pullback(s, s)
    assert w2.dim == 4
    assert s.compose(qy).sub(s.compose(qz)).is_zero()


def test_factor_helpers(n3):
    j2, j3 = jordan(n3, 2), jordan(n3, 3)
    epi = next(m for m in hom_space(j3, j2) if m.is_surjective_map())
    # factor j3 -> j2 -> j2 through itself
    ident = ModuleMap.identity(j2)
    h = factor_through_surjection(epi, epi)
    assert np.array_equal(h.global_matrix(), ident.global_matrix())
    lift = lift_through_surjection(epi, epi)
    assert epi.compose(lift).sub(epi).is_zero()
    mono = next(m for m in hom_space(j2, j3) if m.is_injective_map())
    # maps into the injective module J3 extend along any mono out of J2
    for f in hom_space(j2, j3):
        ext = extend_along_injection(mono, f)
        assert ext.compose(mono).sub(f).is_zero()
    # the identity of J2 does not extend: the mono is not split
    with pytest.raises(PresentationError):
        extend_along_injection(mono, ModuleMap.identity(j2))
    back = factor_through_injection(mono, mono)
    assert np.array_equal(back.global_matrix(), np.eye(2, dtype=np.int16))


def test_submodule_quotient_round_trip(lam):
    pu = lam.projective(0)
    rows = np.zeros((1, pu.dim), dtype=np.int16)
    rows[0, pu.offsets[1]] = 1  # the socle vector alpha
    sub, incl = submodule(pu, rows)
    assert sub.dims == (0, 1)
    q, proj = quotient(pu, rows)
    assert q.dims == (1, 0)
    assert proj.compose(incl).is_zero()


def test_zero_module_paths(lam):
    z = zero_module(lam)
    assert z.dim == 0
    assert hom_space(z, lam.projective(0)) == []
    p, epi = projective_cover(z)
    assert p.dim == 0
    assert decompose(z) == []


def test_radical_series_skips_arrows_from_an_empty_layer(lam):
    # rad P(u) = S(v): alpha leaves u, where the layer is already empty
    series = radical_series(lam.projective(0))
    assert [[b.shape for b in layer] for layer in series] == \
        [[(1, 1), (1, 1)], [(0, 1), (1, 1)], [(0, 1), (0, 1)]]


def test_maps_over_an_algebra_with_no_vertices():
    z = zero_module(Algebra(Field(2), [], [], []))
    flat = ModuleMap.identity(z).flat()
    assert flat.shape == (0,) and flat.dtype == np.int16


# -- the exact decomposition engine against brute force ------------------------


def scrambled(m: Module, seed: int) -> Module:
    """m in a random basis: the same isomorphism class, other matrices."""
    fld = m.algebra.field
    rng = np.random.default_rng(seed)
    cs = []
    for d in m.dims:
        c = rng.integers(0, fld.q, size=(d, d)).astype(np.int16)
        while fld.rank(c) < d:
            c = rng.integers(0, fld.q, size=(d, d)).astype(np.int16)
        cs.append(c)
    mats = [fld.matmul(fld.matmul(cs[t], m.mats[a]), fld.matinv(cs[s]))
            for a, (_, s, t) in enumerate(m.algebra.arrows)]
    return Module(m.algebra, m.dims, mats, name=f"{m.name}~")


def stream_module(alg, seed: int) -> Module:
    """Random nonsplit extensions of simples by the module built so far,
    split sums where Ext^1 vanishes."""
    rng = random.Random(seed)
    sset = fixtures.simples(alg)
    m = sset[rng.randrange(len(sset))]
    for _ in range(rng.randint(1, 3)):
        s = sset[rng.randrange(len(sset))]
        ex = ext1(s, m)
        if ex.dim:
            coeffs = [rng.randrange(alg.field.q) for _ in range(ex.dim)]
            coeffs[0] = coeffs[0] or 1
            m = ex.realize(combine(ex.reps, coeffs))[0]
        else:
            m = direct_sum([m, s], name="m")[0]
    return m


def nilpotent_or_invertible(fld, g: np.ndarray) -> bool:
    p = g
    for _ in range(g.shape[0].bit_length()):
        p = fld.matmul(p, p)
    return fld.rank(p) in (0, g.shape[0])


def resolves_identity(m: Module, pieces) -> bool:
    total = ModuleMap.zero(m, m)
    for p in pieces:
        total = total.add(p.incl.compose(p.proj))
    return np.array_equal(total.global_matrix(), np.eye(m.dim, dtype=np.int16))


def known_indecomposables(alg) -> list[Module]:
    """Simples, indecomposable projectives and their (co)syzygies."""
    simples = [alg.simple(v) for v in range(alg.nvertices)]
    return (simples + [alg.projective(v) for v in range(alg.nvertices)]
            + [cover_kernel(s)[0] for s in simples] + [hull_cokernel(s)[0] for s in simples])


def test_decompose_splits_where_no_basis_endomorphism_does():
    # the sum of the uniserials k <- w and k <- wb, glued along two
    # independent vectors of the k-space: End is not local, yet every
    # element of the End basis is nilpotent or invertible
    ka4 = fixtures.load("ka4")
    mats = {"a_k_w": [[0, 0]], "a_k_wb": [[0, 0]], "a_w_k": [[3], [3]], "a_w_wb": [[0]],
            "a_wb_k": [[1], [2]], "a_wb_w": [[0]]}
    m = Module(ka4, (2, 1, 1), [mats[name] for name, _, _ in ka4.arrows])
    assert all(nilpotent_or_invertible(ka4.field, e.global_matrix()) for e in end_space(m))
    pieces = decompose(m)
    assert sorted(p.module.dims for p in pieces) == [(1, 0, 1), (1, 1, 0)]
    assert resolves_identity(m, pieces)
    # P(w) + P(wb) in this basis: the same, and End is not commutative, so
    # its commutator ideal, whose powers are taken, is not zero
    m = scrambled(direct_sum([ka4.projective(ka4.vindex[v]) for v in ("w", "wb")])[0], 1)
    assert all(nilpotent_or_invertible(ka4.field, e.global_matrix()) for e in end_space(m))
    assert any(not np.array_equal(e.compose(f).flat(), f.compose(e).flat())
               for e in end_space(m) for f in end_space(m))
    pieces = decompose(m)
    assert sorted(p.module.dims for p in pieces) == [(1, 1, 2), (1, 2, 1)]
    assert resolves_identity(m, pieces)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["n3", "ka4", "lambda4"]), st.data())
def test_decompose_scrambled_sums(name, data):
    alg = fixtures.load(name)
    pool = known_indecomposables(alg)
    parts = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    m = scrambled(direct_sum(parts)[0], data.draw(st.integers(0, 2 ** 16)))
    pieces = decompose(m)
    assert sorted(p.module.dims for p in pieces) == sorted(x.dims for x in parts)
    assert resolves_identity(m, pieces)
    fld = alg.field
    for p in pieces:
        ends = end_space(p.module)
        if fld.q ** len(ends) <= 4096:  # End is local: no nonzero idempotent mod J
            rows = itertools.product(range(fld.q), repeat=len(ends))
            assert all(nilpotent_or_invertible(fld, e.global_matrix())
                       for e in combinations(ends, rows))


def test_decompose_binds_shared_summands_to_each_caller(lam):
    # two objects with one content key share one memo entry, yet each gets
    # summands mapping into and out of itself, named after itself
    first = scrambled(direct_sum([lam.simple(0), lam.simple(1), lam.projective(0)])[0], 3)
    second = Module(lam, first.dims, first.mats, name="copy")
    assert first.key == second.key
    for m in (first, second):
        pieces = decompose(m)
        assert len(pieces) == 3
        assert all(p.incl.tgt is m and p.proj.src is m for p in pieces)
        assert all(p.incl.src is p.module and p.proj.tgt is p.module for p in pieces)
        assert all(p.module.name.startswith(m.name + ".") for p in pieces)
        assert resolves_identity(m, pieces)
    with pytest.raises(ValueError):  # shared arrays are read-only
        decompose(second)[0].incl.blocks[0][...] = 0
    s = lam.simple(0)
    [only] = decompose(Module(lam, s.dims, s.mats, name="S"))
    assert only.module.name == "S" and only.incl.tgt is only.module


def test_repeated_decompose_does_not_split_again(lam, monkeypatch):
    m = scrambled(direct_sum([lam.simple(1), lam.projective(1), lam.simple(1)])[0], 11)
    before = decompose(m)
    calls = []
    split_once = modules._split_once
    monkeypatch.setattr(modules, "_split_once", lambda x: calls.append(x) or split_once(x))
    after = decompose(Module(lam, m.dims, m.mats, name=m.name))
    assert calls == []
    assert [p.module.name for p in after] == [p.module.name for p in before]
    for p, q in zip(before, after):
        assert p.module.key == q.module.key
        assert np.array_equal(p.incl.global_matrix(), q.incl.global_matrix())
        assert np.array_equal(p.proj.global_matrix(), q.proj.global_matrix())


def exhaustively_isomorphic(m: Module, n: Module) -> bool:
    if m.dims != n.dims:
        return False
    homs = hom_space(m, n)
    if not homs:
        return m.dim == 0
    rows = itertools.product(range(m.algebra.field.q), repeat=len(homs))
    return any(h.is_iso() for h in combinations(homs, rows))


@pytest.mark.parametrize("name", ["n3", "ka4", "lambda4"])
def test_module_isomorphic_against_exhaustive_hom(name):
    # X + Y against a scrambled X + Z for Y, Z of equal dims, among them
    # sums of two simples: the pairs differing in one summand, and the
    # isomorphic ones where Y = Z
    alg = fixtures.load(name)
    simples = [alg.simple(v) for v in range(alg.nvertices)]
    pool = known_indecomposables(alg) + [
        direct_sum(pair)[0] for pair in itertools.combinations_with_replacement(simples, 2)]
    q, seen = alg.field.q, set()
    for x in [None] + simples:
        for i, y in enumerate(pool):
            for j, z in enumerate(pool):
                if y.dims != z.dims:
                    continue
                a = direct_sum([x, y])[0] if x is not None else y
                b = scrambled(direct_sum([x, z])[0] if x is not None else z, 7 * i + j)
                if q ** len(hom_space(a, b)) > 4096:
                    continue
                iso = module_isomorphic(a, b)
                assert (iso is not None) == exhaustively_isomorphic(a, b)
                if iso is not None:
                    assert iso.is_map() and iso.is_iso()
                seen.add(iso is not None)
    assert seen == {True, False}


@pytest.mark.parametrize("name", fixtures.CORPUS + fixtures.EXTRAS)
def test_projectivity_by_dimension_count(name):
    # against the definitions: the cover kernel, resp. hull cokernel, is
    # zero; the extras are not self-injective, so there the two differ
    alg = fixtures.load(name)
    mods = known_indecomposables(alg) + [alg.injective(v) for v in range(alg.nvertices)]
    mods += [scrambled(direct_sum([a, b])[0], seed)
             for seed, (a, b) in enumerate(itertools.combinations(mods, 2))]
    kinds = set()
    for m in mods:
        proj, inj = cover_kernel(m)[0].dim == 0, hull_cokernel(m)[0].dim == 0
        assert is_projective(m) == proj
        assert is_injective_module(m) == inj
        kinds.add((proj, inj))
    assert (False, False) in kinds and any(proj for proj, _ in kinds)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["kx2", "nak3", "ka4"]), st.sampled_from(["left", "right", "both"]),
       st.data())
def test_compose_flats_against_the_per_map_loop(name, side, data):
    # GF(2), GF(3), GF(4): rows of Hom(X, Y) composed with left: Y -> T
    # and/or right: S -> X, against h.compose(...).flat() map by map; the
    # pool has simples (zero at every other vertex) and the zero module,
    # and every case is also run on no rows at all
    alg = fixtures.load(name)
    fld = alg.field
    pool = known_indecomposables(alg) + [zero_module(alg), scrambled(
        direct_sum([alg.simple(0), alg.projective(alg.nvertices - 1)])[0], 5)]
    s, x, y, t = (data.draw(st.sampled_from(pool)) for _ in range(4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))

    def some_rows(src, tgt, count):
        basis = modules.hom_flats(src, tgt)
        coeffs = rng.integers(0, fld.q, size=(count, len(basis))).astype(np.int16)
        return fld.matmul(coeffs, basis) if len(basis) else \
            np.zeros((count, sum(a * c for a, c in zip(tgt.dims, src.dims))), dtype=np.int16)

    left = flat_to_map(y, t, some_rows(y, t, 1)[0]) if side != "right" else None
    right = flat_to_map(s, x, some_rows(s, x, 1)[0]) if side != "left" else None
    out_src, out_tgt = (x if right is None else s), (y if left is None else t)
    rows = some_rows(x, y, data.draw(st.integers(1, 4)))
    for r in (rows, rows[:0]):
        got = modules.compose_flats(r, x, y, left=left, right=right)
        want = np.zeros((0, sum(a * c for a, c in zip(out_tgt.dims, out_src.dims))),
                        dtype=np.int16)
        for vec in r:
            h = flat_to_map(x, y, vec)
            h = h if left is None else left.compose(h)
            h = h if right is None else h.compose(right)
            want = np.concatenate([want, h.flat()[None, :]])
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert np.array_equal(got, want)


# -- submodules and quotients on their spaces, against closing first -------------


def submodule_closure(m: Module, rows: np.ndarray) -> np.ndarray:
    """Global row basis (canonical per-vertex echelon) of the submodule
    generated by the given global row vectors, closed arrow by arrow until
    nothing grows: the reference the space builders are checked against."""
    f = m.algebra.field
    nv = len(m.dims)
    per_vertex = [m.slice_of(np.atleast_2d(rows), v) if rows.size else
                  np.zeros((0, m.dims[v]), dtype=np.int16) for v in range(nv)]
    spaces = [f.row_space(p) for p in per_vertex]
    changed = True
    while changed:
        changed = False
        for a, (_, u, v) in enumerate(m.algebra.arrows):
            if spaces[u].shape[0] == 0 or m.dims[v] == 0:
                continue
            img = f.matmul(m.mats[a], spaces[u].T).T
            combined = f.row_space(np.concatenate([spaces[v], img], axis=0))
            if combined.shape[0] != spaces[v].shape[0]:
                spaces[v] = combined
                changed = True
    out = []
    for v in range(nv):
        block = np.zeros((spaces[v].shape[0], m.dim), dtype=np.int16)
        block[:, m.offsets[v]: m.offsets[v + 1]] = spaces[v]
        out.append(block)
    return np.concatenate(out, axis=0) if out else np.zeros((0, m.dim), dtype=np.int16)


def closing_spaces(m: Module, rows: np.ndarray) -> list[np.ndarray]:
    """The per-vertex bases that submodule and quotient once took: the rows
    closed under the arrows, then split row by row."""
    fld = m.algebra.field
    closed = submodule_closure(m, rows) if rows.size else np.zeros((0, m.dim), np.int16)
    spaces = [[] for _ in m.dims]
    for row in closed:
        v = next(v for v in range(len(m.dims)) if np.any(m.slice_of(row[None, :], v)))
        spaces[v].append(m.slice_of(row[None, :], v)[0])
    return [fld.row_space(np.array(s, dtype=np.int16).reshape(len(s), d)) if s
            else np.zeros((0, d), dtype=np.int16) for s, d in zip(spaces, m.dims)]


def closing_submodule(m: Module, rows: np.ndarray, name: str = "sub"):
    fld = m.algebra.field
    spaces = closing_spaces(m, rows)
    dims = tuple(s.shape[0] for s in spaces)
    mats = [np.zeros((dims[v], dims[u]), dtype=np.int16) if dims[u] == 0 or dims[v] == 0
            else fld.solve_matrix(spaces[v].T, fld.matmul(m.mats[a], spaces[u].T))
            for a, (_, u, v) in enumerate(m.algebra.arrows)]
    sub = Module(m.algebra, dims, mats, name=name, check=False)
    return sub, ModuleMap(sub, m, [s.T for s in spaces])


def closing_quotient(m: Module, rows: np.ndarray, name: str = "quot"):
    fld = m.algebra.field
    projs, sections = [], []
    for v, s in enumerate(closing_spaces(m, rows)):
        r, piv = fld.rref(s)
        r = r[: len(piv)]
        free = [c for c in range(m.dims[v]) if c not in piv]
        sel = np.zeros((len(piv), m.dims[v]), dtype=np.int16)
        for i, p in enumerate(piv):
            sel[i, p] = 1
        reducer = fld.sub_mat(np.eye(m.dims[v], dtype=np.int16), fld.matmul(r.T, sel))
        projs.append(reducer[free, :] if free else np.zeros((0, m.dims[v]), dtype=np.int16))
        sec = np.zeros((m.dims[v], len(free)), dtype=np.int16)
        sec[free, range(len(free))] = 1
        sections.append(sec)
    mats = [fld.matmul(projs[v], fld.matmul(m.mats[a], sections[u]))
            for a, (_, u, v) in enumerate(m.algebra.arrows)]
    quot = Module(m.algebra, [p.shape[0] for p in projs], mats, name=name, check=False)
    return quot, ModuleMap(m, quot, projs)


def closing_cokernel(fmap: ModuleMap, name: str = "coker"):
    fld, m = fmap.src.algebra.field, fmap.tgt
    rows = []
    for v in range(len(m.dims)):
        space = fld.row_space(fmap.blocks[v].T)
        block = np.zeros((space.shape[0], m.dim), dtype=np.int16)
        block[:, m.offsets[v]: m.offsets[v + 1]] = space
        rows.append(block)
    return closing_quotient(m, np.concatenate(rows), name=name)


def closing_pushout(f: ModuleMap, g: ModuleMap):
    _, (iy, iz), _ = direct_sum([f.tgt, g.tgt])
    w, proj = closing_cokernel(iy.compose(f).sub(iz.compose(g)), name="pushout")
    return w, proj.compose(iy), proj.compose(iz)


def built_bytes(mod: Module, *maps: ModuleMap) -> tuple:
    return (mod.key, mod.name) + tuple(
        (h.src.key, h.tgt.key, tuple((b.shape, b.tobytes()) for b in h.blocks)) for h in maps)


@pytest.mark.parametrize("name", fixtures.CORPUS + fixtures.EXTRAS)
def test_spaces_builders_equal_closing_first(name):
    alg = fixtures.load(name)
    fld, pool = alg.field, known_indecomposables(alg)
    rng = np.random.default_rng(len(name))
    for seed in range(9):
        parts = [pool[i] for i in rng.integers(0, len(pool), size=2)]
        m = scrambled(direct_sum(parts)[0], seed)
        rows = rng.integers(0, fld.q, size=(seed % 3, m.dim)).astype(np.int16)
        sub_rows = submodule_closure(m, rows)
        sub, incl = submodule(m, sub_rows)
        assert built_bytes(sub, incl) == built_bytes(*closing_submodule(m, sub_rows))
        assert built_bytes(*quotient(m, sub_rows)) == built_bytes(*closing_quotient(m, sub_rows))
        assert built_bytes(*cokernel(incl)) == built_bytes(*closing_cokernel(incl))
        homs = hom_space(sub, parts[0])
        g = modules.combine(homs, rng.integers(0, fld.q, size=len(homs)).tolist()) if homs \
            else ModuleMap.zero(sub, parts[0])
        assert built_bytes(*pushout(incl, g)) == built_bytes(*closing_pushout(incl, g))


@pytest.mark.parametrize("build", [submodule, quotient])
def test_spaces_builders_refuse_what_is_no_submodule_basis(lam, build):
    pu = lam.projective(0)
    top = np.zeros((1, pu.dim), dtype=np.int16)
    top[0, pu.offsets[0]] = 1  # e_u generates all of P(u), not a line
    with pytest.raises(PresentationError, match="arrow-invariant"):
        build(pu, top)
    both = np.ones((1, pu.dim), dtype=np.int16)  # supported at u and at v
    with pytest.raises(PresentationError, match="vertex-homogeneous"):
        build(pu, both)
    # the submodule they span once split by vertex is the whole module
    assert build(pu, submodule_closure(pu, both))[0].dims == ((1, 1) if build is submodule
                                                                     else (0, 0))
