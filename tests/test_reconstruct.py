"""Generator construction and the graded endomorphism algebra.

Frozen values: over the two-vertex algebra with alpha beta = 0 = beta alpha
the generator is P(u) + P(v) with layer multiplicities ((1,1),(1,1)) and
graded endomorphism dimensions (2,2) with vanishing degree-1 products; over
k[x]/(x^3) with members {J2} the cover kernel J1 needs the padding J3, the
generator is J3 + J3 with layers (J2,J2,J2), and the graded dimensions are
(1,1,1) with a nonzero degree-1 square -- recomputed here by the
elimination oracle.  For every bundled self-injective algebra, taking the
simples as members must reproduce the graded algebra of the radical
filtration of the algebra itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracle_graded import graded_end_dims
from stabrec import fixtures
from stabrec.errors import PresentationError
from stabrec.filtration import Filtration, _full_rows, _empty_rows
from stabrec.graded import graded_iso_check
from stabrec.modules import combine, direct_sum, hom_space, quotient, radical, radical_series
from stabrec.reconstruct import (
    FilteredModule,
    end_g,
    filtered_direct_sum,
    filtered_maps,
    generator_build,
    graded_compose,
    graded_hom,
)


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


def lam_block(lam, v: int, sset):
    """P(v) with its radical chain, as a filtered module."""
    p = lam.projective(v)
    parts = []
    for w, r in enumerate(radical(p)):
        if r.shape[0]:
            g = np.zeros((r.shape[0], p.dim), dtype=np.int16)
            g[:, p.offsets[w]: p.offsets[w + 1]] = r
            parts.append(g)
    rad_global = (np.concatenate(parts) if parts
                  else np.zeros((0, p.dim), dtype=np.int16))
    filt = Filtration(p, sset, [_full_rows(p), rad_global, _empty_rows(p)])
    return FilteredModule(filt)


# -- generator ----------------------------------------------------------------


def test_generator_lambda4(lam):
    sset = fixtures.simples(lam)
    gen = generator_build(lam, sset)
    assert gen.module.dim == 4
    assert len(gen) == 2
    assert gen.filt.mult_sequence() == ((1, 1), (1, 1))
    assert [b["padding"] for b in gen.report["blocks"]] == [(0, 0), (0, 0)]
    assert all(b["padding_alternatives"] == [] for b in gen.report["blocks"])
    assert not gen.report["symmetric"]


def test_generator_n3_twist(n3):
    j2 = jordan(n3, 2)
    gen = generator_build(n3, [j2])
    assert gen.module.dim == 6
    assert gen.filt.mult_sequence() == ((1,), (1,), (1,))
    blk = gen.report["blocks"][0]
    assert blk["padding"] == (1,)
    assert blk["cover_dim"] == 3
    assert gen.report["symmetric"]


def test_generator_n3_simple_is_radical_series(n3):
    j1 = jordan(n3, 1)
    gen = generator_build(n3, [j1])
    assert gen.module.dim == 3
    assert gen.filt.mult_sequence() == ((1,), (1,), (1,))
    assert gen.report["blocks"][0]["padding"] == (0,)


def test_generator_rejects_bad_sets(n3):
    j1, j2, j3 = jordan(n3, 1), jordan(n3, 2), jordan(n3, 3)
    with pytest.raises(PresentationError):
        generator_build(n3, [j3])  # projective member
    with pytest.raises(PresentationError):
        generator_build(n3, [j1, j2])  # nonzero stable Hom between members


def test_filtered_module_rejects_nonradical_chain(n3):
    # a split chain on J2+J2 passes layer checks but fails the level-0
    # stable surjectivity, so the wrapper must refuse it
    j2 = jordan(n3, 2)
    m, injs, _ = direct_sum([j2, j2])
    half = injs[0].global_matrix().T
    filt = Filtration(m, [j2], [_full_rows(m),
                               m.algebra.field.row_space(half),
                               _empty_rows(m)])
    with pytest.raises(PresentationError):
        FilteredModule(filt)


# -- graded Hom ----------------------------------------------------------------


def test_graded_hom_lambda4_blocks(lam):
    sset = fixtures.simples(lam)
    bu = lam_block(lam, 0, sset)
    bv = lam_block(lam, 1, sset)
    assert graded_hom(bu, bu).dims() == (1, 0)
    assert graded_hom(bu, bv).dims() == (0, 1)
    assert graded_hom(bv, bu).dims() == (0, 1)


def test_graded_hom_identity_class(n3):
    j2 = jordan(n3, 2)
    gen = generator_build(n3, [j2])
    gh = graded_hom(gen, gen)
    assert gh.dims()[0] >= 1
    # the identity is a chain-respecting map and its top-layer class is
    # nonzero, hence lies in the degree-0 image
    from stabrec.modules import ModuleMap
    from stabrec.reconstruct import _induced_layer_map
    ident = ModuleMap.identity(gen.module)
    cls = gh.components[0].sh.coords(
        _induced_layer_map(ident, gen, 0, gen, 0))
    assert np.any(cls)
    fld = n3.field
    assert fld.solve(gh.components[0].rows.T, cls) is not None


def test_filtered_maps_shift_reduces_space(n3):
    j2 = jordan(n3, 2)
    gen = generator_build(n3, [j2])
    d0 = len(filtered_maps(gen, gen, shift=0))
    d1 = len(filtered_maps(gen, gen, shift=1))
    d3 = len(filtered_maps(gen, gen, shift=3))
    assert d0 > d1 > 0
    # shift past the chain forces the zero map
    assert d3 == 0


def filtered_maps_by_loop(mf, nf, shift):
    """filtered_maps as first written, one Hom basis map at a time: the
    conditions rows(M_j) G^T ker(N_{j+shift})^T = 0 as one column per map."""
    m, n = mf.module, nf.module
    fld = m.algebra.field
    homs = hom_space(m, n)
    if not homs:
        return []
    chain_m, chain_n = mf.filt.chain, nf.filt.chain
    cols = []
    for h in homs:
        gt = h.global_matrix().T
        parts = []
        for j, rows in enumerate(chain_m[:-1]):
            if rows.shape[0]:
                k = fld.kernel(chain_n[min(j + shift, len(chain_n) - 1)]).T
                parts.append(fld.matmul(fld.matmul(rows, gt), k).reshape(-1))
        cols.append(np.concatenate(parts) if parts else np.zeros(0, dtype=np.int16))
    return [combine(homs, c) for c in fld.kernel(np.stack(cols, axis=1))]


@pytest.mark.parametrize("name", fixtures.CORPUS)
def test_filtered_maps_match_the_per_map_loop(name):
    # the batched conditions give the same basis, byte for byte, at every
    # shift up to past the end of the chain
    alg = fixtures.load(name)
    gen = generator_build(alg, fixtures.simples(alg))
    for shift in range(len(gen) + 1):
        got = [g.flat().tobytes() for g in filtered_maps(gen, gen, shift)]
        assert got == [g.flat().tobytes() for g in filtered_maps_by_loop(gen, gen, shift)]


# -- composition and the graded algebra -----------------------------------------


def test_end_g_lambda4(lam):
    sset = fixtures.simples(lam)
    eg = end_g(generator_build(lam, sset))
    assert eg.dims_by_degree() == {0: 2, 1: 2}
    ones = eg.degree_indices(1)
    for i in ones:
        for j in ones:
            assert not np.any(eg.table[i, j])
    res = graded_iso_check(eg, lam.gr_oracle())
    assert res.verdict == "iso"


def test_end_g_n3_simple_powers(n3):
    j1 = jordan(n3, 1)
    eg = end_g(generator_build(n3, [j1]))
    assert tuple(eg.dims_by_degree().values()) == (1, 1, 1)
    (one,) = eg.degree_indices(1)
    (two,) = eg.degree_indices(2)
    sq = eg.table[one, one]
    assert np.any(sq) and np.nonzero(sq)[0].tolist() == [two]
    assert graded_iso_check(eg, n3.gr_oracle()).verdict == "iso"


def test_end_g_n3_twist_matches_oracle(n3):
    j2 = jordan(n3, 2)
    gen = generator_build(n3, [j2])
    eg = end_g(gen)
    assert tuple(eg.dims_by_degree().values()) == (1, 1, 1)
    assert graded_end_dims(gen.module, gen.filt.chain) == (1, 1, 1)
    (one,) = eg.degree_indices(1)
    (two,) = eg.degree_indices(2)
    assert np.nonzero(eg.table[one, one])[0].tolist() == [two]
    assert graded_iso_check(eg, n3.gr_oracle()).verdict == "iso"


def test_degree_zero_split_semisimple(lam, n3):
    for alg, sset in ((lam, fixtures.simples(lam)),
                      (n3, [jordan(n3, 2)])):
        eg = end_g(generator_build(alg, sset))
        idems = eg.primitive_idempotents()
        assert len(idems) == len(sset)
        for a, ea in enumerate(idems):
            for b, eb in enumerate(idems):
                prod = eg.mul_vec(ea, eb)
                if a == b:
                    assert np.array_equal(prod, ea)
                else:
                    assert not np.any(prod)


def test_graded_compose_random_elements(n3):
    j2 = jordan(n3, 2)
    gen = generator_build(n3, [j2])
    gh = graded_hom(gen, gen)
    rng = np.random.default_rng(3)
    q = n3.field.q
    for _ in range(8):
        di = int(rng.integers(0, len(gh.components)))
        dj = int(rng.integers(0, len(gh.components)))
        ci = rng.integers(0, q, gh.components[di].dim)
        cj = rng.integers(0, q, gh.components[dj].dim)
        f = gh.element(di, ci)
        g = gh.element(dj, cj)
        # internal lift-independence and composite-lift checks must pass
        prod = graded_compose(f, g, out=gh)
        assert prod.degree == di + dj


def test_filtered_direct_sum_matches_generator(lam):
    sset = fixtures.simples(lam)
    gen = generator_build(lam, sset)
    bu = lam_block(lam, 0, sset)
    bv = lam_block(lam, 1, sset)
    both = filtered_direct_sum([bu, bv])
    assert both.module.dim == gen.module.dim
    assert both.filt.mult_sequence() == gen.filt.mult_sequence()


def test_oracle_law_all_fixtures():
    for name in fixtures.CORPUS:
        alg = fixtures.load(name)
        sset = fixtures.simples(alg)
        eg = end_g(generator_build(alg, sset))
        res = graded_iso_check(eg, alg.gr_oracle())
        assert res.verdict == "iso", f"{name}: {res.reason}"
