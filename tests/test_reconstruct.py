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
from stabrec import fixtures, io, reconstruct
from stabrec.errors import PresentationError
from stabrec.filtration import Filtration
from stabrec.graded import graded_iso_check
from stabrec.modules import (ModuleMap, combine, direct_sum, hom_space, quotient, radical,
                             radical_series)
from stabrec.reconstruct import (
    FilteredModule,
    _induced_layer_map,
    end_g,
    filtered_direct_sum,
    filtered_maps,
    generator_build,
    graded_hom,
)
from stabrec.stable import syzygy


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


def full_rows(m):
    return np.eye(m.dim, dtype=np.int16)


def empty_rows(m):
    return np.zeros((0, m.dim), dtype=np.int16)


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
    filt = Filtration(p, sset, [full_rows(p), rad_global, empty_rows(p)])
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
    filt = Filtration(m, [j2], [full_rows(m),
                               m.algebra.field.row_space(half),
                               empty_rows(m)])
    with pytest.raises(PresentationError):
        FilteredModule(filt)


# -- graded Hom ----------------------------------------------------------------


def test_graded_hom_lambda4_blocks(lam):
    sset = fixtures.simples(lam)
    bu = lam_block(lam, 0, sset)
    bv = lam_block(lam, 1, sset)
    assert [c.dim for c in graded_hom(bu, bu)] == [1, 0]
    assert [c.dim for c in graded_hom(bu, bv)] == [0, 1]
    assert [c.dim for c in graded_hom(bv, bu)] == [0, 1]


def test_graded_hom_identity_class(n3):
    j2 = jordan(n3, 2)
    gen = generator_build(n3, [j2])
    deg0 = graded_hom(gen, gen)[0]
    assert deg0.dim >= 1
    # the identity is a chain-respecting map and its top-layer class is
    # nonzero, hence lies in the degree-0 image
    ident = ModuleMap.identity(gen.module)
    cls = deg0.sh.coords(_induced_layer_map(ident, gen, 0, gen, 0))
    assert np.any(cls)
    assert n3.field.solve(deg0.rows.T, cls) is not None


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


def test_end_g_products_match_composite_lifts(n3):
    # for random x, y of each pair of degrees, the product read off end_g's
    # table is the level-0 class of the composite of lifts of x and y, each
    # lift a combination of graded_hom's lifts
    nak3 = fixtures.load("nak3")
    for alg, sset in ((n3, [jordan(n3, 2)]), (nak3, fixtures.simples(nak3))):
        check_products_against_composite_lifts(generator_build(alg, sset))


def check_products_against_composite_lifts(gen):
    eg = end_g(gen)
    comps = graded_hom(gen, gen)
    fld = gen.module.algebra.field
    rng = np.random.default_rng(3)
    for di, ci in enumerate(comps):
        for dj, cj in enumerate(comps):
            if not (ci.dim and cj.dim):
                continue
            x = rng.integers(0, fld.q, ci.dim)
            y = rng.integers(0, fld.q, cj.dim)
            xv = np.zeros(eg.dim, dtype=np.int16)
            yv = np.zeros(eg.dim, dtype=np.int16)
            xv[eg.degree_indices(di)] = x
            yv[eg.degree_indices(dj)] = y
            prod = eg.mul_vec(xv, yv)
            d = di + dj
            if d >= len(comps):
                assert not np.any(prod)
                continue
            assert not np.any(np.delete(prod, eg.degree_indices(d)))
            read = fld.matmul(prod[None, eg.degree_indices(d)], comps[d].rows)[0]
            composite = combine(ci.lifts, x).compose(combine(cj.lifts, y))
            assert np.array_equal(
                read, comps[d].sh.coords(_induced_layer_map(composite, gen, 0, gen, d)))


@pytest.mark.parametrize("corrupt,message", [
    ("lifts", "composite lift disagrees with the product"),
    ("trivial", "composition depends on the choice of lift"),
], ids=["lifts", "trivial"])
def test_end_g_checks_catch_lifts_of_the_wrong_class(n3, monkeypatch, corrupt, message):
    real = reconstruct.graded_hom

    def corrupted(mf, nf):
        comps = real(mf, nf)
        if corrupt == "lifts":
            # degree-1 lifts of twice their rows: the product of the identity
            # class and a row reads the row, the composite of lifts twice it
            comps[1].lifts = [combine([g], [2]) for g in comps[1].lifts]
        else:
            # a "zero-class" map that is the identity's lift: the shifted
            # lift induces twice the identity on the top layer
            comps[0].trivial = comps[0].lifts[0]
        return comps

    monkeypatch.setattr(reconstruct, "graded_hom", corrupted)
    with pytest.raises(PresentationError, match=message):
        end_g(generator_build(n3, [jordan(n3, 2)]))


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


# -- byte pin -------------------------------------------------------------------

# Per (algebra, d): sha256 prefixes of the canonical dump_graded of end_g of
# the generator for the members Omega^d of the simples (d = 0: the simples),
# and of the generator's chain rows, then its layer multiplicity sequence.
RECONSTRUCT_PIN = {
    ("lambda4", 0): ("fc503357ed4849f2", "bacc0a2e59c4ffb3", ((1, 1), (1, 1))),
    ("n3", 0): ("6adf6a1a2447aae8", "829de3a03b4b32af", ((1,), (1,), (1,))),
    ("kx2", 0): ("577d3aa18bdda9e0", "50756d9d5f9a41c1", ((1,), (1,))),
    ("nak3", 0): ("bfff1667082c1257", "2652f91f98c84fc3", ((1, 1, 1),) * 3),
    ("ka4", 0): ("d0e1d878daeaa5ee", "a19eaa2dcab5e8c8",
                 ((1, 1, 1), (2, 2, 2), (1, 1, 1))),
    ("lambda4", 1): ("1cfec3ade7fcea95", "3fe57d1e15d7d855", ((1, 1), (1, 1))),
    ("lambda4", -1): ("cc6af74d9981c4a1", "3fe57d1e15d7d855", ((1, 1), (1, 1))),
    ("lambda4", 2): ("f238cf00d7160b7c", "bacc0a2e59c4ffb3", ((1, 1), (1, 1))),
    ("n3", 1): ("12ecf02c22c0cd75", "a2edccccc8a67609", ((1,), (1,), (1,))),
    ("n3", -1): ("fb406cd6fd243128", "a2edccccc8a67609", ((1,), (1,), (1,))),
    ("n3", 2): ("b02bda000a047109", "829de3a03b4b32af", ((1,), (1,), (1,))),
    ("kx2", 1): ("340aa2e873468027", "50756d9d5f9a41c1", ((1,), (1,))),
    ("kx2", -1): ("eaba44d8af509279", "50756d9d5f9a41c1", ((1,), (1,))),
    ("kx2", 2): ("3acd18424a882662", "50756d9d5f9a41c1", ((1,), (1,))),
    ("nak3", 1): ("e71738ca4a91914f", "a7a67f8f61542efd", ((1, 1, 1),) * 3),
    ("nak3", -1): ("608a236bea88ad64", "a7a67f8f61542efd", ((1, 1, 1),) * 3),
    ("nak3", 2): ("c0f070f2e80e23ee", "2652f91f98c84fc3", ((1, 1, 1),) * 3),
}


@pytest.mark.parametrize("name,d", sorted(RECONSTRUCT_PIN), ids=str)
def test_reconstruct_bytes_are_pinned(name, d):
    alg = fixtures.load(name)
    sset = [syzygy(s, d) if d else s for s in fixtures.simples(alg)]
    gen = generator_build(alg, sset)
    graded = io.sha256_text(io.canon_dumps(io.dump_graded(end_g(gen))))
    chain = io.sha256_text(io.canon_dumps([r.tolist() for r in gen.filt.chain]))
    assert (graded[:16], chain[:16], gen.filt.mult_sequence()) == RECONSTRUCT_PIN[name, d]
