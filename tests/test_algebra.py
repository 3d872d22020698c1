"""Bound quiver algebra construction: path bases, structure tests, grading.

Expected basis sizes, socle permutations and Gram ranks below were computed
by hand from the presentations before running the code.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from stabrec import fixtures, io
from stabrec.algebra import Algebra, _has_unit_point
from stabrec.cli import main
from stabrec.errors import Inconclusive, PresentationError
from stabrec.gf import Field
from stabrec.modules import Module, ModuleMap, socle


@pytest.fixture(scope="module")
def lam():
    return fixtures.load("lambda4")


@pytest.fixture(scope="module")
def ka4():
    return fixtures.load("ka4")


def test_lambda4_basis(lam):
    assert lam.dim == 4
    words = lam.basis_words
    assert words[:2] == [(), ()]
    assert sorted(words[2:]) == [(0,), (1,)]
    assert lam.loewy_length == 2


def test_lambda4_projectives(lam):
    pu = lam.projective(0)
    pv = lam.projective(1)
    assert pu.dims == (1, 1)
    assert pv.dims == (1, 1)
    # alpha sends e_u to the path alpha, beta then kills it
    assert pu.mats[0].tolist() == [[1]]
    assert pu.mats[1].tolist() == [[0]]


def test_lambda4_self_injective_with_swap(lam):
    si = lam.self_injectivity()
    assert si.ok
    assert si.perm == (1, 0)


def test_lambda4_not_symmetric(lam):
    rep = lam.symmetry()
    assert not rep.symmetric
    # every symmetric functional kills both socle elements alpha and beta
    assert rep.socle_values.shape == (0, 2)


def test_n3_structure():
    a = fixtures.load("n3")
    assert a.dim == 3
    assert a.loewy_length == 3
    si = a.self_injectivity()
    assert si.ok and si.perm == (0,)
    rep = a.symmetry()
    assert rep.symmetric
    # first symmetrizing functional in enumeration order: dual of x^2
    assert rep.functional.tolist() == [0, 0, 1]


def test_kx2_structure():
    a = fixtures.load("kx2")
    assert a.dim == 2
    rep = a.symmetry()
    assert rep.symmetric
    assert rep.functional.tolist() == [0, 1]


def test_nak3_structure():
    a = fixtures.load("nak3")
    assert a.dim == 9
    for v in range(3):
        assert a.projective(v).dims == (1, 1, 1)
    si = a.self_injectivity()
    assert si.ok
    assert si.perm == (2, 0, 1)
    rep = a.symmetry()
    assert not rep.symmetric
    # not weakly symmetric: no symmetric functional sees any socle element
    assert rep.socle_values.shape == (0, 3)


def test_a2_not_self_injective():
    a = fixtures.load("a2")
    si = a.self_injectivity()
    assert not si.ok
    assert "not a permutation" in si.witness


def test_ka4_basis_and_completion(ka4):
    # 3 idempotents + 6 arrows + 3 cycle paths; all length-3 words vanish
    assert ka4.dim == 12
    leads = set(ka4._rules)
    assert (0, 2, 0) in leads and (2, 0, 2) in leads  # derived by completion
    assert (1, 4) in leads and ka4._rules[(1, 4)] == {(0, 2): 1}
    assert ka4.loewy_length == 3


def test_ka4_projectives_and_self_injectivity(ka4):
    pk = ka4.projective(0)
    assert pk.dims == (2, 1, 1)
    si = ka4.self_injectivity()
    assert si.ok
    assert si.perm == (0, 1, 2)  # weakly symmetric


def test_ka4_symmetric(ka4):
    rep = ka4.symmetry()
    assert rep.symmetric
    # first in odometer order: the dual of the three socle cycles
    assert rep.functional.tolist() == [0] * 9 + [1, 1, 1]
    assert rep.socle_values.tolist() == [[1, 1, 1]]
    f = ka4.field
    lam = rep.functional
    # nondegeneracy of the Gram matrix
    n = ka4.dim
    g = np.zeros((n, n), dtype=np.int16)
    for l in np.nonzero(lam)[0]:
        g = f.add_mat(g, f.scale(int(lam[l]), ka4.mult[:, :, l]))
    assert f.rank(g) == n
    # symmetry of the form on all pairs
    for i in range(n):
        for j in range(n):
            ij = int(f.matmul(lam[None, :], ka4.mult[i, j][:, None])[0, 0])
            ji = int(f.matmul(lam[None, :], ka4.mult[j, i][:, None])[0, 0])
            assert ij == ji


def first_gram_functional(a: Algebra):
    """The first symmetric functional, in odometer order over a basis of
    Sym = {lam : lam(b_i b_j) = lam(b_j b_i)}, whose Gram matrix
    lam(b_i b_j) has full rank; None when there is none."""
    f, n = a.field, a.dim
    rows = [f.sub_mat(a.mult[i, j][None], a.mult[j, i][None])[0]
            for i in range(n) for j in range(n)]
    sym = f.kernel(np.stack(rows))
    assert f.q ** sym.shape[0] <= 4096
    for rev in itertools.product(range(f.q), repeat=sym.shape[0]):
        lam = f.matmul(np.array([rev[::-1]], dtype=np.int16), sym)[0]
        gram = f.matmul(a.mult.reshape(n * n, n), lam[:, None]).reshape(n, n)
        if f.rank(gram) == n:
            return lam
    return None


@pytest.mark.parametrize("q", [2, 3, 4])
def test_unit_point_against_brute_force(q):
    # the fixtures' socle images never reach the enumeration branch (fewer
    # than q coordinates vary there), so small fields and wide vectors here
    f = Field(2, 2) if q == 4 else Field(q)
    rng = np.random.default_rng(q)
    assert not _has_unit_point(Field(2), np.zeros(3, dtype=np.int16),
                               np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int16))
    seen = set()
    for _ in range(60):
        n, d = int(rng.integers(1, 6)), int(rng.integers(0, 3))
        a = rng.integers(0, q, size=n).astype(np.int16)
        rows = rng.integers(0, q, size=(d, n)).astype(np.int16)
        points = [f.add_mat(a[None], f.matmul(np.array([c], dtype=np.int16), rows))[0]
                  for c in itertools.product(range(q), repeat=d)] if d else [a]
        want = any(np.all(x) for x in points)
        assert _has_unit_point(f, a, rows.reshape(d, n)) == want
        seen.add(want)
    assert seen == {True, False}


def test_unit_point_bounded():
    # one block of 17 rows sharing a column: 2^17 candidate points over GF(3)
    f = Field(3)
    rows = np.concatenate([np.eye(17, dtype=np.int16), np.ones((17, 1), dtype=np.int16)], axis=1)
    with pytest.raises(Inconclusive):
        _has_unit_point(f, np.zeros(18, dtype=np.int16), rows)
    # over GF(2) the only candidate takes all 17 rows once, which puts
    # a[17] + 1 in the last entry: decided without a walk
    assert _has_unit_point(Field(2), np.zeros(18, dtype=np.int16), rows)
    assert not _has_unit_point(Field(2), np.eye(18, dtype=np.int16)[17], rows)


@pytest.mark.parametrize("p", [2, 3])
def test_symmetry_of_many_blocks(p):
    # 40 copies of k[x]/(x^2): every symmetric functional is nondegenerate
    # iff it is nonzero on each x_i; the socle image is all of F^40
    vs = [f"v{i}" for i in range(40)]
    a = Algebra(Field(p), vs, [(f"x{i}", v, v) for i, v in enumerate(vs)],
                [[(1, [f"x{i}", f"x{i}"])] for i in range(40)], name="kx2^40")
    rep = a.symmetry()
    assert rep.symmetric and rep.socle_values.shape == (40, 40)
    socle = [a.word_index[(i,)] for i in range(40)]
    assert np.all(rep.functional[socle])


def test_symmetry_without_arrows():
    # a semisimple algebra: e_v spans its own socle
    rep = Algebra(Field(2), ["pt"], [], [], name="k").symmetry()
    assert rep.symmetric and rep.functional.tolist() == [1]


@pytest.mark.parametrize("name", fixtures.CORPUS + fixtures.EXTRAS)
def test_symmetry_against_gram_rank_enumeration(name):
    a = fixtures.load(name)
    rep = a.symmetry()
    want = first_gram_functional(a)
    assert rep.symmetric == (want is not None)
    if want is not None:
        assert rep.functional.tolist() == want.tolist()


def test_mult_associative_on_fixtures():
    for name in ("lambda4", "n3", "nak3", "ka4", "staircase"):
        a = fixtures.load(name)
        f = a.field
        rng = np.random.default_rng(3)
        idx = rng.integers(0, a.dim, size=(60, 3))
        for i, j, l in idx:
            ij = a.mult[i, j]
            left = np.zeros(a.dim, dtype=np.int16)
            for t in np.nonzero(ij)[0]:
                left = f.add_mat(left[None, :], f.scale(int(ij[t]), a.mult[t, l][None, :]))[0]
            jl = a.mult[j, l]
            right = np.zeros(a.dim, dtype=np.int16)
            for t in np.nonzero(jl)[0]:
                right = f.add_mat(right[None, :], f.scale(int(jl[t]), a.mult[i, t][None, :]))[0]
            assert np.array_equal(left, right), (name, i, j, l)


def test_gr_oracle_adapted(lam):
    g = lam.gr_oracle()
    g.verify()
    assert g.dims_by_degree() == {0: 2, 1: 2}
    a = fixtures.load("n3")
    g = a.gr_oracle()
    g.verify()
    assert g.dims_by_degree() == {0: 1, 1: 1, 2: 1}


# sha256 of the canonical gr_oracle() dump of each corpus algebra
GR_ORACLE_SHA256 = {
    "lambda4": "e145ff86bd9d40dd5f8c325e473b2230cd054f5a763b8e3e6368e40ea2af6749",
    "n3": "18d07be50d92819f131d26fb512a4e157afd0223c19a3279c1726eeb640e076f",
    "kx2": "7dbb53d1087ec3349b0ac2e87ff196320841596425d8a31c9efd2eb4157b7c1c",
    "nak3": "ac7a5ebc7640a43f7f28be5e78bc4dc82cc8398a7ae01c56d0c156dfdeadaec4",
    "ka4": "822e9828efff38bb053fb0d57bcaa1089a8ab9e31d2e983720df0564ff9c5613",
}


@pytest.mark.parametrize("name", fixtures.CORPUS)
def test_products_keep_the_gr_oracle_bytes(name):
    # Field.products takes both of its matrix products transposed; the
    # bytes must be those of the plain x t, then y (x t), on the structure
    # tensors of gr_oracle() and of A, and the oracle dump must not move
    a = fixtures.load(name)
    f = a.field
    g = a.gr_oracle()
    assert io.sha256_text(io.canon_dumps(io.dump_graded(g))) == GR_ORACLE_SHA256[name]
    rng = np.random.default_rng(len(name))
    for t in (g.table, a.mult):
        d = t.shape[0]
        x = rng.integers(0, f.q, size=(d + 1, d)).astype(np.int16)
        y = rng.integers(0, f.q, size=(3, d)).astype(np.int16)
        xt = f.matmul(x, t.reshape(d, d * d)).reshape(len(x), d, d)
        plain = f.matmul(y, xt.transpose(1, 0, 2).reshape(d, len(x) * d))
        assert f.products(t, x, y).tobytes() == plain.reshape(len(y) * len(x), d).tobytes()
    eye = f.eye(g.dim)
    every = f.products(g.table, eye, eye).reshape(g.dim, g.dim, g.dim)
    assert every.transpose(1, 0, 2).tobytes() == np.ascontiguousarray(g.table).tobytes()


def test_gr_oracle_staircase_not_adapted():
    a = fixtures.load("staircase")
    assert a.dim == 11
    assert not a._radical_adapted()
    g = a.gr_oracle()
    g.verify()
    assert g.dims_by_degree() == {0: 4, 1: 4, 2: 2, 3: 1}
    # its layers are complements picked by _layer_complement: pinned bytes
    assert io.sha256_text(io.canon_dumps(io.dump_graded(g))) == \
        "3e498c6b01f91ac1454191976d4cfa4a7adfa2a2d2ec86eec92979e2ca11ac70"
    # d*c dies in gr degree 2 because dc lies in rad^3
    f = a.field
    i_d = a.word_index[(3,)]
    i_c = a.word_index[(2,)]
    # locate the gr basis elements for the arrows d and c: degree-1 layer
    # of gr is computed from radical powers, so multiply vectors directly
    vd = np.zeros(a.dim, dtype=np.int16)
    vd[i_d] = 1
    vc = np.zeros(a.dim, dtype=np.int16)
    vc[i_c] = 1
    prod = f.products(a.mult, [vc], [vd])[0]  # c * d applies d first: the path d then c
    rad3 = a.radical_powers[3]
    stacked = np.concatenate([rad3, prod[None, :]], axis=0)
    assert np.any(prod)
    assert f.rank(stacked) == f.rank(rad3)


def test_infinite_dimensional_rejected():
    f = Field(5)
    with pytest.raises(PresentationError):
        Algebra(f, ["pt"], [("x", "pt", "pt")], [], name="kx_free")


def test_later_shorter_relation_retires_the_longer_rule(capsys, tmp_path):
    # x^3 completes to the rule xxx -> 0 (x^3 + x^2 to xxx -> xx); x^2 then
    # leads at xx, which the lead xxx contains, so completion retires xxx
    # and requeues its relation, which reduces to zero.  Either way the
    # result is the algebra of x^2 alone.
    def loop(*relations):
        return Algebra(Field(2), ["pt"], [("x", "pt", "pt")],
                       [[(1, ["x"] * n) for n in powers] for powers in relations],
                       name="kx2")

    def validate(a):
        path = tmp_path / "kx2.json"
        path.write_text(io.canon_dumps(io.dump_algebra(a)), encoding="utf-8")
        code = main(["validate", str(path)])
        rep = json.loads(capsys.readouterr().out)
        return code, rep["outcome"], rep["result"]

    alone = loop([2])
    for both in (loop([3], [2]), loop([3, 2], [2])):
        assert both.basis_words == alone.basis_words == [(), (0,)]
        assert both._rules == alone._rules == {(0, 0): {}}
        assert both.mult.tobytes() == alone.mult.tobytes()
        assert validate(both) == validate(alone)


def test_bad_relations_rejected():
    f = Field(5)
    with pytest.raises(PresentationError):
        # length-1 term
        Algebra(f, ["a", "b"], [("x", "a", "b")], [[(1, ["x"])]])
    with pytest.raises(PresentationError):
        # non-parallel combination
        Algebra(f, ["a", "b", "c"],
                [("x", "a", "b"), ("y", "b", "c"), ("z", "b", "a")],
                [[(1, ["x", "y"]), (1, ["x", "z"])]])
    with pytest.raises(PresentationError):
        # non-composable path
        Algebra(f, ["a", "b"], [("x", "a", "b")], [[(1, ["x", "x"])]])


def test_normal_form_rewrites(ka4):
    # the w-cycle through k rewrites to the canonical cycle through wb? no:
    # rule (1,4) -> (0,2): cycle k->wb->k equals cycle k->w->k
    nf = ka4.normal_form((1, 4))
    assert nf == {(0, 2): 1}
    assert ka4.normal_form((0, 3)) == {}
    assert ka4.normal_form((0, 2, 0)) == {}


def test_injective_modules(lam):
    iu = lam.injective(0)
    assert iu.dims == (1, 1)
    # beta acts nontrivially on I(u), alpha does not
    assert np.any(iu.mats[1])
    assert not np.any(iu.mats[0])


def test_right_mult_is_module_map(lam):
    for i in range(lam.dim):
        rm = lam.right_mult(i)
        assert rm.is_map()
    a = fixtures.load("ka4")
    for i in range(a.dim):
        assert a.right_mult(i).is_map()


# -- A's modules read off the product table, against word reduction --------------


def reduced_projective(a: Algebra, v: int) -> Module:
    """P(v) with arrow a sending the path b to the normal form of b then a."""
    comps = [a.projective_basis_words(v, w) for w in range(a.nvertices)]
    pos = {b: j for w in range(a.nvertices) for j, b in enumerate(comps[w])}
    mats = []
    for x, (_, u, w) in enumerate(a.arrows):
        m = np.zeros((len(comps[w]), len(comps[u])), dtype=np.int16)
        for j, b in enumerate(comps[u]):
            for nw, c in a.normal_form(a.basis_words[b] + (x,)).items():
                m[pos[a.word_index[nw]], j] = c
        mats.append(m)
    return Module(a, [len(c) for c in comps], mats, name=f"P({a.vertices[v]})", check=False)


def reduced_injective(a: Algebra, v: int) -> Module:
    """I(v) with arrow a sending the functional dual to c to the one taking
    the path b to the coefficient of c in the normal form of a then b."""
    comps = [a.projective_basis_words(w, v) for w in range(a.nvertices)]
    pos = {b: j for w in range(a.nvertices) for j, b in enumerate(comps[w])}
    mats = []
    for x, (_, u, w) in enumerate(a.arrows):
        m = np.zeros((len(comps[w]), len(comps[u])), dtype=np.int16)
        for r, b in enumerate(comps[w]):
            for nw, c in a.normal_form((x,) + a.basis_words[b]).items():
                m[r, pos[a.word_index[nw]]] = c
        mats.append(m)
    return Module(a, [len(c) for c in comps], mats, name=f"I({a.vertices[v]})", check=False)


def reduced_right_mult(a: Algebra, i: int) -> ModuleMap:
    """Right multiplication by b_i with the path x going to the normal form
    of b_i then x, the identity on P(i) for a vertex i."""
    wi = a.basis_words[i]
    if not wi:
        return ModuleMap.identity(a.projective(i))
    blocks = []
    for w in range(a.nvertices):
        rows = a.projective_basis_words(a.basis_src[i], w)
        cols = a.projective_basis_words(a.basis_tgt[i], w)
        rpos = {b: r for r, b in enumerate(rows)}
        m = np.zeros((len(rows), len(cols)), dtype=np.int16)
        for j, b in enumerate(cols):
            for nw, c in a.normal_form(wi + a.basis_words[b]).items():
                m[rpos[a.word_index[nw]], j] = c
        blocks.append(m)
    return ModuleMap(a.projective(a.basis_tgt[i]), a.projective(a.basis_src[i]), blocks)


@pytest.mark.parametrize("name", fixtures.CORPUS + fixtures.EXTRAS)
def test_table_modules_equal_the_word_reduction(name):
    a = fixtures.load(name)
    for v in range(a.nvertices):
        for got, want in ((a.projective(v), reduced_projective(a, v)),
                          (a.injective(v), reduced_injective(a, v))):
            assert (got.key, got.name) == (want.key, want.name)
    for i in range(a.dim):
        got, want = a.right_mult(i), reduced_right_mult(a, i)
        assert (got.src.key, got.tgt.key) == (want.src.key, want.tgt.key)
        assert [(b.shape, b.tobytes()) for b in got.blocks] == \
            [(b.shape, b.tobytes()) for b in want.blocks]
