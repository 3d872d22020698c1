"""GradedAlgebra.verify and the degree-0 idempotents on hand-built tables.

Each table is a small graded algebra given by its products of basis
elements; the broken ones must be refused with a PresentationError naming
the first offending basis index in (i, j, l) loop order.  The primitive
idempotents of k^m in a random basis are checked against the walk over all
q^m points of the degree-0 part.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from stabrec.algebra import Algebra
from stabrec.errors import PresentationError
from stabrec.gf import Field
from stabrec.graded import GradedAlgebra, graded_iso_check

F5 = Field(5)


def algebra(degrees, products, field=F5):
    """products maps (i, j) to the index l with b_i b_j = b_l."""
    n = len(degrees)
    table = np.zeros((n, n, n), dtype=np.int16)
    for (i, j), l in products.items():
        table[i, j, l] = 1
    return GradedAlgebra(field, degrees, [f"b{i}" for i in range(n)], table)


def truncated(n):
    """k[x]/(x^n): b_i = x^i in degree i, b_0 the unit."""
    return algebra(range(n), {(i, j): i + j for i in range(n) for j in range(n) if i + j < n})


def test_truncated_polynomials_verify():
    for n in (1, 2, 4):
        truncated(n).verify()


def test_grading_violation_names_the_first_product():
    g = truncated(3)
    # x^2 * x and x * x^2 given a component on x: (1, 2) comes first
    g.table[2, 1, 1] = g.table[1, 2, 1] = 1
    with pytest.raises(PresentationError,
                       match=r"product b_1 b_2 has a component in degree 1, expected 3"):
        g.verify()


def test_non_associative_product():
    # a a = c and c a = e but a c = 0: (a a) a = e, a (a a) = 0
    g = algebra([0, 1, 2, 3], {**{(0, l): l for l in range(4)},
                               **{(l, 0): l for l in range(4)},
                               (1, 1): 2, (2, 1): 3})
    with pytest.raises(PresentationError, match=r"not associative at \(1,1,1\)"):
        g.verify()


def test_left_unit_only():
    # b_0 b_j = b_j for both j, but b_1 b_0 = 0: no two-sided unit
    g = algebra([0, 0], {(0, 0): 0, (0, 1): 1})
    with pytest.raises(PresentationError, match="no two-sided unit"):
        g.verify()


def test_no_unit_at_all():
    g = algebra([0], {})
    with pytest.raises(PresentationError, match="no two-sided unit"):
        g.verify()


def test_unit_outside_degree_0():
    # k[x]/(x^2) with its unit b_1 in degree 1 and x = b_0 in degree 0: the
    # unit is idempotent, so the grading breaks at the first product with it
    g = algebra([0, 1], {(1, 1): 1, (1, 0): 0, (0, 1): 0})
    with pytest.raises(PresentationError,
                       match=r"product b_0 b_1 has a component in degree 0, expected 1"):
        g.verify()


def test_nilpotent_in_degree_0_is_refused():
    # 1 and a nilpotent x in degree 0, y in degree 1, every product not by 1
    # zero: a graded algebra whose degree-0 part k[x]/(x^2) is not semisimple
    g = algebra([0, 0, 1], {**{(0, l): l for l in range(3)},
                            **{(l, 0): l for l in range(3)}}, field=Field(3))
    g.verify()
    with pytest.raises(PresentationError, match="not split semisimple"):
        g.primitive_idempotents()
    with pytest.raises(PresentationError, match="not split semisimple"):
        graded_iso_check(g, g)


def scrambled_product(f, m, rng):
    """k^m over f in a random basis b_r = sum_i P[r, i] e_i of degree 0, after
    one degree-1 element y with e_0 y = y e_0 = y, so that the degree-0 part
    does not start at index 0."""
    while not f.is_invertible(p := rng.integers(0, f.q, (m, m)).astype(np.int16)):
        pass
    pinv = f.matinv(p)
    table = np.zeros((m + 1, m + 1, m + 1), dtype=np.int16)
    for r, s in itertools.product(range(m), repeat=2):
        table[r + 1, s + 1, 1:] = f.matmul(f.mul(p[r], p[s])[None], pinv)[0]
    table[1:, 0, 0] = table[0, 1:, 0] = p[:, 0]
    g = GradedAlgebra(f, [1] + [0] * m, [f"b{i}" for i in range(m + 1)], table)
    g.verify()
    return g


def walk_idempotents(g):
    """The primitive idempotents by the walk over every nonzero point of the
    degree-0 part: the idempotents, then those with no smaller one below."""
    f, idx = g.field, g.degree_indices(0)
    sub, m = g.table[np.ix_(idx, idx, idx)], len(idx)
    points = np.array(list(itertools.product(range(f.q), repeat=m)), dtype=np.int16)[1:]
    idems = np.array([x for chunk in np.array_split(points, -(-len(points) // 64))
                      for x, sq in zip(chunk, f.products(sub, chunk, chunk)[:: len(chunk) + 1])
                      if np.array_equal(sq, x)])
    # e g = g for g = e only; rows b * len(es) + a of the products hold e_a g_b
    prims = [e for es in np.array_split(idems, -(-len(idems) // 64))
             for e, below in zip(es, np.all(f.products(sub, es, idems).reshape(
                 len(idems), len(es), m) == idems[:, None], axis=2).sum(axis=0))
             if below == 1]
    prims.sort(key=lambda e: tuple(int(c) for c in e))
    out = np.zeros((len(prims), g.dim), dtype=np.int16)
    out[:, idx] = prims
    return out


@pytest.mark.parametrize("p,k,sizes", [(2, 1, (1, 4, 10)), (3, 1, (2, 7)),
                                       (2, 2, (3, 6)), (5, 1, (2, 5))])
def test_idempotents_against_the_walk(p, k, sizes):
    f = Field(p, k)
    rng = np.random.default_rng(p * 10 + k)
    for m in sizes:
        for _ in range(2):
            g = scrambled_product(f, m, rng)
            assert np.array_equal(np.array(g.primitive_idempotents()), walk_idempotents(g))


@pytest.mark.parametrize("p,k,m", [(2, 2, 9), (2, 1, 17), (3, 1, 11)])
def test_idempotents_past_the_walk(p, k, m):
    # q^m > 2^16: decided without visiting the points
    f = Field(p, k)
    g = scrambled_product(f, m, np.random.default_rng(m))
    idems = np.array(g.primitive_idempotents())
    assert len(idems) == m
    prods = f.products(g.table, idems, idems).reshape(m, m, g.dim)
    assert np.array_equal(prods, np.eye(m, dtype=bool)[:, :, None] * idems[None])
    total = idems[0]
    for e in idems[1:]:
        total = f.add_mat(total, e)
    assert np.array_equal(total, g.unit())


def test_iso_check_tries_every_degree_one_candidate():
    # e x y z in degrees 0 1 1 2 over GF(2), e the unit and one product z:
    # x x = z has a symmetric product form, x y = z does not, so none of the
    # 6 invertible maps on degree 1 extends; y y = z is x x = z renamed
    unit = {**{(0, l): l for l in range(4)}, **{(l, 0): l for l in range(4)}}
    xx, xy, yy = (algebra([0, 1, 1, 2], {**unit, pair: 3}, Field(2))
                  for pair in ((1, 1), (1, 2), (2, 2)))
    for g in (xx, xy, yy):
        g.verify()
    res = graded_iso_check(xx, xy)
    assert (res.verdict, res.reason) == ("no", "all 6 degree-1 candidates failed")
    assert graded_iso_check(xx, yy).verdict == "iso"


def test_iso_check_verdicts_before_and_without_a_search():
    # equal graded dimensions over GF(5) and GF(3)
    t3 = truncated(3)
    res = graded_iso_check(t3, GradedAlgebra(Field(3), t3.degrees, t3.labels, t3.table))
    assert (res.verdict, res.reason) == ("no", "different base fields")
    # x in degree 1 and z in degree 3, nothing in degree 2: z is no product
    # of degree-1 elements
    gap = algebra([0, 1, 3], {**{(0, l): l for l in range(3)}, **{(l, 0): l for l in range(3)}})
    res = graded_iso_check(gap, gap)
    assert (res.verdict, res.reason) == ("inconclusive",
                                         "an input is not generated in degrees 0 and 1")
    # two vertices and no arrows: everything in degree 0, no degree-1 block
    two = Algebra(Field(5), ["a", "b"], [], []).gr_oracle()
    assert two.dims_by_degree() == {0: 2}
    res = graded_iso_check(two, two)
    assert res.verdict == "iso" and res.iso.verify()


def test_iso_check_budget_is_inconclusive():
    # gr of k<x,y,z>/(x,y,z)^2 over GF(4): one 3 x 3 degree-1 block, so
    # 4^9 = 262,144 candidate maps, past the budget of 200,000
    names = "xyz"
    cube = Algebra(Field(2, 2), ["pt"], [(a, "pt", "pt") for a in names],
                   [[(1, [a, b])] for a in names for b in names]).gr_oracle()
    assert cube.dims_by_degree() == {0: 1, 1: 3}
    res = graded_iso_check(cube, cube)
    assert (res.verdict, res.reason) == ("inconclusive",
                                         "degree-1 search space 262144 exceeds budget")
