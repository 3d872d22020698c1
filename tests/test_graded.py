"""GradedAlgebra.verify on hand-built structure constant tables.

Each table is a small graded algebra over GF(5) given by its products of
basis elements; the broken ones must be refused with a PresentationError
naming the first offending basis index in (i, j, l) loop order.
"""

from __future__ import annotations

import numpy as np
import pytest

from stabrec.errors import PresentationError
from stabrec.gf import Field
from stabrec.graded import GradedAlgebra

F5 = Field(5)


def algebra(degrees, products):
    """products maps (i, j) to the index l with b_i b_j = b_l."""
    n = len(degrees)
    table = np.zeros((n, n, n), dtype=np.int16)
    for (i, j), l in products.items():
        table[i, j, l] = 1
    return GradedAlgebra(F5, degrees, [f"b{i}" for i in range(n)], table)


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
