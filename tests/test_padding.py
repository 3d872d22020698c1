"""Padding branches that pass over a case without reporting it.

`padding_search` goes on to a larger padding when `is_filtrable` is
undecided on a smaller one, `_same_dim_alternatives` drops an undecided
padding from the alternatives it reports, and `tower_truncate` pads a seam
that is stable but not literal with an injective (`_relink_pair`) before it
composes inclusions.  These tests pin that behaviour as it is.
"""

from __future__ import annotations

import pytest

from stabrec import derived, filtration, fixtures, reconstruct
from stabrec.derived import Tower, TowerStep, tower_side_check, tower_truncate
from stabrec.errors import Undecided
from stabrec.filtration import padding_search
from stabrec.modules import ModuleMap, direct_sum, ext1, is_exact_pair, zero_module
from stabrec.reconstruct import _same_dim_alternatives
from stabrec.stable import syzygy


@pytest.fixture(scope="module")
def lam():
    return fixtures.load("lambda4")


def _undecided(*args, **kwargs):
    raise Undecided("pinned")


def test_padding_search_moves_past_an_undecided_padding(lam, monkeypatch):
    sset = fixtures.simples(lam)
    m = lam.simple(0)
    pad, mv, _ = padding_search(m, sset)
    assert (mv, pad.dim) == ((0, 0), 0)
    real = filtration.is_filtrable

    def undecided_on_m(mod, *args, **kwargs):
        if mod.key == m.key:
            raise Undecided("pinned")
        return real(mod, *args, **kwargs)

    monkeypatch.setattr(filtration, "is_filtrable", undecided_on_m)
    # the next padding by dimension, then by multiplicity vector: P(v)
    pad, mv, filt = padding_search(m, sset)
    assert (mv, pad.dim, filt.module.dims) == ((0, 1), 2, (2, 1))
    # every padding undecided: the cap is reached, and the message says why
    monkeypatch.setattr(filtration, "is_filtrable", _undecided)
    with pytest.raises(Undecided, match="exhausted its cap with undecided branches"):
        padding_search(m, sset, cap=1)


def test_same_dim_alternatives_keep_working_paddings_and_drop_undecided(lam, monkeypatch):
    sset = fixtures.simples(lam)
    m = lam.simple(0)
    # P(u) and P(v) both have dimension 2: S(u) + P(v) is the other padding
    assert _same_dim_alternatives(m, sset, (1, 0)) == [(0, 1)]
    monkeypatch.setattr(reconstruct, "is_filtrable", _undecided)
    assert _same_dim_alternatives(m, sset, (1, 0)) == []


def test_truncate_relinks_a_stable_seam_of_a_sorted_tower(lam, monkeypatch):
    # a tower whose d already descend is not reordered; its bottom ambient
    # S(u) + P(v) meets the upper step's submodule S(u) at a seam that is
    # stable, not literal, so tower_truncate relinks it before composing
    members = fixtures.simples(lam)
    s0 = members[0]
    padded = direct_sum([s0, lam.projective(1)], name="S0+P")[0]
    bottom = TowerStep(ModuleMap.zero(zero_module(lam, "0"), padded),
                       ModuleMap.identity(padded), 0, 0)
    ex = ext1(syzygy(members[1], 1), s0)
    e0, mono, epi = ex.realize(ModuleMap.zero(ex.k, ex.n))
    tw = Tower(lam, members, [TowerStep(mono, epi, 1, 1), bottom], e0)
    assert tw.d_list() == [1, 0] and tw.verify() == []
    calls = []
    run = derived._relink_pair

    def counted(*args):
        calls.append(args)
        return run(*args)

    monkeypatch.setattr(derived, "_relink_pair", counted)
    tr = tower_truncate(tw)
    assert len(calls) == 1
    assert tr.split == 1
    assert is_exact_pair(tr.incl, tr.proj)
    assert tr.sub_tower.steps[0].sub.tgt.key == tr.incl.src.key
    assert tower_side_check(tr.sub_tower, "le").ok
    assert tower_side_check(tr.quot_tower, "gt").ok
