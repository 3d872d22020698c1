"""Bundled example algebras and designated modules.

The corpus of self-injective fixtures drives the test suite and the
acceptance benchmarks; a2 (hereditary, not self-injective) and staircase
(radical filtration not spanned by paths of fixed lengths) exercise failure
and fallback paths.
"""

from __future__ import annotations

import json
from importlib.resources import files

from stabrec import io as _io
from stabrec.algebra import Algebra
from stabrec.modules import Module, ext1, sum_module

CORPUS = ("lambda4", "n3", "kx2", "nak3", "ka4")
EXTRAS = ("a2", "staircase")

_cache: dict[str, Algebra] = {}


def fixture_text(name: str) -> str:
    return files("stabrec.data").joinpath(f"{name}.json").read_text(encoding="utf-8")


def load(name: str) -> Algebra:
    """Load a bundled algebra by name (cached)."""
    if name not in _cache:
        if name not in CORPUS + EXTRAS:
            raise KeyError(f"unknown fixture {name!r}; have {CORPUS + EXTRAS}")
        _cache[name] = _io.load_algebra(json.loads(fixture_text(name)))
    return _cache[name]


def simples(algebra: Algebra) -> list[Module]:
    """All simple modules, in vertex order."""
    return [algebra.simple(v) for v in range(algebra.nvertices)]


def ka4_restricted_projective() -> Module:
    """The designated projective ka4-module with two distinct filtration
    layer patterns for the family of ka4_family(): the direct sum
    P(w) + P(wb)."""
    a = load("ka4")
    pw = a.projective(a.vindex["w"])
    pwb = a.projective(a.vindex["wb"])
    return sum_module([pw, pwb], name="resP")


def ka4_family() -> list[Module]:
    """The ka4 reference family {k, S+, S-}.

    S+ and S- are the two-dimensional uniserial modules with top at one of
    the vertices w, wb and socle at the other; together with the simple at
    k they satisfy the stable orthogonality hypotheses but are not the
    simples, which is what makes the layer pattern of
    ka4_restricted_projective() ambiguous.
    """
    a = load("ka4")
    sk = a.simple(a.vindex["k"])
    sw = a.simple(a.vindex["w"])
    swb = a.simple(a.vindex["wb"])
    out = [sk]
    for top, soc, name in ((sw, swb, "S+"), (swb, sw, "S-")):
        ex = ext1(top, soc)
        mod = ex.realize(ex.reps[0])[0]
        mod.name = name
        out.append(mod)
    return out
