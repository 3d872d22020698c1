"""The benchmark's entry points into the package, checked without timing it.

perfbench/tracing.py wraps package functions and methods by name, and
perfbench/workloads.py calls package functions with keywords.  A renamed
function or a dropped keyword would otherwise fail only a traced or timed
benchmark run: here the tracer is installed and uninstalled against the
imported package, and every package call in the workloads is bound to the
signature it calls.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import stabrec
from stabrec import fixtures, gf, modules

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings() -> dict:
    """Every name bound in every loaded stabrec module, and every attribute
    of Field and Algebra, with the object it is bound to."""
    out = {(n, k): v for n, m in list(sys.modules.items())
           if m is not None and n.startswith("stabrec") for k, v in vars(m).items()}
    for cls in (gf.Field, stabrec.algebra.Algebra):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_installs_counts_and_uninstalls():
    spec = importlib.util.spec_from_file_location("_bench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod in {mod for mod, _ in tracing.FUNCTIONS}:
        importlib.import_module(f"stabrec.{mod}")
    s = fixtures.load("n3").simple(0)
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()  # inside: a failed install still undoes what it wrapped
        for mod, attr in tracing.FUNCTIONS:
            traced = getattr(sys.modules[f"stabrec.{mod}"], attr)
            assert traced.__wrapped__ is before[f"stabrec.{mod}", attr], (mod, attr)
        for cls, attr in tracing.METHODS:
            assert vars(cls)[attr].__wrapped__ is before[cls.__name__, attr], attr
        modules.hom_space(s, s)
        gf.Field(5).rref(gf.Field(5).eye(2))
    finally:
        tracer.uninstall()
    assert tracer.calls["modules.hom_space"] == 1
    assert tracer.calls["gf.rref"] >= 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_workload_calls_bind_to_the_package():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "stabrec"
                for a in node.names}
    seen = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in imported):
            continue
        mod, attr = node.func.value.id, node.func.attr
        fn = getattr(getattr(stabrec, mod), attr, None)
        assert fn is not None, f"line {node.lineno}: stabrec.{mod} has no {attr}"
        kws = [k.arg for k in node.keywords]
        seen.update((attr, k) for k in kws)
        if None in kws or any(isinstance(a, ast.Starred) for a in node.args):
            continue
        try:
            inspect.signature(fn).bind(*node.args, **dict.fromkeys(kws))
        except TypeError as e:
            raise AssertionError(f"line {node.lineno}: {mod}.{attr}: {e}") from None
    # the keywords the workloads are known to pass, so that the scan is not vacuous
    assert {(f, "seed") for f in ("strip_remainder", "random_tower", "s_radical_filtration",
                                  "stably_isomorphic", "stable_iso_lifts")} <= seen
    assert {("exhaustive_radical_filtrations", "search_cap"), ("random_tower", "split_only"),
            ("derived_hom_dims", "depth")} <= seen
