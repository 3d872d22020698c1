"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps the public functions of each stabrec module in
every namespace that bound them (``from .modules import hom_space`` makes a
separate binding in each importer), and the ``Field`` and ``Algebra``
methods on their classes.  Each wrapped call is a span with a parent; self
time is a span's duration minus the time of its direct children.  Spans
stay in memory and are written out by ``write_spans`` at the end.
"""

from __future__ import annotations

import gzip
import sys
import time

from stabrec import algebra, gf
from stabrec.errors import Undecided

# (module, attribute) -> layer name.  Two functions may share a layer.
FUNCTIONS = {
    ("gf", "coset_rank_maximize"): "gf.coset_rank_maximize",
    ("modules", "hom_space"): "modules.hom_space",
    ("modules", "decompose"): "modules.decompose",
    ("modules", "module_isomorphic"): "modules.module_isomorphic",
    ("modules", "ext1"): "modules.ext1",
    ("modules", "combine"): "modules.combine",
    ("modules", "projective_cover"): "modules.projective_cover",
    ("modules", "injective_hull"): "modules.injective_hull",
    ("stable", "stable_hom"): "stable.stable_hom",
    ("stable", "syzygy"): "stable.syzygy",
    ("stable", "stably_isomorphic"): "stable.stably_isomorphic",
    ("stable", "projective_maps"): "stable.projective_maps",
    ("filtration", "s_radical_filtration"): "filtration.s_radical_filtration",
    ("filtration", "is_filtrable"): "filtration.is_filtrable",
    ("filtration", "exhaustive_radical_filtrations"):
        "filtration.exhaustive_radical_filtrations",
    ("filtration", "align_filtrations"): "filtration.align_filtrations",
    ("filtration", "stable_iso_lifts"): "filtration.stable_iso_lifts",
    ("filtration", "verify_s_radical"): "filtration.verify_s_radical",
    ("derived", "projective_resolution"): "derived.projective_resolution",
    ("derived", "derived_hom_dims"): "derived.derived_hom_dims",
    ("derived", "endo_dg_cohomology"): "derived.endo_dg_cohomology",
    ("derived", "tower_reorder"): "derived.tower_reorder",
    ("derived", "tower_truncate"): "derived.tower_truncate",
    ("reconstruct", "generator_build"): "reconstruct.generator_build",
    ("reconstruct", "end_g"): "reconstruct.end_g",
    ("graded", "graded_iso_check"): "graded.graded_iso_check",
    ("io", "load_algebra"): "io.load_algebra",
    ("io", "load_module"): "io.load_module",
}
METHODS = {
    (gf.Field, "rref"): "gf.rref",
    (gf.Field, "matmul"): "gf.matmul",
    (gf.Field, "kernel"): "gf.kernel",
    (gf.Field, "solve"): "gf.solve",
    (gf.Field, "solve_matrix"): "gf.solve",
    (algebra.Algebra, "self_injectivity"): "algebra.self_injectivity",
    (algebra.Algebra, "projective"): "algebra.projective",
    (algebra.Algebra, "injective"): "algebra.injective",
}
LAYERS = sorted(set(FUNCTIONS.values()) | set(METHODS.values()))

# Traffic counters, exact and deterministic for given inputs.
COUNTERS = {
    "gf.rref.empty_calls": "count", "gf.rref.lt8_calls": "count",
    "gf.rref.lt16_calls": "count", "gf.rref.ge16_calls": "count",
    "gf.rref.small_share": "ratio", "gf.rref.ext_calls": "count",
    "gf.matmul.ext_calls": "count",
    "modules.hom_space.repeat_ratio": "ratio", "modules.decompose.fail": "count",
    "stable.stable_hom.repeat_ratio": "ratio",
    "filtration.exhaustive_radical_filtrations.undecided": "count",
}


def _shape_bin(a) -> str:
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return "gf.rref.empty_calls"
    side = max(rows, cols)
    return "gf.rref.lt8_calls" if side < 8 else \
        "gf.rref.lt16_calls" if side < 16 else "gf.rref.ge16_calls"


class Tracer:
    """Spans and counters for one traced repetition."""

    def __init__(self):
        self.spans = []          # (layer, start, end, parent index)
        self.stack = []          # [span index, child time]
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = {k: 0 for k, u in COUNTERS.items() if u == "count"}
        self.pairs = {"modules.hom_space": [0, set()], "stable.stable_hom": [0, set()]}
        self._undo = []

    # -- observation hooks, called with the wrapped call's arguments ---------

    def _observe(self, layer, args, exc):
        if layer == "gf.rref":
            self.counts[_shape_bin(args[1])] += 1
            self.counts["gf.rref.ext_calls"] += args[0].k > 1
        elif layer == "gf.matmul":
            self.counts["gf.matmul.ext_calls"] += args[0].k > 1
        elif layer in self.pairs:
            seen = self.pairs[layer]
            key = (args[0].key, args[1].key)
            seen[0] += key in seen[1]
            seen[1].add(key)
        elif layer == "modules.decompose" and exc is not None:
            self.counts["modules.decompose.fail"] += 1
        elif layer == "filtration.exhaustive_radical_filtrations" and exc is not None:
            self.counts["filtration.exhaustive_radical_filtrations.undecided"] += \
                isinstance(exc, Undecided)

    def _wrap(self, layer, fn):
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            frame = [idx, 0.0]
            tracer.stack.append(frame)
            exc = None
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf()
                tracer.stack.pop()
                dur = t1 - t0
                tracer.spans[idx] = (layer, t0, t1, parent)
                tracer.calls[layer] += 1
                tracer.self_s[layer] += dur - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += dur
                tracer._observe(layer, args, exc)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every stabrec namespace that binds it."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "stabrec" or n.startswith("stabrec.")
                                            or n == "workloads")]
        for (mod_name, attr), layer in FUNCTIONS.items():
            orig = getattr(sys.modules[f"stabrec.{mod_name}"], attr)
            wrapped = self._wrap(layer, orig)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is orig:
                        self._undo.append((ns, name, orig))
                        setattr(ns, name, wrapped)
        for (cls, attr), layer in METHODS.items():
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(layer, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        out.update({k: (v, "count") for k, v in self.counts.items()})
        rref = self.calls["gf.rref"]
        small = self.counts["gf.rref.empty_calls"] + self.counts["gf.rref.lt8_calls"]
        out["gf.rref.small_share"] = (small / rref if rref else 0.0, "ratio")
        for layer, (repeats, _) in self.pairs.items():
            calls = self.calls[layer]
            out[f"{layer}.repeat_ratio"] = (repeats / calls if calls else 0.0, "ratio")
        return out

    def write_spans(self, path) -> None:
        """Spans as TSV (layer, start, end, parent), times relative to the
        first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("index\tlayer\tstart_s\tend_s\tparent\n")
            for i, (layer, start, end, parent) in enumerate(self.spans):
                f.write(f"{i}\t{layer}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")
