"""JSON input/output.

Schemas (versioned by a "schema" field): algebra.v1, module.v1, complex.v1,
filtration.v1, graded_algebra.v1, tower.v1, runreport.v1.  Dump functions
emit dictionaries with a fixed key order and canonical integer encodings so
that serialized output is byte-identical across runs.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from stabrec.algebra import Algebra
from stabrec.derived import Complex, Tower, TowerStep
from stabrec.errors import PresentationError
from stabrec.filtration import Filtration
from stabrec.gf import Field
from stabrec.graded import GradedAlgebra
from stabrec.modules import Module, ModuleMap


def canon_dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"


def _as_dict(src) -> dict:
    """A parsed JSON object; anything else in its place is malformed input."""
    if not isinstance(src, dict):
        raise PresentationError(f"expected a JSON object, got {type(src).__name__}")
    return src


def _expect_schema(data: dict, schema: str) -> None:
    if data.get("schema") != schema:
        raise PresentationError(f"expected schema {schema!r}, got {data.get('schema')!r}")


def _in_range(values, bound: int, what: str) -> np.ndarray:
    """JSON integers (no float, bool or string) as an int64 array, each in
    0..bound-1.  Field elements and indices from a file must be checked
    before they reach the field's lookup tables or an array index."""
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool)
               for x in np.array(values, dtype=object).reshape(-1)):
        raise PresentationError(f"{what} must be integers")
    a = np.array(values, dtype=np.int64)
    if a.size and (a.min() < 0 or a.max() >= bound):
        raise PresentationError(f"{what} out of range")
    return a


def _matrix(values, shape: tuple[int, int], bound: int, what: str) -> np.ndarray:
    """A JSON matrix (a list of rows) of exactly the given shape, entries
    checked by _in_range.  A matrix with no entries may also be written []."""
    a = _in_range(values, bound, f"{what} entries")
    if a.shape != shape and not (a.shape == (0,) and 0 in shape):
        raise PresentationError(
            f"{what} must be a {shape[0]} x {shape[1]} matrix, got shape {a.shape}")
    return a.reshape(shape)


def _field_pk(fld) -> tuple[int, int]:
    """(p, k) of a JSON field object, k defaulting to 1: JSON integers (no
    float, bool or string, which int() would truncate or parse)."""
    p, k = fld["p"], fld.get("k", 1)
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (p, k)):
        raise PresentationError(f"field p and k must be integers, got {p!r} and {k!r}")
    return p, k


def _dim(value, vertex: str) -> int:
    """A vertex dimension: a JSON integer >= 0 (no float, no bool)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise PresentationError(
            f"dimension at vertex {vertex!r} must be an integer >= 0, got {value!r}")
    return value


def _term(term) -> tuple[int, list[str]]:
    """A relation term [coefficient, path]: a JSON integer (no float, bool
    or string, which int() would truncate or parse) and a list of arrow
    names (list() would split a string into its letters)."""
    c, path = term
    if isinstance(c, bool) or not isinstance(c, int):
        raise PresentationError(f"relation coefficient must be an integer, got {c!r}")
    if not isinstance(path, list) or not all(isinstance(x, str) for x in path):
        raise PresentationError(f"relation path must be a list of arrow names, got {path!r}")
    return c, list(path)


def _name(data: dict, default: str) -> str:
    """The object's "name": a JSON string, as it reaches labels and memo keys."""
    name = data.get("name", default)
    if not isinstance(name, str):
        raise PresentationError(f"name must be a string, got {type(name).__name__}")
    return name


# -- algebra.v1 --------------------------------------------------------------


def load_algebra(src) -> Algebra:
    data = _as_dict(src)
    _expect_schema(data, "algebra.v1")
    fld = data["field"]
    field = Field(*_field_pk(fld), modulus=tuple(fld["modulus"]) if "modulus" in fld else None)
    relations = [[_term(t) for t in rel] for rel in data.get("relations", [])]
    return Algebra(field, list(data["vertices"]),
                   [tuple(a) for a in data["arrows"]],
                   relations, name=_name(data, "A"))


def dump_algebra(a: Algebra) -> dict:
    fld: dict = {"p": a.field.p, "k": a.field.k}
    if a.field.k > 1:
        fld["modulus"] = list(a.field.modulus)
    return {
        "schema": "algebra.v1",
        "name": a.name,
        "field": fld,
        "vertices": list(a.vertices),
        "arrows": [[n, a.vertices[s], a.vertices[t]] for (n, s, t) in a.arrows],
        "relations": [
            [[int(c), [a.arrows[x][0] for x in w]] for w, c in sorted(p.items())]
            for p in a.relations
        ],
    }


# -- module.v1 ---------------------------------------------------------------


def load_module(src, algebra: Algebra) -> Module:
    data = _as_dict(src)
    _expect_schema(data, "module.v1")
    if data.get("algebra") not in (None, algebra.name):
        raise PresentationError(
            f"module is over algebra {data.get('algebra')!r}, not {algebra.name!r}")
    given_dims, arrs = data["dims"], data.get("arrows", {})
    for what, names, known in (("vertex", given_dims, algebra.vindex),
                               ("arrow", arrs, algebra.aindex)):
        unknown = [x for x in names if x not in known]
        if unknown:
            raise PresentationError(
                f"unknown {what} {unknown[0]!r} for algebra {algebra.name!r}")
    dims = [_dim(given_dims.get(v, 0), v) for v in algebra.vertices]
    q = algebra.field.q
    mats = [_matrix(arrs[name], (dims[t], dims[s]), q, f"arrow {name!r}") if name in arrs
            else np.zeros((dims[t], dims[s]), dtype=np.int16)
            for name, s, t in algebra.arrows]
    return Module(algebra, dims, mats, name=_name(data, "M"))


def dump_module(m: Module) -> dict:
    a = m.algebra
    arrows = {}
    for i, (name, _s, _t) in enumerate(a.arrows):
        if np.any(m.mats[i]):
            arrows[name] = [[int(x) for x in row] for row in m.mats[i]]
    return {
        "schema": "module.v1",
        "algebra": a.name,
        "name": m.name,
        "dims": {v: int(d) for v, d in zip(a.vertices, m.dims)},
        "arrows": arrows,
    }


# -- graded_algebra.v1 --------------------------------------------------------


def dump_graded(g: GradedAlgebra) -> dict:
    return {
        "schema": "graded_algebra.v1",
        "name": g.name,
        "field": {"p": g.field.p, "k": g.field.k},
        "degrees": [int(d) for d in g.degrees],
        "labels": list(g.labels),
        "table": [[int(i), int(j), int(l), int(g.table[i, j, l])]
                  for i, j, l in np.argwhere(g.table)],
    }


def load_graded(src, field: Field | None = None) -> GradedAlgebra:
    """A graded algebra, checked by GradedAlgebra.verify.  With `field`
    given, the declared field must be GF(p^k) for its p and k."""
    data = _as_dict(src)
    _expect_schema(data, "graded_algebra.v1")
    declared = _field_pk(data["field"])
    if field is None:
        field = Field(*declared)
    elif declared != (field.p, field.k):
        raise PresentationError(f"graded algebra over GF({declared[0]}^{declared[1]}), "
                                f"expected GF({field.p}^{field.k})")
    # below 2^31, so the sum of two degrees is exact in int64
    degrees, labels = _in_range(data["degrees"], 1 << 31, "degrees"), data["labels"]
    if degrees.ndim != 1 or not isinstance(labels, list) or len(labels) != len(degrees):
        raise PresentationError("degrees and labels must be two lists of one length")
    n = len(degrees)
    entries = _in_range(data["table"], max(n, field.q), "structure constant table")
    entries = entries.reshape(len(data["table"]), 4)
    i, j, l = _in_range(entries[:, :3], n, "structure constant index").T
    table = np.zeros((n, n, n), dtype=np.int16)
    table[i, j, l] = _in_range(entries[:, 3], field.q, "structure constant")
    g = GradedAlgebra(field, degrees, labels, table, name=_name(data, "G"))
    g.verify()
    return g


# -- complex.v1 ----------------------------------------------------------------


def _dump_blocks(fmap: ModuleMap) -> list:
    return [[[int(x) for x in row] for row in b] for b in fmap.blocks]


def _load_map(src_mod: Module, tgt_mod: Module, blocks) -> ModuleMap:
    nv = len(src_mod.dims)
    if len(blocks) != nv:
        raise PresentationError(f"a map needs {nv} vertex blocks, got {len(blocks)}")
    q = src_mod.algebra.field.q
    out = [_matrix(blocks[v], (tgt_mod.dims[v], src_mod.dims[v]), q, f"map block {v}")
           for v in range(nv)]
    return ModuleMap(src_mod, tgt_mod, out, check=True)


def dump_complex(c: Complex) -> dict:
    degs = sorted(c.terms)
    return {
        "schema": "complex.v1",
        "algebra": c.algebra.name,
        "name": c.name,
        "terms": [{"degree": n, "module": dump_module(c.terms[n])} for n in degs],
        "diffs": [{"degree": n, "blocks": _dump_blocks(d)}
                  for n, d in sorted(c.diffs.items())],
    }


def load_complex(src, algebra: Algebra) -> Complex:
    data = _as_dict(src)
    _expect_schema(data, "complex.v1")
    terms = {int(t["degree"]): load_module(t["module"], algebra)
             for t in data["terms"]}
    diffs = {}
    for entry in data["diffs"]:
        n = int(entry["degree"])
        diffs[n] = _load_map(terms[n], terms[n + 1], entry["blocks"])
    return Complex(algebra, terms, diffs, name=_name(data, "C"))


# -- filtration.v1 -------------------------------------------------------------


def dump_filtration(filt: Filtration, flags: dict | None = None) -> dict:
    mults = filt.mult_sequence()
    return {
        "schema": "filtration.v1",
        "algebra": filt.module.algebra.name,
        "module": dump_module(filt.module),
        "members": [dump_module(s) for s in filt.sset],
        "chain": [[[int(x) for x in row] for row in level] for level in filt.chain],
        "chain_dims": [int(level.shape[0]) for level in filt.chain],
        "mult_sequence": [list(m) for m in mults],
        "flags": dict(flags or {}),
    }


def load_filtration(src, algebra: Algebra) -> Filtration:
    data = _as_dict(src)
    _expect_schema(data, "filtration.v1")
    module = load_module(data["module"], algebra)
    sset = [load_module(s, algebra) for s in data["members"]]
    q = algebra.field.q
    chain = [_matrix(level, (len(level), module.dim), q, f"chain level {i}").astype(np.int16)
             for i, level in enumerate(data["chain"])]
    return Filtration(module, sset, chain)


# -- tower.v1 ------------------------------------------------------------------


def dump_tower(t: Tower) -> dict:
    steps = []
    for st in t.steps:
        steps.append({
            "member": int(st.member),
            "d": int(st.d),
            "ambient": dump_module(st.sub.tgt),
            "sub_src": dump_module(st.sub.src),
            "layer": dump_module(st.quot.tgt),
            "sub_blocks": _dump_blocks(st.sub),
            "quot_blocks": _dump_blocks(st.quot),
        })
    return {
        "schema": "tower.v1",
        "algebra": t.algebra.name,
        "members": [dump_module(s) for s in t.members],
        "top": dump_module(t.top),
        "steps": steps,
    }


def load_tower(src, algebra: Algebra) -> Tower:
    data = _as_dict(src)
    _expect_schema(data, "tower.v1")
    members = [load_module(s, algebra) for s in data["members"]]
    top = load_module(data["top"], algebra)
    steps = []
    for entry in data["steps"]:
        amb = load_module(entry["ambient"], algebra)
        src_mod = load_module(entry["sub_src"], algebra)
        layer = load_module(entry["layer"], algebra)
        steps.append(TowerStep(
            _load_map(src_mod, amb, entry["sub_blocks"]),
            _load_map(amb, layer, entry["quot_blocks"]),
            int(entry["member"]), int(entry["d"])))
    return Tower(algebra, members, steps, top)


# -- runreport.v1 --------------------------------------------------------------


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dump_report(command: str, inputs: dict, outcome: str,
                artifacts: list, seconds: float) -> dict:
    """Run summary; `inputs` maps labels to raw file text, hashed here.

    Timing is carried for humans only: artifact bytes never depend on it.
    """
    return {
        "schema": "runreport.v1",
        "command": command,
        "inputs": {k: sha256_text(v) for k, v in sorted(inputs.items())},
        "outcome": outcome,
        "artifacts": artifacts,
        "timing": {"seconds": round(float(seconds), 6)},
    }
