"""Workload inputs, items and output checks for the stabrec benchmark.

Each workload has a ``setup_<name>(seed)`` function, which generates the
seeded inputs as plain JSON (modules as module.v1, towers as tower.v1), and
an item runner that takes one input entry plus the freshly loaded algebras
of the current repetition.  A runner returns "ok" (or, for the CLI,
"undecided" on exit 2); a wrong answer raises ``CheckFailed`` and an
Undecided or Inconclusive search propagates.

Isomorphism classes of the corpus, enumeration and bulk modules are fixed
(the acceptance-suite streams); ``--seed`` draws the basis every module is
handed over in, the algorithm seeds and the random towers.  The cost of the
searches depends mostly on the isomorphism class, so this keeps runs with
different seeds comparable while still changing every input the program
sees.
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

import numpy as np

from stabrec import cli, derived, filtration, fixtures, io, modules, stable

# criterion 6 is 200 modules per algebra, criterion 7 is 60 towers per
# algebra: the corpus workload runs a twentieth of each, and all of
# criterion 8, so that one repetition takes a few seconds and a run holds
# several.
C6_PER_ALGEBRA = 10
C7_PER_ALGEBRA = 3
C7_ALGEBRAS = ("lambda4", "n3")
C8_WINDOW = (-3, 3)

# Stream seeds 1..16 of the ka4_family() stream, searched at this cap (the
# same cap `stabrec filtrate --search-cap` exposes).
ENUM_STREAM_SEEDS = range(1, 17)
ENUM_SEARCH_CAP = 500

# Bulk: X = sum of the first syzygies of the simples, run on X^k.
BULK_SUMS = (("ka4", (1, 2)), ("nak3", (1, 2, 3, 4)))
BULK_WINDOW = (-3, 3)
BULK_RESOLUTION_DEPTH = 2

CLI_EXPECTED = Path(__file__).with_name("cli_expected.json")


class CheckFailed(Exception):
    """An output of the program failed the workload's check."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def load_algebra(name: str):
    """A fresh Algebra from the bundled fixture text (no shared caches)."""
    return io.load_algebra(json.loads(fixtures.fixture_text(name)))


def simples(alg):
    return [alg.simple(v) for v in range(alg.nvertices)]


def scrambled(m, rng: random.Random):
    """m in a random basis: the same isomorphism class, other matrices."""
    fld = m.algebra.field
    cs, cinvs = [], []
    for d in m.dims:
        while True:
            c = np.array([[rng.randrange(fld.q) for _ in range(d)]
                          for _ in range(d)], dtype=np.int16).reshape(d, d)
            if fld.rank(c) == d:
                break
        cs.append(c)
        cinvs.append(fld.solve_matrix(c, np.eye(d, dtype=np.int16)))
    mats = [fld.matmul(fld.matmul(cs[t], m.mats[a]), cinvs[s])
            for a, (_, s, t) in enumerate(m.algebra.arrows)]
    return modules.Module(m.algebra, m.dims, mats, name=m.name + "'")


def random_filtrable(alg, sset, seed: int):
    """Module number `seed` of the criterion 6 stream (random extensions of
    members, projective summands stripped)."""
    rng = random.Random(seed)
    fld = alg.field
    m = sset[rng.randrange(len(sset))]
    for _ in range(rng.randint(1, 3)):
        s = sset[rng.randrange(len(sset))]
        ex = modules.ext1(s, m)
        if ex.dim and rng.random() < 0.75:
            coeffs = [rng.randrange(fld.q) for _ in range(ex.dim)]
            if not any(coeffs):
                coeffs[0] = 1
            m = ex.realize(modules.combine(ex.reps, coeffs))[0]
        else:
            m = modules.direct_sum([m, s], name="m")[0]
    n, _ = filtration.strip_remainder(m, sset, seed=seed)
    return n


def dumps(mods) -> list:
    return [io.dump_module(m) for m in mods]


def loads(data, alg) -> list:
    return [io.load_module(d, alg) for d in data]


# -- corpus ---------------------------------------------------------------------


def setup_corpus(seed: int) -> dict:
    rng = random.Random(seed)
    items = []
    members = {}
    for name in fixtures.CORPUS:
        alg = load_algebra(name)
        sset = simples(alg)
        members[name] = dumps(sset)
        done, s = 0, 0
        while done < C6_PER_ALGEBRA:
            s += 1
            n = random_filtrable(alg, sset, s)
            if n.dim == 0:
                continue
            items.append({"kind": "c6", "algebra": name, "seed": rng.randrange(1 << 30),
                          "module": io.dump_module(scrambled(n, rng)),
                          "copy": io.dump_module(scrambled(n, rng))})
            done += 1
    for name in C7_ALGEBRAS:
        alg = load_algebra(name)
        sset = simples(alg)
        for i in range(C7_PER_ALGEBRA):
            tw = derived.random_tower(alg, sset, 2 + i % 5,
                                      seed=rng.randrange(1 << 30), split_only=True)
            items.append({"kind": "c7", "algebra": name, "tower": io.dump_tower(tw)})
    for name in fixtures.CORPUS:
        nsim = len(members[name])
        for i in range(nsim):
            for j in range(nsim):
                items.append({"kind": "c8", "algebra": name, "pair": [i, j]})
        items.append({"kind": "c8depth", "algebra": name})
    return {"algebras": list(fixtures.CORPUS), "members": members, "items": items}


def _c6(item, rep):
    alg, sset = rep.context(item)
    n = io.load_module(item["module"], alg)
    m2 = io.load_module(item["copy"], alg)
    seed = item["seed"]
    f1 = filtration.s_radical_filtration(n, sset, seed=seed + 1)
    f2 = filtration.s_radical_filtration(n, sset, seed=seed + 2)
    tops = tuple(stable.stable_hom(n, s).dim for s in sset)
    check(f1.mult_sequence()[0] == tops, "top layer")
    check(f1.mult_sequence() == f2.mult_sequence(), "greedy mismatch")
    aut = filtration.align_filtrations(f1, f2)
    check(aut.is_map() and aut.is_iso(), "align")
    check(stable.stably_isomorphic(n, m2, seed=seed) is not None, "stable iso")
    lift = filtration.stable_iso_lifts(n, m2, sset, seed=seed)
    check(lift.is_map() and lift.is_iso(), "lift")
    return "ok"


def _c7(item, rep):
    alg, sset = rep.context(item)
    tw = io.load_tower(item["tower"], alg)
    res = derived.tower_reorder(tw)
    ds = res.tower.d_list()
    check(all(a >= b for a, b in zip(ds, ds[1:])), "order")
    layers = list(res.tower.layer_multiset())
    for pair in res.cancelled:
        layers.extend(pair)
    check(sorted(layers) == sorted(tw.layer_multiset()), "multiset")
    tr = derived.tower_truncate(res.tower)
    check(derived.tower_side_check(tr.sub_tower, "le").ok, "le side")
    check(derived.tower_side_check(tr.quot_tower, "gt").ok, "gt side")
    return "ok"


def _c8(item, rep):
    alg, sset = rep.context(item)
    s, t = (sset[i] for i in item["pair"])
    got = derived.derived_hom_dims(s, t, C8_WINDOW)
    e1 = modules.ext1(s, t).dim
    check(e1 == stable.stable_hom(stable.syzygy(s, 1), t).dim, "ext1 vs omega")
    want = (0, 0, 0, len(modules.hom_space(s, t)), e1,
            stable.stable_hom(stable.syzygy(s, 2), t).dim,
            stable.stable_hom(stable.syzygy(s, 3), t).dim)
    check(tuple(got) == want, f"hom dims {tuple(got)} != {want}")
    return "ok"


def _c8depth(item, rep):
    alg, sset = rep.context(item)
    s0 = sset[0]
    check(tuple(derived.derived_hom_dims(s0, s0, C8_WINDOW, depth=8))
          == tuple(derived.derived_hom_dims(s0, s0, C8_WINDOW, depth=11)),
          "depth stability")
    return "ok"


# -- enumeration ------------------------------------------------------------------


def ka4_family(alg):
    """fixtures.ka4_family() built on the given algebra."""
    v = alg.vindex
    out = [alg.simple(v["k"])]
    for top, soc, name in (("w", "wb", "S+"), ("wb", "w", "S-")):
        ex = modules.ext1(alg.simple(v[top]), alg.simple(v[soc]))
        mod = ex.realize(ex.reps[0])[0]
        mod.name = name
        out.append(mod)
    return out


def ka4_restricted_projective(alg):
    """fixtures.ka4_restricted_projective() built on the given algebra."""
    v = alg.vindex
    return modules.direct_sum([alg.projective(v["w"]), alg.projective(v["wb"])],
                              name="resP")[0]


def setup_enumeration(seed: int) -> dict:
    rng = random.Random(seed)
    alg = load_algebra("ka4")
    fam = ka4_family(alg)
    items = [{"kind": "c5", "algebra": "ka4",
              "module": io.dump_module(ka4_restricted_projective(alg))}]
    for s in ENUM_STREAM_SEEDS:
        n = random_filtrable(alg, fam, s)
        items.append({"kind": "stream", "algebra": "ka4", "seed": rng.randrange(1 << 30),
                      "module": io.dump_module(scrambled(n, rng))})
    return {"algebras": ["ka4"], "members": {"ka4": dumps(fam)}, "items": items}


def _c5(item, rep):
    alg, fam = rep.context(item)
    rp = io.load_module(item["module"], alg)
    filts = filtration.exhaustive_radical_filtrations(rp, fam)
    by_multiset = {}
    for f in filts:
        by_multiset.setdefault(f.layer_multiset(), f)
    certs = [filtration.verify_s_radical(f) for f in by_multiset.values()]
    check(len(filts) == 24, f"{len(filts)} filtrations, want 24")
    check(len(by_multiset) == 2, f"{len(by_multiset)} layer multisets, want 2")
    check(all(c.ok and not c.level0_bijective for c in certs), "certificates")
    return "ok"


def _stream(item, rep):
    alg, fam = rep.context(item)
    m = io.load_module(item["module"], alg)
    filts = filtration.exhaustive_radical_filtrations(
        m, fam, seed=item["seed"], search_cap=ENUM_SEARCH_CAP)
    check(len(filts) >= 1, "no filtration of a filtrable module")
    for f in filts:
        check(f.module is m and f.chain[-1].shape[0] == 0, "chain does not end at 0")
    check(filtration.verify_s_radical(filts[0]).ok, "certificate")
    return "ok"


# -- bulk -----------------------------------------------------------------------


def setup_bulk(seed: int) -> dict:
    rng = random.Random(seed)
    items = []
    for name, ks in BULK_SUMS:
        alg = load_algebra(name)
        x = modules.direct_sum([stable.syzygy(s, 1) for s in simples(alg)], name="X")[0]
        for k in ks:
            xk = modules.direct_sum([x] * k, name=f"X^{k}")[0]
            items.append({"kind": "bulk", "algebra": name, "k": k,
                          "module": io.dump_module(scrambled(xk, rng))})
    return {"algebras": [n for n, _ in BULK_SUMS], "members": {}, "items": items}


def _bulk(item, rep):
    alg, _ = rep.context(item)
    ctx = rep.scratch
    y = io.load_module(item["module"], alg)
    dims = {
        "hom": len(modules.hom_space(y, y)),
        "stable_hom": stable.stable_hom(y, y).dim,
        "summands": len(modules.decompose(y)),
        "derived": derived.derived_hom_dims(y, y, BULK_WINDOW),
    }
    res = derived.projective_resolution(derived.as_complex(y), BULK_RESOLUTION_DEPTH)
    endo = derived.endo_dg_cohomology([res.complex])
    dims["endo"] = tuple(endo[n] for n in sorted(endo))
    k = item["k"]
    if k == 1:
        ctx[item["algebra"]] = dims
        check(dims["hom"] > 0 and dims["summands"] > 0, "empty X")
        return "ok"
    base = ctx.get(item["algebra"])
    check(base is not None, "X^1 missing from the repetition")
    for key in ("hom", "stable_hom"):
        check(dims[key] == k * k * base[key], f"{key} is not k^2 times X's")
    for key in ("derived", "endo"):
        check(dims[key] == tuple(k * k * d for d in base[key]),
              f"{key} is not k^2 times X's")
    check(dims["summands"] == k * base["summands"], "summands is not k times X's")
    return "ok"


# -- cli ------------------------------------------------------------------------


CLI_ALL = fixtures.CORPUS + fixtures.EXTRAS


def setup_cli(seed: int) -> dict:
    """Input files per corpus algebra, and the invocations in seeded order.

    The files do not depend on the seed, so the artifact digests can be
    pinned; the seed orders the invocations.
    """
    files = {}
    for name in CLI_ALL:
        files[f"{name}.algebra.json"] = fixtures.fixture_text(name)
    calls = [["validate", f"{name}.algebra.json"] for name in CLI_ALL]
    for name in fixtures.CORPUS:
        alg = load_algebra(name)
        sset = simples(alg)
        files[f"{name}.set.json"] = io.canon_dumps(dumps(sset))
        files[f"{name}.module.json"] = io.canon_dumps(
            io.dump_module(stable.syzygy(sset[0], 1)))
        files[f"{name}.oracle.json"] = io.canon_dumps(io.dump_graded(alg.gr_oracle()))
        files[f"{name}.candidates.json"] = io.canon_dumps(
            dumps(alg.injective(v) for v in range(alg.nvertices)))
        a, s = f"{name}.algebra.json", f"{name}.set.json"
        calls += [["hypcheck", a, s],
                  ["filtrate", a, s, f"{name}.module.json"],
                  ["reconstruct", a, s, "--oracle", f"{name}.oracle.json"],
                  ["derived", a, s, f"{name}.candidates.json"]]
    random.Random(seed).shuffle(calls)
    items = [{"kind": "cli", "argv": c} for c in calls]
    return {"algebras": [], "members": {}, "files": files, "items": items}


def cli_key(argv) -> str:
    return " ".join(a for a in argv if not a.startswith("--"))


@functools.cache
def cli_expected() -> dict:
    """Exit code and artifact digests of each invocation at the baseline
    commit; ``--emit`` bytes are deterministic and must not change."""
    return json.loads(CLI_EXPECTED.read_text(encoding="utf-8"))


def check_cli(argv, code: int, report: dict | None, emitted: dict) -> str:
    """Exit code and artifact digests against the pinned values."""
    want = cli_expected()[cli_key(argv)]
    check(code == want["exit"], f"exit {code}, want {want['exit']}")
    check(report is not None and report.get("schema") == "runreport.v1", "no run report")
    listed = {a["name"]: a["sha256"] for a in report["artifacts"]}
    check(listed == want["artifacts"], "artifact digests differ from the pinned ones")
    for name, digest in listed.items():
        check(io.sha256_text(emitted.get(name, "")) == digest, f"emitted {name} differs")
    return "undecided" if code == cli.EXIT_UNDECIDED else "ok"


SETUP = {"corpus": setup_corpus, "enumeration": setup_enumeration,
         "bulk": setup_bulk, "cli": setup_cli}
RUNNERS = {"c6": _c6, "c7": _c7, "c8": _c8, "c8depth": _c8depth,
           "c5": _c5, "stream": _stream, "bulk": _bulk}

