"""Command line: validate, hypcheck, filtrate, reconstruct, derived.

Every command prints a runreport.v1 document on stdout.  Exit codes: 0 for a
mathematical pass, 1 for a mathematical failure, 2 when a search cap left the
question undecided, 3 for unreadable or malformed input.  With --emit DIR the
artifacts (certificates, graded algebras) are written out; rerunning with the
same inputs reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from stabrec import io
from stabrec.derived import (
    NuFamilyResult,
    as_complex,
    endo_dg_cohomology,
    nu_family_check,
    verify_family_pattern,
)
from stabrec.errors import (Inconclusive, NotFiltrable, NotSelfInjective, PresentationError,
                            StabrecError)
from stabrec.filtration import has_projective_remainder, hyp_check, is_filtrable, \
    verify_s_radical
from stabrec.graded import graded_iso_check
from stabrec.reconstruct import end_g, generator_build
from stabrec.stable import check_simple_set

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_INPUT = 3


class _InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _InputError(f"cannot read {path}: {e}") from e


def _parse(text: str, label: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise _InputError(f"{label} is not valid JSON: {e}") from e


# what a loader raises on malformed input: FieldError is a ValueError, a
# missing key a KeyError, a list where an object belongs an AttributeError,
# an entry past int64 an OverflowError
_MALFORMED = (PresentationError, AttributeError, KeyError, IndexError,
              OverflowError, TypeError, ValueError)


def _load(path: str, label: str, loader, *args):
    """Read and parse one input file and build it with loader(data, *args).

    Every way the input can be malformed ends as an _InputError (exit 3)."""
    data = _parse(_read(path), label)
    try:
        return loader(data, *args)
    except _MALFORMED as e:
        raise _InputError(f"malformed {label}: {e}") from e


def _nonempty_list(data) -> list:
    if not isinstance(data, list) or not data:
        raise ValueError("the file must be a nonempty JSON array")
    return data


def _modules(data, algebra) -> list:
    return [io.load_module(entry, algebra) for entry in _nonempty_list(data)]


def _complexes(data, algebra) -> list:
    """Array of module.v1 or complex.v1 entries, coerced to complexes."""
    out = []
    for entry in _nonempty_list(data):
        schema = entry.get("schema") if isinstance(entry, dict) else None
        if schema == "module.v1":
            out.append(as_complex(io.load_module(entry, algebra)))
        elif schema == "complex.v1":
            out.append(io.load_complex(entry, algebra))
        else:
            raise ValueError("entries must be module.v1 or complex.v1")
    return out


def _window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("window must look like a..b")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad window endpoints {text!r}") from None
    if a > b:
        raise argparse.ArgumentTypeError("window is empty")
    return a, b


def _clean(obj):
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def cmd_validate(args):
    alg = _load(args.algebra, "algebra", io.load_algebra)
    si = alg.self_injectivity()
    result = {
        "algebra": alg.name,
        "dim": alg.dim,
        "vertices": list(alg.vertices),
        "self_injective": si.ok,
        "witness": si.witness,
    }
    if not si.ok:
        return EXIT_FAIL, "not self-injective", result, []
    result["nakayama_permutation"] = [alg.vertices[w] for w in si.perm]
    result["symmetric"] = alg.symmetry().symmetric
    return EXIT_PASS, "self-injective", result, []


def cmd_hypcheck(args):
    alg = _load(args.algebra, "algebra", io.load_algebra)
    sset = _load(args.set, "set", _modules, alg)
    rep = hyp_check(alg, sset, cap=args.padding_cap)
    result = {
        "simple_set_ok": rep.simple_report.ok,
        "violations": list(rep.simple_report.violations),
        "entries": rep.entries,
    }
    if rep.ok:
        return EXIT_PASS, "pass", result, []
    statuses = {e["status"] for e in rep.entries}
    if rep.simple_report.ok and "fail" not in statuses:
        return EXIT_UNDECIDED, "undecided", result, []
    return EXIT_FAIL, "fail", result, []


def cmd_filtrate(args):
    alg = _load(args.algebra, "algebra", io.load_algebra)
    sset = _load(args.set, "set", _modules, alg)
    mod = _load(args.module, "module", io.load_module, alg)
    filt = is_filtrable(mod, sset, search_cap=args.search_cap)
    if filt is None:
        result = {
            "filtrable": False,
            "projective_remainder": has_projective_remainder(mod, sset),
        }
        return EXIT_FAIL, "not filtrable", result, []
    cert = verify_s_radical(filt)
    flags = {"s_radical": cert.ok, "level0_bijective": cert.level0_bijective}
    art = io.canon_dumps(io.dump_filtration(filt, flags=flags))
    result = {
        "filtrable": True,
        "chain_dims": [int(level.shape[0]) for level in filt.chain],
        "mult_sequence": [list(m) for m in filt.mult_sequence()],
        "s_radical": cert.ok,
    }
    return EXIT_PASS, "filtrable", result, [("filtration.json", "filtration.v1", art)]


def cmd_reconstruct(args):
    alg = _load(args.algebra, "algebra", io.load_algebra)
    sset = _load(args.set, "set", _modules, alg)
    oracle = None
    if args.oracle:
        oracle = _load(args.oracle, "oracle", io.load_graded, alg.field)
    srep = check_simple_set(alg, sset)
    if not srep.ok:
        return EXIT_FAIL, "fail", {"simple_set_ok": False,
                                   "violations": list(srep.violations)}, []
    try:
        gen = generator_build(alg, sset, padding_cap=args.padding_cap)
    except NotFiltrable as e:  # no padding makes a cover kernel filtrable
        return EXIT_FAIL, "not filtrable", {"simple_set_ok": True,
                                            "reason": str(e)}, []
    g = end_g(gen, name=f"EndG({alg.name})")
    art = io.canon_dumps(io.dump_graded(g))
    result = {"dims_by_degree": {str(d): int(n)
                                 for d, n in sorted(g.dims_by_degree().items())},
              "total_dim": g.dim}
    arts = [("graded.json", "graded_algebra.v1", art)]
    if oracle is None:
        return EXIT_PASS, "built", result, arts
    ver = graded_iso_check(g, oracle)
    result["oracle_verdict"] = ver.verdict
    result["oracle_reason"] = ver.reason
    if ver.verdict == "iso":
        return EXIT_PASS, "iso", result, arts
    if ver.verdict == "no":
        return EXIT_FAIL, "not iso", result, arts
    return EXIT_UNDECIDED, "inconclusive", result, arts


def cmd_derived(args):
    alg = _load(args.algebra, "algebra", io.load_algebra)
    members = _load(args.set, "set", _complexes, alg)
    cands = _load(args.candidates, "candidates", _complexes, alg)
    if len(cands) != len(members):
        raise _InputError(f"{len(cands)} candidates for {len(members)} members: "
                          "need one candidate per member")
    rep = verify_family_pattern(members, cands, "I")
    endo = endo_dg_cohomology(cands, window=args.window)
    try:
        nu = nu_family_check(cands)
    except NotSelfInjective as e:   # nu needs one; the pattern, the verdict, does not
        nu = NuFamilyResult("Undecided", {}, None, str(e))
    result = {
        "pattern_ok": rep.ok,
        "failures": [list(f) for f in rep.failures],
        "endo_cohomology": {str(n): int(v) for n, v in sorted(endo.items())},
        "nu": {"status": nu.status, "witness": nu.witness, "detail": nu.detail},
    }
    outcome = "pass" if rep.ok else "fail"
    return (EXIT_PASS if rep.ok else EXIT_FAIL), outcome, result, []


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stabrec",
        description="Stable-equivalence reconstruction toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--emit", metavar="DIR", default=None)

    p = sub.add_parser("validate", help="admissibility and self-injectivity")
    p.add_argument("algebra")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("hypcheck", help="standing hypotheses on (A, S)")
    p.add_argument("algebra")
    p.add_argument("set")
    p.add_argument("--padding-cap", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_hypcheck)

    p = sub.add_parser("filtrate", help="search for an add(S) filtration")
    p.add_argument("algebra")
    p.add_argument("set")
    p.add_argument("module")
    p.add_argument("--search-cap", type=int, default=200000,
                   help="top quotients M ->> sum of S_i^(m_i) to try, counted as "
                        "orbit representatives under prod GL(m_i); m_i > dim "
                        "Hom(M, S_i) admits none, a certified absence, not a cap "
                        "hit (default %(default)s)")
    common(p)
    p.set_defaults(fn=cmd_filtrate)

    p = sub.add_parser("reconstruct", help="graded endomorphism algebra of the "
                                           "filtered generator")
    p.add_argument("algebra")
    p.add_argument("set")
    p.add_argument("--oracle", default=None)
    p.add_argument("--padding-cap", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("derived", help="family pattern, endomorphism cohomology, "
                                       "twist check")
    p.add_argument("algebra")
    p.add_argument("set")
    p.add_argument("candidates")
    p.add_argument("--window", type=_window, default=None)
    common(p)
    p.set_defaults(fn=cmd_derived)
    return ap


def _input_labels(args) -> dict:
    labels = {}
    for field in ("algebra", "set", "module", "candidates", "oracle"):
        path = getattr(args, field, None)
        if path:
            labels[field] = _read(path)
    return labels


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags; that slot means "undecided" here
        return EXIT_INPUT if e.code else EXIT_PASS
    started = time.perf_counter()
    try:
        inputs = _input_labels(args)
        code, outcome, result, artifacts = args.fn(args)
    except _InputError as e:
        print(f"stabrec: {e}", file=sys.stderr)
        return EXIT_INPUT
    except NotSelfInjective as e:
        # a certified negative: report it with its witness, as validate does
        code, outcome, artifacts = EXIT_FAIL, "not self-injective", []
        result = {"self_injective": False, "witness": e.witness}
    except Inconclusive as e:
        # a search stopped short: report what stopped it
        code, outcome, artifacts = EXIT_UNDECIDED, "undecided", []
        result = {"reason": str(e)}
    except StabrecError as e:
        # anything else the engine refused: report it, as a failure
        code, outcome, artifacts = EXIT_FAIL, "error", []
        result = {"reason": str(e)}
    seconds = time.perf_counter() - started
    listed = [{"name": name, "schema": schema, "sha256": io.sha256_text(text)}
              for name, schema, text in artifacts]
    report = io.dump_report(args.command, inputs, outcome, listed, seconds)
    report["result"] = _clean(result)
    text = io.canon_dumps(report)
    if args.emit:
        out = Path(args.emit)
        out.mkdir(parents=True, exist_ok=True)
        for name, _schema, body in artifacts:
            out.joinpath(f"{args.command}.{name}").write_text(body,
                                                              encoding="utf-8")
        out.joinpath(f"{args.command}.report.json").write_text(text,
                                                               encoding="utf-8")
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
