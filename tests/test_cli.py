"""Command-line surface: exit codes, reports, artifact determinism."""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stabrec
from stabrec import cli, fixtures, io
from stabrec.cli import main
from stabrec.derived import Complex, endo_dg_cohomology
from stabrec.errors import PresentationError, Undecided
from stabrec.modules import direct_sum, hom_space, quotient, radical_series

DATA = Path(stabrec.__file__).parent / "data"


def write(path: Path, obj) -> str:
    path.write_text(io.canon_dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture()
def lam_files(tmp_path):
    lam = fixtures.load("lambda4")
    simples = fixtures.simples(lam)
    return {
        "algebra": str(DATA / "lambda4.json"),
        "set": write(tmp_path / "set.json", [io.dump_module(s) for s in simples]),
        "ss": write(tmp_path / "ss.json",
                    io.dump_module(direct_sum(simples, name="SS")[0])),
        "oracle": write(tmp_path / "oracle.json", io.dump_graded(lam.gr_oracle())),
        "tmp": tmp_path,
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_validate_self_injective(capsys):
    code, rep = run(capsys, "validate", str(DATA / "lambda4.json"))
    assert code == 0
    assert rep["schema"] == "runreport.v1"
    assert rep["outcome"] == "self-injective"
    assert rep["result"]["nakayama_permutation"] == ["v", "u"]
    assert rep["result"]["symmetric"] is False


def test_validate_symmetric(capsys):
    code, rep = run(capsys, "validate", str(DATA / "n3.json"))
    assert code == 0
    assert rep["result"]["symmetric"] is True


def test_validate_semisimple(capsys, tmp_path):
    k = write(tmp_path / "k.json", {"schema": "algebra.v1", "name": "k",
                                    "field": {"p": 2, "k": 1}, "vertices": ["pt"],
                                    "arrows": []})
    code, rep = run(capsys, "validate", k)
    assert code == 0
    assert rep["result"]["symmetric"] is True


def test_validate_rejects_hereditary(capsys):
    code, _ = run(capsys, "validate", str(DATA / "a2.json"))
    assert code == 1


def test_missing_file_is_input_error(capsys):
    assert main(["validate", "nowhere.json"]) == 3


def test_malformed_json_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["validate", str(bad)]) == 3


def test_hypcheck_pass_and_fail(capsys, lam_files, tmp_path):
    code, rep = run(capsys, "hypcheck", lam_files["algebra"], lam_files["set"])
    assert code == 0 and rep["outcome"] == "pass"
    lam = fixtures.load("lambda4")
    solo = write(tmp_path / "solo.json", [io.dump_module(lam.simple(0))])
    code, rep = run(capsys, "hypcheck", lam_files["algebra"], solo)
    assert code == 1
    assert any(e["status"] == "fail" for e in rep["result"]["entries"])


def test_hypcheck_padding_cap_0_is_undecided(capsys, tmp_path):
    # over k[x]/(x^3) (one vertex) J1 and Omega J2 = J1 need padding by J3
    p = fixtures.load("n3").projective(0)
    j2 = quotient(p, radical_series(p)[2][0], name="J2")[0]
    sset = write(tmp_path / "j2.json", [io.dump_module(j2)])
    code, rep = run(capsys, "hypcheck", str(DATA / "n3.json"), sset, "--padding-cap", "0")
    assert code == 2 and rep["outcome"] == "undecided"
    assert [e["status"] for e in rep["result"]["entries"]] == ["undecided"] * 2


def test_filtrate_emits_deterministic_certificate(capsys, lam_files):
    tmp = lam_files["tmp"]
    args = ("filtrate", lam_files["algebra"], lam_files["set"], lam_files["ss"])
    code, rep = run(capsys, *args, "--emit", str(tmp / "e1"))
    assert code == 0 and rep["outcome"] == "filtrable"
    assert rep["result"]["s_radical"] is True
    code, _ = run(capsys, *args, "--emit", str(tmp / "e2"))
    assert code == 0
    a = (tmp / "e1" / "filtrate.filtration.json").read_bytes()
    b = (tmp / "e2" / "filtrate.filtration.json").read_bytes()
    assert a == b
    assert rep["artifacts"][0]["sha256"] == io.sha256_text(a.decode("utf-8"))
    # the emitted certificate reloads and re-validates
    lam = fixtures.load("lambda4")
    filt = io.load_filtration(json.loads(a), lam)
    assert len(filt) == 1


def test_filtrate_certified_negative(capsys, tmp_path):
    n3 = fixtures.load("n3")
    p = n3.projective(0)

    def jordan(i):
        rows = radical_series(p)[i][0]
        pad = np.zeros((rows.shape[0], p.dim), dtype=np.int16)
        pad[:, : rows.shape[1]] = rows
        return quotient(p, pad, name=f"J{i}")[0]

    sset = write(tmp_path / "j2.json", [io.dump_module(jordan(2))])
    mod = write(tmp_path / "j1.json", io.dump_module(jordan(1)))
    code, rep = run(capsys, "filtrate", str(DATA / "n3.json"), sset, mod)
    assert code == 1
    assert rep["outcome"] == "not filtrable"
    assert rep["result"]["projective_remainder"] is False


def test_filtrate_cap_is_undecided(capsys, tmp_path):
    # criterion 5's module over the simples and over the ka4 family: each
    # search needs more than one top quotient (the family's decides at 1,000)
    ka4 = fixtures.load("ka4")
    mod = write(tmp_path / "rp.json",
                io.dump_module(fixtures.ka4_restricted_projective()))
    for name, members in (("simples", fixtures.simples(ka4)),
                          ("family", fixtures.ka4_family())):
        sset = write(tmp_path / f"{name}.json", [io.dump_module(s) for s in members])
        code, rep = run(capsys, "filtrate", str(DATA / "ka4.json"), sset, mod,
                        "--search-cap", "1")
        assert code == 2
        assert rep["outcome"] == "undecided"
        assert "cap" in rep["result"]["reason"]
        assert rep["artifacts"] == []
    code, rep = run(capsys, "filtrate", str(DATA / "ka4.json"), sset, mod,
                    "--search-cap", "1000")
    assert (code, rep["outcome"]) == (0, "filtrable")


def test_reconstruct_against_oracle(capsys, lam_files):
    code, rep = run(capsys, "reconstruct", lam_files["algebra"],
                    lam_files["set"], "--oracle", lam_files["oracle"])
    assert code == 0
    assert rep["outcome"] == "iso"
    assert rep["result"]["total_dim"] == 4


def test_reconstruct_wrong_oracle(capsys, lam_files, tmp_path):
    n3 = fixtures.load("n3")
    wrong = write(tmp_path / "wrong.json", io.dump_graded(n3.gr_oracle()))
    code, rep = run(capsys, "reconstruct", lam_files["algebra"],
                    lam_files["set"], "--oracle", wrong)
    assert code == 1
    assert rep["outcome"] == "not iso"


def test_reconstruct_oracle_not_generated_in_degree_one(capsys, tmp_path):
    # n3 from its simple gives dims (1, 1, 1), generated in degree 1; the
    # oracle e, x, y of degrees 0, 1, 2 with x x = 0 has the same dims but
    # is not, so the iso search is not exhaustive
    n3 = fixtures.load("n3")
    oracle = write(tmp_path / "oracle.json", {
        "schema": "graded_algebra.v1", "name": "G", "field": {"p": 5, "k": 1},
        "degrees": [0, 1, 2], "labels": ["e", "x", "y"],
        "table": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [0, 2, 2, 1], [2, 0, 2, 1]],
    })
    sset = write(tmp_path / "set.json", [io.dump_module(s) for s in fixtures.simples(n3)])
    code, rep = run(capsys, "reconstruct", str(DATA / "n3.json"), sset, "--oracle", oracle)
    assert (code, rep["outcome"]) == (2, "inconclusive")
    assert rep["result"]["oracle_verdict"] == "inconclusive"
    assert rep["result"]["oracle_reason"] == "an input is not generated in degrees 0 and 1"


@pytest.fixture()
def nak3_files(tmp_path):
    simples = fixtures.simples(fixtures.load("nak3"))
    return {
        "algebra": str(DATA / "nak3.json"),
        "set": write(tmp_path / "set.json", [io.dump_module(s) for s in simples]),
        "s01": write(tmp_path / "s01.json", [io.dump_module(s) for s in simples[:2]]),
        "s00": write(tmp_path / "s00.json", [io.dump_module(simples[0])] * 2),
    }


def test_reconstruct_reports_an_unusable_member_set(capsys, nak3_files):
    # without S(v2) no padding reaches vertex v2 of a cover kernel
    code, rep = run(capsys, "reconstruct", nak3_files["algebra"], nak3_files["s01"])
    assert code == 1 and rep["outcome"] == "not filtrable"
    assert rep["result"]["reason"] == "vertex v2 is outside the support of S"
    # S(v0) twice breaks the stable-Hom pattern
    code, rep = run(capsys, "reconstruct", nak3_files["algebra"], nak3_files["s00"])
    assert code == 1 and rep["outcome"] == "fail"
    assert rep["result"]["simple_set_ok"] is False
    assert "stable Hom(S(v0),S(v0)) has dim 1, want 0" in rep["result"]["violations"]


def test_reconstruct_large_padding_cap_gives_the_same_artifact(capsys, nak3_files):
    # paddings are tried lazily by total dimension: a large cap costs
    # nothing before the first filtrable padding
    digests = []
    for cap in ([], ["--padding-cap", "2000"]):
        code, rep = run(capsys, "reconstruct", nak3_files["algebra"], nak3_files["set"], *cap)
        assert code == 0
        digests.append(rep["artifacts"][0]["sha256"])
    assert digests[0] == digests[1]


def _derived_inputs(tmp_path):
    lam = fixtures.load("lambda4")
    pu, pv = lam.projective(0), lam.projective(1)
    iu = Complex(lam, {-1: pu, 0: pv}, {-1: hom_space(pu, pv)[0]}, name="I(U)")
    it = Complex(lam, {-1: pu}, {}, name="I(T)")
    members = [io.dump_module(lam.simple(0)), io.dump_complex(it)]
    cands = [io.dump_complex(iu), io.dump_complex(it)]
    return (write(tmp_path / "members.json", members),
            write(tmp_path / "cands.json", cands))


def test_derived_family_report(capsys, lam_files, tmp_path):
    members, cands = _derived_inputs(tmp_path)
    code, rep = run(capsys, "derived", lam_files["algebra"], members, cands)
    assert code == 0
    assert rep["result"]["pattern_ok"] is True
    assert rep["result"]["endo_cohomology"]["-1"] == 2
    assert rep["result"]["endo_cohomology"]["0"] == 3
    assert rep["result"]["nu"]["status"] == "Not"


def test_derived_wrong_candidates(capsys, lam_files, tmp_path):
    members, _ = _derived_inputs(tmp_path)
    lam = fixtures.load("lambda4")
    it = Complex(lam, {-1: lam.projective(0)}, {}, name="I(T)")
    swapped = write(tmp_path / "swapped.json",
                    [io.dump_complex(it), io.dump_complex(it)])
    code, rep = run(capsys, "derived", lam_files["algebra"], members, swapped)
    assert code == 1
    assert rep["result"]["failures"]


def test_derived_candidate_count_mismatch_is_input_error(capsys, lam_files, tmp_path):
    members, cands = _derived_inputs(tmp_path)
    one = write(tmp_path / "one.json", json.loads(Path(cands).read_text())[:1])
    assert main(["derived", lam_files["algebra"], members, one]) == 3
    assert capsys.readouterr().out == ""


def test_derived_non_injective_candidate_reports_undecided(capsys, lam_files):
    # a simple of lambda4 is not injective: the pattern is left undecided,
    # and the run says why in its report
    code, rep = run(capsys, "derived", lam_files["algebra"], lam_files["set"],
                    lam_files["set"])
    assert code == 2
    assert rep["outcome"] == "undecided"
    assert rep["result"] == {"reason": "candidate S(u) is not termwise injective"}
    assert rep["artifacts"] == []


def test_derived_over_non_self_injective_algebra_reports(capsys, tmp_path):
    # the pattern holds for a2's simples and injectives; nu is not computed
    # there, which leaves it undecided instead of ending the run
    a2 = fixtures.load("a2")
    members = write(tmp_path / "members.json",
                    [io.dump_module(s) for s in fixtures.simples(a2)])
    cands = write(tmp_path / "cands.json",
                  [io.dump_module(a2.injective(v)) for v in range(a2.nvertices)])
    code, rep = run(capsys, "derived", str(DATA / "a2.json"), members, cands)
    assert code == 0
    assert rep["result"]["pattern_ok"] is True
    assert rep["result"]["nu"]["status"] == "Undecided"
    assert "not self-injective" in rep["result"]["nu"]["detail"]


def test_non_self_injective_algebra_reports_its_witness(capsys, tmp_path):
    # hypcheck, filtrate and reconstruct need a self-injective algebra; over
    # a2 each ends in a certified negative with a report, as validate does
    a2 = fixtures.load("a2")
    simples = fixtures.simples(a2)
    sset = write(tmp_path / "set.json", [io.dump_module(s) for s in simples])
    mod = write(tmp_path / "mod.json", io.dump_module(simples[0]))
    _, want = run(capsys, "validate", str(DATA / "a2.json"))
    for argv in (["hypcheck", str(DATA / "a2.json"), sset],
                 ["filtrate", str(DATA / "a2.json"), sset, mod],
                 ["reconstruct", str(DATA / "a2.json"), sset]):
        code, rep = run(capsys, *argv)
        assert code == 1
        assert rep["command"] == argv[0]
        assert rep["outcome"] == want["outcome"] == "not self-injective"
        assert rep["result"] == {"self_injective": False,
                                 "witness": want["result"]["witness"]}
        assert "not a permutation" in rep["result"]["witness"]


# each case edits the degree of a term or differential of the first
# candidate, I(U) in degrees -1 and 0, to a value that is no JSON integer;
# int() would have read each as the intended degree and passed
DEGREE_MALFORMED = {
    "term_string": ("terms", 1, "0"),
    "term_integral_float": ("terms", 1, 0.0),
    "term_bool": ("terms", 1, False),
    "diff_string": ("diffs", 0, "-1"),
    "diff_float": ("diffs", 0, -1.0),
}


@pytest.mark.parametrize("case", sorted(DEGREE_MALFORMED))
def test_malformed_complex_degree_exits_3(capsys, lam_files, tmp_path, case):
    members, cands = _derived_inputs(tmp_path)
    docs = json.loads(Path(cands).read_text(encoding="utf-8"))
    part, at, value = DEGREE_MALFORMED[case]
    docs[0][part][at]["degree"] = value
    bad = write(tmp_path / "bad.json", docs)
    assert main(["derived", lam_files["algebra"], members, bad]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "degree must be an integer" in err


def test_bad_window_is_input_error(capsys, lam_files, tmp_path):
    members, cands = _derived_inputs(tmp_path)
    assert main(["derived", lam_files["algebra"], members, cands,
                 "--window", "3..1"]) == 3


def test_valid_window_sets_the_cohomology_degrees(capsys, lam_files, tmp_path):
    members, cands = _derived_inputs(tmp_path)
    code, rep = run(capsys, "derived", lam_files["algebra"], members, cands,
                    "--window=-2..1")
    assert code == 0
    lam = fixtures.load("lambda4")
    loaded = cli._complexes(json.loads(Path(cands).read_text(encoding="utf-8")), lam)
    want = endo_dg_cohomology(loaded, window=(-2, 1))
    assert rep["result"]["endo_cohomology"] == {str(n): d for n, d in want.items()}
    assert list(rep["result"]["endo_cohomology"]) == ["-2", "-1", "0", "1"]


def test_set_must_be_array(capsys, lam_files, tmp_path):
    notlist = write(tmp_path / "n.json", {"schema": "module.v1"})
    assert main(["hypcheck", lam_files["algebra"], notlist]) == 3


def test_module_entry_point():
    r = subprocess.run([sys.executable, "-m", "stabrec.cli", "validate",
                        str(DATA / "lambda4.json")],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert json.loads(r.stdout)["schema"] == "runreport.v1"


def _with_entry(sset, value):
    arrows = sset[0]["arrows"]
    arrows[next(iter(arrows))][0][0] = value
    return sset


# each case edits a valid (algebra.json, set.json) pair for hypcheck
MALFORMED = {
    "p_not_prime": lambda alg, sset: ({**alg, "field": {"p": 4, "k": 1}}, sset),
    "p_string": lambda alg, sset: ({**alg, "field": {"p": "five", "k": 1}}, sset),
    "p_numeric_string": lambda alg, sset: ({**alg, "field": {"p": "5", "k": 1}}, sset),
    "p_float": lambda alg, sset: ({**alg, "field": {"p": 5.5, "k": 1}}, sset),
    "k_float": lambda alg, sset: ({**alg, "field": {"p": 5, "k": 1.0}}, sset),
    # lambda4's field GF(5) has the modulus t, [0, 1]
    "modulus_float": lambda alg, sset: ({**alg, "field": {"p": 5, "k": 1,
                                                          "modulus": [0, 1.5]}}, sset),
    "modulus_string": lambda alg, sset: ({**alg, "field": {"p": 5, "k": 1,
                                                           "modulus": ["0", "1"]}}, sset),
    "modulus_bool": lambda alg, sset: ({**alg, "field": {"p": 5, "k": 1,
                                                         "modulus": [False, True]}}, sset),
    "no_field": lambda alg, sset: ({k: v for k, v in alg.items() if k != "field"}, sset),
    "arrow_2_list": lambda alg, sset: ({**alg, "arrows": [a[:2] for a in alg["arrows"]]},
                                       sset),
    "set_of_ints": lambda alg, sset: (alg, [1, 2]),
    "dims_list": lambda alg, sset: (alg, [{"schema": "module.v1", "dims": [1, 1]}]),
    "entry_6": lambda alg, sset: (alg, _with_entry(sset, 6)),
    "entry_70000": lambda alg, sset: (alg, _with_entry(sset, 70000)),
    "entry_negative": lambda alg, sset: (alg, _with_entry(sset, -1)),
    "entry_past_int64": lambda alg, sset: (alg, _with_entry(sset, 2 ** 70)),
    "unknown_arrow": lambda alg, sset: (alg, [{**sset[0], "arrows": {"a": [[1]]}}]),
    "unknown_vertex": lambda alg, sset: (alg, [{"schema": "module.v1",
                                                "dims": {"u": 2, "w": 1}}]),
    "transposed_matrix": lambda alg, sset: (alg, [{"schema": "module.v1",
                                                   "dims": {"u": 2, "v": 1},
                                                   "arrows": {"alpha": [[1], [0]]}}]),
    "fractional_dims": lambda alg, sset: (alg, [{"schema": "module.v1",
                                                 "dims": {"u": 1.7, "v": True}}]),
    "float_entry": lambda alg, sset: (alg, _with_entry(sset, 1.7)),
    "bool_entry": lambda alg, sset: (alg, _with_entry(sset, True)),
    "string_entry": lambda alg, sset: (alg, _with_entry(sset, "1")),
    "path_entry": lambda alg, sset: (alg, [sset[0], "nowhere.json"]),
    "k_past_int64": lambda alg, sset: ({**alg, "field": {"p": 5, "k": 2 ** 70}}, sset),
    # ka4's quiver without relations: 2^L normal paths of length L
    "no_relations": lambda alg, sset: (
        {k: v for k, v in json.loads((DATA / "ka4.json").read_text(encoding="utf-8")).items()
         if k != "relations"}, sset),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_3(capsys, tmp_path, case):
    alg = json.loads((DATA / "lambda4.json").read_text(encoding="utf-8"))
    sset = [io.dump_module(fixtures.load("lambda4").projective(0))]
    alg, sset = MALFORMED[case](alg, sset)
    argv = ["hypcheck", write(tmp_path / "alg.json", alg), write(tmp_path / "set.json", sset)]
    assert main(argv) == 3
    assert capsys.readouterr().out == ""


def _relation_term(name, term, part, value):
    """Fixture name's algebra.v1 document with the coefficient (part 0) or
    path (part 1) of a term of its first relation replaced by value."""
    alg = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
    alg["relations"][0][term][part] = value
    return alg


# each case edits one relation term of a corpus algebra for validate: a
# coefficient that is no JSON integer (int() would truncate or parse it)
# or a path that is no list of arrow names (list() would split "xx" into
# kx2's path x x).  Unedited, staircase exits 1 and ka4 and kx2 exit 0.
RELATION_MALFORMED = {
    "coefficient_float": ("staircase", 1, 0, 6.5),
    "coefficient_string": ("staircase", 1, 0, "6"),
    "coefficient_bool": ("staircase", 1, 0, True),
    "coefficient_integral_float": ("ka4", 0, 0, 1.0),
    "path_string": ("kx2", 0, 1, "xx"),
    "path_of_ints": ("kx2", 0, 1, [0, 0]),
}


@pytest.mark.parametrize("case", sorted(RELATION_MALFORMED))
def test_malformed_relation_exits_3(capsys, tmp_path, case):
    alg = _relation_term(*RELATION_MALFORMED[case])
    assert main(["validate", write(tmp_path / "alg.json", alg)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "relation" in err


# a "name" that is no string, one per subcommand: (input edited, where in
# it, the value); every loader refuses it, so none reaches a memo key or a
# " + ".join of names
BAD_NAMES = {
    "validate": ("algebra", None, ["x"]),
    "hypcheck": ("set", 0, ["x"]),
    "filtrate": ("module", None, {"x": 1}),
    "reconstruct": ("oracle", None, 1.5),
    "derived": ("candidates", 0, 7),
}


@pytest.mark.parametrize("cmd", sorted(BAD_NAMES))
def test_non_string_name_exits_3(capsys, lam_files, cmd):
    lam = fixtures.load("lambda4")
    docs = {"algebra": json.loads((DATA / "lambda4.json").read_text(encoding="utf-8")),
            "set": [io.dump_module(s) for s in fixtures.simples(lam)],
            "module": io.dump_module(lam.simple(0)),
            "oracle": io.dump_graded(lam.gr_oracle()),
            "candidates": [io.dump_module(lam.injective(v)) for v in range(lam.nvertices)]}
    target, at, value = BAD_NAMES[cmd]
    (docs[target] if at is None else docs[target][at])["name"] = value
    paths = {key: write(lam_files["tmp"] / f"{key}.json", doc) for key, doc in docs.items()}
    argv = {"validate": ["validate", paths["algebra"]],
            "hypcheck": ["hypcheck", paths["algebra"], paths["set"]],
            "filtrate": ["filtrate", paths["algebra"], paths["set"], paths["module"]],
            "reconstruct": ["reconstruct", paths["algebra"], paths["set"],
                            "--oracle", paths["oracle"]],
            "derived": ["derived", paths["algebra"], paths["set"], paths["candidates"]]}[cmd]
    assert main(argv) == 3
    assert capsys.readouterr().out == ""


# each case edits lambda4's valid oracle (graded_algebra.v1) for reconstruct
ORACLE_MALFORMED = {
    "float_degrees": lambda g: {**g, "degrees": [0, 0, 1.7, 1]},
    "bool_degrees": lambda g: {**g, "degrees": [False, 0, True, 1]},
    "string_degrees": lambda g: {**g, "degrees": ["0", 0, 1, 1]},
    "negative_degrees": lambda g: {**g, "degrees": [0, 0, 1, -1]},
    "short_labels": lambda g: {**g, "labels": g["labels"][:3]},
    "long_labels": lambda g: {**g, "labels": g["labels"] + ["w"]},
    "other_field": lambda g: {**g, "field": {"p": 3, "k": 1}},
    "extension_field": lambda g: {**g, "field": {"p": 5, "k": 2}},
    "float_field": lambda g: {**g, "field": {"p": 5.0, "k": 1}},
    # e_u e_u = e_u dropped: no longer associative
    "broken_table": lambda g: {**g, "table": [e for e in g["table"] if e[:3] != [0, 0, 0]]},
}


@pytest.mark.parametrize("case", sorted(ORACLE_MALFORMED))
def test_malformed_oracle_exits_3(capsys, lam_files, case):
    oracle = json.loads(Path(lam_files["oracle"]).read_text(encoding="utf-8"))
    bad = write(lam_files["tmp"] / "bad.json", ORACLE_MALFORMED[case](oracle))
    assert main(["reconstruct", lam_files["algebra"], lam_files["set"], "--oracle", bad]) == 3
    assert capsys.readouterr().out == ""


def test_seed_flag_is_gone(capsys):
    # every answer is decided exactly, so there is nothing left to seed
    assert main(["validate", str(DATA / "lambda4.json"), "--seed", "1"]) == 3
    assert capsys.readouterr().out == ""


def test_inconclusive_search_exits_2(capsys, monkeypatch):
    def inconclusive(args):
        raise Undecided("filtration search hit its cap")

    monkeypatch.setattr(cli, "cmd_validate", inconclusive)
    code, rep = run(capsys, "validate", str(DATA / "lambda4.json"))
    assert code == 2
    assert rep["schema"] == "runreport.v1"
    assert rep["outcome"] == "undecided"
    assert rep["result"] == {"reason": "filtration search hit its cap"}
    assert rep["artifacts"] == []


def test_engine_refusal_exits_1_with_a_report(capsys, monkeypatch):
    def refused(args):
        raise PresentationError("blocks do not commute with the arrow actions")

    monkeypatch.setattr(cli, "cmd_validate", refused)
    code, rep = run(capsys, "validate", str(DATA / "lambda4.json"))
    assert code == 1
    assert rep["schema"] == "runreport.v1"
    assert rep["outcome"] == "error"
    assert rep["result"] == {"reason": "blocks do not commute with the arrow actions"}
    assert rep["artifacts"] == []


def test_zero_member_is_a_violation_not_a_crash(capsys, tmp_path):
    # S(w) given as the zero module: it adds to no layer of any filtration
    ka4 = fixtures.load("ka4")
    simples = fixtures.simples(ka4)
    sset = [io.dump_module(s) for s in simples]
    sset[ka4.vindex["w"]]["dims"] = {"k": 0, "w": 0, "wb": 0}
    alg, sset = str(DATA / "ka4.json"), write(tmp_path / "set.json", sset)
    code, rep = run(capsys, "hypcheck", alg, sset)
    assert code == 1
    assert "S(w) is zero" in rep["result"]["violations"]
    sw = write(tmp_path / "sw.json", io.dump_module(simples[ka4.vindex["w"]]))
    code, rep = run(capsys, "filtrate", alg, sset, sw)
    assert code == 1 and rep["outcome"] == "not filtrable"


# what a mutation may put in place of a JSON value: wrong types, edge
# integers, and a string naming no file
FUZZ_VALUES = (0, 1, 2, -1, 2 ** 70, 1.5, True, None, "x", "nowhere.json", [], {})


def _mutate(doc, rng: random.Random):
    """doc after one or two random edits: a value replaced, a key or item
    deleted, or a list item duplicated."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        slots = []
        stack = [doc]
        while stack:
            node = stack.pop()
            keys = list(node) if isinstance(node, dict) else range(len(node))
            for k in keys:
                slots.append((node, k))
                if isinstance(node[k], (dict, list)):
                    stack.append(node[k])
        if not slots:
            break
        node, k = rng.choice(slots)
        edits = ["replace", "delete"] + (["duplicate"] if isinstance(node, list) else [])
        edit = rng.choice(edits)
        if edit == "replace":
            node[k] = copy.deepcopy(rng.choice(FUZZ_VALUES))
        elif edit == "delete":
            del node[k]
        else:
            node.insert(k, copy.deepcopy(node[k]))
    return doc


def test_fuzzed_inputs_keep_the_exit_code_contract(capsys, tmp_path):
    # every bundled algebra with its simples (and, for derived, one injective
    # candidate per vertex), one input mutated per case; each run must end
    # in 0/1/2/3, never an exception, and every exit 1 or 2 prints its report
    rng = random.Random(3)
    inputs = {"validate": ["algebra"], "hypcheck": ["algebra", "set"],
              "filtrate": ["algebra", "set", "module"],
              "reconstruct": ["algebra", "set"],
              "derived": ["algebra", "set", "candidates"]}
    broken = []
    for case in range(100):
        name = rng.choice(fixtures.CORPUS + fixtures.EXTRAS)
        alg = fixtures.load(name)
        simples = fixtures.simples(alg)
        docs = {"algebra": json.loads((DATA / f"{name}.json").read_text(encoding="utf-8")),
                "set": [io.dump_module(s) for s in simples],
                "module": io.dump_module(rng.choice(simples)),
                "candidates": [io.dump_module(alg.injective(v))
                               for v in range(alg.nvertices)]}
        cmd = rng.choice(sorted(inputs))
        target = rng.choice(inputs[cmd])
        docs[target] = _mutate(docs[target], rng)
        paths = [write(tmp_path / f"{key}.json", docs[key]) for key in inputs[cmd]]
        argv = [cmd, *paths] + (["--search-cap", "2000"] if cmd == "filtrate" else [])
        try:
            code = main(argv)
        except Exception as e:  # noqa: BLE001 - any escape breaks the contract
            code = repr(e)
        out = capsys.readouterr().out
        if code not in (0, 1, 2, 3) or (code in (1, 2) and not out):
            broken.append((case, name, cmd, target, code))
    assert broken == []
