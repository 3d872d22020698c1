"""Serialization round trips and golden files for every schema."""

from __future__ import annotations

from pathlib import Path

import pytest

from stabrec import fixtures, io
from stabrec.derived import Complex, as_complex, random_tower
from stabrec.errors import PresentationError
from stabrec.filtration import s_radical_filtration, verify_s_radical
from stabrec.modules import direct_sum, hom_space

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def lam():
    return fixtures.load("lambda4")


def two_term(lam):
    pu, pv = lam.projective(0), lam.projective(1)
    return Complex(lam, {-1: pu, 0: pv}, {-1: hom_space(pu, pv)[0]}, name="I(U)")


def test_algebra_round_trip():
    for name in fixtures.CORPUS:
        alg = fixtures.load(name)
        text = io.canon_dumps(io.dump_algebra(alg))
        back = io.load_algebra({"schema": "algebra.v1", **io.dump_algebra(alg)})
        assert io.canon_dumps(io.dump_algebra(back)) == text


def test_module_round_trip(lam):
    pu = lam.projective(0)
    d = io.dump_module(pu)
    back = io.load_module(d, lam)
    assert back.dims == pu.dims
    assert io.canon_dumps(io.dump_module(back)) == io.canon_dumps(d)


def test_module_algebra_mismatch(lam):
    n3 = fixtures.load("n3")
    d = io.dump_module(n3.projective(0))
    with pytest.raises(PresentationError):
        io.load_module(d, lam)


def test_schema_field_checked(lam):
    d = io.dump_module(lam.simple(0))
    d["schema"] = "module.v2"
    with pytest.raises(PresentationError, match="schema"):
        io.load_module(d, lam)


def test_complex_round_trip(lam):
    iu = two_term(lam)
    d = io.dump_complex(iu)
    back = io.load_complex(d, lam)
    assert back.cohomology_dims() == iu.cohomology_dims()
    assert io.canon_dumps(io.dump_complex(back)) == io.canon_dumps(d)


def test_complex_load_checks_differential(lam):
    iu = two_term(lam)
    d = io.dump_complex(iu)
    # corrupt one differential entry so the map is no longer a chain map
    d["diffs"][0]["blocks"][1][0][0] ^= 1
    with pytest.raises(PresentationError):
        io.load_complex(d, lam)
    # a 1 x 1 block written as a flat list is not a matrix
    flat = io.dump_complex(iu)
    flat["diffs"][0]["blocks"][0] = [1]
    with pytest.raises(PresentationError, match="shape"):
        io.load_complex(flat, lam)


@pytest.mark.parametrize("value", [["x"], {"x": 1}, 7, None])
def test_non_string_names_rejected(lam, value):
    docs = {"algebra": io.dump_algebra(lam), "module": io.dump_module(lam.simple(0)),
            "graded": io.dump_graded(lam.gr_oracle()), "complex": io.dump_complex(two_term(lam))}
    loaders = {"algebra": io.load_algebra, "module": lambda d: io.load_module(d, lam),
               "graded": io.load_graded, "complex": lambda d: io.load_complex(d, lam)}
    for kind, doc in docs.items():
        with pytest.raises(PresentationError, match="name must be a string"):
            loaders[kind]({**doc, "name": value})


def test_entries_outside_the_field_rejected(lam):
    # lambda4 is over GF(5); loaders check entries before any table lookup
    mod = io.dump_module(lam.projective(0))
    mod["arrows"][next(iter(mod["arrows"]))][0][0] = -1
    cpx = io.dump_complex(two_term(lam))
    cpx["diffs"][0]["blocks"][1][0][0] = 70000
    constant = io.dump_graded(lam.gr_oracle())
    constant["table"][0][3] = 5
    index = io.dump_graded(lam.gr_oracle())
    index["table"][0][0] = -1
    for load in (lambda: io.load_module(mod, lam), lambda: io.load_complex(cpx, lam),
                 lambda: io.load_graded(constant), lambda: io.load_graded(index)):
        with pytest.raises(PresentationError, match="out of"):
            load()


def test_non_integer_entries_rejected(lam):
    # a float, bool or string entry is rejected, not truncated or parsed
    for bad in (1.7, 1.0, True, "1"):
        mod = {"schema": "module.v1", "dims": {"u": 1, "v": 1},
               "arrows": {"alpha": [[bad]], "beta": [[0]]}}
        cpx = io.dump_complex(two_term(lam))
        cpx["diffs"][0]["blocks"][1][0][0] = bad
        graded = io.dump_graded(lam.gr_oracle())
        graded["table"][0][3] = bad
        for load in (lambda: io.load_module(mod, lam), lambda: io.load_complex(cpx, lam),
                     lambda: io.load_graded(graded)):
            with pytest.raises(PresentationError, match="must be integers"):
                load()
    good = {"schema": "module.v1", "dims": {"u": 1, "v": 1}, "arrows": {"alpha": [[1]]}}
    assert io.load_module(good, lam).mats[0].tolist() == [[1]]


def test_filtration_round_trip(lam):
    # semisimple input: over this algebra anything bigger has projective summands
    sset = fixtures.simples(lam)
    m, _, _ = direct_sum(sset, name="SS")
    filt = s_radical_filtration(m, sset)
    cert = verify_s_radical(filt)
    d = io.dump_filtration(filt, flags={"ok": cert.ok})
    back = io.load_filtration(d, lam)
    assert verify_s_radical(back).ok
    assert io.canon_dumps(io.dump_filtration(back, flags={"ok": True})) == io.canon_dumps(d)
    assert d["chain_dims"] == [2, 0]
    # a level written as one flat list is not a matrix
    d["chain"][0] = [1, 0, 0, 1]
    with pytest.raises(PresentationError, match="shape"):
        io.load_filtration(d, lam)


def test_filtration_load_refuses_an_empty_chain(lam):
    sset = fixtures.simples(lam)
    d = io.dump_filtration(s_radical_filtration(direct_sum(sset)[0], sset))
    d["chain"] = []
    with pytest.raises(PresentationError, match="start at the full module"):
        io.load_filtration(d, lam)


def test_tower_round_trip(lam):
    tw = random_tower(lam, fixtures.simples(lam), 3, seed=5, split_only=True)
    d = io.dump_tower(tw)
    back = io.load_tower(d, lam)
    assert back.verify() == []
    assert back.d_list() == tw.d_list()
    assert io.canon_dumps(io.dump_tower(back)) == io.canon_dumps(d)


def test_report_hashes_inputs():
    r1 = io.dump_report("validate", {"algebra": "xyz"}, "pass", [], 1.23)
    r2 = io.dump_report("validate", {"algebra": "xyz"}, "pass", [], 9.99)
    assert r1["inputs"] == r2["inputs"]
    assert r1["inputs"]["algebra"] == io.sha256_text("xyz")
    strip = lambda r: {k: v for k, v in r.items() if k != "timing"}
    assert strip(r1) == strip(r2)


def _check_golden(name, text):
    path = GOLDEN / name
    assert path.read_text(encoding="utf-8") == text


def test_golden_algebra(lam):
    _check_golden("lambda4.algebra.json", io.canon_dumps(io.dump_algebra(lam)))


def test_golden_graded(lam):
    _check_golden("lambda4.graded.json", io.canon_dumps(io.dump_graded(lam.gr_oracle())))


def test_golden_complex(lam):
    _check_golden("lambda4.complex.json", io.canon_dumps(io.dump_complex(two_term(lam))))


def test_golden_filtration(lam):
    sset = fixtures.simples(lam)
    filt = s_radical_filtration(direct_sum(sset, name="SS")[0], sset)
    cert = verify_s_radical(filt)
    text = io.canon_dumps(io.dump_filtration(filt, flags={"ok": cert.ok}))
    _check_golden("lambda4.filtration.json", text)


def test_golden_tower(lam):
    tw = random_tower(lam, fixtures.simples(lam), 2, seed=0, split_only=True)
    _check_golden("lambda4.tower.json", io.canon_dumps(io.dump_tower(tw)))
