"""CLI: document parsing, subcommand reports, exit codes, determinism."""

import json
import time

import pytest

from moldkit.cli import _fe_json, parse_rep_document, run_command
from moldkit.errors import ParseError, ValidationError
from moldkit.invariants import invariant_vector
from moldkit.words import Word

from conftest import F65521, Q, rand_invertible


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("MOLDKIT_CACHE", str(tmp_path / "cache"))


def write_doc(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


SWAP_F2 = {"field": {"p": 2}, "mode": "monoid", "generators": [[[0, 1], [1, 0]]]}
DIAG12 = {"field": {"p": 5}, "mode": "monoid", "generators": [[[1, 0], [0, 2]]]}
DIAG21 = {"field": {"p": 5}, "mode": "monoid", "generators": [[[2, 0], [0, 1]]]}


def test_parse_rep_document_examples():
    doc = parse_rep_document(json.dumps(SWAP_F2))
    assert str(doc.spec) == "F2" and doc.mode == "monoid" and doc.tup.rank == 1

    rational = {"field": "Q", "mode": "monoid",
                "generators": [[[1, "1/2"], [0, 1]]]}
    doc = parse_rep_document(json.dumps(rational))
    assert doc.spec.is_rationals
    assert doc.tup.gens[0].a12.text() == "1/2"

    with pytest.raises(ValidationError):
        parse_rep_document(json.dumps(
            {"field": {"p": 2}, "mode": "group", "generators": [[[0, 1], [0, 0]]]}))
    with pytest.raises(ParseError):
        parse_rep_document("{not json")
    with pytest.raises(ParseError):
        parse_rep_document(json.dumps({"field": {"p": 2}, "mode": "monoid"}))
    with pytest.raises(ValidationError):
        parse_rep_document(json.dumps(
            {"field": {"p": 4}, "mode": "monoid", "generators": [[[0, 1], [1, 0]]]}))
    with pytest.raises(ValidationError):
        parse_rep_document(json.dumps(
            {"field": {"p": 5}, "mode": "monoid", "generators": [[[0, "1/2"], [1, 0]]]}))
    with pytest.raises(ValidationError):
        parse_rep_document(json.dumps(
            {"field": {"p": 5}, "mode": "monoid",
             "generators": [[[0, 1], [1, 0]]], "words": ["-1"]}))


@pytest.mark.parametrize("outer", ["[{}]", '{{"field": {{"p": 2}}, "mode": "monoid", '
                                   '"generators": [[[0, 1], [1, 0]]], "words": [{}]}}'],
                         ids=["array", "words"])
def test_deeply_nested_document_is_a_one_line_parse_error(outer, tmp_path, capsys):
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text(outer.format("[" * depth + "]" * depth))
    assert run_command(["classify", str(path)]) == (1, "")
    assert capsys.readouterr().err == "error: document nests too deeply\n"


def test_classify_command(tmp_path):
    path = write_doc(tmp_path, "swap.json", SWAP_F2)
    code, out = run_command(["classify", path])
    assert code == 0
    report = json.loads(out)
    assert report["label"] == "unipotent_f2"
    assert report["dim"] == 2
    assert report["witness"] is None
    assert len(report["input_sha256"]["document"]) == 64

    air = {"field": {"p": 2}, "mode": "monoid",
           "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}
    code, out = run_command(["classify", write_doc(tmp_path, "air.json", air)])
    assert code == 0
    report = json.loads(out)
    assert report["label"] == "air" and report["dim"] == 4
    assert report["witness"] == {"kind": "delta", "indices": [1, 2], "value": 1}


def test_equiv_command(tmp_path):
    a = write_doc(tmp_path, "a.json", DIAG12)
    b = write_doc(tmp_path, "b.json", DIAG21)
    code, out = run_command(["equiv", a, b])
    assert code == 0
    report = json.loads(out)
    assert report["equivalent"] is True
    assert report["method"] == "trace"
    assert report["conjugator"] == [[0, 1], [1, 0]]

    c = write_doc(tmp_path, "c.json",
                  {"field": {"p": 5}, "mode": "monoid", "generators": [[[1, 0], [0, 3]]]})
    code, out = run_command(["equiv", a, c])
    assert code == 0
    assert json.loads(out)["equivalent"] is False

    # Unipotent pair goes through the solver.
    u1 = write_doc(tmp_path, "u1.json",
                   {"field": "Q", "mode": "monoid", "generators": [[[1, 1], [0, 1]]]})
    u2 = write_doc(tmp_path, "u2.json",
                   {"field": "Q", "mode": "monoid", "generators": [[[1, 0], [1, 1]]]})
    code, out = run_command(["equiv", u1, u2])
    report = json.loads(out)
    assert report["method"] == "solver" and report["equivalent"] is True


def test_invariants_command(tmp_path):
    doc = {"field": "Q", "mode": "monoid",
           "generators": [[[1, 0], [0, 2]], [[3, 0], [0, 4]]]}
    code, out = run_command(["invariants", write_doc(tmp_path, "d.json", doc)])
    assert code == 0
    report = json.loads(out)
    assert report["dets"] == ["2/1", "12/1"]
    assert report["traces"] == {"1": "3/1", "2": "7/1", "1,2": "11/1"}


@pytest.mark.parametrize("spec", [F65521, Q], ids=["F65521", "Q"])
def test_invariants_command_puts_every_trace_under_its_key(tmp_path, rng, spec):
    """Every trace sits under its own key, for up to 8 generators (65 535
    traces in group mode); the report prints its keys sorted as text."""
    for mode in ("monoid", "group"):
        for n in range(1, 9):
            gens = [rand_invertible(rng, spec, span=5) for _ in range(n)]
            doc = {"field": "Q" if spec.p is None else {"p": spec.p}, "mode": mode,
                   "generators": [[[_fe_json(M.a11), _fe_json(M.a12)],
                                   [_fe_json(M.a21), _fe_json(M.a22)]] for M in gens]}
            code, out = run_command(["invariants", write_doc(tmp_path, "d.json", doc)])
            assert code == 0
            report = json.loads(out)
            vec = invariant_vector(parse_rep_document(json.dumps(doc)).tup)
            expected = [(",".join(map(str, k)), _fe_json(v)) for k, v in vec.traces]
            assert list(report["traces"].items()) == sorted(expected)
            assert report["dets"] == [_fe_json(d) for d in vec.dets]
            assert len(vec.traces) == 2 ** (2 * n if mode == "group" else n) - 1


def test_normalize_command_all_labels(tmp_path):
    scalar = {"field": "Q", "mode": "monoid",
              "generators": [[[1, 0], [0, 1]], [[2, 0], [0, 2]]]}
    code, out = run_command(["normalize", write_doc(tmp_path, "s.json", scalar)])
    assert json.loads(out)["characters"] == ["1/1", "2/1"]

    ss = {"field": "Q", "mode": "monoid", "generators": [[[1, 0], [0, 2]]]}
    code, out = run_command(["normalize", write_doc(tmp_path, "ss.json", ss)])
    report = json.loads(out)
    assert report["label"] == "semi_simple"
    assert report["witness_word"] == "1"
    assert report["companion_certificate"]["branch"] == "a-d"

    uni = {"field": "Q", "mode": "monoid", "generators": [[[1, 1], [0, 1]]],
           "words": ["1,1"]}
    code, out = run_command(["normalize", write_doc(tmp_path, "u.json", uni)])
    report = json.loads(out)
    assert report["label"] == "unipotent"
    assert report["r"]["1,1"] == "1/1"
    assert report["d"]["1,1"] == "2/1"

    code, out = run_command(["normalize", write_doc(tmp_path, "w.json", SWAP_F2)])
    report = json.loads(out)
    assert report["label"] == "unipotent_f2"
    assert report["a"]["1"] == 0 and report["b"]["1"] == 1 and report["d"]["1"] == 1

    air = {"field": {"p": 2}, "mode": "monoid",
           "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}
    code, out = run_command(["normalize", write_doc(tmp_path, "air.json", air)])
    report = json.loads(out)
    assert report["label"] == "air"
    assert set(report["companion_certificates"]) == {"1", "2"}


def test_census_command(tmp_path):
    code, out = run_command(["census", "--q", "2", "--m", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["points"] == {"air": 0, "borel": 0, "semi_simple": 8,
                                "unipotent": 0, "unipotent_f2": 6, "scalar": 2}
    assert report["total"] == 16
    assert "orbits" not in report

    code, out = run_command(["census", "--q", "3", "--m", "1", "--orbits", "--report"])
    report = json.loads(out)
    assert report["orbits"]["unipotent"] == 3
    assert report["report"]["passed"] is True

    code, out = run_command(["census", "--q", "5", "--m", "3"])
    assert code == 1


def test_census_recounts_a_checksummed_cache_of_the_wrong_shape(tmp_path):
    from moldkit import census

    commands = [["census", "--q", "2", "--m", "1"], ["census", "--q", "2", "--m", "1", "--orbits"]]
    expected = [run_command(argv) for argv in commands]
    assert [code for code, _ in expected] == [0, 0]
    path = tmp_path / "cache" / "census_q2_m1_monoid.json"
    good = json.loads(path.read_text())
    good.pop("checksum")
    damages = [
        lambda body: body["points"].pop("air"),
        lambda body: body["points"].update(air="0"),
        lambda body: body.update(total=16.0),
        lambda body: body.update(orbits={"air": 0}),
        lambda body: body["orbit_size_counts"].update(air={"x": 1}),
        lambda body: body.update(orbit_size_counts=None),
        lambda body: body.update(points=[0] * 6),
    ]
    for damage in damages:
        for argv, want in zip(commands, expected):
            body = json.loads(json.dumps(good))
            damage(body)
            body["checksum"] = census._checksum(body)
            path.write_text(json.dumps(body))
            assert run_command(argv) == want


def test_invariants_over_the_trace_budget_exits_1_fast(tmp_path, capsys):
    doc = {"field": {"p": 5}, "mode": "group", "generators": [[[1, 1], [0, 2]]] * 9}
    start = time.perf_counter()
    code, out = run_command(["invariants", write_doc(tmp_path, "rank9.json", doc)])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oversized_rational_text_exits_1_fast(tmp_path, capsys):
    # Fraction accepts exponent notation, so a short entry can name a huge
    # integer; the text's digits and exponent are bounded before parsing.
    for text in ("1e3000000", "1e-4301", "7" * 5000, "1/" + "3" * 4301):
        doc = {"field": "Q", "mode": "monoid", "generators": [[[1, text], [0, 1]]]}
        start = time.perf_counter()
        code, out = run_command(["classify", write_doc(tmp_path, "big.json", doc)])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: generators[0][0][1]: rational ")
        assert err.count("\n") == 1 and len(err) < 120
    doc = {"field": "Q", "mode": "monoid", "generators": [[[1, "1e4300"], [0, 1]]]}
    assert run_command(["classify", write_doc(tmp_path, "edge.json", doc)])[0] == 0


def test_values_over_the_digit_limit_exit_1_with_one_line(tmp_path, capsys):
    # Entries inside the text bound whose air witness delta2 has about
    # 8800 digits, more than the int-string limit lets the report print.
    doc = {"field": "Q", "mode": "monoid",
           "generators": [[[1, "1e2200"], [0, 1]], [[1, 0], ["1e2200", 1]]]}
    path = write_doc(tmp_path, "big.json", doc)
    for sub in ("classify", "invariants"):
        assert run_command([sub, path]) == (1, "")
        assert capsys.readouterr().err == (
            "error: rational value exceeds the 4300-digit output limit\n")
    assert run_command(["normalize", path])[0] == 0


def _doc(**changes):
    """SWAP_F2 with keys replaced (a value of None drops the key), as text."""
    obj = {**SWAP_F2, **changes}
    return json.dumps({k: v for k, v in obj.items() if v is not None})


# One document per diagnostic that parse_rep_document raises, with the
# start of the line it must print.
BAD_DOCUMENTS = {
    "p_not_int": (_doc(field={"p": "5"}), "field.p must be an integer prime"),
    "p_not_prime": (_doc(field={"p": 4}), "modulus is not prime: 4"),
    "field_shape": (_doc(field="R"), 'field must be {"p": <prime>} or "Q"'),
    "bool_entry": (_doc(generators=[[[True, 0], [0, 1]]]),
                   "generators[0][0][0]: booleans are not field elements"),
    "bad_rational": (_doc(field="Q", generators=[[["x", 0], [0, 1]]]),
                     "generators[0][0][0]: malformed rational 'x'"),
    "float_entry": (_doc(generators=[[[1.5, 0], [0, 1]]]),
                    "generators[0][0][0]: invalid entry 1.5 for F2"),
    "matrix_shape": (_doc(generators=[[1, 2]]),
                     "generators[0]: matrix must be a 2x2 array of entries"),
    "word_text": (_doc(words=["1,x"]), "words[0]: invalid literal for int()"),
    "word_list": (_doc(words=[[1, 0]]), "words[0]: generator indices are 1-based; 0 is invalid"),
    "word_type": (_doc(words=[{"a": 1}]), "words[0]: word must be a string"),
    "word_range": (_doc(words=[[2]]), "words[0]: generator index 2 out of range 1..1"),
    "word_inverse": (_doc(words=["-1"]), "words[0]: inverse letters require group mode"),
    "json": ("{not json", "line 1 column 2: "),
    "not_object": ("[1, 2]", "document must be a JSON object"),
    "missing_key": (_doc(generators=None), "missing required key 'generators'"),
    "unknown_key": (_doc(extra=1), "unknown keys: ['extra']"),
    "mode": (_doc(mode="semigroup"), 'mode must be "monoid" or "group", got \'semigroup\''),
    "no_generators": (_doc(generators=[]), "generators must be a nonempty list"),
    "singular": (_doc(mode="group", generators=[[[1, 1], [1, 1]]]),
                 "generator 1 is singular in group mode"),
    "words_type": (_doc(words="1"), "words must be a list"),
}


@pytest.mark.parametrize("name", BAD_DOCUMENTS)
def test_every_document_diagnostic_is_one_line(name, tmp_path, capsys):
    text, message = BAD_DOCUMENTS[name]
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert run_command(["classify", str(path)]) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert err.endswith("\n") and err.count("error: ") == 1


def test_a_word_may_be_a_list_of_ints(tmp_path):
    path = write_doc(tmp_path, "doc.json", {**SWAP_F2, "words": [[1, 1], []]})
    assert parse_rep_document(open(path).read()).words == [Word((1, 1)), Word(())]
    code, out = run_command(["normalize", path])
    assert code == 0 and json.loads(out)["a"] == {"": 1, "1": 0, "1,1": 1}


def test_exit_codes(tmp_path):
    code, _ = run_command(["classify", str(tmp_path / "missing.json")])
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _ = run_command(["classify", str(bad)])
    assert code == 1
    code, _ = run_command(["frobnicate"])
    assert code == 2
    code, _ = run_command([])
    assert code == 2
    code, _ = run_command(["census", "--q", "4", "--m", "1"])
    assert code == 1  # non-prime q is a domain error

    a = write_doc(tmp_path, "a.json", DIAG12)
    g = write_doc(tmp_path, "g.json",
                  {"field": {"p": 5}, "mode": "group", "generators": [[[1, 0], [0, 2]]]})
    code, _ = run_command(["equiv", a, g])
    assert code == 1  # mode mismatch


def test_reports_are_deterministic(tmp_path):
    docs = {
        "swap": write_doc(tmp_path, "swap.json", SWAP_F2),
        "a": write_doc(tmp_path, "a.json", DIAG12),
        "b": write_doc(tmp_path, "b.json", DIAG21),
    }
    commands = [
        ["classify", docs["swap"]],
        ["equiv", docs["a"], docs["b"]],
        ["invariants", docs["a"]],
        ["normalize", docs["swap"]],
        ["census", "--q", "2", "--m", "2", "--orbits", "--report"],
    ]
    for argv in commands:
        code1, out1 = run_command(argv)
        code2, out2 = run_command(argv)
        assert code1 == code2 == 0
        assert out1 == out2


def test_classify_command_at_rank_2000_is_fast(tmp_path):
    # 1998 copies of diag(1, 0), then E12 and E21: the classifier meets rank
    # 3 at the last generator and the witness is the last pair.
    gens = [[[1, 0], [0, 0]]] * 1998 + [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]
    doc = {"field": {"p": 65521}, "mode": "monoid", "generators": gens}
    path = write_doc(tmp_path, "rank2000.json", doc)
    start = time.perf_counter()
    code, out = run_command(["classify", path])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    report = json.loads(out)
    assert report["label"] == "air"
    assert report["witness"] == {"kind": "delta", "indices": [1999, 2000], "value": 1}
