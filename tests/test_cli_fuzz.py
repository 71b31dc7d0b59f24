"""Fuzzed representation documents through the CLI: every run ends in a
JSON report with exit 0, or in exit 1 or 2 with empty stdout and one
diagnostic line on stderr, and never raises."""

import contextlib
import io
import json
import os
import tempfile
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from moldkit.cli import run_command

FUZZ = settings(max_examples=300, derandomize=True, deadline=None, database=None)

COMMANDS = ("classify", "equiv", "normalize", "invariants")

FIELDS = ({"p": 2}, {"p": 5}, {"p": 65521}, {"p": 2**31 - 1}, "Q")

# Moduli at and past the 2^31 bound, composites (3215031751 passes the four
# Miller-Rabin bases below it), and junk.
BAD_FIELDS = ({"p": 2**31}, {"p": 9}, {"p": 3215031751}, {"p": 1}, {"p": 0}, {"p": -7},
              {"p": True}, {"p": 5.0}, {"p": "5"}, {"q": 5}, {"p": 5, "q": 7}, "F5", "q",
              None, [], 17)

# Booleans, floats, text over F_p, zero denominators, malformed text, and
# rationals at and past the int-string digit limit.
BAD_ENTRIES = (True, False, 1.5, float("nan"), 1e300, None, [1], "1/2", "a/0", "1/0", "x", "",
               "1e5", "1/-2", "0x10", 2**70, -(2**70), "9" * 5000, "1/" + "7" * 4000,
               "7" * 4000 + "/3")

BAD_SHAPES = ([[1, 2]], [[1, 2], [3]], [1, 2, 3, 4], [[1, 2, 3], [4, 5, 6]], "M",
              [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], [])

RAW = ("", "{", "[]", "null", '{"field": "Q"}', "[" * 100_000,
       '{"field": "Q", "field": {"p": 5}, "mode": "monoid", "generators": [[[1, 2], [3, 4]]]}')

FAULTS = ("none", "none", "none", "field", "mode", "entry", "shape", "generators", "word",
          "key", "raw")


@st.composite
def documents(draw):
    """JSON text of a valid document of rank 1-3, or of one with a single
    fault: a bad field, mode, entry, matrix shape, generator list, word or
    key, or text that is not a document object."""
    field = draw(st.sampled_from(FIELDS))
    mode = draw(st.sampled_from(("monoid", "group")))
    rank = draw(st.integers(1, 3))
    entry = st.integers(-9, 9)
    if field == "Q":
        entry = st.one_of(entry, st.sampled_from(("1/2", "-3/4", "5/7", "10000000000/3")))
    gens = [[[draw(entry), draw(entry)], [draw(entry), draw(entry)]] for _ in range(rank)]
    doc = {"field": field, "mode": mode, "generators": gens}
    letters = st.integers(1, rank) if mode == "monoid" else st.integers(-rank, rank).filter(bool)
    if draw(st.booleans()):
        doc["words"] = draw(st.lists(st.lists(letters, max_size=4).map(
            lambda w: ",".join(map(str, w))), max_size=2))
    fault = draw(st.sampled_from(FAULTS))
    if fault == "raw":
        return draw(st.sampled_from(RAW))
    if fault == "field":
        doc["field"] = draw(st.sampled_from(BAD_FIELDS))
    elif fault == "mode":
        doc["mode"] = draw(st.sampled_from(("Group", "", 1, None, ["group"])))
    elif fault == "entry":
        gens[draw(st.integers(0, rank - 1))][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = (
            draw(st.sampled_from(BAD_ENTRIES)))
    elif fault == "shape":
        gens[draw(st.integers(0, rank - 1))] = draw(st.sampled_from(BAD_SHAPES))
    elif fault == "generators":
        doc["generators"] = draw(st.sampled_from(([], {}, "1,2", None)))
    elif fault == "word":
        doc["words"] = [draw(st.sampled_from(("0", "1,0", str(rank + 1), "-1", "1,,2", "a",
                                              "1.0", True, [1.0], [0], [True], 7)))]
    elif fault == "key":
        doc[draw(st.sampled_from(("extra", "Field")))] = 1
        if draw(st.booleans()):
            del doc[draw(st.sampled_from(("field", "mode", "generators")))]
    return json.dumps(doc)


def test_fuzzed_documents_end_in_a_report_or_one_diagnostic_line():
    """classify, equiv, normalize and invariants on fuzzed documents, with
    an equiv right side that is the left document or another one.  A
    report is valid JSON of its command on stdout with nothing on stderr;
    a refusal is exit 1 or 2 with empty stdout and one "error: " line.
    Both outcomes must occur."""
    outcomes = Counter()

    @FUZZ
    @given(st.sampled_from(COMMANDS), documents(), st.one_of(st.none(), documents()))
    def run(command, left, right):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, text in (("left", left), ("right", left if right is None else right)):
                paths.append(os.path.join(tmp, f"{name}.json"))
                with open(paths[-1], "w", encoding="utf-8") as f:
                    f.write(text)
            argv = ["equiv", *paths] if command == "equiv" else [command, paths[0]]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, out = run_command(argv)
        outcomes[code] += 1
        if code == 0:
            assert json.loads(out)["command"] == command and err.getvalue() == ""
        else:
            assert code in (1, 2) and out == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()

    run()
    assert outcomes[0] >= 50 and outcomes[1] >= 100, outcomes
