"""Command-line front end.

Reads self-describing JSON representation documents, dispatches the
classify/equiv/invariants/normalize/census subcommands and emits
machine-readable JSON reports on stdout.  Reports echo a sha256 of their
inputs and contain no timestamps, so identical invocations are
byte-identical.  Q text entries are read by FieldSpec.parse; a domain error
or ValueError ends the command with exit 1 and a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from typing import Optional

from . import census as census_mod
from .canon import (
    general_conjugator,
    scalar_decompose,
    split_witness_word,
    ss_conjugator,
    unipotent_decompose,
    uf2_decompose,
)
from .errors import MoldkitError, NonInvertibleGenerator, ParseError, ValidationError
from .fields import FieldElement, FieldSpec
from .invariants import _key_texts, invariant_vector
from .mat2 import Mat2, companion_normalize
from .mold import MoldLabel, air_witness, classify
from .words import GROUP, MONOID, RepTuple, Word


@dataclass
class RepDocument:
    spec: FieldSpec
    mode: str
    tup: RepTuple
    words: list[Word]
    sha256: str


def _parse_field(obj) -> FieldSpec:
    if obj == "Q":
        return FieldSpec.rationals()
    if isinstance(obj, dict) and set(obj) == {"p"}:
        p = obj["p"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValidationError("field.p must be an integer prime")
        try:
            return FieldSpec.prime(p)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
    raise ValidationError('field must be {"p": <prime>} or "Q"')


def _parse_entry(x, spec: FieldSpec, where: str) -> FieldElement:
    if isinstance(x, bool):
        raise ValidationError(f"{where}: booleans are not field elements")
    if isinstance(x, int):
        return spec.element(x)
    if isinstance(x, str) and spec.is_rationals:
        try:
            return spec.parse(x)
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    raise ValidationError(f"{where}: invalid entry {x!r} for {spec}")


def _parse_matrix(obj, spec: FieldSpec, where: str) -> Mat2:
    if (not isinstance(obj, list) or len(obj) != 2
            or any(not isinstance(r, list) or len(r) != 2 for r in obj)):
        raise ValidationError(f"{where}: matrix must be a 2x2 array of entries")
    e = [_parse_entry(obj[i][j], spec, f"{where}[{i}][{j}]") for i in (0, 1) for j in (0, 1)]
    return Mat2(*e)


def _parse_word(obj, rank: int, mode: str, where: str) -> Word:
    if isinstance(obj, str):
        try:
            w = Word.parse(obj)
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    elif isinstance(obj, list) and all(isinstance(i, int) and not isinstance(i, bool) for i in obj):
        try:
            w = Word(tuple(obj))
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    else:
        raise ValidationError(f"{where}: word must be a string like \"1,2,-1\" or a list of ints")
    for letter in w.letters:
        if abs(letter) > rank:
            raise ValidationError(f"{where}: generator index {letter} out of range 1..{rank}")
        if letter < 0 and mode != GROUP:
            raise ValidationError(f"{where}: inverse letters require group mode")
    return w


def parse_rep_document(text: str) -> RepDocument:
    """Parse and validate a representation document."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("document nests too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError("document must be a JSON object")
    for required in ("field", "mode", "generators"):
        if required not in obj:
            raise ParseError(f"missing required key {required!r}")
    unknown = set(obj) - {"field", "mode", "generators", "words"}
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    spec = _parse_field(obj["field"])
    mode = obj["mode"]
    if mode not in (MONOID, GROUP):
        raise ValidationError(f'mode must be "monoid" or "group", got {mode!r}')
    gens_obj = obj["generators"]
    if not isinstance(gens_obj, list) or not gens_obj:
        raise ValidationError("generators must be a nonempty list of 2x2 matrices")
    gens = tuple(_parse_matrix(g, spec, f"generators[{i}]") for i, g in enumerate(gens_obj))
    try:
        tup = RepTuple(gens, mode)
    except NonInvertibleGenerator as exc:
        raise ValidationError(str(exc)) from None
    words_obj = obj.get("words", [])
    if not isinstance(words_obj, list):
        raise ValidationError("words must be a list")
    words = [_parse_word(w, tup.rank, mode, f"words[{i}]") for i, w in enumerate(words_obj)]
    sha = hashlib.sha256(text.encode()).hexdigest()
    return RepDocument(spec=spec, mode=mode, tup=tup, words=words, sha256=sha)


def _load_document(path: str) -> RepDocument:
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    return parse_rep_document(text)


def _fe_json(e: FieldElement):
    return e.text() if e.spec.is_rationals else e.value


def _mat_json(M: Mat2):
    return [[_fe_json(M.a11), _fe_json(M.a12)], [_fe_json(M.a21), _fe_json(M.a22)]]


def _cert_json(cert) -> dict:
    return {"P": _mat_json(cert.P), "companion": _mat_json(cert.companion),
            "branch": cert.branch}


def _word_keys(doc: RepDocument) -> list[Word]:
    words = [Word((i,)) for i in range(1, doc.tup.rank + 1)]
    for w in doc.words:
        if w not in words:
            words.append(w)
    return words


def _cmd_classify(args) -> dict:
    doc = _load_document(args.document)
    label = classify(doc.tup)
    witness = None
    if label is MoldLabel.AIR:
        found = air_witness(doc.tup)
        if found is not None:
            kind, indices, value = found
            witness = {"kind": kind, "indices": list(indices), "value": _fe_json(value)}
    return {
        "command": "classify",
        "input_sha256": {"document": doc.sha256},
        "field": str(doc.spec),
        "mode": doc.mode,
        "label": label.value,
        "dim": label.dim,
        "witness": witness,
    }


def _cmd_equiv(args) -> dict:
    left = _load_document(args.left)
    right = _load_document(args.right)
    if left.spec != right.spec or left.mode != right.mode or left.tup.rank != right.tup.rank:
        raise ValidationError("documents are not comparable: field, mode and rank must match")
    label1, label2 = classify(left.tup), classify(right.tup)
    if label1 is MoldLabel.SEMISIMPLE and label2 is MoldLabel.SEMISIMPLE:
        method, P = "trace", ss_conjugator(left.tup, right.tup)
    else:
        method, P = "solver", general_conjugator(left.tup, right.tup)
    return {
        "command": "equiv",
        "input_sha256": {"left": left.sha256, "right": right.sha256},
        "field": str(left.spec),
        "mode": left.mode,
        "labels": [label1.value, label2.value],
        "equivalent": P is not None,
        "conjugator": None if P is None else _mat_json(P),
        "method": method,
    }


def _cmd_invariants(args) -> dict:
    doc = _load_document(args.document)
    vec = invariant_vector(doc.tup)
    traces = dict(zip(_key_texts(len(vec.dets)), [_fe_json(v) for _, v in vec.traces]))
    return {
        "command": "invariants",
        "input_sha256": {"document": doc.sha256},
        "field": str(doc.spec),
        "mode": doc.mode,
        "augmented_with_inverses": doc.mode == GROUP,
        "dets": [_fe_json(d) for d in vec.dets],
        "traces": traces,
    }


def _cmd_normalize(args) -> dict:
    doc = _load_document(args.document)
    label = classify(doc.tup)
    out = {
        "command": "normalize",
        "input_sha256": {"document": doc.sha256},
        "field": str(doc.spec),
        "mode": doc.mode,
        "label": label.value,
    }
    if label is MoldLabel.SCALAR:
        out["characters"] = [_fe_json(c) for c in scalar_decompose(doc.tup)]
    elif label is MoldLabel.SEMISIMPLE:
        w = split_witness_word(doc.tup)
        out["witness_word"] = str(w)
        out["companion_certificate"] = _cert_json(companion_normalize(doc.tup.evaluate(w)))
    elif label is MoldLabel.UNIPOTENT:
        cd = unipotent_decompose(doc.tup)
        out["alpha_index"] = cd.alpha_index
        out["eta"] = _mat_json(cd.eta_mat)
        coords = {str(w): cd.coords(w) for w in _word_keys(doc)}
        for i, key in enumerate(("r", "d")):
            out[key] = {w: _fe_json(c[i]) for w, c in coords.items()}
    elif label is MoldLabel.UNIPOTENT_F2:
        ch = uf2_decompose(doc.tup)
        out["alpha_index"] = ch.alpha_index
        out["Z"] = _mat_json(ch.Z)
        coords = {str(w): ch.coords(w) for w in _word_keys(doc)}
        for i, key in enumerate(("a", "b", "d")):
            out[key] = {w: _fe_json(c[i]) for w, c in coords.items()}
    else:  # air and borel: normalize each non-scalar generator to companion form
        certs = {}
        for i, g in enumerate(doc.tup.gens, start=1):
            if not g.is_scalar:
                certs[str(i)] = _cert_json(companion_normalize(g))
        out["companion_certificates"] = certs
    return out


def _cmd_census(args) -> dict:
    key = census_mod.CensusKey(q=args.q, m=args.m, mode=args.mode)
    use_cache = not args.no_cache
    key_text = json.dumps({"q": key.q, "m": key.m, "mode": key.mode}, sort_keys=True)
    out = {
        "command": "census",
        "input_sha256": {"key": hashlib.sha256(key_text.encode()).hexdigest()},
        "key": {"q": key.q, "m": key.m, "mode": key.mode},
    }
    if args.report:
        report = census_mod.consistency_report(key, budget=args.budget, use_cache=use_cache)
        counts = report.counts
        out["report"] = {"passed": report.passed,
                         "checks": [asdict(c) for c in report.checks]}
    elif args.orbits:
        counts = census_mod.orbit_census(key, budget=args.budget, use_cache=use_cache)
    else:
        counts = census_mod.stratum_census(key, budget=args.budget, use_cache=use_cache)
    if args.orbits or args.report:
        out["orbits"] = counts.orbits_by_value()
        out["orbit_size_counts"] = counts.orbit_sizes_by_value()
    out["total"] = counts.total
    out["points"] = counts.points_by_value()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moldkit",
        description="Classify 2x2 matrix representations, decide conjugacy and run censuses",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("classify", help="mold label of a representation document")
    p.add_argument("document")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("equiv", help="decide conjugacy of two documents")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("invariants", help="moduli coordinates of a document")
    p.add_argument("document")
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("normalize", help="canonical decomposition for the document's label")
    p.add_argument("document")
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("census", help="stratified point and orbit counts over F_q")
    p.add_argument("--q", type=int, required=True, help="field size (prime)")
    p.add_argument("--m", type=int, required=True, help="number of generators")
    p.add_argument("--mode", choices=(MONOID, GROUP), default=MONOID)
    p.add_argument("--orbits", action="store_true", help="also count conjugation orbits")
    p.add_argument("--report", action="store_true", help="run the consistency checks")
    p.add_argument("--budget", type=int, default=census_mod.DEFAULT_BUDGET)
    p.add_argument("--no-cache", action="store_true", help="ignore and do not write the cache")
    p.set_defaults(handler=_cmd_census)

    return parser


def run_command(argv: list[str]) -> tuple[int, str]:
    """Parse argv, run the subcommand, return (exit code, report text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (0 if exc.code in (0, None) else 2, "")
    try:
        report = args.handler(args)
    except (MoldkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, ""
    return 0, json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    if text:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
