"""Self-test of the benchmark's own checks; runs at the start of every run.

It shows that the oracle rejects a tampered conjugator and a wrong label,
and that the seeded generator is deterministic and gives every stratum,
rank, mode and request kind of the workload's fields a share of a block.
"""

from __future__ import annotations

import answers
import gen
from oracle import Field


def oracle_errors() -> list[str]:
    errors = []
    F = Field(5)
    g = gen.Generator(0, (5,))
    gens = g.tuple_in(F, "monoid", 2, "air")
    P = g.invertible(F)
    req = gen.Request("equiv_conj", "air", 5, "monoid", gens,
                      other=[F.conj(P, x) for x in gens], expect_equiv=True)
    good = {"labels": ["air", "air"], "conjugator": P}
    if answers.check(req, good) is not None:
        errors.append("oracle rejects a valid conjugator")
    for i in range(4):
        bad = list(P)
        bad[i] = F.norm(bad[i] + 1)
        bad = tuple(bad)
        if F.det(bad) and any(F.conj(bad, a) != b for a, b in zip(gens, req.other)):
            if answers.check(req, {"labels": ["air", "air"], "conjugator": bad}) is None:
                errors.append("oracle accepts a tampered conjugator")
            break
    else:
        errors.append("self-test found no tampered conjugator to try")
    req = gen.Request("classify", "borel", 5, "monoid", g.tuple_in(F, "monoid", 2, "borel"))
    if answers.check(req, {"label": "borel", "dim": 3, "witness": None}) is not None:
        errors.append("oracle rejects a right label")
    for label, dim in (("air", 3), ("semi_simple", 3), ("borel", 2)):
        if answers.check(req, {"label": label, "dim": dim, "witness": None}) is None:
            errors.append(f"oracle accepts label {label} / dim {dim} for a borel tuple")
    return errors


def coverage_errors(block, fields) -> list[str]:
    """Every request kind, and every valid (field, mode, rank, stratum, kind)
    combination over `fields`, is in the block."""
    missing = set(gen.combos(fields)) - {(r.p, r.mode, r.rank, r.stratum, r.kind) for r in block}
    errors = [f"block misses {c}" for c in sorted(missing, key=str)[:3]]
    if {r.kind for r in block} != set(gen.KINDS):
        errors.append("block misses a request kind")
    return errors


def determinism_errors(seed, fields) -> list[str]:
    a = gen.Generator(seed, fields).block()[:20]
    b = gen.Generator(seed, fields).block()[:20]
    if [gen.document(r) for r in a] != [gen.document(r) for r in b]:
        return ["the generator is not deterministic for a seed"]
    return []
