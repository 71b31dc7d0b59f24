"""Decision requests against the library, and their checks by the oracle.

``run_request`` performs one request through moldkit's public API (this
is the timed op).  ``lib_answer`` and ``cli_answer`` turn the library's
objects or the CLI's JSON report into one plain answer form, and
``check`` compares that answer with what the oracle computes from the
request's generators.
"""

from __future__ import annotations

from fractions import Fraction

from oracle import DIM_BY_LABEL, Field


def _val(x):
    return getattr(x, "value", x)


def _lib_mat(M):
    return tuple(_val(e) for e in M.entries())


class Library:
    """The moldkit entry points a decision request uses."""

    def __init__(self):
        import moldkit
        from moldkit.canon import split_witness_word
        from moldkit.mold import air_witness

        self.mk = moldkit
        self.air_witness = air_witness
        self.split_witness_word = split_witness_word

    def rep(self, req, gens):
        mk = self.mk
        spec = mk.FieldSpec.rationals() if req.p is None else mk.FieldSpec.prime(req.p)
        mats = tuple(mk.Mat2.from_rows([[a, b], [c, d]], spec) for a, b, c, d in gens)
        return mk.RepTuple(mats, req.mode)


def word_keys(req):
    """Generators as one-letter words, then the request's own words."""
    keys = [(i,) for i in range(1, req.rank + 1)]
    for w in req.words:
        if w not in keys:
            keys.append(w)
    return keys


def run_request(lib: Library, req):
    """One decision request through the public library API."""
    mk = lib.mk
    t = lib.rep(req, req.gens)
    if req.kind == "classify":
        label = mk.classify(t)
        out = {"label": label, "dim": mk.span_closure(t).dim, "witness": None}
        if label is mk.MoldLabel.AIR:
            out["witness"] = lib.air_witness(t)
        return out
    if req.kind == "invariants":
        return {"vector": mk.invariant_vector(t)}
    if req.kind == "normalize":
        label = mk.classify(t)
        out = {"label": label}
        L = mk.MoldLabel
        if label is L.SCALAR:
            out["characters"] = mk.scalar_decompose(t)
        elif label is L.SEMISIMPLE:
            w = lib.split_witness_word(t)
            out["word"] = w
            out["cert"] = mk.companion_normalize(t.evaluate(w))
        elif label is L.UNIPOTENT:
            cd = mk.unipotent_decompose(t)
            out["recon"] = {k: mk.unipotent_reconstruct(cd, mk.Word(k)) for k in word_keys(req)}
        elif label is L.UNIPOTENT_F2:
            ch = mk.uf2_decompose(t)
            for beta in req.chain:
                ch = mk.uf2_transition(ch, mk.Word(beta))
            out["recon"] = {k: mk.uf2_reconstruct(ch, mk.Word(k)) for k in word_keys(req)}
            out["word_dets"] = {k: ch.d(mk.Word(k)) for k in word_keys(req)}
        else:
            out["certs"] = {i: mk.companion_normalize(g)
                            for i, g in enumerate(t.gens, start=1) if not g.is_scalar}
        return out
    t2 = lib.rep(req, req.other)
    labels = (mk.classify(t), mk.classify(t2))
    if labels[0] is mk.MoldLabel.SEMISIMPLE and labels[1] is mk.MoldLabel.SEMISIMPLE:
        P = mk.ss_conjugator(t, t2)
    else:
        P = mk.general_conjugator(t, t2)
    return {"labels": labels, "conjugator": P}


def lib_answer(req, out) -> dict:
    """Plain answer form of run_request's result."""
    if req.kind == "classify":
        w = out["witness"]
        return {"label": out["label"].value, "dim": out["dim"],
                "witness": None if w is None else (w[0], tuple(w[1]), _val(w[2]))}
    if req.kind == "invariants":
        vec = out["vector"]
        return {"dets": [_val(d) for d in vec.dets],
                "traces": {tuple(sub): _val(v) for sub, v in vec.traces}}
    if req.kind == "normalize":
        ans = {"label": out["label"].value}
        if "characters" in out:
            ans["characters"] = [_val(c) for c in out["characters"]]
        if "cert" in out:
            cert = out["cert"]
            ans["word"] = tuple(out["word"].letters)
            ans["cert"] = (_lib_mat(cert.P), _lib_mat(cert.companion))
        if "recon" in out:
            ans["recon"] = {k: _lib_mat(M) for k, M in out["recon"].items()}
        if "word_dets" in out:
            ans["word_dets"] = {k: _val(d) for k, d in out["word_dets"].items()}
        if "certs" in out:
            ans["certs"] = {i: (_lib_mat(c.P), _lib_mat(c.companion))
                            for i, c in out["certs"].items()}
        return ans
    P = out["conjugator"]
    return {"labels": [x.value for x in out["labels"]],
            "conjugator": None if P is None else _lib_mat(P)}


def _cli_val(x):
    return Fraction(x) if isinstance(x, str) else x


def _cli_mat(rows):
    (a, b), (c, d) = rows
    return tuple(_cli_val(x) for x in (a, b, c, d))


def _cli_word(text):
    return tuple(int(i) for i in text.split(","))


def cli_answer(req, report: dict) -> dict:
    """Plain answer form of a CLI JSON report."""
    F = Field(req.p)
    if req.kind == "classify":
        w = report["witness"]
        return {"label": report["label"], "dim": report["dim"],
                "witness": None if w is None else (w["kind"], tuple(w["indices"]),
                                                   _cli_val(w["value"]))}
    if req.kind == "invariants":
        return {"dets": [_cli_val(d) for d in report["dets"]],
                "traces": {_cli_word(k): _cli_val(v) for k, v in report["traces"].items()}}
    if req.kind == "normalize":
        ans = {"label": report["label"]}
        if "characters" in report:
            ans["characters"] = [_cli_val(c) for c in report["characters"]]
        if "companion_certificate" in report:
            cert = report["companion_certificate"]
            ans["word"] = _cli_word(report["witness_word"])
            ans["cert"] = (_cli_mat(cert["P"]), _cli_mat(cert["companion"]))
        if "eta" in report:
            eta = _cli_mat(report["eta"])
            ans["recon"] = {
                _cli_word(k): F.add(F.scale(_cli_val(r), F.ident()),
                                    F.scale(_cli_val(report["d"][k]), eta))
                for k, r in report["r"].items()}
        if "Z" in report:
            Z = _cli_mat(report["Z"])
            ans["recon"] = {
                _cli_word(k): F.add(F.scale(_cli_val(a), F.ident()),
                                    F.scale(_cli_val(report["b"][k]), Z))
                for k, a in report["a"].items()}
            ans["word_dets"] = {_cli_word(k): _cli_val(d) for k, d in report["d"].items()}
        if "companion_certificates" in report:
            ans["certs"] = {int(i): (_cli_mat(c["P"]), _cli_mat(c["companion"]))
                            for i, c in report["companion_certificates"].items()}
        return ans
    P = report["conjugator"]
    return {"labels": report["labels"], "conjugator": None if P is None else _cli_mat(P)}


def _companion_ok(F: Field, A, cert) -> bool:
    P, comp = (tuple(F.norm(x) for x in M) for M in cert)
    want = F.mat(0, -F.det(A), 1, F.tr(A))
    return bool(F.det(P)) and comp == want and F.conj(P, A) == want


def check(req, ans: dict) -> str | None:
    """None when the answer is exactly right, else what is wrong."""
    F = Field(req.p)
    gens = req.gens
    norm = F.norm
    if req.kind == "classify":
        if ans["label"] != req.stratum:
            return f"label {ans['label']} for a {req.stratum} tuple"
        if ans["dim"] != DIM_BY_LABEL[req.stratum]:
            return f"dim {ans['dim']} for label {req.stratum}"
        w = ans["witness"]
        if (w is None) != (req.stratum != "air"):
            return "air witness missing or unexpected"
        if w is not None:
            kind, idx, value = w
            mats = [gens[i - 1] for i in idx]
            want = F.delta2(*mats) if kind == "delta" else F.tau3(*mats)
            if not want or norm(value) != want:
                return f"air witness {kind}{idx} does not verify"
        return None
    if req.kind == "invariants":
        dets, traces = F.invariant_vector(gens, req.mode == "group")
        if [norm(d) for d in ans["dets"]] != list(dets):
            return "invariant dets differ"
        if {k: norm(v) for k, v in ans["traces"].items()} != traces:
            return "invariant traces differ"
        return None
    if req.kind == "normalize":
        if ans["label"] != req.stratum:
            return f"label {ans['label']} for a {req.stratum} tuple"
        if req.stratum == "scalar":
            if [F.scale(c, F.ident()) for c in ans["characters"]] != gens:
                return "scalar characters do not reproduce the generators"
        elif req.stratum == "semi_simple":
            A = F.evaluate(gens, ans["word"])
            if not F.m(A) or not _companion_ok(F, A, ans["cert"]):
                return "semi-simple companion certificate does not verify"
        elif req.stratum in ("unipotent", "unipotent_f2"):
            keys = word_keys(req)
            recon = ans["recon"]
            if sorted(recon) != sorted(keys):
                return "reconstruction words differ"
            for k in keys:
                M = F.evaluate(gens, k)
                if tuple(norm(x) for x in recon[k]) != M:
                    return f"{req.stratum} reconstruction of word {k} does not verify"
                if "word_dets" in ans and norm(ans["word_dets"][k]) != F.det(M):
                    return f"chart determinant of word {k} does not verify"
        else:
            want = [i for i, g in enumerate(gens, start=1) if not F.is_scalar(g)]
            if sorted(ans["certs"]) != want:
                return "companion certificates missing"
            for i, cert in ans["certs"].items():
                if not _companion_ok(F, gens[i - 1], cert):
                    return f"companion certificate of generator {i} does not verify"
        return None
    if ans["labels"] != [req.stratum, req.stratum]:
        return f"labels {ans['labels']} for {req.stratum} tuples"
    P = ans["conjugator"]
    if not req.expect_equiv:
        return None if P is None else "conjugator returned for tuples with different invariants"
    if P is None:
        return "no conjugator for conjugate tuples"
    P = tuple(norm(x) for x in P)
    if not F.det(P) or any(F.conj(P, a) != b for a, b in zip(gens, req.other)):
        return "conjugator does not verify"
    return None
