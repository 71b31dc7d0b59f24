"""The workloads: one client, closed loop, each op checked.

A workload runs whole blocks (a census pass, or one block of the request
schedule) until ``seconds`` of wall time have passed, so every run sees
every kind of op in its fixed share.  Only the op itself is timed; input
generation, cache-state set-up and the oracle's checks are not.  The CLI
children of CliBench are run by the traced run of decide_fp only.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import answers
import gen

clock = time.perf_counter
cpu = time.process_time


def children_cpu():
    """CPU seconds used so far by the children this process has waited for."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


CENSUS_KEYS = ((5, 2, "monoid"), (3, 3, "monoid"), (5, 2, "group"), (2, 4, "monoid"))
CENSUS_CALLS = ("stratum", "orbit", "report")
CLI_CENSUS = (((3, 2, "monoid"), "--report"), ((5, 2, "group"), "--orbits"))
CACHE_STATES = ("read", "write", "bypass")
CLI_DOCS_PER_KIND = 6
CLI_MALFORMED = 2
# Requests that must fail validation: exit 1 with one diagnostic line.
MALFORMED = (
    '{"field": {"p": 5}, "mode": "monoid", "generators": [[[1, 0], [0, 1]]]',
    '{"field": {"p": 4}, "mode": "monoid", "generators": [[[1, 0], [0, 1]]]}',
    '{"field": {"p": 5}, "mode": "group", "generators": [[[1, 2], [2, 4]]]}',
    '{"field": {"p": 5}, "mode": "monoid", "generators": [[[1, 0, 0], [0, 1]]]}',
    '{"field": "Q", "mode": "monoid", "generators": [[[true, 0], [0, 1]]]}',
    '{"field": {"p": 7}, "generators": [[[1, 0], [0, 1]]]}',
    '{"field": {"p": 7}, "mode": "monoid", "generators": [[[1, 0], [0, 1]]], "words": ["1,9"]}',
)


def space_size(q, m, mode):
    if mode == "group":
        return ((q * q - 1) * (q * q - q)) ** m
    return q ** (4 * m)


def unipotent_orbits(q, m, mode):
    """Orbit count of the unipotent stratum for odd q (a projective
    (m-1)-space bundle over the character space)."""
    chars = (q - 1) ** m if mode == "group" else q**m
    return chars * (q**m - 1) // (q - 1)


@dataclass
class Stats:
    """What one run measured.  An op's latency is the wall time it took;
    its CPU time (of this process, or of the child for a CLI request) is
    kept beside it."""

    latencies: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    names: list = field(default_factory=list)
    tuples: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, seconds, cpu_s, tuples, error, name=None):
        self.attempted += 1
        self.latencies.append(seconds)
        self.cpus.append(cpu_s)
        self.names.append(name)
        if error is None:
            self.tuples += tuples
        else:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


def _guard(fn, *args):
    """(result, None), or (None, description) when the call raises."""
    try:
        return fn(*args), None
    except Exception as exc:  # any exception is a failed op
        return None, f"{type(exc).__name__}: {exc}"


# --- census ----------------------------------------------------------------


def census_setup(census):
    for q in sorted({k[0] for k in CENSUS_KEYS}):
        census.field_tables(q).pgl_perms()


def census_op(census, key, call):
    k = census.CensusKey(*key)
    if call == "stratum":
        return census.stratum_census(k, use_cache=False)
    if call == "orbit":
        return census.orbit_census(k, use_cache=False)
    return census.consistency_report(k, use_cache=False)


def check_counts(golden, key, points, orbits):
    q, m, mode = key
    want = golden[f"{q},{m},{mode}"]
    if sum(points.values()) != space_size(q, m, mode):
        return f"census {key}: points do not sum to the space size"
    if points != want["points"]:
        return f"census {key}: points differ from the golden counts"
    if orbits is not None:
        if orbits != want["orbits"]:
            return f"census {key}: orbits differ from the golden counts"
        if q % 2 and orbits["unipotent"] != unipotent_orbits(q, m, mode):
            return f"census {key}: unipotent orbit count breaks the formula"
    return None


def check_census(golden, key, call, result):
    if call == "report":
        return None if result.passed else f"census {key}: consistency report failed"
    if result.total != space_size(*key):
        return f"census {key}: total {result.total} is not the space size"
    return check_counts(golden, key, result.points_by_value(), result.orbits_by_value())


def census_pass():
    return [(key, call) for key in CENSUS_KEYS for call in CENSUS_CALLS]


def run_census(ctx, stats: Stats, ops, tracer=None):
    census = ctx.census
    for key, call in ops:
        if tracer is not None:
            tracer.op += 1
        t0, c0 = clock(), cpu()
        result, err = _guard(census_op, census, key, call)
        wall, dt = clock() - t0, cpu() - c0
        if err is None:
            err = check_census(ctx.golden, key, call, result)
        stats.record(wall, dt, space_size(*key), err, (key, call))


# --- decision requests -------------------------------------------------------


def run_decide(ctx, stats: Stats, requests, tracer=None):
    lib = ctx.library
    for req in requests:
        if tracer is not None:
            tracer.op += 1
        t0, c0 = clock(), cpu()
        out, err = _guard(answers.run_request, lib, req)
        wall, dt = clock() - t0, cpu() - c0
        if err is None:
            ans, err = _guard(answers.lib_answer, req, out)
        if err is None:
            err = answers.check(req, ans)
        stats.record(wall, dt, 2 if req.other is not None else 1, err)


# --- CLI processes ---------------------------------------------------------------


@dataclass
class CliRequest:
    argv: list
    kind: str                 # doc, malformed or census
    req: object = None        # gen.Request of a doc request
    key: tuple = None         # census key
    state: str = None         # census cache state
    expected: str = None      # stdout the report must equal byte for byte
    tuples: int = 0


class CliBench:
    """Sequential `python -m moldkit.cli` children sharing a private cache."""

    def __init__(self, ctx, seed):
        self.ctx = ctx
        self.gen = gen.Generator(seed, gen.FP_FIELDS)
        self.docs = ctx.tmp / "docs"
        self.docs.mkdir(parents=True, exist_ok=True)
        self.cache = Path(ctx.env["MOLDKIT_CACHE"])
        self.cache.mkdir(parents=True, exist_ok=True)
        self.ndocs = 0
        self.expected = {}
        from moldkit.cli import run_command
        self.run_command = run_command
        self.warm = self._warm_cache()

    def _doc(self, req, gens=None):
        self.ndocs += 1
        path = self.docs / f"doc{self.ndocs}.json"
        path.write_text(json.dumps(gen.document(req, gens)))
        return str(path)

    def _expect(self, argv):
        """The in-process report for argv, which the child must reproduce."""
        key = tuple(a for a in argv if a != "--no-cache")
        if key not in self.expected:
            code, text = self.run_command(list(key) + ["--no-cache"] * (key[0] == "census"))
            if code != 0:
                raise RuntimeError(f"in-process reference run failed: {argv}")
            self.expected[key] = text
        return self.expected[key]

    def _warm_cache(self):
        """Cache files of every census request, made once, restored before reads."""
        for (q, m, mode), flag in CLI_CENSUS:
            self.spawn(["census", "--q", str(q), "--m", str(m), "--mode", mode, flag])
        return {p.name: p.read_bytes() for p in self.cache.iterdir()}

    def block(self):
        g = self.gen
        out = []
        for kind in gen.KINDS:
            for _ in range(CLI_DOCS_PER_KIND):
                req = g.request(*g.rng.choice([c for c in g.combos if c[4] == kind]))
                if req.other is None:
                    argv = [kind, self._doc(req)]
                else:
                    argv = ["equiv", self._doc(req), self._doc(req, req.other)]
                out.append(CliRequest(argv, "doc", req=req, expected=self._expect(argv),
                                      tuples=1 if req.other is None else 2))
        for _ in range(CLI_MALFORMED):
            path = self.docs / f"bad{self.ndocs}.json"
            self.ndocs += 1
            path.write_text(g.rng.choice(MALFORMED))
            out.append(CliRequest([g.rng.choice(("classify", "invariants")), str(path)],
                                  "malformed", expected=""))
        for key, flag in CLI_CENSUS:
            q, m, mode = key
            argv = ["census", "--q", str(q), "--m", str(m), "--mode", mode, flag]
            for state in CACHE_STATES:
                out.append(CliRequest(argv + ["--no-cache"] * (state == "bypass"), "census",
                                      key=key, state=state, expected=self._expect(argv),
                                      tuples=space_size(*key)))
        g.rng.shuffle(out)
        return out

    def _set_cache(self, state):
        if state == "write":
            for p in self.cache.iterdir():
                p.unlink()
        elif state == "read":
            for name, data in self.warm.items():
                p = self.cache / name
                if not p.exists() or p.read_bytes() != data:
                    p.write_bytes(data)

    def spawn(self, argv, trace_out=None):
        """Run one child; returns (wall seconds, CPU seconds, exit code,
        stdout, stderr)."""
        if trace_out is None:
            cmd = [sys.executable, "-m", "moldkit.cli", *argv]
            env = self.ctx.env
        else:
            cmd = [sys.executable, str(self.ctx.bench / "child.py"), *argv]
            env = dict(self.ctx.env, PERFBENCH_TRACE_OUT=str(trace_out))
        t0, c0 = clock(), children_cpu()
        proc = subprocess.run(cmd, env=env, cwd=self.ctx.tmp, capture_output=True, timeout=120)
        return (clock() - t0, children_cpu() - c0, proc.returncode, proc.stdout.decode(),
                proc.stderr.decode())

    def check(self, r: CliRequest, code, out, err):
        if r.kind == "malformed":
            lines = err.splitlines()
            if code != 1 or out or len(lines) != 1 or not lines[0].startswith("error: "):
                return f"malformed request: exit {code}, {len(lines)} stderr lines"
            return None
        if code != 0:
            return f"{r.argv[0]}: exit {code}: {err.strip()[:200]}"
        if out != r.expected:
            return f"{r.argv[0]}: stdout is not byte-identical to the reference report"
        report = json.loads(out)
        if r.kind == "census":
            if "report" in report and not report["report"]["passed"]:
                return f"census {r.key}: consistency report failed"
            return check_counts(self.ctx.golden, r.key, report["points"], report.get("orbits"))
        return answers.check(r.req, answers.cli_answer(r.req, report))

    def run(self, stats: Stats, requests, trace_dir=None):
        summaries = []
        for i, r in enumerate(requests):
            self._set_cache(r.state)
            trace_out = None if trace_dir is None else trace_dir / f"child{i}.json"
            wall, dt, code, out, err = self.spawn(r.argv, trace_out)
            error = self.check(r, code, out, err)
            if trace_out is not None:
                if trace_out.exists():
                    summary = json.loads(trace_out.read_text())
                    summary["stdout_bytes"] = len(out.encode())
                    summary["census_tuples"] = r.tuples if r.kind == "census" else 0
                    summaries.append(summary)
                elif error is None:
                    error = "traced child wrote no trace"
            stats.record(wall, dt, r.tuples, error)
        return summaries


def interpreter_sample(ctx, code):
    """(wall seconds, CPU seconds) of one run of a `python -c code` child."""
    t0, c0 = clock(), children_cpu()
    subprocess.run([sys.executable, "-c", code], env=ctx.env, cwd=ctx.tmp, check=True,
                   capture_output=True, timeout=120)
    return clock() - t0, children_cpu() - c0
