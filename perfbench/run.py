"""Layered benchmark of moldkit.

    python3 perfbench/run.py --workload census|decide_fp|decide_q|all
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

`--workload all` runs the three workloads one after another, each in a
fresh process.

Run from anywhere; the package is imported from the checkout's src/.
Each workload is one client in a closed loop: one op at a time in this
process.  Latencies and set-up times are wall time (perf_counter); CPU
time is printed beside them as a note.  Every op's output is checked by
an oracle that shares no code with moldkit.  The last line of stdout is
one JSON object: with --trace 0 it holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate run with tracing wrappers
installed on every layer module.  The exit code is 0 only when every
check passed.

The traced run of decide_fp also runs one block of sequential
`python -m moldkit.cli` children over a private census cache, which gives
the cli layer and the census cache their numbers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import answers
import gen
import selftest
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("census", "decide_fp", "decide_q")
# Fixed per workload.  In decide_* the heaviest request kinds (group mode at
# rank 4) fill about 1% of a block: p99.5 lies inside them, where p99 would
# sit on the edge between kinds and jump from run to run, and a 25 s run
# leaves more than 20 samples beyond it.  A census run is three
# passes of 12 calls, too few samples for a percentile tail: its tail is the
# slowest call (see end_to_end).
TAIL_PERCENTILE = {"census": None, "decide_fp": 99.5, "decide_q": 99.5}
# A census call's time is its median over the passes, which rejects one slow
# pass only when there are three.  A decide_* block lasts about a second.
MIN_BLOCKS = 3
# Set-up is sampled SETUP_FIRST times before the first op and then once
# every SETUP_EVERY seconds of ops, so that its median spans the whole run.
SETUP_FIRST = 3
SETUP_EVERY = 1.0
INTERPRETER_RUNS = 9
TRACE_DECIDE_BLOCKS = 2
IMPORT = "import moldkit"
IMPORT_CENSUS = ("import moldkit\nfrom moldkit import census\n"
                 f"for q in {tuple(sorted({k[0] for k in wl.CENSUS_KEYS}))}:\n"
                 "    census.field_tables(q).pgl_perms()")

FIELDS = {"decide_fp": gen.FP_FIELDS, "decide_q": gen.Q_FIELDS}


class Context:
    def __init__(self, tmp: Path, golden: dict):
        self.bench = BENCH
        self.tmp = tmp
        self.golden = golden
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.census = None
        self.library = None


def percentile(sorted_values, pct):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(workload, stats, setup_s, rss_kb):
    lat = sorted(stats.latencies)
    ok = stats.attempted - stats.failed
    pct = TAIL_PERCENTILE[workload]
    if pct is None:
        # A census run repeats one pass of calls: each call's time is its
        # median over the passes, which a burst of load in one pass does not
        # move, and the metrics are those of one pass at these times.
        calls = defaultdict(list)
        for name, seconds in zip(stats.names, stats.latencies):
            calls[name].append(seconds)
        passes = len(lat) // len(calls)
        times = [statistics.median(v) for v in calls.values()]
        busy = sum(times) * passes
        p50, tail = statistics.median(times), max(times)
        tail_note = (f"op_p50_ms and op_tail_ms are the median and the largest of the "
                     f"{len(times)} calls' median times over {passes} passes")
    else:
        busy = sum(lat)
        p50 = percentile(lat, 50)[0]
        tail, beyond = percentile(lat, pct)
        tail_note = f"op_tail_ms is p{pct} with {beyond} of {len(lat)} samples beyond it"
    metrics = {
        "throughput_ops_per_s": (ok / busy, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "tuples_per_s": (stats.tuples / busy, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    cpus = sorted(stats.cpus)
    notes = [f"ops={stats.attempted} busy_wall_s={sum(lat):.3f} busy_cpu_s={sum(cpus):.3f} "
             f"cpu_p50_ms={percentile(cpus, 50)[0] * 1e3:.4g}",
             "latency_ms " + " ".join(f"p{p}={percentile(lat, p)[0] * 1e3:.4g}"
                                      for p in (90, 95, 98, 99, 99.5)),
             tail_note,
             f"fail_ratio = {stats.failed / stats.attempted:.6g} (failed {stats.failed} "
             f"of {stats.attempted})"]
    return metrics, notes


def setup_note(samples):
    walls = sorted(w for w, _ in samples)
    cpus = sorted(c for _, c in samples)
    return (f"setup_s is the median wall time of {len(samples)} fresh interpreters "
            f"(min {walls[0]:.4g}, max {walls[-1]:.4g}; CPU median {cpus[len(cpus) // 2]:.4g} s)")


# --- untraced runs -------------------------------------------------------------


def _runner(workload, ctx, seed, errors):
    """(next_block, run_block) of a workload, after its in-process set-up."""
    if workload == "census":
        import moldkit.census
        ctx.census = moldkit.census
        wl.census_setup(ctx.census)
        return wl.census_pass, lambda stats, ops: wl.run_census(ctx, stats, ops)
    fields = FIELDS[workload]
    ctx.library = answers.Library()
    errors += selftest.determinism_errors(seed, fields)
    return gen.Generator(seed, fields).block, lambda stats, reqs: wl.run_decide(ctx, stats, reqs)


def measure(workload, ctx, seed, seconds):
    """Whole blocks, at least MIN_BLOCKS, until `seconds` of wall time spent
    on ops have passed.  Set-up is sampled before the first op and then
    between ops all through the run; the time those samples take does not
    count against `seconds`."""
    stats = wl.Stats()
    errors = selftest.oracle_errors()
    code = IMPORT_CENSUS if workload == "census" else IMPORT
    setup = [wl.interpreter_sample(ctx, code) for _ in range(SETUP_FIRST)]
    next_block, run_block = _runner(workload, ctx, seed, errors)
    block = next_block()
    if workload != "census":
        errors += selftest.coverage_errors(block, FIELDS[workload])
    clock = time.perf_counter
    t_end = clock() + seconds
    next_setup = clock() + SETUP_EVERY
    for blocks in itertools.count(1):
        for op in block:
            run_block(stats, [op])
            if clock() >= next_setup:
                t0 = clock()
                setup.append(wl.interpreter_sample(ctx, code))
                t_end += clock() - t0
                next_setup = clock() + SETUP_EVERY
        if clock() >= t_end and blocks >= MIN_BLOCKS:
            break
        block = next_block()
    setup_s = statistics.median(w for w, _ in setup)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics, notes = end_to_end(workload, stats, setup_s, rss)
    return stats, errors, (metrics, notes + [setup_note(setup)])


# --- traced runs ---------------------------------------------------------------


def _merge(summaries):
    total = {"counts": {}, "total_s": {}, "self_s": {}, "chart_ops": 0, "spans": 0,
             "import_s": 0.0, "stdout_bytes": 0, "census_tuples": 0}
    for s in summaries:
        for part in ("counts", "total_s", "self_s"):
            for k, v in s[part].items():
                total[part][k] = total[part].get(k, 0) + v
        for k in ("chart_ops", "spans", "import_s", "stdout_bytes", "census_tuples"):
            total[k] += s.get(k, 0)
    return total


def layer_metrics(s, ops, census_tuples, interpreter_s, overhead):
    c = s["counts"]
    tot = s["total_s"].get
    slf = s["self_s"].get
    n = c.get

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "fields.elem_ops": (n("fields.elem_ops", 0), "count"),
        "fields.elem_ops_per_op": (ratio(n("fields.elem_ops", 0), ops), "count/op"),
        "fields.inv_calls": (n("fields.inv_calls", 0), "count"),
        "mat2.mul_calls": (n("mat2.mul_calls", 0), "count"),
        "mat2.inverse_calls": (n("mat2.inverse_calls", 0), "count"),
        "mat2.companion_normalize_calls": (n("mat2.companion_normalize_calls", 0), "count"),
        "linalg.rref_calls": (n("linalg.rref_calls", 0), "count"),
        "linalg.rref_rows_in": (n("linalg.rref_rows_in", 0), "count"),
        "linalg.self_s": (slf("linalg", 0.0), "s"),
        "words.evaluate_calls": (n("words.evaluate_calls", 0), "count"),
        "words.letters_evaluated": (n("words.letters_evaluated", 0), "count"),
        "invariants.invariant_vector_calls": (n("invariants.invariant_vector_calls", 0), "count"),
        "invariants.traces_emitted": (n("invariants.traces_emitted", 0), "count"),
        "invariants.self_s": (slf("invariants", 0.0), "s"),
        "invariants.delta2_calls": (n("invariants.delta2_calls", 0), "count"),
        "invariants.tau3_calls": (n("invariants.tau3_calls", 0), "count"),
        "mold.classify_calls": (n("mold.classify_calls", 0), "count"),
        "mold.classify_calls_per_op": (ratio(n("mold.classify_calls", 0), ops), "count/op"),
        "mold.span_closure_calls": (n("mold.span_closure_calls", 0), "count"),
        "mold.self_s": (slf("mold", 0.0), "s"),
        "canon.general_conjugator_s": (tot("canon.general_conjugator", 0.0), "s"),
        "canon.ss_conjugator_s": (tot("canon.ss_conjugator", 0.0), "s"),
        "canon.intertwiner_dim_mean": (ratio(n("canon.intertwiner_dim_sum", 0),
                                             n("canon.intertwiner_basis_calls", 0)), "count"),
        "canon.abchart_eval_calls": (n("canon.abchart_eval_calls", 0), "count"),
        "canon.abchart_evals_per_request": (ratio(n("canon.abchart_eval_calls", 0),
                                                  s["chart_ops"]), "count/op"),
        "census.classify_packed_calls": (n("census.classify_packed_calls", 0), "count"),
        "census.classify_packed_per_tuple": (ratio(n("census.classify_packed_calls", 0),
                                                   census_tuples), "count/tuple"),
        "census.stratum_s": (tot("census.stratum_census", 0.0), "s"),
        "census.orbit_s": (tot("census.orbit_census", 0.0), "s"),
        "census.report_s": (tot("census.consistency_report", 0.0), "s"),
        "census.orbit_census_calls": (n("census.orbit_census_calls", 0), "count"),
        "census.field_tables_s": (tot("census.field_tables", 0.0) + tot("census.pgl_perms", 0.0),
                                  "s"),
        "census.cache_reads": (n("census.cache_reads", 0), "count"),
        "census.cache_writes": (n("census.cache_writes", 0), "count"),
        "census.cache_misses": (n("census.cache_misses", 0), "count"),
        "cli.interpreter_s": (interpreter_s, "s"),
        "cli.import_s": (s["import_s"], "s"),
        "cli.build_parser_s": (tot("cli.build_parser", 0.0), "s"),
        "cli.parse_document_s": (tot("cli.parse_rep_document", 0.0), "s"),
        "cli.handler_s": (tot("cli.handler", 0.0), "s"),
        "cli.stdout_bytes": (s["stdout_bytes"], "B"),
        "trace_overhead_ratio": (overhead, "ratio"),
    }


def traced(workload, ctx, seed):
    """A fixed amount of work, traced and then untraced, so that every count
    repeats exactly for a seed.  decide_fp also runs one block of CLI
    children, which gives the cli layer and the census cache its numbers."""
    errors = selftest.oracle_errors()
    stats, plain = wl.Stats(), wl.Stats()
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        if workload == "census":
            import moldkit.census
            ctx.census = moldkit.census
            wl.census_setup(ctx.census)
            ops = wl.census_pass()
            wl.run_census(ctx, stats, ops, tracer)
        else:
            ctx.library = answers.Library()
            g = gen.Generator(seed, FIELDS[workload])
            ops = [r for _ in range(TRACE_DECIDE_BLOCKS) for r in g.block()]
            wl.run_decide(ctx, stats, ops, tracer)
    finally:
        tracer.uninstall()
    if workload == "census":
        wl.run_census(ctx, plain, ops)
    else:
        wl.run_decide(ctx, plain, ops)
    census_tuples = stats.tuples if workload == "census" else 0
    metrics = layer_metrics(_merge([tracer.summary()]), stats.attempted, census_tuples, 0.0,
                            sum(stats.latencies) / sum(plain.latencies))
    if workload == "decide_fp":
        bench = wl.CliBench(ctx, seed)
        block = bench.block()
        interpreter = [wl.interpreter_sample(ctx, "pass")[0] for _ in range(INTERPRETER_RUNS)]
        cli_stats, cli_plain = wl.Stats(), wl.Stats()
        bench.run(cli_plain, block)
        trace_dir = ctx.tmp / "trace"
        trace_dir.mkdir()
        cli = _merge(bench.run(cli_stats, block, trace_dir))
        cli_metrics = layer_metrics(cli, cli_stats.attempted, cli["census_tuples"],
                                    statistics.median(interpreter), 0.0)
        for name, value in cli_metrics.items():
            if name.startswith(("cli.", "census.")):
                metrics[name] = value
        stats.attempted += cli_stats.attempted
        stats.failed += cli_stats.failed + cli_plain.failed
        stats.errors += cli_stats.errors + cli_plain.errors
    stats.failed += plain.failed
    stats.errors += plain.errors
    idle = [name for name, (value, _) in metrics.items() if value == 0]
    notes = [f"traced ops={stats.attempted}",
             "layers that do no work on this workload read 0: " + (", ".join(idle) or "none")]
    return stats, errors, (metrics, notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "moldkit" / "__init__.py").is_file():
        print(f"error: no moldkit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ref = json.loads((BENCH / "reference.json").read_text())
    if args.selftest:
        return selftest_main(ref)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        code = 0
        for workload in WORKLOADS:
            argv = [sys.executable, __file__, "--workload", workload, "--seconds",
                    str(args.seconds), "--trace", str(args.trace)]
            argv += [] if args.seed is None else ["--seed", str(args.seed)]
            sys.stdout.flush()
            code = subprocess.run(argv).returncode or code
        return code
    seed = ref["default_seed"] if args.seed is None else args.seed
    tmp = ROOT / ".perfbench-tmp" / f"run{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    # Neither this process nor its children touch the working directory's cache.
    os.environ["MOLDKIT_CACHE"] = str(tmp / "cache")
    ctx = Context(tmp, ref["census_golden"])
    try:
        if args.trace:
            stats, errors, (metrics, notes) = traced(args.workload, ctx, seed)
        else:
            stats, errors, (metrics, notes) = measure(args.workload, ctx, seed, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(f"workload={args.workload} seed={seed} trace={args.trace}")
    for line in notes + [f"check failed: {e}" for e in errors + stats.errors]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {"correct": not errors and stats.failed == 0, "attempted": stats.attempted,
              "failed": stats.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def selftest_main(ref) -> int:
    errors = selftest.oracle_errors()
    for fields in FIELDS.values():
        block = gen.Generator(ref["default_seed"], fields).block()
        errors += selftest.coverage_errors(block, fields)
        errors += selftest.determinism_errors(ref["default_seed"], fields)
    for e in errors:
        print(f"self-test failed: {e}")
    print("self-test passed" if not errors else "self-test FAILED")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
