"""Traced CLI child: `python perfbench/child.py <moldkit cli arguments>`.

Installs the tracing wrappers, then runs moldkit.cli.main exactly as
`python -m moldkit.cli` would, and writes the trace summary to the file
named by PERFBENCH_TRACE_OUT.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import moldkit.cli  # noqa: E402  (timed import)

import_s = time.perf_counter() - t0

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.op = 1
code = moldkit.cli.main(sys.argv[1:])
sys.stdout.flush()
summary = tracer.summary()
summary["import_s"] = import_s
with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as f:
    json.dump(summary, f)
sys.exit(code)
