"""One workload's measuring process.

Started by run.py in a fresh interpreter, with the thread variables and
`PYTHONPATH` already set. It imports `qcsim.cli` and calls `main(argv)`
for each invocation of the plan, in order, in one closed loop: each call
starts when the previous one returns. One pass is one round over all
invocations; passes repeat until the plan's seconds are up (at least two,
and the first counts as warm-up). Each pass's outputs must be
byte-identical to the first pass's.

After each untraced pass, one fresh interpreter times `import qcsim.cli`
(`setup_s`). Spreading these samples over the run, rather than taking them
back to back, lets them see the same host as the passes: on a shared host
the CPU speed shifts by a third within seconds.

With tracing on, one more pass runs under the span recorder. Peak RSS is
read only when tracing is off, so spans do not inflate it.

    python3 perfbench/worker.py PLAN.json
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import spans

# Stop starting passes after this long, whatever the plan asks, so the
# whole run stays inside its time limit.
PASS_LOOP_LIMIT_S = 120.0


def _digest(path: str):
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    except OSError:
        return None
    return h.hexdigest()


# The import alone: interpreter start-up and teardown are not qcsim's.
_SETUP_PROBE = (
    "import time; t = time.perf_counter(); import qcsim.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _setup_probe() -> float:
    """Seconds a fresh interpreter takes to import qcsim.cli."""
    out = subprocess.run([sys.executable, "-c", _SETUP_PROBE], check=True, timeout=60,
                         capture_output=True, text=True)
    return float(out.stdout)


def _blas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


class Loop:
    def __init__(self, cli, invocations):
        self.cli = cli
        self.invocations = invocations
        self.first_digests = None
        self.passes_ok = []  # per pass, per invocation: exit 0 and same bytes
        self.failures = []

    def run_pass(self) -> float:
        gc.collect()
        codes = []
        start = time.perf_counter()
        for inv in self.invocations:
            # Look up cli.main per call so the span recorder sees it.
            codes.append(self.cli.main(inv["argv"]))
        wall = time.perf_counter() - start
        digests = [_digest(inv["out"]) for inv in self.invocations]
        first = self.first_digests or digests
        ok = []
        for inv, code, digest, want in zip(self.invocations, codes, digests, first):
            ok.append(code == 0 and digest == want)
            if code != 0:
                self.failures.append(f"qcsim {' '.join(inv['argv'])}: exit code {code}")
            elif digest != want:
                self.failures.append(f"{inv['out']}: output changed between passes")
        self.first_digests = first
        self.passes_ok.append(ok)
        return wall


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    os.chdir(plan["workdir"])
    import numpy
    import qcsim.cli as cli

    loop = Loop(cli, plan["invocations"])
    passes, setup = [], []
    if not plan["trace"]:
        _setup_probe()  # warm-up
    start = time.perf_counter()
    while True:
        passes.append(loop.run_pass())
        if not plan["trace"]:
            setup.append(_setup_probe())
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and (elapsed >= plan["seconds"] or elapsed >= PASS_LOOP_LIMIT_S):
            break
    untraced = statistics.median(passes[1:])
    result = {
        "pass_s": passes,
        "setup_s": setup,
        "qcsim_file": cli.__file__,
        "numpy": numpy.__version__,
        "blas": _blas(),
    }
    if plan["trace"]:
        rec = spans.SpanRecorder()
        spans.install(rec)
        try:
            traced = loop.run_pass()
        finally:
            rec.restore()
        metrics = spans.layer_metrics(rec)
        metrics["cli.output_bytes"] = sum(
            os.path.getsize(inv["out"]) for inv in plan["invocations"]
            if os.path.exists(inv["out"]))
        metrics["trace.overhead_s"] = traced - untraced
        result.update(layer_metrics=metrics, traced_pass_s=traced, missing_spans=rec.missing)
        rec.write_jsonl(plan["spans_path"])
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Inputs for the checks, made after the passes and not timed.
    aux_failures = [f"qcsim {' '.join(inv['argv'])}: exit code != 0"
                    for inv in plan["aux"] if cli.main(inv["argv"]) != 0]
    result.update(passes_ok=loop.passes_ok, failures=loop.failures, aux_failures=aux_failures)
    with open(plan["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
