"""qcsim benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 50 --trace 0

Run from anywhere inside a qcsim checkout; qcsim is imported from the
checkout's `src/`. The command

1. writes the workload's inputs (QASM files and noise configs) from the
   seed with the benchmark's own generator (`workloads.py`);
2. starts one worker process (`worker.py`) that calls `qcsim.cli.main`
   for every invocation of the workload in a closed loop, pass after pass,
   for `--seconds`; `pass_s` is the median pass, `peak_rss_mb` is the
   worker's `ru_maxrss`, and `setup_s` the median time a fresh interpreter
   takes to `import qcsim.cli`, sampled once after each pass; with
   `--trace 1` the worker adds one traced pass and reports per-layer
   metrics instead;
3. checks every output against the independent reference
   (`reference.py`, `checks.py`), outside the timed passes;
4. prints a host record, each metric with its unit and spread, and as the
   last line one JSON object: correct, attempted, failed, metrics.

It exits 1 if an invocation or check failed, other than one marked as a
known qcsim fault, and 2 without a result if the checkout has no qcsim
sources. `--perturb` corrupts one output of each
check kind before the checks, so the self-test can see them fail.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
WORKER_TIMEOUT_S = 160

END_TO_END = {"pass_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "cli.parse_s": "s", "cli.simulate_s": "s", "cli.serialize_s": "s",
    "cli.output_bytes": "bytes", "circuit.schedule_s": "s", "engines.runs": "count",
    "gates.embed_s": "s", "gates.embed_calls": "count", "gates.embed_bytes": "bytes",
    "state.check_s": "s", "state.states_built": "count", "state.merge_s": "s",
    "state.measure_s": "s", "state.partial_trace_s": "s", "state.fidelity_s": "s",
    "noise.channel_s": "s", "noise.calls": "count", "mps.gate2_s": "s",
    "mps.gate1_s": "s", "mps.measure_s": "s", "mps.densify_s": "s",
    "mps.max_bond": "count", "trace.overhead_s": "s",
}


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _stats(values) -> dict:
    values = list(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def perturb_targets(invocations) -> list:
    """The first invocation of each check kind: what --perturb corrupts."""
    first = {}
    for inv in invocations:
        first.setdefault(inv["check"]["kind"], inv)
    return list(first.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qcsim benchmark (one workload)")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one output before checking (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "qcsim" / "cli.py").is_file():
        print(f"error: no qcsim sources under {SRC}", file=sys.stderr)
        return 2
    # One caller, one BLAS thread: steady numbers on a shared host. Set
    # before numpy is imported here or in any child.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import checks

    workdir = HERE / "out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    circuits, configs, invocations, aux = workloads.write_inputs(
        args.workload, args.seed, workdir)
    env = _child_env()
    plan_path = workdir / "plan.json"
    result_path = workdir / "result.json"
    plan_path.write_text(json.dumps({
        "workdir": str(workdir), "seconds": args.seconds, "trace": bool(args.trace),
        "invocations": invocations, "aux": aux, "result_path": str(result_path),
        "spans_path": str(workdir / "spans.jsonl"),
    }), encoding="utf-8")
    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                       env=env, cwd=workdir, check=True, timeout=WORKER_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["qcsim_file"]).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported qcsim from {result['qcsim_file']}, not {SRC}", file=sys.stderr)
        return 1

    if args.perturb:
        for inv in perturb_targets(invocations):
            checks.perturb(workdir / inv["out"], inv["check"]["kind"])
    # An operation is one invocation in one pass. It fails if it exited
    # non-zero, wrote other bytes than in the first pass, or its output
    # fails its check; every pass writes the same bytes, so one check of
    # the final output speaks for all passes.
    checker = checks.Checker(workdir, circuits, configs)
    check_errors = [checker.check(inv) for inv in invocations]
    failures = result["failures"] + result["aux_failures"] + [
        msg for errors in check_errors for msg in errors]
    failed_ops = [
        i for ok in result["passes_ok"] for i, good in enumerate(ok)
        if not good or check_errors[i]]
    attempted = len(invocations) * len(result["passes_ok"])
    # A known qcsim fault fails in every pass of every run; it is counted
    # in `failed` but does not make the run incorrect.
    correct = not result["aux_failures"] and all(
        "known_fault" in invocations[i] for i in failed_ops)

    passes = result["pass_s"][1:]
    stats = {"pass_s": _stats(passes)}
    if args.trace:
        metrics = {k: {"value": result["layer_metrics"][k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        stats["setup_s"] = _stats(result["setup_s"])
        stats["peak_rss_mb"] = _stats([result["peak_rss_mb"]])
        metrics = {k: {"value": stats[k]["median"], "unit": u} for k, u in END_TO_END.items()}
    host = {
        "nproc": _nproc(), "cpu": _cpu_model(), "python": sys.version.split()[0],
        "numpy": result["numpy"], "blas": result["blas"],
        **{var: os.environ[var] for var in THREAD_VARS},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "stats": stats,
              "missing_spans": result.get("missing_spans", []), "failures": failures}
    (workdir / "record.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    for msg in result["failures"] + result["aux_failures"]:
        print(f"FAIL {msg}", file=sys.stderr)
    for inv, errors in zip(invocations, check_errors):
        label = f"KNOWN FAULT ({inv['known_fault']})" if "known_fault" in inv else "FAIL"
        for msg in errors:
            print(f"{label} {msg}", file=sys.stderr)
    print("host " + json.dumps(host))
    for name, s in stats.items():
        unit = END_TO_END[name]
        print(f"{name:>14} {s['median']:.6g} {unit}  (median of {s['n']}; "
              f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    if args.trace:
        base = stats["pass_s"]["median"]
        print(f"traced pass {result['traced_pass_s']:.6g} s vs untraced pass_s {base:.6g} s")
        for name, m in metrics.items():
            share = f"{100 * m['value'] / base:6.1f}% of pass_s" if m["unit"] == "s" else ""
            print(f"{name:>22} {m['value']:.6g} {m['unit']:<6} {share}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed_ops),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
