"""Self-test of the benchmark's output checks.

For each workload, runs the benchmark with `--perturb`, which corrupts one
value in the first output of each check kind (one amplitude, one
density-matrix entry, one fidelity or one count) after the timed passes,
and confirms that the check of each corrupted output reports a failure and
that the command exits non-zero. Then confirms that
the command refuses to run, without printing a result, in a directory
that holds the benchmark but no qcsim sources.

    python3 perfbench/selftest.py

Takes about a minute; prints one line per case and exits 1 if any fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def perturbed(workload: str) -> bool:
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", "0", "--perturb")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    reported = [line for line in proc.stderr.splitlines() if line.startswith("FAIL")]
    _, _, invocations, _ = workloads.build(workload, 1)
    targets = [inv["out"] for inv in run.perturb_targets(invocations)]
    caught = [t for t in targets if any(f" {t}:" in line for line in reported)]
    ok = proc.returncode != 0 and result.get("correct") is False and caught == targets
    print(f"{'ok' if ok else 'NOT OK'}  {workload}: exit {proc.returncode}, "
          f"correct={result.get('correct')}, caught {caught} of {targets}")
    for line in reported:
        print(f"      {line}")
    return ok


def no_sources() -> bool:
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = _run(tmp, "--workload", "mps-shots", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"{'ok' if ok else 'NOT OK'}  no qcsim sources: exit {proc.returncode}, "
          f"stdout {proc.stdout.strip()[:60]!r}")
    return ok


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    results = [perturbed(w) for w in workloads.WORKLOADS] + [no_sources()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
