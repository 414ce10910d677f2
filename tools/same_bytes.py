"""Check that the CLI of this checkout writes the same bytes as that of REV.

    python tools/same_bytes.py REV

It exports REV's `src/` with `git archive` into a temporary directory, and
writes the inputs of the benchmark workloads `dense` and `mps-shots` at
seeds 1 and 2 with `perfbench/workloads.py`. Every timed and aux invocation
of the two workloads then runs on both trees, each in a fresh interpreter
with one BLAS thread. So does density-matrix `--shots` on the `simple` and
`depth` engines, because no workload invocation collapses a density matrix:
on the `dense` workload's 7-qubit circuit with every qubit measured at the
end, under each of its noise configs, and on `teleport.qasm` under each
config without overrides (the overrides name instructions of the 7-qubit
circuit, past the end of `teleport.qasm`).
For each invocation the exit code, stdout, stderr and the `--out` file are
compared. Each difference is printed, then the count; the status is 1 if
there is any difference, else 0.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

WORKLOADS = ("dense", "mps-shots")
SEEDS = (1, 2)
FIELDS = ("exit code", "stdout", "stderr", "--out file")  # what `outcome` returns
# one fresh interpreter per invocation: qcsim imported from the tree given
# first, then the CLI's main called with the rest of the arguments
_RUN = ("import sys; sys.path.insert(0, sys.argv[1]); from qcsim.cli import main; "
        "sys.exit(main(sys.argv[2:]))")


def export_src(rev: str, dest: Path) -> Path:
    """REV's `src/` under `dest`, from `git archive`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def invocations(seed: int, inputs: Path) -> list:
    """The argument lists to compare at `seed`; writes their inputs to `inputs`."""
    argvs, circuits, configs = [], {}, {}
    for workload in WORKLOADS:
        part_circuits, part_configs, timed, aux = workloads.write_inputs(workload, seed, inputs)
        argvs += [inv["argv"] for inv in timed + aux]
        circuits.update(part_circuits)
        configs.update(part_configs)
    measured = workloads.measure_all(circuits["random7"])
    (inputs / "random7-measured.qasm").write_text(workloads.to_qasm(measured), encoding="utf-8")
    for config, doc in configs.items():
        for name in ["random7-measured"] + ([] if "overrides" in doc else ["teleport"]):
            for engine in ("simple", "depth"):
                argvs.append(["run", f"{name}.qasm", "--repr", "density", "--engine", engine,
                              "--noise-config", f"{config}.json", "--shots", "200",
                              "--seed", str(seed), "--out", f"{name}-{config}-{engine}.json"])
    return argvs


def outcome(src: Path, argv: list, workdir: Path) -> tuple:
    """(exit code, stdout, stderr, bytes of the --out file or None if none
    was written); every compared invocation has an --out file."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _RUN, str(src), *argv], cwd=workdir,
                          env=env, capture_output=True)
    out = workdir / argv[argv.index("--out") + 1]
    return done.returncode, done.stdout, done.stderr, out.read_bytes() if out.exists() else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare against")
    args = parser.parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="same-bytes-"))
    try:
        trees = {"this checkout": ROOT / "src", args.rev: export_src(args.rev, scratch / "rev")}
        differences = runs = 0
        for seed in SEEDS:
            inputs = scratch / f"inputs-{seed}"
            argvs = invocations(seed, inputs)
            workdirs = {name: shutil.copytree(inputs, scratch / f"{i}-{seed}")
                        for i, name in enumerate(trees)}
            for inv in argvs:
                mine, theirs = (outcome(src, inv, workdirs[name]) for name, src in trees.items())
                runs += 1
                for field, a, b in zip(FIELDS, mine, theirs):
                    if a != b:
                        differences += 1
                        print(f"seed {seed}: qcsim {' '.join(inv)}: {field} differs", flush=True)
        print(f"{runs} invocations on each tree, {differences} differences")
        return 1 if differences else 0
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    raise SystemExit(main())
