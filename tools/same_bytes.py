"""Check that the CLI of this checkout writes the same bytes as that of REV.

    python tools/same_bytes.py REV [--atol X]

It exports REV's `src/` with `git archive` into a temporary directory, and
writes the inputs of the benchmark workloads `dense` and `mps-shots` at
seeds 1 and 2 with `perfbench/workloads.py`. Every timed and aux invocation
of the two workloads then runs on both trees, each in a fresh interpreter
with one BLAS thread. So does density-matrix `--shots` on the `simple` and
`depth` engines, because no workload invocation collapses a density matrix:
on the `dense` workload's 7-qubit circuit with every qubit measured at the
end, under each of its noise configs, and on `teleport.qasm` under each
config without overrides (the overrides name instructions of the 7-qubit
circuit, past the end of `teleport.qasm`). So does `run teleport.qasm`
without `--shots` (its report holds measurement records) on every wave
engine and on density `simple` and `depth`. So do 50,000 `--shots` of
`teleport.qasm` on every engine and of `random6.qasm` on `simple` and
`depth`, whose draws take several chunks, and `run random12.qasm`, whose
report holds 12 measurement records, on every engine. So do exports whose
qubits end out of order, which no workload invocation makes: `run` on `depth`,
wave and density, of `unordered.qasm` (a U3 layer, a CX from the last
qubit to qubit 0, then a CX ladder and a U3 layer, so that the one group
holds its qubits in merge order), and `run` on `mps` of `routed.qasm` (a
brickwork circuit, then CX gates between qubits q and n-1-q, whose SWAPs
leave the chain's sites out of qubit order), at each seed, with angles
drawn at that seed. So do one failing invocation of each
subcommand (`FAILING`), with and without `--out`; `run` on each program
of `MALFORMED`, a corpus of malformed QASM with one program per message
of the parser's errors (lex, syntax and semantic), at the first seed only,
as the corpus does not depend on it; and the `--help` text of `qcsim` and
of each subcommand.
For each invocation the exit code, stdout, stderr and the `--out` file
(its bytes, or that it was not written) are compared. Each difference is
printed, then the count; the status is 1 if there is any difference, else 0.

With `--atol X`, a stdout or `--out` file that holds a `run` report with a
final state on both trees is parsed, not byte-compared: the amplitudes or
matrix entries of `final_state` and the `probability` of each measurement
agree if each real and imaginary part differs by at most X, and the
largest difference is printed for each such invocation. The rest of the
report (the state's kind and shape, classical bits, measurement qubits,
bits and outcomes, `layers_executed`) must be equal, and everything else
(exit codes, stderr, `--shots` counts, other output) is byte-compared.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("dense", "mps-shots")
SEEDS = (1, 2)
ENGINES = ("simple", "depth", "mps")
# shots enough that the draws of a span take several chunks (engines._CHUNK)
MANY_SHOTS = 50_000
FIELDS = ("exit code", "stdout", "stderr", "--out file")  # what `outcome` returns
REPORTS = ("stdout", "--out file")  # the fields that can hold a `run` report
# invocations that exit 2, one or more per subcommand: a bad size, depth
# list, epsilon and shot count, noise on the wave representation, MPS with
# a density matrix
FAILING = (
    ["random", "--qubits", "1"],
    ["bench", "--engine", "simple", "--depths", "2,x"],
    ["noise-sweep", "--epsilons", "2"],
    ["run", "teleport.qasm", "--shots", "0"],
    ["run", "random7.qasm", "--noise-config", "global-dephasing.json"],
    ["run", "teleport.qasm", "--engine", "mps", "--repr", "density"],
)
# malformed QASM programs, one per ParseError message, each named by the
# kind of error (lex, syntax, semantic) and its message
_HEADER = "OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\n"
MALFORMED = {
    "semantic-version": "OPENQASM 3.0;\nqreg q[1];\n",
    "semantic-no-qubits": "OPENQASM 2.0;\ncreg c[1];\n",
    "semantic-include": 'OPENQASM 2.0;\ninclude "other.inc";\nqreg q[1];\n',
    "lex-character": _HEADER + "x q[0];\t$ q[1];\n",
    "syntax-expected": _HEADER + "measure q[0] == c[0];\n",
    "syntax-expected-value": _HEADER + "x q[INT];\n",
    "syntax-unexpected": _HEADER + "x q[0]; /* block */\n",
    "syntax-barrier": _HEADER + "barrier q\n",
    "syntax-parameter": _HEADER + "rx(1 +) q[0];\n",
    "syntax-nesting": _HEADER + "rx(" + "-(" * 50 + "-1" + ")" * 50 + ") q[0];\n",
    "semantic-definition": _HEADER + "gate foo a { x a; }\n",
    "semantic-duplicate": _HEADER + "qreg c[1];\n",
    "semantic-register-size": _HEADER + "qreg r[0];\n",
    "semantic-undeclared-quantum": _HEADER + "x c[0];\n",
    "semantic-undeclared-classical": _HEADER + "if (q == 1) x q[0];\n",
    "semantic-index": _HEADER + "measure q[0] -> c[1];\n",
    "semantic-measure-mixed": _HEADER + "measure q -> c[0];\n",
    "semantic-measure-sizes": _HEADER + "measure q -> c;\n",
    "semantic-condition": _HEADER + "if (c == 2) x q[0];\n",
    "semantic-conditioned": _HEADER + "if (c == 1) measure q[0] -> c[0];\n",
    "semantic-conditioned-keyword": _HEADER + "if (c == 1) creg d[1];\n",
    "semantic-gate": _HEADER + "ccx q[0],q[1],q[1];\n",
    "semantic-parameter-count": _HEADER + "u2(1) q[0];\n",
    "semantic-non-finite": _HEADER + "rx(1e999-1e999) q[0];\n",
    "semantic-division": _HEADER + "rx(pi/(1-1)) q[0];\n",
    "semantic-unitary": _HEADER + "if (c == 1) u3(1,1e16,1) q[0];\n",
    "semantic-operand-count": _HEADER + "cx q[0];\n",
    "semantic-broadcast": _HEADER + "qreg r[3];\ncx q,r;\n",
    "semantic-distinct": _HEADER + "cx q[1],q[1];\n",
}
# the widths of the circuits whose exports reorder qubits (`out_of_order`)
UNORDERED_QUBITS, ROUTED_QUBITS = 5, 8
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
    for engine, repr_ in (("simple", "wave"), ("depth", "wave"), ("mps", "wave"),
                          ("simple", "density"), ("depth", "density")):
        argvs.append(["run", "teleport.qasm", "--engine", engine, "--repr", repr_,
                      "--seed", str(seed), "--out", f"teleport-{engine}-{repr_}.json"])
    for name, on in (("teleport", ENGINES), ("random6", ("simple", "depth"))):
        argvs += [["run", f"{name}.qasm", "--engine", engine, "--shots", str(MANY_SHOTS),
                   "--seed", str(seed), "--out", f"{name}-{engine}-many.json"]
                  for engine in on]
    argvs += [["run", "random12.qasm", "--engine", engine, "--seed", str(seed),
               "--out", f"random12-{engine}.json"] for engine in ENGINES]
    argvs += out_of_order(seed, inputs)
    for i, argv in enumerate(FAILING):
        argvs += [argv, [*argv, "--out", f"failing-{i}.out"]]
    for name, source in MALFORMED.items() if seed == SEEDS[0] else ():
        (inputs / f"malformed-{name}.qasm").write_text(source, encoding="utf-8")
        argvs.append(["run", f"malformed-{name}.qasm"])
    return argvs + [["--help"]] + [[command, "--help"] for command in
                                   ("run", "random", "bench", "noise-sweep")]


def out_of_order(seed: int, inputs: Path) -> list:
    """The `run` invocations whose exports reorder qubits; writes their circuits."""
    rng, u3 = random.Random(f"out-of-order/{seed}"), {"u3": 3}
    n = UNORDERED_QUBITS
    ladder = [workloads.Op("cx", (n - 1, 0))] + [workloads.Op("cx", (q, q + 1))
                                                 for q in range(n - 2)]
    unordered = workloads.brickwork(rng, n, 1, u3) + ladder + workloads.brickwork(rng, n, 1, u3)
    n = ROUTED_QUBITS
    routed = workloads.brickwork(rng, n, 5, u3) + [workloads.Op("cx", (q, n - 1 - q))
                                                   for q in range(n // 4)]
    routed += workloads.brickwork(rng, n, 1, u3)
    for name, num_qubits, ops in (("unordered", UNORDERED_QUBITS, unordered),
                                  ("routed", ROUTED_QUBITS, routed)):
        circuit = workloads.Circuit(num_qubits, 0, ops)
        (inputs / f"{name}.qasm").write_text(workloads.to_qasm(circuit), encoding="utf-8")
    return [["run", "unordered.qasm", "--engine", "depth", "--repr", repr_,
             "--out", f"unordered-{repr_}.json"] for repr_ in ("wave", "density")] + [
        ["run", "routed.qasm", "--engine", "mps", "--out", "routed-mps.json"]]


def outcome(src: Path, argv: list, workdir: Path) -> tuple:
    """(exit code, stdout, stderr, bytes of the --out file, or None if
    `argv` names none or none was written)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _RUN, str(src), *argv], cwd=workdir,
                          env=env, capture_output=True)
    out = workdir / argv[argv.index("--out") + 1] if "--out" in argv else None
    return (done.returncode, done.stdout, done.stderr,
            out.read_bytes() if out and out.exists() else None)


def report_deviation(a: bytes | None, b: bytes | None) -> float | None:
    """The largest absolute difference between the final-state entries and
    the measurement probabilities of two `run` reports, or None if either is
    not a `run` report with a final state, or if the rest of them differs."""
    try:
        docs = [json.loads(text) for text in (a, b)]
    except (TypeError, ValueError):  # not written, or not JSON
        return None
    numbers = []
    for doc in docs:
        if not isinstance(doc, dict) or "final_state" not in doc:
            return None
        state = doc["final_state"]
        entries = np.ravel(state.pop("amplitudes" if state["kind"] == "wave" else "matrix"))
        probabilities = [m.pop("probability") for m in doc["measurements"]]
        numbers.append(np.concatenate([entries, probabilities]))
    if docs[0] != docs[1] or numbers[0].shape != numbers[1].shape:
        return None
    return float(np.max(np.abs(numbers[0] - numbers[1]), initial=0.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare against")
    parser.add_argument("--atol", type=float, help="compare the states and probabilities "
                        "of `run` reports within this absolute tolerance")
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
                    deviation = (report_deviation(a, b) if args.atol is not None
                                 and field in REPORTS else None)
                    if deviation is not None:
                        print(f"seed {seed}: qcsim {' '.join(inv)}: {field} deviates by "
                              f"at most {deviation:.3g}", flush=True)
                    if not (a == b if deviation is None else deviation <= args.atol):
                        differences += 1
                        print(f"seed {seed}: qcsim {' '.join(inv)}: {field} differs", flush=True)
        print(f"{runs} invocations on each tree, {differences} differences")
        return 1 if differences else 0
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    raise SystemExit(main())
