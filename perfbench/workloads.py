"""Input generator for the benchmark workloads.

Every circuit and noise config the benchmark feeds to the qcsim CLI is
made here from the workload seed, with Python's own `random` module, so a
change to qcsim's `random_circuit` or to numpy's generators does not change
the inputs. The only input qcsim makes itself is the circuit behind
`qcsim noise-sweep`, which takes qubits, depth and seed, not a file; the
benchmark dumps that circuit with `qcsim random` to check the sweep.

Nothing here imports qcsim. Circuits are plain data (`Circuit`, `Op`)
that `to_qasm` renders as OpenQASM 2.0 for the CLI and that
`reference.py` simulates directly.

Regenerate the inputs of one workload without running anything:

    python3 perfbench/workloads.py --workload dense --seed 1 --dir /tmp/in
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Each workload is two parts run in one pass. A part's inputs come from
# its own generator, seeded by "<part>/<seed>", so they do not depend on
# which workload it sits in.
WORKLOADS = {
    "dense": ("dense-wave", "density-noise"),
    "mps-shots": ("mps-chain", "shots"),
}

# Gate pool for the random single-qubit layers: name -> number of angles.
ONE_Q_POOL = {
    "h": 0, "x": 0, "y": 0, "z": 0, "s": 0, "sdg": 0, "t": 0, "tdg": 0,
    "rx": 1, "ry": 1, "rz": 1, "u3": 3,
}


@dataclass(frozen=True)
class Op:
    """A gate (`name` in QASM spelling) or, with name "measure", a measurement.

    For a measurement, targets is (qubit,) and clbit is the classical bit.
    condition is (clbit, value) for `if (c<clbit> == value)`.
    """

    name: str
    targets: tuple
    params: tuple = ()
    condition: tuple | None = None
    clbit: int | None = None


@dataclass
class Circuit:
    num_qubits: int
    num_clbits: int = 0
    ops: list = field(default_factory=list)


def to_qasm(circuit: Circuit) -> str:
    """OpenQASM 2.0 text; each classical bit k is its own register c<k>."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    lines += [f"creg c{k}[1];" for k in range(circuit.num_clbits)]
    for op in circuit.ops:
        if op.name == "measure":
            lines.append(f"measure q[{op.targets[0]}] -> c{op.clbit}[0];")
            continue
        params = "(" + ",".join(repr(p) for p in op.params) + ")" if op.params else ""
        prefix = f"if (c{op.condition[0]} == {op.condition[1]}) " if op.condition else ""
        targets = ",".join(f"q[{t}]" for t in op.targets)
        lines.append(f"{prefix}{op.name}{params} {targets};")
    return "\n".join(lines) + "\n"


def _angle(rng: random.Random) -> float:
    return rng.uniform(0.0, 2.0 * math.pi)


def _one_q_layer(rng, qubits, pool=None):
    names = list(pool or ONE_Q_POOL)
    ops = []
    for q in qubits:
        name = rng.choice(names)
        ops.append(Op(name, (q,), tuple(_angle(rng) for _ in range(ONE_Q_POOL[name]))))
    return ops


def brickwork(rng, num_qubits, depth, pool=None, blocks=None):
    """`depth` layers alternating random 1q gates and nearest-neighbour CX.

    With `blocks` (a list of qubit lists) the CX layers stay inside each
    block, so the blocks never entangle. The scheduled depth equals `depth`.
    """
    blocks = blocks or [list(range(num_qubits))]
    ops = []
    for layer in range(depth):
        if layer % 2 == 0:
            ops += _one_q_layer(rng, range(num_qubits), pool)
            continue
        shift = (layer // 2) % 2
        for block in blocks:
            for i in range(shift, len(block) - 1, 2):
                ops.append(Op("cx", (block[i], block[i + 1])))
    return ops


def long_range_layers(rng, num_qubits, layers):
    """Generic u3 layers between CX layers whose pairs are far apart.

    The pair patterns are fixed, so SWAP routing and bond growth in the MPS
    engine do not depend on the seed; only the angles do.
    """
    half = num_qubits // 2
    patterns = [
        [(i, i + half) for i in range(half)],
        [(num_qubits - 1 - i, i) for i in range(half)],
    ]
    ops = []
    for layer in range(layers):
        ops += _one_q_layer(rng, range(num_qubits), {"u3": 3})
        ops += [Op("cx", pair) for pair in patterns[layer % 2]]
    ops += _one_q_layer(rng, range(num_qubits), {"u3": 3})
    return ops


def measure_all(circuit: Circuit) -> Circuit:
    ops = list(circuit.ops) + [
        Op("measure", (q,), clbit=q) for q in range(circuit.num_qubits)
    ]
    return Circuit(circuit.num_qubits, circuit.num_qubits, ops)


def teleport(rng) -> Circuit:
    """Teleport u3(a,b,c)|0> from qubit 0 to qubit 2, then undo the u3.

    The undo makes qubit 2 read 0 in every shot; c0 and c1 are uniform.
    """
    a, b, c = _angle(rng), _angle(rng), _angle(rng)
    ops = [
        Op("u3", (0,), (a, b, c)),
        Op("h", (1,)),
        Op("cx", (1, 2)),
        Op("cx", (0, 1)),
        Op("h", (0,)),
        Op("measure", (0,), clbit=0),
        Op("measure", (1,), clbit=1),
        Op("x", (2,), condition=(1, 1)),
        Op("z", (2,), condition=(0, 1)),
        Op("u3", (2,), (-a, -c, -b)),
        Op("measure", (2,), clbit=2),
    ]
    return Circuit(3, 3, ops)


# ---------------------------------------------------------------------------
# workload plans
# ---------------------------------------------------------------------------
#
# A plan lists CLI invocations. Each one names its input circuit, its CLI
# arguments (paths relative to the work directory) and the check that its
# output must pass. Sizes are chosen so one pass takes a few seconds on a
# 2-core host, which leaves several passes per run.


def _inv(argv, out, check):
    return {"argv": argv + ["--out", out], "out": out, "check": check}


def _run(circ, out, engine, repr_="wave", extra=(), check=None):
    return _inv(["run", f"{circ}.qasm", "--engine", engine, "--repr", repr_, *extra],
                out, check)


def _dense_wave(rng, seed):
    circuits = {
        "random10": Circuit(10, 0, brickwork(rng, 10, 12)),
        "blocks12": Circuit(12, 0, brickwork(
            rng, 12, 12, blocks=[[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]])),
    }
    cut = 7
    invocations = [
        _run("random10", "random10-simple.json", "simple",
             check={"kind": "wave", "circuit": "random10"}),
        _run("random10", "random10-depth.json", "depth",
             check={"kind": "wave", "circuit": "random10"}),
        _run("random10", "random10-depth-cut.json", "depth", extra=["--max-depth", str(cut)],
             check={"kind": "wave", "circuit": "random10", "max_depth": cut}),
        _run("blocks12", "blocks12-depth.json", "depth",
             check={"kind": "wave", "circuit": "blocks12"}),
    ]
    return circuits, {}, invocations, []


# qcsim's depolarizing channel is wrong on states of 3 or more qubits (its
# marginal comes back with the other qubits out of order), so every
# depolarizing run on such a state fails its check. One such run is kept,
# on inputs that do not depend on the seed, so it fails in every pass of
# every run: the depolarizing noise sweep of the paper's experiment.
DEPOLARIZING_FAULT = "qcsim.noise._mix_with_maximally_mixed misorders qubits on 3+ qubits"
FIXED_SWEEP_SEED = 0


def _sweep(kind, seed, fault=None):
    # Fidelity need not fall with epsilon: under amplitude damping it rises
    # from 0.2 to 0.5 on about 4% of these circuits, in qcsim and in the
    # reference alike. On this grid it fell on all of 400 circuits tried, so
    # the check that it does not rise can stand.
    qubits, depth, epsilons = 5, 10, [0.05, 0.15, 0.3]
    eps = ",".join(repr(e) for e in epsilons)
    inv = _inv(["noise-sweep", "--noise", kind, "--qubits", str(qubits), "--depth",
                str(depth), "--epsilons", eps, "--seed", str(seed)],
               f"sweep-{kind}.csv",
               {"kind": "sweep", "circuit": f"sweep-{seed}", "noise": kind,
                "epsilons": epsilons})
    if fault:
        inv["known_fault"] = fault
    # The circuit noise-sweep simulates, dumped after the timed passes.
    dump = _inv(["random", "--qubits", str(qubits), "--depth", str(depth),
                 "--seed", str(seed)], f"sweep-{seed}.qasm", None)
    return inv, dump


def _density_noise(rng, seed):
    circuit = Circuit(7, 0, brickwork(rng, 7, 15))
    kinds = ("dephasing", "amplitude_damping")
    configs = {
        f"global-{kind}": {"global": {"kind": kind, "epsilon": rng.uniform(0.02, 0.2)}}
        for kind in kinds
    }
    overrides = []
    for n, index in enumerate(sorted(rng.sample(range(len(circuit.ops)), 6))):
        overrides.append({
            "instruction": index,
            "slot": rng.randrange(len(circuit.ops[index].targets)),
            "kind": kinds[n % 2],
            "epsilon": rng.uniform(0.05, 0.3),
        })
    configs["overrides"] = {"overrides": overrides}
    invocations = [
        _run("random7", f"random7-{name}.json", "depth" if name == "overrides" else "simple",
             "density", extra=["--noise-config", f"{name}.json"],
             check={"kind": "density", "circuit": "random7", "noise": name})
        for name in configs
    ]
    sweeps = [_sweep(kind, seed) for kind in kinds]
    sweeps.append(_sweep("depolarizing", FIXED_SWEEP_SEED, DEPOLARIZING_FAULT))
    invocations += [inv for inv, _ in sweeps]
    aux = list({dump["out"]: dump for _, dump in sweeps}.values())
    return {"random7": circuit}, configs, invocations, aux


def _mps_chain(rng, seed):
    circuits = {
        "deep16": Circuit(16, 0, long_range_layers(rng, 16, 2)),
        "wide17": Circuit(17, 0, brickwork(rng, 17, 5, pool={"u3": 3})),
    }
    invocations = [
        _run(name, f"{name}-mps.json", "mps", check={"kind": "wave", "circuit": name})
        for name in circuits
    ]
    return circuits, {}, invocations, []


def _shots(rng, seed):
    circuits = {
        "teleport": teleport(rng),
        "random6": measure_all(Circuit(6, 0, brickwork(rng, 6, 8))),
        "random12": measure_all(Circuit(12, 0, brickwork(rng, 12, 8, pool={"u3": 3}))),
    }
    cases = [("teleport", e, 300) for e in ("simple", "depth", "mps")]
    cases += [("random6", e, 200) for e in ("simple", "depth")]
    cases += [("random12", "mps", 100)]
    invocations = [
        _run(name, f"{name}-{engine}-shots.json", engine,
             extra=["--shots", str(shots), "--seed", str(seed)],
             check={"kind": "counts", "circuit": name, "shots": shots})
        for name, engine, shots in cases
    ]
    return circuits, {}, invocations, []


_BUILDERS = {
    "dense-wave": _dense_wave,
    "density-noise": _density_noise,
    "mps-chain": _mps_chain,
    "shots": _shots,
}


def build(workload: str, seed: int):
    """(circuits, noise configs, timed invocations, untimed aux invocations)."""
    circuits, configs, invocations, aux = {}, {}, [], []
    for part in WORKLOADS[workload]:
        rng = random.Random(f"{part}/{seed}")
        part_circuits, part_configs, part_invocations, part_aux = _BUILDERS[part](rng, seed)
        circuits.update(part_circuits)
        configs.update(part_configs)
        invocations += part_invocations
        aux += part_aux
    return circuits, configs, invocations, aux


def write_inputs(workload: str, seed: int, directory: Path):
    """Write the workload's QASM files and noise configs; return the plan."""
    circuits, configs, invocations, aux = build(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    for name, circuit in circuits.items():
        (directory / f"{name}.qasm").write_text(to_qasm(circuit), encoding="utf-8")
    for name, doc in configs.items():
        (directory / f"{name}.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return circuits, configs, invocations, aux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)
    _, _, invocations, aux = write_inputs(args.workload, args.seed, args.dir)
    for inv in invocations + aux:
        print("qcsim " + " ".join(inv["argv"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
