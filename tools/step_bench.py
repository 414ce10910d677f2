"""Gate steps and simulate time of the dense engines, and the criterion-6 curves.

    OPENBLAS_NUM_THREADS=1 python tools/step_bench.py [--reps 3]

qcsim is imported from the `src/` of the checkout that holds this script,
so the same script measures any commit. For each circuit it prints, on
the `simple` and `depth` engines, the gate steps before fusion (one per
instruction up to the depth cut-off), the steps that the engine's schedule
runs, and the best wall time of `run` over the repetitions. Wave circuits
have 10, 16 and 20 qubits; density circuits have 7 and 9 qubits under
global dephasing 0.02, and 7 qubits under global depolarizing 0.02, whose
channel steps after each gate fold into the 2-qubit steps around them, so
that only 2-qubit steps remain. Then it prints the depth sweep of
acceptance criterion 6 (10 qubits, depths 5 to 30, seed 12, median of 3)
for `simple` and `mps`, with each curve's max/min ratio, and last the
line count and best `parse_qasm` time of the QASM text of 20-qubit random
circuits of depth 50 and 400 (seed 1), and last, for MPS chains of 16
and 20 qubits, unrouted and routed, the best time of the dense export
(`MPSState.to_pure_state`) and its tracemalloc peak per byte of the
exported vector (16 x 2^n). Last, on each engine, the best time of
1,000 `run_shots` of a 12-qubit `random_circuit` of depth 10 (seed 1)
with every qubit measured at the end, and the best time of deriving the
draws of those 1,000 shots alone (`engines._shot_draws`); then the draws
alone of 100,000 shots of 12 measurements and of 3 shots of 1,500, the
best time of 100,000 `run_shots` on each engine of a teleportation
circuit (3 measurements, two conditioned gates) and of a 6-qubit
`random_circuit` of depth 10 (seed 1) measured at the end, and of one
`run` (seed 1) of a 2-qubit circuit with 1,500 measurements, at which
most of its time is the draws. Only `run`, `run_shots` and
`engines._shot_draws` are called, so the section times any commit's
shots the same way. Last, for
random state vectors of 2^16 and 2^17 entries and random density
matrices of 2^7 x 2^7 and 2^9 x 2^9 (seed 1), the best time and the
tracemalloc peak of a `run` report's JSON text joined into one string
(`"".join(cli._report_text(...))`), and the peak of taking the same text
piece by piece without keeping it, as `run` writes it: the joined peak is
about twice the text (the pieces and the string), the streamed one is
what the encoder itself holds. This is the only per-layer view of state
encoding, which perfbench sees only inside `cli.serialize_s`. Last, the
dense kernel alone: the time of one step through the `simple` backend's
`apply` (`engines._backend`), for an RX step on each target bit of
`KERNEL_BITS` of a 20-qubit vector (the best over the repetitions of the
mean of 5 steps), and for a 4 x 4 step on qubits 3 and 6 of a 10-qubit
vector (the best of the mean of 2,000 steps). Only `_backend` and `apply`
are called, so the section times any commit's kernel the same way. Last,
the density export alone: on the `simple` density backend after the steps
of `random_circuit(n, 10, 1)`, at 9 and 10 qubits, the best time of
`export()` and its tracemalloc peak in matrices of 16 x 4^n bytes. Only
`engines._backend`, `engines._schedule`, `apply` and `export` are called,
so the section measures any commit's export the same way. perfbench cannot
show this layer: a 10-qubit density state is about 75 MB of JSON.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qcsim import cli, engines  # noqa: E402
from qcsim.bench import bench_depth_sweep  # noqa: E402
from qcsim.circuit import (Circuit, gate_app, instruction_layers, measure,  # noqa: E402
                           random_circuit)
from qcsim.engines import RunConfig, run, run_shots  # noqa: E402
from qcsim.gates import make_gate  # noqa: E402
from qcsim.mps import MPSState  # noqa: E402
from qcsim.noise import NoiseSpec  # noqa: E402
from qcsim.qasm import emit_qasm, parse_qasm  # noqa: E402

# (qubits, depth, representation, global noise kind); every circuit uses seed 1
CIRCUITS = [(10, 30, "wave", None), (16, 20, "wave", None), (20, 10, "wave", None),
            (7, 15, "density", "dephasing"), (9, 15, "density", "dephasing"),
            (7, 15, "density", "depolarizing")]
CRITERION_6 = {"qubits": 10, "depths": [5, 10, 15, 20, 25, 30], "seed": 12}
PARSE_DEPTHS = (50, 400)  # of 20-qubit random circuits, seed 1
EXPORT_QUBITS = (16, 20)
SHOTS = {"qubits": 12, "depth": 10, "shots": 1000}  # a measure-all circuit, seed 1
MANY_SHOTS = 100_000  # of teleport and of a 6-qubit measure-all circuit
DRAWS = [(100_000, 12), (3, 1500)]  # (shots, measurements)
SERIALIZE = [("wave", 16), ("wave", 17), ("density", 7), ("density", 9)]  # seed 1
KERNEL_BITS = (0, 2, 5, 7, 8, 10, 15, 19)  # RX targets on a 20-qubit vector
DENSITY_EXPORT_QUBITS = (9, 10)  # random_circuit(n, 10, 1) on the simple backend


def best_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def export_chain(qubits: int, routed: bool) -> MPSState:
    """A chain after four layers of random U3 gates, each followed by
    nearest-neighbour CX gates (seed 1). A routed chain then gets a CX
    between qubits q and n-1-q for q < n/4, whose SWAPs leave its sites
    out of qubit order."""
    rng = np.random.default_rng(1)
    chain, cx = MPSState(qubits), make_gate("CX").matrix
    for layer in range(4):
        for q in range(qubits):
            chain.apply_1q(make_gate("U3", rng.uniform(0, 2 * np.pi, 3)).matrix, q)
        for q in range(layer % 2, qubits - 1, 2):
            chain.apply_2q(cx, q, q + 1)
    for q in range(qubits // 4 if routed else 0):
        chain.apply_2q(cx, q, qubits - 1 - q)
    return chain


def measured_all(circuit: Circuit) -> Circuit:
    n = circuit.num_qubits
    return Circuit(n, n, list(circuit.instructions) + [measure(q, q) for q in range(n)])


def shot_circuits() -> dict:
    """Teleportation of RY(0.8)|0> with conditioned corrections, and a
    2-qubit circuit of 750 rounds of RY, CX, two measurements and a
    conditioned X: 1,500 measurements."""
    def g(name, *targets, params=(), condition=None):
        return gate_app(make_gate(name, params), targets, condition=condition)
    teleport = Circuit(3, 3, [g("RY", 0, params=[0.8]), g("H", 1), g("CX", 1, 2), g("CX", 0, 1),
                              g("H", 0), measure(0, 0), measure(1, 1),
                              g("X", 2, condition=(1, 1)), g("Z", 2, condition=(0, 1)),
                              measure(2, 2)])
    long = [g("H", 0)]
    for k in range(750):
        long += [g("RY", 1, params=[0.3 + k / 1000]), g("CX", 0, 1), measure(0, 0),
                 measure(1, 1), g("X", 0, condition=(1, 1))]
    return {"teleport": teleport, "long": Circuit(2, 2, long)}


def step_time(qubits: int, op: np.ndarray, targets, steps: int, reps: int) -> float:
    """The best over `reps` of the mean time of `steps` applications of `op`
    on `targets` through the `simple` backend of a `qubits`-qubit vector."""
    backend = engines._backend(Circuit(qubits), RunConfig())

    def apply_steps():
        for _ in range(steps):
            backend.apply(op, targets)
    return best_time(apply_steps, reps) / steps


def density_backend(qubits: int):
    """The `simple` density backend after the steps of random_circuit(qubits, 10, 1)."""
    circuit, config = random_circuit(qubits, 10, 1), RunConfig(representation="density")
    backend = engines._backend(circuit, config)
    for ins, op in engines._schedule(circuit, config)[0]:
        if op is not None:
            backend.apply(op, ins.targets)
    return backend


def peak(fn) -> int:
    """The tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_state(kind: str, qubits: int) -> np.ndarray:
    """A random normalized state vector, or a random density matrix."""
    rng, dim = np.random.default_rng(1), 1 << qubits
    if kind == "wave":
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return psi / np.linalg.norm(psi)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def report_pieces(kind: str, state: np.ndarray):
    """The pieces of the JSON text of a `run` report that holds the state."""
    key = "amplitudes" if kind == "wave" else "matrix"
    return cli._report_text({"num_qubits": 1, "final_state": {"kind": kind, key: cli._STATE_MARK}},
                            state)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    print("circuit,engine,steps_unfused,steps,best_s")
    for qubits, depth, representation, noise in CIRCUITS:
        circuit = random_circuit(qubits, depth, 1)
        name = f"{representation}-{qubits}q-d{depth}"
        if noise is not None:
            circuit = circuit.with_global_noise(NoiseSpec.uniform(noise, 0.02, 2))
            name += f"-{noise}"
        unfused = len(instruction_layers(circuit))
        for engine in ("simple", "depth"):
            config = RunConfig(representation=representation, engine=engine)
            steps = len(engines._schedule(circuit, config)[0])
            best = best_time(lambda: run(circuit, config), args.reps)
            print(f"{name},{engine},{unfused},{steps},{best:.4f}")
    c6 = CRITERION_6
    print(f"\ncriterion 6: {c6['qubits']} qubits, depths {c6['depths']}, median of 3 (ms)")
    for engine in ("simple", "mps"):
        points = bench_depth_sweep(c6["qubits"], c6["depths"], engine, 3, c6["seed"])
        ms = [p.wall_time_seconds * 1e3 for p in points]
        print(f"{engine}: {', '.join(f'{t:.1f}' for t in ms)}; max/min {max(ms) / min(ms):.1f}")
    print("\nparse: depth,lines,best_s")
    for depth in PARSE_DEPTHS:
        text = emit_qasm(random_circuit(20, depth, 1))
        best = best_time(lambda: parse_qasm(text), args.reps)
        print(f"{depth},{len(text.splitlines())},{best:.4f}")
    print("\nmps export: qubits,chain,max_bond,best_s,peak_per_vector_byte")
    for qubits in EXPORT_QUBITS:
        for routed in (False, True):
            chain = export_chain(qubits, routed)
            best = best_time(chain.to_pure_state, args.reps)
            peak_bytes = peak(chain.to_pure_state) / (16 << qubits)
            label = "routed" if routed else "unrouted"
            print(f"{qubits},{label},{max(chain.bond_dims())},{best:.4f},{peak_bytes:.2f}")
    n, shots = SHOTS["qubits"], SHOTS["shots"]
    circuit = measured_all(random_circuit(n, SHOTS["depth"], 1))
    print(f"\nshots: {shots} shots, {n} qubits measured at the end; engine,best_s")
    for engine in ("simple", "depth", "mps"):
        config = RunConfig(engine=engine, seed=1)
        print(f"{engine},{best_time(lambda: run_shots(circuit, config, shots), args.reps):.4f}")
    best = best_time(lambda: engines._shot_draws(1, range(shots), n), args.reps)
    print(f"seeds only,{best:.4f}")
    print("\ndraws alone: shots,measurements,best_s")
    for shots, measured in DRAWS:
        best = best_time(lambda: engines._shot_draws(1, range(shots), measured), args.reps)
        print(f"{shots},{measured},{best:.4f}")
    circuits = shot_circuits()
    circuits["measured6"] = measured_all(random_circuit(6, 10, 1))
    print(f"\nshots: {MANY_SHOTS} shots; circuit,engine,best_s")
    for name in ("teleport", "measured6"):
        for engine in ("simple", "depth", "mps"):
            config = RunConfig(engine=engine, seed=1)
            best = best_time(lambda: run_shots(circuits[name], config, MANY_SHOTS), args.reps)
            print(f"{name},{engine},{best:.4f}")
    best = best_time(lambda: run(circuits["long"], RunConfig(seed=1)), args.reps)
    print(f"run of 1,500 measurements: best_s\n{best:.4f}")
    print("\nserialize: state,qubits,entries,best_s,joined_peak_mb,streamed_peak_mb")
    for kind, qubits in SERIALIZE:
        state = random_state(kind, qubits)
        best = best_time(lambda: "".join(report_pieces(kind, state)), args.reps)
        joined = peak(lambda: "".join(report_pieces(kind, state))) / 2**20
        streamed = peak(lambda: deque(report_pieces(kind, state), maxlen=0)) / 2**20
        print(f"{kind},{qubits},{state.size},{best:.4f},{joined:.2f},{streamed:.2f}")
    print("\nkernel: one RX step on a 20-qubit vector; target_bit,best_ms")
    rx = make_gate("RX", [0.3]).matrix
    for bit in KERNEL_BITS:
        print(f"{bit},{step_time(20, rx, (bit,), 5, args.reps) * 1e3:.2f}")
    op = np.linalg.qr(np.random.default_rng(1).normal(size=(4, 4)) + 0j)[0]
    best = step_time(10, op, (3, 6), 2000, args.reps)
    print(f"kernel: one 4 x 4 step on qubits 3 and 6 of a 10-qubit vector; best_us\n{best * 1e6:.1f}")
    print("\ndensity export: qubits,best_s,peak_matrices")
    for qubits in DENSITY_EXPORT_QUBITS:
        backend = density_backend(qubits)
        best = best_time(backend.export, args.reps)
        print(f"{qubits},{best:.4f},{peak(backend.export) / (16 << 2 * qubits):.2f}")


if __name__ == "__main__":
    main()
