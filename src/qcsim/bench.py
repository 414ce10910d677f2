"""Benchmark harness: engine timing sweeps over depth and fidelity-vs-noise
sweeps, with CSV serialization.

The timing sweep generates one random circuit per depth (seeded as
seed + depth so reruns see identical circuits), performs a warm-up run,
then records the median wall time over the requested repetitions. The
fidelity sweep generates a single random circuit, computes its noiseless
density-matrix output, and compares it against the output under a global
noise channel for each strength.
"""

from __future__ import annotations

import io
import statistics
import time
from dataclasses import dataclass

from .circuit import random_circuit
from .engines import DENSITY, SIMPLE, WAVE, RunConfig, run
from .noise import NoiseSpec
from .state import fidelity


@dataclass(frozen=True)
class TimingPoint:
    engine: str
    num_qubits: int
    depth: int
    wall_time_seconds: float
    seed: int


@dataclass(frozen=True)
class FidelityPoint:
    noise_kind: str
    epsilon: float
    fidelity: float
    num_qubits: int
    depth: int
    seed: int


def bench_depth_sweep(
    num_qubits: int, depths, engine: str, repetitions: int = 3, seed: int = 0
):
    """Median wall time of `engine` on one random circuit per depth."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    points = []
    for depth in depths:
        circuit_seed = seed + depth
        circuit = random_circuit(num_qubits, depth, circuit_seed)
        config = RunConfig(representation=WAVE, engine=engine, seed=seed)
        run(circuit, config)  # warm-up
        times = []
        for _ in range(repetitions):
            start = time.perf_counter()
            run(circuit, config)
            times.append(time.perf_counter() - start)
        points.append(
            TimingPoint(engine, num_qubits, depth, statistics.median(times), circuit_seed)
        )
    return points


def fidelity_sweep(
    num_qubits: int, depth: int, noise_kind: str, epsilons, seed: int = 0
):
    """Fidelity of the noisy output against the noiseless output of one circuit."""
    circuit = random_circuit(num_qubits, depth, seed)
    config = RunConfig(representation=DENSITY, engine=SIMPLE, seed=seed)
    baseline = run(circuit, config).final_state
    points = []
    for epsilon in epsilons:
        noisy_circuit = circuit.with_global_noise(
            NoiseSpec.uniform(noise_kind, epsilon, arity=2)
        )
        noisy = run(noisy_circuit, config).final_state
        points.append(
            FidelityPoint(
                noise_kind, float(epsilon), fidelity(baseline, noisy),
                num_qubits, depth, seed,
            )
        )
    return points


def timing_csv(points) -> str:
    out = io.StringIO()
    out.write("engine,num_qubits,depth,seed,wall_time_seconds\n")
    for p in points:
        out.write(
            f"{p.engine},{p.num_qubits},{p.depth},{p.seed},"
            f"{p.wall_time_seconds:.17g}\n"
        )
    return out.getvalue()


def fidelity_csv(points) -> str:
    out = io.StringIO()
    out.write("noise,epsilon,num_qubits,depth,seed,fidelity\n")
    for p in points:
        out.write(
            f"{p.noise_kind},{p.epsilon:.17g},{p.num_qubits},{p.depth},"
            f"{p.seed},{p.fidelity:.17g}\n"
        )
    return out.getvalue()
