import numpy as np
import pytest

from qcsim.bench import (
    FidelityPoint,
    TimingPoint,
    bench_depth_sweep,
    fidelity_csv,
    fidelity_sweep,
    timing_csv,
)
from qcsim.circuit import Circuit, gate_app, random_circuit
from qcsim.engines import RunConfig, run
from qcsim.gates import make_gate
from qcsim.noise import NoiseSpec
from qcsim.state import fidelity


class TestDepthSweep:
    def test_single_point(self):
        points = bench_depth_sweep(2, [5], "simple", repetitions=1, seed=0)
        assert len(points) == 1
        assert points[0].depth == 5
        assert points[0].wall_time_seconds > 0

    def test_paper_configuration_produces_six_points(self):
        points = bench_depth_sweep(3, [5, 10, 15, 20, 25, 30], "simple",
                                   repetitions=1, seed=1)
        assert [p.depth for p in points] == [5, 10, 15, 20, 25, 30]

    def test_same_seed_gives_identical_circuits(self):
        def circuit_fingerprints(seed):
            out = []
            for d in (4, 6):
                c = random_circuit(3, d, seed + d)
                out.append(tuple(
                    (i.gate.name, i.gate.params, i.targets) for i in c.instructions
                ))
            return out

        points = bench_depth_sweep(3, [4, 6], "simple", repetitions=1, seed=9)
        # the sweep derives circuit seeds as seed + depth
        assert [p.seed for p in points] == [13, 15]
        assert circuit_fingerprints(9) == circuit_fingerprints(9)

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            bench_depth_sweep(2, [2], "simple", repetitions=0)


class TestFidelitySweep:
    def test_epsilon_zero_gives_unit_fidelity(self):
        points = fidelity_sweep(3, 4, "dephasing", [0.0], seed=0)
        assert abs(points[0].fidelity - 1.0) < 1e-9

    def test_paper_configuration_point_count(self):
        eps = [0.1 * k for k in range(1, 10)]
        for kind in ("dephasing", "depolarizing", "amplitude_damping"):
            points = fidelity_sweep(3, 6, kind, eps, seed=2)
            assert len(points) == 9
            assert all(0.0 <= p.fidelity <= 1.0 + 1e-9 for p in points)

    def test_single_qubit_closed_form_amplitude_damping(self):
        # X; X with damping: the excited state decays before the second X,
        # so fidelity against the noiseless |0> output is exactly 1 - eps.
        eps = 0.37
        x = make_gate("X")
        noiseless = Circuit(1, 0, [gate_app(x, (0,)), gate_app(x, (0,))])
        noisy = noiseless.with_global_noise(
            NoiseSpec.uniform("amplitude_damping", eps, 1)
        )
        config = RunConfig(representation="density")
        baseline = run(noiseless, config).final_state
        damped = run(noisy, config).final_state
        assert abs(fidelity(baseline, damped) - (1 - eps)) < 1e-9


class TestCsv:
    def test_timing_schema(self):
        text = timing_csv([TimingPoint("mps", 10, 5, 0.1234, 7)])
        lines = text.strip().split("\n")
        assert lines[0] == "engine,num_qubits,depth,seed,wall_time_seconds"
        assert lines[1].startswith("mps,10,5,7,")

    def test_fidelity_schema_lossless(self):
        point = FidelityPoint("dephasing", 0.1, 0.123456789012345678, 5, 15, 3)
        text = fidelity_csv([point])
        lines = text.strip().split("\n")
        assert lines[0] == "noise,epsilon,num_qubits,depth,seed,fidelity"
        fields = lines[1].split(",")
        assert fields[0] == "dephasing"
        assert float(fields[1]) == point.epsilon
        assert float(fields[5]) == point.fidelity  # 17 significant digits
