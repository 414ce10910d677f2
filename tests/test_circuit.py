import hashlib
import re

import numpy as np
import pytest

from qcsim.circuit import (
    Circuit,
    Instruction,
    circuit_from_json,
    circuit_to_json,
    depth,
    gate_app,
    instruction_layers,
    measure,
    random_circuit,
)
from qcsim.gates import make_gate
from qcsim.noise import NoiseChannel, NoiseSpec, amplitude_damping, dephasing
from qcsim.qasm import emit_qasm


def h(q):
    return gate_app(make_gate("H"), (q,))


def cx(a, b):
    return gate_app(make_gate("CX"), (a, b))


class TestDepth:
    def test_empty_circuit(self):
        assert depth(Circuit(2)) == 0

    def test_parallel_layer_then_entangler(self):
        assert depth(Circuit(2, 0, [h(0), h(1), cx(0, 1)])) == 2

    def test_alternating_pattern_matches_hand_scheduler(self):
        # three pairs of (single-qubit layer, entangling layer) on 4 qubits;
        # hand layering gives depth 6
        instructions = []
        for pair in range(3):
            for q in range(4):
                instructions.append(h(q))
            if pair % 2 == 0:
                instructions += [cx(0, 1), cx(2, 3)]
            else:
                instructions += [cx(1, 2)]
        assert depth(Circuit(4, 0, instructions)) == 6

    def test_measure_occupies_a_layer(self):
        c = Circuit(1, 1, [h(0), measure(0, 0)])
        assert depth(c) == 2

    def test_condition_serializes_after_measure(self):
        c = Circuit(
            2, 1,
            [measure(0, 0), gate_app(make_gate("X"), (1,), condition=(0, 1))],
        )
        assert instruction_layers(c) == [1, 2]

    def test_appending_never_decreases_depth(self):
        rng = np.random.default_rng(0)
        c = random_circuit(4, 6, 1)
        d = depth(c)
        for extra in [h(2), cx(1, 2)]:
            c = c.with_instructions(list(c.instructions) + [extra])
            assert depth(c) >= d
            d = depth(c)


class TestRandomCircuit:
    def test_minimal_case(self):
        c = random_circuit(2, 2, 0)
        kinds = [(i.gate.name, i.targets) for i in c.instructions]
        assert len(c.instructions) == 3
        assert c.instructions[0].gate.arity == 1
        assert c.instructions[1].gate.arity == 1
        assert kinds[2][0] == "CX" and kinds[2][1] == (0, 1)

    def test_deterministic_in_seed(self):
        a = random_circuit(5, 10, 42)
        b = random_circuit(5, 10, 42)
        assert len(a.instructions) == len(b.instructions)
        for x, y in zip(a.instructions, b.instructions):
            assert x.gate.name == y.gate.name
            assert x.gate.params == y.gate.params
            assert x.targets == y.targets

    def test_reaches_requested_depth(self):
        for n in range(2, 7):
            for d in range(1, 26):
                assert depth(random_circuit(n, d, 3)) >= d

    def test_two_qubit_layers_alternate_pairings(self):
        c = random_circuit(5, 15, 3)
        layers = instruction_layers(c)
        by_layer = {}
        for ins, layer in zip(c.instructions, layers):
            if ins.gate.arity == 2:
                by_layer.setdefault(layer, []).append(ins.targets)
        starts = [min(t[0] for t in targets) for _, targets in sorted(by_layer.items())]
        assert starts == [0, 1] * (len(starts) // 2) + [0] * (len(starts) % 2)

    def test_entanglers_are_nearest_neighbor(self):
        c = random_circuit(6, 20, 9)
        for ins in c.instructions:
            if ins.gate.arity == 2:
                assert abs(ins.targets[0] - ins.targets[1]) == 1

    @pytest.mark.parametrize("args, digest", [
        ((2, 5, 0), "0054da1fb21cf2a209133082de649e58"),
        ((5, 10, 1), "55eb249f2212b594cde62f6be7b1ba30"),
        ((7, 15, 7), "5c3838d88936a27444f6bf4d787a820d"),
        ((10, 30, 12), "d0827cd54f0d43738584320f589639ce"),
        ((3, 40, 123), "5abca549d2497660607ed34e4a12a085"),
    ])
    def test_emitted_qasm_is_pinned(self, args, digest):
        # sha256 prefixes of the QASM text: the same gates and angles, drawn
        # in the same order, as the generator has always produced
        text = emit_qasm(random_circuit(*args))
        assert hashlib.sha256(text.encode()).hexdigest()[:32] == digest

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            random_circuit(1, 5, 0)
        with pytest.raises(ValueError):
            random_circuit(3, 0, 0)


class TestValidation:
    def test_out_of_range_target(self):
        with pytest.raises(ValueError):
            Circuit(2, 0, [gate_app(make_gate("X"), (2,))])

    def test_out_of_range_clbit(self):
        with pytest.raises(ValueError):
            Circuit(2, 1, [measure(0, 1)])

    def test_duplicate_targets(self):
        with pytest.raises(ValueError):
            gate_app(make_gate("CX"), (1, 1))

    @pytest.mark.parametrize("build, message", [
        (lambda: Instruction("gate"), "gate application needs a gate"),
        (lambda: Instruction("measure", classical_bit=0),
         "measurement needs a qubit and a classical bit"),
        (lambda: gate_app(make_gate("X"), (0,), condition=(0, 2)),
         "condition value must be 0 or 1"),
        (lambda: Circuit(0), "num_qubits must be >= 1"),
        (lambda: Circuit(1, -1), "num_clbits must be >= 0"),
    ])
    def test_invalid_instruction_or_circuit_rejected(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("build", [
        lambda: Circuit(True),
        lambda: Circuit(1, False),
        lambda: gate_app(make_gate("X"), (False,)),
        lambda: gate_app(make_gate("X"), (1,), condition=(True, 1)),
        lambda: gate_app(make_gate("X"), (1,), condition=(0, True)),
        lambda: measure(False, 0),
        lambda: measure(0, True),
    ])
    def test_bool_is_not_an_index(self, build):
        with pytest.raises(TypeError, match=r"^[a-z_ ]+ must be an integer, got (True|False)$"):
            build()

    def test_numpy_integers_are_indices(self):
        i = np.int64
        circuit = Circuit(i(2), i(1), [gate_app(make_gate("X"), (i(1),), condition=(i(0), i(1))),
                                       measure(i(1), i(0))])
        assert (circuit.num_qubits, circuit.num_clbits) == (2, 1)
        gate, meas = circuit.instructions
        assert gate.targets == (1,) and gate.condition == (0, 1)
        assert all(type(v) is int for v in (*gate.targets, *gate.condition, meas.qubit,
                                            meas.classical_bit, circuit.num_qubits))


class TestNoisePrecedence:
    def test_per_instruction_overrides_global(self):
        spec = NoiseSpec({0: dephasing(0.5)})
        c = Circuit(
            2, 0,
            [h(0), gate_app(make_gate("H"), (1,), noise=spec)],
            global_noise=NoiseSpec.uniform("amplitude_damping", 0.1, 2),
        )
        assert c.effective_noise(c.instructions[1]) is spec
        eff = c.effective_noise(c.instructions[0])
        assert eff.per_qubit_channels[0].kind == "amplitude_damping"

    def test_no_noise_anywhere(self):
        c = Circuit(2, 0, [h(0)])
        assert c.effective_noise(c.instructions[0]) is None
        assert not c.has_noise()


class TestJsonRoundTrip:
    @pytest.mark.parametrize("channel", [
        # named dephasing, but amplitude damping's Kraus operators
        NoiseChannel("dephasing", 0.3, amplitude_damping(0.3).kraus_ops),
        NoiseChannel("custom", 0.3, dephasing(0.3).kraus_ops),
    ])
    def test_channel_that_no_entry_names_is_not_written(self, channel):
        c = Circuit(1, 0, [gate_app(make_gate("X"), (0,)),
                           gate_app(make_gate("H"), (0,), noise=NoiseSpec({0: channel}))])
        with pytest.raises(ValueError):
            circuit_to_json(c)
        with pytest.raises(ValueError):
            circuit_to_json(Circuit(1, 0, c.instructions[:1], NoiseSpec({0: channel})))

    def test_round_trip_preserves_structure(self):
        base = random_circuit(4, 6, 7)
        instructions = list(base.instructions)
        instructions.append(measure(0, 0))
        instructions.append(gate_app(make_gate("X"), (1,), condition=(0, 1),
                                     noise=NoiseSpec({0: dephasing(0.25)})))
        c = Circuit(4, 1, instructions,
                    global_noise=NoiseSpec.uniform("depolarizing", 0.1, 2))
        restored = circuit_from_json(circuit_to_json(c))
        assert restored.num_qubits == c.num_qubits
        assert restored.num_clbits == c.num_clbits
        assert restored.global_noise.to_dict() == c.global_noise.to_dict()
        assert len(restored.instructions) == len(c.instructions)
        for x, y in zip(c.instructions, restored.instructions):
            assert x.kind == y.kind
            if x.kind == "gate":
                assert x.gate.name == y.gate.name
                assert x.gate.params == y.gate.params
                assert x.targets == y.targets
                assert x.condition == y.condition
            else:
                assert (x.qubit, x.classical_bit) == (y.qubit, y.classical_bit)
