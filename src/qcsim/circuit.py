"""Circuit intermediate representation.

A circuit is an ordered list of instructions over ``num_qubits`` qubits
and ``num_clbits`` classical bits. Gate applications may carry a classical
condition (execute only when a bit holds a required value) and a noise
attachment; measurements write one qubit's outcome to one classical bit.
Noise may also be attached globally and is overridden per instruction.

The random-circuit generator alternates layers of independently sampled
single-qubit gates with layers of nearest-neighbor CX gates whose pairing
shifts between (0-1, 2-3, ...) and (1-2, 3-4, ...) so every adjacent pair
gets entangled. Generation is reproducible: gate choices are drawn from
numpy's default PCG64 generator seeded with the given seed.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, replace

import numpy as np

from .gates import GATE_SIGNATURES, Gate, make_gate
from .noise import NoiseSpec, check_slots, json_object

GATE_APP = "gate"
MEASURE = "measure"

# Sampling pool for the random-circuit single-qubit layers; rotations draw
# an angle uniformly from [0, 2*pi).
RANDOM_1Q_POOL = ("H", "X", "Y", "Z", "S", "T", "RX", "RY", "RZ")


def as_index(value, name: str) -> int:
    """`value`, the field `name`, as an int, by `operator.index`. A value
    that is not an integer is refused with a TypeError naming the field, and
    so is a bool, as a JSON true or false is no count, qubit or bit."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Instruction:
    """One circuit step: either a gate application or a measurement."""

    kind: str
    gate: Gate | None = None
    targets: tuple = ()
    condition: tuple | None = None  # (classical_bit, required_value)
    noise: NoiseSpec | None = None
    qubit: int | None = None  # measurement only
    classical_bit: int | None = None  # measurement only

    def __post_init__(self):
        if self.kind == GATE_APP:
            if self.gate is None:
                raise ValueError("gate application needs a gate")
            targets = tuple(as_index(t, "target") for t in self.targets)
            if len(set(targets)) != len(targets):
                raise ValueError("targets must be distinct")
            if len(targets) != self.gate.arity:
                raise ValueError("target count must match gate arity")
            object.__setattr__(self, "targets", targets)
            check_slots(self.gate, self.noise)
            if self.condition is not None:
                bit, value = map(as_index, self.condition, ("condition bit", "condition value"))
                if value not in (0, 1):
                    raise ValueError("condition value must be 0 or 1")
                object.__setattr__(self, "condition", (bit, value))
        elif self.kind == MEASURE:
            if self.qubit is None or self.classical_bit is None:
                raise ValueError("measurement needs a qubit and a classical bit")
            object.__setattr__(self, "qubit", as_index(self.qubit, "qubit"))
            object.__setattr__(self, "classical_bit",
                               as_index(self.classical_bit, "classical bit"))
        else:
            raise ValueError(f"unknown instruction kind {self.kind!r}")

    def touched_qubits(self):
        if self.kind == GATE_APP:
            return self.targets
        return (self.qubit,)

    def touched_clbits(self):
        if self.kind == GATE_APP:
            return (self.condition[0],) if self.condition else ()
        return (self.classical_bit,)


def gate_app(gate: Gate, targets, condition=None, noise=None) -> Instruction:
    return Instruction(
        GATE_APP, gate=gate, targets=tuple(targets), condition=condition, noise=noise
    )


def measure(qubit: int, classical_bit: int) -> Instruction:
    return Instruction(MEASURE, qubit=qubit, classical_bit=classical_bit)


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    num_clbits: int = 0
    instructions: tuple = ()
    global_noise: NoiseSpec | None = None

    def __post_init__(self):
        for name in ("num_qubits", "num_clbits"):
            object.__setattr__(self, name, as_index(getattr(self, name), name))
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if self.num_clbits < 0:
            raise ValueError("num_clbits must be >= 0")
        instrs = tuple(self.instructions)
        for ins in instrs:
            for q in ins.touched_qubits():
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"qubit {q} out of range")
            for c in ins.touched_clbits():
                if not 0 <= c < self.num_clbits:
                    raise ValueError(f"classical bit {c} out of range")
        object.__setattr__(self, "instructions", instrs)

    def with_instructions(self, instructions) -> "Circuit":
        return replace(self, instructions=tuple(instructions))

    def with_global_noise(self, spec: NoiseSpec | None) -> "Circuit":
        return replace(self, global_noise=spec)

    def effective_noise(self, instruction: Instruction) -> NoiseSpec | None:
        """Per-instruction noise wins over the global attachment."""
        if instruction.kind != GATE_APP:
            return None
        if instruction.noise is not None:
            return instruction.noise
        if self.global_noise is None:
            return None
        slots = {
            s: ch
            for s, ch in self.global_noise.per_qubit_channels.items()
            if s < instruction.gate.arity
        }
        return NoiseSpec(slots) if slots else None

    def has_noise(self) -> bool:
        return self.global_noise is not None or any(
            ins.noise is not None for ins in self.instructions
        )


def instruction_layers(circuit: Circuit) -> list[int]:
    """Greedy layer index (1-based) for each instruction.

    An instruction lands one layer past the deepest layer already occupied
    on any qubit it touches, or any classical bit it reads or writes.
    """
    qubit_layer = [0] * circuit.num_qubits
    clbit_layer = [0] * circuit.num_clbits
    layers = []
    for ins in circuit.instructions:
        layer = 1
        for q in ins.touched_qubits():
            layer = max(layer, qubit_layer[q] + 1)
        for c in ins.touched_clbits():
            layer = max(layer, clbit_layer[c] + 1)
        for q in ins.touched_qubits():
            qubit_layer[q] = layer
        for c in ins.touched_clbits():
            clbit_layer[c] = layer
        layers.append(layer)
    return layers


def depth(circuit: Circuit) -> int:
    layers = instruction_layers(circuit)
    return max(layers) if layers else 0


def _random_1q_gate(rng: np.random.Generator) -> Gate:
    name = RANDOM_1Q_POOL[rng.integers(len(RANDOM_1Q_POOL))]
    nparams = GATE_SIGNATURES[name][1]
    return make_gate(name, [rng.uniform(0.0, 2.0 * np.pi) for _ in range(nparams)])


def random_circuit(num_qubits: int, target_depth: int, seed: int) -> Circuit:
    """Benchmark circuit alternating random 1q layers with CX ladders."""
    if num_qubits < 2:
        raise ValueError("random_circuit needs at least 2 qubits")
    if target_depth < 1:
        raise ValueError("depth must be >= 1")
    rng = np.random.default_rng(seed)
    instructions = []
    cx = make_gate("CX")
    qubit_layer = [0] * num_qubits  # as instruction_layers schedules them
    layer_index = 0
    entangling_shift = 0
    while max(qubit_layer) < target_depth:
        if layer_index % 2 == 0:
            for q in range(num_qubits):
                instructions.append(gate_app(_random_1q_gate(rng), (q,)))
                qubit_layer[q] += 1
        else:
            # With 2 qubits the shifted ladder is empty and adds no depth.
            for a in range(entangling_shift, num_qubits - 1, 2):
                instructions.append(gate_app(cx, (a, a + 1)))
                qubit_layer[a] = qubit_layer[a + 1] = (
                    max(qubit_layer[a], qubit_layer[a + 1]) + 1
                )
            entangling_shift = 1 - entangling_shift
        layer_index += 1
    return Circuit(num_qubits, 0, instructions)


# ---------------------------------------------------------------------------
# JSON serialization (schema documented in the README)
# ---------------------------------------------------------------------------


def _instruction_to_dict(ins: Instruction) -> dict:
    if ins.kind == MEASURE:
        return {"kind": MEASURE, "qubit": ins.qubit, "clbit": ins.classical_bit}
    entry = {
        "kind": GATE_APP,
        "name": ins.gate.name,
        "params": list(ins.gate.params),
        "targets": list(ins.targets),
    }
    if ins.condition is not None:
        entry["condition"] = list(ins.condition)
    if ins.noise is not None:
        entry["noise"] = ins.noise.to_dict()
    return entry


# the keys that each kind of circuit JSON instruction may hold
_INSTRUCTION_KEYS = {MEASURE: ("kind", "qubit", "clbit"),
                     GATE_APP: ("kind", "name", "params", "targets", "condition", "noise")}


def _instruction_from_dict(index: int, entry) -> Instruction:
    """The instruction of entry `index` of a circuit JSON's instructions."""
    name = f"instruction {index}"
    kind = json_object(entry, name)["kind"]
    if kind != MEASURE and kind != GATE_APP:
        return Instruction(kind)  # raises: Instruction refuses an unknown kind
    json_object(entry, name, _INSTRUCTION_KEYS[kind])
    if kind == MEASURE:
        return measure(entry["qubit"], entry["clbit"])
    condition = (tuple(_json_list(entry["condition"], f"{name} condition"))
                 if "condition" in entry else None)
    noise = NoiseSpec.from_dict(entry["noise"], f"{name} noise") if "noise" in entry else None
    return gate_app(
        make_gate(entry["name"], _json_list(entry.get("params", []), f"{name} params")),
        _json_list(entry["targets"], f"{name} targets"),
        condition=condition,
        noise=noise,
    )


def _json_list(value, name: str) -> list:
    """`value` if it is a JSON list; a ValueError naming it otherwise."""
    if not isinstance(value, list):
        raise ValueError(f"{name} is not a list")
    return value


def circuit_to_json(circuit: Circuit) -> str:
    doc = {
        "num_qubits": circuit.num_qubits,
        "num_clbits": circuit.num_clbits,
        "instructions": [_instruction_to_dict(i) for i in circuit.instructions],
    }
    if circuit.global_noise is not None:
        doc["global_noise"] = circuit.global_noise.to_dict()
    return json.dumps(doc, indent=2, sort_keys=True)


def circuit_from_json(text: str) -> Circuit:
    doc = json_object(json.loads(text), "the top level",
                      ("num_qubits", "num_clbits", "instructions", "global_noise"))
    instructions = doc.get("instructions", [])
    if not isinstance(instructions, list):
        raise ValueError("instructions must be a list")
    return Circuit(
        num_qubits=doc["num_qubits"],
        num_clbits=doc.get("num_clbits", 0),
        instructions=tuple(_instruction_from_dict(i, e) for i, e in enumerate(instructions)),
        global_noise=(
            NoiseSpec.from_dict(doc["global_noise"], "global_noise")
            if "global_noise" in doc else None
        ),
    )
