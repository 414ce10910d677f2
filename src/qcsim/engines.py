"""Circuit execution engines.

Three engines share the same contract:

* ``simple`` — combine all qubits up front and contract each gate into
  the state on its target axes only, in instruction order.
* ``mps``    — hold the state as a matrix product state, applying gates
  locally and re-splitting entangling gates with a truncated SVD.
* ``depth``  — schedule instructions into depth layers, keep qubits in
  independent groups and merge them only when a two-qubit gate spans
  groups; can stop after a configurable number of layers.

All engines start from |0...0>, honor classical conditions, collapse on
measurements (sampling from a PCG64 generator seeded with config.seed),
and return the same RunResult shape. Noise requires the density
representation; the MPS engine supports wave functions only. The simple
and depth engines carry raw amplitude vectors or density matrices between
gates and validate only the state they return.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import state as st
from .circuit import MEASURE, Circuit, instruction_layers
from .mps import MPSState
from .noise import apply_gate
from .state import DensityMatrix, MeasurementRecord, PureState

WAVE = "wave"
DENSITY = "density"

SIMPLE = "simple"
MPS = "mps"
DEPTH = "depth"


class ConfigError(ValueError):
    """Invalid engine/representation/noise combination."""


@dataclass(frozen=True)
class RunConfig:
    representation: str = WAVE
    engine: str = SIMPLE
    max_depth: int | None = None
    mps_max_bond: int | None = None
    mps_truncation_threshold: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.representation not in (WAVE, DENSITY):
            raise ConfigError(f"unknown representation {self.representation!r}")
        if self.engine not in (SIMPLE, MPS, DEPTH):
            raise ConfigError(f"unknown engine {self.engine!r}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.mps_max_bond is not None and self.mps_max_bond < 1:
            raise ConfigError("mps_max_bond must be >= 1")


@dataclass(frozen=True)
class RunResult:
    final_state: object
    classical_bits: tuple
    measurements: tuple
    layers_executed: int


def _check_noise_supported(circuit: Circuit, config: RunConfig):
    if circuit.has_noise() and config.representation != DENSITY:
        raise ConfigError(
            "noisy circuits require the density representation; "
            "wave-function mode cannot represent mixed states"
        )


def _condition_met(instruction, clbits) -> bool:
    if instruction.condition is None:
        return True
    bit, value = instruction.condition
    return clbits[bit] == value


def _zero_array(num_qubits: int, config: RunConfig) -> np.ndarray:
    """|0...0> as a raw amplitude vector or density matrix."""
    d = 2**num_qubits
    state = np.zeros(d if config.representation == WAVE else (d, d), np.complex128)
    state.flat[0] = 1.0
    return state


def _record(ins, outcome, p0, clbits, records):
    """Store a measurement outcome in its classical bit and the records."""
    clbits[ins.classical_bit] = outcome
    records.append(
        MeasurementRecord(
            ins.qubit, ins.classical_bit, outcome, p0 if outcome == 0 else 1 - p0
        )
    )


def _checked_state(state: np.ndarray):
    """Wrap a raw engine state in its validated representation."""
    n = state.shape[0].bit_length() - 1
    if state.ndim == 1:
        return PureState(n, state)
    return DensityMatrix(n, st.hermitize(state))


def run(circuit: Circuit, config: RunConfig) -> RunResult:
    """Dispatch to the engine selected by the config."""
    if config.engine == SIMPLE:
        return run_simple(circuit, config)
    if config.engine == MPS:
        return run_mps(circuit, config)
    return run_depth(circuit, config)


# ---------------------------------------------------------------------------
# simple engine
# ---------------------------------------------------------------------------


def run_simple(circuit: Circuit, config: RunConfig) -> RunResult:
    _check_noise_supported(circuit, config)
    rng = np.random.default_rng(config.seed)
    clbits = [0] * circuit.num_clbits
    records = []
    state = _zero_array(circuit.num_qubits, config)
    for ins in circuit.instructions:
        if ins.kind == MEASURE:
            outcome, state, p0 = st.measure_array(state, ins.qubit, rng.random())
            _record(ins, outcome, p0, clbits, records)
        elif _condition_met(ins, clbits):
            state = apply_gate(
                state, ins.gate, ins.targets, circuit.effective_noise(ins)
            )
    layers = instruction_layers(circuit)
    return RunResult(
        _checked_state(state), tuple(clbits), tuple(records), max(layers, default=0)
    )


# ---------------------------------------------------------------------------
# MPS engine
# ---------------------------------------------------------------------------


def run_mps(circuit: Circuit, config: RunConfig) -> RunResult:
    if config.representation == DENSITY:
        raise ConfigError("the MPS engine supports the wave representation only")
    _check_noise_supported(circuit, config)
    n = circuit.num_qubits
    rng = np.random.default_rng(config.seed)
    clbits = [0] * circuit.num_clbits
    records = []
    mps = MPSState(
        n,
        max_bond=config.mps_max_bond,
        truncation_threshold=config.mps_truncation_threshold,
    )
    for ins in circuit.instructions:
        if ins.kind == MEASURE:
            p0 = min(max(mps.prob_zero(ins.qubit), 0.0), 1.0)
            outcome = 0 if rng.random() < p0 else 1
            p_out = p0 if outcome == 0 else 1.0 - p0
            if p_out < st.ZERO_PROB_ATOL:
                raise ValueError(
                    f"cannot collapse onto outcome {outcome} with probability {p_out}"
                )
            mps.collapse(ins.qubit, outcome)
            _record(ins, outcome, p0, clbits, records)
            continue
        if not _condition_met(ins, clbits):
            continue
        if ins.gate.arity == 1:
            mps.apply_1q(ins.gate.matrix, ins.targets[0])
        else:
            mps.apply_2q(ins.gate.matrix, ins.targets[0], ins.targets[1])
    layers = instruction_layers(circuit)
    return RunResult(
        mps.to_pure_state(), tuple(clbits), tuple(records), max(layers, default=0)
    )


# ---------------------------------------------------------------------------
# depth-controlled engine
# ---------------------------------------------------------------------------


@dataclass
class _Group:
    """An independent block of qubits with its own small raw state.

    qubits are kept sorted ascending; qubits[j] occupies local bit j.
    """

    qubits: list
    state: np.ndarray

    def local(self, qubit: int) -> int:
        return self.qubits.index(qubit)


def _permute_qubits(state: np.ndarray, order) -> np.ndarray:
    """Reorder a raw state's qubits so old local bit order[j] becomes bit j."""
    m = len(order)
    # axis m-1-j of the reshaped tensor is local bit j; build the transpose
    # that moves old bit order[j] into position j.
    axes = [m - 1 - order[m - 1 - a] for a in range(m)]
    if state.ndim == 2:
        axes += [a + m for a in axes]
    return state.reshape([2] * (m * state.ndim)).transpose(axes).reshape(state.shape)


def _merge_groups(a: _Group, b: _Group) -> _Group:
    combined = np.kron(b.state, a.state)  # a occupies the low bits
    qubits = a.qubits + b.qubits  # current local bit order, ascending per block
    target = sorted(qubits)
    order = [qubits.index(q) for q in target]
    return _Group(target, _permute_qubits(combined, order))


def run_depth(circuit: Circuit, config: RunConfig) -> RunResult:
    _check_noise_supported(circuit, config)
    n = circuit.num_qubits
    rng = np.random.default_rng(config.seed)
    clbits = [0] * circuit.num_clbits
    records = []
    groups = [_Group([q], _zero_array(1, config)) for q in range(n)]
    layers = instruction_layers(circuit)
    total_depth = max(layers, default=0)
    stop = total_depth if config.max_depth is None else min(config.max_depth, total_depth)

    def group_of(qubit):
        for g in groups:
            if qubit in g.qubits:
                return g
        raise AssertionError(f"qubit {qubit} not in any group")

    for ins, layer in zip(circuit.instructions, layers):
        if layer > stop:
            continue
        if ins.kind == MEASURE:
            g = group_of(ins.qubit)
            outcome, g.state, p0 = st.measure_array(
                g.state, g.local(ins.qubit), rng.random()
            )
            _record(ins, outcome, p0, clbits, records)
            continue
        if not _condition_met(ins, clbits):
            continue
        g = group_of(ins.targets[0])
        if ins.gate.arity == 2:
            g2 = group_of(ins.targets[1])
            if g2 is not g:
                merged = _merge_groups(g, g2)
                groups.remove(g)
                groups.remove(g2)
                groups.append(merged)
                g = merged
        local_targets = [g.local(q) for q in ins.targets]
        g.state = apply_gate(
            g.state, ins.gate, local_targets, circuit.effective_noise(ins)
        )
    # Combine whatever groups remain and restore global qubit order.
    groups.sort(key=lambda g: g.qubits[0])
    full = groups[0]
    for g in groups[1:]:
        full = _merge_groups(full, g)
    return RunResult(_checked_state(full.state), tuple(clbits), tuple(records), stop)


# ---------------------------------------------------------------------------
# repeated sampling
# ---------------------------------------------------------------------------


def run_shots(circuit: Circuit, config: RunConfig, shots: int) -> dict:
    """Run `shots` times with per-shot derived seeds; count classical outcomes.

    Keys are bit strings with classical bit 0 rightmost. Shot i uses the
    seed sequence (config.seed, i), so results are reproducible.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    counts: dict[str, int] = {}
    for i in range(shots):
        seed = int(np.random.SeedSequence([config.seed, i]).generate_state(1)[0])
        result = run(circuit, replace(config, seed=seed))
        key = "".join(str(b) for b in reversed(result.classical_bits))
        counts[key] = counts.get(key, 0) + 1
    return counts
