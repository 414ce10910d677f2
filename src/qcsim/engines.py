"""Circuit execution: one instruction loop over two backends.

`run` starts every circuit from |0...0>, executes its instructions in
order, skips gates whose classical condition does not hold, and collapses
on measurements, sampling each from a PCG64 generator seeded with
config.seed. Instructions scheduled past ``max_depth`` layers are not
executed. Every engine returns the same RunResult shape. Noise requires
the density representation.

`_execute` is the one loop that executes instructions. `run` drives it
once over the scheduled instructions. `run_shots` drives it once over the
steps before the first measurement, which draw no random numbers, and
then once per shot over the rest, on a copy of the backend the prefix
left and with the shot's own generator; each shot's outcome is what
`run` gives with that shot's seed.

The engine selects the backend the loop drives:

* ``simple`` — the dense backend (`DenseGroups`) started from one group of
  all qubits: each gate step, with its noise folded in, is one operator
  contracted into the state on its target axes only.
* ``depth``  — the same dense backend started from one group per qubit:
  unentangled qubits stay in independent groups, merged only when a
  two-qubit gate spans two groups.
* ``mps``    — a matrix product state (`MPSState`): truncated-SVD splits,
  SWAPs that are never undone for distant pairs, and measurements read at
  the chain's orthogonality centre; wave functions only.

A backend provides ``apply(op, targets)``, ``prob_zero(qubit)``,
``collapse(qubit, outcome)`` and ``export()``, which returns the validated
final state; `_schedule` builds each gate's ``op`` once per circuit.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, replace

import numpy as np

from . import state as st
from .circuit import MEASURE, Circuit, instruction_layers
from .gates import apply_on_qubits
from .mps import MPSState
from .noise import step_operator
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
        if self.engine == MPS and self.representation == DENSITY:
            raise ConfigError("the MPS engine supports the wave representation only")


@dataclass(frozen=True)
class RunResult:
    final_state: object
    classical_bits: tuple
    measurements: tuple
    layers_executed: int


def _zero_array(num_qubits: int, representation: str) -> np.ndarray:
    """|0...0> as a raw amplitude vector or density matrix."""
    d = 2**num_qubits
    state = np.zeros(d if representation == WAVE else (d, d), np.complex128)
    state.flat[0] = 1.0
    return state


def _backend(circuit: Circuit, config: RunConfig):
    """A backend in |0...0> for the config's engine and representation."""
    if circuit.has_noise() and config.representation != DENSITY:
        raise ConfigError(
            "noisy circuits require the density representation; "
            "wave-function mode cannot represent mixed states"
        )
    n = circuit.num_qubits
    size = 16 * 2 ** (n if config.representation == WAVE else 2 * n)
    if size > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        raise ConfigError(f"a {n}-qubit {config.representation} state needs "
                          f"{size} bytes, more than this host's memory")
    if config.engine == MPS:
        return MPSState(
            n,
            max_bond=config.mps_max_bond,
            truncation_threshold=config.mps_truncation_threshold,
        )
    if config.engine == DEPTH:
        return DenseGroups([[q] for q in range(n)], config.representation)
    return DenseGroups([list(range(n))], config.representation)


def _schedule(circuit: Circuit, config: RunConfig):
    """The steps that run, in order, and the number of layers they span.

    A step is an instruction and its operator (None for a measurement).
    Instructions scheduled past the depth cut-off are left out.
    """
    layers = instruction_layers(circuit)
    stop = max(layers, default=0)
    if config.max_depth is not None:
        stop = min(config.max_depth, stop)
    density = config.representation == DENSITY
    return [
        (ins, None if ins.kind == MEASURE
         else step_operator(ins.gate, circuit.effective_noise(ins), density))
        for ins, layer in zip(circuit.instructions, layers) if layer <= stop
    ], stop


def _execute(backend, steps, rng, clbits: list, records: list):
    """Execute `steps` on the backend, updating `clbits` and `records` in place.

    Each measurement draws one sample from `rng`; a gate runs only if its
    classical condition holds on the current `clbits`.
    """
    for ins, op in steps:
        if op is None:
            q, bit = ins.qubit, ins.classical_bit
            outcome, p0 = st.sample_outcome(backend.prob_zero(q), rng.random())
            backend.collapse(q, outcome)
            clbits[bit] = outcome
            p_out = p0 if outcome == 0 else 1 - p0
            records.append(MeasurementRecord(q, bit, outcome, p_out))
        elif ins.condition is None or clbits[ins.condition[0]] == ins.condition[1]:
            backend.apply(op, ins.targets)


def run(circuit: Circuit, config: RunConfig) -> RunResult:
    """Execute the circuit on the backend that the config's engine selects.

    Instructions run in order, except those scheduled past the depth
    cut-off; each measurement draws one sample from the run's generator.
    """
    backend = _backend(circuit, config)
    steps, stop = _schedule(circuit, config)
    clbits, records = [0] * circuit.num_clbits, []
    _execute(backend, steps, np.random.default_rng(config.seed), clbits, records)
    return RunResult(backend.export(), tuple(clbits), tuple(records), stop)


def run_simple(circuit: Circuit, config: RunConfig) -> RunResult:
    return run(circuit, replace(config, engine=SIMPLE))


def run_mps(circuit: Circuit, config: RunConfig) -> RunResult:
    return run(circuit, replace(config, engine=MPS))


def run_depth(circuit: Circuit, config: RunConfig) -> RunResult:
    return run(circuit, replace(config, engine=DEPTH))


# ---------------------------------------------------------------------------
# dense backend
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


class DenseGroups:
    """Dense backend: raw state vectors or density matrices over qubit groups.

    Each group holds the state of its qubits, unentangled with the other
    groups; a two-qubit gate that spans two groups merges them first.
    Started from one group per qubit (the depth engine), unentangled qubits
    stay factored; started from one group of all qubits (the simple engine),
    every gate is contracted into the full state. States are carried
    unvalidated and checked once, by `export`.
    """

    def __init__(self, blocks, representation: str):
        self.owner = [None] * sum(map(len, blocks))  # owner[q]: the group of q
        for qubits in blocks:
            g = _Group(qubits, _zero_array(len(qubits), representation))
            for q in qubits:
                self.owner[q] = g

    def apply(self, op, targets):
        g = self.owner[targets[0]]
        if len(targets) == 2 and self.owner[targets[1]] is not g:
            g = _merge_groups(g, self.owner[targets[1]])
            for q in g.qubits:
                self.owner[q] = g
        g.state = apply_on_qubits(g.state, op, [g.local(q) for q in targets])

    def prob_zero(self, qubit: int) -> float:
        g = self.owner[qubit]
        return st.prob_zero(g.state, g.local(qubit))

    def collapse(self, qubit: int, outcome: int):
        g = self.owner[qubit]
        g.state = st.collapse(g.state, g.local(qubit), outcome)

    def export(self):
        """Merge the groups, in order of their lowest qubit, into one validated state."""
        full = self.owner[0]
        for q, g in enumerate(self.owner):
            if q > 0 and g.qubits[0] == q:
                full = _merge_groups(full, g)
        n = len(full.qubits)
        if full.state.ndim == 1:
            return PureState(n, full.state)
        return DensityMatrix(n, st.hermitize(full.state))


# ---------------------------------------------------------------------------
# repeated sampling
# ---------------------------------------------------------------------------


def run_shots(circuit: Circuit, config: RunConfig, shots: int) -> dict:
    """Run `shots` times with per-shot derived seeds; count classical outcomes.

    Keys are bit strings with classical bit 0 rightmost. Shot i uses the
    seed sequence (config.seed, i), so results are reproducible, and each
    shot draws what `run` draws with that seed. The steps before the first
    measurement draw nothing and see all-zero classical bits, so they run
    once; each shot continues from a copy of the backend they leave.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    prefix = _backend(circuit, config)
    steps, _ = _schedule(circuit, config)
    first = next((i for i, (_, op) in enumerate(steps) if op is None), len(steps))
    _execute(prefix, steps[:first], None, [0] * circuit.num_clbits, [])
    rest = steps[first:]
    counts: dict[str, int] = {}
    for i in range(shots):
        backend = copy.deepcopy(prefix)
        clbits = [0] * circuit.num_clbits
        seed = int(np.random.SeedSequence([config.seed, i]).generate_state(1)[0])
        _execute(backend, rest, np.random.default_rng(seed), clbits, [])
        backend.export()
        key = "".join(str(b) for b in reversed(clbits))
        counts[key] = counts.get(key, 0) + 1
    return counts
