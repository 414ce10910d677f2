"""Circuit execution: one walk of the measurement-outcome tree over two backends.

This module holds the run config, the memory check, the schedule and its
fusion, the one instruction loop and the per-shot seeds. The backends it
drives live with the arrays they address: the dense backend in `state`,
the MPS backend in `mps`.

`run` starts every circuit from |0...0>, executes its instructions in
order, skips gates whose classical condition does not hold, and collapses
on measurements, sampling each from a PCG64 generator seeded with
config.seed. Instructions scheduled past ``max_depth`` layers are not
executed. Every engine returns the same RunResult shape. Noise requires
the density representation.

`_execute` is the one loop that executes instructions. It walks the tree
of measurement outcomes for a set of shots: once the circuit is fixed, so
is the state after each string of outcomes (noise channels are steps of
the schedule too), so each branch that some shot takes is simulated once.
`run` walks the single path of one shot and records its measurements;
`run_shots` walks all its shots at once and counts them at the leaves.
Each shot draws what `run` draws with that shot's seed, the same PCG64
output bit for bit, from a generator state that `_shot_draws` derives in
closed form, so the counts equal one `run` per shot exactly.

The engine selects the backend the loop drives:

* ``simple`` — the dense backend (`state.DenseGroups`) started from one
  group of all qubits: each step, a gate's or a noise channel's, is one
  operator contracted into the state on its target axes only
  (`state.apply_local`).
* ``depth``  — the same dense backend started from one group per qubit:
  unentangled qubits stay in independent groups, merged only when a
  two-qubit gate spans two groups. Merges do not reorder qubits; the
  export does, once.
* ``mps``    — a matrix product state (`MPSState`): truncated-SVD splits,
  SWAPs that are never undone for distant pairs, and measurements read at
  the chain's orthogonality centre, which a collapse at a site with left
  bond 1 hands on to the next site without QR; wave functions only.

For the two dense engines, `_schedule` fuses steps (`_fuse`): each run of
unconditioned 1-qubit steps on a qubit is multiplied into the operator of
the next unconditioned 2-qubit step on that qubit, as qsim and Qiskit Aer
do, or, where none follows, of the last one before it. On a density
matrix the operators are Liouville superoperators, and each noise channel
is a 1-qubit step, so fusion folds the channels in as well. No step
moves past a measurement or a conditioned step on its qubit, and steps
past the depth cut-off are dropped before fusing. The MPS engine keeps
one step per instruction: its 1-qubit steps are cheap einsums on one
site, and folding them into two-qubit steps would not pay.

A backend provides ``apply(op, targets)``, ``prob_zero(qubit)``,
``collapse(qubit, outcome)``, ``copy()``, which returns an independent
backend in the same state, ``trace()``, the state's norm squared (the
trace of a density matrix), read without building the state, and
``export()``, which returns the validated final state; `_schedule` builds
each step's ``op`` once per circuit. Only `run` exports: `run_shots`
returns counts, and checks each leaf's ``trace()`` instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import MEASURE, Circuit, as_index, instruction_layers
from .gates import step_operator
from .mps import MPSState
from .state import NORM_ATOL, DenseGroups, MeasurementRecord, apply_local, sample_outcomes

WAVE, DENSITY = REPRESENTATIONS = ("wave", "density")
SIMPLE, MPS, DEPTH = ENGINES = ("simple", "mps", "depth")


class ConfigError(ValueError):
    """Invalid engine/representation/noise combination."""


@dataclass(frozen=True)
class RunConfig:
    representation: str = WAVE
    engine: str = SIMPLE
    max_depth: int | None = None
    mps_max_bond: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.representation not in REPRESENTATIONS:
            raise ConfigError(f"unknown representation {self.representation!r}")
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}")
        for field, least in (("max_depth", 1), ("mps_max_bond", 1), ("seed", 0)):
            value = getattr(self, field)
            if value is None and field != "seed":
                continue
            try:
                value = as_index(value, field)  # an np.int64 too, but not 2.5 or True
            except TypeError as exc:
                raise ConfigError(str(exc)) from None
            if value < least:
                raise ConfigError(f"{field} must be >= {least}")
            object.__setattr__(self, field, value)
        if self.engine == MPS and self.representation == DENSITY:
            raise ConfigError("the MPS engine supports the wave representation only")


@dataclass(frozen=True)
class RunResult:
    final_state: object
    classical_bits: tuple
    measurements: tuple
    layers_executed: int


def _check_memory(size: int, what: str, exponent: int = 0):
    """Raise ConfigError if size * 2**exponent bytes for `what` exceed this
    host's physical memory; 2**exponent is never built."""
    if size > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") >> exponent:
        needs = f"{size} x 2^{exponent}" if exponent else size
        raise ConfigError(f"{what} needs {needs} bytes, more than this host's memory")


def _check_run(circuit: Circuit, config: RunConfig, shots: int | None = None):
    """Raise ConfigError if the config cannot run the circuit, or if the
    states the run holds at once exceed this host's memory.

    `run` exports a dense state on every engine, 16·2^n bytes, or 16·4^n
    for a density matrix, and counts the states the export holds at its
    peak: the state; on `depth` and `mps` one reordered copy, as the
    merge order or the routed chain may leave qubits out of order; for a
    density matrix three more, which `DensityMatrix` allocates to check
    the matrix, store its Hermitian part and check that (its tracemalloc
    peak is 2.03 matrices at 9 qubits). On `simple` and `depth` a step
    holds three states, the state and `apply_local`'s two temporaries, so
    a dense `run` counts at least three. The walk of `run_shots` holds at most
    min(floor(log2 shots), measurements) + 2 backends at once
    (`_execute`): dense states, or MPS chains; on `simple` and `depth`,
    two more for the step in progress. A chain
    capped at bond χ holds 32·χ² bytes of amplitudes per site, plus 256
    for the array header, its list slot and the site's qubit; an uncapped
    one can reach bond 2^(n/2), so it is counted as dense. Nothing is
    allocated per qubit before the check.
    """
    if circuit.has_noise() and config.representation != DENSITY:
        raise ConfigError("noisy circuits require the density representation; "
                          "wave-function mode cannot represent mixed states")
    n, chi = circuit.num_qubits, config.mps_max_bond
    size, exponent = 16, n if config.representation == WAVE else 2 * n
    what = f"a {n}-qubit {config.representation} state"
    dense = config.engine != MPS
    if shots is None:
        copies = 1 + (config.engine != SIMPLE) + 3 * (config.representation == DENSITY)
        copies = max(copies, 3 * dense)
    else:
        measured = sum(ins.kind == MEASURE for ins in circuit.instructions)
        copies = min(int(shots).bit_length() - 1, measured) + 2 + 2 * dense
        if config.engine == MPS and chi is not None:
            size, exponent, what = n * (32 * chi * chi + 256), 0, f"{what} at bond {chi}"
    if copies > 1:
        size, what = copies * size, f"{what} in {copies} copies"
    _check_memory(size, what, exponent)


def _backend(circuit: Circuit, config: RunConfig):
    """A backend in |0...0> for the config's engine and representation."""
    n = circuit.num_qubits
    if config.engine == MPS:
        return MPSState(n, max_bond=config.mps_max_bond)
    blocks = [[q] for q in range(n)] if config.engine == DEPTH else [list(range(n))]
    return DenseGroups(blocks, config.representation)


class _ChannelStep(NamedTuple):
    """What the loop reads of the instruction behind a noise channel's step."""

    targets: tuple
    condition: tuple | None


def _schedule(circuit: Circuit, config: RunConfig):
    """The steps that run, in order, and the number of layers they span.

    A step is an instruction and its operator (None for a measurement). On a
    density matrix each noise slot of a gate is a 1-qubit step of its own,
    with its channel's superoperator and the gate's condition, before or
    after the gate's step (`NoiseChannel.after_gate`). Instructions
    scheduled past the depth cut-off are left out, with their channels,
    before the dense engines fuse the rest (`_fuse`).
    """
    layers = instruction_layers(circuit)
    stop = max(layers, default=0)
    if config.max_depth is not None:
        stop = min(config.max_depth, stop)
    density, steps = config.representation == DENSITY, []
    for ins, layer in zip(circuit.instructions, layers):
        if layer > stop:
            continue
        if ins.kind == MEASURE:
            steps.append((ins, None))
            continue
        spec = circuit.effective_noise(ins) if density else None
        channels = [(_ChannelStep((ins.targets[slot],), ins.condition), ch)
                    for slot, ch in spec.per_qubit_channels.items()] if spec else []
        steps += [(at, ch.superoperator) for at, ch in channels if not ch.after_gate]
        steps.append((ins, step_operator(ins.gate, density)))
        steps += [(at, ch.superoperator) for at, ch in channels if ch.after_gate]
    return (steps if config.engine == MPS else _fuse(steps, density)), stop


def _fuse(steps, density: bool) -> list:
    """Fold each run of unconditioned 1-qubit steps into an unconditioned
    2-qubit step on its qubit.

    A run's operators multiply into one, which the 2-qubit step's operator
    takes on the run's slot; on a density matrix these are superoperators,
    so the run's noise folds in too. A run goes into the next 2-qubit step
    on its qubit, on the right. A run that no such step takes, at the next
    measurement (every pending run), before a conditioned step on its
    qubit, or at the end, goes into the last 2-qubit step on its qubit on
    the left, unless a measurement or a conditioned step on the qubit came
    after that step; then it is flushed as one step of its own.
    """
    fused, pending = [], {}  # pending[q]: (first instruction, operator) of q's run
    last = {}  # last[q]: (index in fused, slot) of the 2-qubit step a run on q may join

    def flush(qubits):
        for q in [q for q in qubits if q in pending]:
            ins, run_op = pending.pop(q)
            if q not in last:
                fused.append((ins, run_op))
                continue
            i, slot = last[q]  # E(run) @ op
            ins, op = fused[i]
            fused[i] = (ins, apply_local(op, run_op, [slot, 2 + slot][:1 + density]))

    for ins, op in steps:
        if op is None or ins.condition is not None:
            flush(list(pending) if op is None else ins.targets)
            last = {} if op is None else {q: v for q, v in last.items() if q not in ins.targets}
            fused.append((ins, op))
        elif len(ins.targets) == 1:
            q = ins.targets[0]
            pending[q] = (pending[q][0], op @ pending[q][1]) if q in pending else (ins, op)
        else:
            for slot, q in enumerate(ins.targets):
                if q in pending:  # op @ E(R): R^T contracted on op's column axes
                    rows = [slot, 2 + slot][:1 + density]
                    op = apply_local(op, pending.pop(q)[1].T, [2 * len(rows) + a for a in rows])
                last[q] = (len(fused), slot)
            fused.append((ins, op))
    flush(list(pending))
    return fused


def _measurements(steps) -> int:
    return sum(op is None for _, op in steps)


def _execute(backend, steps, draws, num_clbits: int, records=None):
    """Walk the measurement-outcome tree of `steps` from the backend's state.

    Row i of `draws` holds shot i's samples, one per measurement in step
    order. A node is a backend, the shots that reach it and their classical
    bits, on which gate conditions are read. A measurement reads prob_zero
    once and splits the node's shots by their draws. When both outcomes
    are drawn, the larger branch waits on a stack as a collapsed copy while
    the smaller is walked, so at most floor(log2 shots) + 1 backends are
    pending or walked at once. With one shot, `records` collects the
    MeasurementRecords of its path. Yields (backend, clbits, shots) per
    leaf, its shots in ascending order.
    """
    stack = [(backend, 0, 0, [0] * num_clbits, np.arange(len(draws)))]
    while stack:
        backend, i, k, clbits, shots = stack.pop()
        for ins, op in steps[i:]:
            i += 1
            if op is not None:
                if ins.condition is None or clbits[ins.condition[0]] == ins.condition[1]:
                    backend.apply(op, ins.targets)
                continue
            q, bit = ins.qubit, ins.classical_bit
            p0, ones = sample_outcomes(backend.prob_zero(q), draws[shots, k])
            k += 1
            branches = [(o, s) for o, s in ((0, shots[~ones]), (1, shots[ones])) if len(s)]
            if len(branches) == 2:
                (outcome, shots), (other, rest) = sorted(branches, key=lambda b: len(b[1]))
                sibling = backend.copy()
                sibling.collapse(q, other)
                sibling_bits = clbits.copy()
                sibling_bits[bit] = other
                stack.append((sibling, i, k, sibling_bits, rest))
            else:
                [(outcome, shots)] = branches
            backend.collapse(q, outcome)
            clbits[bit] = outcome
            if records is not None:
                p_out = p0 if outcome == 0 else 1 - p0
                records.append(MeasurementRecord(q, bit, outcome, p_out))
        yield backend, clbits, shots


def run(circuit: Circuit, config: RunConfig) -> RunResult:
    """Execute the circuit on the backend that the config's engine selects.

    Instructions run in order, except those scheduled past the depth
    cut-off; each measurement draws one sample from the run's generator.
    """
    _check_run(circuit, config)
    backend = _backend(circuit, config)
    steps, stop = _schedule(circuit, config)
    measured = _measurements(steps)
    draws = np.empty((1, 0))  # no generator is built for a run that draws nothing
    if measured:
        draws = np.random.default_rng(config.seed).random((1, measured))
    records = []
    [(leaf, clbits, _)] = _execute(backend, steps, draws, circuit.num_clbits, records)
    return RunResult(leaf.export(), tuple(clbits), tuple(records), stop)


# ---------------------------------------------------------------------------
# repeated sampling
# ---------------------------------------------------------------------------


def run_shots(circuit: Circuit, config: RunConfig, shots: int) -> dict:
    """Run `shots` times with per-shot derived seeds; count classical outcomes.

    Keys are bit strings with classical bit 0 rightmost, in the order in
    which shots first give them. Shot i draws what `run` draws with the
    seed `SeedSequence([config.seed, i]).generate_state(1)[0]`, bit for
    bit, so results are reproducible; `_shot_draws` derives every shot's
    generator state in closed form, without building a generator per
    shot. All shots walk one outcome tree: each distinct branch is
    simulated once. No state is built: each leaf's trace() must be 1
    within NORM_ATOL.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    _check_run(circuit, config, shots)
    steps, _ = _schedule(circuit, config)
    # the draws, and the shot indices at the root of the walk
    _check_memory(8 * shots * (_measurements(steps) + 1), f"sampling {shots} shots")
    backend = _backend(circuit, config)
    draws = _shot_draws(config.seed, range(shots), _measurements(steps))
    counts, first = {}, {}
    for leaf, clbits, hits in _execute(backend, steps, draws, circuit.num_clbits):
        if not abs(leaf.trace() - 1.0) <= NORM_ATOL:
            raise ValueError(f"leaf state has trace {leaf.trace()}, expected 1")
        key = "".join(str(b) for b in reversed(clbits))
        counts[key] = counts.get(key, 0) + len(hits)
        first[key] = min(first.get(key, hits[0]), hits[0])
    return {key: counts[key] for key in sorted(counts, key=first.get)}


# ---------------------------------------------------------------------------
# per-shot seeds
# ---------------------------------------------------------------------------

# numpy's SeedSequence hash (bit_generator.pyx) and PCG64's 128-bit LCG multiplier
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(entropy: list, n_words: int) -> list:
    """`SeedSequence(entropy).generate_state(n_words)` for many sequences at
    once: entropy[k] holds word k of every sequence, as a uint32 array, and
    word k of the result is returned likewise. The hash constants evolve
    the same way for every sequence of the same length, so each step is
    one array operation; uint32 arrays wrap as the C code does."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * _MULT_A & _MASK32
        value = value * np.uint32(h)
        return value ^ (value >> 16)

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, words = _INIT_B, []
    for k in range(n_words):
        value = pool[k % 4] ^ np.uint32(h)
        h = h * _MULT_B & _MASK32
        value = value * np.uint32(h)
        words.append(value ^ (value >> 16))
    return words


def _uint32_words(value: int) -> list:
    """The uint32 words of a non-negative int, least significant first, as
    SeedSequence splits each entry of its entropy (0 is one word)."""
    return [value >> 32 * k & _MASK32 for k in range(max(1, -(-value.bit_length() // 32)))]


def _shot_draws(seed: int, shots: range, measured: int) -> np.ndarray:
    """Row j: `default_rng(SeedSequence([seed, i]).generate_state(1)[0])
    .random(measured)` for shot index i = shots[j], bit for bit; `shots`
    is a range with step 1.

    Both SeedSequence stages are hashed for all shots at once
    (`_seed_words`), over each span of shots whose index has the same
    words above the lowest, so the entropy of a span is one uint32 array
    per word. Each shot's PCG64 (state, inc) follows from the second
    stage's 8 words by PCG64's seeding arithmetic (srandom: inc = 2t + 1,
    state = ((inc + s)·M + inc) mod 2^128), and is set on one reused
    PCG64 before the shot's draws. No generator is built when there is
    nothing to draw.
    """
    draws = np.empty((len(shots), measured))
    if not measured or not shots:
        return draws
    bits = np.random.PCG64(seed)
    generator = np.random.Generator(bits)
    row = 0
    for high in range(shots.start >> 32, (shots.stop - 1 >> 32) + 1):
        base = high << 32
        low = np.arange(max(shots.start, base) - base, min(shots.stop, base + (1 << 32)) - base,
                        dtype=np.uint32)
        seed_words, high_words = _uint32_words(seed), _uint32_words(high) if high else []
        [first] = _seed_words([np.full(len(low), w, np.uint32) for w in seed_words] + [low]
                              + [np.full(len(low), w, np.uint32) for w in high_words], 1)
        # generate_state(4, uint64) reads the 8 words as little-endian uint64:
        # PCG64 is seeded with s = (v0, v1) and t = (v2, v3), high word first
        words = np.empty((len(low), 8), dtype="<u4")
        for k, word in enumerate(_seed_words([first], 8)):
            words[:, k] = word
        for v0, v1, v2, v3 in words.view("<u8").tolist():
            inc = (v2 << 65 | v3 << 1 | 1) & _MASK128
            state = ((inc + (v0 << 64 | v1)) * _PCG64_MULT + inc) & _MASK128
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            generator.random(out=draws[row])
            row += 1
    return draws
