"""Circuit execution: one walk of the measurement-outcome tree over two backends.

This module holds the run config, the memory check, the schedule and its
fusion, the one instruction loop and the draws. The backends it
drives live with the arrays they address: the dense backend in `state`,
the MPS backend in `mps`.

`run` starts every circuit from |0...0>, executes its instructions in
order, skips gates whose classical condition does not hold, and collapses
on measurements, sampling measurement j with the j-th draw of numpy's
`default_rng(config.seed).random()`. Instructions scheduled past
``max_depth`` layers are not executed. Every engine returns the same
RunResult shape. Noise requires the density representation.

`_execute` is the one loop that executes instructions. It walks the tree
of measurement outcomes for a set of shots: once the circuit is fixed, so
is the state after each string of outcomes (noise channels are steps of
the schedule too), so each branch that some shot takes is simulated once.
`run` walks the single path of one shot and records its measurements;
`run_shots` walks all its shots at once and counts them at the leaves.
Each shot draws what `run` draws with that shot's seed, bit for bit, so
the counts equal one `run` per shot exactly.

No generator is built and `numpy.random` is never imported: a PCG64
stream is a 128-bit LCG, so its state after j steps is an affine function
of its seeding words with coefficients that depend on j alone
(`_jumps`; Brown, "Random number generation with arbitrary strides",
1994). `_pcg64_random` computes every draw of every shot from the
SeedSequence words of its seed (`_seed_words`) in one elementwise pass
over uint64 limbs, which reproduces numpy's output exactly.

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

import functools
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
    cut-off; measurement j takes the j-th draw of numpy's
    `default_rng(config.seed).random()`, computed without numpy.random.
    """
    _check_run(circuit, config)
    backend = _backend(circuit, config)
    steps, stop = _schedule(circuit, config)
    measured = _measurements(steps)
    draws = np.empty((1, measured))
    if measured:  # what default_rng(config.seed).random(measured) returns
        _pcg64_random([np.full(1, w, np.uint32) for w in _uint32_words(config.seed)], draws)
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
    bit, so results are reproducible; `_shot_draws` computes every
    shot's draws in closed form, without a generator. All shots walk one
    outcome tree: each distinct branch is simulated once. No state is
    built: each leaf's trace() must be 1 within NORM_ATOL.
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
# seeds and draws
# ---------------------------------------------------------------------------

# numpy's SeedSequence hash (bit_generator.pyx) and PCG64's 128-bit LCG multiplier
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_CHUNK = 1 << 15  # draws that `_pcg64_random` computes at once


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


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple:
    """(a·b) mod 2^128 elementwise, for uint64 arrays of high and low words,
    as (high, low). The high word of a_lo·b_lo is summed from the products
    of their 32-bit halves, whose partial sums cannot overflow 64 bits;
    uint64 products wrap."""
    a0, a1, b0, b1 = a_lo & _MASK32, a_lo >> 32, b_lo & _MASK32, b_lo >> 32
    cross = a0 * b1
    mid = (a0 * b0 >> 32) + a1 * b0 + (cross & _MASK32)
    high = a1 * b1 + (cross >> 32) + (mid >> 32) + a_lo * b_hi + a_hi * b_lo
    return high, a_lo * b_lo


def _add128(a, b) -> tuple:
    """(a + b) mod 2^128 elementwise, for (high, low) pairs of uint64 arrays."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _limbs(value: int) -> tuple:
    """A non-negative int below 2^128 as a (high, low) pair of 1 x 1 uint64 arrays."""
    return tuple(np.full((1, 1), value >> shift & _MASK64, np.uint64) for shift in (64, 0))


@functools.cache
def _jumps(size: int) -> tuple:
    """PCG64's state after draw c < size (a power of two) as a function of
    its seeding words s and inc: M^(c+2)·s + (1 + M + ... + M^(c+2))·inc
    mod 2^128, since seeding sets the state to (inc + s)·M + inc and each
    draw steps the LCG before its output. Returns the two coefficient
    columns as (high, low) pairs of size x 1 uint64 arrays, then M^size and
    1 + M + ... + M^(size-1) as ints. Each size extends the half below it
    by products of 128-bit limbs, so a table of 2^k draws takes k steps,
    and the cache holds one table per power of two that a run has
    needed, built on first use."""
    m = _PCG64_MULT
    if size == 1:
        return _limbs(m * m & _MASK128), _limbs(1 + m + m * m & _MASK128), m, 1
    p, q, power, total = _jumps(size // 2)
    step = _limbs(power)
    p_next, q_next = _mul128(*step, *p), _add128(_limbs(total), _mul128(*step, *q))
    p, q = ([np.concatenate(pair) for pair in zip(*halves)]
            for halves in ((p, p_next), (q, q_next)))
    return tuple(p), tuple(q), power * power & _MASK128, total + power * total & _MASK128


def _pcg64_random(entropy: list, out: np.ndarray):
    """Fill row i of `out` with `default_rng(x).random(out.shape[1])`, bit
    for bit, where x is the int whose uint32 words, least significant
    first, are entropy[k][i] (one uint32 array per word, as `_seed_words`
    takes them).

    The SeedSequence words seed PCG64 (`_jumps`), whose draw c reads the
    state after c + 1 steps; its XSL-RR output rotr(hi ^ lo, hi >> 58)
    gives the float (output >> 11)·2^-53. Every draw of every row is one
    elementwise expression over uint64 limbs, evaluated on a grid of one
    row a draw and one column a shot, so that numpy's inner loops run
    along the shots, in chunks of about _CHUNK draws so that its
    temporaries stay small, and written to `out` transposed.
    """
    words = np.stack(_seed_words(entropy, 8), axis=1, dtype="<u4")
    # generate_state(4, uint64) reads the 8 words as little-endian uint64:
    # PCG64 is seeded with s = (v0, v1) and t = (v2, v3), high word first,
    # and inc = 2t + 1
    s_hi, s_lo, t_hi, t_lo = words.view("<u8").T[:, None]
    inc_hi, inc_lo = t_hi << 1 | t_lo >> 63, t_lo << 1 | 1
    measured = out.shape[1]
    p, q = ((hi[:measured], lo[:measured])
            for hi, lo in _jumps(1 << (measured - 1).bit_length())[:2])
    rows = max(1, _CHUNK // measured)
    for start in range(0, len(out), rows):
        part = slice(start, start + rows)
        hi, lo = _add128(_mul128(*p, s_hi[:, part], s_lo[:, part]),
                         _mul128(*q, inc_hi[:, part], inc_lo[:, part]))
        xor, rot = hi ^ lo, hi >> 58
        np.multiply(((xor >> rot) | (xor << (-rot & 63))) >> 11, 2.0 ** -53, out=out[part].T)


def _shot_draws(seed: int, shots: range, measured: int) -> np.ndarray:
    """Row j: `default_rng(SeedSequence([seed, i]).generate_state(1)[0])
    .random(measured)` for shot index i = shots[j], bit for bit; `shots`
    is a range with step 1.

    Both SeedSequence stages are hashed for all shots at once
    (`_seed_words`), over each span of shots whose index has the same
    words above the lowest, so the entropy of a span is one uint32 array
    per word. The first stage's word is each shot's seed, and
    `_pcg64_random` computes every draw of the span from it in closed
    form, without a generator. Nothing is hashed when there is nothing to
    draw.
    """
    draws = np.empty((len(shots), measured))
    if not measured or not shots:
        return draws
    seed_words, row = _uint32_words(seed), 0
    for high in range(shots.start >> 32, (shots.stop - 1 >> 32) + 1):
        base = high << 32
        low = np.arange(max(shots.start, base) - base, min(shots.stop, base + (1 << 32)) - base,
                        dtype=np.uint32)
        high_words = _uint32_words(high) if high else []
        [first] = _seed_words([np.full(len(low), w, np.uint32) for w in seed_words] + [low]
                              + [np.full(len(low), w, np.uint32) for w in high_words], 1)
        _pcg64_random([first], draws[row:row + len(low)])
        row += len(low)
    return draws
