"""numpy's PCG64 streams in closed form, bit for bit, without numpy.random.

Every random number qcsim uses is a draw of numpy's
`default_rng(seed)`: measurement draws (`random`), and the gate choices
(`integers`) and angles (`uniform`) of a random circuit. This module
computes them from the seed alone; no generator is built and
`numpy.random` is never imported.

`_seed_words` is numpy's SeedSequence hash, for many sequences at once.
Its words seed PCG64, a 128-bit LCG (O'Neill, "PCG", 2014), so the
state after j steps is an affine function of the seeding words with
coefficients that depend on j alone (`_jumps`; Brown, "Random number
generation with arbitrary strides", 1994). `_pcg64_outputs` gives the
raw 64-bit XSL-RR outputs of a range of draws of many streams in one
elementwise pass over uint64 limbs. Two consumers read them:
`_pcg64_random` turns a grid of outputs into the floats of
`Generator.random`, and `Stream` takes one seed's outputs in blocks of
growing size and consumes them as `Generator.integers` (Lemire's
multiply-and-reject method on 32-bit halves; Lemire, "Fast random integer
generation in an interval", 2019) and `Generator.uniform` do.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

# numpy's SeedSequence hash (bit_generator.pyx) and PCG64's 128-bit LCG multiplier
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
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
    and the cache holds one table per power of two that a process has
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


def _pcg64_outputs(entropy: list, start: int, stop: int) -> np.ndarray:
    """The raw 64-bit outputs of draws start to stop - 1 of `default_rng(x)`
    for each x whose uint32 words, least significant first, are
    entropy[k][i] (one uint32 array per word, as `_seed_words` takes
    them), as a uint64 array of one row a draw and one column a seed.

    The SeedSequence words seed PCG64 (`_jumps`), whose draw c reads the
    state after c + 1 steps and outputs rotr(hi ^ lo, hi >> 58) (XSL-RR).
    Every output is one elementwise expression over uint64 limbs, whose
    inner loops run along the seeds.
    """
    words = np.stack(_seed_words(entropy, 8), axis=1, dtype="<u4")
    # generate_state(4, uint64) reads the 8 words as little-endian uint64:
    # PCG64 is seeded with s = (v0, v1) and t = (v2, v3), high word first,
    # and inc = 2t + 1
    s_hi, s_lo, t_hi, t_lo = words.view("<u8").T[:, None]
    p, q = ((hi[start:stop], lo[start:stop])
            for hi, lo in _jumps(1 << (stop - 1).bit_length())[:2])
    hi, lo = _add128(_mul128(*p, s_hi, s_lo), _mul128(*q, t_hi << 1 | t_lo >> 63, t_lo << 1 | 1))
    xor, rot = hi ^ lo, hi >> 58
    return (xor >> rot) | (xor << (-rot & 63))


def _pcg64_random(entropy: list, out: np.ndarray):
    """Fill row i of `out` with `default_rng(x).random(out.shape[1])`, bit
    for bit, for the seeds x of `entropy` as `_pcg64_outputs` reads them:
    each output gives the float (output >> 11)·2^-53."""
    np.multiply(_pcg64_outputs(entropy, 0, out.shape[1]) >> 11, 2.0 ** -53, out=out.T)


def _blocks(entropy: list):
    """Yield the raw outputs of one seed's stream, as ints, in order,
    computed in blocks of 64, 64, 128, 256, ... outputs."""
    start, stop = 0, 64
    while True:
        yield from _pcg64_outputs(entropy, start, stop)[:, 0].tolist()
        start, stop = stop, 2 * stop


class Stream:
    """The draws `integers(n)` (2 <= n <= 2^32) and `uniform(low, high)`
    of `np.random.default_rng(seed)`, bit for bit, in any order.

    The raw outputs come from `_pcg64_outputs`, a block at a time
    (`_blocks`). As numpy's Generator does, `integers` reads 32-bit
    halves: the low half of an output first, keeping the high half for
    the next 32-bit draw. `uniform` takes a whole output and leaves a kept
    half alone.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")  # numpy's message
        self._outputs = _blocks([np.full(1, w, np.uint32) for w in _uint32_words(seed)])
        self._kept = None  # the high half of the last output, not yet drawn

    def _next32(self) -> int:
        if self._kept is None:
            self._kept, low = divmod(next(self._outputs), 1 << 32)
            return low
        half, self._kept = self._kept, None
        return half

    def integers(self, n: int) -> int:
        """An int in [0, n), Lemire's way: the high word of x·n for the
        first 32-bit draw x whose product's low word is not below
        2^32 mod n (numpy tests that only when the low word is below n)."""
        m = self._next32() * n
        while m & _MASK32 < (1 << 32) % n:
            m = self._next32() * n
        return m >> 32

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((next(self._outputs) >> 11) * 2.0 ** -53)
