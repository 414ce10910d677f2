"""float.__repr__ of a whole float64 array at once, as rows of bytes.

`write(values, out)` writes the text of each float into its row of `out`,
a uint8 array of WIDTH columns, with NUL in every slot the text leaves
empty; dropping the NULs of a row gives float.__repr__ of its float.

Most floats take the common path of Ryū (Adams, "Ryū: fast float-to-string
conversion", PLDI 2018), computed for the whole array with uint64 limbs:
the shortest digits that read back as the float, and their decimal
exponent, from two 64 x 64 -> 128-bit products with the top 125 bits of a
power of 5. The common path is taken by a normal float with 0 < |x| < 1
whose significand is not a power of two and whose scaled value 4·m·2^e2
has fewer trailing zero bits than Ryū's q - 1; every other float (zero,
subnormals, powers of two, Ryū's trailing-zero cases, |x| >= 1, inf and
nan) gets float.__repr__ itself, so every row is float.__repr__ by
construction. All limb arithmetic stays in uint64: a uint64 array mixed
with an int64 one is promoted to float64.
"""

from __future__ import annotations

import numpy as np

# A row is four little-endian 64-bit words: the sign, "0." and up to three
# leading zeros (fixed notation), the first digit and "." (scientific
# notation); the other 16 digits; then "e-" and a 2- or 3-digit exponent.
# float.__repr__ of a finite float is at most 24 characters, so the text
# of a float off the common path fits a row too.
WIDTH = 32
_WORDS = np.dtype("<u8")
_POW10 = 10 ** np.arange(20, dtype=np.uint64)  # to 10^19 < 2^64
_BITS = 125  # Ryū's DOUBLE_POW5_BITCOUNT
_MANTISSA = (1 << 52) - 1
_SAFE = np.float64(0.1).view(np.uint64)  # a float on the common path


def _word(text: str) -> int:
    return int.from_bytes(text.encode("ascii"), "little")


# the first word's first six bytes by sign x 6 + kind, where kind 0 to 3
# is fixed notation with that many leading zeros, 4 scientific with one
# digit, 5 scientific with a fraction (whose "." is the eighth byte)
_HEADS = np.array([_word((sign + head).ljust(6, "\0") + "\0" + dot) for sign in ("", "-")
                   for head, dot in [("0.", ""), ("0.0", ""), ("0.00", ""), ("0.000", ""),
                                     ("", ""), ("", ".")]], dtype=np.uint64)
# the last word by 1 - exponent of the value as 0.<digits> x 10^exponent
_TAILS = np.array([0] * 5 + [_word(f"e-{power:02d}") for power in range(5, 326)],
                  dtype=np.uint64)
# the ASCII text of each 2-digit pair 00 to 99, and of each 4-digit
# group 0000 to 9999 (built from pairs, so no temporary outgrows the table)
_PAIRS = (np.arange(100)[:, None] // np.array([10, 1]) % 10 + ord("0")).astype(np.uint8)
_GROUPS = np.concatenate(np.broadcast_arrays(_PAIRS[:, None], _PAIRS),
                         axis=2).view(np.uint32).reshape(-1)
# which of 16 digit bytes a number of 1 to 17 digits fills (all but its first)
_FILLED = (np.arange(16) < np.arange(-1, 17)[:, None]).astype(np.uint8) * np.uint8(0xFF)


def _pow5_table(rows: int = 326):
    """The top _BITS bits of 5^i for i < rows, as (low, high) uint64 limbs."""
    low, high, power = [], [], 1
    for _ in range(rows):
        bits = power.bit_length()
        top = power >> (bits - _BITS) if bits > _BITS else power << (_BITS - bits)
        low.append(top & 0xFFFF_FFFF_FFFF_FFFF)
        high.append(top >> 64)
        power *= 5
    return np.array(low, dtype=np.uint64), np.array(high, dtype=np.uint64)


def _exponent_tables():
    """What Ryū's common path derives from a float's biased exponent e,
    1 <= e <= 1022 (rows 0 and 1023 repeat their neighbours): 5^i's limbs,
    the shift j - 65 that takes (2·m2)·5^i to vr, the decimal exponent
    e10 of vr, and the mask of the low q - 3 bits of m2 (4·m2 has q - 1
    trailing zero bits if those are all zero)."""
    e2 = np.clip(np.arange(1024), 1, 1022) - 1077  # of 4·m2, with m2 < 2^53
    q = ((-e2 * 732923) >> 20) - 1  # log10Pow5(-e2) - 1, as -e2 > 1
    i = -e2 - q
    shift = (q - ((i * 1217359) >> 19) + _BITS - 66).astype(np.uint64)
    trailing = (np.uint64(1) << np.minimum(q - 3, 53).astype(np.uint64)) - np.uint64(1)
    low, high = _pow5_table()
    return low[i], high[i], shift, q + e2, trailing


_MUL_LOW, _MUL_HIGH, _SHIFT, _EXP10, _TRAILING = _exponent_tables()


def _mulhi(a_lo: np.ndarray, a_hi: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of a * b, elementwise, for a = a_hi·2^32 + a_lo < 2^54."""
    b_lo, b_hi = b & 0xFFFF_FFFF, b >> 32
    cross = a_lo * b_hi
    mid = ((a_lo * b_lo) >> 32) + a_hi * b_lo + (cross & 0xFFFF_FFFF)
    return a_hi * b_hi + (cross >> 32) + (mid >> 32)


def _shortest(bits: np.ndarray):
    """Ryū's common path for normal floats with 0 < |x| < 1 and a
    significand that is not a power of two: the shortest digits as an
    integer, their decimal exponent, and where the path does not hold
    (Ryū's trailing-zero cases)."""
    m2 = (bits & _MANTISSA) | (1 << 52)
    e = ((bits >> 52) & 0x7FF).astype(np.intp)  # an intp index gathers fastest
    mul_low, mul_high, shift = _MUL_LOW[e], _MUL_HIGH[e], _SHIFT[e]
    # (2·m2)·5^i as 192 bits hi:mid:lo; vr, vp and vm are that product,
    # and it plus and minus 5^i, shifted right by j - 1
    a = m2 << 1
    a_lo, a_hi = a & 0xFFFF_FFFF, a >> 32
    lo = a * mul_low
    carry = _mulhi(a_lo, a_hi, mul_low)
    mid = a * mul_high + carry
    hi = _mulhi(a_lo, a_hi, mul_high) + (mid < carry)
    vr = (hi << (64 - shift)) | (mid >> shift)
    lo_p = lo + mul_low
    mid_p = mid + mul_high + (lo_p < lo)
    vp = ((hi + (mid_p < mid)) << (64 - shift)) | (mid_p >> shift)
    lo_m = lo - mul_low
    mid_m = mid - mul_high - (lo_m > lo)
    vm = ((hi - (mid_m > mid)) << (64 - shift)) | (mid_m >> shift)
    # Ryū's loop drops a digit while the interval (vm, vp] still holds a
    # shorter number; it stops at the first power of 10 that fails
    removed = 0
    for power in _POW10[1:]:
        more = vp // power > vm // power
        if not more.any():
            break
        removed = removed + more
    scale = _POW10[removed]
    digits = vr // scale
    rest = vr - digits * scale  # round up past half, or if vr fell to vm
    round_up = (rest * 2 >= scale) | (vm >= digits * scale)
    return digits + round_up, _EXP10[e] + removed, (m2 & _TRAILING[e]) == 0


def write(values: np.ndarray, out: np.ndarray) -> int:
    """Write float.__repr__ of each float of the 1-D float64 array `values`
    into the matching row of `out`, a (len(values), WIDTH) uint8 array
    (a view is fine), NUL-padded; return how many floats took
    float.__repr__ itself."""
    bits = values.view(np.uint64)
    fast = (((bits >> 52) & 0x7FF) - 1 < 1022) & ((bits & _MANTISSA) != 0)
    digits, exp10, trailing = _shortest(np.where(fast, bits, _SAFE))
    count = np.searchsorted(_POW10, digits, side="right")  # 1 to 17
    point = exp10 + count  # the value is 0.<digits> x 10^point, point <= 0
    kind = np.minimum(-point, 4)  # point > -4 is fixed notation
    kind += (kind == 4) & (count > 1)
    padded = digits * _POW10[17 - count]  # 17 digits
    first = padded // 10**16
    rest = padded - first * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    groups = np.stack([high // 10**4, high % 10**4, low // 10**4, low % 10**4], axis=1)
    chars = _GROUPS.take(groups).view(np.uint8)
    chars &= _FILLED.take(count, axis=0)
    words = out.view(_WORDS)
    words[:, 0] = _HEADS[np.signbit(values) * 6 + kind] | (first + ord("0")) << 48
    words[:, 1:3] = chars.view(_WORDS)
    words[:, 3] = _TAILS[1 - point]
    slow = np.flatnonzero(~fast | trailing)
    if len(slow):
        text = "".join(r.ljust(WIDTH, "\0") for r in map(float.__repr__, values[slow].tolist()))
        out[slow] = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, WIDTH)
    return len(slow)
