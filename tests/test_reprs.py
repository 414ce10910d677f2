"""The array float encoder (`qcsim.reprs`) against float.__repr__."""

import warnings

import numpy as np
import pytest

from qcsim import reprs


def texts(values: np.ndarray):
    """The text of each row that reprs.write gives, and how many floats
    took float.__repr__ itself."""
    rows = np.zeros((len(values), reprs.WIDTH + 1), dtype=np.uint8)
    rows[:, -1] = ord("\n")
    fallbacks = reprs.write(values, rows[:, :-1])
    return rows.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1], fallbacks


def assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    got, fallbacks = texts(values)
    want = list(map(float.__repr__, values.tolist()))
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert not wrong and len(got) == len(want), wrong[:5]
    return fallbacks


def test_random_bit_patterns_of_every_exponent():
    # 2^20 patterns: random signs and significands, each of the 2047 finite
    # exponents about 512 times, so both paths are taken throughout
    rng = np.random.default_rng(24)
    n = 1 << 20
    exponents = np.arange(n, dtype=np.uint64) % np.uint64(2047)
    significands = rng.integers(0, 1 << 52, size=n, dtype=np.uint64)
    signs = rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63)
    values = (signs | (exponents << np.uint64(52)) | significands).view(np.float64)
    assert np.isfinite(values).all()
    fallbacks = sum(assert_reprs(chunk) for chunk in np.array_split(values, 16))
    # zeros, subnormals, powers of two and every |x| >= 1 take
    # float.__repr__, and so do Ryū's trailing-zero cases, which random
    # significands almost never hit
    off_path = np.count_nonzero((exponents == 0) | (exponents >= 1023) | (significands == 0))
    assert off_path <= fallbacks < off_path + n // 1000


@pytest.mark.parametrize("values", [
    [0.0, -0.0],
    [5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308],
    [9.999999999999999e-05, 0.0001, 0.00010000000000000002, 1e15, 1e16, 1e-05],
    [0.1, 0.5, 0.7071067811865476, -0.7071067811865476, 0.25, 0.75, 0.999999999999999],
    [float("inf"), -float("inf"), float("nan"), 1.0, -1.5, 1e300],
], ids=["zeros", "subnormal-edge", "notation-switch", "short", "off-path"])
def test_values_with_special_text(values):
    assert_reprs(values)
    assert_reprs(np.nextafter(np.asarray(values), 0.0))
    assert_reprs(np.nextafter(np.asarray(values), 2.0))


def test_powers_of_two_and_their_neighbours():
    # powers of two have an asymmetric rounding interval
    powers = 2.0 ** np.arange(-1074, 1024)
    for values in (powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)):
        assert_reprs(np.concatenate([values, -values]))


def test_short_decimals_and_dyadic_fractions():
    # few digits: Ryū drops many; few significant bits: its trailing-zero cases
    rng = np.random.default_rng(7)
    decimals = [np.round(rng.random(2000), d) * 10.0**-k
                for d in range(1, 17) for k in (0, 3, 7, 40)]
    odd = np.arange(1, 1 << 12, 2, dtype=np.float64)
    dyadic = [odd * 2.0**-j for j in range(12, 1100, 7)]
    assert_reprs(np.concatenate(decimals + dyadic))


def test_state_amplitudes_take_the_array_path():
    rng = np.random.default_rng(5)
    values = rng.normal(size=4096) / 64
    assert assert_reprs(values) == 0
    assert assert_reprs(np.array([0.7071067811865476, -0.5000000000000001, 1e-300])) == 0


def test_no_warning_escapes():
    # the limb arithmetic stays in uint64: no overflow warning, and no
    # promotion to float64
    rng = np.random.default_rng(6)
    values = rng.integers(0, 1 << 64, size=1 << 16, dtype=np.uint64).view(np.float64)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert_reprs(values[np.isfinite(values)])
