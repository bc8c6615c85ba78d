import numpy as np
import pytest

from nugs.prng import uniform_signed

_MASK = (1 << 64) - 1


def _scalar_words(seed, n):
    """SplitMix64 one word at a time on Python integers, as the algorithm reads."""
    state, words = seed & _MASK, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        words.append(z ^ (z >> 31))
    return words


def _signed(word):
    return 2.0 * ((word >> 11) * 2.0**-53) - 1.0


def test_reference_sequence():
    # SplitMix64 with seed 1234567: first outputs of the reference algorithm,
    # of which a double keeps the top 53 bits, exactly
    words = [6457827717110365317, 3203168211198807973, 9817491932198370423]
    assert _scalar_words(1234567, 3) == words
    assert uniform_signed(1234567, 3).tolist() == [_signed(w) for w in words]


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234567, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 2, 267, 5000])
def test_vectorized_draw_bitwise_equal_to_scalar_loop(seed, n):
    got = uniform_signed(seed, n)
    want = np.array([_signed(w) for w in _scalar_words(seed, n)])
    assert got.dtype == float and got.shape == (n,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_uniform_range_and_determinism():
    vals = uniform_signed(42, 1000)
    assert np.all((vals >= -1.0) & (vals < 1.0))
    assert np.array_equal(vals, uniform_signed(42, 1000))
    # a longer draw extends a shorter one
    assert np.array_equal(uniform_signed(42, 10), vals[:10])


def test_seeds_decorrelate():
    assert uniform_signed(0, 1)[0] != uniform_signed(1, 1)[0]
