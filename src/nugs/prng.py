"""Small deterministic pseudorandom generator used for sample-scheme jitter.

The generator is SplitMix64 (Steele, Lea & Flood, 2014): a 64-bit counter
advanced by the golden-gamma constant, followed by a finalizing mix.  It is
implemented here rather than taken from ``numpy.random`` so that generated
sample sets are bit-reproducible from the seed alone, independent of any
library version or platform.

State transition and output, all arithmetic mod 2**64:

    state  += 0x9E3779B97F4A7C15
    z       = state
    z       = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z       = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output  = z ^ (z >> 31)

Uniform doubles take the top 53 bits, giving values in [0, 1).
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Seeded 64-bit generator with documented algorithm."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_raw(self) -> int:
        """Next 64-bit output word."""
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_raw() >> 11) * 2.0**-53

    def uniform_signed(self) -> float:
        """Uniform double in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0
