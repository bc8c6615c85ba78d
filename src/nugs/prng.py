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

The i-th state (from 1) is seed + i * gamma, so all N outputs are computed
at once on ``uint64`` arrays, whose arithmetic wraps mod 2**64 (numpy
scalars would warn on that overflow).  Uniform doubles take the top 53 bits,
u in [0, 1), and signed ones are 2u - 1.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def uniform_signed(seed: int, n: int) -> np.ndarray:
    """The first n outputs of SplitMix64 seeded with ``seed`` as doubles in
    [-1, 1)."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z += np.uint64(int(seed) & _MASK)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    z ^= z >> 31
    return 2.0 * ((z >> 11).astype(float) * 2.0**-53) - 1.0
