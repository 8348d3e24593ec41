"""Counter-based, splittable random number streams.

Every sampler in the package takes an owned ``numpy.random.Generator``.
Streams are derived from a master seed and an integer stream id through
``SeedSequence`` spawn keys on top of the Philox counter-based generator, so
replicas can run in any order (or in parallel) and still reproduce bit for
bit.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Return the generator for (seed, stream_id).

    Calls with the same pair always yield an identical stream; distinct
    stream ids give statistically independent streams.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.Philox(ss))

