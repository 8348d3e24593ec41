"""Counter-based, splittable random number streams.

Every sampler in the package takes an owned ``numpy.random.Generator``.
Streams come from a master seed and an integer stream id through
``SeedSequence`` spawn keys on the Philox counter-based generator. Stages
with ids of their own reproduce bit for bit in any order (or in parallel);
the replicas of a stage share its stream and reproduce only in turn, so a
change in how much one replica draws moves the draws of every later one.
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

