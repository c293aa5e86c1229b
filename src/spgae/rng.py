"""Named, seedable random streams.

Every stochastic step in the package draws from one of a few named streams so
that a single integer seed pins down the whole experiment.  Streams are
independent PCG64 generators derived from ``SeedSequence(seed, spawn_key)``,
which is stable across platforms and numpy versions.
"""

from __future__ import annotations

import numpy as np

# Stream name -> spawn key.  Adding a stream must not renumber existing ones.
STREAMS = {
    "data": 0,    # synthetic data generation, dataset subsampling
    "init": 1,    # variable / network initialisation
    "batch": 2,   # minibatch permutations
    "bench": 3,   # benchmark instance generation
    "test": 4,    # L0 estimators' probes (spg-ada warm start, --theoretical-L), tests
}


def stream(seed: int, purpose: str) -> np.random.Generator:
    """Return the generator for a named stream under ``seed``."""
    if purpose not in STREAMS:
        raise ValueError(f"unknown stream {purpose!r}; known: {sorted(STREAMS)}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(STREAMS[purpose],))
    return np.random.Generator(np.random.PCG64(ss))
