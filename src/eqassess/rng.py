"""Deterministic, schedule-independent random streams.

Every stochastic routine takes an RngStream. A stream is identified by
(master_seed, stream_index) plus the path of substream splits that produced
it, so replicate k of any procedure can always use substream(k) and the
result is independent of evaluation order or parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RngStream:
    master_seed: int
    stream_index: int = 0
    path: tuple = field(default=())

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed,
                                     spawn_key=(*self.path, self.stream_index))
        return np.random.default_rng(seq)

    def substream(self, k: int) -> "RngStream":
        """Independent child stream k; children of distinct streams never collide."""
        return RngStream(self.master_seed, k, (*self.path, self.stream_index))


def pmap(fn, n: int) -> list:
    """Map fn over range(n), gathered by index.

    Runs serially: a replicate takes well under a millisecond, so worker
    threads would cost more than they save.
    """
    return [fn(i) for i in range(n)]
