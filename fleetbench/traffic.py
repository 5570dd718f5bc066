"""Seeded traffic: which pool blob goes out under which upload id, when.

The pool is fixed per source tree; the seed picks the order, the
upload ids and the arrival gaps.  Unique uploads walk the recorded
bases round-robin (in a seeded order, from a seeded variant offset),
so every seed sends the same mix of programs and no blob twice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from fleetbench.common import BenchError


@dataclass(frozen=True)
class Upload:
    upload_id: str
    label: str
    blob: bytes
    digest: "str | None"         # oracle verdict; None = must be rejected


class Uniques:
    """Byte-distinct blobs from one pool class, stratified by base."""

    def __init__(self, blobs, bases: int, rng: random.Random) -> None:
        self.blobs = blobs
        self.bases = bases
        self.per_base = len(blobs) // bases
        self.order = list(range(bases))
        rng.shuffle(self.order)
        self.offset = [rng.randrange(self.per_base) for _ in range(bases)]
        self.taken = 0

    def next(self):
        k = self.taken
        if k >= self.bases * self.per_base:
            raise BenchError("input pool exhausted: the run sent every "
                             "distinct blob it has")
        self.taken += 1
        base = self.order[k % self.bases]
        index = (self.offset[base] + k // self.bases) % self.per_base
        return self.blobs[base * self.per_base + index]


class Stream:
    """An endless, seeded sequence of uploads for one workload.

    *duplicate_share* of uploads re-send a blob this stream already
    sent, byte for byte, under a fresh upload id; every
    *corrupt_every*-th upload is a corrupt blob.
    """

    def __init__(self, name: str, seed: int, uniques_from, bases: int,
                 duplicate_share: float = 0.0, corrupt=(),
                 corrupt_every: int = 0) -> None:
        self.rng = random.Random(f"{name}/{seed}")
        self.name = name
        self.seed = seed
        self.uniques = Uniques(uniques_from, bases, self.rng)
        self.block = (round(1 / (1 - duplicate_share))
                      if duplicate_share else 1)
        self.corrupt = list(corrupt)
        self.rng.shuffle(self.corrupt)
        self.corrupt_every = corrupt_every
        self.sent: "list" = []
        self.count = 0
        self._unique_slot = 0

    def _upload_id(self) -> str:
        return (f"{self.name}-{self.seed}-{self.count:06d}-"
                f"{self.rng.getrandbits(32):08x}")

    def next(self) -> Upload:
        count = self.count
        if self.corrupt_every and count % self.corrupt_every == \
                self.corrupt_every - 1:
            slot = count // self.corrupt_every
            if slot >= len(self.corrupt):
                raise BenchError("corrupt pool exhausted")
            item, kind = self.corrupt[slot], "corrupt"
        else:
            position = count % self.block
            if position == 0:
                # Where the block's one unique upload sits; the first
                # block leads with it so a duplicate always has a source.
                self._unique_slot = (0 if not self.sent
                                     else self.rng.randrange(self.block))
            if position == self._unique_slot:
                item, kind = self.uniques.next(), "unique"
                self.sent.append(item)
            else:
                item, kind = self.rng.choice(self.sent), "duplicate"
        upload = Upload(self._upload_id(), f"{kind}-{count}", item.blob,
                        item.digest)
        self.count += 1
        return upload


def arrival_gaps(rng: random.Random, rate: float):
    """Seeded gaps between due times: uniform within +-50% of the mean
    gap, so the offered rate is exact on average without bursts that a
    two-connection generator could not deliver."""
    while True:
        yield rng.uniform(0.5, 1.5) / rate
