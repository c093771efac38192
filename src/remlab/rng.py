"""Deterministic keyed random streams built on the Philox counter generator.

Every random quantity in this package is addressed by a triple
``(master_seed, replica_id, stream_label)``.  The triple is packed
injectively into a 128-bit Philox key, so distinct triples yield
statistically independent streams and the same triple always replays
the same stream, regardless of process, worker count, or call order.

Philox is counter based: constructing it with ``counter=c`` positions
the stream at 64-bit draw ``4*c`` (one 256-bit counter block yields four
64-bit outputs, and one ``random()`` double consumes one output).  That
gives O(1) random access into a replica's energy stream.  The generator
buffers the rest of a counter block, so drawing from it again continues
at the next position: a ``UniformStream`` keeps one generator and the
position it stands at, and ``uniform_block`` draws a run of positions
block after block from it into a buffer the caller reuses, making a new
generator only where a block does not start where the last one stopped.
The doubles are the same, bit for bit, however the run is split into
blocks.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

# Stream labels used by the package.  Values below 2**16 are valid;
# labels not listed here are free for callers (tests use 100+).
ENERGY_STREAM = 0
POISSON_STREAM = 1
STICK_STREAM = 2
RETRY_SEED_INCREMENT = 1  # documented retry rule: master_seed + 1

MAX_SEED = 1 << 64  # master seeds lie in [0, MAX_SEED)
_REPLICA_BITS = 48
_LABEL_BITS = 16


def seed_derivation(master_seed: int, replica_id: int, stream_label: int = 0) -> int:
    """Pack (master_seed, replica_id, stream_label) into a 128-bit stream key.

    Layout: high 64 bits are the master seed, low 64 bits are
    ``replica_id * 2**16 + stream_label``.  The packing is injective on
    the validated domain, so no two triples share a key.
    """
    if not isinstance(master_seed, (int, np.integer)) or isinstance(master_seed, bool):
        raise ValueError(f"master_seed must be an integer, got {master_seed!r}")
    if not 0 <= master_seed < MAX_SEED:
        raise ValueError(f"master_seed must be in [0, 2**64), got {master_seed}")
    if not isinstance(replica_id, (int, np.integer)) or isinstance(replica_id, bool):
        raise ValueError(f"replica_id must be an integer, got {replica_id!r}")
    if not 0 <= replica_id < (1 << _REPLICA_BITS):
        raise ValueError(f"replica_id must be in [0, 2**48), got {replica_id}")
    if not 0 <= stream_label < (1 << _LABEL_BITS):
        raise ValueError(f"stream_label must be in [0, 2**16), got {stream_label}")
    return (int(master_seed) << 64) | (int(replica_id) << _LABEL_BITS) | int(stream_label)


def stream_generator(master_seed: int, replica_id: int, stream_label: int = 0) -> Generator:
    """A fresh Generator positioned at the start of the addressed stream."""
    return Generator(Philox(key=seed_derivation(master_seed, replica_id, stream_label)))


class UniformStream:
    """One keyed stream read in order by one Philox generator.

    ``position`` is the stream position of the generator's next double.
    ``uniform_block`` draws from it and moves it on; asked for positions
    that do not start at ``position``, it first moves the generator there.
    """

    __slots__ = ("key", "position", "_gen")

    def __init__(self, key: int, position: int = 0) -> None:
        self.key = key
        self.seek(position)

    def seek(self, position: int) -> None:
        """Stand the generator at ``position``."""
        if position < 0:
            raise ValueError(f"invalid stream position {position}")
        block, skip = divmod(position, 4)
        self._gen = Generator(Philox(key=self.key, counter=block))
        self._gen.random(skip)  # the positions of the counter block before ``position``
        self.position = position


def uniform_block(
    stream: UniformStream, start: int, stop: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Uniform [0, 1) doubles at positions [start, stop) of a keyed stream.

    ``stream`` then stands at ``stop``; one that stands at ``start``
    draws on without a new generator.  The doubles are written into
    ``out`` when it is given, a float64 array of ``stop - start``
    entries, and returned.

    Deterministic random access: the same (key, position) always yields
    the same double, whether positions are visited in one sweep or in
    arbitrary disjoint blocks.
    """
    if start < 0 or stop < start:
        raise ValueError(f"invalid block [{start}, {stop})")
    if stream.position != start:
        stream.seek(start)
    if out is None:
        out = np.empty(stop - start)
    elif out.shape != (stop - start,):
        raise ValueError(f"out has shape {out.shape}, not ({stop - start},)")
    stream._gen.random(out=out)
    stream.position = stop
    return out
