"""Deterministic keyed random streams built on the Philox counter generator.

Every random quantity in this package is addressed by a triple
``(master_seed, replica_id, stream_label)``.  The triple is packed
injectively into a 128-bit Philox key, so distinct triples yield
statistically independent streams and the same triple always replays
the same stream, regardless of process, worker count, or call order.

Philox is counter based: constructing it with ``counter=c`` positions
the stream at 64-bit draw ``4*c`` (one 256-bit counter block yields four
64-bit outputs, and one ``random()`` double consumes one output).  That
gives O(1) random access into a replica's energy stream:
``stream_generator`` stands a generator at any position, and drawing
from it continues position after position.  The doubles are the same,
bit for bit, however a run of positions is split into draws.
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
_SEED_SHIFT = _REPLICA_BITS + _LABEL_BITS  # 64
# The layout of ``seed_derivation``'s key, as ``summary.json`` records it.
KEY_SCHEME = f"(master_seed << {_SEED_SHIFT}) | (replica_id << {_LABEL_BITS}) | stream"


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
    return (int(master_seed) << _SEED_SHIFT) | (int(replica_id) << _LABEL_BITS) | int(stream_label)


def stream_generator(
    master_seed: int, replica_id: int, stream_label: int = 0, position: int = 0
) -> Generator:
    """A fresh Generator whose next double is the one at ``position`` of the addressed stream."""
    if position < 0:
        raise ValueError(f"invalid stream position {position}")
    block, skip = divmod(position, 4)
    key = seed_derivation(master_seed, replica_id, stream_label)
    gen = Generator(Philox(key=key, counter=block))
    gen.random(skip)  # the positions of the counter block before ``position``
    return gen


def uniform_block(gen: Generator, out: np.ndarray) -> np.ndarray:
    """Fill the float64 array ``out`` with ``gen``'s next uniform [0, 1) doubles and return it."""
    gen.random(out=out)
    return out
