"""Bulk draws from a :class:`random.Random`, equal to its one-at-a-time calls.

The cluster streams (arrival gaps, service times, ``random`` routing) need
tens of thousands of draws from a seeded stdlib generator.  Drawing them one
Python call at a time costs more than the transforms that use them, so these
helpers take the Mersenne Twister's 32-bit output words in one
``getrandbits`` call and apply CPython's own formulas to them with numpy:

* ``rng.getrandbits(32 * k)`` consumes exactly ``k`` words and returns them
  with the first word drawn in the least significant bits, so
  ``to_bytes(..., "little")`` lays them out in draw order;
* ``rng.random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` for two
  consecutive words ``a, b`` -- exact in float64, so the bulk values are the
  same floats;
* ``rng.randrange(n)`` keeps the top ``n.bit_length()`` bits of one word and
  draws again while the value is ``>= n``.

Both helpers leave ``rng`` in the state the equivalent loop leaves it in.
"""

from __future__ import annotations

import random

import numpy as np


def _words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit output words of ``rng``, in draw order."""
    return np.frombuffer(
        rng.getrandbits(32 * count).to_bytes(4 * count, "little"), dtype="<u4"
    )


def uniform_batch(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` values of ``rng.random()``, bit for bit, as float64."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    words = _words(rng, 2 * count)
    values = (words[0::2] >> 5).astype(np.float64)
    values *= 67108864.0
    values += words[1::2] >> 6
    values *= 1.0 / 9007199254740992.0
    return values


def randrange_batch(rng: random.Random, n: int, count: int) -> "list[int]":
    """The next ``count`` values of ``rng.randrange(n)``, as a list.

    Each round draws one word per value still missing and keeps those below
    ``n``; no round draws more words than the loop would, so ``rng`` ends in
    the loop's state.  Only ``1 <= n < 2**32`` is replayed: wider ranges take
    several words per draw.
    """
    if n < 1 or n.bit_length() > 32:
        raise ValueError(f"n must be in [1, 2**32), got {n}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    shift = 32 - n.bit_length()
    rounds = []
    missing = count
    while missing:
        values = _words(rng, missing) >> shift
        values = values[values < n]
        rounds.append(values)
        missing -= len(values)
    if not rounds:
        return []
    return np.concatenate(rounds).tolist()
