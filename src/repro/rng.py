"""Seeded randomness helpers and the pickled form of a vertex generator.

All randomized code in this library accepts a ``seed`` argument that may
be ``None`` (fresh entropy), an ``int`` (deterministic), or an existing
:class:`random.Random` / :class:`numpy.random.Generator` instance.  The
helpers here normalize those inputs so that every experiment in the
benchmark harness is reproducible bit-for-bit from a single integer.

Simulated vertices draw only through their own scalar
``random.Random`` (``VertexContext.rng``), so a run's outcome is fixed
by its seeds and its draw order alone.

The module also owns the pickled form of a vertex generator that
checkpoints use: a generator still within its first 624 words since
seeding is its seed and the number of words drawn
(:func:`reduce_seeded_random` / :func:`rebuild_seeded_random`); any
other pickles the default way.  The rebuilder's name is frozen: saved
checkpoints name it.
"""

from __future__ import annotations

import random
from array import array
from typing import Any, Dict, Union

import numpy as np

SeedLike = Union[None, int, random.Random]
NumpySeedLike = Union[None, int, np.random.Generator]


def ensure_rng(seed: SeedLike = None) -> random.Random:
    """Return a :class:`random.Random` for ``seed``.

    Passing an existing ``random.Random`` returns it unchanged so that a
    caller can thread one generator through multiple subroutines.
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def ensure_numpy_rng(seed: NumpySeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


#: MT19937 state length (Matsumoto & Nishimura 1998), as in CPython.
_N = 624

#: random.Random state tuple version this module understands.
_STATE_VERSION = 3

#: ``array`` typecode of one unsigned 32-bit MT19937 word on this
#: platform; ``None`` on an ABI with no 4-byte typecode, where
#: :func:`reduce_seeded_random` leaves every generator to default
#: pickling.
_WORD_CODE = next((code for code in "IL" if array(code).itemsize == 4), None)


def reduce_seeded_random(
    rng: random.Random, seed: Any, keys: Dict[Any, array]
):
    """Pickle reducer: ``rng`` as ``seed`` and the number of 32-bit
    words drawn since it was ``random.Random(seed)``, when that is at
    most 624; else ``None``, and ``rng`` pickles the default way.

    A vertex's randomness is its seed and its draw count, so this form
    costs a few bytes where the default one costs 625 Python ints.  The
    seed lives in the vertex context, not in the generator, so the
    caller names it: :func:`repro.congest.checkpoint.dump_state` passes
    each context's seed for that context's generator.

    Exact, never a sample: a count is written only when
    ``rebuild_seeded_random(seed, count)`` has ``rng``'s very state —
    all 624 key words, the position, and no cached ``gauss_next``.  A
    seeded generator holds its seed's key at position 624 until its
    first draw twists the key; its next 623 draws move only the
    position, up to 624 again.  So at position 624 it drew 0 or 624
    words, and the key tells which.  ``keys`` caches each seed's
    twisted key (2,496 bytes) across calls, so checking the same
    generators again reads only their live state.

    :func:`rebuild_seeded_random`'s name is frozen: saved state blobs
    name it.
    """
    version, internal, gauss = rng.getstate()
    if (
        _WORD_CODE is None
        or version != _STATE_VERSION
        or len(internal) != _N + 1
        or gauss is not None
    ):
        return None
    words = array(_WORD_CODE, internal)
    pos = words.pop()
    twisted = keys.get(seed)
    if twisted is None:
        twisted = keys[seed] = _key_words(seed, 1)
    if pos and words == twisted:
        return rebuild_seeded_random, (seed, pos)
    if pos == _N and words == _key_words(seed, 0):
        return rebuild_seeded_random, (seed, 0)
    return None


def _key_words(seed: Any, drawn: int) -> array:
    """The 624 key words of ``rebuild_seeded_random(seed, drawn)``."""
    words = array(
        _WORD_CODE, rebuild_seeded_random(seed, drawn).getstate()[1]
    )
    words.pop()
    return words


def rebuild_seeded_random(seed: Any, drawn: int) -> random.Random:
    """``random.Random(seed)`` after drawing ``drawn`` 32-bit words:
    what :func:`reduce_seeded_random` wrote (name frozen, see there)."""
    if not 0 <= drawn <= _N:
        raise ValueError(
            f"a seeded generator has drawn 0 to {_N} words, not {drawn}"
        )
    rng = random.Random(seed)
    rng.getrandbits(32 * drawn)
    return rng

