"""Seeded randomness helpers and the pickled forms of a generator.

All randomized code in this library accepts a ``seed`` argument that may
be ``None`` (fresh entropy), an ``int`` (deterministic), or an existing
:class:`random.Random` / :class:`numpy.random.Generator` instance.  The
helpers here normalize those inputs so that every experiment in the
benchmark harness is reproducible bit-for-bit from a single integer.

Simulated vertices draw only through their own scalar
``random.Random`` (``VertexContext.rng``), so a run's outcome is fixed
by its seeds and its draw order alone.

The module also owns the two pickled forms of an exact
``random.Random`` that checkpoints use.  A vertex generator still
within its first 624 words since seeding is its seed and the number of
words drawn (:func:`reduce_seeded_random` /
:func:`rebuild_seeded_random`, from schema 3 on); any other is its
packed MT19937 words (:func:`reduce_random` / :func:`rebuild_random`,
from schema 2 on).  Both rebuilders' names are frozen: saved
checkpoints name them.

NumPy is optional: when it is missing, ``HAVE_NUMPY`` is False and the
columnar round kernels of :mod:`repro.congest.kernels` stay off, so
every simulation steps its vertices one by one.
"""

from __future__ import annotations

import random
import sys
from array import array
from typing import Any, Dict, Union

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

HAVE_NUMPY = np is not None

SeedLike = Union[None, int, random.Random]
if HAVE_NUMPY:
    NumpySeedLike = Union[None, int, "np.random.Generator"]
else:  # pragma: no cover - no-numpy degradation
    NumpySeedLike = Union[None, int]


def ensure_rng(seed: SeedLike = None) -> random.Random:
    """Return a :class:`random.Random` for ``seed``.

    Passing an existing ``random.Random`` returns it unchanged so that a
    caller can thread one generator through multiple subroutines.
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def ensure_numpy_rng(seed: NumpySeedLike = None):
    """Return a :class:`numpy.random.Generator` for ``seed``."""
    if np is None:  # pragma: no cover - no-numpy degradation
        raise RuntimeError(
            "numpy is unavailable; this code path requires it"
        )
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


#: MT19937 state length (Matsumoto & Nishimura 1998), as in CPython.
_N = 624

#: random.Random state tuple version this module understands.
_STATE_VERSION = 3

#: ``array`` typecode of one unsigned 32-bit MT19937 word on this
#: platform; ``None`` on an ABI with no 4-byte typecode, where
#: :func:`reduce_random` keeps default pickling.
_WORD_CODE = next((code for code in "IL" if array(code).itemsize == 4), None)

#: Packed words are little-endian on disk whatever the host's order.
_SWAP_WORDS = sys.byteorder != "little"


def reduce_random(rng: random.Random):
    """Pickle reducer: an exact ``random.Random`` as packed MT19937 words.

    ``Random.__reduce__`` pickles the state as a tuple of 625 Python
    ints, so a checkpoint of a few thousand materialized vertex streams
    is mostly integer opcodes.  This reducer writes the 624 key words
    as 2496 little-endian bytes plus the position and ``gauss_next``;
    :func:`rebuild_random` restores a generator whose ``getstate()``
    equals the original's.  The checkpoint serializer
    :func:`repro.congest.checkpoint.dump_state` applies it to every
    exact ``random.Random`` (subclasses keep default pickling) that
    :func:`reduce_seeded_random` cannot write as seed and count.

    Both names are frozen.  Schema-2 state blobs name
    ``repro.rng.rebuild_random`` for every generator and schema-3 blobs
    for each one that is not written as seed and count, so renaming or
    moving it breaks saved checkpoints; this reducer stays paired with
    it.
    """
    version, internal, gauss = rng.getstate()
    if (
        _WORD_CODE is None
        or version != _STATE_VERSION
        or len(internal) != _N + 1
    ):
        return rng.__reduce__()
    words = array(_WORD_CODE, internal)
    pos = words.pop()  # internal is the 624 key words, then the position
    if _SWAP_WORDS:
        words.byteswap()
    return rebuild_random, (words.tobytes(), pos, gauss)


def rebuild_random(words: bytes, pos: int, gauss) -> random.Random:
    """Unpickle what :func:`reduce_random` wrote (name frozen, see there)."""
    key = array(_WORD_CODE)
    key.frombytes(words)
    if _SWAP_WORDS:
        key.byteswap()
    key.append(pos)
    return fresh_random_from_state((_STATE_VERSION, tuple(key), gauss))


def reduce_seeded_random(
    rng: random.Random, seed: Any, keys: Dict[Any, array]
):
    """Pickle reducer: ``rng`` as ``seed`` and the number of 32-bit
    words drawn since it was ``random.Random(seed)``, when that is at
    most 624; else as packed words (:func:`reduce_random`).

    A vertex's randomness is its seed and its draw count, so this form
    costs a few bytes where the packed one costs 2,496.  The seed lives
    in the vertex context, not in the generator, so the caller names
    it: :func:`repro.congest.checkpoint.dump_state` passes each
    context's seed for that context's generator.

    Exact, never a sample: a count is written only when
    ``rebuild_seeded_random(seed, count)`` has ``rng``'s very state —
    all 624 key words, the position, and no cached ``gauss_next``.  A
    seeded generator holds its seed's key at position 624 until its
    first draw twists the key; its next 623 draws move only the
    position, up to 624 again.  So at position 624 it drew 0 or 624
    words, and the key tells which.  ``keys`` caches each seed's
    twisted key (2,496 bytes) across calls, so checking the same
    generators again reads only their live state.

    :func:`rebuild_seeded_random`'s name is frozen: from checkpoint
    schema 3 on, saved state blobs name it.
    """
    version, internal, gauss = rng.getstate()
    if (
        _WORD_CODE is None
        or version != _STATE_VERSION
        or len(internal) != _N + 1
        or gauss is not None
    ):
        return reduce_random(rng)
    words = array(_WORD_CODE, internal)
    pos = words.pop()
    twisted = keys.get(seed)
    if twisted is None:
        twisted = keys[seed] = _key_words(seed, 1)
    if pos and words == twisted:
        return rebuild_seeded_random, (seed, pos)
    if pos == _N and words == _key_words(seed, 0):
        return rebuild_seeded_random, (seed, 0)
    return reduce_random(rng)


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


def fresh_random_from_state(state) -> random.Random:
    """A ``random.Random`` carrying ``state`` without the cost (and the
    entropy consumption) of default seeding."""
    rng = random.Random.__new__(random.Random)
    rng.setstate(state)
    return rng
