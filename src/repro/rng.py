"""Seeded randomness helpers and the packed pickled form of a generator.

All randomized code in this library accepts a ``seed`` argument that may
be ``None`` (fresh entropy), an ``int`` (deterministic), or an existing
:class:`random.Random` / :class:`numpy.random.Generator` instance.  The
helpers here normalize those inputs so that every experiment in the
benchmark harness is reproducible bit-for-bit from a single integer.

Simulated vertices draw only through their own scalar
``random.Random`` (``VertexContext.rng``), so a run's outcome is fixed
by its seeds and its draw order alone.

The module also owns the packed pickled form of an exact
``random.Random`` (:func:`reduce_random` / :func:`rebuild_random`),
which checkpoints use from schema 2 on.

NumPy is optional: when it is missing, ``HAVE_NUMPY`` is False and the
columnar round kernels of :mod:`repro.congest.kernels` stay off, so
every simulation steps its vertices one by one.
"""

from __future__ import annotations

import random
import sys
from array import array
from typing import Union

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
    equals the original's.  Install it in a pickler's
    ``dispatch_table`` under ``random.Random`` (an exact-type lookup,
    so subclasses keep default pickling), as the checkpoint serializer
    :func:`repro.congest.checkpoint.dump_state` does.

    Both names are frozen.  From checkpoint schema 2 on, every saved
    state blob names ``repro.rng.rebuild_random``, so renaming or moving
    it breaks every saved checkpoint; this reducer stays paired with it.
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


def fresh_random_from_state(state) -> random.Random:
    """A ``random.Random`` carrying ``state`` without the cost (and the
    entropy consumption) of default seeding."""
    rng = random.Random.__new__(random.Random)
    rng.setstate(state)
    return rng
