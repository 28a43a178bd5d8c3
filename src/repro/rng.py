"""Seeded randomness helpers and exact Mersenne-Twister vectorization.

All randomized code in this library accepts a ``seed`` argument that may
be ``None`` (fresh entropy), an ``int`` (deterministic), or an existing
:class:`random.Random` / :class:`numpy.random.Generator` instance.  The
helpers here normalize those inputs so that every experiment in the
benchmark harness is reproducible bit-for-bit from a single integer.

The module is also the home of the library's one license to go fast
without changing a single simulated outcome: :class:`MTStream` (one
``random.Random`` consumed in NumPy batches) and :class:`MTColumn`
(many per-vertex ``random.Random`` streams held as the rows of one
matrix).  Both reproduce CPython's MT19937 word-for-word — the same
twist, the same tempering, the same word-pair-to-float ``random()``
construction, the same ``_randbelow`` rejection loop, and the same
``init_by_array`` seeding — so batched draws and scalar draws observe
one identical stream, and state can be committed back into the Python
generators at any observation point.

It also owns the packed pickled form of an exact ``random.Random``
(:func:`reduce_random` / :func:`rebuild_random`), which checkpoints
use from schema 2 on.

NumPy is optional: when it is missing (or ``REPRO_NO_NUMPY`` is set),
``HAVE_NUMPY`` is False, the vectorized classes refuse construction,
and every consumer (walk-exchange vectorization, the columnar round
kernels of :mod:`repro.congest.kernels`) silently degrades to its
scalar path.

Reference: CPython ``_randommodule.c`` (``genrand_uint32``,
``init_by_array``, ``random_random``) and ``Lib/random.py``
(``_randbelow_with_getrandbits``).
"""

from __future__ import annotations

import os
import random
import sys
from array import array
from typing import List, Optional, Sequence, Union

try:  # pragma: no cover - exercised via the no-numpy CI leg
    if os.environ.get("REPRO_NO_NUMPY"):
        raise ImportError("numpy disabled by REPRO_NO_NUMPY")
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


def derive_seed(rng: random.Random, stream: str) -> int:
    """Derive a deterministic sub-seed for a named random stream.

    Distributed simulations run many independent randomized components
    (one per vertex, per cluster, per phase).  Deriving per-component
    seeds from one root generator keeps runs reproducible regardless of
    the order in which components consume randomness.
    """
    # Mix the stream name into the draw so distinct streams with the
    # same root generator do not collide.
    base = rng.getrandbits(64)
    return hash((base, stream)) & 0x7FFFFFFFFFFFFFFF


def split_rng(rng: random.Random, n: int) -> list:
    """Split ``rng`` into ``n`` independent child generators."""
    if n < 0:
        raise ValueError("cannot split into a negative number of generators")
    return [random.Random(rng.getrandbits(64)) for _ in range(n)]


# ---------------------------------------------------------------------------
# Exact MT19937 vectorization
# ---------------------------------------------------------------------------

#: MT19937 parameters (Matsumoto & Nishimura 1998), as in CPython.
_N = 624
_M = 397
_MATRIX_A = 0x9908B0DF
_UPPER_MASK = 0x80000000
_LOWER_MASK = 0x7FFFFFFF

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


def _twist_block(key):
    """One MT19937 state transition on the last axis of ``key``.

    ``key`` is a ``(..., 624)`` uint32 array: a single adopted stream
    (1-D) or a stack of per-vertex streams (2-D), twisted identically.

    The scalar reference updates ``mt[kk]`` in place for ascending
    ``kk``; every ``y`` is built from values the loop has not yet
    overwritten, so all 623 leading ``y`` words come straight from the
    old key.  The recurrence's only true dependency is
    ``new[kk] = f(new[kk - 227])`` for ``kk >= 227``, a chain of stride
    227 — two chunked assignments resolve it exactly.
    """
    up = np.uint32(_UPPER_MASK)
    low = np.uint32(_LOWER_MASK)
    one = np.uint32(1)
    mat = np.uint32(_MATRIX_A)
    new = np.empty_like(key)
    y = (key[..., : _N - 1] & up) | (key[..., 1:] & low)
    ysh = (y >> one) ^ ((y & one) * mat)
    new[..., : _N - _M] = key[..., _M:] ^ ysh[..., : _N - _M]
    new[..., 227:454] = new[..., 0:227] ^ ysh[..., 227:454]
    new[..., 454:623] = new[..., 227:396] ^ ysh[..., 454:623]
    y_last = (key[..., _N - 1] & up) | (new[..., 0] & low)
    new[..., _N - 1] = (
        new[..., _M - 1] ^ (y_last >> one) ^ ((y_last & one) * mat)
    )
    return new


def _temper(y):
    """MT19937 output tempering, elementwise on a uint32 array."""
    y = y ^ (y >> np.uint32(11))
    y = y ^ ((y << np.uint32(7)) & np.uint32(0x9D2C5680))
    y = y ^ ((y << np.uint32(15)) & np.uint32(0xEFC60000))
    y = y ^ (y >> np.uint32(18))
    return y


class MTStream:
    """A batched, commit-back-able clone of one ``random.Random``.

    The instance owns the generator's stream from adoption until
    :meth:`commit`; interleaving scalar draws on the original object in
    between would desynchronize the two (exactly as sharing one
    generator between two consumers always would).
    """

    __slots__ = ("_rng", "_key", "_pos", "_gauss")

    def __init__(self, rng: random.Random) -> None:
        if np is None:  # pragma: no cover - callers gate on HAVE_NUMPY
            raise RuntimeError("MTStream requires numpy")
        version, internal, gauss = rng.getstate()
        if version != _STATE_VERSION or len(internal) != _N + 1:
            raise ValueError(
                f"unsupported random.Random state version {version!r}"
            )
        self._rng = rng
        self._key = np.array(internal[:_N], dtype=np.uint32)
        self._pos = int(internal[_N])
        self._gauss = gauss

    # -- core word generation ------------------------------------------
    def _twist(self) -> None:
        """One vectorized MT19937 state transition."""
        self._key = _twist_block(self._key)
        self._pos = 0

    _temper = staticmethod(_temper)

    def words(self, count: int):
        """The next ``count`` 32-bit output words, in stream order."""
        out = np.empty(count, np.uint32)
        filled = 0
        while filled < count:
            if self._pos >= _N:
                self._twist()
            take = min(_N - self._pos, count - filled)
            out[filled : filled + take] = _temper(
                self._key[self._pos : self._pos + take]
            )
            self._pos += take
            filled += take
        return out

    # -- distribution-level batches ------------------------------------
    def random_batch(self, count: int):
        """``count`` floats, bit-identical to ``rng.random()`` calls.

        CPython builds each double from two consecutive words:
        ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``.
        """
        w = self.words(2 * count)
        a = (w[0::2] >> np.uint32(5)).astype(np.float64)
        b = (w[1::2] >> np.uint32(6)).astype(np.float64)
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def randbelow_batch(self, n: int, count: int) -> Sequence[int]:
        """``count`` ints below ``n``, identical to ``rng._randbelow``.

        The scalar rejection loop draws ``k = n.bit_length()`` top bits
        of one word per attempt until the value falls below ``n``.
        Batching draws exactly as many words as acceptances still
        needed, keeps the accepted values in word order, and repeats:
        the loop can only terminate on a chunk whose final word was
        itself an acceptance, so the total words consumed equal the
        scalar loop's consumption exactly — never one word more.
        """
        if count <= 0:
            return np.empty(0, np.uint32)
        if n <= 0:
            raise ValueError("n must be positive")
        if n.bit_length() > 32:
            # Multi-word getrandbits has different consumption; every
            # in-repo bound is a vertex/neighbor count, far below 2^32.
            raise ValueError("randbelow_batch supports bounds < 2**32")
        shift = np.uint32(32 - n.bit_length())
        chunks: List = []
        accepted = 0
        while accepted < count:
            r = self.words(count - accepted) >> shift
            good = r[r < n]
            accepted += len(good)
            chunks.append(good)
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    # -- handing the stream back ---------------------------------------
    def commit(self) -> None:
        """Write the advanced state back into the adopted generator.

        After this call the original ``random.Random`` continues the
        stream exactly where the batched draws left off.
        """
        state = tuple(self._key.tolist()) + (self._pos,)
        self._rng.setstate((_STATE_VERSION, state, self._gauss))


# -- vectorized CPython-exact seeding ---------------------------------------

_GENRAND_BASE = None  # lazily computed init_genrand(19650218) state


def _init_genrand_base():
    """The shared ``init_genrand(19650218)`` state ``init_by_array``
    starts from (CPython seeds every int through ``init_by_array``)."""
    global _GENRAND_BASE
    if _GENRAND_BASE is None:
        mt = [0] * _N
        mt[0] = 19650218
        for i in range(1, _N):
            mt[i] = (
                1812433253 * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i
            ) & 0xFFFFFFFF
        _GENRAND_BASE = np.array(mt, dtype=np.uint32)
    return _GENRAND_BASE


def _seed_key(seed: int) -> List[int]:
    """``seed`` as CPython's ``init_by_array`` key: the 32-bit
    little-endian words of ``abs(seed)``, with ``0`` mapping to ``[0]``."""
    n = abs(int(seed))
    if n == 0:
        return [0]
    words = []
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


def mt_state_matrix(seeds: Sequence[int]):
    """Rows of MT19937 key state, one per seed, as ``random.Random(s)``
    would produce (verified word-exact by ``tests/test_kernels.py``).

    The 1247 ``init_by_array`` steps are sequential in the state index
    but independent across seeds, so each step runs vectorized over all
    rows sharing a key length (1-word and 2-word keys for the 64-bit
    per-vertex seeds; anything longer falls back to scalar seeding).
    """
    rows = len(seeds)
    out = np.empty((rows, _N), dtype=np.uint32)
    keys = [_seed_key(s) for s in seeds]
    by_len = {}
    for r, key in enumerate(keys):
        by_len.setdefault(len(key), []).append(r)
    for keylen, group in by_len.items():
        idx = np.array(group, dtype=np.intp)
        if keylen > 8:  # arbitrary-precision seeds: not worth vectorizing
            for r in group:
                state = random.Random(seeds[r]).getstate()[1]
                out[r] = np.array(state[:_N], dtype=np.uint32)
            continue
        key_rows = np.array(
            [keys[r] for r in group], dtype=np.uint32
        ).T.copy()  # (keylen, len(group))
        # Transposed (state-index-major) layout: every sequential step
        # touches contiguous rows instead of strided columns, which
        # roughly halves the seeding sweep for large vertex counts.
        mt = np.repeat(
            _init_genrand_base()[:, None], len(group), axis=1
        )
        m1 = np.uint32(1664525)
        m2 = np.uint32(1566083941)
        thirty = np.uint32(30)
        i, j = 1, 0
        for _ in range(_N):
            prev = mt[i - 1]
            mt[i] = (
                (mt[i] ^ ((prev ^ (prev >> thirty)) * m1))
                + key_rows[j]
                + np.uint32(j)
            )
            i += 1
            j += 1
            if i >= _N:
                mt[0] = mt[_N - 1]
                i = 1
            if j >= keylen:
                j = 0
        for _ in range(_N - 1):
            prev = mt[i - 1]
            mt[i] = (
                mt[i] ^ ((prev ^ (prev >> thirty)) * m2)
            ) - np.uint32(i)
            i += 1
            if i >= _N:
                mt[0] = mt[_N - 1]
                i = 1
        mt[0] = np.uint32(0x80000000)
        out[idx] = mt.T
    return out


class MTColumn:
    """Many per-vertex ``random.Random`` streams as rows of one matrix.

    Row ``i`` is an exact clone of vertex ``i``'s private generator;
    draws are *ragged*: each call names the rows that draw this round,
    and every named row consumes exactly the words its scalar twin
    would.  Rows are adopted lazily — from a bare integer seed (the
    vectorized ``init_by_array``) or from a live generator's state —
    and handed back via :meth:`state_of` at observation points
    (checkpoints, end of run), never per round: materializing 625-word
    tuples every round would cost more than the scalar path.

    The ``rows`` argument of every draw method must not contain
    duplicate indices (each vertex draws through one call per round).
    """

    def __init__(self, count: int) -> None:
        if np is None:  # pragma: no cover - callers gate on HAVE_NUMPY
            raise RuntimeError("MTColumn requires numpy")
        self._count = count
        self._key = None  # (count, 624) uint32, allocated on first adoption
        self._pos = None  # (count,) int64
        self._adopted = None  # (count,) bool
        self._dirty = None  # (count,) bool: drew since last state_of sweep
        self._gauss: List = [None] * count
        # Replay bookkeeping for the cheap hand-back path: rows adopted
        # from a bare seed remember it, plus how many twist blocks they
        # have burned, so ``fresh_randoms`` can rebuild the generator in
        # C (reseed + skip) instead of materializing a 625-word tuple.
        self._seed: List = [None] * count
        self._twists = None  # (count,) int64

    def _ensure(self) -> None:
        if self._key is None:
            self._key = np.zeros((self._count, _N), dtype=np.uint32)
            self._pos = np.full(self._count, _N, dtype=np.int64)
            self._adopted = np.zeros(self._count, dtype=bool)
            self._dirty = np.zeros(self._count, dtype=bool)
            self._twists = np.zeros(self._count, dtype=np.int64)

    # -- adoption -------------------------------------------------------
    def adopt_seeds(self, rows, seeds: Sequence[int]) -> None:
        """Adopt ``rows`` as freshly seeded generators (vectorized)."""
        self._ensure()
        idx = np.asarray(rows, dtype=np.intp)
        if idx.size == 0:
            return
        self._key[idx] = mt_state_matrix(seeds)
        self._pos[idx] = _N
        self._adopted[idx] = True
        self._twists[idx] = 0
        for r, s in zip(idx.tolist(), seeds):
            self._gauss[r] = None
            self._seed[r] = s

    def adopt_state(self, row: int, rng: random.Random) -> None:
        """Adopt one row from a live generator's current state."""
        self._ensure()
        version, internal, gauss = rng.getstate()
        if version != _STATE_VERSION or len(internal) != _N + 1:
            raise ValueError(
                f"unsupported random.Random state version {version!r}"
            )
        self._key[row] = np.array(internal[:_N], dtype=np.uint32)
        self._pos[row] = internal[_N]
        self._adopted[row] = True
        self._gauss[row] = gauss
        self._seed[row] = None  # unknown provenance: no replay shortcut
        self._twists[row] = 0

    def adopted(self, rows) -> bool:
        """Whether every row in ``rows`` has been adopted."""
        if self._adopted is None:
            return len(rows) == 0
        return bool(self._adopted[np.asarray(rows, dtype=np.intp)].all())

    # -- ragged draws ---------------------------------------------------
    def words_column(self, rows):
        """One 32-bit output word per row of ``rows``, per-row streams."""
        idx = np.asarray(rows, dtype=np.intp)
        pos = self._pos
        need = idx[pos[idx] >= _N]
        if need.size:
            self._key[need] = _twist_block(self._key[need])
            pos[need] = 0
            self._twists[need] += 1
        p = pos[idx]
        w = _temper(self._key[idx, p])
        pos[idx] = p + 1
        self._dirty[idx] = True
        return w

    def random_column(self, rows):
        """One ``random()`` float per row, bit-identical per stream."""
        a = (self.words_column(rows) >> np.uint32(5)).astype(np.float64)
        b = (self.words_column(rows) >> np.uint32(6)).astype(np.float64)
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def randbelow_column(self, rows, bounds):
        """One ``_randbelow(bounds[k])`` int per row, per-row bounds.

        Each pending row draws one word per rejection attempt, exactly
        like the scalar loop; rows accept independently.
        """
        idx = np.asarray(rows, dtype=np.intp)
        bounds = np.asarray(bounds, dtype=np.int64)
        if np.any(bounds <= 0):
            raise ValueError("bounds must be positive")
        if np.any(bounds >> np.int64(32)):
            raise ValueError("randbelow_column supports bounds < 2**32")
        # bit_length via frexp: exact for the int64 range (< 2**53).
        shift = (
            np.uint32(32)
            - np.frexp(bounds.astype(np.float64))[1].astype(np.uint32)
        )
        out = np.zeros(idx.size, dtype=np.int64)
        pending = np.arange(idx.size, dtype=np.intp)
        while pending.size:
            w = self.words_column(idx[pending])
            r = (w >> shift[pending]).astype(np.int64)
            ok = r < bounds[pending]
            out[pending[ok]] = r[ok]
            pending = pending[~ok]
        return out

    # -- handing streams back -------------------------------------------
    def dirty_rows(self):
        """Rows that drew since the last :meth:`clear_dirty`."""
        if self._dirty is None:
            return np.empty(0, dtype=np.intp)
        return np.nonzero(self._dirty)[0]

    def clear_dirty(self) -> None:
        if self._dirty is not None:
            self._dirty[:] = False

    def state_of(self, row: int):
        """The ``random.Random`` state tuple for one adopted row."""
        return (
            _STATE_VERSION,
            tuple(self._key[row].tolist()) + (int(self._pos[row]),),
            self._gauss[row],
        )

    def fresh_randoms(self, rows) -> List[random.Random]:
        """A ``random.Random`` clone per row of ``rows``, cheaply.

        A row adopted from a bare integer seed is rebuilt entirely in
        C: reseed, then burn the words it has consumed with a single
        ``getrandbits`` call.  That sidesteps materializing the
        625-word state tuple (1.25M Python ints per 2000-vertex sweep),
        which would otherwise dominate short kernelized runs.  Rows of
        unknown provenance (adopted mid-stream from a live generator)
        or with a cached gauss value take the exact tuple path.
        """
        idx = np.asarray(rows, dtype=np.intp)
        out: List[random.Random] = []
        if idx.size == 0:
            return out
        consumed = np.maximum(
            0, self._twists[idx] * _N + self._pos[idx] - _N
        ).tolist()
        for row, used in zip(idx.tolist(), consumed):
            seed = self._seed[row]
            if seed is not None and self._gauss[row] is None:
                rng = random.Random(seed)
                if used:
                    rng.getrandbits(32 * used)
                out.append(rng)
            else:
                out.append(fresh_random_from_state(self.state_of(row)))
        return out


def fresh_random_from_state(state) -> random.Random:
    """A ``random.Random`` carrying ``state`` without the cost (and the
    entropy consumption) of default seeding."""
    rng = random.Random.__new__(random.Random)
    rng.setstate(state)
    return rng
