"""Exactness contract of the batched MT19937 stream.

:class:`repro.rng.MTStream` claims to be a word-for-word clone of
``random.Random``: same raw 32-bit words, same ``random()`` floats,
same ``_randbelow`` rejection consumption, and a ``commit`` that lets
scalar draws continue the stream seamlessly.  These tests pin
each of those claims directly against CPython's generator, then run
whole walk exchanges with vectorization forced on and forced off and
assert the executions are identical — the guarantee that makes
``VECTOR_THRESHOLD`` a pure performance knob.
"""

import importlib
import math
import random

import pytest

from repro.generators import k_tree
from repro.routing import walk_exchange
from repro.rng import HAVE_NUMPY, MTStream

# The package re-exports the walk_exchange *function* under the same
# name as its defining module; go through importlib for the module.
walk_exchange_module = importlib.import_module("repro.routing.walk_exchange")

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")

#: More than two full twist blocks (624 words each), so the vectorized
#: state transition is exercised repeatedly, not just the tempering.
LONG = 1500


def test_word_stream_matches_getrandbits():
    ours, theirs = random.Random(42), random.Random(42)
    words = MTStream(ours).words(LONG)
    assert [int(w) for w in words] == [
        theirs.getrandbits(32) for _ in range(LONG)
    ]


def test_random_batch_matches_random():
    ours, theirs = random.Random(7), random.Random(7)
    batch = MTStream(ours).random_batch(LONG)
    assert [float(x) for x in batch] == [
        theirs.random() for _ in range(LONG)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 17, 100, 2**31 - 1])
def test_randbelow_batch_matches_randbelow(n):
    ours, theirs = random.Random(n), random.Random(n)
    batch = MTStream(ours).randbelow_batch(n, 400)
    expected = [theirs._randbelow(n) for _ in range(400)]
    assert [int(x) for x in batch] == expected
    assert all(0 <= value < n for value in expected)


def test_commit_resumes_scalar_stream_exactly():
    ours, theirs = random.Random(99), random.Random(99)
    # Desynchronize from a fresh state: adopt mid-block, mid-word-pair.
    ours.random(), ours.getrandbits(13)
    theirs.random(), theirs.getrandbits(13)
    stream = MTStream(ours)
    reference = [theirs.random() for _ in range(10)]
    assert [float(x) for x in stream.random_batch(10)] == reference
    stream.commit()
    assert ours.getstate() == theirs.getstate()
    assert ours.random() == theirs.random()


def test_randbelow_batch_rejects_nonpositive():
    with pytest.raises(ValueError):
        MTStream(random.Random(0)).randbelow_batch(0, 3)


def test_randbelow_batch_rejects_multiword_bounds():
    with pytest.raises(ValueError):
        MTStream(random.Random(0)).randbelow_batch(2**32, 3)


def _run_exchange():
    g = k_tree(60, 3, seed=5)
    leader = max(g.vertices(), key=g.degree)
    requests = {v: [(v, 1)] for v in g.vertices()}
    return walk_exchange(
        g, leader, requests, phi=0.1, forward_steps=192, seed=8
    )


def test_walk_exchange_invariant_under_threshold(monkeypatch):
    """Forced-scalar and forced-vector executions are identical."""
    monkeypatch.setattr(walk_exchange_module, "VECTOR_THRESHOLD", 1)
    vectorized = _run_exchange()
    monkeypatch.setattr(
        walk_exchange_module, "VECTOR_THRESHOLD", math.inf
    )
    scalar = _run_exchange()
    assert vectorized.requests_delivered == scalar.requests_delivered
    assert vectorized.responses == scalar.responses
    assert vectorized.undelivered == scalar.undelivered
    assert vectorized.unanswered == scalar.unanswered
    assert vectorized.metrics.summary() == scalar.metrics.summary()


# ----------------------------------------------------------------------
# Property-based interleavings (satellite for the kernel layer): any
# mixture of scalar draws and vectorized blocks on one shared stream
# must walk the exact same MT19937 word sequence as random.Random.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("case_seed", range(12))
def test_random_interleavings_match_scalar_stream(case_seed):
    driver = random.Random(1000 + case_seed)
    seed = driver.getrandbits(48)
    ours, theirs = random.Random(seed), random.Random(seed)
    stream = None
    for _op in range(40):
        kind = driver.randrange(5)
        if kind == 0:
            # Scalar float draws; any open stream must commit first.
            if stream is not None:
                stream.commit()
                stream = None
            count = driver.randrange(1, 8)
            assert [ours.random() for _ in range(count)] == [
                theirs.random() for _ in range(count)
            ]
        elif kind == 1:
            # Scalar getrandbits, including partial-word widths — the
            # commit must cope with a consumer that left the generator
            # mid-state in every way random.Random can.
            if stream is not None:
                stream.commit()
                stream = None
            bits = driver.randrange(1, 128)
            assert ours.getrandbits(bits) == theirs.getrandbits(bits)
        elif kind == 2:
            if stream is None:
                stream = MTStream(ours)
            count = driver.randrange(1, 700)
            assert [float(x) for x in stream.random_batch(count)] == [
                theirs.random() for _ in range(count)
            ]
        elif kind == 3:
            if stream is None:
                stream = MTStream(ours)
            count = driver.randrange(1, 700)
            assert [int(w) for w in stream.words(count)] == [
                theirs.getrandbits(32) for _ in range(count)
            ]
        else:
            if stream is None:
                stream = MTStream(ours)
            bound = driver.randrange(1, 1 << driver.randrange(1, 33))
            count = driver.randrange(1, 120)
            assert [
                int(x) for x in stream.randbelow_batch(bound, count)
            ] == [theirs._randbelow(bound) for _ in range(count)]
    if stream is not None:
        stream.commit()
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("case_seed", range(6))
def test_mt_column_interleaves_with_scalar_draws(case_seed):
    """The kernels' per-vertex columns stay equal to ``random.Random``
    under ragged vectorized draws interleaved with scalar consumption
    (commit-back through ``state_of`` after partial block use)."""
    np = pytest.importorskip("numpy")
    from repro.rng import MTColumn, fresh_random_from_state

    driver = random.Random(2000 + case_seed)
    n = 6
    seeds = [driver.getrandbits(32) for _ in range(n)]
    scalars = [random.Random(s) for s in seeds]
    col = MTColumn(n)
    col.adopt_seeds(np.arange(n), seeds)
    for _op in range(25):
        rows = np.array(
            sorted(driver.sample(range(n), driver.randrange(1, n + 1))),
            dtype=np.intp,
        )
        kind = driver.randrange(3)
        if kind == 0:
            drawn = col.random_column(rows)
            for row, value in zip(rows.tolist(), drawn.tolist()):
                assert value == scalars[row].random()
        elif kind == 1:
            bounds = np.array(
                [driver.randrange(1, 50) for _ in rows], dtype=np.int64
            )
            drawn = col.randbelow_column(rows, bounds)
            for row, bound, value in zip(
                rows.tolist(), bounds.tolist(), drawn.tolist()
            ):
                assert value == scalars[row]._randbelow(bound)
        else:
            # Commit one row back to a scalar generator, draw there,
            # and re-adopt: partial consumption must survive the trip.
            row = int(rows[0])
            rebuilt = fresh_random_from_state(col.state_of(row))
            assert rebuilt.getstate() == scalars[row].getstate()
            assert rebuilt.random() == scalars[row].random()
            col.adopt_state(row, rebuilt)
    for row in range(n):
        assert col.state_of(row) == scalars[row].getstate()
