"""Module-level vertex algorithm for checkpoint tests.

Checkpoints pickle live algorithm objects, and pickle resolves classes
by qualified module path — a class defined inside a test function
cannot round-trip.  Keeping the workload here (``tests`` is an
importable package) makes checkpoints of it serializable.
"""

from repro.congest import CorruptedPayload, VertexAlgorithm


class FixtureFlood(VertexAlgorithm):
    """Min-ID flooding that halts after three quiet rounds."""

    def __init__(self, vertex):
        self.vertex = vertex
        self.best = vertex
        self.quiet = 0

    def initialize(self, ctx):
        self.best = self.vertex
        self.quiet = 0
        ctx.broadcast(self.best)

    def step(self, ctx, inbox):
        improved = False
        for payloads in inbox.values():
            for payload in payloads:
                if isinstance(payload, CorruptedPayload):
                    continue  # survive garbage on the wire
                if payload < self.best:
                    self.best = payload
                    improved = True
        if improved:
            self.quiet = 0
            ctx.broadcast(self.best)
        else:
            self.quiet += 1
            if self.quiet >= 3:
                ctx.halt(self.best)


class FixtureWalker(VertexAlgorithm):
    """RNG-consuming workload: forwards a token on random edges.

    Exists to prove checkpoints preserve per-vertex RNG streams — the
    resumed token path only matches the uninterrupted one if every
    generator restarts exactly where it stopped.
    """

    HOPS = 40

    def __init__(self, vertex):
        self.vertex = vertex
        self.visits = 0

    def initialize(self, ctx):
        if ctx.vertex == 0:
            target = ctx.rng.choice(sorted(ctx.neighbors))
            ctx.send(target, 1)

    def step(self, ctx, inbox):
        for payloads in inbox.values():
            for hop in payloads:
                if isinstance(hop, CorruptedPayload):
                    continue
                self.visits += 1
                if hop < self.HOPS:
                    target = ctx.rng.choice(sorted(ctx.neighbors))
                    ctx.send(target, hop + 1)
        if ctx.round_number >= self.HOPS:
            ctx.halt(self.visits)
