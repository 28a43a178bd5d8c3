"""The benchmark's workloads: inputs from a seed, a fixed op list, checks.

Each workload object generates its inputs from the workload seed in its
constructor and exposes ``ops``: a list of :class:`Op` run back to back
as one closed loop.  ``Op.run`` is the timed library call and touches
only public entry points; ``Op.check`` runs afterwards, outside the
timed region, and returns the op's digest plus the list of paper
guarantees the output broke.

The library is looked up through module attributes (``framework.
run_framework``, ``checkpoint.resume_simulation``, ``generators.
delaunay_planar_graph``) so that the traced run's wrappers, installed
on those modules, are the functions these ops call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import repro.congest.checkpoint as checkpoint
import repro.core.framework as framework
import repro.generators as generators
from repro.congest.faults import FaultPlan, PartitionWindow, use_faults
from repro.congest.message import MessageBudget
from repro.decomposition.mpx import mpx_ldd
from repro.independent_set.greedy import LubyMIS, luby_mis, luby_mis_max_phases
from repro.matching.distributed import (
    ProposalMatching,
    distributed_maximal_matching,
    matching_max_phases,
)
from repro.resilience.validators import (
    CORRECT,
    validate_decomposition,
    validate_framework,
    validate_independent_set,
    validate_matching,
)

#: Sizes per workload.  ``full`` is what the benchmark measures; ``tiny``
#: runs the same op list in seconds for the benchmark's own tests.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "framework": {
        "full": {"n": 1024, "runs": 4},
        # 160 is the smallest tiny size whose clusters reach the exact
        # conductance path on the default seed.
        "tiny": {"n": 160, "runs": 1},
    },
    "protocols": {
        "full": {"n": 8192, "seeds": 2},
        "tiny": {"n": 300, "seeds": 1},
    },
    "adversity": {
        "full": {"n": 2048, "luby_every": 5, "matching_every": 120},
        "tiny": {"n": 300, "luby_every": 5, "matching_every": 60},
    },
}


@dataclass
class Op:
    """One timed library call and the check of its output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Tuple[Any, List[str]]]


def digest(value: Any) -> str:
    """Stable SHA-256 of a JSON-able value (sets must be sorted first)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _problems(*verdicts) -> List[str]:
    """The details of every library verdict short of ``correct``."""
    return [
        f"{v.status}: {v.detail}" for v in verdicts if v.status != CORRECT
    ]


def _input_rng(workload: str, seed: int) -> random.Random:
    # String seeding hashes with SHA-512, so the stream does not depend
    # on PYTHONHASHSEED and every process derives the same inputs.
    return random.Random(f"{workload}:{seed}")


# ----------------------------------------------------------------------
# framework: the Theorem 2.6 pipeline with E10's parameters
# ----------------------------------------------------------------------


def degree_solver(sub, leader, notes):
    """E10's cluster solver: every vertex learns its degree in G[V_i]."""
    return {v: sub.degree(v) for v in sub.vertices()}


class FrameworkWorkload:
    """``run_framework`` on one delaunay graph, over several seeds."""

    EPSILON = 0.9
    PHI = 0.05

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        params = SIZES["framework"][size]
        rng = _input_rng("framework", seed)
        self.graph = generators.delaunay_planar_graph(
            params["n"], seed=rng.getrandbits(32)
        )
        self.ops = [
            Op(f"run_framework[{s}]", self._runner(s), self._check)
            for s in (rng.getrandbits(32) for _ in range(params["runs"]))
        ]

    def _runner(self, seed: int) -> Callable[[], Any]:
        def run():
            return framework.run_framework(
                self.graph, self.EPSILON, solver=degree_solver,
                phi=self.PHI, seed=seed,
            )
        return run

    def _check(self, result) -> Tuple[Any, List[str]]:
        g = self.graph
        dec = result.decomposition
        # Partition, cut-set completeness, connected clusters and the
        # cut budget; then every vertex answered by a successful cluster.
        problems = _problems(
            validate_decomposition(dec, recheck_conductance=False),
            validate_framework(result, g),
        )
        if len(dec.cut_edges) > self.EPSILON * g.m:
            problems.append(
                f"{len(dec.cut_edges)} cut edges > eps*m = "
                f"{self.EPSILON * g.m:.1f}"
            )
        if min(dec.certificates, default=1.0) < result.phi:
            problems.append("a cluster certificate is below phi")
        budget = MessageBudget(g.n).bits
        if result.metrics.max_message_bits > budget:
            problems.append(
                f"max message {result.metrics.max_message_bits} bits > "
                f"O(log n) budget {budget}"
            )
        for run in result.clusters:
            for v in run.vertices:
                inside = sum(1 for u in g.neighbors(v) if u in run.vertices)
                if result.answers.get(v) != inside:
                    problems.append(f"vertex {v} got a wrong answer")
                    break
        value = {
            "clusters": sorted(sorted(c) for c in dec.clusters),
            "cut_edges": sorted(list(e) for e in dec.cut_edges),
            "certificates": dec.certificates,
            "leaders": result.leaders,
            "answers": sorted(result.answers.items()),
            "metrics": result.metrics.summary(),
        }
        return value, problems


# ----------------------------------------------------------------------
# protocols: the kernelized protocols, fault-free
# ----------------------------------------------------------------------


class ProtocolsWorkload:
    """Luby MIS, proposal matching and MPX LDD on one delaunay graph."""

    LDD_EPSILON = 0.5

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        params = SIZES["protocols"][size]
        rng = _input_rng("protocols", seed)
        self.graph = generators.delaunay_planar_graph(
            params["n"], seed=rng.getrandbits(32)
        )
        self.ops: List[Op] = []
        for _ in range(params["seeds"]):
            s = rng.getrandbits(32)
            self.ops += [
                Op(f"luby_mis[{s}]", self._bind(luby_mis, s), self._check_mis),
                Op(
                    f"matching[{s}]",
                    self._bind(distributed_maximal_matching, s),
                    self._check_matching,
                ),
                Op(f"mpx_ldd[{s}]", self._bind_ldd(s), self._check_ldd),
            ]

    def _bind(self, fn, seed: int) -> Callable[[], Any]:
        return lambda: fn(self.graph, seed=seed)

    def _bind_ldd(self, seed: int) -> Callable[[], Any]:
        return lambda: mpx_ldd(self.graph, self.LDD_EPSILON, seed=seed)

    def _check_mis(self, out) -> Tuple[Any, List[str]]:
        mis, result = out
        value = {"mis": sorted(mis), "metrics": result.metrics.summary()}
        # correct = independent and maximal
        return value, _problems(validate_independent_set(self.graph, mis))

    def _check_matching(self, out) -> Tuple[Any, List[str]]:
        matching, result = out
        value = {
            "matching": sorted(list(e) for e in matching),
            "metrics": result.metrics.summary(),
        }
        # correct = a valid matching and maximal
        return value, _problems(validate_matching(self.graph, matching))

    def _check_ldd(self, out) -> Tuple[Any, List[str]]:
        ldd, result = out
        covered = [v for cluster in ldd.clusters for v in cluster]
        problems = []
        if len(covered) != self.graph.n or set(covered) != set(
            self.graph.vertices()
        ):
            problems.append("LDD clusters do not cover V exactly once")
        value = {
            "clusters": sorted(sorted(c) for c in ldd.clusters),
            "metrics": result.metrics.summary(),
        }
        return value, problems


# ----------------------------------------------------------------------
# adversity: the same protocols under one FaultPlan, with checkpoints
# ----------------------------------------------------------------------


class AdversityWorkload:
    """Luby and matching under drop, delay, a partition and crash/rejoin.

    Each op runs the protocol uninterrupted while saving a checkpoint
    every few rounds, reloads the first one, and finishes it with
    ``resume_simulation``; the check requires the resumed run to equal
    the uninterrupted one.
    """

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        params = SIZES["adversity"][size]
        rng = _input_rng("adversity", seed)
        n = params["n"]
        self.graph = generators.delaunay_planar_graph(
            n, seed=rng.getrandbits(32)
        )
        self.workdir = workdir
        vertices = sorted(self.graph.vertices())
        crashed = rng.sample(vertices, max(2, n // 100))
        # The partition isolates a BFS ball holding a quarter of the
        # network: a connected region, as a real network split would be.
        block: List[int] = []
        for layer in self.graph.bfs_layers(rng.choice(vertices)):
            block.extend(layer)
            if len(block) >= n // 4:
                break
        self.plan = FaultPlan(
            seed=rng.getrandbits(32),
            drop=0.02,
            delay=0.1,
            max_delay=2,
            partitions=(PartitionWindow((tuple(sorted(block)),), 3, 6),),
            crashes=tuple((v, 4) for v in crashed),
            rejoins=tuple((v, 9) for v in crashed),
            checkpoint_interval=3,
        )
        luby_phases = luby_mis_max_phases(n)
        matching_phases = matching_max_phases(n)
        self.ops = [
            Op(
                "luby_mis+resume",
                self._runner(
                    "luby", luby_mis, params["luby_every"],
                    lambda v: LubyMIS(luby_phases), 2 * luby_phases + 4,
                    rng.getrandbits(32),
                ),
                self._check,
            ),
            Op(
                "matching+resume",
                self._runner(
                    "matching", distributed_maximal_matching,
                    params["matching_every"],
                    lambda v: ProposalMatching(matching_phases),
                    3 * matching_phases + 6,
                    rng.getrandbits(32),
                ),
                self._check,
            ),
        ]

    def _runner(self, label, protocol, every, factory, max_rounds, seed):
        def run():
            saved: List[str] = []

            def save(cp) -> None:
                path = os.path.join(self.workdir, f"{label}-{cp.round}.json")
                cp.save(path)
                saved.append(path)

            with use_faults(self.plan):
                _, result = protocol(
                    self.graph, seed=seed, checkpoint_every=every,
                    on_checkpoint=save,
                )
            if not saved:
                return result, None, saved
            restored = checkpoint.SimulationCheckpoint.load(saved[0])
            sim = checkpoint.resume_simulation(self.graph, factory, restored)
            return result, sim.run(max_rounds=max_rounds), saved
        return run

    def _check(self, out) -> Tuple[Any, List[str]]:
        result, resumed, saved = out
        for path in saved:
            os.remove(path)
        problems = []
        if resumed is None:
            problems.append("no checkpoint was taken")
        elif (
            resumed.outputs != result.outputs
            or resumed.metrics.to_dict() != result.metrics.to_dict()
        ):
            problems.append("resumed run differs from the uninterrupted run")
        value = {
            "outputs": sorted(result.outputs.items()),
            "checkpoints": len(saved),
            "metrics": result.metrics.summary(),
        }
        return value, problems


WORKLOADS = {
    "framework": FrameworkWorkload,
    "protocols": ProtocolsWorkload,
    "adversity": AdversityWorkload,
}
