"""Command-line interface: run any of the paper's algorithms on
generated networks.

Examples::

    python -m repro decompose --family delaunay --n 200 --phi 0.05
    python -m repro maxis --family ktree --n 100 --eps 0.3
    python -m repro mwm --n 80 --max-weight 500 --iterations 4
    python -m repro test-property --property planar --far
    python -m repro ldd --algorithm thm15 --eps 0.25
    python -m repro triangles --family trigrid --n 100

Besides the algorithm commands, ``repro bench`` runs the experiment
suites, ``repro faults`` runs one algorithm under a fault plan, and
``repro obs`` / ``repro trace`` read the telemetry snapshots and round
traces those write.

Output discipline: tables and primary results go to **stdout** (so
``repro ... > results.txt`` captures exactly the deliverable), while
progress and diagnostic lines go through the ``repro`` logger to
**stderr** — tune them with ``--quiet`` / ``-v`` (flags of the
top-level ``repro`` command, before the subcommand).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import List, Optional

from .analysis import Table
from .graph import Graph

#: Diagnostics channel: everything that is *about* a run rather than
#: its result.  Configured by :func:`main`; library importers who call
#: commands directly inherit logging's defaults.
log = logging.getLogger("repro")


def _configure_logging(args) -> None:
    """(Re)wire the diagnostics channel for one CLI invocation.

    The handler is rebuilt around the *current* ``sys.stderr`` on every
    call — repeated in-process invocations (tests, notebooks) would
    otherwise keep writing to a stale, possibly closed stream.
    """
    if getattr(args, "quiet", False):
        level = logging.WARNING
    elif getattr(args, "verbose", 0):
        level = logging.DEBUG
    else:
        level = logging.INFO
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(level)
    log.propagate = False


class _OperatorError(Exception):
    """An unusable flag value, path, or input file.  :func:`main` logs
    the one-line message and exits 2; exit 1 stays reserved for a
    failed verdict, a perf diff past its budget, or a bench cell that
    raised (its traceback ends the run).  Handlers raise it rather than
    return 2, so a refused run never reaches :func:`_dispatch`'s final
    trace write and an existing ``--trace`` file keeps its bytes."""


def _probe_path(path: str, label: str) -> None:
    """Fail before the run, not after: a long run whose deliverable
    cannot be written should not execute at all.

    The probe opens ``path`` for appending, so an existing file keeps
    its bytes until the run's final atomic write replaces it, and it
    removes a file it created itself, so a refused or failed run
    leaves nothing behind."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise _OperatorError(f"invalid {label} path: {exc}")
    if not existed:
        os.unlink(path)


def _write_verified(path: str, text: str, what: str) -> None:
    """Atomically write a final artifact and read it back."""
    from . import storage
    from .errors import StorageError

    try:
        storage.atomic_write_text(path, text, verify=True)
    except StorageError as exc:
        raise _OperatorError(f"cannot write {what}: {exc}")


def _load(loader, path: str, what: str):
    """``loader(path)``; a missing or mangled file is an operator
    error, reported in one line instead of a traceback."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise _OperatorError(f"cannot load {what} {path}: {exc}")


def _parse_specs(specs, flag: str, shape: str, parse) -> tuple:
    """Parse every value of a repeatable ``flag`` with ``parse``; a
    malformed one is an operator error naming the expected ``shape``."""
    entries = []
    for spec in specs or []:
        try:
            entries.append(parse(spec))
        except ValueError:
            raise _OperatorError(f"bad {flag} {spec!r}; expected {shape}")
    return tuple(entries)


def _build_graph(args) -> Graph:
    """The ``--family``/``--n`` graph; a size the family cannot be
    built at is an operator error."""
    from . import generators
    from .errors import GraphError

    n = args.n
    side = max(2, int(round(n ** 0.5)))
    try:
        if args.family == "delaunay":
            return generators.delaunay_planar_graph(n, seed=args.seed)
        if args.family == "grid":
            return generators.grid_graph(side, side)
        if args.family == "trigrid":
            return generators.triangulated_grid_graph(side, side)
        if args.family == "ktree":
            return generators.k_tree(n, 3, seed=args.seed)
        if args.family == "torus":
            return generators.toroidal_grid_graph(side, side)
        if args.family == "cycle":
            return generators.cycle_graph(n)
    except GraphError as exc:
        raise _OperatorError(
            f"cannot build --family {args.family} at --n {n}: {exc}"
        )
    raise SystemExit(f"unknown family {args.family!r}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", default="delaunay",
                        choices=["delaunay", "grid", "trigrid", "ktree",
                                 "torus", "cycle"],
                        help="graph family to generate")
    parser.add_argument("--n", type=int, default=100, help="vertex count")
    parser.add_argument("--eps", type=float, default=0.3,
                        help="approximation / budget parameter epsilon")
    parser.add_argument("--phi", type=float, default=None,
                        help="explicit conductance target (default: theory)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a structured per-round trace of every "
                             "CONGEST simulation to PATH as JSONL")
    parser.add_argument("--trace-detail", action="store_true",
                        help="with --trace, also record per-message "
                             "provenance events (trace schema v5) for "
                             "`repro trace explain`")


def _print_metrics(metrics) -> None:
    print("CONGEST:", metrics.summary())


def cmd_decompose(args) -> int:
    from .decomposition import expander_decomposition, verify_expander_decomposition

    g = _build_graph(args)
    dec = expander_decomposition(
        g, args.eps, phi=args.phi, seed=args.seed, enforce_budget=False
    )
    report = verify_expander_decomposition(dec)
    table = Table(
        f"expander decomposition of {args.family}({g.n})",
        ["cluster", "size", "certified phi"],
    )
    for i, (cluster, cert) in enumerate(zip(dec.clusters, dec.certificates)):
        table.add_row(i, len(cluster), cert)
    table.print()
    print(f"\ncut fraction: {report['cut_fraction']:.4f} (budget {dec.epsilon})")
    return 0


def cmd_maxis(args) -> int:
    from .independent_set import distributed_maxis, solve_maxis

    g = _build_graph(args)
    result = distributed_maxis(g, args.eps, phi=args.phi, seed=args.seed)
    best = len(solve_maxis(g))
    print(f"independent set: {result.size} (best known {best}, "
          f"ratio {result.size / max(1, best):.3f})")
    _print_metrics(result.framework.metrics)
    return 0


def cmd_mcm(args) -> int:
    from .matching import distributed_mcm_planar, max_cardinality_matching

    g = _build_graph(args)
    result, fw = distributed_mcm_planar(g, args.eps, phi=args.phi,
                                        seed=args.seed)
    opt = len(max_cardinality_matching(g))
    print(f"matching: {result.size} (optimum {opt}, "
          f"ratio {result.size / max(1, opt):.3f})")
    if fw is not None:
        _print_metrics(result.metrics())
    return 0


def cmd_mwm(args) -> int:
    from .generators import random_integer_weights
    from .matching import (
        distributed_mwm,
        matching_weight,
        max_weight_matching,
    )

    g = random_integer_weights(_build_graph(args), args.max_weight,
                               seed=args.seed)
    result = distributed_mwm(
        g, args.eps, iterations=args.iterations, phi=args.phi,
        seed=args.seed, enforce_budget=False,
    )
    opt = matching_weight(g, max_weight_matching(g))
    print(f"matching weight: {result.weight:.0f} (optimum {opt:.0f}, "
          f"ratio {result.weight / max(1.0, opt):.3f})")
    _print_metrics(result.metrics())
    return 0


def cmd_correlation(args) -> int:
    from .correlation import distributed_correlation_clustering
    from .generators import planted_signs

    g = _build_graph(args)
    signs, _ = planted_signs(g, args.communities, noise=args.noise,
                             seed=args.seed)
    result = distributed_correlation_clustering(
        g, signs, args.eps, phi=args.phi, seed=args.seed
    )
    print(f"agreement score: {result.score} of |E| = {g.m} "
          f"({result.score / max(1, g.m):.3f})")
    _print_metrics(result.framework.metrics)
    return 0


def cmd_mds(args) -> int:
    from .dominating_set import distributed_mds, solve_mds

    g = _build_graph(args)
    result = distributed_mds(g, args.eps, phi=args.phi, seed=args.seed)
    best = len(solve_mds(g))
    print(f"dominating set: {result.size} (best known {best}, "
          f"ratio {result.size / max(1, best):.3f})")
    _print_metrics(result.framework.metrics)
    return 0


def cmd_test_property(args) -> int:
    from .generators import complete_graph
    from .property_testing import (
        FOREST,
        OUTERPLANAR,
        PLANARITY,
        SERIES_PARALLEL,
        distributed_property_test,
    )

    properties = {
        "planar": PLANARITY,
        "forest": FOREST,
        "sp": SERIES_PARALLEL,
        "outerplanar": OUTERPLANAR,
    }
    prop = properties[args.property]
    if args.far:
        pattern = complete_graph(prop.forbidden_clique + 1)
        g = Graph()
        offset = 0
        for _ in range(max(2, args.n // pattern.n)):
            for v in pattern.vertices():
                g.add_vertex(v + offset)
            for u, v in pattern.edges():
                g.add_edge(u + offset, v + offset)
            offset += pattern.n
    else:
        g = _build_graph(args)
    result = distributed_property_test(g, prop, args.eps, seed=args.seed)
    verdict = "Accept" if result.accepted else "Reject"
    rejecters = sum(1 for ok in result.verdicts.values() if not ok)
    print(f"property {prop.name!r} on n={g.n}: {verdict} "
          f"({rejecters} rejecting vertices)")
    return 0 if result.accepted == (not args.far) else 1


def cmd_ldd(args) -> int:
    from .decomposition import (
        ball_carving_ldd,
        chop_ldd,
        mpx_ldd,
        theorem_1_5_ldd,
    )

    g = _build_graph(args)
    if args.algorithm == "thm15":
        ldd = theorem_1_5_ldd(g, args.eps, seed=args.seed)
    elif args.algorithm == "ball":
        ldd = ball_carving_ldd(g, args.eps, seed=args.seed)
    elif args.algorithm == "chop":
        ldd = chop_ldd(g, args.eps, seed=args.seed)
    else:
        ldd, _sim = mpx_ldd(g, args.eps, seed=args.seed)
    print(f"{args.algorithm}: {len(ldd.clusters)} clusters, "
          f"cut fraction {ldd.cut_fraction():.4f}, "
          f"max diameter {ldd.max_diameter()}")
    return 0


def cmd_bench(args) -> int:
    """Run experiment suites through the parallel cell runner."""
    import time

    from .runner import SUITES, run_suite, suite_names

    names = args.suite or suite_names()
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise _OperatorError(
            f"unknown suite(s) {unknown}; available: {suite_names()}"
        )
    if args.jobs < 1:
        raise _OperatorError(f"--jobs must be at least 1, got {args.jobs}")
    if args.limit is not None and args.limit < 1:
        raise _OperatorError(f"--limit must be at least 1, got {args.limit}")
    if args.timeline and args.telemetry is None:
        raise _OperatorError("--timeline requires --telemetry PATH")
    for label, path in (
        ("trace", args.trace), ("telemetry", args.telemetry),
        ("stats-json", args.stats_json),
    ):
        if path is not None:
            _probe_path(path, label)
    if args.out is not None:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise _OperatorError(f"invalid out path: {exc}")

    runs = []
    total_start = time.perf_counter()
    for name in names:
        run = run_suite(
            name,
            jobs=args.jobs,
            limit=args.limit,
            trace=args.trace is not None,
            telemetry=args.telemetry is not None,
            trace_detail=args.trace_detail,
            timeline=args.timeline,
        )
        runs.append(run)
        rendered = run.render_table() + "\n" + run.footer()
        print("\n" + rendered)
        log.info(
            "[%s] cells=%d jobs=%d wall=%.3fs compute=%.3fs",
            name, len(run.results), run.jobs, run.wall_seconds,
            run.compute_seconds(),
        )
        if args.out is not None:
            _write_verified(
                os.path.join(args.out, f"{name}.txt"),
                rendered + "\n",
                "--out table",
            )
    total_wall = time.perf_counter() - total_start

    if args.trace is not None:
        lines = [line for run in runs for line in run.trace_lines()]
        _write_verified(
            args.trace, "\n".join(lines) + ("\n" if lines else ""), "trace"
        )
        log.info("trace: %d round records -> %s", len(lines), args.trace)
    if args.telemetry is not None:
        from .obs import TelemetryRegistry, build_snapshot, write_snapshot

        registry = TelemetryRegistry()
        for run in runs:
            registry.merge_dict(run.merged_telemetry())
        snapshot = build_snapshot(
            suites={
                run.name: {
                    "wall_seconds": round(run.wall_seconds, 4),
                    "cells": {
                        r.label: {"elapsed": round(r.elapsed, 6)}
                        for r in run.results
                    },
                }
                for run in runs
            },
            telemetry=registry.to_dict(),
            jobs=args.jobs,
        )
        write_snapshot(args.telemetry, snapshot)
        log.info("telemetry snapshot -> %s", args.telemetry)
    if args.stats_json is not None:
        payload = {
            "suites": [run.summary() for run in runs],
            "wall_seconds": round(total_wall, 4),
            "jobs": args.jobs,
        }
        _write_verified(
            args.stats_json,
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            "stats",
        )
        log.info("stats -> %s", args.stats_json)
    return 0


def _resume_checkpoint(args, plan):
    """The checkpoint ``--resume-from`` names, to finish under its own
    fault plan.  A corrupt file, and fault flags that describe another
    plan than the checkpoint's, are operator errors; repeating the
    capturing run's flags, or giving none, is not."""
    from .congest import FaultPlan
    from .congest.checkpoint import SimulationCheckpoint
    from .errors import CheckpointError

    if args.algorithm == "framework":
        raise _OperatorError(
            "--resume-from supports --algorithm maxis or matching only"
        )
    try:
        checkpoint = SimulationCheckpoint.load(args.resume_from)
    except CheckpointError as exc:
        raise _OperatorError(f"cannot load checkpoint: {exc}")
    # A checkpoint records the plan its engine ran under: none at all
    # for a plan that injects nothing.
    flagged = None if plan.is_empty() else plan.to_dict()
    if plan != FaultPlan() and flagged != checkpoint.fault_plan:
        raise _OperatorError(
            "fault flags describe another plan than the checkpoint's "
            "own; repeat the capturing run's fault flags or give none"
        )
    return checkpoint


def _print_graded(metrics, verdict) -> int:
    """Print a graded run's metrics, faults and verdict; its exit code."""
    if metrics is not None:
        _print_metrics(metrics)
        if metrics.faulted:
            print("faults:", metrics.fault_summary())
    print(f"verdict: {verdict.label()}"
          + (f" ({verdict.detail})" if verdict.detail else ""))
    return 0 if verdict.ok else 1


def cmd_faults(args) -> int:
    """Run one algorithm under an explicit fault plan and grade it, or
    finish such a run from a saved checkpoint (``--resume-from``).
    Either run saves checkpoints the same way (``--save-checkpoint``)."""
    from .congest import EdgeWindow, FaultPlan, PartitionWindow
    from .errors import CheckpointError
    from .resilience import graded_run

    if args.checkpoint_every is not None and args.save_checkpoint is None:
        raise _OperatorError(
            "--checkpoint-every requires --save-checkpoint PATH"
        )
    every = 8 if args.checkpoint_every is None else args.checkpoint_every
    if every < 1:
        raise _OperatorError(
            f"--checkpoint-every must be at least 1, got {every}"
        )

    def vertex_round(spec):
        vertex, round_number = spec.split(":", 1)
        return int(vertex), int(round_number)

    def edge_round(spec):
        edge, round_number = spec.split(":", 1)
        u, v = edge.split("-", 1)
        return int(u), int(v), int(round_number)

    def edge_window(spec):
        edge, window = spec.split(":", 1)
        u, v = edge.split("-", 1)
        start, end = window.split("-", 1)
        return EdgeWindow(int(u), int(v), int(start), int(end))

    def partition(spec):
        """One isolated block; every unlisted vertex lands in the
        implicit rest block."""
        window, block = spec.split(":", 1)
        start, end = window.split("-", 1)
        vertices = tuple(int(v) for v in block.split(",") if v.strip())
        if not vertices:
            raise ValueError("empty block")
        return PartitionWindow((vertices,), int(start), int(end))

    from .errors import FaultError

    try:
        plan = FaultPlan(
            seed=args.fault_seed,
            drop=args.drop,
            duplicate=args.duplicate,
            corrupt=args.corrupt,
            crashes=_parse_specs(
                args.crash, "--crash", "VERTEX:ROUND", vertex_round
            ),
            rejoins=_parse_specs(
                args.rejoin, "--rejoin", "VERTEX:ROUND", vertex_round
            ),
            checkpoint_interval=args.checkpoint_interval,
            edge_arrivals=_parse_specs(
                args.edge_arrive, "--edge-arrive", "U-V:ROUND", edge_round
            ),
            edge_departures=_parse_specs(
                args.edge_depart, "--edge-depart", "U-V:ROUND", edge_round
            ),
            edge_up_windows=_parse_specs(
                args.edge_up, "--edge-up", "U-V:START-END", edge_window
            ),
            partitions=_parse_specs(
                args.partition, "--partition", "START-END:V1,V2,...",
                partition,
            ),
            delay=args.delay,
            max_delay=args.max_delay,
        )
    except (FaultError, ValueError) as exc:
        # e.g. a rejoin without a matching crash, conflicting churn
        # schedules, or a rate out of range: operator error, not a
        # bug — report cleanly instead of dumping a traceback.
        raise _OperatorError(f"invalid fault plan: {exc}")
    g = _build_graph(args)
    resume = None
    if args.resume_from is not None:
        resume = _resume_checkpoint(args, plan)
    checkpoint_kwargs = {}
    saved_checkpoints = []
    if args.save_checkpoint is not None:
        if args.algorithm == "framework":
            raise _OperatorError(
                "--save-checkpoint supports --algorithm maxis or "
                "matching only"
            )
        _probe_path(args.save_checkpoint, "save-checkpoint")

        def _persist(checkpoint) -> None:
            from .errors import CheckpointError

            try:
                checkpoint.save(args.save_checkpoint)
            except CheckpointError as exc:
                log.error("cannot save checkpoint: %s", exc)
                raise SystemExit(2)
            saved_checkpoints.append(checkpoint.round)

        checkpoint_kwargs = {
            "checkpoint_every": every,
            "on_checkpoint": _persist,
        }
    if resume is not None:
        try:
            metrics, verdict = graded_run(
                args.algorithm, g, resume=resume, **checkpoint_kwargs
            )
        except CheckpointError as exc:
            raise _OperatorError(f"cannot resume from checkpoint: {exc}")
        print(f"resumed: {args.resume_from} from round {resume.round}")
    else:
        metrics, verdict = graded_run(
            args.algorithm, g, plan, seed=args.seed, epsilon=args.eps,
            phi=args.phi, **checkpoint_kwargs,
        )
        print(f"plan: drop={plan.drop} duplicate={plan.duplicate} "
              f"corrupt={plan.corrupt} crashes={len(plan.crashes)} "
              f"rejoins={len(plan.rejoins)} "
              f"churn={len(plan.edge_arrivals) + len(plan.edge_departures)}"
              f"+{len(plan.edge_up_windows)}w "
              f"partitions={len(plan.partitions)} delay={plan.delay} "
              f"seed={plan.seed}")
    if args.save_checkpoint is not None:
        if saved_checkpoints:
            print(
                f"checkpoints: {len(saved_checkpoints)} saved to "
                f"{args.save_checkpoint} (last at round "
                f"{saved_checkpoints[-1]})"
            )
        else:
            start = resume.round if resume is not None else 0
            log.warning(
                "no checkpoint captured: the run finished before round "
                "%d; lower --checkpoint-every", (start // every + 1) * every,
            )
    return _print_graded(metrics, verdict)


def cmd_obs_report(args) -> int:
    """Render a benchmark telemetry snapshot as terminal tables."""
    from .obs import load_snapshot, render_report

    snapshot = _load(load_snapshot, args.snapshot, "snapshot")
    sys.stdout.write(render_report(
        snapshot.get("telemetry", {}), snapshot.get("suites")
    ))
    return 0


def cmd_obs_diff(args) -> int:
    """Compare two telemetry snapshots against a perf budget."""
    import math

    from .obs import diff_snapshots, load_snapshot

    # A zero, negative or NaN ratio is no budget, and an infinite one
    # passes every regression, as does a NaN or infinite floor: refuse
    # them before reading anything.
    if not (math.isfinite(args.budget) and args.budget > 0):
        raise _OperatorError(
            f"--budget must be a finite ratio above 0, got {args.budget:g}"
        )
    if not (math.isfinite(args.min_seconds) and args.min_seconds >= 0):
        raise _OperatorError(
            "--min-seconds must be a finite number of seconds, 0 or "
            f"more, got {args.min_seconds:g}"
        )
    old = _load(load_snapshot, args.old, "snapshot")
    new = _load(load_snapshot, args.new, "snapshot")
    diff = diff_snapshots(old, new, budget=args.budget,
                          min_seconds=args.min_seconds)
    print(diff.render())
    if not diff.ok:
        log.warning(
            "perf budget exceeded: %d metric(s) regressed past %.2fx",
            len(diff.regressions), args.budget,
        )
        return 1
    return 0


def cmd_obs_export(args) -> int:
    """Export a snapshot's span timeline as a Chrome/Perfetto trace."""
    from .obs import (
        chrome_trace,
        load_snapshot,
        timeline_from_snapshot,
        validate_chrome_trace,
    )

    snapshot = _load(load_snapshot, args.snapshot, "snapshot")
    timeline = timeline_from_snapshot(snapshot)
    if not timeline:
        raise _OperatorError(
            f"snapshot {args.snapshot} carries no timeline events; "
            "re-record with `repro bench --telemetry PATH --timeline`"
        )
    out = args.out
    if out is None:
        base = args.snapshot
        if base.endswith(".json"):
            base = base[:-len(".json")]
        out = base + ".trace.json"
    data = chrome_trace(timeline)
    _write_verified(out, json.dumps(data) + "\n", "chrome trace")
    for problem in validate_chrome_trace(data):
        log.warning("trace-event issue: %s", problem)
    log.info(
        "chrome trace: %d event(s) -> %s "
        "(load in chrome://tracing or ui.perfetto.dev)",
        len(data["traceEvents"]), out,
    )
    print(out)
    return 0


def cmd_trace_diff(args) -> int:
    """Locate the first divergence between two round-trace files."""
    from .obs import diff_traces, load_trace_jsonl
    from .obs.trace import DEFAULT_IGNORE

    records_a = _load(load_trace_jsonl, args.a, "trace")
    records_b = _load(load_trace_jsonl, args.b, "trace")
    ignore = tuple(args.ignore) if args.ignore else DEFAULT_IGNORE
    divergence = diff_traces(records_a, records_b, ignore=ignore)
    if args.json:
        payload = {
            "kind": "repro-trace-diff",
            "a": args.a,
            "b": args.b,
            "identical": divergence is None,
            "divergence": (
                divergence.to_dict() if divergence is not None else None
            ),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif divergence is None:
        print(f"traces identical: {args.a} == {args.b}")
    else:
        print(divergence.render())
    return 0 if divergence is None else 1


def cmd_trace_explain(args) -> int:
    """Per-vertex causal provenance from a schema-5 detail trace."""
    from .obs import explain_vertex, load_trace_jsonl

    records = _load(load_trace_jsonl, args.trace_file, "trace")
    try:
        report = explain_vertex(
            records, args.vertex, args.round,
            sim=args.sim, depth=args.depth,
        )
    except ValueError as exc:
        raise _OperatorError(f"cannot explain: {exc}")
    print(report.render())
    return 0 if report.found else 1


def cmd_triangles(args) -> int:
    from .subgraphs import distributed_triangle_listing, list_triangles

    g = _build_graph(args)
    found, framework, cut_metrics = distributed_triangle_listing(
        g, epsilon=args.eps, phi=args.phi, seed=args.seed
    )
    expected = list_triangles(g)
    status = "exact" if found == expected else "MISMATCH"
    print(f"triangles: {len(found)} listed ({status}); "
          f"{len(framework.decomposition.cut_edges)} cut edges handled")
    return 0 if found == expected else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Expander-decomposition CONGEST framework "
            "(Chang & Su, PODC 2022 reproduction)"
        ),
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more diagnostics on stderr (repeatable)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress diagnostics (warnings still shown); "
                             "tables and results stay on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "decompose": cmd_decompose,
        "maxis": cmd_maxis,
        "mcm": cmd_mcm,
        "mwm": cmd_mwm,
        "correlation": cmd_correlation,
        "mds": cmd_mds,
        "test-property": cmd_test_property,
        "ldd": cmd_ldd,
        "triangles": cmd_triangles,
    }
    for name, handler in commands.items():
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(handler=handler)
        if name == "mwm":
            p.add_argument("--max-weight", type=int, default=100)
            p.add_argument("--iterations", type=int, default=3)
        if name == "correlation":
            p.add_argument("--communities", type=int, default=3)
            p.add_argument("--noise", type=float, default=0.1)
        if name == "test-property":
            p.add_argument("--property", default="planar",
                           choices=["planar", "forest", "sp", "outerplanar"])
            p.add_argument("--far", action="store_true",
                           help="test an epsilon-far instance instead")
        if name == "ldd":
            p.add_argument("--algorithm", default="thm15",
                           choices=["thm15", "ball", "chop", "mpx"])

    bench = sub.add_parser(
        "bench",
        help="run experiment suites through the parallel cell runner",
        description=(
            "Execute E-suite experiment grids as independent cells, "
            "optionally across worker processes; every run computes "
            "every cell."
        ),
    )
    bench.add_argument("--suite", action="append", default=None,
                       metavar="NAME",
                       help="suite to run (repeatable; default: all)")
    bench.add_argument("--jobs", type=int, default=1,
                       help="worker processes, at least 1 "
                            "(default 1: in-process)")
    bench.add_argument("--limit", type=int, default=None, metavar="K",
                       help="run only the first K cells of each suite "
                            "(K >= 1)")
    bench.add_argument("--out", default=None, metavar="DIR",
                       help="also write each suite table to DIR/<suite>.txt")
    bench.add_argument("--stats-json", default=None, metavar="PATH",
                       help="write wall-clock stats as JSON")
    bench.add_argument("--trace", metavar="PATH", default=None,
                       help="write merged per-round JSONL traces of all "
                            "cells to PATH")
    bench.add_argument("--trace-detail", action="store_true",
                       help="with --trace, also record per-message "
                            "provenance events (trace schema v5) for "
                            "`repro trace explain`")
    bench.add_argument("--telemetry", metavar="PATH", default=None,
                       help="run cells with telemetry enabled and write "
                            "a schema-versioned perf snapshot to PATH "
                            "(see `repro obs diff`)")
    bench.add_argument("--timeline", action="store_true",
                       help="with --telemetry, capture span begin/end "
                            "events so the snapshot can be exported as "
                            "a Chrome/Perfetto trace "
                            "(`repro obs export`)")
    bench.set_defaults(handler=cmd_bench)

    faults = sub.add_parser(
        "faults",
        help="run one algorithm under an explicit fault plan",
        description=(
            "Inject deterministic message/vertex faults into a single "
            "run and grade the outcome (correct / degraded / failed)."
        ),
    )
    _add_common(faults)
    faults.add_argument("--algorithm", default="maxis",
                        choices=["maxis", "matching", "framework"],
                        help="which algorithm to subject to faults")
    faults.add_argument("--drop", type=float, default=0.0,
                        help="per-message drop probability")
    faults.add_argument("--duplicate", type=float, default=0.0,
                        help="per-message duplication probability")
    faults.add_argument("--corrupt", type=float, default=0.0,
                        help="per-message corruption probability")
    faults.add_argument("--crash", action="append", default=None,
                        metavar="VERTEX:ROUND",
                        help="fail-stop a vertex at a round (repeatable)")
    faults.add_argument("--rejoin", action="append", default=None,
                        metavar="VERTEX:ROUND",
                        help="revive a crashed vertex at a round "
                             "(repeatable; requires a --crash for the "
                             "same vertex at an earlier round)")
    faults.add_argument("--checkpoint-interval", type=int, default=None,
                        metavar="ROUNDS",
                        help="rejoining vertices restore from a local "
                             "snapshot taken every ROUNDS executed "
                             "steps (default: re-initialize fresh)")
    faults.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the deterministic fault stream")
    faults.add_argument("--edge-arrive", action="append", default=None,
                        metavar="U-V:ROUND",
                        help="edge (u, v) only exists from ROUND on "
                             "(repeatable; topology churn)")
    faults.add_argument("--edge-depart", action="append", default=None,
                        metavar="U-V:ROUND",
                        help="edge (u, v) disappears at ROUND "
                             "(repeatable; topology churn)")
    faults.add_argument("--edge-up", action="append", default=None,
                        metavar="U-V:START-END",
                        help="edge (u, v) is only up during rounds "
                             "[START, END] (repeatable)")
    faults.add_argument("--partition", action="append", default=None,
                        metavar="START-END:V1,V2,...",
                        help="isolate the listed vertices from the "
                             "rest of the network during rounds "
                             "[START, END], then heal (repeatable)")
    faults.add_argument("--delay", type=float, default=0.0,
                        help="per-message delay probability "
                             "(delayed messages arrive 1..MAX rounds "
                             "late, deterministically)")
    faults.add_argument("--max-delay", type=int, default=1,
                        help="upper bound on extra delivery rounds "
                             "for delayed messages (default: 1)")
    faults.add_argument("--save-checkpoint", default=None, metavar="PATH",
                        help="persist a durable simulation checkpoint "
                             "to PATH every --checkpoint-every rounds "
                             "(maxis/matching only; atomic, "
                             "checksummed — see docs/durability.md)")
    faults.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="ROUNDS",
                        help="checkpoint capture interval for "
                             "--save-checkpoint (default: 8)")
    faults.add_argument("--resume-from", default=None, metavar="PATH",
                        help="finish an interrupted run from a saved "
                             "checkpoint instead of starting one; the "
                             "checkpoint's own fault plan and graph "
                             "fingerprint are authoritative, and a "
                             "corrupt or mismatched file, or fault "
                             "flags naming another plan, exits 2")
    faults.set_defaults(handler=cmd_faults)

    obs = sub.add_parser(
        "obs",
        help="inspect and compare telemetry snapshots",
        description=(
            "Work with the perf snapshots written by "
            "`repro bench --telemetry PATH`."
        ),
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report", help="render a snapshot's telemetry"
    )
    report.add_argument("snapshot", help="snapshot JSON file")
    report.set_defaults(handler=cmd_obs_report)
    diff = obs_sub.add_parser(
        "diff", help="compare two snapshots against a perf budget"
    )
    diff.add_argument("old", help="baseline snapshot JSON file")
    diff.add_argument("new", help="candidate snapshot JSON file")
    diff.add_argument("--budget", type=float, default=1.25,
                      help="max allowed new/old timing ratio "
                           "(default: 1.25)")
    diff.add_argument("--min-seconds", type=float, default=0.005,
                      help="ignore regressions smaller than this many "
                           "absolute seconds (default: 0.005)")
    diff.set_defaults(handler=cmd_obs_diff)
    export = obs_sub.add_parser(
        "export",
        help="export a snapshot's span timeline as Chrome trace-event "
             "JSON, loadable in chrome://tracing and ui.perfetto.dev",
    )
    export.add_argument("snapshot", help="snapshot JSON file written by "
                                         "`repro bench --telemetry PATH "
                                         "--timeline`")
    export.add_argument("--out", metavar="PATH", default=None,
                        help="output file (default: snapshot path with "
                             ".trace.json suffix)")
    export.set_defaults(handler=cmd_obs_export)

    trace = sub.add_parser(
        "trace",
        help="diff and explain structured round traces",
        description=(
            "Work with the per-round JSONL traces written by --trace: "
            "locate the first divergence between two runs, or explain "
            "one vertex's message provenance."
        ),
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    tdiff = trace_sub.add_parser(
        "diff",
        help="first divergence between two trace files",
    )
    tdiff.add_argument("a", help="baseline trace JSONL file")
    tdiff.add_argument("b", help="candidate trace JSONL file")
    tdiff.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
    tdiff.add_argument("--ignore", action="append", default=None,
                       metavar="FIELD",
                       help="ignore a record field (repeatable; "
                            "default: sim, schema)")
    tdiff.set_defaults(handler=cmd_trace_diff)
    texplain = trace_sub.add_parser(
        "explain",
        help="per-vertex message provenance for one round",
    )
    texplain.add_argument("trace_file", metavar="TRACE",
                          help="trace JSONL recorded with --trace-detail")
    texplain.add_argument("--vertex", required=True,
                          help="vertex to explain (as it appears in "
                               "events, e.g. 7)")
    texplain.add_argument("--round", type=int, required=True,
                          help="executed round number")
    texplain.add_argument("--sim", default=None, metavar="NAME",
                          help="simulation stream to inspect (label or "
                               "unique substring; default: the only "
                               "stream)")
    texplain.add_argument("--depth", type=int, default=0, metavar="N",
                          help="also chase N levels of upstream senders "
                               "through earlier rounds")
    texplain.set_defaults(handler=cmd_trace_explain)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    try:
        return _dispatch(args)
    except _OperatorError as exc:
        log.error("%s", exc)
        return 2


def _dispatch(args) -> int:
    detail = getattr(args, "trace_detail", False)
    if detail and args.trace is None:
        raise _OperatorError("--trace-detail requires --trace PATH")
    # `bench` manages tracing itself (per-cell sessions merged across
    # worker processes); the session wrapper below is for the
    # single-simulation commands.
    if getattr(args, "trace", None) is not None and args.command != "bench":
        from .congest import TraceSession

        _probe_path(args.trace, "trace")
        with TraceSession(detail=detail) as session:
            code = args.handler(args)
        session.write_jsonl(args.trace)
        recorded = sum(len(rec.rounds) for rec in session.recorders)
        log.info(
            "trace: %d simulations, %d recorded rounds (%d simulated) -> %s",
            len(session.recorders), recorded, session.total_rounds(),
            args.trace,
        )
        return code
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
