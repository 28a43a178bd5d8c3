"""E12 — The LOCAL-CONGEST gap, made concrete.

The LOCAL-model recipe the paper starts from (gather each cluster's
topology "in one shot") needs messages of Theta(m log n) bits; CONGEST
allows O(log n).  This experiment measures the largest message the
framework actually sends, the O(log n) budget, and the message size the
LOCAL-style gather would have needed — and verifies the simulator
*rejects* the LOCAL-style message outright.
"""

import pytest

from repro.analysis import Table
from repro.congest.message import MessageBudget, message_bits
from repro.core.framework import run_framework
from repro.errors import MessageTooLargeError
from repro.generators import delaunay_planar_graph
from repro.resilience import degree_solver

from _util import record_table, reset_result


def local_style_payload(graph) -> tuple:
    """The whole topology as a single message (the LOCAL-model move)."""
    return tuple((u, v) for u, v in graph.edges())


def test_e12_message_size_gap(benchmark):
    reset_result("E12.txt")
    table = Table(
        "E12: largest message, framework vs LOCAL-style gather",
        ["n", "m", "budget_bits", "framework_max_bits",
         "local_payload_bits", "local/budget"],
    )
    for n in (64, 128, 256):
        g = delaunay_planar_graph(n, seed=121)
        result = run_framework(
            g, 0.9, solver=degree_solver, phi=0.06, seed=122
        )
        budget = MessageBudget(g.n)
        local_bits = message_bits(local_style_payload(g))
        table.add_row(
            n, g.m, budget.bits, result.metrics.max_message_bits,
            local_bits, local_bits / budget.bits,
        )
        # Framework fits; the LOCAL-style single message does not.
        assert result.metrics.max_message_bits <= budget.bits
        assert local_bits > budget.bits
        with pytest.raises(MessageTooLargeError):
            budget.check(local_style_payload(g))
    record_table("E12.txt", table)

    g = delaunay_planar_graph(128, seed=121)
    benchmark.pedantic(
        lambda: message_bits(local_style_payload(g)), rounds=3, iterations=1
    )


def test_e12_gap_grows_linearly(benchmark):
    """The LOCAL/CONGEST size ratio grows like m / words: linear in n."""
    table = Table(
        "E12b: LOCAL/CONGEST message-size ratio vs n",
        ["n", "ratio"],
    )
    ratios = []
    for n in (64, 256, 1024):
        g = delaunay_planar_graph(n, seed=123)
        ratio = message_bits(local_style_payload(g)) / MessageBudget(g.n).bits
        table.add_row(n, ratio)
        ratios.append(ratio)
    record_table("E12.txt", table)
    assert ratios[-1] > 4 * ratios[0]

    benchmark.pedantic(
        lambda: delaunay_planar_graph(256, seed=123), rounds=3, iterations=1
    )
