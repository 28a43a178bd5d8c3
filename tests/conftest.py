"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.generators import (
    delaunay_planar_graph,
    grid_graph,
    k_tree,
    triangulated_grid_graph,
)
from repro.graph import Graph


@pytest.fixture
def grid8():
    """An 8x8 grid: the canonical small planar instance."""
    return grid_graph(8, 8)


@pytest.fixture
def small_planar():
    """A 60-vertex random planar triangulation."""
    return delaunay_planar_graph(60, seed=1234)


@pytest.fixture
def small_ktree():
    """A 50-vertex 3-tree: bounded treewidth, non-planar."""
    return k_tree(50, 3, seed=99)


@pytest.fixture
def rng():
    return random.Random(20220725)  # PODC'22 started July 25


def triangle_with_tail() -> Graph:
    """K_3 with a pendant path: exercises both cycles and leaves."""
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    return g
