"""Shared test machinery: bulk randomized property checks and the tiny-graph
corpus used for solver/oracle equivalence."""

import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path

import numpy as np

from chordcrit.criticality import min_based_coloring
from chordcrit.families import gn, mycielski_iter, kneser, schrijver
from chordcrit.graph import Graph, build_graph, delete_edge


# SHA-256 digests of outputs that must stay byte-identical.
PINNED = json.loads(Path(__file__).with_name("digests.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@lru_cache(maxsize=None)
def gn_edge_arrays(n: int):
    g = gn(n)
    eu = np.array([e.u for e in g.edges()], dtype=np.int64)
    ev = np.array([e.v for e in g.edges()], dtype=np.int64)
    return g.n, eu, ev


def min_based_conflicts(n: int, A: frozenset[int]) -> int:
    """Monochromatic gn(n)-edges with both endpoints min-coloured."""
    n_vertices, eu, ev = gn_edge_arrays(n)
    partial = min_based_coloring(n, A)
    colors = np.full(n_vertices, -1, dtype=np.int64)
    for v, c in partial.items():
        colors[v] = c
    cu = colors[eu]
    cv = colors[ev]
    return int(np.count_nonzero((cu >= 0) & (cv >= 0) & (cu == cv)))


def run_min_based_trials(trials: int = 1000, seed: int = 0, max_n: int = 30) -> int:
    """Randomized sweep; returns the total conflict count over all trials."""
    rng = random.Random(seed)
    total = 0
    for _ in range(trials):
        n = rng.randint(4, max_n)
        size = rng.randint(0, n)
        A = frozenset(rng.sample(range(1, n + 1), size))
        total += min_based_conflicts(n, A)
    return total


def path_graph(n: int) -> Graph:
    return build_graph([f"p{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return build_graph([f"k{i}" for i in range(n)], edges)


def cycle_graph(n: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return build_graph([f"c{i}" for i in range(n)], edges)


def edgeless_graph(n: int) -> Graph:
    return build_graph([f"e{i}" for i in range(n)], [])


def small_corpus() -> list[tuple[str, Graph]]:
    """Every corpus graph on at most 8 vertices (oracle territory)."""
    c5 = cycle_graph(5)
    return [
        ("K_2", complete_graph(2)),
        ("K_4", complete_graph(4)),
        ("K_5", complete_graph(5)),
        ("C_5", c5),
        ("C_7", cycle_graph(7)),
        ("P_5", path_graph(5)),
        ("edgeless_5", edgeless_graph(5)),
        ("C_5_minus_edge", delete_edge(c5, (0, 1))),
        ("G_4", gn(4)),
        ("G_5", gn(5)),
        ("M_2", mycielski_iter(2)),
        ("M_3", mycielski_iter(3)),
        ("KG_4_2", kneser(4, 2)),
        ("SG_7_3", schrijver(7, 3)),
    ]
