"""Exact k-colourability and chromatic number by complete backtracking.

Every colouring comes from one search loop, ``_search``, which accepts any
graph and any k >= 0.  It colours one vertex per depth, picking the
uncoloured vertex of maximum saturation (distinct neighbour colours),
breaking ties by degree and then by a rank: seed-derived in the exact search,
the vertex id in the greedy upper bound, which is the loop's first descent
with 1 + max degree colours and so never backtracks.  Colour symmetry is
broken canonically: a vertex may only reuse a colour already on the board or
introduce the single next new one, and the loop places a clique at the first
depths, in the first colours.  The clique is grown greedily once, from the
vertex of highest degree; it need not be maximum.  Both breaks preserve
completeness (any proper colouring can be relabelled into canonical form), so
a "no" answer is exhaustive.

The time budget starts when ``is_k_colorable`` or ``chromatic_number`` is
called, so it covers the clique and the greedy bound as well as the search.
The search runs as one loop and reads the wall clock only when its backtrack
count reaches a multiple of ``backtrack_check_interval``, never per node, so
timeout handling stays cheap and the search itself deterministic: the
interval changes no status, witness or backtrack count, only how far a
budget may be overrun.  The loop runs interpreted on plain Python lists (one
neighbour tuple and one neighbour-colour-count list per vertex), which index
without the scalar boxing that numpy arrays cost in an interpreted loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graph import Coloring, Graph, count_colors


@dataclass(frozen=True)
class SolverConfig:
    # Wall-clock seconds per call, counted from the call's start: the clique
    # and the greedy bound spend it too.
    time_budget: float = 60.0
    seed: int = 0
    # Timeout granularity: the wall clock is read once per this many
    # backtracks, never per node (about every 8 ms at 1024).
    backtrack_check_interval: int = 1_024

    def __post_init__(self) -> None:
        if not self.time_budget > 0:  # also rejects NaN
            raise ValueError("time_budget must be positive")
        if self.backtrack_check_interval < 1:
            raise ValueError("backtrack_check_interval must be >= 1")


@dataclass(frozen=True)
class ColorDecision:
    """Outcome of a k-colourability decision: yes (with witness), no, timeout."""

    status: str  # "yes" | "no" | "timeout"
    witness: Coloring | None = None
    backtracks: int = 0


@dataclass(frozen=True)
class ChromaticResult:
    chi: int
    witness: Coloring
    lower_bound_witness: tuple[int, ...]
    status: str  # "exact" | "timeout_with_bounds"
    lower_bound: int
    upper_bound: int


def greedy_bound(g: Graph) -> Coloring:
    """Proper colouring by first fit, most saturated uncoloured vertex first.

    This is the search's first descent with 1 + max degree colours and the
    last ties broken by vertex id: first fit then always finds a colour, so
    the descent never backtracks.
    """
    k = 1 + max((g.degree(v) for v in range(g.n)), default=0)
    return _search(g, k, list(range(g.n)), [], math.inf, 1).witness or {}


def clique_bound(g: Graph) -> list[int]:
    """A clique grown greedily from the vertex of highest degree.

    Each step adds the candidate with the most neighbours among the
    candidates, then the highest degree, then the lowest id.  Its size is a
    valid lower bound on the chromatic number.
    """
    if g.n == 0:
        return []
    v = min(range(g.n), key=lambda u: (-g.degree(u), u))
    clique = [v]
    cands = set(g.adj[v])
    while cands:
        v = max(cands, key=lambda u: (len(g.adj[u] & cands), g.degree(u), -u))
        clique.append(v)
        cands &= g.adj[v]
    return sorted(clique)


def is_k_colorable(
    g: Graph, k: int, cfg: SolverConfig | None = None
) -> ColorDecision:
    """Decide k-colourability by complete search; "no" is exhaustive.

    Time budget exhaustion is reported as status "timeout", distinct from a
    proved "no".
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    cfg = cfg or SolverConfig()
    deadline = time.monotonic() + cfg.time_budget
    return _search(g, k, _rank(g.n, cfg.seed), clique_bound(g), deadline,
                   cfg.backtrack_check_interval)


def _rank(n: int, seed: int) -> list[int]:
    """The seed's tie-break rank of each vertex: a random permutation."""
    rng = np.random.default_rng(seed)
    return np.argsort(rng.permutation(n)).tolist()


def _search(
    g: Graph, k: int, rank: list[int], clique: list[int], deadline: float,
    interval: int,
) -> ColorDecision:
    """``is_k_colorable`` for any g and k >= 0, given a clique of g.

    Each depth colours the uncoloured vertex of maximum saturation, then
    degree, then least ``rank``, except that depth d < len(clique) takes
    ``clique[d]``, which first fit gives colour d; backtracking into that
    prefix proves "no".  nbrs[v] is v's neighbour tuple and ncc[v][c] the
    number of v's neighbours coloured c; no colour reaches n, so a row has
    min(k, n) entries.  While ``advance`` is false the loop selects a vertex
    for the current depth; while it is true it advances the colour of the
    vertex already on the stack.  ``deadline`` is a ``time.monotonic()``
    value, read once per ``interval`` backtracks.
    """
    if len(clique) > k:
        return ColorDecision("no")

    n = g.n
    nbrs = [g.neighbors(v) for v in range(n)]
    degree = [len(nb) for nb in nbrs]
    color = [-1] * n
    ncc = [[0] * min(k, n) for _ in range(n)]
    sat = [0] * n
    stack_vertex = [0] * n
    stack_color = [0] * n
    stack_prev_max = [0] * n

    fixed = len(clique)
    max_used = -1
    depth = 0
    next_check = interval
    backtracks = 0
    advance = False
    while True:
        if not advance:
            if depth == n:
                witness = dict(enumerate(color))
                return ColorDecision("yes", witness=witness, backtracks=backtracks)
            if depth < fixed:
                v = clique[depth]
            else:
                v = -1
                best_sat = -1
                best_deg = -1
                best_rank = 0
                for u in range(n):
                    if color[u] < 0:
                        su = sat[u]
                        if su < best_sat:
                            continue
                        du = degree[u]
                        if (su > best_sat or du > best_deg
                                or (du == best_deg and rank[u] < best_rank)):
                            v = u
                            best_sat = su
                            best_deg = du
                            best_rank = rank[u]
            stack_vertex[depth] = v
            stack_prev_max[depth] = max_used
            start_c = 0
        else:
            if depth < fixed:
                return ColorDecision("no", backtracks=backtracks)
            v = stack_vertex[depth]
            c_old = stack_color[depth]
            color[v] = -1
            for nb in nbrs[v]:
                counts = ncc[nb]
                counts[c_old] -= 1
                if counts[c_old] == 0:
                    sat[nb] -= 1
            max_used = stack_prev_max[depth]
            start_c = c_old + 1
        limit = min(max_used + 1, k - 1)
        counts = ncc[v]
        c = -1
        for cc in range(start_c, limit + 1):
            if counts[cc] == 0:
                c = cc
                break
        if c < 0:
            depth -= 1
            advance = True
            backtracks += 1
            if backtracks == next_check:
                if time.monotonic() >= deadline:
                    return ColorDecision("timeout", backtracks=backtracks)
                next_check += interval
        else:
            color[v] = c
            stack_color[depth] = c
            for nb in nbrs[v]:
                counts = ncc[nb]
                if counts[c] == 0:
                    sat[nb] += 1
                counts[c] += 1
            if c > max_used:
                max_used = c
            depth += 1
            advance = False


def chromatic_number(g: Graph, cfg: SolverConfig | None = None) -> ChromaticResult:
    """Exact chromatic number with witness, or bounds on budget exhaustion.

    Searches downward from the greedy upper bound; optimality is certified
    either by the clique lower bound or by an exhaustive "no" one level
    below the final witness.  The clique is found once and seeds every
    search.
    """
    cfg = cfg or SolverConfig()
    deadline = time.monotonic() + cfg.time_budget
    rank = _rank(g.n, cfg.seed)
    clique = clique_bound(g)
    lower = len(clique)
    witness = greedy_bound(g)
    upper = count_colors(witness)

    for k in range(upper - 1, lower - 1, -1):
        if time.monotonic() >= deadline:
            decision = ColorDecision("timeout")
        else:
            decision = _search(g, k, rank, clique, deadline,
                               cfg.backtrack_check_interval)
        if decision.status == "timeout":
            return ChromaticResult(
                upper, witness, tuple(clique), "timeout_with_bounds", lower, upper
            )
        if decision.status == "no":
            break
        witness = decision.witness or {}
        upper = k
    return ChromaticResult(upper, witness, tuple(clique), "exact", upper, upper)
