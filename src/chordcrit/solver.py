"""Exact k-colourability and chromatic number by complete backtracking.

There is one vertex order.  The search colours one vertex per depth,
picking the uncoloured vertex of maximum saturation (distinct neighbour
colours), breaking ties by degree and then by a seed-derived rank; the greedy
upper bound picks the same way but breaks the last ties by vertex id.  Colour
symmetry is broken canonically: a vertex may only reuse a colour already on
the board or introduce the single next new one, and a clique is
pre-assigned the first colours.  The clique is grown greedily once, from the
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
    """Proper colouring by first fit, most saturated uncoloured vertex first."""
    coloring: Coloring = {}
    neighbor_colors: list[set[int]] = [set() for _ in range(g.n)]
    for _ in range(g.n):
        v = max(
            (u for u in range(g.n) if u not in coloring),
            key=lambda u: (len(neighbor_colors[u]), g.degree(u), -u),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        coloring[v] = c
        for w in g.adj[v]:
            if w not in coloring:
                neighbor_colors[w].add(c)
    return coloring


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
    if g.n == 0:
        return ColorDecision("yes", witness={})
    if k == 0:
        return ColorDecision("no")
    deadline = time.monotonic() + cfg.time_budget
    return _search(g, k, cfg, clique_bound(g), deadline)


def _search(
    g: Graph, k: int, cfg: SolverConfig, clique: list[int], deadline: float
) -> ColorDecision:
    """``is_k_colorable`` for a non-empty g and k >= 1, given a clique of g.

    nbrs[v] is v's neighbour tuple and ncc[v][c] the number of v's neighbours
    coloured c.  While ``advance`` is false the loop selects a vertex for the
    current depth; while it is true it advances the colour of the vertex
    already on the stack.  ``deadline`` is a ``time.monotonic()`` value.
    """
    if len(clique) > k:
        return ColorDecision("no")

    n = g.n
    nbrs = [g.neighbors(v) for v in range(n)]
    degree = [len(nb) for nb in nbrs]
    rng = np.random.default_rng(cfg.seed)
    rank = np.argsort(rng.permutation(n)).tolist()

    color = [-1] * n
    ncc = [[0] * k for _ in range(n)]
    sat = [0] * n
    stack_vertex = [0] * n
    stack_color = [0] * n
    stack_prev_max = [0] * n

    # Pre-assign the clique to colours 0..q-1; backtracking below this
    # prefix is unsatisfiability.
    seed_clique = clique[:k]
    for depth, v in enumerate(seed_clique):
        c = depth
        stack_vertex[depth] = v
        stack_color[depth] = c
        stack_prev_max[depth] = c - 1
        color[v] = c
        for w in nbrs[v]:
            if ncc[w][c] == 0:
                sat[w] += 1
            ncc[w][c] += 1
    fixed = depth = len(seed_clique)
    max_used = fixed - 1

    interval = cfg.backtrack_check_interval
    next_check = interval
    backtracks = 0
    advance = False
    while True:
        if not advance:
            if depth == n:
                witness = dict(enumerate(color))
                return ColorDecision("yes", witness=witness, backtracks=backtracks)
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
    if g.n == 0:
        return ChromaticResult(0, {}, (), "exact", 0, 0)
    deadline = time.monotonic() + cfg.time_budget
    clique = clique_bound(g)
    lower = max(1, len(clique))
    witness = greedy_bound(g)
    upper = count_colors(witness)

    for k in range(upper - 1, lower - 1, -1):
        if time.monotonic() >= deadline:
            decision = ColorDecision("timeout")
        else:
            decision = _search(g, k, cfg, clique, deadline)
        if decision.status == "timeout":
            return ChromaticResult(
                upper, witness, tuple(clique), "timeout_with_bounds", lower, upper
            )
        if decision.status == "no":
            break
        witness = decision.witness or {}
        upper = k
    return ChromaticResult(upper, witness, tuple(clique), "exact", upper, upper)
