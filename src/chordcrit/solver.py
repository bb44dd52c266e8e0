"""Exact k-colourability and chromatic number by complete backtracking.

There is one vertex order.  The search colours one vertex per depth,
picking the uncoloured vertex of maximum saturation (distinct neighbour
colours), breaking ties by degree and then by a seed-derived rank; the greedy
upper bound picks the same way but breaks the last ties by vertex id.  Colour
symmetry is broken canonically: a vertex may only reuse a colour already on
the board or introduce the single next new one, and a maximum clique found
heuristically is pre-assigned the first colours.  Both breaks preserve
completeness (any proper colouring can be relabelled into canonical form), so
a "no" answer is exhaustive.

The kernel runs in slices of a bounded number of backtracks; the wall clock
is consulted only between slices, which keeps timeout handling cheap and the
search itself deterministic.  The first slice is small and each slice that
ends quickly doubles the next one, up to ``backtrack_check_interval``, so a
budget is overrun by about one short slice whatever the kernel's speed.
Slices resume the same search, so their sizes change no status, witness or
backtrack count.  With numba the kernel is compiled; with CHORDCRIT_NO_JIT=1
the identical code runs interpreted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._jit import njit
from .graph import Coloring, Graph, count_colors

_SAT = 1
_UNSAT = 2
_PAUSED = 0

# Slice sizing: backtracks in the first slice, and the wall time under which
# a slice is doubled.
_FIRST_SLICE = 256
_SLICE_TARGET_S = 0.05


@dataclass(frozen=True)
class SolverConfig:
    time_budget: float = 60.0
    seed: int = 0
    # Timeout granularity: the wall clock is checked at least once per this
    # many backtracks, never per node.
    backtrack_check_interval: int = 200_000

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


@njit(cache=True)
def _search_slice(indptr, indices, k, degree, rank, color, ncc, sat,
                  stack_vertex, stack_color, stack_prev_max, state,
                  max_backtracks):
    """Resumable exact-search slice; returns (status, backtracks_used).

    state = [depth, max_used, mode, fixed_prefix].  mode 0 selects a vertex
    for the current depth, mode 1 advances the colour of the vertex already
    on the stack.  Backtracking below fixed_prefix (the pre-assigned clique)
    proves unsatisfiability.
    """
    n = color.shape[0]
    depth = state[0]
    max_used = state[1]
    mode = state[2]
    fixed = state[3]
    backtracks = 0
    while True:
        if mode == 0:
            if depth == n:
                state[0] = depth
                state[1] = max_used
                state[2] = mode
                return _SAT, backtracks
            v = -1
            best_sat = -1
            best_deg = -1
            best_rank = 0
            for u in range(n):
                if color[u] < 0:
                    su = sat[u]
                    du = degree[u]
                    if (su > best_sat
                            or (su == best_sat and du > best_deg)
                            or (su == best_sat and du == best_deg
                                and rank[u] < best_rank)):
                        v = u
                        best_sat = su
                        best_deg = du
                        best_rank = rank[u]
            stack_vertex[depth] = v
            stack_prev_max[depth] = max_used
            start_c = 0
        else:
            if depth < fixed:
                state[0] = depth
                state[1] = max_used
                state[2] = mode
                return _UNSAT, backtracks
            v = stack_vertex[depth]
            c_old = stack_color[depth]
            color[v] = -1
            for p in range(indptr[v], indptr[v + 1]):
                nb = indices[p]
                ncc[nb * k + c_old] -= 1
                if ncc[nb * k + c_old] == 0:
                    sat[nb] -= 1
            max_used = stack_prev_max[depth]
            start_c = c_old + 1
        limit = max_used + 1
        if limit > k - 1:
            limit = k - 1
        c = -1
        for cc in range(start_c, limit + 1):
            if ncc[v * k + cc] == 0:
                c = cc
                break
        if c < 0:
            depth -= 1
            mode = 1
            backtracks += 1
            if backtracks >= max_backtracks:
                state[0] = depth
                state[1] = max_used
                state[2] = mode
                return _PAUSED, backtracks
        else:
            color[v] = c
            stack_color[depth] = c
            for p in range(indptr[v], indptr[v + 1]):
                nb = indices[p]
                if ncc[nb * k + c] == 0:
                    sat[nb] += 1
                ncc[nb * k + c] += 1
            if c > max_used:
                max_used = c
            depth += 1
            mode = 0


def _csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    for v in range(g.n):
        indptr[v + 1] = indptr[v] + g.degree(v)
    indices = np.empty(indptr[-1], dtype=np.int64)
    pos = 0
    for v in range(g.n):
        for w in g.neighbors(v):
            indices[pos] = w
            pos += 1
    return indptr, indices


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
    """A clique found greedily with a 1-out/2-in improvement pass.

    Its size is a valid lower bound on the chromatic number.
    """
    if g.n == 0:
        return []
    best: list[int] = [0]

    def grow(clique: list[int], candidates: set[int]) -> list[int]:
        clique = list(clique)
        cands = set(candidates)
        while cands:
            v = max(cands, key=lambda u: (len(g.adj[u] & cands), g.degree(u), -u))
            clique.append(v)
            cands &= g.adj[v]
        return clique

    seeds = sorted(range(g.n), key=lambda u: (-g.degree(u), u))[: min(g.n, 32)]
    for s in seeds:
        clique = grow([s], set(g.adj[s]))
        if len(clique) > len(best):
            best = clique
    # Local improvement: dropping one member may admit two replacements.
    improved = True
    while improved:
        improved = False
        for drop in list(best):
            rest = [v for v in best if v != drop]
            cands = set(range(g.n)) - set(rest)
            for v in rest:
                cands &= g.adj[v] | {v}
            cands.discard(drop)
            candidate = grow(rest, {c for c in cands if c not in rest})
            if len(candidate) > len(best):
                best = candidate
                improved = True
                break
    return sorted(best)


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
    n = g.n
    if n == 0:
        return ColorDecision("yes", witness={})
    if k == 0:
        return ColorDecision("no")
    clique = clique_bound(g)
    if len(clique) > k:
        return ColorDecision("no")

    indptr, indices = _csr(g)
    degree = np.diff(indptr).astype(np.int64)
    rng = np.random.default_rng(cfg.seed)
    rank = np.argsort(rng.permutation(n)).astype(np.int64)

    color = np.full(n, -1, dtype=np.int64)
    ncc = np.zeros(n * k, dtype=np.int64)
    sat = np.zeros(n, dtype=np.int64)
    stack_vertex = np.zeros(n, dtype=np.int64)
    stack_color = np.zeros(n, dtype=np.int64)
    stack_prev_max = np.zeros(n, dtype=np.int64)

    # Pre-assign the clique to colours 0..q-1; backtracking below this
    # prefix is unsatisfiability.
    seed_clique = clique[:k]
    for depth, v in enumerate(seed_clique):
        c = depth
        stack_vertex[depth] = v
        stack_color[depth] = c
        stack_prev_max[depth] = c - 1
        color[v] = c
        for w in g.adj[v]:
            if ncc[w * k + c] == 0:
                sat[w] += 1
            ncc[w * k + c] += 1
    q = len(seed_clique)
    state = np.array([q, q - 1, 0, q], dtype=np.int64)

    deadline = time.monotonic() + cfg.time_budget
    slice_size = min(_FIRST_SLICE, cfg.backtrack_check_interval)
    total_backtracks = 0
    while True:
        started = time.monotonic()
        status, used = _search_slice(
            indptr, indices, k, degree, rank, color, ncc, sat,
            stack_vertex, stack_color, stack_prev_max, state, slice_size,
        )
        total_backtracks += int(used)
        if status == _SAT:
            witness = {v: int(color[v]) for v in range(n)}
            return ColorDecision("yes", witness=witness, backtracks=total_backtracks)
        if status == _UNSAT:
            return ColorDecision("no", backtracks=total_backtracks)
        now = time.monotonic()
        if now >= deadline:
            return ColorDecision("timeout", backtracks=total_backtracks)
        if now - started < _SLICE_TARGET_S:
            slice_size = min(2 * slice_size, cfg.backtrack_check_interval)


def chromatic_number(g: Graph, cfg: SolverConfig | None = None) -> ChromaticResult:
    """Exact chromatic number with witness, or bounds on budget exhaustion.

    Searches downward from the greedy upper bound; optimality is certified
    either by the clique lower bound or by an exhaustive "no" one level
    below the final witness.
    """
    cfg = cfg or SolverConfig()
    if g.n == 0:
        return ChromaticResult(0, {}, (), "exact", 0, 0)
    clique = clique_bound(g)
    lower = max(1, len(clique))
    witness = greedy_bound(g)
    upper = count_colors(witness)
    deadline = time.monotonic() + cfg.time_budget

    k = upper - 1
    while k >= lower:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return ChromaticResult(
                upper, witness, tuple(clique), "timeout_with_bounds", lower, upper
            )
        step_cfg = SolverConfig(
            time_budget=remaining,
            seed=cfg.seed,
            backtrack_check_interval=cfg.backtrack_check_interval,
        )
        decision = is_k_colorable(g, k, step_cfg)
        if decision.status == "yes":
            witness = decision.witness or {}
            upper = k
            k -= 1
        elif decision.status == "no":
            lower = k + 1
            break
        else:
            return ChromaticResult(
                upper, witness, tuple(clique), "timeout_with_bounds", lower, upper
            )
    return ChromaticResult(upper, witness, tuple(clique), "exact", upper, upper)


def render_witness(g: Graph, c: Coloring) -> str:
    """Witness colouring as 'vertex_label colour' lines."""
    return "\n".join(f"{g.labels[v]} {c[v]}" for v in sorted(c)) + "\n"
