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
budget may be overrun.  The loop holds vertex sets as Python ints, one bit
per position, with positions in the static tie order (degree descending,
then rank), so one AND tests a whole set: a neighbourhood mask per vertex,
a mask per colour of the vertices it is forbidden to, and saturation as
binary bit planes, whose top-down narrowing of the uncoloured set leaves the
next pick as its lowest bit.  The neighbourhood masks are ``Graph.rows``
permuted into that order, built once per call; the clique is grown on them
and every search of the call reads them.  ``greedy_bound`` breaks ties by
vertex id, so it builds its own.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .graph import Coloring, Graph, bits, count_colors, pack, unpack


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
        interval = self.backtrack_check_interval
        # The search compares its backtrack count to multiples of this.
        if not isinstance(interval, int) or interval < 1:
            raise ValueError("backtrack_check_interval must be an int >= 1")


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
    order = sorted(range(g.n), key=g.degree, reverse=True)
    return _search(_masks(g, order), order, k, [], math.inf, 1).witness or {}


def clique_bound(g: Graph) -> list[int]:
    """A clique grown greedily from the vertex of highest degree.

    Each step adds the candidate with the most neighbours among the
    candidates, then the highest degree, then the lowest id.  Its size is a
    valid lower bound on the chromatic number.  The searches grow the same
    clique on their own masks; this grows it on the identity numbering,
    whose masks are ``g.rows``.
    """
    return _clique(g, g.rows, range(g.n))


def _clique(g: Graph, adjm: Sequence[int], order: Sequence[int]) -> list[int]:
    """``clique_bound(g)`` grown on ``adjm = _masks(g, order)``.

    Every vertex starts as a candidate, so the first step picks the vertex
    of highest degree, then lowest id.  Returns sorted vertex ids.
    """
    degree = [g.degree(v) for v in order]
    clique = []
    cands = (1 << g.n) - 1
    while cands:
        # The keys differ in -order[p], so the trailing p is never compared.
        q = max(((adjm[p] & cands).bit_count(), degree[p], -order[p], p)
                for p in bits(cands))[-1]
        clique.append(order[q])
        cands &= adjm[q]
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
    order = _order(g, cfg.seed)
    adjm = _masks(g, order)
    return _search(adjm, order, k, _clique(g, adjm, order), deadline,
                   cfg.backtrack_check_interval)


def _order(g: Graph, seed: int) -> list[int]:
    """The vertices by degree, highest first, ties in the seed's random order."""
    return sorted(_tie_order(seed, g.n), key=g.degree, reverse=True)


@lru_cache(maxsize=128)
def _tie_order(seed: int, n: int) -> tuple[int, ...]:
    """The seed's random permutation of range(n), drawn once per (seed, n)."""
    return tuple(np.random.default_rng(seed).permutation(n).tolist())


def _masks(g: Graph, order: list[int]) -> tuple[int, ...]:
    """Bit j of mask i is set iff vertices order[i] and order[j] are adjacent:
    ``g.rows`` taken in order, with their columns permuted the same way."""
    return pack(unpack([g.rows[v] for v in order], g.n).take(order, axis=1))


def _search(
    adjm: Sequence[int], order: list[int], k: int, clique: list[int],
    deadline: float, interval: int,
) -> ColorDecision:
    """``is_k_colorable`` for any graph and k >= 0, given a clique of it.

    The graph is ``_masks(g, order)``: vertex order[p] sits at position p.
    Each depth colours the uncoloured position of maximum saturation, the
    least one on ties, except that depth d < len(clique) takes ``clique[d]``,
    which first fit gives colour d.  forb[c] masks the positions with a
    neighbour coloured c (no colour reaches n, so there are min(k, n) of
    them) and stack_new[d] the bits depth d's colour added to it; bit p of
    planes[i] is bit i of p's saturation.  Each step picks a position and
    gives it its first free colour.  When there is none, the inner loop
    backtracks: it steps up a depth, proving "no" once it leaves the clique
    prefix, takes that depth's colour off and tries the next free one.
    ``deadline`` is a ``time.monotonic()`` value, read once per ``interval``
    backtracks.
    """
    if len(clique) > k:
        return ColorDecision("no")

    n = len(adjm)
    fixed = len(clique)
    prefix = [order.index(v) for v in clique]
    forb = [0] * min(k, n)
    planes = [0] * min(k, n).bit_length()
    uncolored = (1 << n) - 1
    stack_pos = [0] * n
    stack_color = [0] * n
    stack_new = [0] * n
    stack_prev_max = [0] * n

    top = k - 1
    max_used = -1
    depth = 0
    next_check = interval
    backtracks = 0
    while depth < n:
        if depth < fixed:
            p = prefix[depth]
        else:
            cand = uncolored
            for plane in reversed(planes):
                if cand & plane:
                    cand &= plane
            p = (cand & -cand).bit_length() - 1
        bit = 1 << p
        limit = max_used + 1 if max_used < top else top
        c = 0
        while c <= limit and forb[c] & bit:
            c += 1
        while c > limit:  # no free colour: backtrack until one is found
            backtracks += 1
            if backtracks == next_check:
                if time.monotonic() >= deadline:
                    return ColorDecision("timeout", backtracks=backtracks)
                next_check += interval
            depth -= 1
            if depth < fixed:
                return ColorDecision("no", backtracks=backtracks)
            p = stack_pos[depth]
            c = stack_color[depth]
            borrow = stack_new[depth]
            forb[c] ^= borrow
            i = 0
            while borrow:  # saturation -= 1 on the bits c had added
                plane = planes[i]
                planes[i] = plane ^ borrow
                borrow &= ~plane
                i += 1
            bit = 1 << p
            uncolored |= bit
            max_used = stack_prev_max[depth]
            limit = max_used + 1 if max_used < top else top
            c += 1
            while c <= limit and forb[c] & bit:
                c += 1
        uncolored ^= bit
        stack_pos[depth] = p
        stack_color[depth] = c
        stack_prev_max[depth] = max_used
        carry = adjm[p] & ~forb[c]
        forb[c] |= carry
        stack_new[depth] = carry
        i = 0
        while carry:  # saturation += 1 on the newly covered bits
            plane = planes[i]
            planes[i] = plane ^ carry
            carry &= plane
            i += 1
        if c > max_used:
            max_used = c
        depth += 1
    vertices = [order[p] for p in stack_pos]
    witness = dict(sorted(zip(vertices, stack_color)))
    return ColorDecision("yes", witness=witness, backtracks=backtracks)


def chromatic_number(g: Graph, cfg: SolverConfig | None = None) -> ChromaticResult:
    """Exact chromatic number with witness, or bounds on budget exhaustion.

    Searches downward from the greedy upper bound; optimality is certified
    either by the clique lower bound or by an exhaustive "no" one level
    below the final witness.  The clique is found once and seeds every
    search.
    """
    cfg = cfg or SolverConfig()
    deadline = time.monotonic() + cfg.time_budget
    order = _order(g, cfg.seed)
    adjm = _masks(g, order)
    clique = _clique(g, adjm, order)
    lower = len(clique)
    witness = greedy_bound(g)
    upper = count_colors(witness)

    for k in range(upper - 1, lower - 1, -1):
        if time.monotonic() >= deadline:
            decision = ColorDecision("timeout")
        else:
            decision = _search(adjm, order, k, clique, deadline,
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
