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
count reaches or passes a multiple of ``backtrack_check_interval``, never
per node, so timeout handling stays cheap and the search itself
deterministic: the interval changes no status, witness or backtrack count,
only how far a budget may be overrun.  The loop holds vertex sets as Python
ints, one bit per position, with positions in the static tie order (degree
descending, then rank), so one AND tests a whole set: a neighbourhood mask
per vertex, a mask per colour of the vertices it is forbidden to, and
saturation as binary bit planes, whose top-down narrowing of the uncoloured
set leaves the next pick as its lowest bit and its saturation as the bits
it narrowed on.  That saturation tells whether the pick has a free colour,
and how many more its depth has to try, without a scan.  So a dead end
needs no colour scan, and it goes back in one step to the deepest depth
with a colour left, counting one backtrack for each depth it leaves, just
as a search that steps up one depth at a time would.  The neighbourhood
masks are ``Graph.rows`` permuted into that order, built once per call; the
clique is grown on them and every search of the call reads them.
``greedy_bound`` breaks ties by vertex id, so it builds its own.
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
    # backtracks, never per node (about every 1.5 ms at 1024: G_11's
    # 260,380 backtracks take ~0.4 s on a 2-vCPU Xeon).
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
    # Summed over the call's searches, a timed-out one included.
    backtracks: int = 0


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
    them), and bit p of planes[0], planes[1], ... spells p's saturation from
    its highest bit down.  Each depth gives its pick the first free colour
    up to ``limit``, one past the highest colour used but at most k - 1.
    Three facts make a node cheap:

    1. A dead end shows in the saturation.  forb[c] is zero for every
       c > max_used, so the pick's saturation ``sat``, which the top-down
       narrowing over the planes yields one bit per plane, counts its
       forbidden colours in 0..limit.  It has a free colour iff
       sat <= limit: then the first-fit scan needs no bound, else no scan.
    2. The colours left at a depth are known when it is placed.  The search
       returns to depth d in exactly the state it had just before d was
       placed, so d has limit - sat free colours above the one it took:
       none in the clique prefix, whose colour is its depth.
    3. A dead end at depth D jumps in one step.  It resumes at the deepest
       depth a >= len(clique) with a colour left, where it takes the next
       free colour, and adds D - a backtracks: the pops a loop that steps up
       one depth per backtrack makes.  With no such depth it adds
       D - len(clique) + 1 and proves "no".

    stack[d] is (bit of p, c, colours left, carry, then max_used, planes,
    uncolored and the deepest depth with a colour left as they were before
    d was placed); carry is the bits d's colour added to forb[c].  A jump
    undoes forb by XOR over the popped entries and takes the rest back from
    the resumed one, so planes is copied on write, when carry is non-zero.
    ``deadline`` is a ``time.monotonic()`` value, read while the backtrack
    count is at or past the next multiple of ``interval``.  A timeout
    reports that multiple, the count at which the one-pop loop reads the
    clock, so neither the interval nor the jumps change a status, witness or
    backtrack count.
    """
    if len(clique) > k:
        return ColorDecision("no")

    n = len(adjm)
    fixed = len(clique)
    prefix = [order.index(v) for v in clique]
    forb = [0] * min(k, n)
    planes = [0] * min(k, n).bit_length()
    low = len(planes) - 1
    uncolored = (1 << n) - 1
    stack = []

    top = k - 1
    max_used = -1
    opened = -1  # the deepest depth with a colour left, -1 if none
    depth = 0
    next_check = interval
    backtracks = 0
    while depth < n:
        if depth < fixed:
            bit = 1 << prefix[depth]
            c = depth
            left = 0
        else:
            cand = uncolored
            sat = 0
            for plane in planes:
                x = cand & plane
                if x:
                    cand = x
                    sat += sat + 1
                else:
                    sat += sat
            limit = max_used + 1 if max_used < top else top
            if sat <= limit:
                bit = cand & -cand
                c = 0
                while forb[c] & bit:
                    c += 1
                left = limit - sat
            else:  # dead end: resume at the deepest depth with a colour left
                backtracks += depth - max(opened, fixed - 1)
                while backtracks >= next_check:
                    if time.monotonic() >= deadline:
                        return ColorDecision("timeout", backtracks=next_check)
                    next_check += interval
                if opened < 0:
                    return ColorDecision("no", backtracks=backtracks)
                depth = opened
                for entry in stack[depth:]:
                    forb[entry[1]] ^= entry[3]
                bit, c, left, _, max_used, planes, uncolored, opened = stack[depth]
                del stack[depth:]
                c += 1
                while forb[c] & bit:
                    c += 1
                left -= 1
        carry = adjm[bit.bit_length() - 1] & ~forb[c]
        stack.append((bit, c, left, carry, max_used, planes, uncolored, opened))
        uncolored ^= bit
        if carry:
            forb[c] |= carry
            planes = planes[:]
            i = low
            while carry:  # saturation += 1 on the newly covered bits
                plane = planes[i]
                planes[i] = plane ^ carry
                carry &= plane
                i -= 1
        if c > max_used:
            max_used = c
        if left:
            opened = depth
        depth += 1
    witness = dict(sorted((order[b.bit_length() - 1], c) for b, c, *_ in stack))
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
    backtracks = 0

    for k in range(upper - 1, lower - 1, -1):
        if time.monotonic() >= deadline:
            decision = ColorDecision("timeout")
        else:
            decision = _search(adjm, order, k, clique, deadline,
                               cfg.backtrack_check_interval)
        backtracks += decision.backtracks
        if decision.status == "timeout":
            return ChromaticResult(upper, witness, tuple(clique),
                                   "timeout_with_bounds", lower, upper, backtracks)
        if decision.status == "no":
            break
        witness = decision.witness or {}
        upper = k
    return ChromaticResult(upper, witness, tuple(clique), "exact", upper, upper,
                           backtracks)
