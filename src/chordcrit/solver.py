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
and how many more its depth has to try, without a scan.  A dead end jumps
back by conflict-directed backjumping (Prosser 1993): it blames the depths
whose colours forbade the pick its colours, goes back in one step to the
deepest of them, past depths whose other colours could not help, and
counts one backtrack for each depth it leaves.  Each depth it leaves with
no colour to try passes its own blamed depths on.  The jumps skip only
branches that hold no colouring, so the search returns the status and
witness of one that steps up one depth at a time, in no more backtracks:
G_10's "no" at k = 7 takes 1,685 of them, against 5,291.  The neighbourhood
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

from .graph import Coloring, Graph, count_colors, pack, unpack


@dataclass(frozen=True)
class SolverConfig:
    # Wall-clock seconds per call, counted from the call's start: the clique
    # and the greedy bound spend it too.
    time_budget: float = 60.0
    seed: int = 0
    # Timeout granularity: the wall clock is read once per this many
    # backtracks, never per node (every 2-5 ms at 1024: G_11's 13,438
    # backtracks take ~0.05 s, G_12's 45,177 ~0.2 s on a 2-vCPU Xeon).
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
    n = g.n
    # The key (neighbours among the candidates, degree, -id) as one int:
    # degree * n + n - 1 - id is below n * n, and distinct for each vertex.
    span = n * n
    tie = [g.degree(v) * n + n - 1 - v for v in order]
    clique = []
    cands = (1 << n) - 1
    while cands:
        best = -1
        rest = cands
        while rest:
            low = rest & -rest
            p = low.bit_length() - 1
            key = (adjm[p] & cands).bit_count() * span + tie[p]
            if key > best:
                best, q = key, p
            rest ^= low
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
    The narrowing over the planes that finds the pick also yields its
    saturation ``sat``, the number of its forbidden colours in 0..limit
    (forb[c] is zero for c > max_used), so it has a free colour iff
    sat <= limit, and its depth has limit - sat colours left above the one
    it takes: none in the clique prefix, whose colour is its depth.

    Backtracking jumps by conflict sets (conflict-directed backjumping,
    Prosser 1993).  stack[d] is (bit of p, c, colours left, carry, then
    max_used, planes and uncolored as they were before d was placed); carry
    is the bits d's colour added to forb[c], so each colour forbidden to a
    position is blamed on the one depth whose carry holds its bit.
    ``_blame`` scans the carries for them, at dead ends only, and skips the
    clique prefix, which no jump resumes.  conflicts[d] masks depths below
    d and is zero when d is placed.

    - A dead end comes only once all k colours are used (sat is at most
      max_used + 1), and it blames one depth per colour.
    - It resumes at the deepest blamed depth a, which merges the other
      blamed depths into conflicts[a] and takes its next free colour.
    - If a has no colour left, it passes on the other blamed depths,
      conflicts[a] and the depths its own pick blames, and the jump goes on
      from the deepest of them.
    - With no blamed depth left, the answer is "no".

    Each such set, with the clique prefix, is a nogood: no proper
    k-colouring gives the vertices at the prefix and at its depths the
    colours they have now.  At a dead end each colour of the pick is on a
    neighbour at one of those depths.  A depth a with no colour left had
    each colour up to limit either forbidden by a depth it blames or
    refuted by a nogood made of a, the prefix and depths in conflicts[a].
    A colour above limit, hidden by the canonical cap, is unused below a,
    and so is limit itself, which was tried: swapping the two in a
    colouring that agrees with the passed set keeps it agreeing and gives
    a's vertex the refuted colour.  With no blamed depth left the prefix
    alone is a nogood, and any colouring can be relabelled to give the
    clique the prefix's colours, so the answer is "no".  So every branch
    jumped over lies under a nogood and holds no colouring, and the search
    visits part of the tree of the loop that steps up one depth at a time,
    in its order: the status and witness are that loop's, and the backtrack
    count, the depths popped plus one for a "no", is at most the loop's.

    A jump undoes forb by XOR over the popped entries and takes the rest
    back from the resumed one, so planes is copied on write, when carry is
    non-zero.  ``deadline`` is a ``time.monotonic()`` value, read while the
    backtrack count is at or past the next multiple of ``interval``; a
    timeout reports that multiple.  The interval changes no status, witness
    or backtrack count.
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
    conflicts = [0] * n  # zero at every depth not on the stack

    top = k - 1
    max_used = -1
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
            else:  # dead end: jump to the deepest depth it blames
                blamed = _blame(stack, fixed, depth, cand & -cand)
                to = blamed.bit_length() - 1
                while to >= fixed and not stack[to][2]:  # no colour left
                    blamed ^= 1 << to
                    blamed |= conflicts[to] | _blame(stack, fixed, to, stack[to][0])
                    to = blamed.bit_length() - 1
                backtracks += depth - max(to, fixed - 1)
                while backtracks >= next_check:
                    if time.monotonic() >= deadline:
                        return ColorDecision("timeout", backtracks=next_check)
                    next_check += interval
                if to < fixed:
                    return ColorDecision("no", backtracks=backtracks)
                conflicts[to] |= blamed ^ 1 << to
                conflicts[to + 1:depth] = [0] * (depth - to - 1)
                for entry in stack[to:]:
                    forb[entry[1]] ^= entry[3]
                bit, c, left, _, max_used, planes, uncolored = stack[to]
                del stack[to:]
                depth = to
                c += 1
                while forb[c] & bit:
                    c += 1
                left -= 1
        carry = adjm[bit.bit_length() - 1] & ~forb[c]
        stack.append((bit, c, left, carry, max_used, planes, uncolored))
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
        depth += 1
    witness = dict(sorted((order[b.bit_length() - 1], c) for b, c, *_ in stack))
    return ColorDecision("yes", witness=witness, backtracks=backtracks)


def _blame(stack: list[tuple], fixed: int, depth: int, bit: int) -> int:
    """The depths in fixed..depth-1 whose colour first forbade it to ``bit``,
    one per colour forbidden to it, as a mask: those whose carry holds it."""
    blamed = 0
    for d in range(fixed, depth):
        if stack[d][3] & bit:
            blamed |= 1 << d
    return blamed


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
