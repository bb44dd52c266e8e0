"""The benchmark's workloads: one fixed list of public-API calls per paper claim.

Every op is a call into ``chordcrit`` plus a check of its output: the verdict
it must reach and, where the op renders text, the SHA-256 of that text as
recorded in ``digests.json`` when the benchmark was written.  A speed-up may
not change a byte of output, so a digest mismatch is a failed op.

Calls go through module attributes at call time (``cc.gn(...)``), never
through names bound at import, so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Any, Callable

import chordcrit as cc
from chordcrit import cli

DIGESTS: dict[str, str] = json.loads(
    (Path(__file__).with_name("digests.json")).read_text()
)

# Exhaustive "no" proofs of G_10 per pass, each under its own tie-break
# seed.  G_11 is not used: its proof takes 139k to 260k backtracks depending
# on the solver seed, which would make `solve` as seed-sensitive as it is
# slow, while G_10 needs 5.2k to 5.4k backtracks under every seed tried.
PROOF_SEEDS = 8


@dataclass(frozen=True)
class Op:
    """One call of a workload and the checks its output must pass."""

    id: str  # key into digests.json; also names the op's span when traced
    call: Callable[[], Any]
    # Returns None when the verdict is right, else what is wrong.
    check: Callable[[Any], str | None]
    # Text whose SHA-256 must equal DIGESTS[id]; None when nothing is rendered.
    render: Callable[[Any], str] | None = None
    # Time budget given to the solver.  Such an op runs once per traced run,
    # outside the timed passes, and the runner reports elapsed minus budget.
    budget: float | None = None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def output_problem(op: Op, out: Any) -> str | None:
    """None when the op's output is correct, else a one-line reason."""
    problem = op.check(out)
    if problem is not None or op.render is None:
        return problem
    got = sha256(op.render(out))
    want = DIGESTS.get(op.id)
    if want is None:
        return f"no recorded digest (output digest {got})"
    if got != want:
        return f"output digest {got} != recorded {want}"
    return None


def _expect(cond: bool, text: str) -> str | None:
    return None if cond else text


def _coloring_problem(g: cc.Graph, k: int, witness: dict[int, int] | None) -> str | None:
    if witness is None or len(witness) != g.n:
        return "witness is not total"
    if len(set(witness.values())) > k:
        return f"witness uses more than {k} colours"
    for u, v in g.edges():
        if witness[u] == witness[v]:
            return f"witness colours both ends of edge ({u},{v})"
    return None


# --- census: the edge ratio -> 2/3 claim -------------------------------------


def census(seed: int, sizes: dict) -> list[Op]:
    """count_pairs over a sweep of n; exhaustive, so the seed is unused."""
    del seed
    return [
        Op(
            f"count_pairs:{n}",
            lambda n=n: cc.count_pairs(n),
            lambda c: _expect(c.crossing == comb(c.n, 4), f"crossing {c.crossing} != C({c.n},4)"),
            render=lambda c: c.row(),
        )
        for n in sizes["census_n"]
    ]


# --- certify: the edge-criticality claim --------------------------------------


def _crosscheck(n: int, cfg: cc.SolverConfig) -> str | None:
    """Criterion 3: G_n is not (n-3)-colourable, every G_n - e is."""
    g = cc.gn(n)
    k = n - 3
    base = cc.is_k_colorable(g, k, cfg)
    if base.status != "no":
        return f"G_{n} at k={k}: status {base.status}, expected no"
    for e in g.edges():
        sub = cc.delete_edge(g, e)
        d = cc.is_k_colorable(sub, k, cfg)
        if d.status != "yes":
            return f"G_{n} - {tuple(e)} at k={k}: status {d.status}, expected yes"
        problem = _coloring_problem(sub, k, d.witness)
        if problem is not None:
            return f"G_{n} - {tuple(e)}: {problem}"
    return None


def certify(seed: int, sizes: dict) -> list[Op]:
    """Edge certificates over every edge of G_n, plus the solver cross-check.

    The certificate sweep is exhaustive and seed-free; the seed only sets
    the solver's tie-break rank in the cross-check.
    """
    cfg = cc.SolverConfig(seed=seed)
    ops = [
        Op(
            f"verify_edge_criticality:{n}",
            lambda n=n: cc.verify_edge_criticality(n),
            lambda r: _expect(bool(r.rows) and r.all_pass, f"{len(r.rows) - r.passed} certificates fail"),
            render=lambda r: r.render(),
        )
        for n in sizes["certify_n"]
    ]
    ops += [
        Op(f"crosscheck:{n}", lambda n=n: _crosscheck(n, cfg), lambda problem: problem)
        for n in sizes["crosscheck_n"]
    ]
    return ops


# --- solve: chi(G_n) = n-2, the homomorphism chain, vertex criticality --------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the command-line front end in-process; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def solve(seed: int, sizes: dict) -> list[Op]:
    """Exact solver calls; the seed sets every call's tie-break rank."""
    cfg = cc.SolverConfig(seed=seed)
    ops = [
        Op(
            f"chromatic:{n}",
            lambda n=n: run_cli(["verify", "chromatic", "--n", str(n), "--seed", str(seed)]),
            lambda out: _expect(out[0] == 0, f"exit code {out[0]}"),
            render=lambda out: out[1],
        )
        for n in sizes["chromatic_n"]
    ]
    pn = sizes["proof_n"]
    ops += [
        Op(
            f"prove:G{pn}:k{pn - 3}:{i}",
            lambda pcfg=cc.SolverConfig(seed=seed * PROOF_SEEDS + i): cc.is_k_colorable(
                cc.gn(pn), pn - 3, pcfg
            ),
            lambda d: _expect(d.status == "no", f"status {d.status}, expected no"),
        )
        for i in range(sizes["proof_seeds"])
    ]
    tn, budget, interval = sizes["timeout"]
    tcfg = cc.SolverConfig(
        time_budget=budget,
        seed=seed,
        backtrack_check_interval=interval or cc.SolverConfig.backtrack_check_interval,
    )
    ops.append(
        Op(
            f"timeout:G{tn}:k{tn - 3}",
            lambda: cc.is_k_colorable(cc.gn(tn), tn - 3, tcfg),
            lambda d: _expect(d.status == "timeout", f"status {d.status}, expected timeout"),
            budget=budget,
        )
    )
    ln = sizes["chain_n"]
    ops.append(
        Op(
            f"lower_bound_chain:{ln}",
            lambda: cc.lower_bound_chain(ln, cfg),
            lambda r: _expect(r.all_valid and r.bound == ln - 2, "chain not valid"),
            render=lambda r: r.render(),
        )
    )
    ops += [
        Op(
            f"vertex_criticality:SG{n}",
            lambda n=n: cc.verify_vertex_criticality(cc.schrijver(n, 2), cfg),
            lambda r: _expect(r.all_dropped, "a vertex deletion kept chi"),
            render=lambda r: r.render(),
        )
        for n in sizes["vertex_sg_n"]
    ]
    return ops


WORKLOADS: dict[str, Callable[[int, dict], list[Op]]] = {
    "census": census,
    "certify": certify,
    "solve": solve,
}

# One toy-size call per workload, made during set-up and before timing.
WARMUPS: dict[str, Callable[[int], Any]] = {
    "census": lambda seed: cc.count_pairs(6),
    "certify": lambda seed: cc.verify_edge_criticality(6),
    "solve": lambda seed: cc.chromatic_number(cc.gn(6), cc.SolverConfig(seed=seed)),
}

# A run reports each op's median time over many passes (see run.median_pass),
# which is steady only when every op is short: no op here takes more than
# about 0.3 s.  n = 200 (census, 9-13 s), n = 20 (certify, 5-6 s), and the
# solver cross-check at n = 9 (1.2-1.6 s) are too long to repeat often.
# The timeout op cannot be short: it costs the 200k backtracks of one
# clock-check interval whatever the instance, so it runs once per traced run
# and is kept out of the timed passes.  Its instance needs more than 200k
# backtracks under every seed, or it would finish with "no": G_11 does not
# (139k under some seeds).
FULL = {
    "census_n": (*range(5, 61), 80),
    "certify_n": tuple(range(4, 15)),
    "crosscheck_n": tuple(range(4, 9)),
    "chromatic_n": tuple(range(4, 11)),
    "proof_n": 10,
    "proof_seeds": PROOF_SEEDS,
    "timeout": (12, 0.01, None),
    "chain_n": 15,
    "vertex_sg_n": (6, 7),
}

# Sizes for the smoke test; every op id here also has a recorded digest.
TOY = {
    "census_n": (5, 6, 7, 8),
    "certify_n": (4, 5, 6),
    "crosscheck_n": (4, 5),
    "chromatic_n": (4, 5, 6),
    "proof_n": 10,
    "proof_seeds": 1,
    "timeout": (9, 1e-9, 1),
    "chain_n": 6,
    "vertex_sg_n": (6,),
}

SCALES = {"full": FULL, "toy": TOY}
