#!/usr/bin/env python3
"""Benchmark of chordcrit, one workload per paper claim.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py): ``census`` (pair census, edge ratio -> 2/3),
``certify`` (per-edge certificates and the solver cross-check) and ``solve``
(exact chromatic numbers, the homomorphism chain, vertex criticality and a
budgeted search that must time out).  Each runs in this one process, with no
pool and no threads.

With ``--trace 0`` the run times passes over the workload's op list until
the next pass would overrun ``--seconds`` (at least one pass), and reports
the end-to-end metrics: ``setup_s`` (median over several fresh processes of
interpreter start, ``import chordcrit`` and one toy-size warm-up call),
``wall_s`` and ``cpu_s`` (one pass, as the sum over its ops of each op's
median time across passes), and ``peak_rss_mb`` of this process.  The three
times are given at reference speed (see ``reference``): each is scaled by
``REFERENCE_S`` over the median time of a fixed reference computation run
between the ops (or between the set-up probes) of the same run.  A line
``raw`` before the environment line gives them unscaled, with the
reference's times.

With ``--trace 1`` it makes passes for as long in which each op runs once
untraced and once traced, and reports the per-layer metrics per traced pass
(see tracing.py), plus ``trace.overhead_s``: the traced pass's wall time
minus the untraced one's, each the sum of per-op medians, unscaled.  The
spans go to ``.perfbench_out/`` in the checkout.  It then makes the
budgeted solver call that must time out, once and untraced, and reports
``solver.timeout_overshoot_s``, its wall time minus its budget.

Every op's output is checked (verdict, and the SHA-256 of its rendered text);
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_PROBES = 9
# Reference calls made after each set-up probe.
SETUP_REFERENCES = 10
# The reference's median wall time when called alone in a loop, measured
# once on a 2-vCPU 2.1 GHz Xeon virtual machine.  A time at reference speed is the time the op would take
# on a host on which the reference takes this long.
REFERENCE_S = 0.005


def reference() -> int:
    """A fixed computation that times the host's speed, not chordcrit's.

    A shared host's speed drifts by up to 2x for minutes at a time, and a
    40 s run's least or median times drift with it: over ten seeds, the
    IQR/median of a workload's median pass time was 6-17% on a 2-vCPU
    2.1 GHz Xeon virtual machine, up to 28% for the least time.  Timed
    between the ops, the reference slows with them, so the ratio of op to
    reference times drifts less: 2-8% over the same runs.  Its mix is the
    program's two kinds of work in about equal shares: set, dict, sort and
    small numpy operations driven by the interpreter (as in the solver and
    the certificates), and numpy operations over large arrays (as in the
    pair census).  Interpreter-bound work alone tracks the census poorly,
    and array work alone the solver.  It takes about 5 ms and never
    touches chordcrit.
    """
    rng = random.Random(7)
    n = 300
    adj: list[set[int]] = [set() for _ in range(n)]
    for _ in range(1500):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    colour: dict[int, int] = {}
    for v in sorted(range(n), key=lambda v: -len(adj[v])):
        used = {colour[u] for u in adj[v] if u in colour}
        c = 0
        while c in used:
            c += 1
        colour[v] = c
    small = np.arange(400, dtype=np.int64)
    hits = 0
    for i in range(75):
        hits += int(np.count_nonzero(((small % 7) == (i % 7)) & (small > i)))
    big = np.arange(60_000, dtype=np.int64)
    mixed = (big * 7919) % 60_001
    for i in range(3):
        hits += int(np.count_nonzero(((big % (i + 3)) == (mixed % (i + 5))) & (big > mixed)))
        hits += int(np.argsort(mixed[i * 4000 : (i + 1) * 4000])[0])
    return max(colour.values()) + hits


def timed_reference() -> tuple[float, float]:
    """Wall and CPU seconds of one reference call."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0, time.process_time() - c0


def import_chordcrit() -> None:
    """Import the package from this checkout's source tree, or exit with an error."""
    if not (SRC / "chordcrit" / "__init__.py").is_file():
        sys.exit(f"error: no chordcrit source under {SRC}")
    sys.path.insert(0, str(SRC))
    import chordcrit

    if Path(chordcrit.__file__).resolve().parent != SRC / "chordcrit":
        sys.exit(f"error: imported chordcrit from {chordcrit.__file__}, not {SRC}")


def environment() -> dict:
    """The backend the numbers were measured on."""
    import numpy

    from chordcrit import _jit

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "jit_active": _jit.jit_active(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "CHORDCRIT_NO_JIT_set": _jit.NO_JIT_ENV in os.environ,
    }


def probe(workload: str, seed: int) -> None:
    """Set up as a fresh benchmark process would, then report the time."""
    import_chordcrit()
    import workloads

    workloads.WARMUPS[workload](seed)
    print(time.monotonic())


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median time from spawning a process to its being ready to run, and
    the median reference time between the probes."""
    samples, refs = [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, __file__, "--probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]) - start)
        refs += [timed_reference()[0] for _ in range(SETUP_REFERENCES)]
    return statistics.median(samples), statistics.median(refs)


@dataclass
class Pass:
    """Per-op wall and CPU times and failures of one pass over the op list."""

    wall: dict[str, float] = field(default_factory=dict)
    cpu: dict[str, float] = field(default_factory=dict)
    # Wall and CPU seconds of the reference calls made after the ops.
    ref_wall: list[float] = field(default_factory=list)
    ref_cpu: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_op(op, p: Pass, span=None, with_reference: bool = False) -> None:
    """Call op, record its times in p, and check its output; then time
    the reference if asked."""
    import workloads

    p.attempted += 1
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        with span or contextlib.nullcontext():
            out = op.call()
        p.wall[op.id] = time.perf_counter() - t0
        p.cpu[op.id] = time.process_time() - c0
        problem = workloads.output_problem(op, out)
    except Exception:
        problem = traceback.format_exc()
    if problem is not None:
        p.failed += 1
        print(f"FAIL {op.id}: {problem}", file=sys.stderr)
    if with_reference:
        wall, cpu = timed_reference()
        p.ref_wall.append(wall)
        p.ref_cpu.append(cpu)


def run_pass(ops: list, with_reference: bool = False) -> Pass:
    p = Pass()
    for op in ops:
        run_op(op, p, with_reference=with_reference)
    return p


def run_traced_pass(ops: list, tracer) -> tuple[Pass, Pass]:
    """Each op untraced and then traced, so that both see the same host load."""
    plain, traced = Pass(), Pass()
    for op in ops:
        run_op(op, plain)
        tracer.install()
        try:
            run_op(op, traced, tracer.span(f"op:{op.id}"))
        finally:
            tracer.uninstall()
    return plain, traced


def median_pass(passes: list[Pass], attr: str) -> float:
    """One typical pass: the sum over ops of each op's median time."""
    per_op = [getattr(p, attr) for p in passes]
    ids = {op for d in per_op for op in d}
    return sum(statistics.median(d[op] for d in per_op if op in d) for op in ids)


def median_reference(passes: list[Pass], attr: str) -> float:
    return statistics.median(t for p in passes for t in getattr(p, attr))


def repeat(seconds: float, one_round):
    """Call one_round until the next call would end after `seconds` (once at least)."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return rounds


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Run one workload and return the benchmark's result object."""
    import tracing
    import workloads

    setup = None if trace else setup_seconds(workload, seed)
    workloads.WARMUPS[workload](seed)
    all_ops = workloads.WORKLOADS[workload](seed, workloads.SCALES[scale])
    ops = [op for op in all_ops if op.budget is None]
    budgeted = [op for op in all_ops if op.budget is not None]

    if trace:
        tracer = tracing.Tracer()
        rounds = repeat(seconds, lambda: run_traced_pass(ops, tracer))
        plain = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
        metrics = tracing.layer_metrics(tracer, len(rounds))
        metrics["trace.overhead_s"] = median_pass(traced, "wall") - median_pass(plain, "wall")
        write_spans(workload, seed, tracer)
        once = run_pass(budgeted)
        metrics["solver.timeout_overshoot_s"] = sum(
            once.wall[op.id] - op.budget for op in budgeted if op.id in once.wall
        )
        passes = plain + traced + [once]
    else:
        passes = repeat(seconds, lambda: run_pass(ops, with_reference=True))
        raw = {
            "setup_s": setup[0],
            "setup_reference_s": setup[1],
            "wall_s": median_pass(passes, "wall"),
            "wall_reference_s": median_reference(passes, "ref_wall"),
            "cpu_s": median_pass(passes, "cpu"),
            "cpu_reference_s": median_reference(passes, "ref_cpu"),
        }
        print("raw " + json.dumps(raw))
        metrics = {
            "setup_s": raw["setup_s"] * REFERENCE_S / raw["setup_reference_s"],
            "wall_s": raw["wall_s"] * REFERENCE_S / raw["wall_reference_s"],
            "cpu_s": raw["cpu_s"] * REFERENCE_S / raw["cpu_reference_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    failed = sum(p.failed for p in passes)
    attempted = sum(p.attempted for p in passes)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def write_spans(workload: str, seed: int, tracer) -> None:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump(
            {
                "environment": environment(),
                "fields": ["id", "parent", "name", "start", "end"],
                "spans": tracer.spans,
            },
            fh,
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "certify", "solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    import_chordcrit()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment " + json.dumps(environment()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
