"""Outside-in tracing: spans around the public functions of each module.

Each traced function is replaced, for the duration of a traced pass, at
every module attribute that binds it (``gn_chords`` is bound in
``chordcrit``, ``chordcrit.families``, ``chordcrit.criticality`` and
``chordcrit.homomorphism``).  Calls inside a module look the name up in the
module's globals, so intra-module calls are traced too.  No file of the
package changes.  ``classify_pair`` is deliberately left out: ``gn`` calls
it once per chord pair, and a span per call would swamp the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# Layer (module) -> the public functions traced in it.
LAYERS: dict[str, tuple[str, ...]] = {
    "graph": ("build_graph", "delete_edge", "delete_vertex"),
    "families": ("stable_subsets", "gn_chords", "gn", "schrijver", "mycielski"),
    "pairs": ("chord_table", "count_pairs"),
    "solver": ("clique_bound", "greedy_bound", "is_k_colorable", "chromatic_number"),
    "criticality": (
        "min_based_coloring",
        "critical_coloring",
        "verify_edge_criticality",
        "verify_vertex_criticality",
    ),
    "homomorphism": ("build_h", "verify_homomorphism", "lower_bound_chain"),
}


def _observe_decision(args: tuple, out: Any, counts: Counter) -> None:
    counts[f"solver.decisions.{out.status}"] += 1
    counts["solver.backtracks"] += out.backtracks


def _observe_edge_report(args: tuple, out: Any, counts: Counter) -> None:
    counts["criticality.certificates_checked"] += len(out.rows)
    counts["criticality.certificates_passed"] += out.passed


# Counts taken from a traced function's arguments or result.
OBSERVERS: dict[str, Callable[[tuple, Any, Counter], None]] = {
    "pairs.count_pairs": lambda args, out, counts: counts.update(
        {"pairs.pairs_counted": out.total_pairs}
    ),
    "solver.is_k_colorable": _observe_decision,
    "criticality.verify_edge_criticality": _observe_edge_report,
    "homomorphism.verify_homomorphism": lambda args, out, counts: counts.update(
        {"homomorphism.edges_checked": args[0].edge_count}
    ),
}


class Tracer:
    """Spans (id, parent id, name, start, end) and counts, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, parent, name, 0.0, 0.0))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                out = fn(*args, **kwargs)
            if observe is not None:
                observe(args, out, self.counts)
            return out

        return traced

    def install(self) -> None:
        """Replace every binding of every traced function in the package."""
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "chordcrit" or key.startswith("chordcrit.")
        ]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"chordcrit.{layer}")
            for fn_name in names:
                original = getattr(home, fn_name)
                traced = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self time in seconds)."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, _, name, start, end in self.spans:
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start - child_time[sid]
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}


# Per-layer metrics read straight off the spans and counts.
CALLS = (
    "pairs.count_pairs",
    "families.stable_subsets",
    "families.gn_chords",
    "families.gn",
    "criticality.critical_coloring",
    "solver.is_k_colorable",
    "graph.build_graph",
    "graph.delete_edge",
    "graph.delete_vertex",
)
SELF_S = (
    "pairs.count_pairs",
    "pairs.chord_table",
    "families.stable_subsets",
    "families.gn_chords",
    "families.gn",
    "families.schrijver",
    "families.mycielski",
    "criticality.critical_coloring",
    "criticality.min_based_coloring",
    "criticality.verify_edge_criticality",
    "criticality.verify_vertex_criticality",
    "solver.is_k_colorable",
    "solver.clique_bound",
    "solver.greedy_bound",
    "solver.chromatic_number",
    "homomorphism.build_h",
    "homomorphism.verify_homomorphism",
    "homomorphism.lower_bound_chain",
    "graph.build_graph",
    "graph.delete_edge",
)
COUNTS = (
    "pairs.pairs_counted",
    "criticality.certificates_checked",
    "solver.decisions.yes",
    "solver.decisions.no",
    "solver.decisions.timeout",
    "solver.backtracks",
    "homomorphism.edges_checked",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass; a ratio with no base reads 0."""
    times = tracer.self_times()
    counts = tracer.counts
    m: dict[str, float] = {}
    for name in CALLS:
        m[f"{name}.calls"] = times.get(name, (0, 0.0))[0] / passes
    for name in SELF_S:
        m[f"{name}.self_s"] = times.get(name, (0, 0.0))[1] / passes
    for name in COUNTS:
        m[name] = counts[name] / passes
    checked = m["criticality.certificates_checked"]
    m["families.gn_chords.calls_per_edge"] = _ratio(m["families.gn_chords.calls"], checked)
    m["criticality.pass_ratio"] = _ratio(
        counts["criticality.certificates_passed"] / passes, checked
    )
    m["solver.backtracks_per_s"] = _ratio(
        m["solver.backtracks"], m["solver.is_k_colorable.self_s"]
    )
    return m
