"""Toy-size smoke test of the benchmark: every named metric, no failed op.

Run from the root of the checkout with:  python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_chordcrit()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_emits_every_metric_and_fails_nothing(workload, trace):
    result = run.measure(workload, seed=3, seconds=0, trace=trace, scale="toy")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["correct"]

