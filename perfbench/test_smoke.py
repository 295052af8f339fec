"""Smoke test of the benchmark: every workload once, traced and untraced,
at a tiny run length.  It is not part of the tier-1 suite; run it with::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json

import pytest

import run
from workloads import WORKLOADS

TINY_REPS = {"panel_p500": 3, "pool_p100_w2": 8, "gram_wide": 4, "verify_dim4": 5}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_emits_every_metric(name, trace, capsys):
    assert run.benchmark(name, seed=1, seconds=0.0, trace=bool(trace), reps=TINY_REPS[name]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    # the reference replay ran and passed, besides the measured calls
    assert any(line.startswith("reference check: ok") for line in lines)
    assert any(line.startswith("environment: ") for line in lines)
    assert any(line.startswith("failed_share: 0/") for line in lines)
    assert result["attempted"] >= 1 + run.MIN_CALLS
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in expected)
