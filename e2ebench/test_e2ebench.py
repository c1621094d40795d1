"""Self-tests of the benchmark (not part of the program's test suite).

Run from the repository root::

    python3 -m pytest e2ebench -q

* determinism: every exact work count and ``accuracy`` repeat bit for
  bit across two runs at the held-out seed and match the values pinned
  in ``heldout.json``; another seed changes the inputs;
* traced-run sanity: per-layer self times never exceed the wall time
  they partition, the untraced run installs no wrapper;
* sensitivity: an injected 1.3x slowdown of one layer, and separately
  of every item, is flagged by :func:`compare.judge` in an item-level
  A/B.

``python3 e2ebench/test_e2ebench.py`` re-pins ``heldout.json`` (only
when a change to the counts is intended).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.bootstrap()

import compare  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HELDOUT_SEED = 7919  # never used while tuning the benchmark
OTHER_SEED = 2
PINS = BENCH / "heldout.json"
EXACT = [name for name, _ in run.EXACT_COUNTS]

_cache: dict = {}


def traced_run(workload: str, seed: int, key: str = "") -> dict:
    """A minimal traced run: just the reference items, replayed traced."""
    if (workload, seed, key) not in _cache:
        _cache[workload, seed, key] = run.run_workload(workload, seed, 0.01, trace=True)
    return _cache[workload, seed, key]


def pinned(result: dict) -> dict:
    return {
        "counts": {name: result["metrics"][name]["value"] for name in EXACT},
        "accuracy": result["details"]["accuracy"],
        "input_digest": result["details"]["input_digest"],
    }


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_counts_and_accuracy_repeat_and_match_pins(workload):
    first = traced_run(workload, HELDOUT_SEED)
    second = traced_run(workload, HELDOUT_SEED, key="again")
    assert first["correct"] and second["correct"], first["details"]["failures"]
    assert pinned(first) == pinned(second)
    assert pinned(first) == json.loads(PINS.read_text())["pins"][workload]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_another_seed_changes_the_inputs(workload):
    held = traced_run(workload, HELDOUT_SEED)
    other = traced_run(workload, OTHER_SEED)
    assert other["correct"], other["details"]["failures"]
    assert other["details"]["input_digest"] != held["details"]["input_digest"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_self_times_fit_inside_traced_wall_time(workload):
    result = traced_run(workload, HELDOUT_SEED)
    spans = result["details"]["spans"]
    layer_self = sum(v for k, v in spans["self_s"].items() if k != tracing.ROOT_LAYER)
    assert 0 < layer_self <= spans["root_s"]
    assert "trace.overhead_frac" in result["metrics"]
    units = run.per_layer_units()
    assert set(result["metrics"]) == set(units)


def test_untraced_run_installs_no_wrapper(monkeypatch):
    calls = []
    monkeypatch.setattr(run, "install", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(
        tracing.SpanRecorder, "install_all", lambda self: calls.append(self)
    )
    result = run.run_workload("sgx_extract", OTHER_SEED, 0.01, trace=False)
    assert result["correct"]
    assert calls == []
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    from repro.cache.model import Cache

    assert not hasattr(Cache.access_many, "__wrapped__")


def test_tracing_restores_every_original():
    from repro.cache.model import Cache
    from repro.compression.bzip2 import blocksort

    before = (Cache.__dict__["access_many"], blocksort.histogram)
    restore = tracing.SpanRecorder().install_all()
    assert Cache.__dict__["access_many"] is not before[0]
    restore()
    assert (Cache.__dict__["access_many"], blocksort.histogram) == before


@pytest.mark.parametrize("stretch", [("cache", 1.3), ("item", 1.3)])
def test_comparison_flags_a_one_layer_and_a_uniform_slowdown(stretch):
    """ROADMAP item 1's two cases on ``sgx_extract``: 1.3x in one layer
    (the cache simulator, about half of an extraction, so items get
    ~15 % slower) and 1.3x on every item.  Item-level A/B pairs cancel
    the host's drift, which is as large as the one-layer effect."""
    base, cand = run.run_ab("sgx_extract", 21, 10, stretch)
    bounds = {m["name"]: m["bound"] for m in compare.load_spec()["end_to_end"]}
    verdict = compare.judge(base, cand, "lower", bounds["item_ms.p50"])
    assert verdict["verdict"] in ("regressed", "slower"), verdict


def test_comparison_verdicts():
    base = [10, 10.2, 9.9, 10.1, 10.0]
    assert compare.judge(base, [13, 13.1, 12.8, 13, 13], "lower", 0.15)["verdict"] == "regressed"
    assert compare.judge(base, [11, 11.1, 10.8, 11, 11], "lower", 0.15)["verdict"] == "slower"
    # One pair in ten may go the other way.
    assert compare.judge(base * 2, [11] * 9 + [9], "lower", 0.15)["verdict"] == "slower"
    assert compare.judge(base, [10.1, 10.0, 10.2, 9.9, 10], "lower", 0.15)["verdict"] == "same"
    assert compare.judge(base, [7, 7.1, 7.3, 7, 7], "higher", 0.15)["verdict"] == "regressed"
    # A baseline noisier than the bound cannot resolve a mixed change.
    assert compare.judge([5, 10, 15], [11, 12, 9], "lower", 0.15)["verdict"] == "unresolved"
    assert compare.compare_counts(
        {1: {"cache.misses": {"value": 5}}}, {1: {"cache.misses": {"value": 6}}}, ["cache.misses"]
    ) == {"cache.misses": (1, 5, 6)}


if __name__ == "__main__":
    pins = {w: pinned(traced_run(w, HELDOUT_SEED)) for w in WORKLOADS}
    data = json.loads(PINS.read_text()) if PINS.is_file() else {}
    data.update({"seed": HELDOUT_SEED, "pins": pins})
    PINS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
