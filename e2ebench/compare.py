"""Compare a baseline and a candidate set of benchmark runs.

Each end-to-end metric is judged on its own, never through a combined
score.  ``change`` is how much worse the candidate median is than the
baseline median (negative when better); ``bound`` is the metric's bound
in ``BENCHMARK.json``; the baseline's *spread* is its interquartile
range over its median.  Runs are paired in order (same seed, run next
to each other).  Verdicts, first match wins:

* ``regressed`` — ``change`` exceeds the bound, and either the spread
  is within the bound or every candidate run is worse than every
  baseline run;
* ``improved`` — the same, the other way;
* ``slower`` — within the bound, but separated from noise: the
  candidate is worse in at least nine pairs in ten, and the median of
  the per-pair changes exceeds their interquartile range (pairing
  cancels the host drift that both runs of a pair share);
* ``faster`` — the same, the other way;
* ``unresolved`` — the spread exceeds the bound;
* ``same`` — otherwise.

Exact work counts (``--trace 1`` runs) are compared per seed and must
be identical: any difference is ``changed``.

Usage, with the ``.e2ebench_out`` directories of two checkouts::

    python3 e2ebench/compare.py BASE_OUT_DIR CAND_OUT_DIR
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def load_spec() -> dict:
    """The repository's ``BENCHMARK.json``."""
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> float:
    """Interquartile range over median, as the acceptance rule uses."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def judge(base: list[float], cand: list[float], better: str, bound: float) -> dict:
    """Verdict for one metric from paired baseline and candidate values."""
    sign = 1.0 if better == "lower" else -1.0
    m0, m1 = statistics.median(base), statistics.median(cand)
    change = sign * (m1 - m0) / abs(m0) if m0 else 0.0
    worse_all = all(sign * c > sign * b for c in cand for b in base)
    better_all = all(sign * c < sign * b for c in cand for b in base)
    paired = [sign * (c - b) / abs(b) for b, c in zip(base, cand) if b]
    pair_change = statistics.median(paired) if paired else 0.0
    pair_noise = 0.0
    if len(paired) > 1:
        q1, _, q3 = statistics.quantiles(paired, n=4)
        pair_noise = q3 - q1
    worse_pairs = sum(p > 0 for p in paired)
    better_pairs = sum(p < 0 for p in paired)
    noise = spread(base)
    if change > bound and (noise <= bound or worse_all):
        verdict = "regressed"
    elif change < -bound and (noise <= bound or better_all):
        verdict = "improved"
    elif paired and worse_pairs >= 0.9 * len(paired) and pair_change > pair_noise:
        verdict = "slower"
    elif paired and better_pairs >= 0.9 * len(paired) and -pair_change > pair_noise:
        verdict = "faster"
    elif noise > bound:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {"verdict": verdict, "base_median": m0, "cand_median": m1,
            "change": change, "base_spread": noise, "pair_change": pair_change,
            "worse_pairs": worse_pairs, "pairs": len(paired)}


def compare_end_to_end(base: list[dict], cand: list[dict], spec: dict = None) -> dict:
    """Judge every end-to-end metric; ``base``/``cand`` are result
    objects (the JSON line a run prints) of one workload."""
    spec = spec or load_spec()
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        out[name] = judge(
            [r["metrics"][name]["value"] for r in base],
            [r["metrics"][name]["value"] for r in cand],
            metric["better"],
            metric["bound"],
        )
    return out


def compare_counts(base: dict, cand: dict, exact: list[str]) -> dict:
    """Exact counts per seed: ``{seed: metrics}`` on each side; returns
    the counts that differ, as ``{name: (seed, base, cand)}``."""
    changed = {}
    for seed in sorted(set(base) & set(cand)):
        for name in exact:
            a = base[seed][name]["value"]
            b = cand[seed][name]["value"]
            if a != b:
                changed.setdefault(name, (seed, a, b))
    return changed


def flagged(verdicts: dict) -> list[str]:
    """Metrics that got measurably worse, beyond or within the bound."""
    return [name for name, v in verdicts.items() if v["verdict"] in ("regressed", "slower")]


def _load(directory: Path) -> dict:
    """``{(workload, trace): [run, ...]}`` from a directory of run files."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        key = (data["details"]["workload"], path.stem.endswith("trace1"))
        runs.setdefault(key, []).append(data)
    for group in runs.values():  # pair runs by seed
        group.sort(key=lambda r: r["details"]["seed"])
    return runs


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    from run import EXACT_COUNTS

    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare.py BASE_OUT_DIR CAND_OUT_DIR", file=sys.stderr)
        return 2
    base_dir, cand_dir = (Path(p) for p in args)
    base, cand = _load(base_dir), _load(cand_dir)
    bad = False
    for key in sorted(set(base) & set(cand)):
        workload, traced = key
        if traced:
            changed = compare_counts(
                {r["details"]["seed"]: r["metrics"] for r in base[key]},
                {r["details"]["seed"]: r["metrics"] for r in cand[key]},
                [name for name, _ in EXACT_COUNTS],
            )
            for name, (seed, a, b) in changed.items():
                print(f"{workload:15s} {name:30s} changed      seed {seed}: {a} -> {b}")
            bad |= bool(changed)
            continue
        for name, v in compare_end_to_end(base[key], cand[key]).items():
            print(f"{workload:15s} {name:30s} {v['verdict']:10s} "
                  f"{v['base_median']:.5g} -> {v['cand_median']:.5g} "
                  f"({v['change']:+.1%} worse, base spread {v['base_spread']:.1%})")
            bad |= v["verdict"] in ("regressed", "slower")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
