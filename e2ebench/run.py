"""End-to-end benchmark of the ZipChannel reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload sgx_extract --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics; ``--trace 1`` runs it untraced for half the time,
then replays the same items with benchmark-side spans around each
layer's public calls and prints the per-layer metrics.  Every metric is
printed by name with its unit; the last line of standard output is one
JSON object.  The exit code is 1 when any item fails its correctness
check, 2 when the program's sources are missing.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from tracing import LAYERS, ROOT_LAYER, SpanRecorder, install, layer_targets, stretcher
from workloads import WORKLOADS, ItemCheck, RunCheck, workers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench_work"
OUT = ROOT / ".e2ebench_out"

SETUP_REPEATS = 5
WALL_CAP = 3  # a run's wall time may reach this many budgets

# Single-threaded BLAS: one process is the load, and the classifier's
# float results must not depend on the thread count.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms.p50", "ms"),
    ("item_ms.tail", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "frac"),
)

# Exact per-layer work counts, summed over the reference items.
EXACT_COUNTS = (
    ("cache.accesses", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("memsys.faults", "count"),
    ("sgx.victim_accesses", "count"),
    ("sidechannel.frame_remaps", "count"),
    ("recovery.ambiguous_obs", "count"),
    ("recovery.lzw_candidates", "count"),
    ("exec.events", "count"),
    ("exec.tainted_accesses", "count"),
    ("taintchannel.gadgets", "count"),
    ("traces.bytes", "B"),
    ("exec.profiler_ticks", "count"),
    ("campaign.jobs", "count"),
    ("campaign.retries", "count"),
    ("cluster.jobs", "count"),
    ("cluster.retries", "count"),
)

# Seconds per item spent inside the named public calls (inclusive).
INCLUSIVE = {
    "sgx.construct_s": ("SgxBzip2Attack.__init__",),
    "sidechannel.prime_probe_s": ("PrimeProbe.prime", "PrimeProbe.probe"),
    "sidechannel.frame_select_s": ("FrameSelector.vet",),
    "sidechannel.flush_reload_s": ("capture_raw_trace",),
    "taint.scan_s": ("TaintChannel.trace",),
    "taintchannel.analyze_s": ("TaintChannel.analyze",),
    "exec.capture_s": ("run_memory_target",),
    "traces.encode_s": ("_StoreWriter.append", "_StoreWriter.extend", "_StoreWriter.close"),
    "traces.decode_s": ("TraceStore.read_columns",),
    "compression.timeline_s": ("victim_timeline",),
}


def bootstrap() -> None:
    """Import the program from this checkout's ``src`` (and make child
    processes do the same); refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    os.environ.update(THREAD_ENV)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))


def _child_setup_seconds(name: str, seed: int, work_dir: Path) -> float:
    """Set the workload up in a fresh interpreter: importing the program
    plus the workload's own preparation, timed inside the child and
    scaled to reference host speed."""
    code = (
        "import statistics, sys, time; from pathlib import Path\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
        "import hostspeed, workloads\n"
        "kernel_s = statistics.median(hostspeed.kernel_seconds() for _ in range(3))\n"
        "start = time.perf_counter()\n"
        f"workloads.WORKLOADS[{name!r}].setup(Path({str(work_dir)!r}), {seed})\n"
        "print(hostspeed.scaled(time.perf_counter() - start, kernel_s))\n"
    )
    work_dir.mkdir(parents=True)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _run_items(wl, state, budget_s=None, n_items=None, recorder=None,
               finish=True) -> dict:
    """One phase: exactly ``n_items`` items, or items until their time
    at reference host speed reaches ``budget_s`` (never fewer than the
    reference set, always whole batches).  Counting reference-speed
    time keeps the item count, and so which item the tail percentile
    lands on, independent of the host's speed; ``WALL_CAP`` budgets of
    wall time stop a run on a very slow host."""
    wl.begin_phase(state)
    latencies, checks, digests, kernels = [], [], [], []
    start = time.perf_counter()
    spent = 0.0  # item seconds at reference host speed
    i = 0
    while True:
        if n_items is not None:
            if i >= n_items:
                break
        elif i >= wl.ref_items and i % wl.batch == 0 and (
            spent >= budget_s or time.perf_counter() - start >= WALL_CAP * budget_s
        ):
            break
        inp = wl.make_input(state, i)
        digests.append(wl.input_digest(inp))
        # Collect garbage between items, outside the timed region: the
        # previous item's object graph would otherwise be collected at
        # an arbitrary point inside a later item.
        gc.collect()
        kernels.append(hostspeed.kernel_seconds())
        if recorder is not None:
            recorder.enter("item", ROOT_LAYER)
        t0 = time.perf_counter()
        try:
            out = wl.run(state, inp)
        except Exception as exc:  # an item that raises has failed its check
            out = exc
        latencies.append(time.perf_counter() - t0)
        if recorder is not None:
            recorder.exit()
        recent = statistics.median(kernels[-1 - 2 * hostspeed.WINDOW:])
        spent += hostspeed.scaled(latencies[-1], recent, wl.host_elasticity)
        checks.append(_check(wl, state, inp, out))
        i += 1
    gc.collect()
    finish_s, run_check = 0.0, None
    if finish:
        if recorder is not None:
            recorder.enter("finish", ROOT_LAYER)
        t0 = time.perf_counter()
        try:
            run_check = wl.finish(state)
        except Exception as exc:
            run_check = RunCheck(ok=False, reason=f"{type(exc).__name__}: {exc}")
        finish_s = time.perf_counter() - t0
        if recorder is not None:
            recorder.exit()
    return {
        "latencies": latencies,
        "checks": checks,
        "digests": digests,
        "kernels": kernels,
        "finish_s": finish_s,
        "run_check": run_check,
    }


def _latencies(wl, phase) -> list[float]:
    """Item latencies at reference host speed."""
    return hostspeed.scaled_latencies(phase["latencies"], phase["kernels"], wl.host_elasticity)


def _timed_s(wl, phase) -> float:
    """A phase's timed seconds at reference host speed: items plus
    run-level work."""
    finish_s = hostspeed.scaled(
        phase["finish_s"], statistics.median(phase["kernels"]), wl.host_elasticity
    )
    return sum(_latencies(wl, phase)) + finish_s


def _check(wl, state, inp, out) -> ItemCheck:
    """The item's verdict; an item or a check that raised has failed."""
    if isinstance(out, Exception):
        return ItemCheck(ok=False, reason=f"{type(out).__name__}: {out}")
    try:
        return wl.check(state, inp, out)
    except Exception as exc:
        return ItemCheck(ok=False, reason=f"check raised {type(exc).__name__}: {exc}")


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    ten samples above it; with ten or fewer samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _sum(checks, field: str = "counts") -> dict:
    """Key-wise sum of the checks' ``counts`` (or ``extras``)."""
    total: dict = {}
    for check in checks:
        for key, value in getattr(check, field, {}).items():
            total[key] = total.get(key, 0) + value
    return total


def _accuracy(wl, phase) -> float:
    run_check = phase["run_check"]
    if run_check is not None and run_check.accuracy is not None:
        return run_check.accuracy
    ref = [c.accuracy for c in phase["checks"][: wl.ref_items] if c.accuracy is not None]
    return sum(ref) / len(ref) if ref else 0.0


def _failures(phase) -> tuple[int, int, list[str]]:
    checks = list(phase["checks"])
    if phase["run_check"] is not None:
        checks.append(phase["run_check"])
    bad = [c.reason for c in checks if not c.ok]
    return len(checks), len(bad), bad


def _engine_metrics(wl, phase) -> dict:
    """Jobs per second and engine overhead per job, medians over the
    untraced campaign items:
    overhead = (wall x workers - sum of job durations) / jobs."""
    rates, overheads = [], []
    for latency, check in zip(phase["latencies"], phase["checks"]):
        jobs = check.extras.get("jobs")
        if jobs:
            rates.append(jobs / latency)
            overheads.append((latency * workers() - check.extras["job_seconds"]) / jobs * 1e3)
    out = {}
    for engine in ("campaign", "cluster"):
        mine = wl.engine == engine and rates
        out[f"{engine}.jobs_per_s"] = statistics.median(rates) if mine else 0.0
        out[f"{engine}.overhead_ms_per_job"] = statistics.median(overheads) if mine else 0.0
    return out


def per_layer_metrics(wl, untraced, traced, recorder) -> dict:
    """The ``--trace 1`` metrics from an untraced phase and its traced
    replay (same items)."""
    n = len(traced["latencies"])
    ref = _sum(untraced["checks"][: wl.ref_items])
    every = _sum(traced["checks"])
    extras = _sum(traced["checks"] + [traced["run_check"]], "extras")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    self_s = {layer: recorder.self_ns.get(layer, 0) / 1e9 for layer in (*LAYERS, ROOT_LAYER)}
    values: dict = {name: ref.get(name, 0) for name, _ in EXACT_COUNTS}
    for layer, seconds in self_s.items():
        values[f"{layer}.self_s"] = seconds / n
    for name, labels in INCLUSIVE.items():
        values[name] = recorder.incl_s(*labels) / n
    values["cache.ns_per_access"] = ratio(self_s["cache"] * 1e9, every.get("cache.accesses", 0))
    values["taint.ns_per_event"] = ratio(
        recorder.incl_s("TaintChannel.trace") * 1e9, every.get("exec.events", 0)
    )
    values["compression.ns_per_tick"] = ratio(
        recorder.incl_s("victim_timeline") * 1e9, every.get("exec.profiler_ticks", 0)
    )
    values["traces.encode_MB_per_s"] = ratio(
        extras.get("encoded_bytes", 0) / 1e6, values["traces.encode_s"] * n
    )
    values["traces.decode_MB_per_s"] = ratio(
        extras.get("decoded_bytes", 0) / 1e6, values["traces.decode_s"] * n
    )
    values["classify.fit_s"] = recorder.incl_s("MLPClassifier.fit")
    values.update(_engine_metrics(wl, untraced))
    # Both phases at reference host speed, so host drift between them
    # does not read as tracing overhead.
    values["trace.overhead_frac"] = ratio(_timed_s(wl, traced), _timed_s(wl, untraced)) - 1.0
    values["host.kernel_ms"] = statistics.median(traced["kernels"]) * 1e3
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object and its details."""
    wl = WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}-{time.monotonic_ns()}"
    try:
        setup_samples = [
            _child_setup_seconds(name, seed, work / f"setup{k}")
            for k in range(SETUP_REPEATS)
        ]
        (work / "run").mkdir()
        state = wl.setup(work / "run", seed)
        # One untimed item first, so lazy imports and first-use caches
        # are not charged to whichever item happens to come first.
        warm_up = _run_items(wl, state, n_items=1, finish=False)
        recorder = None
        if not trace:
            phase = _run_items(wl, state, budget_s=seconds)
            phases = [phase]
        else:
            untraced = _run_items(wl, state, budget_s=seconds / 2)
            recorder = SpanRecorder()
            restore = recorder.install_all()
            try:
                traced = _run_items(
                    wl, state, n_items=len(untraced["latencies"]), recorder=recorder
                )
            finally:
                restore()
            phases = [untraced, traced]
        phases = [warm_up] + phases
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    attempted = failed = 0
    reasons: list[str] = []
    for phase in phases:
        a, f, r = _failures(phase)
        attempted, failed, reasons = attempted + a, failed + f, reasons + r
    first = phases[1]
    lat = first["latencies"]
    tail_pct = tail(lat)[1]
    details = {
        "workload": name,
        "seed": seed,
        "items": len(lat),
        "tail_percentile": tail_pct,
        "latencies_s": lat,
        "finish_s": first["finish_s"],
        "kernel_s": first["kernels"],
        "setup_samples_s": setup_samples,
        "input_digest": _digest(first["digests"][: wl.ref_items]),
        "accuracy": _accuracy(wl, first),
        "ref_counts": _sum(first["checks"][: wl.ref_items]),
    }
    if not trace:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        details["unscaled"] = {
            "items_per_s": len(lat) / (sum(lat) + first["finish_s"]),
            "item_ms.p50": statistics.median(lat) * 1e3,
            "item_ms.tail": tail(lat)[0] * 1e3,
        }
        scaled = _latencies(wl, first)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "items_per_s": len(lat) / _timed_s(wl, first),
            "item_ms.p50": statistics.median(scaled) * 1e3,
            "item_ms.tail": tail(scaled)[0] * 1e3,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": rss / 1024,
            "accuracy": details["accuracy"],
        }
        units = dict(END_TO_END)
    else:
        untraced, traced = phases[1:]
        metrics = per_layer_metrics(wl, untraced, traced, recorder)
        units = per_layer_units()
        # The traced replay must repeat the untraced work exactly, and
        # self times can never exceed the wall time they partition.
        layer_self = sum(v for k, v in recorder.self_ns.items() if k != ROOT_LAYER)
        invariants = [
            ([c.counts for c in untraced["checks"]] == [c.counts for c in traced["checks"]],
             "traced replay changed an exact work count"),
            (_accuracy(wl, traced) == details["accuracy"], "traced replay changed the accuracy"),
            (layer_self <= recorder.root_ns, "layer self time exceeds traced wall time"),
        ]
        attempted += len(invariants)
        for ok, reason in invariants:
            if not ok:
                failed += 1
                reasons.append(reason)
        details["spans"] = recorder.summary()
    details["failures"] = reasons[:20]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        "details": details,
    }


def inject(wl, stretch):
    """Install the sensitivity self-test's slowdown and return its undo:
    ``("item", factor)`` stretches every item, ``(layer, factor)`` every
    public call of one layer."""
    target, factor = stretch
    if target == "item":
        wl.run = stretcher(factor)(type(wl).run.__get__(wl), "item")
        return lambda: wl.__dict__.pop("run", None)
    return install(layer_targets(target), stretcher(factor))


def run_ab(name: str, seed: int, n_items: int, stretch) -> tuple[list, list]:
    """Item-level A/B: each item runs once as is and once with
    ``stretch`` injected, back to back in alternating order, so host
    drift cancels within each pair.  Returns the two latency lists.
    Only for workloads whose items are independent of each other."""
    wl = WORKLOADS[name]
    work = WORK / f"{name}-ab-{os.getpid()}-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    try:
        state = wl.setup(work, seed)
        _run_items(wl, state, n_items=1, finish=False)  # warm-up
        base, cand = [], []
        for i in range(n_items):
            inp = wl.make_input(state, i)
            for injected in ((False, True) if i % 2 == 0 else (True, False)):
                undo = inject(wl, stretch) if injected else None
                gc.collect()
                try:
                    t0 = time.perf_counter()
                    out = wl.run(state, inp)
                    elapsed = time.perf_counter() - t0
                finally:
                    if undo is not None:
                        undo()
                check = wl.check(state, inp, out)
                if not check.ok:
                    raise RuntimeError(f"item {i} failed its check: {check.reason}")
                (cand if injected else base).append(elapsed)
        return base, cand
    finally:
        shutil.rmtree(work, ignore_errors=True)


def per_layer_units() -> dict:
    """Unit of every ``--trace 1`` metric."""
    units = dict(EXACT_COUNTS)
    units.update({f"{layer}.self_s": "s" for layer in (*LAYERS, ROOT_LAYER)})
    units.update({name: "s" for name in INCLUSIVE})
    units.update({
        "cache.ns_per_access": "ns",
        "taint.ns_per_event": "ns",
        "compression.ns_per_tick": "ns",
        "traces.encode_MB_per_s": "MB/s",
        "traces.decode_MB_per_s": "MB/s",
        "classify.fit_s": "s",
        "campaign.jobs_per_s": "1/s",
        "campaign.overhead_ms_per_job": "ms",
        "cluster.jobs_per_s": "1/s",
        "cluster.overhead_ms_per_job": "ms",
        "trace.overhead_frac": "frac",
        "host.kernel_ms": "ms",
    })
    return units


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(hashlib.sha256(chunk).digest())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    details = result.pop("details")
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({**result, "details": details}, indent=1))
    for name, metric in result["metrics"].items():
        note = ""
        if name == "item_ms.tail":
            note = f"  (p{details['tail_percentile']:.1f} of {details['items']} items)"
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}{note}")
    for reason in details["failures"]:
        print(f"FAILED: {reason}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
