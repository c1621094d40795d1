"""The benchmark's workloads: paper pipelines driven through ``repro``'s
public entry points.

Each workload turns the run seed into a sequence of items.  Item ``i``
depends only on ``(seed, i)``, so a run and its traced replay see the
same inputs, and the first ``ref_items`` items of every run (the
*reference set*) are identical for a given seed: exact work counts and
``accuracy`` are taken over that set and repeat bit for bit.

For every item the runner calls ``make_input`` (untimed), ``run``
(timed), then ``check`` (untimed), which verifies the output and
returns the item's exact work counts.  ``finish`` is run-level work
that counts toward wall time but is not an item (the fingerprint
classifier fit).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


def item_seed(seed: int, *path) -> int:
    """31-bit seed for one input, derived from the run seed."""
    payload = ":".join(str(p) for p in ("e2ebench", seed, *path))
    return int.from_bytes(hashlib.sha256(payload.encode()).digest()[:4], "big") >> 1


def workers() -> int:
    """Campaign and cluster workers: the CPUs this process may use,
    capped at 2 so the load matches across machines."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass
class ItemCheck:
    """The verdict and exact work counts of one item."""

    ok: bool
    accuracy: Optional[float] = None
    counts: dict = field(default_factory=dict)  # per-layer exact counts
    extras: dict = field(default_factory=dict)  # inputs to per-layer rates
    reason: str = ""


@dataclass
class RunCheck:
    """The verdict of a workload's run-level step."""

    ok: bool
    accuracy: Optional[float] = None
    extras: dict = field(default_factory=dict)
    reason: str = ""


class Workload:
    name = ""
    why = ""
    ref_items = 1  # the reference set: exact counts and accuracy
    batch = 1  # a run stops only at a multiple of this many items
    engine: Optional[str] = None  # "campaign" / "cluster" for the sweeps
    # How item time follows the host-speed loop (see hostspeed.py): it
    # goes as loop time ** host_elasticity, fitted per workload over 30
    # runs whose loop time ranged 5-11 ms.
    host_elasticity = 1.0

    def setup(self, work_dir: Path, seed: int) -> dict:
        raise NotImplementedError

    def begin_phase(self, state: dict) -> None:
        """Reset per-phase bookkeeping (a traced run replays items)."""

    def make_input(self, state: dict, i: int):
        raise NotImplementedError

    def run(self, state: dict, inp):
        raise NotImplementedError

    def check(self, state: dict, inp, out) -> ItemCheck:
        raise NotImplementedError

    def finish(self, state: dict) -> Optional[RunCheck]:
        return None

    def input_digest(self, inp) -> bytes:
        """Bytes that identify an item's input (seed sensitivity)."""
        return repr(inp).encode()


def _fresh(state: dict, prefix: str) -> str:
    state["serial"] = state.get("serial", 0) + 1
    return f"{prefix}{state['serial']}"


# -- sgx_extract ------------------------------------------------------------


class SgxExtract(Workload):
    name = "sgx_extract"
    why = (
        "Section V Prime+Probe extraction of a 1 KB random secret with CAT "
        "and frame selection: cache, memsys, sidechannel, sgx and recovery "
        "do the work; taint and traces do none"
    )
    ref_items = 8
    host_elasticity = 1.3
    secret_bytes = 1024
    min_bit_accuracy = 0.99  # the paper's Section V-E bound

    def setup(self, work_dir, seed):
        from repro.compression.bzip2 import blocksort
        from repro.core.zipchannel import sgx_attack

        return {"seed": seed, "sgx_attack": sgx_attack, "blocksort": blocksort}

    def make_input(self, state, i):
        return random.Random(item_seed(state["seed"], self.name, i)).randbytes(
            self.secret_bytes
        )

    def run(self, state, secret):
        sgx_attack = state["sgx_attack"]
        attack = sgx_attack.SgxBzip2Attack(
            secret,
            sgx_attack.AttackConfig(use_cat=True, use_frame_selection=True),
            victim_histogram=state["blocksort"].histogram,
        )
        return attack, attack.run()

    def check(self, state, secret, out):
        attack, outcome = out
        recovered = bytes(outcome.recovered.values)
        good_bits = sum(8 - bin(a ^ b).count("1") for a, b in zip(recovered, secret))
        accuracy = good_bits / (8 * len(secret)) if len(recovered) == len(secret) else 0.0
        stats = attack.cache.stats
        return ItemCheck(
            ok=accuracy >= self.min_bit_accuracy,
            accuracy=accuracy,
            counts={
                "cache.accesses": stats["hits"] + stats["misses"],
                "cache.misses": stats["misses"],
                "cache.evictions": stats["evictions"],
                "memsys.faults": attack.space.fault_count,
                "sgx.victim_accesses": attack.enclave.access_count,
                "sidechannel.frame_remaps": outcome.frame_remaps,
                "recovery.ambiguous_obs": outcome.observations_ambiguous,
            },
            reason=f"bit accuracy {accuracy:.4f}",
        )

    def input_digest(self, secret):
        return secret


# -- taint_survey -----------------------------------------------------------


class TaintSurvey(Workload):
    name = "taint_survey"
    why = (
        "Section III-IV pipeline per (target, seed): FULL TaintChannel scan, "
        "ADDRESS_ONLY capture into a ZTRC store, columnar read and recovery; "
        "taint and exec dominate, cache and memsys do none"
    )
    targets = ("zlib", "lzw", "bzip2")
    gadget_sites = {"zlib": "head[ins_h]", "lzw": "htab[hp]", "bzip2": "ftab[j]"}
    ref_items = 9
    batch = 3
    host_elasticity = 1.2
    size = 1024

    def setup(self, work_dir, seed):
        from repro.campaign.experiments import make_input
        from repro.core.taintchannel import tool
        from repro.traces import capture, replay
        from repro.traces.store import TraceStore

        return {
            "seed": seed,
            "make_input": make_input,
            "tool": tool,
            "capture": capture,
            "replay": replay,
            "store": TraceStore(work_dir / "survey.trstore").open(),
        }

    def make_input(self, state, i):
        target = self.targets[i % len(self.targets)]
        input_seed = item_seed(state["seed"], self.name, i)
        kind = state["capture"].default_input_kind(target)
        return target, input_seed, state["make_input"](kind, self.size, input_seed)

    def run(self, state, inp):
        target, input_seed, data = inp
        tool, capture = state["tool"], state["capture"]
        result = tool.TaintChannel().analyze(target, tool.target_for(target, data))
        trace_id = _fresh(state, f"{target}-")
        entry = capture.capture_memory_trace(
            state["store"], trace_id, target, self.size, input_seed
        )
        metrics = state["replay"].recover_from_trace(state["store"], trace_id)
        return result, entry, metrics

    def check(self, state, inp, out):
        target, _, data = inp
        result, entry, metrics = out
        site = self.gadget_sites[target]
        found_site = any(site in g.site for g in result.gadgets)
        same_input = entry.meta["input_sha256"] == hashlib.sha256(data).hexdigest()
        if target == "zlib":
            accuracy = metrics["zlib_accuracy"]
            recovered = accuracy >= 0.99
        elif target == "lzw":
            accuracy = 1.0 if metrics["lzw_exact_found"] else 0.0
            recovered = metrics["lzw_exact_found"]
        else:
            accuracy = metrics["bzip2_bit_accuracy"]
            recovered = accuracy == 1.0
        return ItemCheck(
            ok=found_site and same_input and recovered,
            accuracy=accuracy,
            counts={
                "exec.events": result.n_events,
                "exec.tainted_accesses": sum(g.count for g in result.gadgets),
                "taintchannel.gadgets": len(result.gadgets),
                "traces.bytes": entry.size_bytes,
                "recovery.lzw_candidates": metrics.get("lzw_candidates", 0),
            },
            extras={"encoded_bytes": entry.size_bytes, "decoded_bytes": entry.size_bytes},
            reason=f"{target}: site {site} found={found_site} "
            f"input match={same_input} accuracy={accuracy:.4f}",
        )

    def input_digest(self, inp):
        return inp[2]


# -- fingerprint ------------------------------------------------------------


class Fingerprint(Workload):
    name = "fingerprint"
    why = (
        "Section VI Flush+Reload file fingerprinting over the 21-file "
        "brotli-like corpus: native bzip2 blocksort (compression) and the "
        "classifier dominate; taint and cache do none"
    )
    n_files = 21
    ref_items = 42  # the first two corpus passes: classifier training and test
    batch = 21
    host_elasticity = 1.05
    captures_per_file = 50
    epochs = 20
    hidden = 96
    # The classifier's initialisation is a fixed program setting; only
    # the captured traces vary with the run seed.
    init_seed = 2

    def setup(self, work_dir, seed):
        from repro.classify import MLPClassifier
        from repro.core.zipchannel import fingerprint
        from repro.traces import replay
        from repro.traces.capture import fingerprint_corpus
        from repro.traces.format import SPECIES_FINGERPRINT, FingerprintCapture
        from repro.traces.store import TraceStore

        return {
            "seed": seed,
            "files": fingerprint_corpus("brotli"),
            "fingerprint": fingerprint,
            "channel": fingerprint.FingerprintChannel(),
            "replay": replay,
            "species": SPECIES_FINGERPRINT,
            "capture_cls": FingerprintCapture,
            "mlp": MLPClassifier,
            "store": TraceStore(work_dir / "fingerprint.trstore").open(),
            "passes": [],
        }

    def begin_phase(self, state):
        for _, writer in state["passes"]:
            if writer.entry is None:  # a pass cut short (the warm-up item)
                writer.abort()
        state["passes"] = []

    def make_input(self, state, i):
        pass_index, label = divmod(i, self.n_files)
        seeds = [
            item_seed(state["seed"], self.name, pass_index, label, j)
            for j in range(self.captures_per_file)
        ]
        return label, state["files"][label], seeds

    def run(self, state, inp):
        label, data, seeds = inp
        fingerprint = state["fingerprint"]
        if label == 0:
            trace_id = _fresh(state, "pass-")
            writer = state["store"].create(
                trace_id, state["species"], {"species": state["species"],
                                             "n_files": self.n_files}
            )
            state["passes"].append((trace_id, writer))
        writer = state["passes"][-1][1]
        timeline = fingerprint.victim_timeline(data)
        capture_cls, channel = state["capture_cls"], state["channel"]
        for capture_seed in seeds:
            writer.append(
                capture_cls(
                    label=label,
                    capture_seed=capture_seed,
                    trace=fingerprint.capture_raw_trace(timeline, capture_seed, channel),
                )
            )
        entry = writer.close() if label == self.n_files - 1 else None
        return timeline, entry

    def check(self, state, inp, out):
        label, data, seeds = inp
        timeline, entry = out
        # The sampled functions must be exactly those the victim's
        # per-block sorting paths ran.
        consistent = timeline.duration > 0 and bool(timeline.paths) and all(
            bool(timeline.intervals[name]) == any(name in p for p in timeline.paths)
            for name in state["fingerprint"].MONITORED_FUNCTIONS
        )
        stored = entry is None or entry.n_records == self.n_files * len(seeds)
        counts = {"exec.profiler_ticks": timeline.duration}
        extras = {}
        if entry is not None:
            counts["traces.bytes"] = extras["encoded_bytes"] = entry.size_bytes
        return ItemCheck(
            ok=consistent and stored,
            counts=counts,
            extras=extras,
            reason=f"file {label}: timeline consistent={consistent} stored={stored}",
        )

    def finish(self, state):
        # Train on the first stored pass, test on the second: 1050 test
        # captures keep the accuracy's seed-to-seed spread small.
        (train_id, _), (test_id, _) = state["passes"][:2]
        x, y = state["replay"].dataset_from_store(state["store"], train_id)
        x_test, y_test = state["replay"].dataset_from_store(state["store"], test_id)
        clf = state["mlp"](x.shape[1], self.n_files, hidden=self.hidden, seed=self.init_seed)
        clf.fit(x, y, epochs=self.epochs)
        accuracy = float(clf.accuracy(x_test, y_test))
        # "Well above chance": five times the 1/21 chance rate.
        bar = 5.0 / self.n_files
        shape_ok = len(x) == len(x_test) == self.n_files * self.captures_per_file
        return RunCheck(
            ok=shape_ok and accuracy >= bar,
            accuracy=accuracy,
            extras={"decoded_bytes": sum(
                state["store"].get(trace_id).size_bytes for trace_id in (train_id, test_id)
            )},
            reason=f"classifier test accuracy {accuracy:.4f} (bar {bar:.4f})",
        )

    def input_digest(self, inp):
        return repr(inp[2]).encode()


# -- campaign_sweep / cluster_sweep -----------------------------------------


class _Sweep(Workload):
    """One campaign of tiny ``lzw_recovery`` jobs per item, with two
    injected exception-mode failures that succeed on retry."""

    ref_items = 4
    command = ""

    def spec(self, seed: int) -> dict:
        return {
            "name": "e2ebench-sweep",
            "experiment": "lzw_recovery",
            "grid": {"size": [16, 24, 32, 48]},
            "fixed": {"input_kind": "random"},
            "trials": 4,
            "base_seed": item_seed(seed, "sweep"),
            "timeout_seconds": 60,
            "max_retries": 2,
            "retry_backoff": 0.01,
            "inject_failures": {"count": 2, "attempts": 1, "mode": "exception"},
        }

    def setup(self, work_dir, seed):
        from repro import cli
        from repro.campaign import ResultStore, metrics_digest

        spec_path = work_dir / "sweep.json"
        spec_path.write_text(json.dumps(self.spec(seed)))
        return {
            "seed": seed,
            "cli": cli,
            "result_store": ResultStore,
            "digest": metrics_digest,
            "spec_path": spec_path,
            "work_dir": work_dir,
        }

    def reference(self, state: dict) -> tuple[str, int]:
        """The metrics digest and job count of the spec's jobs called
        directly, with no engine: what every campaign item must
        reproduce."""
        if "reference" not in state:
            from repro.campaign.experiments import get_experiment
            from repro.campaign.spec import CampaignSpec
            from repro.campaign.store import JobRecord

            spec = CampaignSpec.from_dict(self.spec(state["seed"]))
            fn = get_experiment(spec.experiment)
            records = []
            for job in spec.jobs():
                metrics = json.loads(json.dumps(fn(job.params_dict(), job.seed)))
                records.append(JobRecord(
                    job_id=job.job_id, experiment=job.experiment,
                    params=job.params_dict(), trial=job.trial, seed=job.seed,
                    status="ok", attempts=1, duration_seconds=0.0, metrics=metrics,
                ))
            state["reference"] = (state["digest"](records), len(records))
        return state["reference"]

    def make_input(self, state, i):
        return i, self.spec(state["seed"])["base_seed"]

    def run(self, state, inp):
        out = state["work_dir"] / _fresh(state, f"{self.command}-")
        with contextlib.redirect_stdout(io.StringIO()):
            code = state["cli"].main([
                self.command, "run", str(state["spec_path"]), "--out", str(out),
                "--workers", str(workers()), "--quiet",
            ])
        return code, out

    def check(self, state, inp, out):
        code, root = out
        records = state["result_store"](root).load_records()
        shutil.rmtree(root, ignore_errors=True)
        digest, n_jobs = self.reference(state)
        all_ok = len(records) == n_jobs and all(r.ok for r in records.values())
        same = state["digest"](records) == digest
        found = [bool(r.metrics and r.metrics.get("exact_found")) for r in records.values()]
        retries = sum(r.attempts for r in records.values()) - len(records)
        injected = self.spec(state["seed"])["inject_failures"]["count"]
        return ItemCheck(
            ok=code == 0 and all_ok and same and retries == injected,
            accuracy=sum(found) / max(1, len(found)),
            counts={f"{self.engine}.jobs": len(records), f"{self.engine}.retries": retries},
            extras={
                "jobs": len(records),
                "job_seconds": sum(r.duration_seconds for r in records.values()),
            },
            reason=f"exit {code}, all ok={all_ok}, digest match={same}, retries={retries}",
        )


class CampaignSweep(_Sweep):
    name = "campaign_sweep"
    why = (
        "16-job lzw_recovery campaigns via `campaign run --workers nproc` "
        "(process pool): campaign engine overhead dominates"
    )
    command = "campaign"
    engine = "campaign"
    host_elasticity = 0.85


class ClusterSweep(_Sweep):
    name = "cluster_sweep"
    why = (
        "the same campaigns via `cluster run --workers nproc` (scheduler plus "
        "local worker processes): cluster engine overhead dominates"
    )
    command = "cluster"
    engine = "cluster"
    # About 0.4 s of each item is lease and heartbeat polling, which
    # does not follow host speed.
    host_elasticity = 0.55


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (SgxExtract(), TaintSurvey(), Fingerprint(), CampaignSweep(), ClusterSweep())
}
