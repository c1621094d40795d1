"""Benchmark-side spans around the public calls of each layer.

Nothing here edits the program: :func:`install` swaps a wrapper in for
a public function or method (in its class, or in every loaded
``repro`` module that holds a reference to it) and returns an undo
callable that puts every original back.  The untraced run never calls
it.

A span is one call of a wrapped function.  Spans nest on a single
stack (the measured work runs on one thread), so a span's *self* time
is its duration minus the durations of its direct children, and the
self times of all spans plus the uncovered part of each item add up to
the item's wall time exactly.  Per-operation taint calls
(``TaintedInt``/``BitTaint``) are never wrapped: they run millions of
times per item and a wrapper would dominate what it measures.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns

# (layer, "module:Qualified.name") for every wrapped call.  Layer names
# are the program's package names under ``repro`` (``taintchannel`` is
# ``repro.core.taintchannel``; the SGX attack driver and the enclave
# form the ``sgx`` layer).
TARGETS: tuple[tuple[str, str], ...] = (
    ("cache", "repro.cache.model:Cache.access"),
    ("cache", "repro.cache.model:Cache.access_timed"),
    ("cache", "repro.cache.model:Cache.access_silent"),
    ("cache", "repro.cache.model:Cache.access_many"),
    ("cache", "repro.cache.model:Cache.access_many_timed"),
    ("cache", "repro.cache.model:Cache.access_many_silent"),
    ("cache", "repro.cache.model:Cache.flush"),
    ("memsys", "repro.memsys.paging:AddressSpace.map_range"),
    ("memsys", "repro.memsys.paging:AddressSpace.frame_of"),
    ("memsys", "repro.memsys.paging:AddressSpace.remap"),
    ("memsys", "repro.memsys.paging:AddressSpace.free_frames_left"),
    ("memsys", "repro.memsys.paging:AddressSpace.mprotect"),
    ("memsys", "repro.memsys.paging:AddressSpace.translate"),
    ("memsys", "repro.memsys.paging:AddressSpace.page_addresses"),
    ("sgx", "repro.core.zipchannel.sgx_attack:SgxBzip2Attack.__init__"),
    ("sgx", "repro.core.zipchannel.sgx_attack:SgxBzip2Attack.run"),
    ("sgx", "repro.sgx.enclave:Enclave.touch"),
    ("sidechannel", "repro.sidechannel.prime_probe:AttackerMemory.__init__"),
    ("sidechannel", "repro.sidechannel.prime_probe:PrimeProbe.prime"),
    ("sidechannel", "repro.sidechannel.prime_probe:PrimeProbe.probe"),
    ("sidechannel", "repro.sidechannel.frame_selection:FrameSelector.vet"),
    ("sidechannel", "repro.sidechannel.single_step:SingleStepper.handle_fault"),
    ("sidechannel", "repro.core.zipchannel.fingerprint:capture_raw_trace"),
    ("compression", "repro.compression.bzip2.blocksort:histogram"),
    ("compression", "repro.core.zipchannel.fingerprint:victim_timeline"),
    ("recovery", "repro.recovery.bzip2_recover:recover_bzip2_block"),
    ("recovery", "repro.recovery.lzw_recover:recover_lzw_input"),
    ("recovery", "repro.recovery.zlib_recover:recover_known_high_bits"),
    ("taint", "repro.core.taintchannel.tool:TaintChannel.trace"),
    ("taintchannel", "repro.core.taintchannel.tool:TaintChannel.analyze"),
    ("exec", "repro.traces.capture:run_memory_target"),
    ("traces", "repro.traces.capture:capture_memory_trace"),
    ("traces", "repro.traces.store:_StoreWriter.append"),
    ("traces", "repro.traces.store:_StoreWriter.extend"),
    ("traces", "repro.traces.store:_StoreWriter.close"),
    ("traces", "repro.traces.store:TraceStore.read_columns"),
    ("traces", "repro.traces.replay:recover_from_trace"),
    ("traces", "repro.traces.replay:dataset_from_store"),
    ("classify", "repro.classify.mlp:MLPClassifier.fit"),
    ("campaign", "repro.campaign.runner:CampaignRunner.run"),
    ("campaign", "repro.campaign.store:ResultStore.append"),
    ("cluster", "repro.cluster.service:run_cluster"),
    ("cluster", "repro.cluster.scheduler:ClusterScheduler.submit"),
    ("cluster", "repro.cluster.scheduler:ClusterScheduler.register_worker"),
    ("cluster", "repro.cluster.scheduler:ClusterScheduler.heartbeat"),
    ("cluster", "repro.cluster.scheduler:ClusterScheduler.disconnect_worker"),
    ("cluster", "repro.cluster.scheduler:ClusterScheduler.request_lease"),
    ("cluster", "repro.cluster.scheduler:ClusterScheduler.handle_result"),
    ("cluster", "repro.cluster.scheduler:ClusterScheduler.tick"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _ in TARGETS))

ROOT_LAYER = "other"  # item time that no layer span covers


def layer_targets(layer: str) -> list[str]:
    """The ``module:qualname`` targets of one layer."""
    return [spec for name, spec in TARGETS if name == layer]


def install(specs, make_wrapper) -> callable:
    """Replace every target with ``make_wrapper(original, label)``.

    Methods are swapped on their class; module-level functions are
    swapped in every loaded ``repro`` module that refers to the same
    object (``from x import f`` copies the reference).  Returns a
    callable restoring all originals.
    """
    undo: list[tuple[object, str, object]] = []
    for spec in specs:
        mod_name, qualname = spec.split(":", 1)
        module = importlib.import_module(mod_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".", 1)
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, make_wrapper(original, qualname))
            continue
        original = getattr(module, qualname)
        wrapper = make_wrapper(original, qualname)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


class SpanRecorder:
    """Per-layer self time and per-function inclusive time, in memory.

    ``keep`` bounds the individual spans retained (the first item's
    span tree, for inspection); the aggregates cover every span.
    """

    def __init__(self, keep: int = 5000) -> None:
        self.keep = keep
        self.spans: list[tuple[str, int, int, int]] = []  # label, parent, start, end
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.root_ns = 0  # summed duration of the outermost spans
        self._stack: list[list] = []  # [label, layer, start, child_ns, span index]
        self._depth: dict[str, int] = defaultdict(int)

    def enter(self, label: str, layer: str) -> None:
        index = -1
        if len(self.spans) < self.keep:
            parent = self._stack[-1][4] if self._stack else -1
            index = len(self.spans)
            self.spans.append((label, parent, 0, 0))
        self._depth[label] += 1
        self._stack.append([label, layer, perf_counter_ns(), 0, index])

    def exit(self) -> None:
        end = perf_counter_ns()
        label, layer, start, child_ns, index = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child_ns
        self.calls[label] += 1
        self._depth[label] -= 1
        if not self._depth[label]:  # outermost call of this function
            self.incl_ns[label] += duration
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.root_ns += duration
        if index >= 0:
            self.spans[index] = (label, self.spans[index][1], start, end)

    def wrapper_for(self, layer: str):
        """``make_wrapper`` for :func:`install`: a span per call."""
        enter, exit_ = self.enter, self.exit

        def make(original, label):
            @functools.wraps(original)
            def span(*args, **kwargs):
                enter(label, layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    exit_()

            return span

        return make

    def install_all(self) -> callable:
        """Wrap every layer's targets; returns the undo callable."""
        undos = [
            install(layer_targets(layer), self.wrapper_for(layer))
            for layer in LAYERS
        ]

        def restore() -> None:
            for undo in reversed(undos):
                undo()

        return restore

    def incl_s(self, *labels: str) -> float:
        """Inclusive seconds spent in the named functions."""
        return sum(self.incl_ns.get(label, 0) for label in labels) / 1e9

    def summary(self) -> dict:
        """JSON-ready aggregates plus the retained spans."""
        return {
            "root_s": self.root_ns / 1e9,
            "self_s": {k: v / 1e9 for k, v in sorted(self.self_ns.items())},
            "incl_s": {k: v / 1e9 for k, v in sorted(self.incl_ns.items())},
            "calls": dict(sorted(self.calls.items())),
            "spans": [list(s) for s in self.spans],
        }


def stretcher(factor: float):
    """``make_wrapper`` that makes each call take ``factor`` times as
    long (busy-waiting after the call returns) — the injected slowdown
    of the benchmark's sensitivity self-test."""
    extra = factor - 1.0

    def make(original, label):
        @functools.wraps(original)
        def stretched(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                deadline = end + int((end - start) * extra)
                while perf_counter_ns() < deadline:
                    pass

        return stretched

    return make
