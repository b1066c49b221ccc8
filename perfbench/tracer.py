"""Span tracing around the simulator's layer entry points.

The benchmark times the calls *into* each layer from its own code: every
public entry point listed in :data:`LAYER_ENTRY_POINTS` is replaced, on the
class (or module) that defines it, by a wrapper that records one span.
Wrapping on the defining class keeps identity checks in the program intact
(``type(policy).needs_reexecution is SQPolicy.needs_reexecution``,
``VectorCore._stock_loop``): the traced run takes the same code path as the
untraced one, which the benchmark asserts by comparing outputs.

A span is ``(name, start_ns, end_ns, parent, value)``; ``value`` carries a
per-call count where one is needed (uops simulated, uops composed, bytes
written, cache hit).  Spans live in flat arrays in memory and are written
once, when the pass ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: Layer entry points: (layer, module, class or None for a module
#: function, attribute names).  An empty name tuple wraps every public
#: function the class itself defines.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("pipeline", "repro.pipeline.core", "OutOfOrderCore", ("run",)),
    ("pipeline", "repro.pipeline.vector", "VectorCore", ("run",)),
    ("lsu", "repro.lsu.policies", "SQPolicy", ()),
    ("lsu", "repro.lsu.policies", "OracleAssociativePolicy", ()),
    ("lsu", "repro.lsu.policies", "AssociativeStoreSetsPolicy", ()),
    ("lsu", "repro.lsu.policies", "IndexedSQPolicy", ()),
    ("lsu", "repro.lsu.store_queue", "StoreQueue", ()),
    ("lsu", "repro.core.svw", "StoreSequenceBloomFilter", ()),
    ("lsu", "repro.core.svw", "StorePCTable", ()),
    ("lsu", "repro.core.svw", "SVWFilter", ()),
    ("lsu", "repro.core.fsp", "ForwardingStorePredictor", ()),
    ("lsu", "repro.core.ddp", "DelayDistancePredictor", ()),
    ("lsu", "repro.core.sat", "StoreAliasTable", ()),
    ("lsu", "repro.core.store_sets", "StoreSetsPredictor", ()),
    ("memory.image", "repro.memory.image", "MemoryImage", ("read", "write")),
    ("memory.hier", "repro.memory.hierarchy", "MemoryHierarchy", ()),
    ("memory.hier", "repro.memory.mlp", "NonBlockingHierarchy", ()),
    ("frontend", "repro.frontend.branch_predictor", "BranchUnit",
     ("predict_and_resolve",)),
    ("workloads", "repro.workloads.suites", None,
     ("build_workload", "build_workload_window")),
    ("sampling", "repro.sampling.functional", "FunctionalWarmer", ("warm",)),
    ("sampling", "repro.sampling.driver", None,
     ("run_interval_job", "merge_interval_records")),
    ("checkpoints", "repro.sampling.checkpoints", None,
     ("execute_generation", "load_interval_state")),
    # ResultCache.get/put serve both the result cache and (inherited) the
    # checkpoint store; the span is named after the instance's class.
    ("exec", "repro.exec.cache", "ResultCache", ("get", "put")),
    ("exec", "repro.exec.cache", None, ("job_key",)),
    ("exec", "repro.exec.dispatch", None, ("dispatch",)),
    ("exec", "repro.exec.jobs", None, ("run_job",)),
)

#: Policy hooks that train predictors during functional warming.
WARM_HOOKS = ("warm_load", "warm_store_renamed")


def _public_functions(cls) -> List[str]:
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and callable(value)
            and not isinstance(value, (staticmethod, classmethod, type))]


def rebind_module_globals(original, replacement) -> None:
    """Replace ``original`` by ``replacement`` in every loaded ``repro``
    module, so ``from module import name`` bindings see the wrapper too."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.value = array("q")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    # ------------------------------------------------------------ wrapping --

    def wrap(self, fn: Callable, span_name, measure=None) -> Callable:
        """Return ``fn`` recording one span per call.

        ``span_name`` is a fixed name or a callable of the call's first
        argument; ``measure(args, result)`` fills the span's value.
        """
        name_a, start_a, end_a = self.name, self.start, self.end
        parent_a, value_a, stack = self.parent, self.value, self._stack
        clock = time.perf_counter_ns
        fixed = None if callable(span_name) else self.name_id(span_name)
        name_of = span_name if fixed is None else None
        name_id = self.name_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_a)
            name_a.append(fixed if fixed is not None else name_id(name_of(args[0])))
            parent_a.append(stack[-1])
            start_a.append(0)
            end_a.append(0)
            value_a.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                start_a[idx] = t0
                stack.pop()
            if measure is not None:
                value_a[idx] = measure(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYER_ENTRY_POINTS`."""
        import importlib

        for layer, module_name, class_name, attrs in LAYER_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if class_name is None:
                for attr in attrs:
                    original = getattr(module, attr)
                    wrapped = self.wrap(original, f"{layer}:{attr}",
                                        _MEASURES.get(attr))
                    setattr(module, attr, wrapped)
                    rebind_module_globals(original, wrapped)
                continue
            cls = getattr(module, class_name)
            for attr in attrs or _public_functions(cls):
                original = vars(cls)[attr]
                if class_name == "ResultCache":
                    span_name = _cache_span_name(attr)
                else:
                    span_name = f"{layer}:{class_name}.{attr}"
                setattr(cls, attr, self.wrap(
                    original, span_name, _MEASURES.get(f"{class_name}.{attr}")))

    # --------------------------------------------------------------- output --

    def write(self, path: str) -> None:
        """Write every span to ``path`` (an uncompressed ``.npz``)."""
        import numpy as np

        np.savez(path, run_id=np.array(self.run_id),
                 names=np.array(self.names or [""]),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 value=np.frombuffer(self.value, dtype=np.int64))

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer counts and times over the recorded spans."""
        import numpy as np

        n = len(self.name)
        name = np.frombuffer(self.name, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        value = np.frombuffer(self.value, dtype=np.int64).astype(np.float64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=n)
        self_time = dur - child_time

        names = self.names

        def by_name(keep):
            return np.isin(name, [i for i, label in enumerate(names) if keep(label)])

        def select(*entry_points):
            """Spans of the named entry points (``Class.method`` or function)."""
            return by_name(lambda label: label.split(":", 1)[1] in entry_points)

        def layer(prefix):
            return by_name(lambda label: label.split(":", 1)[0] == prefix)

        def outermost(mask):
            """Spans in ``mask`` whose parent is not in ``mask``."""
            parent_in = np.zeros(n, dtype=bool)
            parent_in[has_parent] = mask[parent[has_parent]]
            return mask & ~parent_in

        def inclusive_s(mask):
            return float(dur[outermost(mask)].sum()) / 1e9

        metrics: Dict[str, float] = {}
        runs = select("OutOfOrderCore.run", "VectorCore.run")
        outer_runs = outermost(runs)
        pipeline_self = float(self_time[layer("pipeline")].sum())
        uops = float(value[outer_runs].sum())
        metrics["pipeline.runs"] = int(outer_runs.sum())
        metrics["pipeline.uops"] = int(uops)
        metrics["pipeline.self_s"] = pipeline_self / 1e9
        metrics["pipeline.self_ns_per_uop"] = pipeline_self / uops if uops else 0.0

        lsu = layer("lsu")
        warm_hooks = by_name(lambda label: label.startswith("lsu:")
                             and label.rsplit(".", 1)[1] in WARM_HOOKS)
        metrics["lsu.calls"] = int(lsu.sum())
        metrics["lsu.warm_calls"] = int(warm_hooks.sum())
        metrics["lsu.self_s"] = float(self_time[lsu].sum()) / 1e9

        image, hier = layer("memory.image"), layer("memory.hier")
        metrics["memory.image_calls"] = int(image.sum())
        metrics["memory.image_self_s"] = float(self_time[image].sum()) / 1e9
        metrics["memory.hier_calls"] = int(hier.sum())
        metrics["memory.hier_self_s"] = float(self_time[hier].sum()) / 1e9

        frontend = layer("frontend")
        metrics["frontend.calls"] = int(frontend.sum())
        metrics["frontend.self_s"] = float(self_time[frontend].sum()) / 1e9

        compose = select("build_workload", "build_workload_window")
        outer_compose = outermost(compose)
        metrics["workloads.compose_calls"] = int(outer_compose.sum())
        metrics["workloads.uops_composed"] = int(value[outer_compose].sum())
        metrics["workloads.compose_s"] = inclusive_s(compose)

        warm = outermost(select("FunctionalWarmer.warm"))
        warm_uops = float(value[warm].sum())
        metrics["sampling.warm_uops"] = int(warm_uops)
        metrics["sampling.warm_ns_per_uop"] = (
            float(dur[warm].sum()) / warm_uops if warm_uops else 0.0)
        metrics["sampling.interval_jobs"] = int(select("run_interval_job").sum())
        metrics["sampling.merge_s"] = inclusive_s(select("merge_interval_records"))

        store_get = select("CheckpointStore.get")
        store_put = select("CheckpointStore.put")
        loads = select("load_interval_state")
        metrics["checkpoints.generate_s"] = inclusive_s(select("execute_generation"))
        metrics["checkpoints.load_calls"] = int(loads.sum())
        metrics["checkpoints.load_s"] = inclusive_s(loads)
        metrics["checkpoints.bytes_written"] = int(value[store_put].sum())
        gets = int(store_get.sum())
        metrics["checkpoints.reuse_ratio"] = (
            float(value[store_get].sum()) / gets if gets else 0.0)

        jobs = outermost(select("run_job"))
        job_ms = np.sort(dur[jobs]) / 1e6
        cache_get = select("ResultCache.get")
        probes = int(cache_get.sum())
        metrics["exec.jobs"] = int(jobs.sum())
        metrics["exec.job_p50_ms"] = float(np.percentile(job_ms, 50)) if len(job_ms) else 0.0
        metrics["exec.job_p95_ms"] = float(np.percentile(job_ms, 95)) if len(job_ms) else 0.0
        metrics["exec.probe_s"] = inclusive_s(select("ResultCache.get", "job_key"))
        metrics["exec.write_s"] = inclusive_s(select("ResultCache.put"))
        metrics["exec.bytes_written"] = int(value[select("ResultCache.put")].sum())
        metrics["exec.cache_hit_ratio"] = (
            float(value[cache_get].sum()) / probes if probes else 0.0)
        metrics["trace.spans"] = n
        return metrics


def _cache_span_name(attr: str):
    """Result-cache calls belong to ``exec``, checkpoint-store calls (the
    same inherited methods) to ``checkpoints``."""
    def name(store) -> str:
        cls = type(store).__name__
        return f"{'checkpoints' if cls == 'CheckpointStore' else 'exec'}:{cls}.{attr}"
    return name


def _blob_size(args, _result) -> int:
    store, key = args[0], args[1]
    try:
        return os.path.getsize(store._path(key))
    except OSError:
        return 0


#: Per-call values: what each entry point's span counts.
_MEASURES = {
    "OutOfOrderCore.run": lambda args, _result: len(args[1]),
    "VectorCore.run": lambda args, _result: len(args[1]),
    "FunctionalWarmer.warm": lambda args, _result: len(args[1]),
    "build_workload": lambda _args, result: len(result),
    "build_workload_window": lambda _args, result: len(result),
    "ResultCache.get": lambda _args, result: int(result is not None),
    "ResultCache.put": _blob_size,
}
