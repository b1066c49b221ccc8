"""The benchmark's workloads, and one pass of one workload in this process.

``run.py`` starts every pass in a fresh interpreter::

    python3 perfbench/passes.py '<request JSON>'

because the simulator keeps process-wide memos (trace segments, static
planes) and ``ru_maxrss`` only grows: a reused process would blur both the
timing and the memory figures.  The request names the workload, the
workload seed, the size, the mode and the file the result is written to:

``pass``       run the workload untraced;
``traced``     run it with every layer entry point wrapped in spans;
``setup``      stop at the first submitted job (times set-up only);
``reference``  full-detail CPIs of the sampled workload's cells, which the
               expectations freeze as the accuracy reference.

Every workload runs on the serial engine with the private, empty result
cache and checkpoint store named by ``REPRO_CACHE_DIR`` and
``REPRO_CHECKPOINT_DIR``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback

from tracer import rebind_module_globals

WORKLOADS = ("fig4-sweep", "sampled-ckpt")

#: Per-workload sizes.  ``full`` is what the benchmark measures; ``tiny``
#: is the smoke size the benchmark's own tests run.
SIZES = {
    "full": {
        # Each pass takes about 8 s on one core (see run.PASS_SECONDS).
        # fig4-sweep keeps all 47 programs x 6 configurations and shortens
        # the cells instead.
        "fig4-sweep": {"instructions": 800, "programs": None},
        "sampled-ckpt": {"instructions": 48_000, "intervals": 12,
                         "interval_length": 500, "detailed_warmup": 500},
    },
    "tiny": {
        "fig4-sweep": {"instructions": 600, "programs": ["gzip", "swim"]},
        "sampled-ckpt": {"instructions": 12_000, "intervals": 3,
                         "interval_length": 300, "detailed_warmup": 300},
    },
}

#: sampled-ckpt: one compute-bound and one memory-bound program, a
#: Figure-4 mini-column of configurations.
SAMPLED_PROGRAMS = ("vortex", "mcf")
SAMPLED_CONFIGS = ("oracle-associative-3", "associative-5-predictive",
                   "indexed-3-fwd", "indexed-3-fwd+dly")

class _SetupDone(Exception):
    """Raised at the first submitted job of a set-up-only pass."""


# ------------------------------------------------------------ host speed --

#: Iterations of the calibration loop: about 7 ms on a 2-vCPU cloud host.
CALIBRATION_ROUNDS = 6000

#: The loop is timed at the first submitted job and then after a job
#: whenever this much time has passed since the last timing, so it adds
#: under a tenth to a pass.
CALIBRATE_EVERY_S = 0.1


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt


def _calibration_loop() -> int:
    table = {}
    head = None
    acc = 0
    for i in range(CALIBRATION_ROUNDS):
        key = (i * 7919) % 1021
        node = table.get(key)
        if node is None:
            head = table[key] = _Node(key, i, head)
        else:
            node.value += i & 15
        if i & 7 == 0:
            acc += sum(node.value for node in list(table.values())[:8])
    return acc + max(table, key=lambda key: table[key].value)


def calibrate() -> float:
    """Seconds one fixed, interpreter-bound loop takes right now.

    A shared host's speed drifts by tens of percent over seconds to
    minutes; the simulator's speed drifts with it, because both are bound
    by the same interpreter work (small objects, dict lookups, attribute
    access, a working set of some 100 KiB).  The loop lives here, not in
    the simulator, so no change to the program moves it; the garbage
    collector is off while it runs, so the program's heap does not slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _calibration_loop()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


# ------------------------------------------------------------- workloads --

def _fig4_sweep(engine, seed, size):
    from repro.harness.figure4 import run_figure4
    from repro.harness.runner import (BASELINE_CONFIG, FIGURE4_CONFIGS,
                                      ExperimentSettings)
    from repro.workloads.suites import workload_names

    programs = size["programs"] or workload_names()
    keys = [f"{name}/{config}" for name in programs
            for config in (BASELINE_CONFIG,) + FIGURE4_CONFIGS]
    settings = ExperimentSettings(instructions=size["instructions"], seed=seed)
    return keys, lambda: run_figure4(programs, settings=settings, engine=engine)


def sampled_settings(seed, size):
    from repro.harness.runner import ExperimentSettings
    from repro.sampling.plan import SamplingPlan

    instructions = size["instructions"]
    plan = SamplingPlan(interval_length=size["interval_length"],
                        detailed_warmup=size["detailed_warmup"],
                        period=instructions // size["intervals"], seed=seed)
    return ExperimentSettings(instructions=instructions, seed=seed,
                              stats_warmup_fraction=0.0, sampling=plan,
                              checkpoints=True)


def _sampled_ckpt(engine, seed, size):
    from repro.exec import JobSpec

    settings = sampled_settings(seed, size)
    specs = [JobSpec(name, config, settings)
             for name in SAMPLED_PROGRAMS for config in SAMPLED_CONFIGS]
    keys = [f"{spec.workload}/{spec.config_name}" for spec in specs]
    return keys, lambda: engine.run(specs)


_BUILDERS = {"fig4-sweep": _fig4_sweep, "sampled-ckpt": _sampled_ckpt}


# -------------------------------------------------------------- outputs --

def cell_output(record) -> dict:
    """What the expectations freeze for one cell: a digest of every
    simulated statistic, plus the CPI figures the metrics use."""
    result = record.result
    stats = result.stats
    payload = [sorted(stats.as_dict().items()), sorted(result.extra.items())]
    out = {"cpi": stats.cycles / stats.committed if stats.committed else 0.0}
    sampled = getattr(result, "sampled", None)
    if sampled is not None:
        payload.append([(m.measure_start, m.instructions, m.cycles)
                        for m in sampled.intervals])
        out["cpi"] = sampled.cpi_mean
        out["relative_ci"] = sampled.relative_ci
    blob = json.dumps(payload, default=repr).encode()
    out["digest"] = hashlib.sha256(blob).hexdigest()[:24]
    return out


def simulated_metrics(records) -> dict:
    """Simulated per-layer statistics, pooled over the pass's cells."""
    stats = [record.result.stats for record in records]

    def total(field):
        return sum(getattr(s, field) for s in stats)

    def ratio(num, den, scale=1.0):
        den = total(den)
        return scale * total(num) / den if den else 0.0

    l1_rates = [record.result.extra.get("l1_miss_rate", 0.0) for record in records]
    return {
        "pipeline.cpi": ratio("cycles", "committed"),
        "lsu.forward_rate": ratio("loads_forwarded", "committed_loads"),
        "lsu.mis_forwardings_per_kload": ratio("mis_forwardings", "committed_loads", 1000.0),
        "lsu.reexec_rate": ratio("loads_reexecuted", "committed_loads"),
        "lsu.loads_delayed_pct": ratio("loads_delayed", "committed_loads", 100.0),
        "memory.l1_miss_rate": sum(l1_rates) / len(l1_rates) if l1_rates else 0.0,
        "frontend.mispredict_rate": ratio("branch_mispredictions", "committed_branches"),
    }


# ---------------------------------------------------------------- probes --

class _Probes:
    """Cheap wrappers present in every pass: the first-submit mark, the
    records each engine run returns, the wall time of every dispatched job
    (simulation and checkpoint-generation jobs alike) with the host speed
    around it, and which core loop actually ran."""

    def __init__(self, setup_only: bool) -> None:
        from repro.exec.dispatch import dispatch
        from repro.exec.engine import ExperimentEngine
        from repro.pipeline.core import OutOfOrderCore
        from repro.pipeline.vector import VectorCore

        self.submitted_at = None
        self.records = []
        self.vector_runs = 0
        self.object_runs = 0
        self.fallbacks = 0
        self.core_classes = set()
        self.job_s = []
        self.job_cal_s = []
        self.cal_s = []
        self._uncalibrated = 0
        self._calibrated_at = 0.0
        self._in_vector = 0
        probes = self

        def timed_dispatch(backend, fn, jobs, **kwargs):
            def timed(payload):
                started = time.perf_counter()
                try:
                    return fn(payload)
                finally:
                    ended = time.perf_counter()
                    probes.job_s.append(ended - started)
                    probes._uncalibrated += 1
                    if ended - probes._calibrated_at >= CALIBRATE_EVERY_S:
                        probes.calibrate()
            return dispatch(backend, timed, jobs, **kwargs)

        engine_run = ExperimentEngine.run

        def run(engine, specs, *args, **kwargs):
            if probes.submitted_at is None:
                probes.submitted_at = time.monotonic()
                probes.calibrate()
                if setup_only:
                    raise _SetupDone
            records = engine_run(engine, specs, *args, **kwargs)
            probes.records.extend(records)
            probes.engine_stats = dict(engine.last_run_stats)
            return records

        vector_run = VectorCore.run
        object_run = OutOfOrderCore.run

        def vector(core, *args, **kwargs):
            probes.vector_runs += 1
            probes.core_classes.add(type(core).__name__)
            probes._in_vector += 1
            try:
                return vector_run(core, *args, **kwargs)
            finally:
                probes._in_vector -= 1

        def obj(core, *args, **kwargs):
            probes.object_runs += 1
            probes.fallbacks += probes._in_vector > 0
            probes.core_classes.add(type(core).__name__)
            return object_run(core, *args, **kwargs)

        rebind_module_globals(dispatch, timed_dispatch)
        ExperimentEngine.run = run
        VectorCore.run = vector
        OutOfOrderCore.run = obj

    def calibrate(self) -> None:
        """Time the calibration loop; the jobs since the last one take the
        mean of the two calibrations around them."""
        cal = calibrate()
        if self._uncalibrated:
            around = (self.cal_s[-1] + cal) / 2.0
            self.job_cal_s.extend([around] * self._uncalibrated)
            self._uncalibrated = 0
        self.cal_s.append(cal)
        self._calibrated_at = time.perf_counter()

    def kernel(self) -> dict:
        """The detailed-core loop that actually ran, seen from outside."""
        if self.object_runs == 0:
            name = "vector" if self.vector_runs else "none"
        elif self.vector_runs == 0:
            name = "object"
        elif self.fallbacks == self.object_runs == self.vector_runs:
            name = "object (vector fell back)"
        else:
            name = "mixed"
        return {"name": name, "vector_runs": self.vector_runs,
                "object_loop_runs": self.object_runs,
                "fallbacks": self.fallbacks,
                "core_classes": sorted(self.core_classes)}


# ------------------------------------------------------------------ pass --

def _reference(seed, size) -> dict:
    """Full-detail CPI of every sampled-ckpt cell (the accuracy reference)."""
    import dataclasses

    from repro.exec import ExperimentEngine, JobSpec

    settings = dataclasses.replace(sampled_settings(seed, size), sampling=None,
                                   checkpoints=None)
    specs = [JobSpec(name, config, settings)
             for name in SAMPLED_PROGRAMS for config in SAMPLED_CONFIGS]
    records = ExperimentEngine(jobs=1, cache=False).run(specs)
    return {f"{spec.workload}/{spec.config_name}":
            record.result.stats.cycles / record.result.stats.committed
            for spec, record in zip(specs, records)}


def run_pass(request: dict) -> dict:
    mode = request["mode"]
    seed = request["seed"]
    size = SIZES[request["size"]][request["workload"]]
    if mode == "reference":
        return {"reference_cpi": _reference(seed, size)}

    from repro.exec import ExperimentEngine
    from repro.exec.dispatch import scheduler_counters
    from repro.exec.resilience import counters_delta, counters_snapshot

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer(request["run_id"])
        tracer.install()
    probes = _Probes(setup_only=mode == "setup")
    engine = ExperimentEngine(jobs=1, cache_dir=os.environ["REPRO_CACHE_DIR"],
                              checkpoint_dir=os.environ["REPRO_CHECKPOINT_DIR"])
    keys, work = _BUILDERS[request["workload"]](engine, seed, size)
    resilience_before = counters_snapshot()
    dispatch_before = scheduler_counters().get("dispatch_overhead_ns", 0)
    try:
        work()
    except _SetupDone:
        return {"setup_s": probes.submitted_at - request["spawned_at"],
                "cal_s": probes.cal_s}
    if probes._uncalibrated:
        probes.calibrate()
    finished = time.monotonic()
    if len(probes.records) != len(keys):
        raise RuntimeError(f"expected {len(keys)} records, got {len(probes.records)}")

    result = {
        "setup_s": probes.submitted_at - request["spawned_at"],
        "wall_s": finished - probes.submitted_at,
        "job_s": probes.job_s,
        "job_cal_s": probes.job_cal_s,
        "cal_s": probes.cal_s,
        "uops": len(keys) * size["instructions"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": {key: cell_output(record)
                  for key, record in zip(keys, probes.records)},
        "kernel": probes.kernel(),
        "backend": probes.engine_stats.get("backend"),
        "layers": simulated_metrics(probes.records),
    }
    layers = result["layers"]
    layers["exec.dispatch_overhead_s"] = (
        scheduler_counters().get("dispatch_overhead_ns", 0) - dispatch_before) / 1e9
    layers["exec.recoveries"] = sum(counters_delta(resilience_before).values())
    if tracer is not None:
        layers.update(tracer.layer_metrics())
        tracer.write(request["spans_path"])
    return result


def main(argv) -> int:
    request = json.loads(argv[1])
    try:
        result = run_pass(request)
    except Exception:  # reported to the parent, which counts the cells failed
        result = {"error": traceback.format_exc()}
    with open(request["out"], "w") as out:
        json.dump(result, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
