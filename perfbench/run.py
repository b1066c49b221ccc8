"""The repository benchmark: one workload per invocation, serial, checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4-sweep --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --refresh

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``fig4-sweep``    ``run_figure4`` over all 47 programs x 6 configurations,
                  full detail;
``sampled-ckpt``  checkpointed SMARTS sampling of vortex and mcf x 4
                  configurations.

A run makes ``round(--seconds / 8)`` *passes* of the workload (at least
two); a full-size pass takes about 8 s on one core.  Every pass runs in a
fresh interpreter with a private, empty result cache and checkpoint
store, and every ``REPRO_*`` knob cleared or pinned.  ``uops_per_s``
divides a pass's uops by its noise-filtered wall (see ``typical_wall``),
``peak_rss_mb`` is the median over the passes, and ``setup_s`` the median
over several set-up-only starts and the passes.

Host times are scaled to a reference host speed.  A shared host runs the
same pass 30-70% slower in some minutes than in others; every pass
therefore times a fixed calibration loop of the benchmark's own between
its jobs, and each host time is scaled by the calibration timed around it
(``at_reference_speed``).  A change to the program moves its own times,
never the loop's.  The run context records the raw, unscaled throughput
and the calibration times.

``--seed n`` selects the workload seed ``SEEDS[(n - 1) % len(SEEDS)]``.  Each
shipped seed has frozen expectations under ``perfbench/expected/``: a
digest of every simulated statistic per cell and, for ``sampled-ckpt``,
the full-detail reference CPIs.  A cell whose output differs, or a pass
that raises, counts as failed; the run then exits 1.  ``--refresh``
rewrites the expectations of the selected seed from the current code.

``--trace 1`` runs one untraced and one traced pass (spans around every
layer entry point, see ``tracer.py``), asserts both give identical
outputs, and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (cells simulated), ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from passes import SIZES, WORKLOADS  # noqa: E402

#: Shipped workload seeds.  Seed 3 is held out: tune on 1 and 2, and use 3
#: to confirm a claimed gain.
SEEDS = (1, 2, 3)
HELD_OUT_SEEDS = (3,)

#: Set-up-only starts before each pass and after the last one, on top of
#: the passes' own set-up times.
SETUP_PROBES = 6

#: Nominal wall time of one full-size pass.  A run makes
#: ``round(--seconds / PASS_SECONDS)`` passes (at least two): a fixed count,
#: so the per-part median has the same statistics in every run.
PASS_SECONDS = 8

#: Host times are reported as if the calibration loop (``passes.calibrate``)
#: took this long, its time on a quiet 2-vCPU cloud host; see
#: ``at_reference_speed``.
REFERENCE_CAL_S = 0.0075

#: A pass that takes longer has hung; the run must end within 180 s.
PASS_TIMEOUT_S = 120

#: Scratch space for private stores, pass results and span files.  Inside
#: the checkout; listed in .gitignore.
WORK = ROOT / ".perfbench"

#: End-to-end metrics, measured with tracing off: name -> (unit, better,
#: what it measures).
END_TO_END = {
    "setup_s": ("s", "lower", "interpreter start to the first submitted job: "
                "imports, engine, private stores, spec list; at reference "
                "host speed"),
    "uops_per_s": ("uops/s", "higher", "trace instructions x configurations "
                   "simulated (covered, for sampled-ckpt) per second of pass "
                   "wall at reference host speed"),
    "peak_rss_mb": ("MiB", "lower", "peak resident memory of the pass process"),
}

_PIPELINE = "uops_per_s on fig4-sweep, about half as much on sampled-ckpt"
_LSU = ("uops_per_s on fig4-sweep (detailed hooks) and sampled-ckpt "
        "(warm_load, warm_store_renamed)")
_IMAGE = "uops_per_s on fig4-sweep and sampled-ckpt"
_HIER = "uops_per_s on fig4-sweep and sampled-ckpt (blocking hierarchy)"
_FRONTEND = "uops_per_s on fig4-sweep"
_COMPOSE = "uops_per_s on sampled-ckpt, about 3% of fig4-sweep"
_SAMPLING = "uops_per_s on sampled-ckpt only; no change on fig4-sweep"
_CKPT = "uops_per_s and peak_rss_mb on sampled-ckpt"
_EXEC = "uops_per_s on fig4-sweep, whose 282 short jobs make per-job overhead matter most"
_MODEL = "simulated: moves only with a model change, never with a speed-up"

#: Per-layer metrics, from the traced run: name -> (unit, better, the
#: end-to-end metric and workload it should move).  Host times are self
#: times (span minus its children) unless the name says otherwise.
PER_LAYER = {
    "pipeline.runs": ("count", "lower", _PIPELINE),
    "pipeline.uops": ("uops", "lower", _PIPELINE),
    "pipeline.self_s": ("s", "lower", _PIPELINE),
    "pipeline.self_ns_per_uop": ("ns/uop", "lower", _PIPELINE),
    "pipeline.cpi": ("cycles/uop", "lower", _MODEL),
    "lsu.calls": ("count", "lower", _LSU),
    "lsu.warm_calls": ("count", "lower", _LSU),
    "lsu.self_s": ("s", "lower", _LSU),
    "lsu.forward_rate": ("ratio", "higher", _MODEL),
    "lsu.mis_forwardings_per_kload": ("1/kload", "lower", _MODEL),
    "lsu.reexec_rate": ("ratio", "lower", _MODEL),
    "lsu.loads_delayed_pct": ("%", "lower", _MODEL),
    "memory.image_calls": ("count", "lower", _IMAGE),
    "memory.image_self_s": ("s", "lower", _IMAGE),
    "memory.hier_calls": ("count", "lower", _HIER),
    "memory.hier_self_s": ("s", "lower", _HIER),
    "memory.l1_miss_rate": ("ratio", "lower", _MODEL),
    "frontend.calls": ("count", "lower", _FRONTEND),
    "frontend.self_s": ("s", "lower", _FRONTEND),
    "frontend.mispredict_rate": ("ratio", "lower", _MODEL),
    "workloads.compose_calls": ("count", "lower", _COMPOSE),
    "workloads.uops_composed": ("uops", "lower", _COMPOSE),
    "workloads.compose_s": ("s", "lower", _COMPOSE),
    "sampling.warm_uops": ("uops", "lower", _SAMPLING),
    "sampling.warm_ns_per_uop": ("ns/uop", "lower", _SAMPLING),
    "sampling.interval_jobs": ("count", "lower", _SAMPLING),
    "sampling.merge_s": ("s", "lower", _SAMPLING),
    "sampling.cpi_error_pct": ("%", "lower", _MODEL + " or the sampling plan"),
    "sampling.cpi_ci_pct": ("%", "lower", _MODEL + " or the sampling plan"),
    "checkpoints.generate_s": ("s", "lower", _CKPT),
    "checkpoints.load_calls": ("count", "lower", _CKPT),
    "checkpoints.load_s": ("s", "lower", _CKPT),
    "checkpoints.bytes_written": ("bytes", "lower", _CKPT),
    "checkpoints.reuse_ratio": ("ratio", "higher", _CKPT),
    "exec.jobs": ("count", "lower", _EXEC),
    "exec.job_p50_ms": ("ms", "lower", _EXEC),
    "exec.job_p95_ms": ("ms", "lower", _EXEC),
    "exec.probe_s": ("s", "lower", _EXEC),
    "exec.write_s": ("s", "lower", _EXEC),
    "exec.bytes_written": ("bytes", "lower", _EXEC),
    "exec.cache_hit_ratio": ("ratio", "higher", _EXEC),
    "exec.dispatch_overhead_s": ("s", "lower", _EXEC),
    "exec.recoveries": ("count", "lower", _EXEC),
    "trace.overhead_pct": ("%", "lower", "none: the cost of tracing itself"),
}

#: Sampled accuracy, printed by name on untraced sampled-ckpt runs (and
#: reported per layer as sampling.*); gated by the frozen expectations.
ACCURACY = {"cpi_error_pct": "%", "cpi_ci_pct": "%"}

UNITS = {**{name: spec[0] for name, spec in {**END_TO_END, **PER_LAYER}.items()},
         **ACCURACY}


def expectations_path(seed: int) -> Path:
    return HERE / "expected" / f"seed-{seed}.json"


def pinned_environment(pass_dir: Path) -> dict:
    """The child environment: no inherited ``REPRO_*`` knob, the pinned
    ones set, private stores, and the source tree on the import path."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "_REPRO_"))}
    env.update({
        "REPRO_JOBS": "1",
        "REPRO_CACHE": "1",
        "REPRO_CACHE_DIR": str(pass_dir / "cache"),
        "REPRO_CHECKPOINTS": "1",
        "REPRO_CHECKPOINT_DIR": str(pass_dir / "checkpoints"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
    })
    return env


def recorded_knobs(env: dict) -> dict:
    """The pinned knobs, with paths relative to the checkout."""
    root = str(ROOT) + os.sep
    return {key: value.replace(root, "") for key, value in sorted(env.items())
            if key.startswith("REPRO_") or key == "PYTHONHASHSEED"}


class Runner:
    """Starts passes in fresh interpreters under one work directory."""

    def __init__(self, workload: str, seed: int, size: str) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.run_id = uuid.uuid4().hex[:12]
        self.work = WORK / f"run-{self.run_id}"
        self.count = 0
        self.knobs: dict = {}

    def __enter__(self) -> "Runner":
        self.work.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    def start(self, mode: str) -> dict:
        self.count += 1
        pass_dir = self.work / f"pass-{self.count}"
        pass_dir.mkdir()
        env = pinned_environment(pass_dir)
        self.knobs = recorded_knobs(env)
        out = pass_dir / "result.json"
        spans = WORK / "traces" / f"{self.workload}.npz"
        if mode == "traced":
            spans.parent.mkdir(parents=True, exist_ok=True)
        request = {"workload": self.workload, "seed": self.seed,
                   "size": self.size, "mode": mode, "out": str(out),
                   "run_id": self.run_id, "spans_path": str(spans),
                   "spawned_at": time.monotonic()}
        try:
            completed = subprocess.run(
                [sys.executable, str(HERE / "passes.py"), json.dumps(request)],
                cwd=str(ROOT), env=env, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"pass exceeded {PASS_TIMEOUT_S} s"}
        try:
            if completed.returncode != 0 or not out.exists():
                return {"error": f"pass exited with code {completed.returncode}"}
            return json.loads(out.read_text())
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)


def git_state() -> dict:
    """Commit and dirty flag of the checkout, when it is a git work tree."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    if sha.returncode != 0:
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def check_cells(result: dict, expected: dict, failures: list) -> int:
    """Count the pass's cells that raised or differ from the expectations."""
    cells = expected["cells"]
    if "error" in result:
        failures.append(result["error"].strip().splitlines()[-1])
        print(result["error"], file=sys.stderr)
        return len(cells)
    bad = 0
    for key, want in cells.items():
        got = result["cells"].get(key)
        if got is None or got["digest"] != want["digest"]:
            failures.append(f"{key}: output differs from the expectation")
            bad += 1
    return bad


def accuracy(cells: dict, expected: dict) -> dict:
    """Sampled CPI error against the frozen full-detail reference, and the
    widest sampled confidence interval, over the workload's cells."""
    reference = expected.get("reference_cpi")
    if not reference:
        return {}
    errors = [abs(cells[key]["cpi"] - ref) / ref * 100.0
              for key, ref in reference.items() if key in cells]
    cis = [cell["relative_ci"] * 100.0 for cell in cells.values()
           if "relative_ci" in cell]
    return {"sampling.cpi_error_pct": max(errors), "sampling.cpi_ci_pct": max(cis)}


def refresh(workloads, seed: int, size: str, path: Path) -> int:
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update({"seed": seed, "held_out": seed in HELD_OUT_SEEDS, "size": size})
    for workload in workloads:
        with Runner(workload, seed, size) as runner:
            result = runner.start("pass")
            if "error" in result:
                print(result["error"], file=sys.stderr)
                return 1
            entry = {"cells": {key: {"digest": cell["digest"]}
                               for key, cell in result["cells"].items()}}
            if workload == "sampled-ckpt":
                entry["reference_cpi"] = runner.start("reference")["reference_cpi"]
        data.setdefault("workloads", {})[workload] = entry
        print(f"refreshed {workload} (seed {seed}, {size}): "
              f"{len(entry['cells'])} cells -> {path}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def at_reference_speed(seconds: float, cal_s: float) -> float:
    """Host seconds scaled to a host on which the calibration loop takes
    ``REFERENCE_CAL_S``."""
    return seconds * REFERENCE_CAL_S / cal_s


def setup_at_reference_speed(result: dict) -> float:
    """Set-up time scaled by the calibration timed at the first submitted
    job, right after set-up ends."""
    return at_reference_speed(result["setup_s"], result["cal_s"][0])


def typical_wall(passes) -> float:
    """A pass's wall time at reference host speed, with host noise
    filtered out.

    Every pass runs the same jobs in the same order.  The wall of a pass,
    less the calibration loops, is split into its dispatched jobs
    (simulations and checkpoint-generation shards) plus the rest (cache
    probes and writes, planning, merging).  Each job is scaled by the
    calibrations timed around it and the rest by the pass's median
    calibration, which takes out the host's drift over seconds to minutes;
    then each part takes its median over the passes, and the parts are
    summed, which takes out a slow spell that hits one pass only.
    """
    parts = []
    for p in passes:
        rest = p["wall_s"] - sum(p["job_s"]) - sum(p["cal_s"])
        parts.append([at_reference_speed(job, cal)
                      for job, cal in zip(p["job_s"], p["job_cal_s"], strict=True)]
                     + [at_reference_speed(rest, statistics.median(p["cal_s"]))])
    return sum(statistics.median(column) for column in zip(*parts, strict=True))


def measure(runner: Runner, seconds: float, trace: bool, expected: dict):
    """Run the passes and check their outputs.

    Returns ``(metrics, accuracy report, cells attempted, cells failed,
    run context)``.
    """
    failures: list = []
    attempted = failed = 0
    passes = []

    def one(mode):
        nonlocal attempted, failed
        result = runner.start(mode)
        attempted += len(expected["cells"])
        failed += check_cells(result, expected, failures)
        if "error" not in result:
            passes.append(result)
        return result

    setups = []

    def probe_setup():
        for _ in range(SETUP_PROBES):
            probe = runner.start("setup")
            if "setup_s" in probe:
                setups.append(setup_at_reference_speed(probe))

    if trace:
        plain, traced = one("pass"), one("traced")
        if "error" not in plain and "error" not in traced \
                and plain["cells"] != traced["cells"]:
            failures.append("traced outputs differ from untraced outputs")
            failed += len(expected["cells"])
    else:
        # Set-up starts are spread between the passes, so a slow spell of
        # the host does not fall on all of them.
        for _ in range(max(2, round(seconds / PASS_SECONDS))):
            probe_setup()
            if "error" in one("pass"):
                break
        probe_setup()

    metrics: dict = {}
    report: dict = {}
    if passes and trace and len(passes) == 2:
        plain, traced = passes
        layers = {**accuracy(plain["cells"], expected), **traced["layers"],
                  "trace.overhead_pct":
                  (traced["wall_s"] / plain["wall_s"] - 1.0) * 100.0}
        metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
    elif passes and not trace:
        setups += [setup_at_reference_speed(p) for p in passes]
        metrics = {
            "setup_s": statistics.median(setups),
            "uops_per_s": passes[0]["uops"] / typical_wall(passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        report = {name.split(".", 1)[1]: value for name, value
                  in accuracy(passes[0]["cells"], expected).items()}
    context = {
        "workload": runner.workload, "seed_arg": None, "workload_seed": runner.seed,
        "held_out_seed": runner.seed in HELD_OUT_SEEDS, "size": runner.size,
        "run_id": runner.run_id, "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cal_ms": [statistics.median(p["cal_s"]) * 1e3 for p in passes],
        "reference_cal_ms": REFERENCE_CAL_S * 1e3,
        "raw_uops_per_s": statistics.median(
            p["uops"] / (p["wall_s"] - sum(p["cal_s"])) for p in passes)
        if passes else None,
        "kernel": passes[0]["kernel"] if passes else None,
        "kernels_agree": len({json.dumps(p["kernel"]["name"]) for p in passes}) <= 1,
        "backend": sorted({p["backend"] for p in passes}) if passes else None,
        "git": git_state(), "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "knobs": runner.knobs,
        "spans": passes[-1]["layers"].get("trace.spans") if trace and passes else None,
        "failures": failures[:20],
    }
    return metrics, report, attempted, failed, context


def print_report(metrics: dict, report: dict, attempted: int, failed: int) -> None:
    rows = [(name, value, UNITS[name]) for name, value in metrics.items()]
    rows += [(name, value, UNITS[name]) for name, value in report.items()]
    rows.append(("fail_frac", failed / attempted if attempted else 1.0, "ratio"))
    for name, value, unit in rows:
        print(f"  {name:32s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--expected", type=Path, default=None,
                        help="expectations file (default: the shipped one "
                             "for the selected seed)")
    parser.add_argument("--refresh", action="store_true",
                        help="rewrite the expectations from the current code")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    seed = SEEDS[(args.seed - 1) % len(SEEDS)]
    path = args.expected or expectations_path(seed)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    # Build step: compile the sources once, so no pass pays for bytecode.
    import compileall

    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    if args.refresh:
        return refresh(workloads, seed, args.size, path)
    if len(workloads) != 1:
        parser.error("--workload all is only valid with --refresh")
    workload = workloads[0]
    try:
        expected = json.loads(path.read_text())["workloads"][workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: no expectations for {workload} in {path}: {exc}",
              file=sys.stderr)
        return 2

    with Runner(workload, seed, args.size) as runner:
        metrics, report, attempted, failed, context = measure(
            runner, args.seconds, bool(args.trace), expected)
    context["seed_arg"] = args.seed
    correct = failed == 0 and bool(metrics)

    print(f"perfbench {workload}: seed {args.seed} -> workload seed {seed}, "
          f"{context['passes']} passes, trace={args.trace}")
    print_report(metrics, report, attempted, failed)
    print("context: " + json.dumps(context, sort_keys=True))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metrics": metrics, "accuracy": report, "attempted": attempted,
                    "failed": failed, "context": context}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": UNITS[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
