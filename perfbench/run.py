"""sfvem benchmark: one workload per invocation, or all of them.

    python3 perfbench/run.py --workload grid-compare --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run repeats the workload's pass (see workloads.py) while another pass
still fits in --seconds, always at least once, and checks every pass.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median pass
wall and CPU time, element builds per second, set-up time (median of
several fresh processes) and peak RSS.

--trace 1 runs one untraced pass, then traced passes in the remaining time,
with sfvem's layer entry points re-bound to timing wrappers (tracing.py). The
spans go to perfbench/out/<workload>-seed<seed>-spans.json and the
per-layer metrics are derived from that file.

Every line but the last is for people; the last is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Per-pass details, the
self-time table and the environment go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_sfvem() -> None:
    """Import sfvem from this checkout's src/, never from anywhere else."""
    if not os.path.isdir(os.path.join(SRC, "sfvem")):
        raise BenchError(f"no sfvem sources under {SRC}")
    sys.path.insert(0, SRC)
    import sfvem

    if os.path.dirname(os.path.abspath(sfvem.__file__)) != os.path.join(SRC, "sfvem"):
        raise BenchError(f"imported sfvem from {sfvem.__file__}, not from {SRC}")
    os.makedirs(OUT_ROOT, exist_ok=True)


sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def load_spec() -> dict:
    try:
        with open(BENCHMARK_JSON, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {BENCHMARK_JSON}: {exc}") from exc


# ---------------------------------------------------------------------------
# environment record


def _commit() -> str | None:
    if shutil.which("git") is None:
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(),
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# set-up: import, problem spec and audit polygons, in a fresh process


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# passes


class Workload:
    """Inputs of one workload and seed, and its timed program call."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        if name in wl.COMPARE:
            self.out_dir = os.path.join(OUT_ROOT, name)
            self.reference = wl.load_reference()
        else:
            self.polygons = wl.audit_polygons(seed)

    def program(self, counter):
        if self.name in wl.COMPARE:
            return wl.compare_program(self.name, self.seed, self.out_dir, counter)
        return wl.audit_program(self.polygons, counter)

    def check(self, raw, counts) -> wl.PassResult:
        if self.name in wl.COMPARE:
            return wl.check_compare_run(self.name, self.seed, self.out_dir, raw,
                                        counts, self.reference)
        return wl.check_audit(*raw)


def timed_pass(work: Workload, around=contextlib.nullcontext) -> dict:
    """One program call, timed (inside `around()`), then checked."""
    counter = wl.FallbackCounter()
    with around():
        w0, c0 = time.perf_counter(), time.process_time()
        raw = work.program(counter)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    result = work.check(raw, counter.counts)
    return {"wall_s": wall, "cpu_s": cpu, "attempted": result.attempted,
            "failed": result.failed, "problems": result.problems,
            "fallbacks": counter.counts, **result.extra}


def repeat(seconds: float, do_pass) -> list:
    """Passes while the next one (at the mean pass time) still fits."""
    first = time.perf_counter()
    passes = []
    while True:
        passes.append(do_pass(len(passes)))
        elapsed = time.perf_counter() - first
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def run_untraced(work: Workload, seconds: float) -> tuple:
    passes = repeat(seconds, lambda i: timed_pass(work))
    wall = statistics.median(p["wall_s"] for p in passes)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "cells_per_s": wl.cells_per_pass(work.name) / wall,
        "setup_s": measure_setup(work.name, work.seed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, passes, {}


def run_traced(work: Workload, seconds: float, env: dict) -> tuple:
    start = time.perf_counter()
    untraced = timed_pass(work)
    tracer = tracing.Tracer()
    counts_by_run = {}

    @contextlib.contextmanager
    def traced(i):
        with tracer.installed(), tracer.run_span(i):
            yield

    def traced_pass(i):
        p = timed_pass(work, lambda: traced(i))
        counts_by_run[i] = p["fallbacks"]
        return p

    passes = [untraced] + repeat(seconds - (time.perf_counter() - start), traced_pass)
    path = os.path.join(OUT_ROOT, f"{work.name}-seed{work.seed}-spans.json")
    tracer.write(path, {"workload": work.name, "seed": work.seed,
                        "untraced_wall_s": untraced["wall_s"], "environment": env})
    metrics, table = tracing.layer_metrics(path, counts_by_run, untraced["wall_s"])
    return metrics, passes, {"spans": os.path.relpath(path, ROOT), "self_times": table}


# ---------------------------------------------------------------------------
# reporting


def report(work: Workload, trace_on: bool, seconds: float, env: dict,
           spec: dict) -> dict:
    if trace_on:
        metrics, passes, extra = run_traced(work, seconds, env)
        declared = spec["per_layer"]
    else:
        metrics, passes, extra = run_untraced(work, seconds)
        declared = spec["end_to_end"]
    mismatch = {m["name"] for m in declared} ^ set(metrics)
    if mismatch:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    units = {m["name"]: m["unit"] for m in declared}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [q for p in passes for q in p["problems"]]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in (m["name"] for m in declared)},
    }
    details = {"workload": work.name, "seed": work.seed, "trace": int(trace_on),
               "seconds": seconds, "environment": env, "result": result,
               "passes": passes, **extra}
    path = os.path.join(OUT_ROOT, f"{work.name}-seed{work.seed}-trace{int(trace_on)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, default=float)

    print(f"workload {work.name} seed {work.seed}: {len(passes)} pass(es), "
          f"{attempted} ops, {failed} failed")
    print("environment " + json.dumps(env, sort_keys=True))
    for q in problems[:20]:
        print(f"problem: {q}")
    if trace_on:
        print(f"{'span':28s} {'calls':>9s} {'total s':>9s} {'self s':>9s}")
        for name, row in sorted(extra["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:28s} {row['calls']:9d} {row['total_s']:9.3f} {row['self_s']:9.3f}")
    for k, v in result["metrics"].items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    print(f"details: {os.path.relpath(path, ROOT)}")
    return result


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.workload == "all":
            return run_all(args)
        import_sfvem()
        env = environment()
        work = Workload(args.workload, args.seed)
        result = report(work, bool(args.trace), args.seconds, env, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
