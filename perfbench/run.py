"""rstcnn benchmark: one workload per run, in one fresh process.

    python3 perfbench/run.py --workload conv --seed 0 --seconds 25 --trace 0

Imports rstcnn from the checkout's src/, measures set-up in fresh child
processes, then runs whole rounds of the workload's units through the public
API until the unit calls have taken --seconds seconds, checks every unit's
output, and prints the metrics.  The last stdout line is one JSON object:
correct, attempted, failed, metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 wraps rstcnn's public functions (see tracer.py) and
reports the per-layer ones.  Exit code 0 when every unit passed its check,
3 when any failed, 2 when rstcnn cannot be imported from src/ or its set-up
fails.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from tracer import ROUND_SPAN, SETUP_SPAN, STAT_UNITS, TARGETS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_ROUNDS = 2  # so each kind's median is over two samples at least
READY = "ready"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_workloads():
    """Import rstcnn from this checkout's src/ (never an installed copy), then the workloads."""
    sys.path.insert(0, str(SRC))
    try:
        import rstcnn
    except ImportError as e:
        fail(f"cannot import rstcnn from {SRC}: {e}")
    if Path(rstcnn.__file__).resolve().parent.parent != SRC:
        fail(f"rstcnn was imported from {rstcnn.__file__}, not from {SRC}")
    import workloads

    return workloads


def measure_setup(workload):
    """Wall times from spawning a fresh process to its set-up being done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-child"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            t1 = time.perf_counter()
            child.stdout.read()
        if line != READY or child.returncode != 0:
            fail(f"set-up child exited {child.returncode} before it was ready")
        samples.append(t1 - t0)
    return samples


def blas_threads():
    """OpenBLAS's own thread count, read from the library NumPy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            lib = next((ln.split()[-1] for ln in fh if "openblas" in ln), None)
    except OSError:
        return None
    if lib is None:
        return None
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(handle, sym, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_record():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(),
    }


class Runner:
    """Times unit calls and checks their outputs, counting attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unit_times = {}  # kind -> [seconds], untraced calls only
        self.inf_errors = 0

    def call(self, units, record=True):
        """Run each (kind, run, check) unit; returns (summed call time, outputs to check)."""
        total = 0.0
        outputs = []
        for kind, run, check in units:
            t0 = time.perf_counter()
            try:
                out, err = run(), None
            except Exception:
                out, err = None, traceback.format_exc()
            dt = time.perf_counter() - t0
            total += dt
            outputs.append((kind, out, err, check))
            if record:
                self.unit_times.setdefault(kind, []).append(dt)
        return total, outputs

    def check(self, outputs):
        for kind, out, err, check in outputs:
            self.attempted += 1
            if err is None:
                try:
                    failures, infs = check(out)
                    self.inf_errors += infs
                except Exception:
                    failures = [traceback.format_exc()]
            else:
                failures = [err]
            if failures:
                self.failed += 1
                print(f"perfbench: unit {self.attempted} ({kind}) failed: " + "; ".join(failures), file=sys.stderr)

    def units_per_s(self):
        # one unit of each kind per round; each kind's median time, summed
        return len(self.unit_times) / sum(statistics.median(t) for t in self.unit_times.values())


def _rounds(workloads, workload, seed):
    setup, units = workloads.WORKLOADS[workload]
    return setup, lambda index: list(units(workloads.unit_seed(seed, index)))


def run_untraced(workloads, workload, seed, seconds):
    """Set-up time from child processes, then whole rounds until --seconds of unit calls, two at least."""
    setup_samples = measure_setup(workload)
    setup, units_of_round = _rounds(workloads, workload, seed)
    setup()
    runner = Runner()
    measured = 0.0
    index = 0
    # whole rounds only, so every kind has as many samples as the others
    while index < MIN_ROUNDS or measured < seconds:
        for unit in units_of_round(index):
            spent, outputs = runner.call([unit])
            runner.check(outputs)
            measured += spent
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "units_per_s": {"value": runner.units_per_s(), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    samples = " ".join(f"{t:.3f}" for t in setup_samples)
    return runner, metrics, f"{index} rounds, {measured:.1f} s of unit calls; set-up samples {samples} s"


def run_traced(workloads, workload, seed, seconds):
    """Traced set-up, then pairs of untraced and traced rounds on the same seeds."""
    setup, units_of_round = _rounds(workloads, workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span(SETUP_SPAN):
            setup()
    finally:
        tracer.uninstall()
    runner = Runner()

    def one_round(index, traced):
        if not traced:
            spent, outputs = runner.call(units_of_round(index))
        else:
            tracer.install()
            try:
                with tracer.span(ROUND_SPAN):
                    spent, outputs = runner.call(units_of_round(index), record=False)
            finally:
                tracer.uninstall()
        runner.check(outputs)
        return spent

    overheads = []
    t0 = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - t0 < seconds:
        # alternate which side goes first, so warm-up does not favour one
        first_traced = index % 2 == 1
        spent = {traced: one_round(index, traced) for traced in (first_traced, not first_traced)}
        overheads.append(spent[True] - spent[False])
        index += 1
    totals = tracer.totals(n_rounds=index)
    metrics = {}
    for mod, fn, _counter, stats in TARGETS:
        for stat in stats:
            value = totals.get(f"{mod}.{fn}", {}).get(stat, 0.0)
            metrics[f"{mod}.{fn}.{stat}"] = {"value": value, "unit": STAT_UNITS[stat]}
    joint = totals.get("net.joint_conv", {})
    gflops = joint["flop"] / joint["self_s"] / 1e9 if joint.get("self_s") else 0.0
    metrics["net.joint_conv.gflop_per_s"] = {"value": gflops, "unit": "GFLOP/s"}
    lookups = totals.get("net.layer_bank", {}).get("calls", 0)
    misses = totals.get("bank.sample_filter_bank", {}).get("calls", 0)
    metrics["bank.hit_ratio"] = {"value": (lookups - misses) / lookups if lookups else 0.0, "unit": "ratio"}
    metrics["trace.overhead_s"] = {"value": statistics.mean(overheads), "unit": "s"}
    path = TRACE_DIR / f"trace-{workload}.jsonl"
    tracer.write_jsonl(path)
    return runner, metrics, f"{index} round pairs; spans in {path.relative_to(ROOT)}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("conv", "bounds"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    workloads = import_workloads()
    if args.setup_child:
        workloads.WORKLOADS[args.workload][0]()
        print(READY, flush=True)
        return 0

    run = run_traced if args.trace else run_untraced
    runner, metrics, note = run(workloads, args.workload, args.seed, args.seconds)
    print(f"workload {args.workload}, seed {args.seed}: {runner.attempted} units, {note}")
    for kind, times in runner.unit_times.items():
        print(f"  unit {kind}: median {statistics.median(times):.4f} s over {len(times)} untraced calls, "
              + " ".join(f"{t:.3f}" for t in times))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio = {runner.failed / runner.attempted:.6g} ({runner.failed}/{runner.attempted} units failed)")
    print(f"  inf equivariance errors over a zero reference slice (not failures): {runner.inf_errors}")
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if runner.failed == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
