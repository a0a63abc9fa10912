"""ptdilate benchmark: end-to-end and per-module metrics on four workloads.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload panel --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` times iterations untraced for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes of
a fixed number of iterations and reports the per-module metrics.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, whose names and units come from the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) lists of the
repository's ``BENCHMARK.json``.  The line before it (``report: {...}``)
holds every metric of the workload plus the run metadata.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import types
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ".bench_work"  # scratch outputs, relative to ROOT

# One caller with small (2x2 and 4x4) matrices: BLAS threads add nothing
# but jitter, so every pool is pinned to one thread (<= nproc).
BLAS_THREADS = 1
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread caps)

from calibration import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = (
    "numkit", "ptmodel", "dilation", "pauli", "simulator", "pulse", "readout", "fitkit", "cli",
)
SETUP_REPEATS = 11
SETUP_REF_REPS = 5


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package or contract file)."""


def import_ptdilate() -> dict:
    """Fresh import of every ptdilate module from the checkout's ``src/``."""
    if not (SRC / "ptdilate" / "__init__.py").is_file():
        raise SetupError(f"no ptdilate package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ptdilate" or m.startswith("ptdilate.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"ptdilate.{name}") for name in MODULES}
    pkg_dir = Path(sys.modules["ptdilate"].__file__).resolve().parent
    if pkg_dir != SRC / "ptdilate":
        raise SetupError(f"ptdilate imported from {pkg_dir}, not {SRC}")
    return mods


def setup(cls, seed: int, workdir: str):
    """Import ptdilate and build the workload; returns (modules, workload, seconds)."""
    start = perf_counter()
    mods = import_ptdilate()
    pt = types.SimpleNamespace(**mods)
    workload = cls(pt, seed, workdir)
    return mods, workload, perf_counter() - start


def percentile_with_tail(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile and the number of samples strictly above it."""
    ordered = sorted(samples)
    value = ordered[max(0, math.ceil(len(ordered) * q) - 1)]
    return value, sum(1 for s in ordered if s > value)


class Runner:
    """Drives one workload, counting attempts and failed checks."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.outcomes: dict[int, object] = {}
        self.problems: list[str] = []

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)
            print(f"FAILED {self.w.name}: {msg}", file=sys.stderr)

    def step(self, i: int, layer: dict | None = None) -> tuple[float, bool]:
        """One timed iteration plus its check: (seconds, passed)."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = self.w.iteration(i)
            elapsed = perf_counter() - start
            outcome = self.w.evaluate(out)
        except Exception:  # a failed operation is counted, the loop goes on
            self.fail(f"iteration {i} raised:\n{traceback.format_exc()}")
            return perf_counter() - start, False
        if outcome.problems:
            self.fail(f"iteration {i}: " + "; ".join(outcome.problems))
        if layer is not None:
            for key, val in outcome.layer.items():
                layer[key] = layer.get(key, 0) + val
        self.outcomes[i] = outcome
        return elapsed, not outcome.problems

    def finish(self) -> None:
        problems = self.w.finish([self.outcomes[i] for i in sorted(self.outcomes)])
        if problems is not None:
            self.attempted += 1
            if problems:
                self.fail("; ".join(problems))


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced closed loop for ``seconds``; returns the end-to-end metrics.

    The calibration reference runs before the first iteration, after each
    one and on a timer during each one; an iteration's calibrated time
    scales its wall time by the mean of the reference times on either side
    of it and inside it (see ``calibration``).
    """
    w = runner.w
    samples: list[float] = []
    calibrated: list[float] = []
    with HostSpeed(w.ref_reps) as speed:
        i = 0
        start = perf_counter()
        while perf_counter() - start < seconds:
            for _ in range(w.block):
                speed.start()
                elapsed, ok = runner.step(i)
                factor = speed.factor()
                if ok:
                    samples.append(elapsed)
                    calibrated.append(elapsed * factor)
                i += 1
    runner.finish()
    metrics: dict[str, tuple[float, str]] = {}
    metrics["ref_s.p50"] = (statistics.median(speed.refs), "s")
    if samples:
        metrics["iter_cal_s.p50"] = (statistics.median(calibrated), "s")
        metrics["iter_s.p50"] = (statistics.median(samples), "s")
        p90, beyond = percentile_with_tail(samples, 0.9)
        if beyond >= 10:
            metrics["iter_s.p90"] = (p90, "s")
        metrics["iter_s.n"] = (len(samples), "count")
        passed = [o for o in runner.outcomes.values() if not o.problems]
        metrics.update(w.summary(passed, sum(samples)))
    return metrics


COUNT_SUFFIXES = (
    ".calls", ".matrices", ".points", ".nan_points", ".lab_steps", ".boundary_hits", ".bytes_written",
)


def trace(runner: Runner, mods: dict, seconds: float) -> dict:
    """Alternate untraced and traced passes of a fixed iteration count.

    After one warm-up pass, runs pass pairs until ``seconds`` have passed
    and at least two traced passes exist.  Count metrics must repeat
    exactly across traced passes; every value is the median over passes.
    """
    w = runner.w
    n = w.trace_iterations
    tracer = Tracer(mods)
    untraced: list[float] = []
    passes: list[dict] = []
    for i in range(n):  # fill caches and allocator pools before timing
        runner.step(i)
    start = perf_counter()
    while perf_counter() - start < seconds or len(passes) < 2:
        untraced.append(sum(runner.step(i)[0] for i in range(n)))
        tracer.reset()
        layer: dict = {}
        tracer.install()
        try:
            wall = sum(runner.step(i, layer)[0] for i in range(n))
        finally:
            tracer.uninstall()
        stats = tracer.snapshot()
        stats.update(layer)
        stats["trace.traced_s"] = wall
        passes.append(stats)
    runner.finish()

    counts = sorted({k for p in passes for k in p if k.endswith(COUNT_SUFFIXES)})
    runner.attempted += 1
    unstable = [k for k in counts if len({p.get(k, 0) for p in passes}) != 1]
    if unstable:
        runner.fail(f"count metrics differ between traced passes: {unstable}")

    keys = sorted({k for p in passes for k in p})
    metrics = {k: statistics.median(p.get(k, 0) for p in passes) for k in keys}
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    metrics["trace.passes"] = len(passes)
    metrics["trace.iterations_per_pass"] = n
    return metrics


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_frac", ".min")):
        return "ratio"
    if name.endswith(".bytes_written"):
        return "B"
    return "count"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ptdilate").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    return json.loads(path.read_text())


def run_workload(args) -> int:
    spec = contract()
    cls = WORKLOADS[args.workload]
    os.chdir(ROOT)  # CLI outputs under a relative path, so their bytes repeat
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.relpath(tempfile.mkdtemp(prefix=f"{cls.name}-", dir=WORK))
    try:
        setups, setups_cal = [], []
        with HostSpeed(SETUP_REF_REPS) as speed:
            for _ in range(SETUP_REPEATS):
                speed.start()
                mods, workload, took = setup(cls, args.seed, workdir)
                setups.append(took)
                setups_cal.append(took * speed.factor())
        runner = Runner(workload)
        if args.trace:
            traced = trace(runner, mods, args.seconds)
            # A module the workload never calls has zero counts and time.
            for m in spec["per_layer"]:
                traced.setdefault(m["name"], 0)
            metrics = {k: (v, unit_of(k)) for k, v in traced.items()}
            wanted = spec["per_layer"]
        else:
            metrics = measure(runner, args.seconds)
            metrics["setup_s"] = (statistics.median(setups_cal), "s")
            metrics["setup_wall_s"] = (statistics.median(setups), "s")
            metrics["setup_s.n"] = (len(setups), "count")
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it

    result = {}
    for m in wanted:
        if m["name"] not in metrics:
            if runner.failed:
                continue  # the failure is already counted; report what exists
            raise SetupError(f"{args.workload} produced no metric {m['name']!r}")
        result[m["name"]] = {"value": float(metrics[m["name"]][0]), "unit": m["unit"]}

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload:10s} {name:36s} {value:.6g} {unit}")
    report = {
        "metadata": metadata(args),
        "metrics": {k: v[0] for k, v in sorted(metrics.items())},
        "problems": runner.problems,
    }
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for key, val in last["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
