"""Run one entwitness benchmark workload and print its metrics.

    python3 bench/run.py --workload full_witness --seed 1 --seconds 25 --trace 0

Run from the repository root or any copy of it that holds `src/`. The package
is imported from that `src/`, never from an installed copy; without it the
run exits with code 2 before measuring anything. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`). See bench/README.md.
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
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

#: Fresh interpreters timed from start until the package is imported and warm:
#: SETUP_RUNS before the first pass, then one after each pass up to SETUP_MAX,
#: so that the samples spread over the run rather than one moment of it.
SETUP_RUNS = 3
SETUP_MAX = 11
SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from entwitness import cli, data, nn, quantum, witness
ds = data.generate(256, seed=0)
nn.forward(nn.model_new("nonlinear_full", 0), ds.features)
print("ready", flush=True)
"""

#: Timed passes of each kind (untraced, traced) a run makes at the least.
MIN_PASSES = 3


def cap_threads(nproc: int) -> None:
    """Keep inherited thread settings, but never above the cores available."""
    for var in THREAD_VARS:
        value = os.environ.get(var)
        if value and value.isdigit() and int(value) > nproc:
            os.environ[var] = str(nproc)


def measure_setup(runs: int = 1) -> list[float]:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC)],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        with child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up interpreter exited with {code} before it was ready")
        times.append(elapsed)
    return times


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a git repository."""
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


def environment(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {**blas, "threads": threads},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc,
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def run_pass(workload, seed: int, sizes, traced: bool, log):
    """One pass: execute under the tracer and time it, then verify untimed."""
    import metrics
    import workloads
    from tracer import Tracer

    execute, verify = workload
    ops = workloads.Ops()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    result = metrics.Pass(traced=traced, wall=None, spans=[])
    try:
        with Tracer(workloads.TRACED if traced else workloads.OBSERVED) as tracer:
            tracer.begin(seed)
            result.spans = tracer.spans
            start = time.perf_counter()
            state = execute(ops, seed, sizes, workdir, tracer.spans)
            wall = time.perf_counter() - start
        result.quality = verify(ops, state, result.spans, sizes)
        result.wall = wall
    except Exception:  # a failed operation ends the pass; the run goes on
        traceback.print_exc(file=log)
        ops.failures.append("pass raised")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
        # Keep the numbers only, so memory does not grow with the pass count.
        for span in result.spans:
            span.info = {k: v for k, v in span.info.items() if isinstance(v, (int, float))}
    for name in ops.failures:
        print(f"check failed: {name} (pass seed {seed})", file=log)
    return result, ops.attempted, len(ops.failures)


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes=None,
    warmup=None,
    log=sys.stderr,
    between=None,
):
    """Warm up, then run passes until `seconds` have gone and each kind has MIN_PASSES.

    `between`, when given, is called after every pass, outside its timing.
    """
    import workloads

    workload = workloads.WORKLOADS[name]
    sizes = sizes or workloads.FULL
    attempted = failed = 0
    passes = []
    if warmup is not None:
        _, a, f = run_pass(workload, workloads.sub_seed(seed, 0), warmup, False, log)
        attempted, failed = attempted + a, failed + f
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    index = 1
    while True:
        traced = kinds[(index - 1) % len(kinds)]
        result, a, f = run_pass(workload, workloads.sub_seed(seed, index), sizes, traced, log)
        passes.append(result)
        attempted, failed = attempted + a, failed + f
        if between is not None:
            between()
        index += 1
        enough = all(sum(p.traced == k for p in passes) >= MIN_PASSES for k in kinds)
        if enough and time.perf_counter() - start >= seconds:
            return passes, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("full_witness", "linear_sweep", "cli_corpus")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "entwitness" / "__init__.py").is_file():
        print(f"error: no entwitness package under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    setup_times = measure_setup(SETUP_RUNS)

    sys.path.insert(0, str(SRC))
    import entwitness

    if Path(entwitness.__file__).resolve().parent != SRC / "entwitness":
        print(f"error: entwitness imported from {entwitness.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import metrics
    import workloads

    def sample_setup() -> None:
        if len(setup_times) < SETUP_MAX:
            setup_times.extend(measure_setup())

    env = environment(nproc)
    passes, attempted, failed = run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        warmup=workloads.FULL,
        between=sample_setup,
    )
    if not metrics.completed(passes, traced=bool(args.trace)):
        print("error: no pass completed", file=sys.stderr)
        return 1

    if args.trace:
        values = metrics.per_layer(passes)
        kept = metrics.completed(passes, traced=True)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = metrics.end_to_end(passes, setup_times, peak_mb, attempted, failed)
        kept = metrics.completed(passes, traced=False)

    quartiles = [round(q, 4) for q in statistics.quantiles([p.wall for p in kept], n=4)]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"passes {len(kept)}  wall_s quartiles {quartiles}")
    print(f"setup runs {len(setup_times)}  attempted {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.6g}")
    for name, (value, unit) in values.items():
        print(f"  {name:30s} {value:>14.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
