"""mpbsim benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports mpbsim from ./src, so no
install step is needed. Every workload runs in fresh processes with BLAS
threads pinned to 1, so that `--workers 2` does not oversubscribe two
cores. With --trace 0 the last line of standard output is a JSON object
holding the end-to-end metrics; the line before it records the settings.
With --trace 1 the object holds the per-layer metrics of a traced run,
whose spans are written to .perfbench-out/spans/. The exit code is 0 only
when every correctness check passed.
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

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mc-sweep", "quick-look")
SETUP_PROBES = 24
RUN_LIMIT_S = 170.0  # each run must end within 180 s
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def child_env(root: str) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mpbsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mpbsim", "__init__.py")):
        print("run from the root of an mpbsim checkout: src/mpbsim not found",
              file=sys.stderr)
        return 2

    out = os.path.join(root, ".perfbench-out")
    work = os.path.join(out, "tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    env = child_env(root)
    script = [sys.executable, os.path.join(BENCH_DIR, "workloads.py"),
              "--workload", args.workload, "--seed", str(args.seed)]

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    def probe_setup(count: int) -> None:
        # set-up = fresh interpreter + import mpbsim + configs and bases.
        # The child prints time.monotonic() when set-up is done (one clock
        # for all processes), so neither its exit nor the polling wait
        # behind timeout= is timed.
        for _ in range(count):
            t0 = time.monotonic()
            proc = subprocess.run(
                script + ["--workdir", os.path.join(work, f"probe{len(setup)}"),
                          "--setup-only"],
                env=env, check=True, timeout=remaining(),
                stdout=subprocess.PIPE, text=True)
            setup.append(float(proc.stdout.split()[-1]) - t0)

    setup = []
    try:
        # half of the set-up probes before the passes and half after, so
        # that the median spans the run rather than one moment of it
        if not args.trace:
            probe_setup(SETUP_PROBES // 2)
        result_path = os.path.join(work, "result.json")
        spans = os.path.join(out, "spans", f"{args.workload}-seed{args.seed}.csv")
        proc = subprocess.run(
            script + ["--workdir", os.path.join(work, "main"),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--result", result_path, "--spans", spans],
            env=env, timeout=remaining())
        if proc.returncode not in (0, 1) or not os.path.isfile(result_path):
            print(f"workload process exited {proc.returncode}", file=sys.stderr)
            return 2
        if not args.trace:
            probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return 2
    except subprocess.CalledProcessError as exc:
        print(f"set-up process exited {exc.returncode}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if setup:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                   **metrics}
    settings = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "python": platform.python_version(), **THREAD_ENV,
                **result["info"]}
    print(json.dumps({"settings": settings}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
