"""Run the benchmark over several seeds and keep every run's output.

    python3 perfbench/collect.py --out DIR [--seeds 0-9] [--workloads a,b]
                                 [--trace 0,1] [--seconds S]

Run from the root of a checkout. Each run's standard output is saved as
DIR/<workload>.trace<t>.seed<n>.out, and DIR/machine.json records the
machine. Runs are interleaved by seed, so slow drift of the machine spreads
over every workload instead of landing on one. Feed one or two such
directories to compare.py.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import subprocess
import sys

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BATCH_SYMBOLS = 4096  # sigmodel.BATCH
CHIPS = 31            # samples per symbol (Gold code length)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _l3_bytes():
    """L3 size from sysfs (sysconf reports 0 inside some VMs)."""
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        units = {"K": 1024, "M": 1024 ** 2}
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "l3_bytes": _l3_bytes(),
        # one complex128 synthesis batch of X(k) blocks, per array size
        "batch_bytes": {f"L={big_l}": BATCH_SYMBOLS * big_l * CHIPS * 16
                        for big_l in (8, 16)},
    }


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", default="0,1")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    facts = machine_facts()
    with open(os.path.join(args.out, "machine.json"), "w", encoding="utf-8") as fh:
        json.dump(facts, fh, indent=2)
    print(json.dumps(facts), flush=True)

    worst = 0
    for trace in (int(t) for t in args.trace.split(",")):
        for seed in _seeds(args.seeds):
            for workload in args.workloads.split(","):
                cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                path = os.path.join(args.out, f"{workload}.trace{trace}.seed{seed}.out")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(proc.stdout)
                last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
                print(f"{workload} trace={trace} seed={seed} exit={proc.returncode} "
                      f"{last[0][:300]}", flush=True)
                worst = max(worst, proc.returncode)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
