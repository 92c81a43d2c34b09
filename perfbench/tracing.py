"""Span recorder that wraps the program's public functions from outside.

Installing a :class:`Tracer` replaces chosen module attributes with
wrappers that record one span per call: name, start, end, parent span and
the id of the benchmark operation that was running. The program's modules
call each other through module attributes (``la.herm_eig``,
``sm.iter_blocks``, ...), so a patched attribute also sees the calls the
program makes internally. Spans stay in memory until :meth:`Tracer.write`.

Generator functions (``sigmodel.iter_blocks``) get one span per ``next()``:
creating the generator runs none of its body, so that is not timed. Self
time is a span's duration minus the durations of its direct children;
spans nest strictly because traced runs are single-threaded.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

# span record fields
NAME, START, END, PARENT, OP, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._patched = []
        self._t0 = time.perf_counter()

    # -- recording --------------------------------------------------------

    def next_op(self) -> int:
        """Start a new benchmark operation; later spans carry its id."""
        self.op += 1
        return self.op

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    # -- installing wrappers ---------------------------------------------

    def wrap(self, module, attr: str, name: str, extra=None) -> None:
        """Time every call of module.attr; extra(args, kwargs) -> dict of counts."""
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if extra is not None:
                self.spans[idx][EXTRA] = extra(args, kwargs)
            return result

        self._patch(module, attr, orig, traced)

    def wrap_generator(self, module, attr: str, name: str, extra) -> None:
        """Time each next() of the generators module.attr returns."""
        orig = getattr(module, attr)

        def steps(gen):
            try:
                while True:
                    idx = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.spans[idx][EXTRA] = extra(item)
                    yield item
            finally:
                gen.close()

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            return steps(orig(*args, **kwargs))

        self._patch(module, attr, orig, traced)

    def _patch(self, module, attr, orig, traced) -> None:
        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    # -- reading ----------------------------------------------------------

    def summarize(self, first: int, last: int) -> dict:
        """Per-name calls, total time, self time and summed counts of spans[first:last]."""
        child = defaultdict(float)
        for rec in self.spans[first:last]:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out = {}
        for idx in range(first, last):
            rec = self.spans[idx]
            dur = rec[END] - rec[START]
            agg = out.setdefault(rec[NAME], defaultdict(float))
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child.get(idx, 0.0)
            for key, value in (rec[EXTRA] or {}).items():
                agg[key] += value
        return out

    def write(self, path) -> None:
        """One CSV line per span; times in seconds from tracer creation."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,op,parent,name,start_s,end_s,extra\n")
            for idx, rec in enumerate(self.spans):
                extra = ";".join(f"{k}={v}" for k, v in (rec[EXTRA] or {}).items())
                fh.write(f"{idx},{rec[OP]},{rec[PARENT]},{rec[NAME]},"
                         f"{rec[START] - self._t0:.9f},{rec[END] - self._t0:.9f},"
                         f"{extra}\n")


def _file_bytes(path_arg_index: int):
    def extra(args, kwargs):
        path = args[path_arg_index] if len(args) > path_arg_index else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return extra


def _block_counts(item):
    _, x = item
    return {"symbols": x.shape[0], "bytes": x.nbytes}


def install(tracer: Tracer, program) -> None:
    """Wrap the layer boundaries of the mpbsim package (a dict of its modules)."""
    sm, mpb, la = program["sigmodel"], program["mpb"], program["linalg"]
    theory, harness, cli = program["theory"], program["harness"], program["cli"]

    tracer.wrap_generator(sm, "iter_blocks", "sigmodel.iter_blocks", _block_counts)
    tracer.wrap(sm, "realize_paths", "sigmodel.realize_paths")
    for attr in ("accumulate_cov_pair", "analytic_cov", "solve_weights",
                 "measure_g", "array_pattern", "papc_bases", "maximin_bases"):
        tracer.wrap(mpb, attr, f"mpb.{attr}")
    for attr in ("herm_eig", "cholesky", "solve_hpd", "gen_eig_hpd",
                 "orthonormal_range", "null_space", "gen_eig_homogeneous",
                 "crawford"):
        tracer.wrap(la, attr, f"linalg.{attr}")
    for attr in ("gamma_spectrum", "mismatch_spectrum", "g_upper", "thresholds",
                 "operating_curve", "g_lower_oracle", "noise_free_pair"):
        tracer.wrap(theory, attr, f"theory.{attr}")
    for attr in ("scenario_at", "bases_for", "run_sweep", "run_pattern",
                 "run_eigencurves", "analyze"):
        tracer.wrap(harness, attr, f"harness.{attr}")
    # every CSV goes through _write_lines (write_sweep_csv included); the
    # JSON report through write_analysis
    tracer.wrap(harness, "_write_lines", "harness.write", _file_bytes(0))
    tracer.wrap(harness, "write_analysis", "harness.write", _file_bytes(1))
    tracer.wrap(cli, "main", "cli.main")
