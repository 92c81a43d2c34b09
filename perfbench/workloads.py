"""One benchmark workload in a fresh process: set-up, timed passes, checks.

run.py starts this script from the root of a checkout, with BLAS threads
pinned to 1 in the environment:

    python3 perfbench/workloads.py --workload NAME --seed N --workdir DIR --setup-only
    python3 perfbench/workloads.py --workload NAME --seed N --workdir DIR \\
        --seconds S --trace 0|1 --result PATH [--spans PATH]

Set-up imports mpbsim from ./src and builds the workload's configs and
bases from the seed; the program only ever sees those configs. A pass is
one whole round of the workload's operations. Passes repeat until
--seconds have elapsed (at least one), and the reported times are medians
over passes. --trace 1 runs traced passes and then one untraced pass, and
the tracing overhead is the difference of the two.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

from mpbsim import cli, harness, linalg, mpb, sigmodel, theory  # noqa: E402

import tracing  # noqa: E402

PROGRAM = {"sigmodel": sigmodel, "mpb": mpb, "linalg": linalg,
           "theory": theory, "harness": harness, "cli": cli}

# the exceptions the CLI maps to its numeric-failure exit code
NUMERIC_ERRORS = (linalg.LinAlgError, ValueError, ArithmeticError)

G_ROUNDING_DB = 1e-6     # G <= 0 dB up to rounding
SIM_THEORY_DB = 3.0      # the acceptance suite's sim-vs-theory allowance
LAMBDA_RTOL = 1e-8       # CSV numbers carry 9 significant digits
PATTERN_TOL_DB = 1e-6    # the two solves agree to ~1e-9 dB; CSV rounding 5e-8
PATTERN_FLOOR_DB = -40.0  # deeper nulls are too sensitive to compare

# (metric, span name, field, unit); spans absent from a workload read 0
LAYER_METRICS = (
    ("sigmodel.iter_blocks.self_s", "sigmodel.iter_blocks", "self_s", "s"),
    ("sigmodel.iter_blocks.symbols", "sigmodel.iter_blocks", "symbols", "count"),
    ("sigmodel.iter_blocks.bytes", "sigmodel.iter_blocks", "bytes", "bytes"),
    ("sigmodel.realize_paths.calls", "sigmodel.realize_paths", "calls", "count"),
    ("mpb.accumulate_cov_pair.self_s", "mpb.accumulate_cov_pair", "self_s", "s"),
    ("mpb.analytic_cov.calls", "mpb.analytic_cov", "calls", "count"),
    ("mpb.analytic_cov.self_s", "mpb.analytic_cov", "self_s", "s"),
    ("mpb.solve_weights.self_s", "mpb.solve_weights", "self_s", "s"),
    ("mpb.measure_g.self_s", "mpb.measure_g", "self_s", "s"),
    ("linalg.herm_eig.calls", "linalg.herm_eig", "calls", "count"),
    ("linalg.herm_eig.self_s", "linalg.herm_eig", "self_s", "s"),
    ("linalg.cholesky.calls", "linalg.cholesky", "calls", "count"),
    ("linalg.cholesky.self_s", "linalg.cholesky", "self_s", "s"),
    ("linalg.gen_eig_hpd.self_s", "linalg.gen_eig_hpd", "self_s", "s"),
    ("linalg.orthonormal_range.self_s", "linalg.orthonormal_range", "self_s", "s"),
    ("linalg.crawford.self_s", "linalg.crawford", "self_s", "s"),
    ("theory.mismatch_spectrum.self_s", "theory.mismatch_spectrum", "self_s", "s"),
    ("theory.noise_free_pair.self_s", "theory.noise_free_pair", "self_s", "s"),
    ("theory.g_lower_oracle.calls", "theory.g_lower_oracle", "calls", "count"),
    ("harness.run_sweep.self_s", "harness.run_sweep", "self_s", "s"),
    ("harness.write.self_s", "harness.write", "self_s", "s"),
    ("harness.write.bytes", "harness.write", "bytes", "bytes"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
)


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    symbols: int = 0            # Monte Carlo symbols simulated by sweeps
    sweep_s: float = 0.0        # time inside sweep calls
    closed_form_calls: int = 0  # analyze / eigen / pattern calls
    closed_form_s: float = 0.0  # time inside those calls
    wall_s: float = 0.0
    cpu_s: float = 0.0
    layers: dict | None = None  # tracer summary of this pass


def _seeded(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _config_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2 ** 31)


def _db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0.0 else -math.inf


def _op(tracer) -> None:
    if tracer is not None:
        tracer.next_op()


# -----------------------
# Independent checks
# -----------------------

def numpy_lambda_max(config, bases, snr_db: float) -> float:
    """Top eigenvalue of analytic_cov's (R_S, R_I), solved by numpy.linalg."""
    model = mpb.analytic_cov(harness.scenario_at(config, snr_db), bases)
    inv_low = np.linalg.inv(np.linalg.cholesky(model.r_i))
    c = inv_low @ model.r_s @ inv_low.conj().T
    return float(np.linalg.eigvalsh(0.5 * (c + c.conj().T))[-1])


def check_lambda(where: str, config, bases, snr_db: float, lam: float, errors):
    ref = numpy_lambda_max(config, bases, snr_db)
    if not abs(lam - ref) <= LAMBDA_RTOL * abs(ref):
        errors.append(f"{where}: lambda_max {lam!r} vs numpy {ref!r} at {snr_db} dB")


def region_of(snr_db: float, t1: float, t2: float) -> str:
    """The label operating_curve gives a grid point, from linear T1 and T2."""
    snr = 10.0 ** (snr_db / 10.0)
    return "Operating" if snr > t2 else "Failure" if snr < t1 else "Threshold"


def check_sweep_rows(where: str, config, bases, rows, t1: float, t2: float,
                     errors, match_theory: bool):
    """rows: (snr_db, g_sim_db, g_theory_db, lambda_max_exact, region).

    The region check is a consistency check: the sweep's label must match
    the thresholds from a separate entry point (analyze, or set-up).
    """
    for snr_db, g_sim, g_theory, lam, region in rows:
        if region == "Error":
            continue  # counted as a failed operation
        at = f"{where} @ {snr_db} dB"
        if not (g_sim <= G_ROUNDING_DB and g_theory <= G_ROUNDING_DB):
            errors.append(f"{at}: G not at or below 0 dB (sim {g_sim}, theory {g_theory})")
        if match_theory and region in ("Failure", "Operating") \
                and not abs(g_sim - g_theory) <= SIM_THEORY_DB:
            errors.append(f"{at}: {region} sim {g_sim:.2f} dB vs theory "
                          f"{g_theory:.2f} dB")
        expected = region_of(snr_db, t1, t2)
        if region != expected:
            errors.append(f"{at}: region {region}, thresholds say {expected}")
        check_lambda(at, config, bases, snr_db, lam, errors)


def check_thresholds(where: str, t1: float, t0: float, t2: float, errors):
    if not t1 <= t0 <= t2:
        errors.append(f"{where}: SNR_T1 {t1} <= SNR_T0 {t0} <= SNR_T2 {t2} fails")


def check_report(where: str, report: dict, errors):
    th = report["thresholds"]  # JSON spells infinities "inf"
    check_thresholds(where, float(th["snr_t1"]), float(th["snr_t0"]),
                     float(th["snr_t2"]), errors)
    geometric = report["geometric_bounded"]
    if geometric is not None and report["has_infinite"] != (geometric is False):
        errors.append(f"{where}: has_infinite {report['has_infinite']} but "
                      f"geometric_bounded {geometric}")


def numpy_pattern_db(config, scheme: str, snr_db: float, thetas) -> np.ndarray:
    """|w^H a(theta)| in dB below its peak, with w the top generalized
    eigenvector of analytic_cov's pair solved by numpy.linalg."""
    sc = harness.scenario_at(config, snr_db, stream=0)
    # the program's own choice of bases for each scheme in a pattern
    model = mpb.analytic_cov(sc, harness._bases_named(config, scheme))
    inv_low = np.linalg.inv(np.linalg.cholesky(model.r_i))
    c = inv_low @ model.r_s @ inv_low.conj().T
    w = inv_low.conj().T @ np.linalg.eigh(0.5 * (c + c.conj().T))[1][:, -1]
    idx = np.arange(sc.geometry.element_count)
    steer = np.exp(2j * np.pi * sc.geometry.spacing
                   * np.outer(np.sin(np.radians(thetas)), idx))
    mags = np.abs(steer @ w.conj())
    return 20.0 * np.log10(mags / mags.max())


def check_pattern(where: str, config, snr_db: float, rows, errors):
    """rows: (scheme, theta_deg, gain_db), checked against numpy_pattern_db."""
    for scheme in sorted({r[0] for r in rows}):
        thetas = [t for s, t, _ in rows if s == scheme]
        gains = np.array([g for s, _, g in rows if s == scheme])
        if not np.all(np.isfinite(gains)):
            errors.append(f"{where} {scheme}: pattern gain not finite")
            continue
        ref = numpy_pattern_db(config, scheme, snr_db, thetas)
        keep = ref > PATTERN_FLOOR_DB
        diff = float(np.max(np.abs(gains[keep] - ref[keep])))
        if not diff <= PATTERN_TOL_DB:
            errors.append(f"{where} {scheme}: pattern differs from numpy by "
                          f"{diff:.3g} dB at {snr_db} dB SNR")


def check_eigen_rows(where: str, config, bases, rows, errors):
    for snr_db, _, _, lam in rows:
        check_lambda(f"{where} eigen @ {snr_db} dB", config, bases, snr_db, lam, errors)


# -----------------------
# Workloads
# -----------------------

def fig4_thresholds(config, bases):
    """Threshold SNRs from the program's closed form, to place sweep points."""
    model = mpb.analytic_cov(harness.scenario_at(config, 0.0), bases)
    d = max(model.a_i_mat.shape[1], 1)
    gamma1 = float(theory.gamma_spectrum(model.q_s, model.q_i, d)[0])
    g_u = theory.g_upper(model.q_s, model.q_i, model.a0)
    return theory.thresholds(gamma1, model.beta, config.processing_gain,
                             config.element_count, g_u)


class McSweep:
    """harness.run_sweep at paper scale: the Monte Carlo sample path."""
    name = "mc-sweep"
    PRESETS = ("fig4a-bpsk3", "fig4b-pn2", "fig4c-tones5", "fig4d-mai3")
    SYMBOLS = 100_000
    ELEMENTS = 8
    MIN_SNR_DB = -20.0

    def __init__(self, seed: int, workdir: str):
        rng = _seeded(self.name, seed)
        self.items = []  # (config, bases, thresholds)
        for name in self.PRESETS:
            config = replace(harness.preset(name), seed=_config_seed(rng),
                             symbols=self.SYMBOLS, element_count=self.ELEMENTS)
            bases = harness.bases_for(config)
            th = fig4_thresholds(config, bases)
            grid = self._points(th, rng)
            self.items.append((replace(config, snr_grid_db=grid), bases, th))
        self.rows = [None] * len(self.items)

    def _points(self, th, rng) -> tuple:
        """One SNR point per region, kept 5 dB clear of T1 and T2 on the
        Failure and Operating side as the acceptance suite does."""
        t1, t2 = _db(th.snr_t1), _db(th.snr_t2)
        if not (math.isfinite(t1) and math.isfinite(t2)):
            # no threshold (one region only): one point anywhere on the grid
            return (round(rng.uniform(self.MIN_SNR_DB, 40.0), 3),)
        points = (max(self.MIN_SNR_DB, t1 - 5.0 - 10.0 * rng.random()),
                  t1 + (t2 - t1) * rng.uniform(0.2, 0.8),
                  t2 + 5.0 + 10.0 * rng.random())
        return tuple(sorted({round(max(self.MIN_SNR_DB, p), 3) for p in points}))

    def workers(self, traced: bool) -> int:
        return 1

    def run_pass(self, workers: int, tracer) -> PassResult:
        res = PassResult()
        for i, (config, _, _) in enumerate(self.items):
            n = len(config.snr_grid_db)
            _op(tracer)
            start = time.perf_counter()
            try:
                rows = harness.run_sweep(config, workers=workers)
            except NUMERIC_ERRORS:
                rows = []
            res.sweep_s += time.perf_counter() - start
            res.symbols += n * config.symbols
            res.attempted += n
            res.failed += n - len(rows) + sum(r.region == "Error" for r in rows)
            self.rows[i] = rows
        return res

    def check(self, workers: int) -> list:
        errors = []
        for (config, bases, th), rows in zip(self.items, self.rows):
            where = f"{self.name} seed {config.seed}"
            check_thresholds(where, th.snr_t1, th.snr_t0, th.snr_t2, errors)
            check_sweep_rows(where, config, bases,
                             [(r.snr_db, r.g_sim_db, r.g_theory_db,
                               r.lambda_max_exact, r.region) for r in rows],
                             th.snr_t1, th.snr_t2, errors, match_theory=True)
        return errors


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class QuickLook:
    """The interactive loop through cli.main for every preset."""
    name = "quick-look"
    SYMBOLS = sigmodel.BATCH  # one synthesis batch per sweep point

    def __init__(self, seed: int, workdir: str):
        rng = _seeded(self.name, seed)
        self.seed = seed
        self.workdir = workdir
        os.makedirs(os.path.join(workdir, "configs"), exist_ok=True)
        self.items = []  # (name, config path, config, bases, pattern SNR)
        for name in harness.preset_names():
            config = replace(harness.preset(name), seed=_config_seed(rng),
                             symbols=self.SYMBOLS)
            path = os.path.join(workdir, "configs", f"{name}.json")
            harness.save_config(config, path)
            self.items.append((name, path, config, harness.bases_for(config),
                               round(rng.uniform(0.0, 50.0), 3)))

    def workers(self, traced: bool) -> int:
        return 1 if traced else 2

    def _out(self, kind: str, name: str) -> str:
        return os.path.join(self.workdir, kind, name)

    def run_pass(self, workers: int, tracer) -> PassResult:
        res = PassResult()
        for name, path, config, _, snr_db in self.items:
            common = ["--config", path, "--out", self._out("out", name)]
            n = len(config.snr_grid_db)
            _op(tracer)
            start = time.perf_counter()
            rc = _quiet_cli(["sweep", *common, "--workers", str(workers)])
            res.sweep_s += time.perf_counter() - start
            res.symbols += n * config.symbols
            res.attempted += n
            if rc != 0:
                res.failed += n
            else:
                rows = _read_csv(os.path.join(self._out("out", name), "sweep.csv"))
                res.failed += sum(r["region"] == "Error" for r in rows)
            for argv in (["eigen", *common], ["analyze", *common],
                         ["pattern", *common, f"--snr-db={snr_db}"]):
                _op(tracer)
                start = time.perf_counter()
                rc = _quiet_cli(argv)
                res.closed_form_s += time.perf_counter() - start
                res.closed_form_calls += 1
                res.attempted += 1
                res.failed += rc != 0
        return res

    def check(self, workers: int) -> list:
        errors = []
        for name, _, config, bases, snr_db in self.items:
            where = f"{self.name} {name} seed {config.seed}"
            out = self._out("out", name)
            with open(os.path.join(out, "analysis.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            check_report(where, report, errors)
            rows = [(float(r["snr_db"]), float(r["g_sim_db"]),
                     float(r["g_theory_db"]), float(r["lambda_max_exact"]),
                     r["region"])
                    for r in _read_csv(os.path.join(out, "sweep.csv"))]
            # at a few thousand symbols the sim-vs-theory allowance is not a
            # property of the method, so only paper-scale K is held to it
            check_sweep_rows(where, config, bases, rows,
                             float(report["thresholds"]["snr_t1"]),
                             float(report["thresholds"]["snr_t2"]),
                             errors, match_theory=False)
            check_eigen_rows(where, config, bases,
                             [(float(r["snr_db"]), None, None,
                               float(r["lambda_max_exact"]))
                              for r in _read_csv(os.path.join(out, "eigen.csv"))],
                             errors)
            check_pattern(where, config, snr_db,
                          [(r["scheme"], float(r["theta_deg"]), float(r["gain_db"]))
                           for r in _read_csv(os.path.join(out, "pattern.csv"))],
                          errors)
        errors += self._check_worker_invariance(workers)
        return errors

    def _check_worker_invariance(self, workers: int) -> list:
        """Sweep CSVs must not depend on the worker count (README guarantee).

        Passes at 2 workers are compared with a 1-worker sweep of one preset
        that the seed picks (all five would double the run); passes at 1
        worker, as in the traced run, with 2-worker sweeps of every preset.
        """
        other = 1 if workers > 1 else 2
        items = self.items if other > 1 else [self.items[self.seed % len(self.items)]]
        errors = []
        for name, path, _, _, _ in items:
            ref = self._out("reference", name)
            rc = _quiet_cli(["sweep", "--config", path, "--out", ref,
                             "--workers", str(other)])
            with open(os.path.join(self._out("out", name), "sweep.csv"), "rb") as fh:
                got = fh.read()
            if rc != 0:
                errors.append(f"{self.name} {name}: reference sweep exited {rc}")
                continue
            with open(os.path.join(ref, "sweep.csv"), "rb") as fh:
                if fh.read() != got:
                    errors.append(f"{self.name} {name}: sweep.csv at {workers} "
                                  f"worker(s) differs from {other} worker(s)")
        return errors


WORKLOADS = {w.name: w for w in (McSweep, QuickLook)}


# -----------------------
# Measurement
# -----------------------

def run_passes(workload, seconds: float, workers: int, tracer=None) -> list:
    """Whole passes until `seconds` have elapsed; always at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        first = len(tracer.spans) if tracer is not None else 0
        t0, c0 = time.perf_counter(), os.times()
        res = workload.run_pass(workers, tracer)
        res.wall_s = time.perf_counter() - t0
        c1 = os.times()
        res.cpu_s = sum(c1[i] - c0[i] for i in range(4))  # self + reaped children
        if tracer is not None:
            res.layers = tracer.summarize(first, len(tracer.spans))
        passes.append(res)
    return passes


def mc_symbols_per_s(passes) -> float:
    return statistics.median([p.symbols / p.sweep_s for p in passes])


def closed_form_calls_per_s(passes) -> float:
    """0 on a workload without analyze / eigen / pattern calls."""
    return statistics.median([p.closed_form_calls / p.closed_form_s
                              if p.closed_form_calls else 0.0 for p in passes])


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped child.

    Not the tree's peak: with two pool workers alive at once only the larger
    counts, and a forked worker's copy-on-write pages count again. ru_maxrss
    is in KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def untraced_metrics(workload, seconds: float):
    workers = workload.workers(traced=False)
    passes = run_passes(workload, seconds, workers)
    metrics = {
        "wall_s": (statistics.median([p.wall_s for p in passes]), "s"),
        "cpu_s": (statistics.median([p.cpu_s for p in passes]), "s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
        "mc_symbols_per_s": (mc_symbols_per_s(passes), "1/s"),
    }
    info = {"workers": workers, "pass_wall_s": [p.wall_s for p in passes],
            "closed_form_calls_per_s": closed_form_calls_per_s(passes)}
    return passes, workers, metrics, info


def traced_metrics(workload, seconds: float, spans_path):
    workers = workload.workers(traced=True)
    tracer = tracing.Tracer()
    tracing.install(tracer, PROGRAM)
    try:
        traced = run_passes(workload, seconds, workers, tracer)
    finally:
        tracer.uninstall()
    # after the traced passes, so the process's warm-up lands on the traced
    # side and the overhead below errs high rather than low
    baseline = run_passes(workload, 0.0, workers)
    if spans_path:
        tracer.write(spans_path)

    def layer(span, field):
        return statistics.median([p.layers.get(span, {}).get(field, 0.0) for p in traced])

    metrics = {m: (layer(span, field), unit) for m, span, field, unit in LAYER_METRICS}
    for module in PROGRAM:  # busy time of each layer: self time of all its spans
        metrics[f"{module}.self_s"] = (statistics.median(
            [sum(v["self_s"] for k, v in p.layers.items()
                 if k.startswith(module + ".")) for p in traced]), "s")
    wall = statistics.median([p.wall_s for p in traced])
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - baseline[0].wall_s, "s"),
        "trace.spans": (statistics.median(
            [sum(v["calls"] for v in p.layers.values()) for p in traced]), "count"),
    })
    metrics["closed_form_calls_per_s"] = (closed_form_calls_per_s(baseline), "1/s")
    info = {"workers": workers, "untraced_wall_s": baseline[0].wall_s,
            "pass_wall_s": [p.wall_s for p in traced]}
    return traced + baseline, workers, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.setup_only:
        print(time.monotonic())
        return 0

    if args.trace:
        passes, workers, metrics, info = traced_metrics(workload, args.seconds,
                                                        args.spans)
    else:
        passes, workers, metrics, info = untraced_metrics(workload, args.seconds)
    errors = workload.check(workers)
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
