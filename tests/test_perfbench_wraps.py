"""The benchmark's tracer can still wrap every name it wraps in the program.

perfbench/tracing.py wraps program functions by name (accumulate_cov_pair,
realize_paths, iter_blocks, linalg.null_space, ...). A renamed or deleted
name would only crash the benchmark's traced run; this test makes it fail
the suite instead. The tracer is read from perfbench as it is and not
changed here. Some wrapped names have no caller in src/ (linalg.null_space
is one): such a name can only be deleted together with a declared change
to the benchmark that stops wrapping it.
"""

import importlib.util
from pathlib import Path

from mpbsim import cli, harness, linalg, mpb, sigmodel, theory

PROGRAM = {"sigmodel": sigmodel, "mpb": mpb, "linalg": linalg,
           "theory": theory, "harness": harness, "cli": cli}


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_the_program_and_uninstalls():
    tracing = _tracing()
    before = {name: dict(vars(module)) for name, module in PROGRAM.items()}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, PROGRAM)
        wrapped = {(name, attr) for name, module in PROGRAM.items()
                   for attr, value in vars(module).items()
                   if value is not before[name].get(attr)}
        for name, attr in wrapped:
            assert getattr(PROGRAM[name], attr).__wrapped__ is before[name][attr]
        assert {("sigmodel", "iter_blocks"), ("sigmodel", "realize_paths"),
                ("mpb", "accumulate_cov_pair"), ("linalg", "null_space"),
                ("cli", "main")} <= wrapped
    finally:
        tracer.uninstall()
    for name, module in PROGRAM.items():
        assert vars(module) == before[name], name
