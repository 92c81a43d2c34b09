"""Each benchmark workload still runs on the program and passes its checks.

perfbench/workloads.py drives the program through the names and options
it uses (run_sweep, scenario_at, cli.main's sweep/eigen/analyze/pattern),
and checks every result against independent numpy solves. One pass of
each workload and its check() run here, in a temporary directory, so a
change that breaks the benchmark fails the suite: quick-look at seed 1,
and mc-sweep at seeds 0-19. The workloads are read from perfbench as
they are and not changed here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its class's module up in sys.modules
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # workloads.py adds ./src
    _load(monkeypatch, "tracing", "tracing.py")  # workloads.py imports it by name
    return _load(monkeypatch, "perfbench_workloads", "workloads.py")


# mc-sweep is cheap per seed, and a fault on the sample path may show at
# one seed only
@pytest.mark.parametrize("name, seed", [("quick-look", 1)]
                         + [("mc-sweep", seed) for seed in range(20)])
def test_workload_pass_runs_and_checks(workloads, name, seed, tmp_path):
    workload = workloads.WORKLOADS[name](seed, str(tmp_path))
    workers = workload.workers(traced=False)
    result = workload.run_pass(workers, None)
    assert result.attempted > 0
    assert result.failed == 0
    assert workload.check(workers) == []
