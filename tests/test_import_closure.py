"""Exact import closure of a replay (a count, not a timing).

A fresh interpreter imports what ``benchmarks/e2e/rep.py`` imports, runs
a 2-minute §V-A replay, ``summarize``s it and breaks it down by
architecture, then lists the modules it loaded.  Every package resolves
its re-exports on first access (``repro._lazy_exports``) and the runtime
imports the tracer, the explain log and the chaos injector only when a
config turns them on, so a healthy untraced replay loads the scheduler,
cache, datastore, metrics and trace modules it runs and nothing else.
Importing costs set-up time in every benchmark child (each compiles its
imports when bytecode is not cached) and resident memory for the code
objects, so a module that comes back onto the path fails here by name,
and added code by its line count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: modules a healthy untraced replay never runs: the OpenFaaS front-end,
#: the NumPy CNN engine, observability, the fault machinery and the
#: unused halves of ``metrics``, ``sim`` and ``traces``
MUST_NOT_LOAD = {
    "repro.faas",
    "repro.faas.autoscaler",
    "repro.faas.container",
    "repro.faas.gateway",
    "repro.faas.interceptor",
    "repro.faas.spec",
    "repro.faas.watchdog",
    "repro.models.nn",
    "repro.models.nn.factory",
    "repro.models.nn.layers",
    "repro.models.nn.network",
    "repro.obs",
    "repro.obs.explain",
    "repro.obs.export",
    "repro.obs.tracer",
    "repro.chaos.health",
    "repro.chaos.injector",
    "repro.metrics.exposition",
    "repro.metrics.timeline",
    "repro.sim.resources",
    "repro.traces.datasets",
}
#: third-party modules the same replay never needs: the summaries take
#: their percentiles by partition, and ``np.percentile``'s ``np.unique``
#: imports ``numpy.ma`` (~9k lines, ~1.3 MB resident)
THIRD_PARTY_MUST_NOT_LOAD = {"numpy.ma"}

#: ``repro`` modules and their source lines at this commit; the commit
#: before the packages resolved their names lazily loaded all 61 modules
#: (10,415 lines) for the same replay, the commit before the deadline
#: and retry-budget knobs were retired loaded 7,786 lines, the commit
#: before the O3 limit became part of the policy name loaded 7,722, and
#: the commit before FIFO became an LRU whose hits never reorder 7,716;
#: the percentile helper that keeps ``numpy.ma`` out was paid for inside
#: the closure, so the count held at 7,708; the commit before the
#: metrics window kept only latency, queueing delay and architecture
#: loaded 7,708
ACHIEVED_MODULES = 40
ACHIEVED_LINES = 7_653

_REPLAY = """
import json, sys
from pathlib import Path
from repro.metrics import per_architecture_breakdown, summarize
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import SyntheticAzureTrace, WorkloadSpec, build_workload

spec = WorkloadSpec(working_set=15, minutes=2, seed=0)
workload = build_workload(spec, trace=SyntheticAzureTrace())
system = FaaSCluster(SystemConfig(policy="lalbo3", seed=0))
system.submit_workload(workload)
system.run()
summary = summarize(system.metrics, system.cluster, top_model=workload.top_model_id)
assert summary.completed_requests == len(workload)
assert per_architecture_breakdown(system.metrics)
loaded = {
    name: len(Path(module.__file__).read_text().splitlines())
    for name, module in sys.modules.items()
    if name == "repro" or name.startswith("repro.")
}
print(json.dumps([loaded, sorted(sys.modules)]))
"""


def _replay_closure() -> tuple[dict[str, int], set[str]]:
    """Source lines of each ``repro`` module the replay child loaded, and
    the names of every module it loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-c", _REPLAY], env=env, capture_output=True, text=True, check=True
    )
    loaded, modules = json.loads(done.stdout)
    return loaded, set(modules)


def test_a_replay_loads_only_what_it_runs():
    loaded, modules = _replay_closure()
    assert not MUST_NOT_LOAD & loaded.keys(), sorted(MUST_NOT_LOAD & loaded.keys())
    assert not THIRD_PARTY_MUST_NOT_LOAD & modules, sorted(THIRD_PARTY_MUST_NOT_LOAD & modules)
    lines = sum(loaded.values())
    assert len(loaded) <= ACHIEVED_MODULES, f"{len(loaded)} modules: {sorted(loaded)}"
    assert lines <= ACHIEVED_LINES, f"{lines} lines in {len(loaded)} modules"
