# Convenience targets for the conf_ipps_ZhaoJH23 reproduction.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test parity golden profile figures sweep trace

## Tier-1 verification: the full unit/property/benchmark suite.
## Replay-path performance (throughput, RSS, per-layer cost on the four
## §V workloads) is measured separately:
##   python benchmarks/e2e/run.py [--traced]      # BENCHMARK.json
test:
	python -m pytest -x -q

## Production vs the all-literal reference system: decisions + final KV
## state (quick hot-path sanity).
parity:
	python -m pytest tests/core/test_differential.py -q

## Regenerate the golden decision ledger, tests/golden/decisions.json:
## per cell (policy x working set x fault profile x quota, 6-minute §V-A
## replays) the decision log's SHA-256 and hash chain, the final KV
## image's SHA-256 and the run summary.  tests/golden checks every cell
## against it; regenerate only for a change that moves decisions on
## purpose, and let the diff show which cells moved.
golden:
	python tests/golden/test_decisions.py

## cProfile the 2k-request §V-A replay (materialize + inject + run, the
## window benchmarks/e2e times): the top-25 functions by cumulative time,
## then a per-subsystem rollup (commit path, dispatch, scheduling passes,
## global queue, cache manager, metrics, sim kernel) of exclusive time
## and calls per request — the tools that found every hot spot so far
## (index scans, batched txns, columnar replay, pass elision, commit-path
## residue, O3 skip-count upkeep on shallow and then on deep queues).  The
## total calls/request is exact run to run;
## tests/experiments/test_call_budget.py gates it on this shallow replay,
## on an over-capacity one whose global queue runs 6k deep and on a
## streaming one past its caps (experiments.profile.profile_replay takes
## any Workload or StreamingWorkload plus a SystemConfig); CI runs this
## target with PYTHONHASHSEED=0 right before that gate.
##   make profile                          # 2k requests
##   make profile PROFILE_REQUESTS=20000   # deeper replay
PROFILE_REQUESTS ?= 2000
profile:
	python -m repro.experiments profile --requests $(PROFILE_REQUESTS)

## Flight-recorder replay: run the 2k §V-A workload with tracing on and
## write a Perfetto-loadable trace.json plus the run's counters as
## Prometheus text, trace.prom (docs/observability.md).
##   make trace                            # 2k requests -> trace.json
##   make trace TRACE_REQUESTS=20000       # deeper replay
TRACE_REQUESTS ?= 2000
trace:
	python -m repro.experiments trace --requests $(TRACE_REQUESTS)

## Regenerate the paper's tables and figures through the sweep
## orchestrator (WORKERS processes).  The whole grid takes a few seconds,
## so figures re-execute unless a store is named explicitly on the
## command line (`make figures SWEEP_STORE=dir`); a store written by
## other sources is refused (its code fingerprint), never served.
figures:
	python -m repro.experiments all --workers $(WORKERS) $(if $(filter command line,$(origin SWEEP_STORE)),--store $(SWEEP_STORE))

## §V sweep: expand the declarative policy x working-set grid and run it
## on a process pool (repro/experiments/sweep.py).  Results persist under
## SWEEP_STORE as they land (one JSON per cell, keyed by content-hash cell
## ID; see repro/experiments/store.py for the layout).  Nothing is
## retried: an interrupted or failed sweep (its error names the
## unfinished cells) is re-run with the same command, which executes
## only the cells the store is missing:
##   make sweep                           # 4 workers, store .sweep-results
##   make sweep WORKERS=8                 # wider pool
##   make sweep SWEEP_STORE=/tmp/cells    # elsewhere
##   make sweep FAULTS="none recoverable" # add the chaos axis (docs/robustness.md)
WORKERS ?= 4
SWEEP_STORE ?= .sweep-results
FAULTS ?=
sweep:
	python -m repro.experiments sweep --workers $(WORKERS) --store $(SWEEP_STORE) --resume $(if $(FAULTS),--fault-profiles $(FAULTS))
