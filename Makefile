# Convenience targets for the conf_ipps_ZhaoJH23 reproduction.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-check parity profile figures sweep trace

## Tier-1 verification: the full unit/property/benchmark suite.
test:
	python -m pytest -x -q

## Micro ledger: runs benchmarks/test_scheduler_overhead.py under
## pytest-benchmark (pass cost at queue depths 100/2k/20k + the index
## micro-benches), measures the flight recorder's on/off overhead on the
## 2k §V-A replay and the sweep orchestrator's grid scaling at 1/2/4
## workers (+ resume-from-store), and writes BENCH_scheduler.json
## (committed).  Replay-path performance — throughput, RSS, per-layer
## cost on the four §V workloads — is not measured here:
##   python benchmarks/e2e/run.py [--traced]      # BENCHMARK.json
bench:
	python -m repro.experiments bench

## Gate the committed micro ledger: fails when the 20k/2k pass-cost ratio
## exceeds 3x, the flight recorder costs > 5% over tracer-off, exports an
## invalid trace or changes a decision (docs/observability.md), the
## sharded sweep's merged payload drifts from the sequential one, resume
## of a completed sweep stops being served from the store in <1 s, or (on
## >=2-core machines) the 4-worker grid speedup drops below 1.5x.
bench-check:
	python -m repro.experiments bench-check

## Production vs the all-literal reference system: decisions + final KV
## state (quick hot-path sanity).
parity:
	python -m pytest tests/core/test_differential.py -q

## cProfile the 2k-request §V-A replay (materialize + inject + run, the
## window benchmarks/e2e times): the top-25 functions by cumulative time,
## then a per-subsystem rollup (commit path, dispatch, scheduling passes,
## global queue, cache manager, metrics, sim kernel) of exclusive time
## and calls per request — the tools that found every hot spot so far
## (index scans, batched txns, columnar replay, pass elision, commit-path
## residue, O3 skip-count upkeep on shallow and then on deep queues).  The
## total calls/request is exact run to run;
## tests/experiments/test_call_budget.py gates it on this shallow replay
## and on an over-capacity one whose global queue runs 6k deep
## (experiments.bench.profile_replay takes any WorkloadSpec).
##   make profile                          # 2k requests
##   make profile PROFILE_REQUESTS=20000   # deeper replay
PROFILE_REQUESTS ?= 2000
profile:
	python -m repro.experiments profile --profile-requests $(PROFILE_REQUESTS)

## Flight-recorder replay: run the 2k §V-A workload with tracing on and
## write a Perfetto-loadable trace.json plus the run's counters as
## Prometheus text, trace.prom (docs/observability.md).
##   make trace                            # 2k requests -> trace.json
##   make trace TRACE_REQUESTS=20000       # deeper replay
TRACE_REQUESTS ?= 2000
trace:
	python -m repro.experiments trace --requests $(TRACE_REQUESTS)

## Regenerate the paper's tables and figures through the sweep
## orchestrator (WORKERS processes).  Figures always re-execute unless a
## store is named explicitly on the command line (`make figures
## SWEEP_STORE=dir`): cell IDs hash config, not code, so resuming from a
## store left over from an older checkout would serve stale figures.
figures:
	python -m repro.experiments all --workers $(WORKERS) $(if $(filter command line,$(origin SWEEP_STORE)),--store $(SWEEP_STORE))

## Sharded §V sweep: expand the declarative policy x working-set grid and
## run it on a multiprocess worker pool (repro/experiments/sweep.py).
## Results persist under SWEEP_STORE (one JSON per cell, keyed by
## content-hash cell ID; see repro/experiments/store.py for the layout),
## so an interrupted sweep resumes with only the missing cells:
##   make sweep                           # 4 workers, store .sweep-results
##   make sweep WORKERS=8                 # wider pool
##   make sweep SWEEP_STORE=/tmp/cells    # elsewhere
##   make sweep FAULTS="none recoverable" # add the chaos axis (docs/robustness.md)
WORKERS ?= 4
SWEEP_STORE ?= .sweep-results
FAULTS ?=
sweep:
	python -m repro.experiments sweep --workers $(WORKERS) --store $(SWEEP_STORE) --resume $(if $(FAULTS),--fault-profiles $(FAULTS))
