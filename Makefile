PYTHON ?= python

.PHONY: test test-fast equivalence bench bench-serving bench-storage \
	bench-obs bench-analytics bench-scenarios bench-pairs trace docs-check

## Tier-1: the full suite (unit tests + paper benchmarks), as CI runs it.
test:
	$(PYTHON) -m pytest -x -q

## Unit tests only (seconds, not minutes).
test-fast:
	$(PYTHON) -m pytest -q tests/

## Prove the vectorized propagation + encoder engines match their reference
## engines (byte-equal mailboxes), plus the hypothesis property suites and the
## bit-equality gates of the analytics views (incremental folds vs recompute
## oracles) and of the event store / graph view.  CI runs this target, so the
## file list lives here only.
equivalence:
	$(PYTHON) -m pytest -q tests/core/test_propagation_equivalence.py \
		tests/core/test_encoder_equivalence.py tests/property/ \
		tests/analytics/test_property_oracle.py tests/storage/test_equivalence.py

## Every bench-* target below writes its records (BENCH_*.json, view_fold.json,
## TRACE_serving.json) under the ignored benchmarks/out/.
##
## Measure both engine pairs (propagation and encoder) on the 10k-event
## synthetic stream and write BENCH_propagation.json / BENCH_encoder.json;
## also assert that adjacency fold + sample_many per 200-event batch stays
## flat from a 30k- to a 300k-event hub stream (<= FOLD_BENCH_RATIO_CEILING,
## 2x; record in view_fold.json).
bench:
	$(PYTHON) -m pytest -q benchmarks/test_propagation_throughput.py \
		benchmarks/test_encoder_throughput.py -s

## Figure 2, measured: serve a sustained-rate stream with APAN on the
## worker pool, APAN inline and TGN inline; write BENCH_serving.json and
## assert the p50 ordering (worker-pool < APAN inline < TGN inline) and the
## worker-pool p99 < APAN inline p99 floor.
## SERVING_BENCH_EVENTS=100000 scales the stream for a local soak.
bench-serving:
	$(PYTHON) -m pytest -q benchmarks/test_serving_throughput.py -s

## Build a 1M-node / 10M-event stream through the mmap-backed EventStore,
## measure append/slice/query throughput and peak RSS in a fresh subprocess,
## write BENCH_storage.json and assert the RSS ceiling.
## STORAGE_BENCH_EVENTS / STORAGE_BENCH_NODES / STORAGE_BENCH_RSS_MB scale it.
bench-storage:
	$(PYTHON) -m pytest -q benchmarks/test_storage_scale.py -s

## Measure telemetry overhead (instrumented vs. null-sink serving walls,
## min paired ratio over OBS_BENCH_REPS reps); write BENCH_obs.json and
## TRACE_serving.json and assert overhead < OBS_BENCH_MAX_OVERHEAD_PCT (5%).
bench-obs:
	$(PYTHON) -m pytest -q benchmarks/test_obs_overhead.py -s

## Fold a constant-rate stream through the analytics views at 1x and 10x
## length, write BENCH_analytics.json and assert the per-event maintenance
## cost stays flat (O(1) per event, <= ANALYTICS_BENCH_RATIO_CEILING, 2x).
## ANALYTICS_BENCH_EVENTS / ANALYTICS_BENCH_SCALE scale the workload.
bench-analytics:
	$(PYTHON) -m pytest -q benchmarks/test_analytics_throughput.py -s

## Serve APAN vs the JODIE/TGN baselines over every hostile scenario
## (bursty / hubs / drift / late), inline with measured decision latency,
## under a fold-late watermark policy; write BENCH_scenarios.json and assert the matrix has
## no missing cells.  SCENARIO_BENCH_EVENTS scales the streams;
## SCENARIO_BENCH_CACHE=<dir> caches per-cell results across re-runs.
bench-scenarios:
	$(PYTHON) -m pytest -q benchmarks/test_scenario_matrix.py -s

## Alternating parent/change pairs of one `python -m bench` workload — the
## procedure a perf claim is accepted by: prints both sides' medians and
## quartiles and the pairs won.  PARENT is a second checkout of the parent
## commit (git clone, outside this tree), e.g.
##   make bench-pairs PARENT=/root/scratch/parent WORKLOAD=steady_async PAIRS=10
WORKLOAD ?= steady_async
PAIRS ?= 10
bench-pairs:
	tools/bench_pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED)

## Run a telemetry-enabled serving workload and export trace.json — open it
## in chrome://tracing or https://ui.perfetto.dev to see every pipeline span.
trace:
	PYTHONPATH=src $(PYTHON) examples/trace_serving.py

## Verify every file path referenced by README.md / docs/ resolves.
docs-check:
	$(PYTHON) -m pytest -q tests/test_docs_links.py
