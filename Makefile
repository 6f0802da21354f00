.PHONY: all build test smoke chaos-smoke fleet-smoke parallel-smoke obs-smoke calibrate-smoke perfbench-check scaling-gate incremental-gate obs-gate bench-json bench-txt check clean

all: build

build:
	dune build

test:
	dune runtest

# End-to-end smoke of the analysis daemon: start a server on a private
# socket, issue one analyze request against c17, assert a well-formed
# response, and shut the server down.
smoke: build
	./scripts/smoke_server.sh

# Fault-injection smoke: run the daemon under an armed fault plan
# (shedding, injected failures, truncated writes) and assert structured
# errors, a surviving retry client, deadline enforcement and a graceful
# shutdown.
chaos-smoke: build
	./scripts/chaos_smoke.sh

# Fleet smoke: a router consistent-hash-routing over three backends;
# asserts singleflight coalescing, zero failed requests while one
# backend is SIGKILLed mid-batch (with a recorded failover), a
# warm-cache handoff to the resurrected backend, and byte-identity of
# routed answers against a single-backend run.
fleet-smoke: build
	./scripts/fleet_smoke.sh

# Parallel smoke: the c432 variation study must be byte-identical at
# --jobs 1 and --jobs 4, and multi-domain wall time must not be
# pathological (a real speedup on multicore hosts, a bounded
# oversubscription slowdown on single-core ones).
parallel-smoke: build
	./scripts/parallel_smoke.sh

# Observability smoke: capture a Chrome trace from a CLI analyze run and
# validate it with `nbti_tool trace`, then serve with an access log and
# assert Prometheus metrics plus non-empty JSONL access records.
obs-smoke: build
	./scripts/obs_smoke.sh

# Calibration smoke: gen-measurements -> calibrate CLI -> the calibrate
# wire op through a daemon with one injected truncated write (the
# retrying client must ride it out), a cache hit on repeat, and the op
# visible in stats.
calibrate-smoke: build
	./scripts/calibrate_smoke.sh

# Serving-benchmark check: the perfbench harness's own unit tests, then
# a short run of every workload (scripts/perfbench_smoke.sh) that must
# answer every request, byte-identically to the response oracle.
perfbench-check: build
	PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench -p 'test_*.py'
	PYTHONDONTWRITEBYTECODE=1 ./scripts/perfbench_smoke.sh

# Parallel-scaling gate: times the c432 hot paths at 1/2/4 domains,
# checks bit-identity, the scaling verdict (strict >= 1.5x at 2 domains
# on multicore hosts, an oversubscription floor on single-core ones) and
# the >= 3x compiled-vs-PR3 single-thread speedups. Non-zero exit on any
# failure.
scaling-gate: build
	dune exec bench/main.exe -- --scaling-gate

# Incremental re-analysis gate: single-PI-flip session re-analysis on
# c7552 and the 10^4-gate DAG must be >= 10x faster than a full
# compiled aging pass, and bit-identical to the full recompute at
# 1/2/4 domains. Non-zero exit on any failure.
incremental-gate: build
	dune exec bench/main.exe -- --incremental-gate

# Observability gate: tracing overhead on the memoized analyze hot path
# must stay under 3% relative or 5 us absolute, both with a bare
# collector and with a distributed-trace propagation context installed
# (the fleet configuration). Non-zero exit on failure.
obs-gate: build
	dune exec bench/main.exe -- --obs-gate

# Machine-readable benchmark record: appends one entry to the history in
# BENCH.json with Bechamel ns/run for every kernel, 1/2/4-domain scaling
# of the parallel hot paths, compiled-core speedups vs the PR3 boxed
# baselines (read from the record's BENCH_PR3.json entry), the
# incremental single-PI-flip re-analysis gate, GC pressure of the
# variation hot path, recommended_domains for this host, and the
# tracing overhead of the analyze hot path (must stay under 3%).
bench-json: build
	dune exec bench/main.exe -- --perf-json BENCH.json

# Human-readable benchmark transcripts (untracked; see .gitignore).
bench-txt: build
	dune exec bench/main.exe -- --perf > bench_perf_output.txt
	dune exec bench/main.exe -- --ablation > bench_ablation_output.txt
	dune exec bench/main.exe -- --extension > bench_extension_output.txt
	@echo "wrote bench_perf_output.txt bench_ablation_output.txt bench_extension_output.txt"

CHECK_TARGETS = build test smoke chaos-smoke fleet-smoke parallel-smoke obs-smoke calibrate-smoke perfbench-check scaling-gate incremental-gate obs-gate

# Every target above, in order: a red one does not stop the rest. Ends
# with one pass/FAIL line per target and exits non-zero if any failed.
check:
	@results=; failed=0; \
	for t in $(CHECK_TARGETS); do \
	  if $(MAKE) --no-print-directory $$t; then results="$$results $$t:pass"; \
	  else results="$$results $$t:FAIL"; failed=1; fi; \
	done; \
	echo "make check:"; \
	for r in $$results; do printf '  %-16s %s\n' "$${r%%:*}" "$${r##*:}"; done; \
	exit $$failed

clean:
	dune clean
