GO ?= go

# Total-coverage floor enforced by cover-check (and CI).
COVER_FLOOR ?= 80.0

.PHONY: build test race bench bench-infer bench-cache bench-forest bench-serve bench-buildq bench-stream bench-gate serve-smoke stream-smoke lint cover cover-check faults fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark: proves they compile and run.
# For real numbers: go test -bench=. -benchtime=3s ./internal/core/
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Inference baseline: times the pointer walk, the compiled flat tree and
# the sharded batch path on the Function-2 tree, writing the
# machine-readable numbers to BENCH_infer.json.
bench-infer:
	$(GO) run ./cmd/cmpbench -exp infer -json BENCH_infer.json

# Page-cache baseline: builds the disk-resident Function-2 tree uncached,
# cold and warm, writing the cold-vs-warm physical page reads (and the
# trees-identical differential check) to BENCH_cache.json.
bench-cache:
	$(GO) run ./cmd/cmpbench -exp cache -json BENCH_cache.json

# Forest baseline: trains the 16-tree bagged ensemble across the
# (workers x cache) differential sweep and times the ensemble serving
# paths, writing the numbers (and the forests-identical check) to
# BENCH_forest.json. The flags must match bench-gate's measurement.
bench-forest:
	$(GO) run ./cmd/cmpbench -exp forest -n 50000 -cache 64m -json BENCH_forest.json

# Serving baseline: drives the cmpserve pipeline (admission queue,
# micro-batch coalescing, scoring, JSON) in-process at 1/2/8 concurrent
# clients plus a 2x-overload shed point, writing throughput/latency/shed
# numbers to BENCH_serve.json. The flags must match bench-gate's
# measurement.
bench-serve:
	$(GO) run ./cmd/cmpbench -exp serve -n 20000 -json BENCH_serve.json

# Quantized-build baseline: raw vs bin-coded CMP-B builds over the
# disk-resident Function-2 store at workers {1,2,8} x cache {off,on},
# writing ns/record (and the quantized trees-identical check) to
# BENCH_buildq.json. The flags must match bench-gate's measurement.
bench-buildq:
	$(GO) run ./cmd/cmpbench -exp buildq -n 100000 -json BENCH_buildq.json

# Streaming baseline: ingests a Function-2 stream through the online
# Hoeffding builder at workers {1,2,8} and times the snapshot compile,
# writing ns/record, records-to-first-split and the snapshots-identical
# check to BENCH_stream.json. The flags must match bench-gate's measurement.
bench-stream:
	$(GO) run ./cmd/cmpbench -exp stream -n 100000 -json BENCH_stream.json

# End-to-end daemon smoke: build cmpserve, start it on a real socket,
# probe /readyz, score a golden batch twice (byte-identical answers),
# check /metrics, then SIGTERM and assert a clean exit-0 drain.
serve-smoke:
	bash scripts/serve_smoke.sh

# End-to-end streaming smoke: generate an Agrawal stream, run cmpstream
# over it publishing snapshots, start cmpserve on the published model,
# hot-reload it mid-traffic with zero non-200s, and drain cleanly.
stream-smoke:
	bash scripts/stream_smoke.sh

# The CI regression gate: measure the inference, forest, serving,
# quantized-build, and streaming paths fresh and compare all five against
# their committed baselines in one benchdiff invocation;
# fails on >25% ns/record regression, any allocs/record increase, or a
# benchmark row vanishing. The aggregate metrics report lands next to the
# measurement for artifact upload.
bench-gate:
	$(GO) run ./cmd/cmpbench -exp infer -json /tmp/bench_current.json \
		-metrics-json /tmp/bench_metrics.json
	$(GO) run ./cmd/cmpbench -exp forest -n 50000 -cache 64m \
		-json /tmp/bench_forest_current.json
	$(GO) run ./cmd/cmpbench -exp serve -n 20000 \
		-json /tmp/bench_serve_current.json
	$(GO) run ./cmd/cmpbench -exp buildq -n 100000 \
		-json /tmp/bench_buildq_current.json
	$(GO) run ./cmd/cmpbench -exp stream -n 100000 \
		-json /tmp/bench_stream_current.json
	$(GO) run ./cmd/benchdiff \
		-baseline BENCH_infer.json,BENCH_forest.json,BENCH_serve.json,BENCH_buildq.json,BENCH_stream.json \
		-current /tmp/bench_current.json,/tmp/bench_forest_current.json,/tmp/bench_serve_current.json,/tmp/bench_buildq_current.json,/tmp/bench_stream_current.json
	$(MAKE) bench

# gofmt + go vet always; staticcheck and govulncheck when installed (CI
# installs them — locally: go install honnef.co/go/tools/cmd/staticcheck@latest
# and golang.org/x/vuln/cmd/govulncheck@latest).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "govulncheck not installed; skipping"; fi

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Enforce the coverage floor over the full profile.
cover-check: cover
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# The robustness suite: fault-injection tests repeated (they are seeded, so
# repetition guards the retry plumbing, not flakiness — and the TestFaultCache*
# set covers faults landing on page-cache fills), plus cancellation (core
# builds, storage scans, forest index and tree builds) and the cache stress
# test under the race detector.
faults:
	$(GO) test -run Fault -count=5 ./internal/storage/ ./internal/core/
	$(GO) test -race -run 'Cancel|PageCacheStress' ./internal/core/ ./internal/storage/ ./internal/forest/

# Coverage-guided fuzzing, briefly: every Fuzz* target in the module runs
# for 10s, one go test -fuzz call per target (go test fuzzes one target at
# a time). Minimizing a new input is bounded to 1s: the default 60s would
# spend the whole budget on the first input a target finds. Plain go test
# only replays the seed corpora.
fuzz-smoke:
	@set -e; grep -rl --include='*_test.go' --exclude-dir=.bench_build '^func Fuzz' . | sort | \
	while read -r file; do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$file"); do \
			echo "fuzz-smoke: $$target ($$(dirname "$$file"))"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime=10s -fuzzminimizetime=1s "./$$(dirname "$$file")"; \
		done; \
	done
