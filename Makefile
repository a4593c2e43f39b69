# Local targets mirror .github/workflows/ci.yml step for step, so a green
# `make ci` locally means a green CI run.

GO ?= go

.PHONY: build fmt-check vet test race live-race bench bench-smoke bench-compare tibench tibench-compare tibench-smoke sweep-smoke fuzz-smoke cluster-smoke tenant-smoke chaos-smoke batch-smoke lint-docs cover profile ci

build:
	$(GO) build ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# live-race exercises the networked control/data plane — transport,
# membership control loop, RP hot-swap, and the live-vs-sim churn
# cross-check — under the race detector with a bounded timeout, so a
# deadlocked control loop fails fast instead of hanging CI.
live-race:
	$(GO) test -race -timeout 180s \
		./internal/transport ./internal/membership ./internal/rp ./internal/session

# bench runs the full suite at the default 1s benchtime (stable ns/op,
# unlike a single-iteration smoke) and records the machine-readable
# trajectory point BENCH_<date>.json (benchmark name -> ns/op, allocs/op,
# headline metrics) alongside the human-readable output. The go test
# output is captured to a mktemp file (not piped, so a failing benchmark
# fails the target; not a fixed name, so concurrent invocations cannot
# clobber each other's capture).
BENCH_DATE ?= $(shell date +%F)
BENCH_JSON ?= BENCH_$(BENCH_DATE).json
bench:
	@out="$$(mktemp /tmp/tele3d-bench.XXXXXX)"; trap 'rm -f "$$out"' EXIT; \
	$(GO) test -bench=. -benchmem -run '^$$' . > "$$out" || { cat "$$out"; exit 1; }; \
	cat "$$out"; \
	$(GO) run ./cmd/benchjson -o $(BENCH_JSON) -date $(BENCH_DATE) < "$$out" && \
	echo "wrote $(BENCH_JSON)"

# bench-smoke runs the Fig8a serial/parallel pair once — enough to catch a
# broken benchmark without paying for a full measurement — and emits the
# JSON artifact CI uploads.
bench-smoke:
	@out="$$(mktemp /tmp/tele3d-bench-smoke.XXXXXX)"; trap 'rm -f "$$out"' EXIT; \
	$(GO) test -bench=Fig8a -benchtime=1x -run '^$$' . > "$$out" || { cat "$$out"; exit 1; }; \
	cat "$$out"; \
	$(GO) run ./cmd/benchjson -o bench-smoke.json < "$$out"

# bench-compare re-runs the overlay-core micro-benchmarks at the default
# benchtime and fails if any regresses its ns/op by more than
# BENCH_THRESHOLD against the committed baseline (the newest BENCH_*.json
# in the repo; override with BENCH_BASELINE=...). ns/op comparisons are
# only meaningful on comparable hardware — regenerate the baseline with
# `make bench` when the reference machine changes, or widen the
# threshold for noisy shared runners.
BENCH_BASELINE ?= $(shell ls BENCH_*.json 2>/dev/null | sort | tail -1)
BENCH_THRESHOLD ?= 0.20
bench-compare:
	@test -n "$(BENCH_BASELINE)" || { echo "no BENCH_*.json baseline committed"; exit 1; }
	@out="$$(mktemp /tmp/tele3d-bench-cmp.XXXXXX)"; trap 'rm -f "$$out"' EXIT; \
	$(GO) test -bench='Construct|Fig8aSerial|Churn$$' -run '^$$' . > "$$out" || { cat "$$out"; exit 1; }; \
	cat "$$out"; \
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) -threshold $(BENCH_THRESHOLD) < "$$out"

# tibench runs the system benchmark BENCHMARK.json declares (bench/): six
# workloads end to end, one child process each, a set of three passes
# written to TIBENCH_OUT. Measure the base commit and the change this
# way (same seed, same -seconds), then judge them with tibench-compare,
# which prints a same/worse/better/unresolved verdict per workload and
# metric and fails on any "worse". bench/README.md documents the
# workloads, the metrics and the where-the-time-goes ladder.
TIBENCH_OUT ?= /tmp/tibench.json
tibench:
	$(GO) run ./bench -passes 3 -out $(TIBENCH_OUT)

tibench-compare:
	@test -n "$(BASE)" && test -n "$(HEAD)" || { echo "usage: make tibench-compare BASE=<base.json> HEAD=<head.json>"; exit 1; }
	$(GO) run ./bench -compare $(BASE) $(HEAD)

# tibench-smoke runs one short data-plane workload and gates on the exit
# code alone, i.e. on the benchmark's output checks (every frame
# delivered once, in order, nothing stale/duplicated/dropped, window
# respected); two seconds of work on a shared runner says nothing about
# timings.
tibench-smoke:
	$(GO) run ./bench -workload relay_small -seconds 2

# profile captures CPU and heap profiles of the serial Fig. 8a sweep — the
# calibrated hot path every overlay perf change should start from.
profile:
	$(GO) run ./cmd/tisim -fig 8a -samples 50 -parallel 1 \
		-cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "wrote cpu.prof mem.prof; view with: go tool pprof -http=: cpu.prof"

# sweep-smoke drives cmd/tisweep end-to-end over an 8-cell grid and checks
# the CSV and JSONL record counts (header + 8 rows; 8 records).
sweep-smoke:
	$(GO) run ./cmd/tisweep -n 3,4 -alg stf,rj -bcost 2.5,3.0 -samples 5 -seed 1 \
		-csv /tmp/tisweep-smoke.csv -jsonl /tmp/tisweep-smoke.jsonl -quiet
	@test "$$(wc -l < /tmp/tisweep-smoke.csv)" -eq 9 || { echo "bad CSV row count"; exit 1; }
	@test "$$(wc -l < /tmp/tisweep-smoke.jsonl)" -eq 8 || { echo "bad JSONL record count"; exit 1; }
	@echo "sweep-smoke OK"

# cluster-smoke boots a 50-node virtual cluster under the race detector
# and runs the flash-crowd scenario end to end — the full membership+RP
# stack over the in-memory fabric, with records emitted to prove the
# sink path — then the same runner on loopback TCP at 4 sites (steady
# churn), which must emit exactly one record too. Small enough for CI,
# racy enough to matter.
cluster-smoke:
	$(GO) run -race ./cmd/ticluster -virtual -nodes 50 -scenario flash-crowd \
		-cameras 2 -displays 1 -duration 1500ms -churnrate 4 -seed 7 \
		-csv /tmp/ticluster-smoke.csv -jsonl /tmp/ticluster-smoke.jsonl
	@test "$$(wc -l < /tmp/ticluster-smoke.csv)" -eq 2 || { echo "bad cluster CSV row count"; exit 1; }
	@test "$$(wc -l < /tmp/ticluster-smoke.jsonl)" -eq 1 || { echo "bad cluster JSONL record count"; exit 1; }
	$(GO) run -race ./cmd/ticluster -nodes 4 -cameras 2 -displays 1 -duration 1500ms \
		-churnrate 4 -seed 7 -jsonl /tmp/ticluster-smoke-tcp.jsonl
	@test "$$(wc -l < /tmp/ticluster-smoke-tcp.jsonl)" -eq 1 || { echo "bad loopback-TCP JSONL record count"; exit 1; }
	@echo "cluster-smoke OK"

# tenant-smoke is the multi-tenant SLO drill: a 100-node fabric serves
# four tenants (premium, standard, two best-effort) with the shared
# per-PoP uplink pool capped low enough to overload, under the race
# detector. The emitted records must carry the per-tenant columns, the
# premium tenant must see zero rejections, and at least one best-effort
# tenant must absorb rejections — the cross-tenant arbitration contract.
tenant-smoke:
	@jsonl="$$(mktemp /tmp/tele3d-tenant.XXXXXX)"; trap 'rm -f "$$jsonl"' EXIT; \
	$(GO) run -race ./cmd/ticluster -virtual -nodes 100 -tenants 4 -uplink 4 \
		-cameras 2 -displays 1 -duration 1500ms -churnrate 4 -seed 7 \
		-jsonl "$$jsonl" || exit 1; \
	test "$$(wc -l < "$$jsonl")" -eq 4 || { echo "want one record per tenant:"; cat "$$jsonl"; exit 1; }; \
	grep -q '"slo_class":"premium"' "$$jsonl" || { echo "records missing premium tenant:"; cat "$$jsonl"; exit 1; }; \
	grep -q '"tenant":' "$$jsonl" || { echo "records missing tenant column:"; cat "$$jsonl"; exit 1; }; \
	grep -q '"admitted":' "$$jsonl" || { echo "records missing admitted column:"; cat "$$jsonl"; exit 1; }; \
	grep -E -q '"slo_class":"premium"[^\n]*"rejections":0' "$$jsonl" || { echo "premium tenant was rejected:"; cat "$$jsonl"; exit 1; }; \
	grep -E -q '"slo_class":"besteffort"[^\n]*"rejections":[1-9]' "$$jsonl" || { echo "overload produced no besteffort rejection:"; cat "$$jsonl"; exit 1; }; \
	echo "tenant-smoke OK"

# chaos-smoke is the fault-injection drill: a 100-node virtual cluster
# with a 2-shard membership plane absorbs a composed chaos schedule —
# an RP crash whose rejoin lands inside a fabric-wide latency storm,
# then two restarts of membership shard 1 once the fleet is whole, each
# successor re-listening at the shard's one address — under the race
# detector. The emitted record must carry the resolved schedule, the
# fault count, the retry total and the shard failover, proving the
# chaos columns flow end to end.
chaos-smoke:
	@jsonl="$$(mktemp /tmp/tele3d-chaos.XXXXXX)"; trap 'rm -f "$$jsonl"' EXIT; \
	$(GO) run -race ./cmd/ticluster -virtual -nodes 100 -shards 2 -scenario chaos \
		-chaos '300:rp-crash:rand;450:latency-storm:2:300;900:rp-rejoin:last;1100:membership-restart:1;1300:membership-restart:1' \
		-cameras 2 -displays 1 -duration 1500ms -churnrate 4 -seed 7 \
		-jsonl "$$jsonl" || exit 1; \
	grep -q '"chaos_events":5' "$$jsonl" || { echo "record missing chaos events:"; cat "$$jsonl"; exit 1; }; \
	grep -q '"failovers":1' "$$jsonl" || { echo "record missing the shard failover:"; cat "$$jsonl"; exit 1; }; \
	grep -q '"shards":2' "$$jsonl" || { echo "record missing shard count:"; cat "$$jsonl"; exit 1; }; \
	grep -q '"chaos_schedule":"300:rp-crash:' "$$jsonl" || { echo "record missing resolved schedule:"; cat "$$jsonl"; exit 1; }; \
	grep -E -q '"chaos_recovery_ms":[0-9]*\.?[0-9]*[1-9]' "$$jsonl" || { echo "record missing chaos recovery:"; cat "$$jsonl"; exit 1; }; \
	grep -E -q '"retries":[1-9]' "$$jsonl" || { echo "record missing retry total:"; cat "$$jsonl"; exit 1; }; \
	echo "chaos-smoke OK"

# batch-smoke is the amortized-maintenance drill: a 100-node virtual
# cluster runs the flash-crowd scenario with membership delta batching
# enabled (-flush 40 ms windows) under the race detector. The emitted
# record must carry the per-phase maintenance columns — non-zero
# construct and batch-apply wall-clock, plus the route-rebuild and
# heap-delta columns — proving the observability plumbing flows from
# the membership servers through the session result into the sink.
batch-smoke:
	@jsonl="$$(mktemp /tmp/tele3d-batch.XXXXXX)"; trap 'rm -f "$$jsonl"' EXIT; \
	$(GO) run -race ./cmd/ticluster -virtual -nodes 100 -scenario flash-crowd \
		-flush 40 -cameras 2 -displays 1 -duration 1500ms -churnrate 4 -seed 7 \
		-jsonl "$$jsonl" || exit 1; \
	grep -E -q '"construct_ms":[0-9]*\.?[0-9]*[1-9]' "$$jsonl" || { echo "record missing construct phase:"; cat "$$jsonl"; exit 1; }; \
	grep -E -q '"batch_apply_ms":[0-9]*\.?[0-9]*[1-9]' "$$jsonl" || { echo "record missing batch-apply phase:"; cat "$$jsonl"; exit 1; }; \
	grep -q '"route_rebuild_ms":' "$$jsonl" || { echo "record missing route-rebuild column:"; cat "$$jsonl"; exit 1; }; \
	grep -q '"heap_delta_bytes":' "$$jsonl" || { echo "record missing heap-delta column:"; cat "$$jsonl"; exit 1; }; \
	echo "batch-smoke OK"

# lint-docs enforces the documentation contracts with the in-repo
# doccheck tool: every exported identifier in every internal/ package
# carries a doc comment (the revive/golint `exported` rule),
# every relative markdown link in the top-level docs resolves, and every
# `make <target>` the docs mention exists in this Makefile.
lint-docs:
	$(GO) run ./cmd/doccheck -exported \
		./internal/transport ./internal/membership ./internal/rp ./internal/session ./internal/chaos \
		./internal/workload ./internal/record ./internal/sim ./internal/overlay ./internal/topology \
		./internal/stream ./internal/metrics ./internal/experiments ./internal/fov ./internal/geo
	$(GO) run ./cmd/doccheck -links \
		README.md ARCHITECTURE.md examples/README.md
	$(GO) run ./cmd/doccheck -make -makefile Makefile \
		README.md ARCHITECTURE.md examples/README.md
	@echo "lint-docs OK"

# fuzz-smoke runs each native fuzz target briefly — enough for the
# coverage-guided mutator to probe beyond the seed corpus without turning
# CI into a fuzzing campaign. `go test -fuzz` accepts one target at a
# time, hence one invocation per target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDynamicChurn$$' -fuzztime 20s ./internal/overlay
	$(GO) test -run '^$$' -fuzz '^FuzzBatchChurn$$' -fuzztime 20s ./internal/overlay
	$(GO) test -run '^$$' -fuzz '^FuzzSimEvents$$' -fuzztime 20s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzAdmission$$' -fuzztime 20s ./internal/rp
	$(GO) test -run '^$$' -fuzz '^FuzzShardSync$$' -fuzztime 20s ./internal/rp
	$(GO) test -run '^$$' -fuzz '^FuzzIncrementalRoutes$$' -fuzztime 20s ./internal/membership
	$(GO) test -run '^$$' -fuzz '^FuzzReadMessage$$' -fuzztime 20s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzVirtualPipe$$' -fuzztime 20s ./internal/transport

# cover prints per-package statement coverage for the internal tree; CI
# publishes this into the workflow summary.
cover:
	$(GO) test -cover ./internal/...

ci: build fmt-check vet race live-race lint-docs bench-smoke tibench-smoke sweep-smoke cluster-smoke tenant-smoke chaos-smoke batch-smoke fuzz-smoke
