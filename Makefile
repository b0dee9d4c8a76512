# Convenience targets for the SSMFP reproduction.

GO ?= go

# Coverage floor enforced by `make cover-check` (CI satellite): total
# statement coverage must not drop below this. Raise it when coverage
# grows; never lower it to make a PR pass.
COVER_FLOOR ?= 80.0

# Canonical flags of the checked-in benchmark baseline (BENCH_baseline.json).
# PR benches and baseline refreshes must use the same cell selection.
BENCH_FLAGS ?= -quick -seeds 2 -parallel 1

.PHONY: all build test test-short race bench experiments check cluster examples \
	cover cover-check fmt lint vet fuzz campaign bench-baseline load-smoke \
	bench-allocs load-baseline load-compare cluster-metrics cluster-elastic \
	cluster-tls

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path benchmarks the zero-allocation gate covers: the sender-side
# wire handoff, the full receiver-side delivery path, the telemetry
# registry's counter/gauge/histogram update path, and the load
# collector's delivery hook.
ALLOC_BENCHES ?= BenchmarkSendHotPathParallel|BenchmarkDeliveryHotPath|BenchmarkTelemetryHotPath|BenchmarkCollectorObserve

# Zero-allocation gate (tier-1 CI): the live-network hot-path benchmarks
# must report exactly 0 allocs/op. Any regression — a payload copy, an
# event built outside the Active() guard, a pooled buffer dropped on the
# floor — fails this target before it can blunt the saturation knee.
bench-allocs:
	@out=$$($(GO) test -run '^$$' -bench '$(ALLOC_BENCHES)' -benchmem -benchtime 2000x ./internal/msgpass/ ./internal/telemetry/ ./internal/load/); \
	status=$$?; echo "$$out"; [ $$status -eq 0 ] || exit $$status; \
	echo "$$out" | awk '/allocs\/op/ { if ($$(NF-1)+0 > 0) { bad=1; print "FAIL: " $$1 " reports " $$(NF-1) " allocs/op, want 0" } } \
		END { if (bad) exit 1; print "bench-allocs: all hot-path benchmarks at 0 allocs/op" }'

experiments:
	$(GO) run ./cmd/ssmfp-bench

check:
	$(GO) run ./cmd/ssmfp-check -scenario clean
	$(GO) run ./cmd/ssmfp-check -scenario same-payload
	$(GO) run ./cmd/ssmfp-check -scenario figure3
	$(GO) run ./cmd/ssmfp-check -scenario figure3 -simultaneity 2
	$(GO) run ./cmd/ssmfp-check -scenario r5-literal

# 5 OS processes, one ring processor each, loopback TCP under chaos
# (loss, duplication, jitter, a partition/heal cycle straddled by the
# sends); exits nonzero on any lost, duplicated or misdelivered message.
cluster:
	$(GO) run ./cmd/ssmfp-node -spawn 5 -topology ring -messages 30 -seed 7 \
		-loss 0.10 -dup 0.10 -latency 200us -jitter 1ms \
		-partition 400ms:600ms:0-1 -send-spread 1500ms -timeout 60s > /dev/null

# Live-scrape check: a 3-node cluster on stable metrics ports, scraped
# from outside while it runs — curl must get parseable Prometheus text
# with the protocol series, and `ssmfp-node -scrape -scrape-validate`
# must aggregate all three nodes and pass the stabilization-health
# checks. Exercises the telemetry plane end to end across processes.
CLUSTER_METRICS_PORT ?= 19300
cluster-metrics:
	$(GO) build -o /tmp/ssmfp-node-metrics ./cmd/ssmfp-node
	/tmp/ssmfp-node-metrics -spawn 3 -topology ring -messages 300 -rate 50 \
		-seed 7 -http-base $(CLUSTER_METRICS_PORT) -timeout 60s > /dev/null & \
	pid=$$!; \
	ok=0; for i in $$(seq 1 100); do \
		if curl -sf http://127.0.0.1:$$(( $(CLUSTER_METRICS_PORT) + 1 ))/metrics > /tmp/cluster-node1.metrics 2>/dev/null; then ok=1; break; fi; \
		sleep 0.2; done; \
	if [ $$ok -ne 1 ]; then echo "FAIL: node 1 /metrics never answered"; kill $$pid 2>/dev/null; exit 1; fi; \
	for series in ssmfp_frames_sent_total ssmfp_buf_occupancy ssmfp_sends_total ssmfp_wire_frames_sent_total; do \
		grep -q "$$series" /tmp/cluster-node1.metrics || { echo "FAIL: scrape missing $$series"; kill $$pid 2>/dev/null; exit 1; }; done; \
	/tmp/ssmfp-node-metrics -scrape 127.0.0.1:$(CLUSTER_METRICS_PORT),127.0.0.1:$$(( $(CLUSTER_METRICS_PORT) + 1 )),127.0.0.1:$$(( $(CLUSTER_METRICS_PORT) + 2 )) \
		-scrape-validate || { kill $$pid 2>/dev/null; exit 1; }; \
	wait $$pid

# Tier 2: the elastic-membership churn judge plus the cluster control
# plane under the race detector. The judge forks a 4-node -serve ring on
# loopback TCP, then — under sustained injected load — joins two nodes,
# gracefully cuts a link, and drains a member until its process exits on
# the detach epoch; it exits nonzero unless every injected message was
# delivered exactly once across all membership changes.
cluster-elastic:
	$(GO) test -race ./internal/cluster/
	$(GO) run ./cmd/ssmfp-node -elastic -spawn 4 -seed 11 -timeout 60s > /dev/null

# Tier 2: the secure transport under the race detector, then the full
# byzantine-injection judge — a mutual-TLS 3-node ring under paced load,
# struck with forged, replayed and role-violating frames from rogue
# certificates; exits nonzero unless exactly-once holds AND every
# injected frame is balanced against the right rejection counter. A
# plain TLS cluster (no rogue) must also pass with zero rejections.
cluster-tls:
	$(GO) test -race ./internal/secure/
	$(GO) run ./cmd/ssmfp-node -spawn 3 -topology ring -require-tls \
		-messages 30 -rate 100 -seed 7 -timeout 60s > /dev/null
	$(GO) run ./cmd/ssmfp-node -byzantine -spawn 3 -topology ring \
		-messages 30 -rate 100 -burst 5 -seed 7 -timeout 60s > /dev/null

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/figure3
	$(GO) run ./examples/gridflood
	$(GO) run ./examples/msgpass
	$(GO) run ./examples/chaos
	$(GO) run ./examples/rpc
	$(GO) run ./examples/faultstorm

# Full parallel experiment campaign with a machine-readable report.
campaign:
	$(GO) run ./cmd/ssmfp-bench -progress -json BENCH_local.json

# Refresh the checked-in benchmark baseline. Run on a quiet machine;
# wall-clock numbers are host-dependent (CI compares them generously,
# guard evaluations strictly).
bench-baseline:
	$(GO) run ./cmd/ssmfp-bench $(BENCH_FLAGS) -json BENCH_baseline.json

# Canonical sweep of the checked-in load baseline (LOAD_baseline.json):
# the grid-4x4 saturation ladder, capped at the rung where goodput is
# still stable run-to-run (past the knee, achieved rate flaps too much on
# a shared box to gate on). Baseline refreshes and comparisons must use
# the same flags.
LOAD_SWEEP_FLAGS ?= -topology grid -rows 4 -cols 4 -sweep -sweep-start 8000 \
	-sweep-factor 2 -sweep-steps 4 -messages 4000 -seed 3

# Refresh the checked-in load baseline. Run on a quiet machine; achieved
# rates are host-dependent.
load-baseline:
	$(GO) run ./cmd/ssmfp-load $(LOAD_SWEEP_FLAGS) -json LOAD_baseline.json

# Sweep the current tree and gate it against the checked-in baseline.
# p99 in the low-millisecond range flaps ~2x with scheduler noise on a
# 1-CPU container, so the latency threshold is loosened; the meaningful
# gates are achieved rate, knee rung, and the exactly-once verdict.
load-compare:
	$(GO) run ./cmd/ssmfp-load $(LOAD_SWEEP_FLAGS) -json /tmp/load_current.json
	$(GO) run ./cmd/ssmfp-bench compare -p99-pct 200 LOAD_baseline.json /tmp/load_current.json

# ~10s open-loop load smoke on a 3x3 grid: exits nonzero if any message
# is lost, duplicated or misdelivered, or if the latency histogram comes
# back empty. Gates the load subsystem end to end in tier-2 CI. A second,
# ~1s run pins the -progress output: at least one load-tick line and
# exactly one load-done line on stderr.
load-smoke:
	$(GO) run ./cmd/ssmfp-load -topology grid -rows 3 -cols 3 \
		-rate 2000 -messages 20000 -seed 42 -drain-timeout 30s -json /tmp/load-smoke.json
	$(GO) run ./cmd/ssmfp-bench compare /tmp/load-smoke.json /tmp/load-smoke.json
	$(GO) run ./cmd/ssmfp-load -topology grid -rows 3 -cols 3 \
		-rate 2000 -messages 2000 -seed 42 -drain-timeout 30s -progress -tick 100ms \
		> /dev/null 2> /tmp/load-smoke-progress.txt
	@ticks=$$(grep -c '^load-tick step=' /tmp/load-smoke-progress.txt); \
	dones=$$(grep -c '^load-done rate=' /tmp/load-smoke-progress.txt); \
	if [ "$$ticks" -lt 1 ] || [ "$$dones" -ne 1 ]; then \
		echo "FAIL: -progress printed $$ticks load-tick and $$dones load-done lines, want >=1 and 1"; \
		cat /tmp/load-smoke-progress.txt; exit 1; fi; \
	echo "load-smoke: -progress printed $$ticks load-tick lines and 1 load-done line"

# Fuzz pass over every fuzz target: the transport frame codec, the
# load-trace tag parser, the certificate role-extension decoder, and
# routing algorithm A's rule against its brute-force reference (seeds
# committed under each package's testdata/fuzz). FUZZTIME is per
# target; the nightly workflow raises it.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzFrameCodec -fuzztime=$(FUZZTIME) -run '^$$' ./internal/transport/
	$(GO) test -fuzz=FuzzParseTag -fuzztime=$(FUZZTIME) -run '^$$' ./internal/load/
	$(GO) test -fuzz=FuzzCertRoleParse -fuzztime=$(FUZZTIME) -run '^$$' ./internal/secure/
	$(GO) test -fuzz=FuzzRelax -fuzztime=$(FUZZTIME) -run '^$$' ./internal/routing/

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Fail when total statement coverage drops below COVER_FLOOR.
cover-check: cover
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < f+0) { printf "coverage %.1f%% below floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% >= floor %.1f%%\n", t, f }'

fmt:
	gofmt -w .

# Lint gate: formatting diffs fail the build; staticcheck runs when
# installed (CI installs a pinned version; the container may not have it).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipped"; fi

vet:
	$(GO) vet ./...
