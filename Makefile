# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short test-race test-shard test-quality vet bench bench-gate bench-pr9 smoke-cluster experiments live crowd clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-check the internal packages: the shard actors, the cluster and the
# platform handlers run concurrently.
test-race:
	$(GO) test -race ./internal/...

# The sharded-engine conservation and determinism properties and the
# routing decision's tests, the gateway's included, repeated under the
# race detector (the same run as the dedicated CI step).
test-shard:
	$(GO) test -race -count 2 ./internal/shard -run 'TestConservationUnderConcurrentChurn|TestOneShardDeterminism|TestRankIndependentOfReplyOrder|TestRouteAllFullBuffersWithoutCommit|TestFilterBoundedByLiveTasks|TestDuplicateContract'
	$(GO) test -race -count 2 ./internal/cluster -run 'TestGatewayMatchesInProcessRoute|TestFilterBoundedByLiveTasks|TestDuplicateContract'

# The quality layer (aggregation, gold grading, reputation) plus its
# engine/tracker integration properties, under the race detector.
test-quality:
	$(GO) test -race ./internal/quality

# The layered-bench CI gate: a short run of each workload, checked for
# correctness, decision digests and per-workload throughput and latency
# limits (see scripts/bench-gate.sh).
bench-gate:
	bash scripts/bench-gate.sh

# Regenerate the cluster observability overhead report (BENCH_PR9.json):
# the pr7 gateway workload with federated metrics + 1/16 tracing + ops
# journals vs all of it disabled, against the 2% budget.
bench-pr9:
	$(GO) run ./cmd/hta-bench -fig pr9 -runs 5 -gate -json BENCH_PR9.json

# The multi-process cluster smoke: 3 hta-server nodes + a gateway on
# ephemeral ports, churn replay, conservation, clean SIGTERM shutdown.
smoke-cluster:
	$(GO) test ./cmd/hta-server -run TestClusterSmokeMultiProcess -v

bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# Regenerate every offline figure at laptop scale (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/hta-bench -fig 2a
	$(GO) run ./cmd/hta-bench -fig 2b
	$(GO) run ./cmd/hta-bench -fig 2c
	$(GO) run ./cmd/hta-bench -fig 3
	$(GO) run ./cmd/hta-bench -fig obj
	$(GO) run ./cmd/hta-bench -fig bg

# The online study (Figures 5a-5c) with the paper's selection pipeline.
live:
	$(GO) run ./cmd/hta-live -sessions 20 -filtered -chart

# The live deployment over real HTTP with simulated workers.
crowd:
	$(GO) run ./cmd/hta-crowd -workers 8

clean:
	$(GO) clean ./...
