# Developer entry points. Everything is stdlib Go; no tools beyond `go`.

GO ?= go

.PHONY: check vet build race test bench-smoke bench-micro bench-record serve-smoke chaos obs-smoke spill-smoke cluster-smoke trace-cluster-smoke benchgate

## check: full gate — vet, build, the test suite under the race detector,
## the microbenchmark compile/run smoke, the chaos gate (fault injection,
## fuzzing, crash recovery), the observability smoke (span traces), the
## trace-spill smoke (tiny -trace-budget forcing disk spill), the
## 3-node cluster smoke (routing, coalescing, owner kill), the distributed
## tracing smoke (one cross-node trace through tracelint -cluster), and the
## perf regression gate against the committed BENCH baseline.
check: vet build race bench-micro chaos obs-smoke spill-smoke cluster-smoke trace-cluster-smoke benchgate

## vet: static checks — go vet plus a gofmt cleanliness gate (gofmt ships
## with the toolchain, so this adds no dependency).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt: needs formatting:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

## The experiments package's golden equivalence suites run close to Go's
## default 600s per-package timeout under -race on one core; give the
## gate explicit headroom instead of flaking on loaded machines.
race:
	$(GO) test -race -timeout 30m ./...

test:
	$(GO) test ./...

## bench-smoke: a fast end-to-end run of the experiment harness — the
## headline figure plus the parallel runner and its JSON summary.
bench-smoke:
	$(GO) run ./cmd/gpsbench -fig 8 -iters 2 -json /tmp/gpsbench-smoke.json
	$(GO) run ./cmd/gpsim -app jacobi -paradigm GPS -gpus 4 -interconnect pcie4 -iters 2

## bench-micro: compile and run every microbenchmark exactly once, so the
## hot-path benchmarks cannot rot without failing the gate.
bench-micro:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/trace/ ./internal/engine/ ./internal/memsys/

## bench-record: record the full suite's wall clock and headline metrics
## into BENCH_<n>.json at the repo root (see scripts/bench_record.sh).
bench-record:
	sh scripts/bench_record.sh

## serve-smoke: boot gpsd on an ephemeral port, submit a small job over
## HTTP, assert a 200 result, and check the SIGTERM drain path.
serve-smoke:
	sh scripts/serve_smoke.sh

## obs-smoke: run a quick traced matrix and structurally validate the
## emitted Perfetto trace (balanced events, category nesting) via tracelint.
obs-smoke:
	sh scripts/obs_smoke.sh

## spill-smoke: run a small figure with a trace budget far below any quick
## trace's compressed footprint, so the cache spills every trace to disk and
## replays read blocks back; reportlint asserts from the JSON report that the
## spill tier actually ran and the figures still rendered.
spill-smoke:
	sh scripts/spill_smoke.sh

## cluster-smoke: boot a 3-node local cluster, submit through a non-owner,
## then permanently SIGKILL an owner mid-queue and assert the self-healing
## invariants: every accepted job reaches done on a survivor (takeover under
## original IDs, exactly-once execution), results byte-identical from both
## survivors, and a resurrected node reconciles instead of re-running.
cluster-smoke:
	sh scripts/cluster_smoke.sh

## trace-cluster-smoke: boot a 3-node cluster with per-node trace dirs and
## stealing on, overload one node so peers steal its queue, then validate
## the per-node Perfetto files as one cluster with tracelint -cluster -cross:
## every parent span link resolves across files and at least one trace spans
## 2+ nodes.
trace-cluster-smoke:
	sh scripts/trace_cluster_smoke.sh

## benchgate: the perf regression gate — run the full experiment suite and
## compare its report against the committed baseline. Deterministic headline
## metrics and memoization work counters are gated tightly; wall-clock
## loosely (1.5x ratio AND a 0.5s floor), so machine noise cannot fail the
## gate. Intended changes: `make bench-record` re-blesses the baseline.
BENCH_BASELINE ?= BENCH_10.json
benchgate:
	$(GO) run ./cmd/gpsbench -all -parallel 1 -json /tmp/gpsbench-gate.json
	$(GO) run ./cmd/benchgate -baseline $(BENCH_BASELINE) -v /tmp/gpsbench-gate.json

## chaos: the resilience gate — fault-injected suites under -race, a fuzz
## pass over the trace decoder, and the SIGKILL crash-recovery smoke.
chaos:
	$(GO) test -race ./internal/faultinject/ ./internal/retry/
	$(GO) test -race -run 'Panic|Injected|CellError|Deterministic' ./internal/experiments/
	$(GO) test -race -run 'Chaos|Journal|Panic|Fault|Injected' ./internal/service/
	$(GO) test -race -run 'ZeroCell|Oversized|JournalFailure' ./internal/httpapi/
	$(GO) test -fuzz=FuzzDecodeTrace -fuzztime=10s ./internal/trace/
	$(GO) test -fuzz=FuzzColumnBlock -fuzztime=10s ./internal/trace/
	sh scripts/chaos_smoke.sh
