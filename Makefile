# FlowTime build/test targets. `make check` is the CI gate: vet plus the
# full test suite — including the rmserver chaos tests — under the race
# detector, plus a coverage run, the sim-smoke scenario replay and the
# benchmark harness's own build and tests (bench-e2e). `make verify` is
# the differential verification sweep (flow planner vs. reference simplex,
# oracle cross-checks, metamorphic relations — gate reservations yield to
# deadlines, every FlowTime slot is work-conserving, striking the ad-hoc
# jobs from a slot gives deadline work only the capacity they had taken
# — and sim invariants); `make fuzz`
# runs short fuzz bursts over the WAL framing, the front-coded string
# primitive both journal codecs share (FuzzFrontString), the two binary
# journal codecs (plan diffs: FuzzDecodeDiff/FuzzApplyDiff; WAL records:
# FuzzDecodeWALRecord), the binary heartbeat and submission codecs
# (FuzzHeartbeatCodec, FuzzSubmitCodec), the flow planner, the MPS reader,
# the status query, the heartbeat, submission and replication request
# bodies, and the Alibaba and Google trace converters. `make loc` prints the non-test Go line count the
# subtraction passes are measured by; `make check` ends with it.

GO ?= go

.PHONY: build test race vet fmt lint bench bench-smoke bench-e2e cover verify fuzz chaos chaos-net sim-smoke loc check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs staticcheck and errcheck when they are installed (CI installs
# them with `go install`; locally they are optional and skipped with a
# note — the container image is dependency-frozen).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed; skipping"; fi
	@if command -v errcheck >/dev/null 2>&1; then errcheck ./...; \
	else echo "lint: errcheck not installed; skipping"; fi

# The chaos and persistence suites poll real goroutines, so give the race
# run an explicit ceiling instead of go test's silent 10m default.
race:
	$(GO) test -race -timeout 600s ./...

# chaos runs only the process-level and failover chaos suites (SIGKILL +
# restart, replicated failover, fencing, disk-fault injection) under the
# race detector with a hard ceiling.
chaos:
	$(GO) test -race -timeout 300s -run 'Chaos|KillAndRestart|Graceful|Failover|Fencing|Replicator|Fault|Crash|CommitFail' ./cmd/ftrm/ ./internal/rmserver/ ./internal/store/

# chaos-net runs the network chaos suites: the deterministic fault
# injector's own tests, then the partition/flap/split-brain scenarios,
# the overload-shedding and watchdog suites, and the client's retry
# policy (retry budget, bounded jitter, Retry-After honor) — all seeded,
# all under the race detector with a hard ceiling.
chaos-net:
	$(GO) test -race -timeout 300s ./internal/netchaos/
	$(GO) test -race -timeout 300s -run 'NetChaos|Overload|Watchdog|RetryBudget|RetryAfter|Jitter|AgentAllRMsUnreachable|AgentKeepsLeases' ./internal/rmserver/

# cover writes the per-package coverage summary to coverage.txt (kept as
# a CI artifact; informational, no hard gate — see DESIGN.md §11).
cover:
	$(GO) test -cover ./... | tee coverage.txt

# verify is the differential sweep: 500 seeded cases checking the flow
# planner against the exact simplex (per-slot levels), both against brute
# force / min-cut oracles and the metamorphic relations, the
# reservations-yield relation (a gate reservation routed last changes no
# deadline job's stage A shortfall, and what survives is the reference
# simplex's joint max flow minus the deadline jobs' own), the
# decomposition oracle, and full-pipeline sim runs with the invariant
# checker armed and every Assign held to work conservation (a resource
# kind with capacity left has no ready job short of its request; a
# deadline job runs before its release only where no ad-hoc job is
# short) and to the per-slot ad-hoc-removal relation (what deadline work
# is granted ahead of the ad-hoc jobs — plan, overdue, backlog — is what
# it is granted with them struck out), once as estimated and once under
# chaos. Reproduce a failure with:
# go run ./cmd/ftverify -n 1 -seed <s> -v
verify:
	$(GO) run ./cmd/ftverify -n 500 -seed 1

# fuzz runs short bursts of the store framing, front-coded string,
# plan-diff codec, WAL record codec and heartbeat and submission body
# codec fuzz targets
# (every codec: no panic, an accepted input re-encodes to itself; a diff
# or record is safe to apply) from the checked-in seed corpora
# (testdata/fuzz/) and in-code seeds, the flow planner target (conservation, window, cap and parallelism invariants on
# adversarial capacities and demands, overflow-sized ones included), the
# MPS reader target (cmd/ftlp's input: no panic, and an accepted document
# is a valid model that survives WriteMPS -> ReadMPS with the same
# variables, rows and bounds), the GET /v1/status query target (any
# cursor, archive or live, is a 400 or a consistent 200), the heartbeat
# body target (any binary POST /v1/nodes/heartbeat body, on a server
# holding an offer, is a 4xx or a 200 — for a body that re-encodes to
# itself, with a reply that does too — that leaves leases, in-flight sums
# and per-node placed volume consistent and dispatches the offer at most
# once), the
# submission body target (any binary POST /v1/workflows or /v1/adhoc
# body, on a store-backed gated server holding one plan revision, is a 4xx
# or a 200 — for a body that re-encodes to itself; an accepted job is in
# the status once, anything else leaves it empty, and the same body again
# is a duplicate that changes nothing), the replication body target (any
# POST /repl/v1/ship or /repl/v1/fence body, plain or gzipped, on a store-backed primary, is
# a 4xx that changes nothing, a not_leader 503 or a 200 — a ship batch no
# longer than head minus from, a fence exactly when its epoch is above the
# RM's, after which every mutation is refused) and the two trace
# converters (any Alibaba CSV or Google JSON-lines input converts or
# fails, never panics).
fuzz:
	$(GO) test -fuzz FuzzDecodeRecord -fuzztime 10s -run '^$$' ./internal/store/
	$(GO) test -fuzz FuzzRoundTripWithCorruption -fuzztime 10s -run '^$$' ./internal/store/
	$(GO) test -fuzz FuzzDecodeAll -fuzztime 10s -run '^$$' ./internal/store/
	$(GO) test -fuzz FuzzFrontString -fuzztime 10s -run '^$$' ./internal/binenc/
	$(GO) test -fuzz FuzzDecodeDiff -fuzztime 10s -run '^$$' ./internal/plan/
	$(GO) test -fuzz FuzzApplyDiff -fuzztime 10s -run '^$$' ./internal/plan/
	$(GO) test -fuzz FuzzDecodeWALRecord -fuzztime 10s -run '^$$' ./internal/rmserver/
	$(GO) test -fuzz FuzzHeartbeatCodec -fuzztime 10s -run '^$$' ./internal/rmproto/
	$(GO) test -fuzz FuzzSubmitCodec -fuzztime 10s -run '^$$' ./internal/rmproto/
	$(GO) test -fuzz FuzzFlowSkyline -fuzztime 10s -run '^$$' ./internal/flow/
	$(GO) test -fuzz FuzzReadMPS -fuzztime 10s -run '^$$' ./internal/lp/
	$(GO) test -fuzz FuzzStatusQuery -fuzztime 10s -run '^$$' ./internal/rmserver/
	$(GO) test -fuzz FuzzHeartbeatBody -fuzztime 10s -run '^$$' ./internal/rmserver/
	$(GO) test -fuzz FuzzSubmitBody -fuzztime 10s -run '^$$' ./internal/rmserver/
	$(GO) test -fuzz FuzzReplBody -fuzztime 10s -run '^$$' ./internal/rmserver/
	$(GO) test -fuzz FuzzConvertAlibaba -fuzztime 10s -run '^$$' ./internal/scenario/
	$(GO) test -fuzz FuzzConvertGoogle -fuzztime 10s -run '^$$' ./internal/scenario/

# sim-smoke replays the small bundled scenario trace (testdata/
# scenario-smoke.json, emitted by `ftgen -scenario flash -machines 40
# -days 1 -seed 42`) through the machine-granular simulator with the
# per-machine invariant checker armed, then replays a generated churn
# scenario so join/fail/scale events are exercised too. Both finish in
# well under a second.
sim-smoke:
	$(GO) run ./cmd/ftsim -trace testdata/scenario-smoke.json -machines 40 -slot 60s -horizon 1440 -sched FlowTime -invariants
	$(GO) run ./cmd/ftsim -scenario churn -machines 40 -days 1 -seed 42 -sched EDF -invariants

# bench runs the micro-benchmarks and then ftperf's two probes, leaving
# machine-readable reports for the perf trajectory: BENCH_lp.json (one
# replan's skyline at Fig. 7 scale: the flow planner's wall time, and on
# the three small sizes the reference simplex's beside it with rounds,
# pivots and the per-slot level agreement) and BENCH_adhoc.json (the
# lock-free ad-hoc admission gate: sustained admissions/s and
# admission-latency percentiles while replans rebase the queue
# concurrently, plus conservation verdicts). What the RM's control plane
# costs end to end is bench/'s to measure (go run -C bench .).
BENCH_PKGS := ./internal/rmserver/ ./internal/flow/ ./internal/lp/ ./internal/deadline/ ./internal/sim/
bench:
	$(GO) test -bench . -benchtime=500ms -run '^$$' $(BENCH_PKGS)
	$(GO) run ./cmd/ftperf -lpout BENCH_lp.json -adhocout BENCH_adhoc.json

# bench-smoke is the CI form: every benchmark runs exactly once so a
# broken benchmark fails fast without paying for a measurement run. Its
# 100 ms reports go under $(SMOKE_DIR) (git-ignored), never over the tracked
# BENCH_*.json measurements. -lp-guard is the planner regression gate: at
# 200x150 the flow planner's levels must equal the reference simplex's
# per slot, and at 5kx1k a flow replan must stay under 1 s.
SMOKE_DIR := .bench_build/smoke
bench-smoke:
	$(GO) test -bench . -benchtime=1x -run '^$$' $(BENCH_PKGS)
	mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/ftperf -lpout $(SMOKE_DIR)/BENCH_lp.json -adhocout $(SMOKE_DIR)/BENCH_adhoc.json -duration 100ms -lpiters 1 -lp-guard

# bench-e2e vets and tests the whole-path benchmark harness. bench/ is a
# module of its own (BENCHMARK.json's contract), so nothing above descends
# into it; this target is what makes a core/sched API change that breaks
# the harness fail CI instead of the next benchmark run.
bench-e2e:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# loc prints the size the subtraction passes are measured by: lines of
# non-test Go in the root module.
loc:
	@printf 'non-test Go lines: '; find . -name '*.go' -not -name '*_test.go' | xargs cat | wc -l

check: vet fmt lint race cover sim-smoke bench-e2e loc
