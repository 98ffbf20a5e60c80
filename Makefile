# FlowTime build/test targets. `make check` is the CI gate: vet plus the
# full test suite — including the rmserver chaos tests and durability
# oracles, which `make chaos` also runs on their own — under the race
# detector, plus a coverage run, the sim-smoke scenario replay and the
# benchmark harness's own build and tests (bench-e2e). `make verify` is
# the differential verification sweep (the flow planner's certificates
# against the exact checker, brute force and min-cut cross-checks,
# metamorphic relations — gate reservations yield to
# deadlines, every FlowTime slot is work-conserving, striking the ad-hoc
# jobs from a slot gives deadline work only the capacity they had taken
# — and sim invariants); `make fuzz`
# runs short fuzz bursts over the WAL framing, the front-coded string
# primitive the binary codecs share (FuzzFrontString), the
# WAL record codec (FuzzDecodeWALRecord, run from internal/rmserver's tests
# over internal/rmstate's codec; the plan records it no longer reads and
# the records with literal quantum IDs, which a record may no longer hold,
# stay among its seeds, refused), the snapshot's restore (FuzzRestoreSnapshot,
# with a version-6 seed that held a plan, refused),
# the binary heartbeat and submission codecs
# (FuzzHeartbeatCodec, FuzzSubmitCodec), the flow planner, the status
# query, and the heartbeat, submission and replication request
# bodies. `make loc` prints the non-test and the test Go
# line counts the subtraction passes are measured by; `make check` ends with them.

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
# restart, replicated failover, fencing, disk-fault injection, a FlowTime
# ftrm reporting its scheduler's plan with no flag) and the durability oracles
# (recovery equivalence; live ≡ replay, leases included, into the server
# and into a bare internal/rmstate value) under the race detector with a
# hard ceiling.
chaos:
	$(GO) test -race -timeout 300s -run 'Chaos|KillAndRestart|Graceful|Failover|Fencing|Replicator|Fault|Crash|CommitFail|RecoveryEquivalence|LiveEqualsReplay|PlanByDefault' ./cmd/ftrm/ ./internal/rmserver/ ./internal/store/

# chaos-net runs the network chaos suites: the partition/flap/split-brain
# scenarios, each cutting links and losing replies through an
# http.RoundTripper of its own that a flag or a request count drives, and
# the agent's retry loop (bounded jitter, backoff after a refused
# heartbeat, rotation rate, failover from a wedged RM) — all in-process,
# all under the race detector with a hard ceiling. TestDocsNameWhatExists
# checks that every pattern here names a test that exists.
chaos-net:
	$(GO) test -race -timeout 300s -run 'NetChaos|RetryBacksOff|Jitter|AgentAllRMsUnreachable|AgentLeavesWedgedRM|AgentKeepsLeases' ./internal/rmserver/

# cover writes the per-package coverage summary to coverage.txt (kept as
# a CI artifact; informational, no hard gate — see DESIGN.md §8.7).
cover:
	$(GO) test -cover ./... | tee coverage.txt

# verify is the differential sweep: 500 seeded cases holding the flow
# planner's certificates (every level's min cut and exact flow, stage A's
# cuts) to the exact checker, the planner to brute force / min-cut oracles
# and the metamorphic relations on tiny instances, the
# reservations-yield relation (a gate reservation routed last changes no
# deadline job's stage A shortfall, and what survives is the certified
# joint max flow minus the deadline jobs' own), the
# decomposition oracle, and full-pipeline sim runs with the invariant
# checker armed and every Assign held to work conservation (a resource
# kind with capacity left has no ready job short of its request; a
# deadline job runs before its release only where no ad-hoc job is
# short) and to the per-slot ad-hoc-removal relation (what deadline work
# is granted ahead of the ad-hoc jobs — plan, overdue, backlog — is what
# it is granted with them struck out), once as estimated and once under
# chaos. It ends with the RM's overload family (TestOverloadFamily):
# 16 seeded runs of the whole RM at 1.0x-2.0x deadline load, with ad-hoc
# bursts, best-effort workflows, nodes killed mid-lease and one restart
# of the RM from its store, every slot held to work conservation,
# per-node capacity, whole-task leases and the job ledgers, every run to
# live = replay and recovery equivalence. Beside it run the TestSimIsTheRM
# tests (OnOneNode, OnNodes, UnderFailure):
# 12 seeded small workloads, and on one node the figures' 40
# oracle.GenScenario seeds too, complete every job in the same slot in
# sim.Run and in the RM, ticked and heartbeaten node by node, slot by
# slot under FlowTime, EDF and FIFO: on one node, on 3-4 nodes, and on
# 3-4 nodes with one killed holding leases, where the simulator's machine
# fails and the RM expires the node at the same tick.
# Reproduce a failure with:
# go run ./cmd/ftverify -n 1 -seed <s> -v
verify:
	$(GO) run ./cmd/ftverify -n 500 -seed 1
	$(GO) test -count=1 -run 'TestOverloadFamily$$|TestSimIsTheRMOnOneNode$$|TestSimIsTheRMOnNodes$$|TestSimIsTheRMUnderFailure$$' ./internal/rmserver/

# fuzz runs short bursts of the store framing, front-coded string,
# WAL record codec, snapshot and heartbeat and submission
# body codec fuzz targets
# (every codec: no panic, an accepted input re-encodes to itself; a
# record is safe to apply; a snapshot is refused or restores to a
# state whose snapshot restores to the same bytes) from the checked-in seed corpora
# (testdata/fuzz/) and in-code seeds, the flow planner target (both
# stages' certificates pass the exact checker on adversarial capacities
# and demands, overflow-sized ones included), the GET /v1/status query target (any
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
# is a duplicate that changes nothing) and the replication body target (any
# POST /repl/v1/ship or /repl/v1/fence body, plain or gzipped, on a store-backed primary, is
# a 4xx that changes nothing, a not_leader 503 or a 200 — a ship batch no
# longer than head minus from, a fence exactly when its epoch is above the
# RM's, after which every mutation is refused).
fuzz:
	$(GO) test -fuzz FuzzDecodeRecord -fuzztime 10s -run '^$$' ./internal/store/
	$(GO) test -fuzz FuzzRoundTripWithCorruption -fuzztime 10s -run '^$$' ./internal/store/
	$(GO) test -fuzz FuzzDecodeAll -fuzztime 10s -run '^$$' ./internal/store/
	$(GO) test -fuzz FuzzFrontString -fuzztime 10s -run '^$$' ./internal/binenc/
	$(GO) test -fuzz FuzzDecodeWALRecord -fuzztime 10s -run '^$$' ./internal/rmserver/
	$(GO) test -fuzz FuzzRestoreSnapshot -fuzztime 10s -run '^$$' ./internal/rmstate/
	$(GO) test -fuzz FuzzHeartbeatCodec -fuzztime 10s -run '^$$' ./internal/rmproto/
	$(GO) test -fuzz FuzzSubmitCodec -fuzztime 10s -run '^$$' ./internal/rmproto/
	$(GO) test -fuzz FuzzFlowSkyline -fuzztime 10s -run '^$$' ./internal/flow/
	$(GO) test -fuzz FuzzStatusQuery -fuzztime 10s -run '^$$' ./internal/rmserver/
	$(GO) test -fuzz FuzzHeartbeatBody -fuzztime 10s -run '^$$' ./internal/rmserver/
	$(GO) test -fuzz FuzzSubmitBody -fuzztime 10s -run '^$$' ./internal/rmserver/
	$(GO) test -fuzz FuzzReplBody -fuzztime 10s -run '^$$' ./internal/rmserver/

# sim-smoke replays the small bundled scenario trace (testdata/
# scenario-smoke.json, emitted by `ftgen -scenario flash -machines 40
# -days 1 -seed 42`, which scenario's TestSmokeTraceIsItsGenerator
# checks byte for byte) through the machine-granular simulator with the
# per-machine invariant checker armed, then replays a generated churn
# scenario so join/fail/scale events are exercised too, and a generated
# stragglers scenario, the one whose jobs run off their estimates (2-4x
# for a quarter of them), under FlowTime. Each finishes in well under a
# second.
sim-smoke:
	$(GO) run ./cmd/ftsim -trace testdata/scenario-smoke.json -machines 40 -slot 60s -horizon 1440 -sched FlowTime -invariants
	$(GO) run ./cmd/ftsim -scenario churn -machines 40 -days 1 -seed 42 -sched EDF -invariants
	$(GO) run ./cmd/ftsim -scenario stragglers -machines 40 -days 1 -seed 42 -sched FlowTime -invariants

# bench runs the micro-benchmarks — among them internal/flow's
# BenchmarkLexMinMax, one replan's skyline at the paper's Fig. 7 scale
# (5,000 jobs x 1,000 slots), its BenchmarkShortfall, stage A on three
# probes up to 10,000 jobs at ten times the capacity, and
# internal/rmstate's lease confirmation. What the RM's control plane costs end to
# end, the ad-hoc gate's admissions included, is bench/'s to measure
# (go run -C bench .).
BENCH_PKGS := ./internal/rmserver/ ./internal/rmstate/ ./internal/flow/ ./internal/deadline/ ./internal/sim/
bench:
	$(GO) test -bench . -benchtime=500ms -run '^$$' $(BENCH_PKGS)

# bench-smoke is the CI form: every benchmark runs exactly once so a
# broken benchmark fails fast without paying for a measurement run.
# BenchmarkLexMinMax is the planner regression gate: its 5000x1000 replan
# fails over 1 s, and its certificate must pass the exact checker.
# BenchmarkShortfall holds each probe's stage A routing to the reference
# that lets the jobs in one at a time, each augmented to its maximum and
# re-walking what a short job cut off (~30 s of the run, nearly all of it
# the overloaded probe's reference). BenchmarkFirstTickAtScale fails when
# its 9,600-job first tick's planner scans more arcs, the plan it
# publishes holds more allocation cells, or its record grants more leases
# than ceilings set 25 % over the counts they were set at (counts, not
# times, so they hold on any machine); stage A routed through that
# reference trips the first, plan rows spanning the whole plan instead of
# their job's window the second, and grants placed as volume split kind by
# kind instead of whole tasks the third. It also fails when that tick
# allocates more than 80 MB (its first_tick_B; 70.1 MB when set on
# go1.24.0, 14 % under the ceiling), which a stage B that lays out again
# the network stage A built (91.3 MB) trips. BenchmarkPathAtScale drives a
# FlowTime RM over a durable store through 200 workflows and ad-hoc
# bursts to completion and fails when a heartbeat round costs more than
# one fsync on average (a count; a round costs none, its records riding
# the next commit), the WAL grows more than 5,400 B a slot (its
# wal_kb_per_slot; 4,314 B when set, plus 25 %), the tick ring's phases
# sum to less than 0.90 or more than 1.10 of the ticks' wall time, a job
# never completes, or the store recovered as a follower at the end does
# not hold the live state byte for byte.
bench-smoke:
	$(GO) test -bench . -benchtime=1x -run '^$$' $(BENCH_PKGS)

# bench-e2e vets and tests the whole-path benchmark harness. bench/ is a
# module of its own (BENCHMARK.json's contract), so nothing above descends
# into it; this target is what makes a core/sched API change that breaks
# the harness fail CI instead of the next benchmark run.
bench-e2e:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# loc prints the sizes the subtraction passes are measured by: lines of
# non-test Go, then of test Go, in the root module (bench/ is a module of
# its own).
loc:
	@printf 'non-test Go lines: '; find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
	@printf 'test Go lines: '; find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

check: vet fmt lint race cover sim-smoke bench-e2e loc
