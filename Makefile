GO ?= go

.PHONY: check fmt vet gcvet build test bench bench-check fuzz-smoke lint cluster-race cluster-demo chaos crash-demo \
	fleet-race fleet-demo fleet-gray-race bench-fleet journal-race journal-compact-race bench-journal

# check is the full gate: formatting, vet, build, the race-enabled
# test suite, and the GCL linter over the example programs. CI and
# pre-commit both run exactly this.
check: fmt vet build test lint

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; \
	fi

# vet chains the stock vet suite, the repo's own gcvet analyzers
# (determinism, gas metering, leak, map-order, event-kind invariants —
# see internal/analysis/gcvet), and staticcheck when it is installed;
# offline builds without staticcheck still pass.
vet: gcvet
	$(GO) vet ./...
	$(GO) vet -vettool=bin/gcvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# gcvet builds the custom analyzer binary `go vet -vettool` loads. The
# binary embeds a content hash in its buildID handshake, so rebuilding
# it invalidates cmd/go's vet cache automatically.
gcvet:
	@mkdir -p bin
	$(GO) build -o bin/gcvet ./cmd/gcvet

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# lint runs `gclc lint` over every example. lint-demo.gcl is the
# deliberately defective program and MUST fail; every other example
# must pass (their expected benign findings are asserted by the tests
# in cmd/gclc).
lint:
	@for f in examples/gcl/*.gcl; do \
		case "$$f" in \
		*/lint-demo.gcl) \
			if $(GO) run ./cmd/gclc lint "$$f" >/dev/null 2>&1; then \
				echo "lint: $$f should have error diagnostics but passed"; exit 1; \
			fi; \
			echo "lint: $$f fails as designed";; \
		*) \
			$(GO) run ./cmd/gclc lint "$$f" || exit 1; \
			echo "lint: $$f ok";; \
		esac; \
	done

bench:
	$(GO) test -bench=. -benchmem .

# bench-check vets and tests the checkd benchmark module. It lives in its
# own module (checkbench/go.mod, replacing repro with this checkout), so
# neither ./... nor make check builds it; a signature change in the gcl,
# core or service calls it makes would otherwise break it silently.
bench-check:
	cd checkbench && $(GO) vet ./... && $(GO) test ./...

# fuzz-smoke runs the three differential fuzzers briefly: FuzzCompile
# checks the table-driven enumeration against the Eval reference,
# FuzzAnalyze the linter's exact tier against its reference sweep, both
# on generated programs, and FuzzStabilizing the stabilization checks
# against their reference procedure on generated automata.
# -run='^$$' skips the unit tests the suite already ran.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzCompile$$' -fuzztime=10s ./internal/gcl
	$(GO) test -run='^$$' -fuzz='^FuzzAnalyze$$' -fuzztime=10s ./internal/gcl/analysis
	$(GO) test -run='^$$' -fuzz='^FuzzStabilizing$$' -fuzztime=10s ./internal/core

# cluster-race gives the message-passing runtime a dedicated
# race-detector pass: it is the most concurrent code in the repository
# (actor goroutines, TCP read loops, the free-running collector).
cluster-race:
	$(GO) test -race -count=2 ./internal/cluster/...

# chaos runs a short seeded campaign under the race detector and fails
# when any episode misses the recovery SLO. The mix includes crash
# faults recovering through the snapshot store, with a storage-fault
# injector corrupting every 5th snapshot write so both recovery paths
# (validated restore and arbitrary resume) are exercised. On the
# stepped chan transport the campaign is deterministic: the measured
# worst recovery for this seed is 23 steps, so the 200-step budget only
# trips if a code change genuinely slows recovery (or breaks
# re-stabilization).
chaos:
	$(GO) run -race ./cmd/ringsim chaos -protocol dijkstra3 -p 5 -seed 7 \
		-episodes 10 -kinds corrupt,restart,partition,crash \
		-persist -persist-every 2 -storage-fault-every 5 -recovery-slo 200

# crash-demo crashes two nodes of a 5-node ring with snapshot
# persistence on a hostile store (every 7th write faulted). For this
# seed, node 1's snapshot is corrupted so it resumes from an arbitrary
# register (recovered from=arbitrary) while node 3 restores its
# validated snapshot (from=snapshot) — both re-stabilize either way.
crash-demo:
	$(GO) run ./cmd/ringsim cluster -protocol dijkstra3 -p 5 -seed 6 \
		-faults 0 -schedule "crash@40:node=1; crash@120:node=3" \
		-persist -persist-every 4 -storage-fault-every 7

# cluster-demo runs a 5-node dijkstra3 ring in-proc, injects one
# register corruption mid-run, and prints the monitor's convergence
# events: fault at step 40, re-stabilization a few dozen steps later.
cluster-demo:
	$(GO) run ./cmd/ringsim cluster -protocol dijkstra3 -p 5 -seed 6 \
		-faults 0 -schedule "corrupt@40:node=1,val=0" -snapshot-every 20

# fleet-race gives the replica fleet its own race-detector pass: real
# TCP listeners, heartbeat loops, anti-entropy rounds, and crash/restart
# cycles all running concurrently.
fleet-race:
	$(GO) test -race -count=2 ./internal/fleet/...

# fleet-demo spins a 3-replica checkd fleet in-proc and drives it with
# seeded mixed traffic while a chaos campaign crashes and partitions
# replicas on schedule (seed 5 lands 2 crashes + 2 partitions). The
# fleet must answer every request without a single 5xx — a downed owner
# costs a forward fallback or a retry on another replica, never an
# error — and must re-converge after the final heal; -fail-on-5xx makes
# any violation a non-zero exit, so this target can gate CI.
fleet-demo:
	$(GO) run ./cmd/loadgen -replicas 3 -n 500 -warmup 150 -seed 5 \
		-chaos -chaos-faults 4 -pace 5ms -fail-on-5xx

# fleet-gray-race exercises the failure-domain hardening layer under
# the race detector: breaker state machines, hedged forwards (two
# goroutines racing to answer one request), deadline-budget refusals,
# reply validation, and a flapping peer under paced traffic — then a
# seeded gray-failure campaign (slow-peer + garbage-reply +
# asym-partition) under live load. The failure detector stays green through every gray
# fault, so only the breakers, hedges, and validation stand between a
# sick peer and the tail; -fail-on-5xx makes any dropped request a
# non-zero exit.
fleet-gray-race:
	$(GO) test -race -count=2 -run \
		'Breaker|Hedge|Budget|FlapSequence|ValidateReply|Garbage' \
		./internal/fleet/...
	$(GO) run -race ./cmd/loadgen -replicas 3 -n 400 -warmup 100 -seed 9 \
		-chaos -chaos-faults 3 -chaos-kinds slow-peer,garbage-reply,asym-partition \
		-slow-delay 100ms -pace 2ms -fail-on-5xx

# bench-fleet regenerates the recorded E19 scaling baseline. The report
# is deterministic for the fixed seed, so a diff against the committed
# BENCH_fleet.json is a real regression, not noise.
bench-fleet:
	$(GO) run ./cmd/experiments -only E19 -json > BENCH_fleet.json
	@echo "wrote BENCH_fleet.json"

# journal-race gives the event journal and its consumers a dedicated
# race-detector pass: the group-commit writer and concurrent appenders,
# the service's live appends, its replay in New racing millisecond
# cache snapshots, and the fleet's journal-suffix anti-entropy all
# interleave goroutines; the kill-between-snapshots binary tests ride
# along in cmd/checkd.
journal-race:
	$(GO) test -race -count=2 ./internal/journal/... ./cmd/checkd/...
	$(GO) test -race -count=2 -run 'Journal|Replay' ./internal/service/... ./internal/fleet/...

# journal-compact-race hammers the retention layer specifically: the
# writer-goroutine compactor racing concurrent appenders, the
# degradation ladder's backpressure gate, the service retention loop
# (snapshot → SetCovered → compact), the fleet's cursor-below-horizon
# digest fallback, and the SIGKILL-mid-compaction binary test — the
# code paths where a lost wakeup or a stale horizon read would corrupt
# durable history.
journal-compact-race:
	$(GO) test -race -count=2 -run \
		'Retention|Compact|Budget|Shed|Backpressure|Horizon|TimeTravel|ReplayTo' \
		./internal/journal/... ./internal/service/... ./internal/fleet/... ./cmd/checkd/...

# bench-journal regenerates the recorded journal baselines: E20 (group
# commit, replay, torn tail) and E21 (retention: bounded disk,
# kill-mid-compaction, degradation ladder). The E21 rows and E20 replay
# rows are deterministic; the E20 throughput rows are wall-clock, so
# review a diff for a Pass:false row, not for drift in the measured
# events/s.
bench-journal:
	$(GO) run ./cmd/experiments -only E20,E21 -json > BENCH_journal.json
	@echo "wrote BENCH_journal.json"
