# Build/test entry points.  `make ci` is the gate every change must
# pass; `make fuzz` gives the fuzz targets a short budget; `make bench`
# regenerates the figure benchmarks with the result cache disabled
# (benchmarks never install a cache, so the timings measure real
# simulations — see internal/experiments.SetCache).

GO ?= go

.PHONY: ci fmt vet lint lint-baseline staticcheck govulncheck build examples test race race-faults chaos fuzz fuzz-fault bench bench-smoke bench-shard probe-overhead wcta-conformance perfbench-check experiments clean-cache loc

ci: fmt vet lint lint-baseline build examples race race-faults chaos bench-smoke bench-shard probe-overhead fuzz-fault wcta-conformance perfbench-check staticcheck govulncheck

# Formatting gate: every tracked Go file, analyzer fixtures included,
# must be gofmt-clean.  Listing tracked files keeps build output such
# as .bench_build/ out of the check.
fmt:
	@out=$$(git ls-files -z '*.go' | xargs -0 $$($(GO) env GOROOT)/bin/gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Repo-specific invariants: hot-path allocations, determinism hazards,
# fingerprint completeness, unguarded hook calls, tile-confined writes
# in sharded phases, stale waivers (DESIGN.md §13/§18).  Exits nonzero
# on any unsuppressed finding and leaves a SARIF log for CI annotation
# surfaces.
lint:
	$(GO) run ./cmd/nocvet -sarif nocvet.sarif ./...

# Ratchet gate: fail on any finding whose stable ID is absent from the
# committed nocvet.baseline.json.  Redundant with `lint` while the
# baseline is empty; the two diverge only if a finding is ever
# deliberately baselined instead of fixed.  Refresh with
#   go run ./cmd/nocvet -write-baseline ./...
lint-baseline:
	$(GO) run ./cmd/nocvet -baseline nocvet.baseline.json ./...

# External analyzers run when the host has them; the hermetic CI image
# is offline (no module proxy), so a missing binary is a loud skip, not
# a failure.  Install locally with:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
#   go install golang.org/x/vuln/cmd/govulncheck@latest
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed; skipping (offline image)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck: not installed; skipping (offline image)"; \
	fi

build:
	$(GO) build ./...

# Library-surface smoke runs: every example but energysweep (about 17 s
# on its own) must exit 0.
examples:
	@for ex in quickstart isolation coherence tracing; do \
		echo "examples/$$ex"; \
		$(GO) run ./examples/$$ex > /dev/null || exit 1; \
	done

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused -race gate over the failure-handling machinery: fault
# injection, watchdog/degraded runs, corrupt cache entries, and the
# resumable parallel sweep with its checkpoint.  Redundant with `race`
# on a full run, but cheap enough to iterate on alone while touching
# recovery code.
race-faults:
	$(GO) test -race -count=1 \
		-run 'TestFault|TestInactiveFaults|TestWatchdog|TestDegraded|TestConservation|TestRunLoopRecovers|TestPlan|TestWindow|TestInjector|TestCorrupt|TestLoadPlan|TestParallelSweep' \
		./internal/sim ./internal/fault ./internal/simcache ./cmd/sweep

# Sweep-service chaos soak (DESIGN.md §16): in-process coordinator +
# worker fleet under a deterministic killer that hard-kills/restarts
# workers and bounces the coordinator mid-sweep, run repeatedly under
# -race.  Passes only if every job's final CSV is byte-identical to
# the serial reference — zero lost, zero duplicated points.
chaos:
	$(GO) test -race -count=3 -run 'TestChaos|TestWorkerDrain|TestCoordinator' ./internal/sweepsvc

fuzz:
	$(GO) test -fuzz=FuzzConfigJSON -fuzztime=10s ./internal/config
	$(GO) test -fuzz=FuzzFingerprint -fuzztime=10s ./internal/simcache
	$(GO) test -fuzz=FuzzPlanJSON -fuzztime=10s ./internal/fault
	$(GO) test -fuzz=FuzzWaveBalance -fuzztime=10s ./internal/wave
	$(GO) test -fuzz=FuzzFlowSetJSON -fuzztime=10s ./internal/wcta

# Short fault-plan fuzz smoke for the CI gate (full budgets above).
fuzz-fault:
	$(GO) test -fuzz=FuzzPlanJSON -fuzztime=5s ./internal/fault

# Performance gate: the exact zero-alloc steady-state guard for every
# fabric and the lazy tag store's allocation guard (both need an
# instrumentation-free build, so no -race here — the guards skip
# themselves under the race detector), then a short parallel sweep
# under -race to shake out worker/emitter races.
bench-smoke:
	$(GO) test -run='TestStepNoAlloc|TestTagStoreAlloc|TestRecvIntoReusesBuffer|TestRecvZeroesVacatedTail' -count=1 . ./internal/link
	$(GO) test -race -run='TestParallelSweep' -count=1 ./cmd/sweep

# Sharded-stepping gate (DESIGN.md §17): a 32×32 mesh stepped as four
# tiles under -race must produce results and fingerprints bit-identical
# to serial stepping, on every model with a sharded path.  The barrier
# replay also writes the probe's event ring, so the lifecycle events
# and the trace CSV must match serial stepping under -race too, and so
# must the routers each tile's activity calendar visits.
bench-shard:
	$(GO) test -race -run 'TestShardMatchesSerialGiant|TestShardedEventsMatchSerial|TestShardedTraceMatchesSerial|TestShardedActiveMatchesSerial' -count=1 ./internal/sim

# Observability budget gate (DESIGN.md §15): probed Step must stay
# within 1.10x of unprobed on the paper's fabrics.  The Overhead
# benchmarks interleave twin probed/unprobed rigs in alternating
# 500-cycle chunks and report the median per-pair ratio, which cancels
# the machine drift that makes independently-timed ratios useless for
# a 10% budget; -gate-probe makes benchjson exit nonzero on a breach.
# 100000 cycles (200 chunk pairs) per rig narrow the ratio's run-to-run
# spread.
probe-overhead:
	$(GO) test -run='^$$' -bench='^BenchmarkStep(SB|WH|Surf)Overhead$$' -benchtime=100000x -count=1 . \
		| $(GO) run ./cmd/benchjson -gate-probe 1.10

# Analytical-bound conformance smoke (DESIGN.md §14): seeded and
# deterministic, the full model × mesh × scenario × seed matrix at the
# tiny scale — a few seconds end to end.  Fails if any delivered packet
# exceeds its flow's analytical bound or a tightness anchor goes slack.
wcta-conformance:
	$(GO) run ./cmd/experiments -scale tiny -fig wcta -no-cache

# The repo benchmark (BENCHMARK.json) is a nested module that the root
# `go test ./...` never reaches: vet it and run its self-tests, so the
# fabric API it calls (sim.BuildFabric, SetShards) cannot drift from it.
perfbench-check:
	$(GO) -C perfbench vet ./... && $(GO) -C perfbench test ./...

# Benchmarks, plus a machine-readable BENCH_<date>.json report
# (ns/op per fabric model and the probe-overhead ratios) via
# cmd/benchjson.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x . | $(GO) run ./cmd/benchjson -o BENCH_$$(date +%F).json

# Regenerate every figure into results/ (cached; add FLAGS=-no-cache
# for fresh simulations).
experiments:
	$(GO) run ./cmd/experiments -scale quick -out results $(FLAGS)

clean-cache:
	rm -rf results/.simcache

# Non-test Go lines outside perfbench/ and testdata/, the size every
# change states (ROADMAP.md).  It lists files with find rather than git
# ls-files, so new files count before they are staged; hidden
# directories (.git, .bench_build) are skipped.
loc:
	@find . -path './.*' -prune -o -path ./perfbench -prune -o -name testdata -prune -o \
		-name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
