# MPICH-GQ reproduction — common tasks.

GO ?= go

.PHONY: all build vet fmt-check lint lint-json test-analysis test test-short test-chaos fuzz-smoke bench bench-micro smoke-gqd outputs results figures examples loc clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) test -race ./internal/metrics/... ./internal/sim/...
	$(GO) test -race -short ./internal/netsim/... ./internal/tcpsim/... ./internal/ctrlplane/...

# gofmt gate: every Go file outside testdata/ (analyzer fixtures keep
# their own layout) and hidden directories must be gofmt-clean.
fmt-check:
	@out=$$(find . \( -name testdata -o -name '.?*' \) -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l: unformatted Go files:"; echo "$$out"; exit 1; fi

# Custom analyzer suite (internal/analysis, driven by cmd/gqlint):
# determinism, poolownership, spanlifecycle, hotpathalloc, unitsafety.
# Must exit 0 on the whole tree; violations are either
# fixed or carry an inline //lint:ignore justification (stale
# directives are findings too). See docs/static-analysis.md.
lint: fmt-check
	$(GO) vet ./...
	$(GO) run ./cmd/gqlint ./...

# CI variant: same gate, but the full diagnostic inventory — including
# suppressed findings — is archived as JSON Lines for artifact upload.
GQLINT_JSON ?= gqlint-diagnostics.jsonl
lint-json: fmt-check
	$(GO) vet ./...
	$(GO) run ./cmd/gqlint -json ./... > $(GQLINT_JSON)
	@echo "gqlint: $$(wc -l < $(GQLINT_JSON)) diagnostic record(s) in $(GQLINT_JSON)"

# The analyzer framework's own tests: loader, suppression/stale logic,
# call graph, summaries, each analyzer's // want fixtures.
test-analysis:
	$(GO) test ./internal/analysis/... ./cmd/gqlint/

test:
	$(GO) test ./... -timeout 1800s

# Skips the slow binary-search and ablation sweeps.
test-short:
	$(GO) test ./... -short -timeout 600s

# Chaos soak: control-plane crash/restart, lossy-channel (the admission
# storm's soak included), and MPI rank-failure tests (senders blocked on
# a crashing peer must wake in one order) under the race detector, plus
# the traced-figure
# determinism regressions (-parallel 1 vs 8 byte-identical, crash
# schedules included), MPI teardown (Finalize, repeated job
# lifecycles), recycled MPI requests and kernel Close, then five rounds of the differential
# tests that pin delay lines, globus-io Serve receivers, Cond
# waiters, MPI nonblocking receives and the callback admission storm
# to the event sequences of ordinary events and of the processes they
# replace. Seeds are fixed in the tests, so runs are reproducible.
test-chaos:
	$(GO) test -race -count=1 -run 'Chaos|Soak|Crash|Breaker|Gate|TraceDeterministic|Finalize|Lifecycle|Close|Recycle' \
		./internal/ctrlplane/... ./internal/faults/... ./internal/gara/... ./internal/core/... \
		./internal/mpi/... ./internal/experiments/... ./internal/sim/... ./internal/trafficgen/... ./cmd/gqd/ \
		-timeout 900s
	$(GO) test -race -count=5 -run 'LineDifferential|ServeDifferential|AwaitDifferential|IrecvDifferential|StormDifferential' \
		./internal/sim/ ./internal/globusio/ ./internal/mpi/ ./internal/trafficgen/ -timeout 900s

# Ten seconds of each native fuzz target, starting from its committed
# corpus (testdata/fuzz/ in its package): metrics.LoadSnapshot, and the
# kernel's event queue against a reference model. Minimizing a new
# input is capped at 1 s: the corpora hold inputs of 4 KB and more (a
# 26 KB snapshot), and the default 60 s would spend the whole run
# shrinking one. The corpus seeds also run as ordinary tests under
# `make test`.
fuzz-smoke:
	$(GO) test ./internal/metrics -run '^$$' -fuzz '^FuzzLoadSnapshot$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzEventQueue$$' -fuzztime 10s -fuzzminimizetime 1s

# One pass of every figure and ablation benchmark. Performance claims
# cite the repo benchmark, BENCHMARK.json, run by bench/run.sh and
# compared with gqbench (see bench/README.md).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run xxx -timeout 1800s .

# One iteration of every per-layer micro benchmark under internal/
# (kernel, link hop, TCP, slot table, ...), so that they keep building
# and running; timings from one iteration mean nothing.
bench-micro:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# End-to-end smoke of the gqd observability daemon: short live fig5
# and ctrl runs, every endpoint must answer 200 with a body (ctrl's
# /healthz must carry its admission state), SIGTERM must shut down
# cleanly.
smoke-gqd:
	bash scripts/gqd_smoke.sh

# Every CLI's and example's output, one file per run, into OUT (garnet
# -exp all and its SVGs, the gqctl subcommands, pingpong, dvis and the
# six examples). Two trees' dumps compare with one `diff -r`; SCALE is
# garnet's -scale and scales the pingpong and dvis durations.
OUT ?= outputs
SCALE ?= 1
outputs:
	bash scripts/outputs.sh $(OUT) $(SCALE)

# Paper-length regeneration of every table and figure's text output
# (takes a while). It writes no SVGs: those are the figures target's,
# which runs the contention sweeps in fluid mode.
results:
	$(GO) run ./cmd/garnet -exp all -scale 1 > RESULTS.txt

# Figure regeneration for docs. The contention-sweep figures (fig5,
# fig6, fig7, figF) run their background traffic in hybrid fluid mode:
# same curves within the validated 2% bound, an order of magnitude
# less kernel work. Drop -fluid to regenerate the packet-level golden.
figures:
	$(GO) run ./cmd/garnet -exp fig1 -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp fig5 -fluid -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp fig6 -fluid -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp fig7 -fluid -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp fig8 -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp fig9 -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp figF -fluid -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp figG -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp figH -svgdir docs/figures >/dev/null
	$(GO) run ./cmd/garnet -exp figI -svgdir docs/figures >/dev/null

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/visualization
	$(GO) run ./examples/cpureserve
	$(GO) run ./examples/collectives
	$(GO) run ./examples/advance
	$(GO) run ./examples/selfhealing

# Non-test Go lines of the root module, bench/ and analyzer fixtures
# excluded: the size ROADMAP.md tracks.
loc:
	@find . -name '*.go' ! -path './bench/*' ! -path '*/testdata/*' ! -name '*_test.go' | xargs cat | wc -l

clean:
	$(GO) clean ./...
