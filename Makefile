# Developer entry points. `make check` is the full local gate and exactly
# what CI runs: formatting, go vet, the repo's own static-analysis pass
# (cmd/repolint), the build, the tests, and the benchmark's smoke mode.
# `make race` adds the race detector on the packages that run real
# goroutines.

GO ?= go

.PHONY: check fmt vet lint lint-fast build test bench-smoke race all

all: check

check: fmt vet lint build test bench-smoke

# gofmt -l lists unformatted files; fail loudly if there are any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# repolint: determinism, concurrency-hygiene, 2PL-discipline and API
# checks (see internal/analysis). Non-zero exit on any finding.
lint:
	$(GO) run ./cmd/repolint ./...

# Inner-loop lint: report only on packages with uncommitted .go changes
# (the whole module is still loaded, so cross-package checks stay sound).
# Falls back to the full run when nothing relevant changed.
lint-fast:
	@pkgs=$$(git diff --name-only HEAD | grep '\.go$$' | grep -v '/testdata/' | xargs -r -n1 dirname | sort -u | paste -sd, -); \
	if [ -z "$$pkgs" ]; then \
		echo "lint-fast: no changed .go files; running full lint"; \
		$(GO) run ./cmd/repolint ./...; \
	else \
		echo "lint-fast: $$pkgs"; \
		$(GO) run ./cmd/repolint -only "$$pkgs" ./...; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench/ is its own module, so nothing above compiles it: without this a
# rename in internal/* leaves the gate green and the benchmark unbuildable.
# Offline, ~3 s, writes only under bench/out/.
bench-smoke:
	bash bench/run.sh --smoke

# The live cluster and the history audit are the only packages exercising
# real concurrency; everything else is single-threaded simulation.
race:
	$(GO) test -race -count=1 ./internal/live/ ./internal/history/
