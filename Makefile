# Developer entry points. The simulator is plain `go build`/`go test`;
# these targets just bundle the flags the project treats as standard.

.PHONY: all build test tier1 race bench results

all: build

build:
	go build ./...

test:
	go test ./...

# tier1 is the gate every PR must keep green: build, the full test suite,
# vet, gofmt over the tracked Go files, the race detector over the
# packages that run worker pools (experiments fan-out) or are exercised by
# them (the noc kernel), and vet plus tests of the perfbench module. That
# module is separate, so the root `go build ./...` never compiles it: an
# API change that breaks the benchmark would otherwise pass.
tier1:
	go build ./...
	go test ./...
	go vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	go test -race -timeout 30m ./internal/experiments ./internal/noc
	cd perfbench && go vet ./... && go test ./...

race:
	go test -race ./...

# bench records micro-benchmark medians (5 runs, -benchmem) into
# BENCH_noc.json; see scripts/bench.sh.
bench:
	scripts/bench.sh

results:
	go run ./cmd/experiments -exp all -scale quick
