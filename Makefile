GO ?= go
BIN := $(CURDIR)/bin

.PHONY: all build test race lint checked examples bench fig7 fuzz-smoke chaos serve fmt clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# The linter binary is a real file target, rebuilt only when its sources
# change, so repeated `make lint` runs skip the build.
LINT_SRC := $(shell find cmd/fdiamlint internal/analysis -name '*.go' -not -path '*/testdata/*')

$(BIN)/fdiamlint: $(LINT_SRC) go.mod
	mkdir -p $(BIN)
	$(GO) build -o $@ ./cmd/fdiamlint

# lint runs go vet plus the project analyzers (cmd/fdiamlint) over the
# whole module, test files included, exactly as CI does. Stale
# //fdiamlint:ignore directives are findings. The driver's own tests
# (go test ./cmd/fdiamlint) pin its findings on the broken ci/negative
# fixture.
lint: $(BIN)/fdiamlint
	$(GO) vet ./...
	$(BIN)/fdiamlint ./...

# checked runs the core tests with the fdiam.checked assertion layer armed:
# paper-theorem invariants at runtime plus the naive-baseline differential.
checked:
	$(GO) test -tags fdiam.checked -count=1 ./internal/core/...

# examples runs every examples/* main, as CI does; each must exit 0.
examples:
	set -e; for d in examples/*/; do echo "go run ./$$d"; $(GO) run "./$$d"; done

# bench runs the repository benchmark (perfbench/, declared in
# BENCHMARK.json) on every workload; see perfbench/README.md for its flags.
bench:
	python3 perfbench/run.py --workload all

# fig7 runs the paper's Figure 7 thread sweep (workers 1 and 2) over the
# catalog, the report every change to the parallel layers gives. Not in
# CI: at SCALE=full it takes minutes.
SCALE ?= quick

fig7:
	$(GO) run ./cmd/experiments -run fig7 -scale $(SCALE) -workers 2

fuzz-smoke:
	$(GO) test -tags fdiam.checked -fuzz=FuzzDiameterMatchesNaive -fuzztime=15s -run='^$$' ./internal/core/
	$(GO) test -fuzz=FuzzReadAuto -fuzztime=15s -run='^$$' ./internal/graphio/
	$(GO) test -fuzz=FuzzReadMETIS -fuzztime=15s -run='^$$' ./internal/graphio/
	$(GO) test -fuzz=FuzzEdgeListMatchesReference -fuzztime=15s -run='^$$' ./internal/graphio/
	$(GO) test -fuzz=FuzzMultiSourceMatchesSingleSource -fuzztime=15s -run='^$$' ./internal/bfs/

# chaos runs the crash-safety end-to-end test: build a real fdiamd, kill -9
# it mid-solve, restart it over the same -checkpoint-dir, and verify the
# orphaned solve resumes from its snapshot and reaches the same diameter.
chaos:
	$(GO) test -run 'TestChaosKillDashNineAndResume' -count=1 -v ./cmd/fdiamd/

# serve builds and starts a local fdiamd on :8080. Ctrl-C (or SIGTERM)
# drains gracefully: in-flight solves return their best lower bound first.
serve:
	mkdir -p $(BIN)
	$(GO) build -o $(BIN)/fdiamd ./cmd/fdiamd
	$(BIN)/fdiamd -addr :8080

fmt:
	gofmt -l -w .

clean:
	rm -rf $(BIN)
