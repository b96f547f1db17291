GO ?= go

.PHONY: all build test check fmt vet race bench fuzz-smoke figures figures-golden validate validate-smoke validate-sensitivity

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the CI gate: formatting, static analysis, and the full test
# suite under the race detector. The suite also checks every export's
# structure on the bytes its writer produces, and cmd/netsim's test runs
# every output flag.
check: fmt vet race

# bench runs the repository benchmark, simbench (see simbench/README.md),
# once per workload named in BENCHMARK.json; each run ends with one JSON
# line of metrics.
bench:
	for w in $$(jq -r '.workloads[].name' BENCHMARK.json); do \
		bash simbench/run.sh --workload $$w --trace 0 || exit 1; \
	done

# fuzz-smoke is the CI fuzz gate: a short coverage-guided walk of the
# configuration space with the conservation-law checker as the oracle,
# then of Stop/Reset/Run op scripts with the event engine checked
# against the sorted-slice reference scheduler. Run `go test
# -fuzz=FuzzConfig .` (no -fuzztime) to hunt open-ended.
fuzz-smoke:
	$(GO) test -fuzz=FuzzConfig -fuzztime=30s -run FuzzConfig .
	$(GO) test -fuzz=FuzzScheduler -fuzztime=30s -run FuzzScheduler ./internal/sim

figures:
	$(GO) run ./cmd/figures

# figures-golden regenerates the committed per-figure goldens under
# testdata/golden/ after a deliberate model change.
figures-golden:
	$(GO) test -run TestFiguresGolden -update .

# validate regenerates the committed FINDINGS baselines: the full
# hypothesis set evaluated over freshly regenerated figure tables, with
# the invariant checker armed. Exit code 1 if any gate hypothesis fails.
# Run after a deliberate model change, together with figures-golden.
validate:
	$(GO) run ./cmd/validate -out FINDINGS.md -json findings.json

# validate-smoke is the CI fidelity gate: evaluate the gate-severity
# hypotheses against freshly regenerated tables and fail on any
# out-of-band paper claim. The report lands in /tmp for artifact upload.
validate-smoke:
	$(GO) run ./cmd/validate -severity gate \
		-out /tmp/hostsim-findings.md -json /tmp/hostsim-findings.json

# validate-sensitivity runs the one-factor cost-model sweeps over the
# headline knobs, classifying paper claims as fragile or robust. Slow
# (dozens of full table regenerations) — not part of CI.
validate-sensitivity:
	$(GO) run ./cmd/validate -sens headline \
		-sens-out SENSITIVITY.md -json sensitivity.json
