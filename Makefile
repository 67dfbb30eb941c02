# Verification tiers.
#
# tier1 is the gate every change must pass: full build + formatting +
# static analysis + full test suite, then the same for the nested
# benchmark module (benchmark-test), which `go build ./...` and
# `go test ./...` at the root never compile.
# tier2 adds the race detector; -short skips the heavier fault-soak and
# crash sweeps so the race run stays fast.

.PHONY: all tier1 tier2 benchmark-test portable bench fuzz-smoke bench-faults trace-smoke inspect-volume churn-smoke rejoin-smoke kv-smoke wal-smoke

all: tier1 tier2

tier1:
	go build ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	go vet ./...
	go test ./...
	$(MAKE) benchmark-test

# benchmark/ is a module of its own that imports sdsm/internal/...: an API
# change that breaks benchmark/probes.go or workloads.go shows here, not
# when the benchmark next runs. Vet plus the module's own tests, < 5 s.
benchmark-test:
	cd benchmark && go vet ./... && go test ./...

tier2:
	go vet ./...
	go test -race -short ./...

# The bulk accessors copy page bytes natively on little-endian hosts and
# decode word by word elsewhere (internal/memory/f64s_{native,portable}.go).
# No CI host is big-endian, so the portable file is kept alive twice over:
# its tests run here under -tags purego, and a big-endian cross-compile
# type-checks every package against it, the benchmark module included
# (it imports sdsm/internal/...). The two same-seed timeline tests of
# ROADMAP item 1 fail in most runs of internal/core but not all (on a
# 2-core host, go1.24: 61 of 100 at -count=10, 90 of 100 as single
# runs) and do not reach the accessors; tier1 reports them, this target
# leaves them out. The kernels' pinned images must come out of the
# per-word path too.
portable:
	go test -tags purego ./internal/memory ./internal/hlrc ./internal/core \
		-skip '^TestRunWithChurn(Partition)?Deterministic$$'
	go test -tags purego ./internal/bench -run '^TestKernelOutputsPinned$$'
	GOARCH=s390x go vet ./...
	cd benchmark && GOARCH=s390x go vet ./...

# Hot-path kernel benchmark smoke: a fixed low iteration count so CI
# catches crashes and allocation regressions (ReportAllocs output),
# not timing noise. Run manually with -benchtime=2s for real numbers.
# The application kernels' BenchmarkSolo runs a whole ScaleMedium
# problem per iteration (15-60 ms), hence their lower count.
bench:
	go test ./internal/memory/ -run xxx -bench . -benchtime=100x -count=1
	go test ./internal/hlrc/ -run xxx -bench . -benchtime=100x -count=1
	go test ./internal/wal/ -run xxx -bench . -benchtime=100x -count=1
	go test ./internal/arena/ -run xxx -bench . -benchtime=100x -count=1
	go test ./internal/transport/ -run xxx -bench . -benchtime=100x -count=1
	go test ./internal/transport/tcp/ -run xxx -bench . -benchtime=100x -count=1
	go test ./internal/apps/... -run xxx -bench . -benchtime=5x -count=1

# Every fuzz target of the packages that decode bytes they did not write
# (frames and payloads off a socket, diffs, log records), 10 s each: long
# enough to replay the seed corpus and mutate past it, short enough for
# CI. go test takes one -fuzz target per run, hence the loop. (memory's
# FuzzDecodeDiff is seeded with diffs a ScaleSmall Shallow/ML run sent;
# wal fuzzes the same decoder again inside the records that embed diffs.)
FUZZ_PKGS = ./internal/transport/tcp ./internal/hlrc ./internal/memory ./internal/wal
fuzz-smoke:
	@set -e; for pkg in $(FUZZ_PKGS); do \
		for target in $$(go test $$pkg -list '^Fuzz' | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			go test $$pkg -run xxx -fuzz "^$$target$$" -fuzztime 10s; \
		done; \
	done
	@echo "fuzz-smoke: OK"

bench-faults:
	go run ./cmd/sdsmbench -nodes 8 -faults

# End-to-end check of the tracing pipeline: export a Chrome trace from a
# real run (sdsmtrace re-reads the file and fails unless it is valid
# JSON, so the check needs nothing beyond the Go toolchain).
trace-smoke:
	go run ./cmd/sdsmtrace -app 3d-fft -protocol ccl -trace-out /tmp/sdsm-trace-smoke.json -breakdown
	@echo "trace-smoke: OK"

# Reproduce the paper's log-volume comparison from the stable logs of
# fresh runs (dissected per kind, reconciled against the flush charges).
inspect-volume:
	go run ./cmd/sdsminspect -mode volume -nodes 8 -scale small

# End-to-end check of online recovery: run the churn sweep (every crash
# point × restart delay, each run passed through the log auditor), then
# verify the adopted-home page state against the writers' logs.
churn-smoke:
	go run ./cmd/sdsmbench -nodes 4 -churn
	go run ./cmd/sdsminspect -mode audit -churn -nodes 4
	@echo "churn-smoke: OK"

# Partition-heal + rejoin soak under the race detector: the core
# partition tests (wrong death declaration, post-heal fencing, epoch
# bump, log truncation, rejoin replay, failure-free image equality on
# both wire backends, and the partition x crash-point cross,
# TestChurnCrossPartition) repeated, then the churn sweep's
# partition cells and the partition-aware adopted-home audit.
rejoin-smoke:
	go test -race ./internal/core/ -run 'Partition' -count=5
	go run -race ./cmd/sdsmbench -nodes 4 -churn
	go run -race ./cmd/sdsminspect -mode audit -churn -nodes 4
	@echo "rejoin-smoke: OK"

# End-to-end check of the kv serving workload over both wire backends:
# the sim cell runs the full matrix (failure-free + crash-during-traffic
# on both backends, image-equality enforced inside the bench), the tcp
# backend additionally runs under the race detector, and sdsminspect
# re-runs the tcp churn cell and audits its stable log. Last, the
# slowest op's trace id (a pure function of seed, node and op index) is
# taken from the trace-mode table of one run and resolved into its
# cross-node span tree by a second, independent run (an empty id leaves
# -trace-id without its argument, which fails the target).
kv-smoke:
	go run ./cmd/sdsmbench -app kv -nodes 4 -kv-ops 60
	go run -race ./cmd/sdsmbench -app kv -nodes 4 -kv-ops 60 -transport tcp
	go run ./cmd/sdsminspect -mode audit -app kv -nodes 4 -transport sim
	go run -race ./cmd/sdsminspect -mode audit -app kv -nodes 4 -transport tcp -churn
	go run ./cmd/sdsminspect -mode trace -nodes 4 -kv-ops 60 -max 1 > /tmp/sdsm-trace-table.txt
	go run ./cmd/sdsminspect -mode trace -nodes 4 -kv-ops 60 -trace-id $$(awk 'NR==3{print $$1}' /tmp/sdsm-trace-table.txt)
	@echo "kv-smoke: OK"

# End-to-end check of the WAL: the fault-soak crash suite (torn tails
# recovered against the fault-free golden image) and the churn cross
# (TestChurnCross*: fail-stop, partition/rejoin and torn tails under online
# recovery, each at every crash point), then fresh crash runs under both
# protocols audited and dissected through sdsminspect, and the kv workload
# crashed mid-traffic with online recovery, its logs audited.
wal-smoke:
	go test ./internal/core/ -run 'TestFaultSoakCrash|TestChurnCross' -count=1
	go run ./cmd/sdsminspect -mode audit -app 3d-fft -nodes 4 -scale small -crash
	go run ./cmd/sdsminspect -mode audit -app mg -nodes 4 -scale small -crash -protocol ml
	go run ./cmd/sdsminspect -mode volume -app 3d-fft -nodes 4 -scale small
	go run ./cmd/sdsminspect -mode audit -app kv -nodes 4 -transport sim -churn
	@echo "wal-smoke: OK"
