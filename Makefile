# Verification tiers.
#
# tier1 is the gate every change must pass: full build + formatting +
# static analysis + full test suite, then the same for the nested
# benchmark module (benchmark-test), which `go build ./...` and
# `go test ./...` at the root never compile.
# tier2 adds the race detector; -short skips the heavier fault-soak and
# crash sweeps so the race run stays fast. Sent clocks are read by other
# goroutines without a copy, and values cut from one slab block are
# written by one goroutine and read by others (DESIGN.md §2.8), so the
# test that no sent payload changes, the slab's own test, the page
# table's diff-body test (a writer cuts each diff body on its application
# goroutine while a home's service loop reads earlier bodies of the same
# block), the tcp reader's handoff test (a connection's reader cuts each
# decoded payload and hands it to a node's service loop while it fills
# the next ones in the same blocks) and the one that grows the shared
# page-request table from several goroutines at once run ten times more
# under the detector, and so do the same-seed determinism tests, whose
# replay rests on the manager's key order and the arrival fence
# (DESIGN.md §4) holding under any schedule.
# CCL-recovery's prefetch marks and staged pages belong to the victim's
# application goroutine while the homes serve its versioned fetches, in
# the online shape too: its two tests run five times more.
# The manager's service loop and the arrival fence wait on the bound
# through one wake path (DESIGN.md §4); a lost wake-up there hangs a
# waiter only under some interleavings, and the detector's scheduling
# varies them, so the transport's fence and horizon tests run ten times.
# The home value (DESIGN.md §4, The home) holds every write the service
# makes to a home frame, so the ownership rule (DESIGN.md §2.8: the
# service writes only frame contents and twins, under nd.mu, beside the
# application's unlocked reads) and the value's order test run ten times
# more under the detector. The home's undo log is appended to by the
# service's apply and by the application's closeSelf, both under nd.mu,
# so its concurrent-append and reset tests run there too (they add about
# 1.3 s to the line's 35 s on a 2-core host).
# A node's service loop stages CCL records into its logger's buffer while
# the application goroutine flushes and compacts it, so the wal handoff
# test runs ten times under the detector.
# The crash sweep, the replay's regression net, runs 20 times without the detector (-race -short skips it, and -race stays off it: ROADMAP item 2).
# Allocation pins must not depend on when the collector runs, on test
# order or on the processor count (ROADMAP item 28), so the whole suite
# runs once more under each of GOGC=5, -shuffle=on, GOMAXPROCS=1 and
# GOMAXPROCS=8: 6 to 10 s each on a 2-core host with a warm build cache.

.PHONY: all tier1 tier2 benchmark-test portable bench fuzz-smoke bench-faults trace-smoke inspect-volume churn-smoke rejoin-smoke kv-smoke wal-smoke loc

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
	go test -race -count=10 -run '^(TestSentPayloadsNeverChange|TestPageReqConstants)$$' ./internal/hlrc
	go test -race -count=10 -run '^TestSlab$$' ./internal/arena
	go test -race -count=10 -run '^TestPageTableDiffBodies$$' ./internal/memory
	go test -race -count=10 -run '^TestReaderHandoff$$' ./internal/transport/tcp
	go test -race -count=10 -run '^TestRunWithChurn(Partition)?Deterministic$$' ./internal/core
	go test -race -count=10 -run '^TestTraceDeterministicUnderFaults$$' ./internal/bench
	go test -race -count=5 -run '^(TestCCLPrefetchFollowsUse|TestLateFirstServeRecovery)$$' ./internal/core
	go test -race -count=10 -run 'Fence|Horizon' ./internal/transport/...
	go test -race -count=10 -run '^(TestUnlockedHomeReadsBesideIncomingDiffs|TestHomeArrivalOrders|TestHomeUndoLogConcurrentAppends|TestHomeUndoResetDropsHistory)$$' ./internal/hlrc
	go test -race -count=10 -run '^TestCCLStagingHandoff$$' ./internal/wal
	go test -count=20 -run '^TestFuzzCrashSweep$$' ./internal/core
	GOGC=5 go test -count=1 ./...
	go test -count=1 -shuffle=on ./...
	GOMAXPROCS=1 go test -count=1 ./...
	GOMAXPROCS=8 go test -count=1 ./...

# The bulk accessors copy page bytes natively on little-endian hosts and
# decode word by word elsewhere (internal/memory/f64s_{native,portable}.go).
# No CI host is big-endian, so the portable file is kept alive twice over:
# its tests run here under -tags purego, and a big-endian cross-compile
# type-checks every package against it, the benchmark module included
# (it imports sdsm/internal/...). The kernels' pinned images must come
# out of the per-word path too.
portable:
	go test -tags purego ./internal/memory ./internal/hlrc ./internal/core
	go test -tags purego ./internal/bench -run '^TestKernelOutputsPinned$$'
	GOARCH=s390x go vet ./...
	cd benchmark && GOARCH=s390x go vet ./...

# Hot-path kernel benchmark smoke: a fixed low iteration count so CI
# catches crashes and allocation regressions (ReportAllocs output),
# not timing noise. Run manually with -benchtime=2s for real numbers.
# Each of the four application kernels has a BenchmarkSolo that runs a
# whole ScaleMedium problem per iteration (Water 4-7 ms, the others
# 15-70 ms), hence their lower count; their allocs/op guard the kernels'
# own buffers.
bench:
	go test ./internal/memory/ -run xxx -bench . -benchtime=100x -count=1
	go test ./internal/hlrc/ -run xxx -bench . -benchtime=100x -count=1
	go test ./internal/wal/ -run xxx -bench . -benchtime=100x -count=1
	go test ./internal/arena/ -run xxx -bench . -benchtime=100x -count=1
	go test ./internal/transport/ -run xxx -bench . -benchtime=100x -count=1
	go test ./internal/transport/tcp/ -run xxx -bench . -benchtime=100x -count=1
	go test ./internal/apps/... -run xxx -bench . -benchtime=5x -count=1

# Every fuzz target of the packages that decode bytes they did not write
# (frames and payloads off a socket, diffs, log records, checkpoint meta
# blocks), 10 s each: long enough to replay the seed corpus and mutate
# past it, short enough for CI. go test takes one -fuzz target per run,
# hence the loop. (memory's FuzzDecodeDiff is seeded with diffs a
# ScaleSmall Shallow/ML run sent; wal fuzzes the same decoder again inside
# the records that embed diffs.)
FUZZ_PKGS = ./internal/transport/tcp ./internal/hlrc ./internal/memory ./internal/wal ./internal/checkpoint
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
# real run (sdsminspect -mode run re-reads the file and fails unless it
# is valid JSON, so the check needs nothing beyond the Go toolchain).
trace-smoke:
	go run ./cmd/sdsminspect -mode run -app 3d-fft -protocol ccl -trace-out /tmp/sdsm-trace-smoke.json -breakdown
	@echo "trace-smoke: OK"

# Reproduce the paper's log-volume comparison from the stable logs of
# fresh runs (dissected per kind, reconciled against the flush charges).
inspect-volume:
	go run ./cmd/sdsminspect -mode volume -nodes 8 -scale small

# End-to-end check of online recovery: run the churn sweep (every crash
# point x restart delay, then the partition/rejoin cells). Every run
# passes the log auditor, ends with the failure-free run's image, and has
# each adopted home's custody entries from never-crashed writers match
# the diffs those writers logged.
churn-smoke:
	go run ./cmd/sdsmbench -nodes 4 -churn
	@echo "churn-smoke: OK"

# Partition-heal + rejoin soak under the race detector: the membership's
# event orders and the partition cut on the wire (the onset writes the
# heal time on the victim's goroutine, and every sender reads it), the
# core partition tests (wrong death declaration, post-heal fencing, epoch
# bump, log truncation, rejoin replay, failure-free image equality on
# both wire backends, and the partition x crash-point cross,
# TestChurnCrossPartition) repeated, the home-failover outcomes (a
# crash races the reply slot against the peer's crash channel in real
# time) soaked, then the churn sweep, its partition cells and their
# log, image and custody checks included.
rejoin-smoke:
	go test -race -count=5 ./internal/transport -run 'TestMembershipEventOrders|TestPartitionCutsSends'
	go test -race ./internal/core/ -run 'Partition' -count=5
	go test -race ./internal/hlrc/ -run 'TestHomeFailoverOutcomes' -count=20
	go run -race ./cmd/sdsmbench -nodes 4 -churn
	@echo "rejoin-smoke: OK"

# End-to-end check of the kv serving workload over both wire backends:
# the sim cell runs the full matrix (failure-free + crash-during-traffic
# on both backends, image-equality enforced inside the bench), the tcp
# backend additionally runs under the race detector, and sdsminspect
# re-runs the sim cell and the tcp churn cell through the same kv cell
# runner and dissects their stable logs. Last, the
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

# Go source lines per package of module sdsm, non-test and test files
# apart, then the totals. benchmark/ is a module of its own and is not
# counted, nor is anything under a dot directory (build caches).
loc:
	@find . -name '.?*' -prune -o -path ./benchmark -prune -o -name '*.go' -print \
		| xargs wc -l | awk '$$2 != "total" { \
			d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\./, "sdsm", d); \
			if ($$2 ~ /_test\.go$$/) { t[d] += $$1; tt += $$1 } else { n[d] += $$1; nt += $$1 } \
			seen[d] = 1 } \
		END { printf "%-32s %9s %9s\n", "package", "non-test", "test"; \
			for (d in seen) printf "%-32s %9d %9d\n", d, n[d], t[d] | "sort"; close("sort"); \
			printf "%-32s %9d %9d\n", "total", nt, tt }'
