# Development entry points. The performance record is the serving
# benchmark: `bash bench/run.sh` (declared in BENCHMARK.json, documented
# in bench/README.md). `make bench-quick` only checks that bench/ — a Go
# module of its own — still builds and passes its quick test against
# this tree.

GO ?= go

.PHONY: all build vet test race bench-quick pair cluster-e2e hardening fuzz vulncheck lint-obs loc loc-check

all: vet lint-obs build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Observability naming lint: metric families must match anmat_[a-z_]+
# with type-appropriate unit suffixes, and every span name in the source
# must be registered in the span catalog. See cmd/obslint.
lint-obs:
	$(GO) run ./cmd/obslint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The frozen benchmark compiles against this tree's packages; a change
# that breaks its build or its quick run (TestQuick, < 5 s) fails here.
bench-quick:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

# The paired protocol a performance claim is judged by (scripts/pair.sh):
# alternate the benchmark between a checkout of the parent commit and one
# of the change, e.g.
#   make pair PARENT=/root/scratch/parent WORKLOAD=upload_discover SEED=7919
# Every run line carries the run's CPU steal and iowait shares; a pair
# where either run's steal passes the script's MAX_STEAL is run again, up
# to its MAX_RERUNS, and past that the series is void (exit 3).
# PAIRS=0 prints the table header only (the CI dry run).
PARENT ?= .
CHANGE ?= .
WORKLOAD ?= upload_discover
SEED ?= 2019
PAIRS ?= 10
pair:
	bash scripts/pair.sh $(PARENT) $(CHANGE) $(WORKLOAD) $(SEED) $(PAIRS)

# Multi-process distributed-mode acceptance: real worker subprocesses on
# loopback TCP, golden-corpus equivalence at N=1/2/4 plus kill-a-worker
# failover. ANMAT_E2E_LOGDIR collects per-worker logs (CI uploads them).
cluster-e2e:
	$(GO) test -race -v -run 'TestE2E|TestClusterEquivalence|TestFailoverRestoresFromWAL|TestSeqIdempotencyUnderFlakyTransport' \
		./cmd/anmat-server/ ./internal/cluster/

# Hostile-traffic acceptance: multi-tenant concurrent load against
# quotas + fsync-on journal commits, crash, and byte-identical recovery —
# plus the journal's own suite (sessions committing at once, one of them
# failing), invented HTTP methods against every server and worker route
# (no new metric series), the admission suite (its upload byte and width
# caps included), out-of-range upload parameters, the body-cap and
# backup/restore suites and the snapshot path's own (crash points inside
# a checkpoint and inside the rotation behind it, injected faults on the
# background write, everything that must wait for a write in flight, one
# file per checkpoint, concurrent restore), and the batch protocol's
# write-ahead rule (the sink sees a batch before anything mutates; a
# failure after it poisons the stream and answers 500, so no sequence
# number is journaled twice), under -race. The mid-rotation crash test kills a
# goroutine at a point other goroutines race past, so it runs ten times
# more to shake out whatever depends on scheduling.
hardening:
	$(GO) test -race -v -run 'TestHardeningMultiTenantRecovery|TestAdmission|TestUploadParamsRejected|TestConfirmEmptyBodyAndCap|TestBackupRestore|TestRestore|TestJournal|TestHTTPServerTimeouts|TestCrashRecoveryEquivalence|TestCheckpoint|TestUnknownMethodsAddNoSeries|TestSinkWriteAhead|TestCoordinatorSinkWriteAhead|TestDeltasNotAppliedAnswer500' \
		./internal/server/ ./internal/persist/ ./cmd/anmat-server/ ./internal/cluster/ ./internal/stream/ ./internal/shard/
	$(GO) test -race -count=10 -run 'TestCheckpointCrashMidRotation' ./internal/persist/

fuzz:
	$(GO) test ./internal/table -run '^$$' -fuzz FuzzReadCSV -fuzztime 30s
	$(GO) test ./internal/table -run '^$$' -fuzz FuzzDecodeBinary -fuzztime 30s
	$(GO) test ./internal/persist -run '^$$' -fuzz FuzzDecodeSnapFile -fuzztime 30s
	# Each run writes and reopens a file; minimizing a 7 KB store input at
	# the default 60 s would take the run's whole budget.
	$(GO) test ./internal/docstore -run '^$$' -fuzz FuzzOpenStore -fuzztime 30s -fuzzminimizetime 3s
	$(GO) test ./internal/intern -run '^$$' -fuzz FuzzDictAgainstMap -fuzztime 30s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/tokenize -run '^$$' -fuzz FuzzTokensAgainstReference -fuzztime 30s
	$(GO) test ./internal/pattern -run '^$$' -fuzz FuzzMatch -fuzztime 30s
	$(GO) test ./internal/pattern -run '^$$' -fuzz FuzzContains -fuzztime 30s
	$(GO) test ./internal/pattern -run '^$$' -fuzz FuzzLCGAll -fuzztime 30s
	$(GO) test ./internal/pattern -run '^$$' -fuzz FuzzConstrained -fuzztime 30s
	$(GO) test ./internal/discovery -run '^$$' -fuzz FuzzEntriesAgainstReference -fuzztime 30s
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzParseTraceparent -fuzztime 30s
	# A restore runs a whole session; minimizing one of its 15 KB inputs
	# at the default 60 s would take the run's whole budget.
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzRestoreBackup -fuzztime 30s -fuzzminimizetime 3s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzViolationBodies -fuzztime 30s

# Non-test Go lines outside bench/ (frozen, a module of its own) and the
# benchmark's build directory: the size ROADMAP.md and CHANGES.md quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l

# The size ratchet, beside CI's coverage ratchet: the tree may not grow
# past the last reading. Lower LOC_CEILING when the tree shrinks; never
# raise it without saying why in CHANGES.md.
LOC_CEILING = 20511
loc-check:
	@loc=$$($(MAKE) -s loc); echo "non-test Go lines: $$loc (ceiling $(LOC_CEILING))"; [ $$loc -le $(LOC_CEILING) ]

# Requires network access to fetch the scanner and vuln DB; CI runs it.
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...
