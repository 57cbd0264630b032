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
# failing), the admission, body-cap, and backup/restore suites and the
# snapshot path's own (crash points inside a checkpoint and inside the
# rotation behind it, injected faults on the background write, everything
# that must wait for a write in flight, one file per checkpoint,
# concurrent restore), under -race. The mid-rotation crash test kills a
# goroutine at a point other goroutines race past, so it runs ten times
# more to shake out whatever depends on scheduling.
hardening:
	$(GO) test -race -v -run 'TestHardeningMultiTenantRecovery|TestAdmission|TestConfirmEmptyBodyAndCap|TestBackupRestore|TestRestore|TestJournal|TestHTTPServerTimeouts|TestCrashRecoveryEquivalence|TestCheckpoint' \
		./internal/server/ ./internal/persist/ ./cmd/anmat-server/
	$(GO) test -race -count=10 -run 'TestCheckpointCrashMidRotation' ./internal/persist/

fuzz:
	$(GO) test ./internal/table -run '^$$' -fuzz FuzzReadCSV -fuzztime 30s
	$(GO) test ./internal/table -run '^$$' -fuzz FuzzDecodeBinary -fuzztime 30s
	$(GO) test ./internal/persist -run '^$$' -fuzz FuzzDecodeSnapFile -fuzztime 30s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/pattern -run '^$$' -fuzz FuzzMatch -fuzztime 30s
	$(GO) test ./internal/pattern -run '^$$' -fuzz FuzzContains -fuzztime 30s
	$(GO) test ./internal/discovery -run '^$$' -fuzz FuzzEntriesAgainstReference -fuzztime 30s

# Non-test Go lines outside bench/ (frozen, a module of its own) and the
# benchmark's build directory: the size ROADMAP.md and CHANGES.md quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l

# The size ratchet, beside CI's coverage ratchet: the tree may not grow
# past the last reading. Lower LOC_CEILING when the tree shrinks; never
# raise it without saying why in CHANGES.md.
LOC_CEILING = 21618
loc-check:
	@loc=$$($(MAKE) -s loc); echo "non-test Go lines: $$loc (ceiling $(LOC_CEILING))"; [ $$loc -le $(LOC_CEILING) ]

# Requires network access to fetch the scanner and vuln DB; CI runs it.
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...
