GO ?= go

.PHONY: check vet gofmt staticcheck build test race race-short flake-guard bench checkpoint-resume yield-smoke ssta-smoke cache-smoke daemon-smoke records results fmt

# Full CI gate: vet + gofmt + staticcheck, build, race-enabled tests (full +
# short modes), the timer-race flake guard, paper benchmarks with the
# multi-core scaling gate, crash-safety kill/resume gate,
# importance-sampling yield gate, full-chip SSTA gate, warm model-cache
# gate, crash-only daemon gate, and the results-of-record diff. Run
# before every merge (see README "Failure policy" / pre-merge gate).
# Performance numbers come from the repo benchmark,
# `bash perfbench/run.sh`, not from this target.
check: vet gofmt staticcheck build race race-short flake-guard bench checkpoint-resume yield-smoke ssta-smoke cache-smoke daemon-smoke records

vet:
	$(GO) vet ./...

# Formatting gate: fails when gofmt would reformat any tracked .go file.
# It reads the list from git, so build and benchmark outputs such as
# .bench_build/ are never scanned.
gofmt:
	@files=$$(git ls-files '*.go') || exit 1; \
	out=$$(gofmt -l $$files) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Pinned staticcheck via `go run` (nothing installed); skips itself
# (exit 0, with a notice) when the tool cannot be fetched — offline
# containers still get the full rest of the gate.
staticcheck:
	sh scripts/staticcheck.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race detector over the -short subset: exercises the concurrency paths
# (worker pools, engine scratch, ladder walks) without the slow
# spice-golden cross-engine sweeps, so it stays fast enough per-commit.
race-short:
	$(GO) test -race -short ./...

# Timer-race gate: the watchdog, cancellation and timeout tests of core
# and ssta plus the watchdog and kill/resume rows of the sweep policy
# matrix, 20 runs at GOMAXPROCS 1, 2 and 4. A race between a deadline,
# a cancel or a journal flush and an evaluation fails here, not in one
# full run in five.
flake-guard:
	$(GO) test -count=20 -cpu 1,2,4 -run 'Timeout|Cancel|Watchdog|TestSweepPolicies/.*/(cancel|timeout|hung-rung|resume)' ./internal/core ./internal/ssta ./internal/job

# One iteration of every paper table/figure benchmark (smoke, not
# timing), plus the multi-core scaling gate: BenchmarkMCWorkers/speedup
# fails unless 4 workers beat 1 by >= 1.5x, and skips itself when
# GOMAXPROCS < 4.
bench:
	$(GO) test -run Bench -bench . -benchtime 1x -count=1 .

# Crash-safety gate: 200-sample MC, SIGKILLed mid-sweep, resumed from
# its checkpoint journal; the resumed summary must match an
# uninterrupted reference run bit for bit.
checkpoint-resume:
	sh scripts/checkpoint_resume.sh

# Importance-sampling yield gate: a small IS run at a 2.5σ budget must
# agree with a 20k-sample plain-MC reference within the combined CI,
# and a SIGKILLed + resumed IS run must reproduce the uninterrupted
# estimate bit for bit.
yield-smoke:
	sh scripts/yield_smoke.sh

# Full-chip SSTA gate: block-level statistical STA on s27 must agree
# with a 5k-sample brute-force MC reference within 5% on every sink's
# mean and sigma, and must print bit-identical statistics at 1 and 4
# workers.
ssta-smoke:
	sh scripts/ssta_smoke.sh

# Warm model-cache gate: a path sweep and the s27 SSTA driver each run
# twice over one -model-cache directory; the second run must report
# zero misses (no macromodel characterized twice) and print stdout
# bit-identical to the first.
cache-smoke:
	sh scripts/cache_smoke.sh

# Crash-only daemon gate: three jobs served under deterministic fault
# injection, daemon SIGKILLed mid-shard, restarted, drained with
# SIGTERM; every committed result must be bit-identical to a clean
# direct `lcsim run` of the same spec.
daemon-smoke:
	sh scripts/daemon_smoke.sh

# Results-of-record gate: Example 1 (Table 3, Figure 3, the SPICE
# divergence), the ablation study, Table 5 and Figure 7 (GA vs MC on the
# ISCAS paths) and Figure 6 (the Example-2 delay histograms) must print
# their results/ files byte for byte. They pin the stage simulator's results,
# to the printed precision: RunExact, both stability filters, the
# convolver, the DC start and the settle rule. TestRecordsDigest
# (internal/experiments) pins the Example 1 and ablation results at full
# precision.
records:
	$(GO) run ./cmd/example1 | diff -u results/example1.txt -
	$(GO) run ./cmd/ablations | diff -u results/ablations.txt -
	$(GO) run ./cmd/example3 -table5 | diff -u results/example3_table5.txt -
	$(GO) run ./cmd/example3 -figure7 | diff -u results/example3_figure7.txt -
	$(GO) run ./cmd/example2 -figure6 | diff -u results/example2_figure6.txt -

# Rewrites the five results-of-record files `make records` diffs from
# the current code. Run it only with a change meant to move them, and say
# in CHANGES.md what moved and why. It writes no timing file: timings
# belong to perfbench, and results/example2.txt and the Table 4 files are
# timing tables.
results:
	$(GO) run ./cmd/example1 > results/example1.txt.tmp && mv results/example1.txt.tmp results/example1.txt
	$(GO) run ./cmd/ablations > results/ablations.txt.tmp && mv results/ablations.txt.tmp results/ablations.txt
	$(GO) run ./cmd/example3 -table5 > results/example3_table5.txt.tmp && mv results/example3_table5.txt.tmp results/example3_table5.txt
	$(GO) run ./cmd/example3 -figure7 > results/example3_figure7.txt.tmp && mv results/example3_figure7.txt.tmp results/example3_figure7.txt
	$(GO) run ./cmd/example2 -figure6 > results/example2_figure6.txt.tmp && mv results/example2_figure6.txt.tmp results/example2_figure6.txt

fmt:
	gofmt -l -w .
