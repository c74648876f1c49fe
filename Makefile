GO ?= go

.PHONY: check vet staticcheck build test race race-short flake-guard bench bench-json checkpoint-resume scaling-smoke yield-smoke ssta-smoke cache-smoke daemon-smoke fmt

# Full CI gate: vet + staticcheck, build, race-enabled tests (full +
# short modes), the timer-race flake guard, paper benchmarks,
# crash-safety kill/resume gate, multi-core scaling smoke,
# importance-sampling yield gate, full-chip SSTA gate, warm model-cache
# gate. Run before every merge (see README "Failure policy" / pre-merge
# gate).
check: vet staticcheck build race race-short flake-guard bench checkpoint-resume scaling-smoke yield-smoke ssta-smoke cache-smoke daemon-smoke

vet:
	$(GO) vet ./...

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
# and ssta plus the watchdog rows of the sweep policy matrix, 20 runs at
# GOMAXPROCS 1, 2 and 4 (about 35 s on 2 CPUs). A race between a
# deadline and an evaluation fails here, not in one full run in five.
flake-guard:
	$(GO) test -count=20 -cpu 1,2,4 -run 'Timeout|Cancel|Watchdog|TestSweepPolicies/.*/(cancel|timeout|hung-rung)' ./internal/core ./internal/ssta ./internal/job

# One iteration of every paper table/figure benchmark (smoke, not timing).
bench:
	$(GO) test -run Bench -bench . -benchtime 1x -count=1 .

# Machine-readable Monte-Carlo perf snapshot: the worker scaling curve
# over {1,2,4,NumCPU} (ns/sample, samples/sec, utilization and
# channel-wait fraction per point) plus allocs/sample and
# skipped/degraded/per-class failure counters, for tracking the perf
# trajectory. See README "The measured scaling curve" for the schema.
bench-json:
	$(GO) run ./cmd/lcsim bench -samples 100 -yield -min-eval-reduction 100 -out BENCH_mc.json

# Crash-safety gate: 200-sample MC, SIGKILLed mid-sweep, resumed from
# its checkpoint journal; the resumed summary must match an
# uninterrupted reference run bit for bit.
checkpoint-resume:
	sh scripts/checkpoint_resume.sh

# Multi-core scaling gate: asserts the 4-worker bench row beats the
# 1-worker row by >= 1.5x; skips itself (exit 0) on hosts with < 4 CPUs.
scaling-smoke:
	sh scripts/scaling_smoke.sh

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

fmt:
	gofmt -l -w .
