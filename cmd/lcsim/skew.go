package main

import (
	"flag"

	"lcsim/internal/job"
)

// runSkew builds and executes a skew spec — the arrival-time difference
// between two buffer-chain branches with shared wire variations:
//
//	lcsim skew -stages-a 3 -wire-a 120 -stages-b 3 -wire-b 100 -mc 60
func runSkew(args []string) {
	fs := flag.NewFlagSet("skew", flag.ExitOnError)
	stagesA := fs.Int("stages-a", 3, "buffers on branch A")
	wireA := fs.Float64("wire-a", 120, "per-stage wire length on branch A, um")
	stagesB := fs.Int("stages-b", 3, "buffers on branch B")
	wireB := fs.Float64("wire-b", 100, "per-stage wire length on branch B, um")
	mcN := fs.Int("mc", 60, "Monte-Carlo samples")
	seed := fs.Int64("seed", 1, "sampling seed")
	sf := registerSweepFlags(fs, sweepOpts{engine: true, ckpt: true})
	fail(fs.Parse(args))
	spec := mustSpec("skew", sf.runSpec(*seed), job.SkewParams{
		StagesA: *stagesA,
		WireA:   *wireA,
		StagesB: *stagesB,
		WireB:   *wireB,
		MC:      *mcN,
	})
	execSpec(spec, sf.DumpSpec, sf.ModelCache, sf.Progress)
}
