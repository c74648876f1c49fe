package main

import (
	"flag"

	"lcsim/internal/job"
)

// runSTA builds and executes a static-timing spec on a benchmark
// circuit:
//
//	lcsim sta -bench s27                          # deterministic critical path
//	lcsim sta -bench s27 -ssta -budget 300p       # full-chip statistical STA
//	lcsim sta -bench s27 -ssta -mc 5000 -check 0.05
//
// -bench resolves a builtin benchmark name (s27, or any generated
// Table-4/5 name like s208) before falling back to a .bench netlist
// file. Without -ssta/-mc the subcommand keeps its classic output: the
// unit-delay longest latch-to-latch path. With -ssta it partitions the
// mapped circuit into fan-out-free blocks, characterizes each distinct
// block once, and reports per-sink arrival distributions plus the
// chip-level max; -mc N cross-checks against the brute-force per-sample
// reference, and -check T turns the comparison into a pass/fail gate.
func runSTA(args []string) {
	fs := flag.NewFlagSet("sta", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark name (s27, s208, ...) or .bench netlist file")
	doSSTA := fs.Bool("ssta", false, "run full-chip block-level statistical STA")
	mcN := fs.Int("mc", 0, "brute-force Monte-Carlo reference samples (0 = skip)")
	check := fs.Float64("check", 0, "fail unless SSTA and -mc agree at every sink within this relative tolerance (0 = report only)")
	budget := fs.String("budget", "", "arrival-time budget for slack/yield (e.g. 300p)")
	elems := fs.Int("elems", 10, "linear elements per inter-stage wire")
	drive := fs.Float64("drive", 2, "cell drive strength")
	stdDL := fs.Float64("std-dl", 0.33, "channel-length variation (fraction of 3σ class)")
	stdVT := fs.Float64("std-vt", 0.33, "threshold variation (fraction of 3σ class)")
	wires := fs.Bool("wires", false, "include wire-parameter variations")
	seed := fs.Int64("seed", 1, "sampling seed for the MC reference")
	jsonOut := fs.String("json", "", "write the statistical report as JSON to `file`")
	sf := registerSweepFlags(fs, sweepOpts{engine: true, ckpt: true})
	fail(fs.Parse(args))
	spec := mustSpec("sta", sf.runSpec(*seed), job.STAParams{
		Bench:   *bench,
		SSTA:    *doSSTA,
		MC:      *mcN,
		Check:   *check,
		Budget:  *budget,
		Elems:   *elems,
		Drive:   *drive,
		StdDL:   *stdDL,
		StdVT:   *stdVT,
		Wires:   *wires,
		JSONOut: *jsonOut,
	})
	execSpec(spec, sf.DumpSpec, sf.ModelCache, sf.Progress)
}
