package main

import (
	"flag"
	"strings"

	"lcsim/internal/job"
)

// runValidate builds and executes a cross-engine validation spec:
// every named backend evaluates the same sample set, and the report
// shows per-engine mean/σ plus deltas against the first (reference)
// engine:
//
//	lcsim validate -engines teta-exact,spice-golden -samples 20 -wire 40
//	lcsim validate -engines teta-fast,teta-exact -cells INV,NAND2,INV -samples 20
//
// The default mode evaluates the paper's Example-2 coupled stage (the
// Figure 4/6 workload); -cells switches to a BuildChain path evaluated
// through the core engine registry.
func runValidate(args []string) {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	enginesFlag := fs.String("engines", "teta-exact,spice-golden",
		"comma-separated engine names to compare (first is the reference)")
	samples := fs.Int("samples", 20, "samples evaluated per engine")
	wire := fs.Float64("wire", 40, "wirelength in um (Example-2 stage or per chain segment)")
	cells := fs.String("cells", "", "validate a chain path of these cells instead of the Example-2 stage")
	elems := fs.Int("elems", 10, "linear elements between chain stages (-cells mode)")
	drive := fs.Float64("drive", 2, "cell drive strength (-cells mode)")
	seed := fs.Int64("seed", 1, "sampling seed")
	sf := registerSweepFlags(fs, sweepOpts{})
	fail(fs.Parse(args))
	var engines []string
	for _, e := range strings.Split(*enginesFlag, ",") {
		if e = strings.TrimSpace(e); e != "" {
			engines = append(engines, e)
		}
	}
	spec := mustSpec("validate", sf.runSpec(*seed), job.ValidateParams{
		Engines: engines,
		Samples: *samples,
		Wire:    *wire,
		Cells:   *cells,
		Elems:   *elems,
		Drive:   *drive,
	})
	execSpec(spec, sf.DumpSpec, sf.ModelCache, sf.Progress)
}
