package main

import (
	"flag"
	"fmt"
	"strings"

	"lcsim/internal/job"
)

// runPath builds and executes a statistical path-delay spec — a chain
// of library cells with interconnect between stages:
//
//	lcsim path -cells INV,NAND2,NOR2 -elems 50 -mc 100 -ga -worst -budget 400p
func runPath(args []string) {
	fs := flag.NewFlagSet("path", flag.ExitOnError)
	cells := fs.String("cells", "", "comma-separated library cell names")
	elems := fs.Int("elems", 10, "linear elements between stages")
	wireUm := fs.Float64("wire", 0, "inter-stage wire length in um (default elems/2)")
	drive := fs.Float64("drive", 2, "cell drive strength")
	mcN := fs.Int("mc", 0, "Monte-Carlo samples (0 = skip)")
	ga := fs.Bool("ga", false, "run Gradient Analysis")
	worst := fs.Bool("worst", false, "run the worst-case corner search")
	budget := fs.String("budget", "", "delay budget for yield (e.g. 400p)")
	stdDL := fs.Float64("std-dl", 0.33, "channel-length variation (fraction of 3σ class)")
	stdVT := fs.Float64("std-vt", 0.33, "threshold variation (fraction of 3σ class)")
	wires := fs.Bool("wires", false, "include wire-parameter variations")
	seed := fs.Int64("seed", 1, "sampling seed")
	sf := registerSweepFlags(fs, sweepOpts{sampler: true, engine: true, ckpt: true})
	fail(fs.Parse(args))
	if *cells == "" {
		fail(fmt.Errorf("path needs -cells"))
	}
	spec := mustSpec("path", sf.runSpec(*seed), job.PathParams{
		ChainParams: job.ChainParams{
			Cells:  strings.Split(*cells, ","),
			Elems:  *elems,
			WireUm: *wireUm,
			Drive:  *drive,
			StdDL:  *stdDL,
			StdVT:  *stdVT,
			Wires:  *wires,
		},
		MC:      *mcN,
		GA:      *ga,
		Worst:   *worst,
		Budget:  *budget,
		Sampler: sf.SamplerName,
	})
	execSpec(spec, sf.DumpSpec, sf.ModelCache, sf.Progress)
}
