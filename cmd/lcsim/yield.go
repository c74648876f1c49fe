package main

import (
	"flag"
	"fmt"
	"strings"

	"lcsim/internal/job"
)

// runYield builds and executes an importance-sampling yield spec on a
// chain of library cells:
//
//	lcsim yield -cells INV,NAND2,INV -budget-sigma 4 -n 1000
//	lcsim yield -cells INV,INV -budget 400p -target-ci 1e-6 -check-mc 20000
func runYield(args []string) {
	fs := flag.NewFlagSet("yield", flag.ExitOnError)
	cells := fs.String("cells", "", "comma-separated library cell names")
	elems := fs.Int("elems", 10, "linear elements between stages")
	wireUm := fs.Float64("wire", 0, "inter-stage wire length in um (default elems/2)")
	drive := fs.Float64("drive", 2, "cell drive strength")
	stdDL := fs.Float64("std-dl", 0.33, "channel-length variation (fraction of 3σ class)")
	stdVT := fs.Float64("std-vt", 0.33, "threshold variation (fraction of 3σ class)")
	wires := fs.Bool("wires", false, "include wire-parameter variations")
	seed := fs.Int64("seed", 1, "sampling seed")
	n := fs.Int("n", 1000, "IS samples (the first round when -target-ci is set)")
	budget := fs.String("budget", "", "absolute delay budget (e.g. 400p); empty = use -budget-sigma")
	budgetSigma := fs.Float64("budget-sigma", 0, "budget position in GA sigmas above the mean (used when -budget is empty)")
	sigmaShift := fs.Float64("sigma-shift", 1, "scale on the minimum-norm boundary shift (1 = land on the first-order failure boundary)")
	sigmaInflate := fs.Float64("sigma-inflate", 1.2, "shifted-component σ inflation (must be ≥ 1; a mild hedge against GA misestimating the failure boundary)")
	defensiveMix := fs.Float64("defensive-mix", 0.1, "fraction λ of draws taken from the unshifted target density (bounds likelihood ratios by 1/λ; 0 = pure shifted proposal)")
	targetCI := fs.Float64("target-ci", 0, "grow the run by round-doubling until the 95% CI half-width ≤ this (0 = fixed -n)")
	maxN := fs.Int("max-n", 0, "adaptive growth cap (0 = 64×N when -target-ci is set)")
	samplerName := fs.String("sampler", "pseudo", "sampling plan for the shifted draw: pseudo or halton (LHS is rejected: it couples all N rows)")
	checkMC := fs.Int("check-mc", 0, "cross-check against a plain MC reference of this many samples; exit 1 if the estimates disagree beyond the combined CI")
	jsonOut := fs.Bool("json", false, "emit the result as JSON on stdout")
	sf := registerSweepFlags(fs, sweepOpts{engine: true, ckpt: true})
	fail(fs.Parse(args))
	if *cells == "" {
		fail(fmt.Errorf("yield needs -cells"))
	}
	if *budget == "" && *budgetSigma == 0 {
		fail(fmt.Errorf("yield needs -budget (seconds) or -budget-sigma (sigmas above the GA mean)"))
	}
	spec := mustSpec("yield", sf.runSpec(*seed), job.YieldParams{
		ChainParams: job.ChainParams{
			Cells:  strings.Split(*cells, ","),
			Elems:  *elems,
			WireUm: *wireUm,
			Drive:  *drive,
			StdDL:  *stdDL,
			StdVT:  *stdVT,
			Wires:  *wires,
		},
		N:            *n,
		Budget:       *budget,
		BudgetSigma:  *budgetSigma,
		SigmaShift:   *sigmaShift,
		SigmaInflate: *sigmaInflate,
		DefensiveMix: *defensiveMix,
		TargetCI:     *targetCI,
		MaxN:         *maxN,
		Sampler:      *samplerName,
		CheckMC:      *checkMC,
		JSON:         *jsonOut,
	})
	execSpec(spec, sf.DumpSpec, sf.ModelCache, sf.Progress)
}
