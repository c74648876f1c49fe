// Command ablations prints the design-choice studies of DESIGN.md §6 as a
// single reproducible report (the same studies run as benchmarks via
// `go test -bench=Ablation .`, which additionally reports timings):
//
//   - chord conductance policy vs SC iteration count;
//   - ROM order vs accuracy;
//   - stability-filter variant (DC shift vs the paper's β scaling) vs
//     waveform error on the Example-1 unstable model;
//   - LHS vs plain Monte-Carlo estimator variance;
//   - PCA factor compression of a synthetic device-parameter population.
package main

import (
	"fmt"
	"log"

	"lcsim/internal/experiments"
)

func main() {
	a, err := experiments.RunAblations()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderAblations(a))
}
