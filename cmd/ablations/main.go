// Command ablations prints the design-choice studies of DESIGN.md §6 as a
// single reproducible report (the same studies run as benchmarks via
// `go test -bench=Ablation .`, which additionally reports timings):
//
//   - chord conductance policy vs SC iteration count;
//   - ROM order vs accuracy;
//   - stability-filter variant (DC shift vs the paper's β scaling) vs
//     waveform error on the Example-1 unstable model;
//   - LHS vs plain Monte-Carlo estimator variance.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
	"lcsim/internal/experiments"
	"lcsim/internal/interconnect"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

func buildLineStage(cfg teta.Config) (*teta.Stage, error) {
	load := circuit.New()
	far := interconnect.AddLine(load, interconnect.Wire180, "near", "w", 60, 1, true)
	load.MarkPort("near")
	load.MarkPort(far)
	load.AddC("Crcv", far, "0", circuit.V(2e-15))
	return teta.BuildStage(load, []teta.DriverSpec{{Name: "d", Cell: device.INV, Drive: 4, Port: 0}}, cfg)
}

func stimulus() [][]circuit.Waveform {
	return [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}}}
}

func main() {
	chordStudy()
	orderStudy()
	filterStudy()
	lhsStudy()
	pcaStudy()
}

// pcaStudy reproduces the §4.1.1 observation the paper cites from the
// PDFAB data: a ~60-parameter device-model population driven by ~10
// latent process factors compresses to ~10 principal components.
func pcaStudy() {
	fmt.Println()
	fmt.Println("== PCA factor compression (synthetic 60-parameter population) ==")
	rng := stat.NewRNG(2002)
	const nObs, nParam, nFactor = 500, 60, 10
	loads := make([][]float64, nParam)
	for i := range loads {
		loads[i] = make([]float64, nFactor)
		for k := range loads[i] {
			loads[i][k] = rng.NormFloat64()
		}
	}
	data := make([][]float64, nObs)
	for o := range data {
		z := make([]float64, nFactor)
		for k := range z {
			z[k] = rng.NormFloat64()
		}
		row := make([]float64, nParam)
		for i := 0; i < nParam; i++ {
			for k := 0; k < nFactor; k++ {
				row[i] += loads[i][k] * z[k]
			}
			row[i] += 0.02 * rng.NormFloat64()
		}
		data[o] = row
	}
	p, err := stat.FitPCA(data)
	if err != nil {
		log.Fatal(err)
	}
	for _, frac := range []float64{0.90, 0.95, 0.99} {
		fmt.Printf("factors explaining %.0f%% of variance: %d (of %d parameters)\n",
			frac*100, p.NumFactors(frac), nParam)
	}
}

func chordStudy() {
	fmt.Println("== Chord policy vs Successive-Chords iteration count ==")
	fmt.Printf("%-8s %-14s %-14s\n", "policy", "iters/step", "fall 50% (ps)")
	for _, pol := range []teta.ChordPolicy{teta.ChordMax, teta.ChordHalf, teta.ChordSecant} {
		cfg := teta.Config{Tech: device.Tech180, DT: 2e-12, TStop: 1.5e-9, Order: 4, Chord: pol}
		st, err := buildLineStage(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := st.Run(teta.RunSpec{Inputs: stimulus()})
		if err != nil {
			log.Fatal(err)
		}
		wf, _ := res.PortWaveform(1)
		fmt.Printf("%-8s %-14.2f %-14.2f\n", pol,
			float64(res.Stats.SCIterations)/float64(res.Stats.Steps),
			wf.CrossTime(0.9, -1)*1e12)
	}
	fmt.Println()
}

func orderStudy() {
	fmt.Println("== ROM order vs accuracy (reference: order 10) ==")
	ref, err := buildLineStage(teta.Config{Tech: device.Tech180, DT: 2e-12, TStop: 1.5e-9, Order: 10})
	if err != nil {
		log.Fatal(err)
	}
	refRes, err := ref.Run(teta.RunSpec{Inputs: stimulus()})
	if err != nil {
		log.Fatal(err)
	}
	refWf, _ := refRes.PortWaveform(1)
	refCross := refWf.CrossTime(0.9, -1)
	fmt.Printf("%-8s %-12s %-16s\n", "order", "Q (states)", "crossErr (fs)")
	for _, order := range []int{2, 3, 4, 6, 8} {
		st, err := buildLineStage(teta.Config{Tech: device.Tech180, DT: 2e-12, TStop: 1.5e-9, Order: order})
		if err != nil {
			log.Fatal(err)
		}
		res, err := st.Run(teta.RunSpec{Inputs: stimulus()})
		if err != nil {
			log.Fatal(err)
		}
		wf, _ := res.PortWaveform(1)
		fmt.Printf("%-8d %-12d %-16.2f\n", order, st.BuildStats.ROMOrder,
			(wf.CrossTime(0.9, -1)-refCross)*1e15)
	}
	fmt.Println()
}

func filterStudy() {
	fmt.Println("== Stability filter variant on the Example-1 unstable model (p = 0.1) ==")
	fmt.Printf("%-8s %-16s %-16s\n", "variant", "maxErr (mV)", "cross50Err (ps)")
	for _, variant := range []struct {
		name string
		beta bool
	}{{"shift", false}, {"beta", true}} {
		cfg := teta.Config{
			Tech: device.Tech600, DT: 20e-12, TStop: 30e-9, Order: 4,
			Delta: 0.1, UseBetaStab: variant.beta,
		}
		st, err := teta.BuildStage(experiments.BuildExample1Load(), []teta.DriverSpec{{
			Name: "inv", Cell: device.INV, Drive: 2, Port: 0,
		}}, cfg)
		if err != nil {
			log.Fatal(err)
		}
		in := [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 3.3, Start: 2e-9, Slew: 0.5e-9}}}
		rs := teta.RunSpec{W: map[string]float64{experiments.Ex1Param: 0.1}, Inputs: in}
		ref, err := st.RunDirect(rs)
		if err != nil {
			log.Fatal(err)
		}
		// The per-sample extraction is where this model goes unstable; the
		// characterize-once macromodel's first-order poles stay stable at
		// p = 0.1, so Run would leave the filter nothing to remove.
		res, err := st.RunExact(rs)
		if err != nil {
			log.Fatal(err)
		}
		maxErr := 0.0
		for i := range res.T {
			d := res.PortV[0][i] - ref.PortV[0][i]
			if d < 0 {
				d = -d
			}
			if d > maxErr {
				maxErr = d
			}
		}
		wr, _ := res.PortWaveform(0)
		we, _ := ref.PortWaveform(0)
		crossErr := wr.CrossTime(1.65, -1) - we.CrossTime(1.65, -1)
		if crossErr < 0 {
			crossErr = -crossErr
		}
		fmt.Printf("%-8s %-16.2f %-16.2f\n", variant.name, maxErr*1e3, crossErr*1e12)
	}
	fmt.Println()
}

func lhsStudy() {
	fmt.Println("== LHS vs plain MC: estimator std of a monotone response mean (n = 30) ==")
	response := func(row []float64) float64 {
		return 100e-12 + 8e-12*row[0] + 5e-12*row[1] - 3e-12*row[2]
	}
	spread := func(gen func(rng *rand.Rand, n, d int) [][]float64) float64 {
		var means []float64
		for s := int64(0); s < 60; s++ {
			cube := gen(stat.NewRNG(s), 30, 3)
			acc := 0.0
			for _, r := range cube {
				acc += response(r)
			}
			means = append(means, acc/float64(len(cube)))
		}
		return stat.Std(means)
	}
	fmt.Printf("LHS   estimator std: %.1f fs\n", spread(stat.LatinHypercube)*1e15)
	fmt.Printf("plain estimator std: %.1f fs\n", spread(stat.MonteCarloCube)*1e15)
}
