package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
	"lcsim/internal/interconnect"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// Ablations holds the design-choice studies of DESIGN.md §6:
//   - chord conductance policy vs SC iteration count;
//   - ROM order vs accuracy;
//   - stability-filter variant (DC shift vs the paper's β scaling) vs
//     waveform error on the Example-1 unstable model;
//   - LHS vs plain Monte-Carlo estimator variance;
//   - PCA factor compression of a synthetic device-parameter population.
type Ablations struct {
	Chord  []ChordRow
	Order  []OrderRow
	Filter []FilterRow
	// LHSStd and PlainStd are the estimator standard deviations (s) of a
	// monotone response mean under LHS and plain sampling.
	LHSStd, PlainStd float64
	// PCAFactors counts the factors explaining 90, 95 and 99% of the
	// synthetic population's variance.
	PCAFactors []int
}

// ChordRow is one chord policy's SC cost and output crossing.
type ChordRow struct {
	Policy       teta.ChordPolicy
	ItersPerStep float64
	Fall50       float64 // 50% (0.9 V) falling crossing of the far end, s
}

// OrderRow is one ROM order's crossing error against order 10.
type OrderRow struct {
	Order, Q int
	CrossErr float64 // far-end 0.9 V crossing minus the reference's, s
}

// FilterRow is one stability-filter variant's error against exact
// re-reduction.
type FilterRow struct {
	Variant    string
	MaxErrV    float64 // max |waveform error|, V
	Cross50Err float64 // |50% crossing error|, s
}

// pcaFractions are the explained-variance fractions of the PCA study.
var pcaFractions = []float64{0.90, 0.95, 0.99}

// pcaParams is the synthetic population's parameter count.
const pcaParams = 60

// RunAblations runs every study.
func RunAblations() (*Ablations, error) {
	a := &Ablations{}
	var err error
	if a.Chord, err = chordStudy(); err != nil {
		return nil, err
	}
	if a.Order, err = orderStudy(); err != nil {
		return nil, err
	}
	if a.Filter, err = filterStudy(); err != nil {
		return nil, err
	}
	a.LHSStd, a.PlainStd = lhsStudy()
	if a.PCAFactors, err = pcaStudy(); err != nil {
		return nil, err
	}
	return a, nil
}

// RenderAblations prints the studies as one report.
func RenderAblations(a *Ablations) string {
	var b strings.Builder
	fmt.Fprintln(&b, "== Chord policy vs Successive-Chords iteration count ==")
	fmt.Fprintf(&b, "%-8s %-14s %-14s\n", "policy", "iters/step", "fall 50% (ps)")
	for _, r := range a.Chord {
		fmt.Fprintf(&b, "%-8s %-14.2f %-14.2f\n", r.Policy, r.ItersPerStep, r.Fall50*1e12)
	}
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "== ROM order vs accuracy (reference: order 10) ==")
	fmt.Fprintf(&b, "%-8s %-12s %-16s\n", "order", "Q (states)", "crossErr (fs)")
	for _, r := range a.Order {
		fmt.Fprintf(&b, "%-8d %-12d %-16.2f\n", r.Order, r.Q, r.CrossErr*1e15)
	}
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "== Stability filter variant on the Example-1 unstable model (p = 0.1) ==")
	fmt.Fprintf(&b, "%-8s %-16s %-16s\n", "variant", "maxErr (mV)", "cross50Err (ps)")
	for _, r := range a.Filter {
		fmt.Fprintf(&b, "%-8s %-16.2f %-16.2f\n", r.Variant, r.MaxErrV*1e3, r.Cross50Err*1e12)
	}
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "== LHS vs plain MC: estimator std of a monotone response mean (n = 30) ==")
	fmt.Fprintf(&b, "LHS   estimator std: %.1f fs\n", a.LHSStd*1e15)
	fmt.Fprintf(&b, "plain estimator std: %.1f fs\n", a.PlainStd*1e15)
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "== PCA factor compression (synthetic 60-parameter population) ==")
	for i, frac := range pcaFractions {
		fmt.Fprintf(&b, "factors explaining %.0f%% of variance: %d (of %d parameters)\n",
			frac*100, a.PCAFactors[i], pcaParams)
	}
	return b.String()
}

// ablationLineStage is an inverter driving a 60 µm variational line with
// a receiver at the far end.
func ablationLineStage(cfg teta.Config) (*teta.Stage, error) {
	load := circuit.New()
	far := interconnect.AddLine(load, interconnect.Wire180, "near", "w", 60, 1, true)
	load.MarkPort("near")
	load.MarkPort(far)
	load.AddC("Crcv", far, "0", circuit.V(2e-15))
	return teta.BuildStage(load, []teta.DriverSpec{{Name: "d", Cell: device.INV, Drive: 4, Port: 0}}, cfg)
}

func ablationStimulus() [][]circuit.Waveform {
	return [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}}}
}

func chordStudy() ([]ChordRow, error) {
	var rows []ChordRow
	for _, pol := range []teta.ChordPolicy{teta.ChordMax, teta.ChordHalf, teta.ChordSecant} {
		st, err := ablationLineStage(teta.Config{Tech: device.Tech180, DT: 2e-12, TStop: 1.5e-9, Order: 4, Chord: pol})
		if err != nil {
			return nil, err
		}
		res, err := st.Run(teta.RunSpec{Inputs: ablationStimulus()})
		if err != nil {
			return nil, err
		}
		wf, _ := res.PortWaveform(1)
		rows = append(rows, ChordRow{
			Policy:       pol,
			ItersPerStep: float64(res.Stats.SCIterations) / float64(res.Stats.Steps),
			Fall50:       wf.CrossTime(0.9, -1),
		})
	}
	return rows, nil
}

func orderStudy() ([]OrderRow, error) {
	cross := func(order int) (float64, int, error) {
		st, err := ablationLineStage(teta.Config{Tech: device.Tech180, DT: 2e-12, TStop: 1.5e-9, Order: order})
		if err != nil {
			return 0, 0, err
		}
		res, err := st.Run(teta.RunSpec{Inputs: ablationStimulus()})
		if err != nil {
			return 0, 0, err
		}
		wf, _ := res.PortWaveform(1)
		return wf.CrossTime(0.9, -1), st.BuildStats.ROMOrder, nil
	}
	ref, _, err := cross(10)
	if err != nil {
		return nil, err
	}
	var rows []OrderRow
	for _, order := range []int{2, 3, 4, 6, 8} {
		c, q, err := cross(order)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OrderRow{Order: order, Q: q, CrossErr: c - ref})
	}
	return rows, nil
}

func filterStudy() ([]FilterRow, error) {
	var rows []FilterRow
	for _, variant := range []struct {
		name string
		beta bool
	}{{"shift", false}, {"beta", true}} {
		cfg := teta.Config{
			Tech: device.Tech600, DT: 20e-12, TStop: 30e-9, Order: 4,
			Delta: 0.1, UseBetaStab: variant.beta,
		}
		st, err := teta.BuildStage(BuildExample1Load(), []teta.DriverSpec{{
			Name: "inv", Cell: device.INV, Drive: 2, Port: 0,
		}}, cfg)
		if err != nil {
			return nil, err
		}
		in := [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 3.3, Start: 2e-9, Slew: 0.5e-9}}}
		rs := teta.RunSpec{W: map[string]float64{Ex1Param: 0.1}, Inputs: in}
		ref, err := st.RunDirect(rs)
		if err != nil {
			return nil, err
		}
		// The per-sample extraction is where this model goes unstable; the
		// characterize-once macromodel's first-order poles stay stable at
		// p = 0.1, so Run would leave the filter nothing to remove.
		res, err := st.RunExact(rs)
		if err != nil {
			return nil, err
		}
		wr, _ := res.PortWaveform(0)
		we, _ := ref.PortWaveform(0)
		rows = append(rows, FilterRow{
			Variant:    variant.name,
			MaxErrV:    res.MaxDiff(ref, 0),
			Cross50Err: abs(wr.CrossTime(1.65, -1) - we.CrossTime(1.65, -1)),
		})
	}
	return rows, nil
}

func lhsStudy() (lhs, plain float64) {
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
	return spread(stat.LatinHypercube), spread(stat.MonteCarloCube)
}

// pcaStudy reproduces the §4.1.1 observation the paper cites from the
// PDFAB data: a ~60-parameter device-model population driven by ~10
// latent process factors compresses to ~10 principal components.
func pcaStudy() ([]int, error) {
	rng := stat.NewRNG(2002)
	const nObs, nFactor = 500, 10
	loads := make([][]float64, pcaParams)
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
		row := make([]float64, pcaParams)
		for i := 0; i < pcaParams; i++ {
			for k := 0; k < nFactor; k++ {
				row[i] += loads[i][k] * z[k]
			}
			row[i] += 0.02 * rng.NormFloat64()
		}
		data[o] = row
	}
	p, err := stat.FitPCA(data)
	if err != nil {
		return nil, err
	}
	var n []int
	for _, frac := range pcaFractions {
		n = append(n, p.NumFactors(frac))
	}
	return n, nil
}
