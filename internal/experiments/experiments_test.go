package experiments

import (
	"math"
	"strings"
	"testing"

	"lcsim/internal/circuit"
	"lcsim/internal/core"
	"lcsim/internal/iscas"
	"lcsim/internal/spice"
	"lcsim/internal/teta"
)

func TestExample1LoadMatchesTable2(t *testing.T) {
	nl := BuildExample1Load()
	st := nl.Stats()
	// 6 conductors (2 lines × 3 segments), 1 shunt resistor, 9 capacitors
	// (6 ground + 3 coupling).
	if st.Conductors != 6 || st.Resistors != 1 || st.Capacitors != 9 {
		t.Fatalf("element counts: %+v", st)
	}
	if len(nl.Ports()) != 1 {
		t.Fatal("Example 1 is a one-port load")
	}
	// Endpoint check of Table 2 at p = 0 and p = 0.1.
	w0 := map[string]float64{}
	w1 := map[string]float64{Ex1Param: 0.1}
	g1 := nl.Conductors[0] // first segment of line a
	if !almostEq(1/g1.G.Eval(w0), 10, 1e-9) || !almostEq(1/g1.G.Eval(w1), 15, 1e-9) {
		t.Fatalf("R1 endpoints wrong: %g %g", 1/g1.G.Eval(w0), 1/g1.G.Eval(w1))
	}
	c1 := nl.Capacitors[0]
	if !almostEq(c1.C.Eval(w1), 3e-12, 1e-24) {
		t.Fatalf("C1 at p=0.1: %g", c1.C.Eval(w1))
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTable3ReproducesInstabilityOnset(t *testing.T) {
	res, err := RunTable3(4, []float64{0, 0.02, 0.05, 0.06, 0.08, 0.09, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	byP := map[float64]Table3Row{}
	for _, r := range res.Rows {
		byP[r.P] = r
	}
	// Stable at small p.
	if byP[0].NumUnstable != 0 || byP[0.02].NumUnstable != 0 {
		t.Fatal("model must be stable near nominal")
	}
	// Unstable from p = 0.05 on (the paper's Table 3 range).
	for _, p := range []float64{0.05, 0.06, 0.08, 0.09, 0.1} {
		if byP[p].NumUnstable == 0 {
			t.Fatalf("expected instability at p=%g", p)
		}
	}
	// The unstable pole magnitude decreases with p (Table 3's trend).
	if !(byP[0.05].UnstablePole > byP[0.06].UnstablePole &&
		byP[0.06].UnstablePole > byP[0.08].UnstablePole &&
		byP[0.08].UnstablePole > byP[0.1].UnstablePole) {
		t.Fatalf("pole magnitudes not decreasing: %+v", res.Rows)
	}
	// Same order of magnitude as the paper at p=0.1 (3.75e12 there).
	if byP[0.1].UnstablePole < 1e11 || byP[0.1].UnstablePole > 1e14 {
		t.Fatalf("pole at p=0.1 = %g, out of expected range", byP[0.1].UnstablePole)
	}
	if out := RenderTable3(res); !strings.Contains(out, "stable") {
		t.Fatal("render must mark stable entries")
	}
}

func TestFigure3Agreement(t *testing.T) {
	res, err := RunFigure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("want 3 series, got %d", len(res.Series))
	}
	// The paper's claim: nominal, extreme and reconstructed macromodel
	// agree well at p=0.1.
	if res.MaxErrV > 0.1 {
		t.Fatalf("reconstruction error %g V too large", res.MaxErrV)
	}
	if res.Cross50ErrS > 200e-12 { // ~2% of the multi-ns transition
		t.Fatalf("50%% crossing error %g s too large", res.Cross50ErrS)
	}
	// Nominal and extreme differ visibly (the parameter matters).
	nom, ext := res.Series[0], res.Series[1]
	maxDiff := 0.0
	for i := range nom.T {
		if d := math.Abs(nom.V[i] - ext.V[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff < 0.1 {
		t.Fatal("nominal and extreme waveforms should differ visibly")
	}
}

func TestDivergenceReproducesSection51(t *testing.T) {
	rows, err := RunDivergence([]float64{0, 0.05, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ROMUnstable || rows[0].SPICEOutcome != "converged" {
		t.Fatalf("p=0 must be benign: %+v", rows[0])
	}
	// The raw variational macromodel is unstable at p >= 0.05 and the
	// Newton simulator diverges at the large-p end, while the framework
	// succeeds everywhere (the §5.1 headline claim).
	if !rows[1].ROMUnstable || !rows[2].ROMUnstable {
		t.Fatal("ROM must be unstable for p >= 0.05")
	}
	if rows[2].SPICEOutcome != "diverged" {
		t.Fatalf("expected SPICE divergence at p=0.1: %+v", rows[2])
	}
	for _, r := range rows {
		if r.Framework != "ok" {
			t.Fatalf("framework must handle p=%g: %+v", r.P, r)
		}
	}
}

func TestFigure5SpeedupGrowsWithElements(t *testing.T) {
	o := Ex2Options{Samples: 6}
	rows, err := RunFigure5(o, []float64{25, 50}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("row count")
	}
	for _, r := range rows {
		if r.Speedup < 5 {
			t.Fatalf("speedup %g at %g um implausibly low", r.Speedup, r.LengthUm)
		}
	}
	if rows[1].Speedup <= rows[0].Speedup {
		t.Fatalf("speedup must grow with wirelength: %g vs %g", rows[0].Speedup, rows[1].Speedup)
	}
	if rows[1].LinearElements <= rows[0].LinearElements {
		t.Fatal("element count must grow with length")
	}
	if out := RenderFigure5(rows); !strings.Contains(out, "speedup") {
		t.Fatal("render")
	}
}

func TestFigure6MeanStdAgree(t *testing.T) {
	res, err := RunFigure6(Ex2Options{Samples: 12}, 40)
	if err != nil {
		t.Fatal(err)
	}
	// "in the order of numerical precision error" — we allow 1%.
	if res.MeanErrPct > 1 {
		t.Fatalf("mean error %g%%", res.MeanErrPct)
	}
	if res.StdErrPct > 5 {
		t.Fatalf("std error %g%%", res.StdErrPct)
	}
	if res.Framework.Std <= 0 {
		t.Fatal("wire variations must spread the delays")
	}
	if out := RenderFigure6(res); !strings.Contains(out, "histograms") {
		t.Fatal("render")
	}
}

func ex3SmallSet() []iscas.Benchmark {
	return []iscas.Benchmark{{Name: "s27", Stages: 6, Seed: 27}, {Name: "s208", Stages: 9, Seed: 208}}
}

// TestTable4SpeedupShape times each row's framework and SPICE runs as
// the fastest of three RunTable4 calls: one-shot timings of 4 framework
// samples against 1 SPICE run let a single stall on a shared host
// reorder the rows.
func TestTable4SpeedupShape(t *testing.T) {
	o := Ex3Options{Samples: 10}
	var rows []Table4Row
	for call := 0; call < 3; call++ {
		got, err := RunTable4(o, ex3SmallSet()[:1], []int{10, 100}, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("rows: %d", len(got))
		}
		if rows == nil {
			rows = got
			continue
		}
		for i, r := range got {
			rows[i].FrameworkSec = math.Min(rows[i].FrameworkSec, r.FrameworkSec)
			rows[i].SPICESec = math.Min(rows[i].SPICESec, r.SPICESec)
		}
	}
	for i := range rows {
		rows[i].Speedup = rows[i].SPICESec / rows[i].FrameworkSec
	}
	// Speedup must exceed 1 and grow with the linear-element count
	// (Table 4's qualitative content).
	if rows[0].Speedup <= 1 || rows[1].Speedup <= rows[0].Speedup {
		t.Fatalf("speedups: %g then %g", rows[0].Speedup, rows[1].Speedup)
	}
	if out := RenderTable4(rows); !strings.Contains(out, "s27") {
		t.Fatal("render")
	}
}

func TestTable5GAvsMC(t *testing.T) {
	o := Ex3Options{Samples: 30, Workers: -1}
	rows, err := RunTable5(o, ex3SmallSet(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		// GA mean equals the nominal delay; MC mean must sit nearby.
		if math.Abs(r.GAMeanPs-r.MCMeanPs) > 0.05*r.MCMeanPs {
			t.Fatalf("%s: GA mean %g vs MC %g", r.Circuit, r.GAMeanPs, r.MCMeanPs)
		}
		// σ of the same order.
		ratio := r.GAStdPs / r.MCStdPs
		if ratio < 0.4 || ratio > 2.5 {
			t.Fatalf("%s: GA std %g vs MC %g", r.Circuit, r.GAStdPs, r.MCStdPs)
		}
		// GA cost is linear in sources: with both DL and VT it spends
		// 3+2·2 = 7 stage sims per stage.
		wantSims := r.Stages * (3 + 2*numSources(r))
		if r.GASimulations != wantSims {
			t.Fatalf("%s: GA sims %d, want %d", r.Circuit, r.GASimulations, wantSims)
		}
	}
	// Adding the VT source must not shrink σ for the same circuit.
	if rows[2].GAStdPs < rows[0].GAStdPs {
		t.Fatal("adding a variation source must not reduce GA σ")
	}
	if out := RenderTable5(rows); !strings.Contains(out, "GA") {
		t.Fatal("render")
	}
}

func numSources(r Table5Row) int {
	n := 0
	if r.StdDL > 0 {
		n++
	}
	if r.StdVT > 0 {
		n++
	}
	return n
}

func TestFigure7Histograms(t *testing.T) {
	o := Ex3Options{Samples: 24, Workers: -1}
	res, err := RunFigure7(o, iscas.Benchmark{Name: "s27", Stages: 6, Seed: 27}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MCDelays) != 24 || len(res.GADelays) != 24 {
		t.Fatal("sample counts")
	}
	if res.GAStd <= 0 {
		t.Fatal("GA σ must be positive")
	}
	if out := RenderFigure7(res); !strings.Contains(out, "Monte-Carlo") {
		t.Fatal("render")
	}
}

func TestFullPathNetlistStructure(t *testing.T) {
	o := Ex3Options{}
	o.setDefaults()
	nl, out, err := buildFullPathNetlist(o, []string{"INV", "NAND2", "NOR2"}, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Fatal("no output node")
	}
	st := nl.Stats()
	if st.MOSFETs != 2+4+4 {
		t.Fatalf("MOSFETs = %d", st.MOSFETs)
	}
	// 3 stages × 10 linear elements of wire.
	if st.LinearElements < 30 {
		t.Fatalf("linear elements = %d", st.LinearElements)
	}
	// Side-input sources: NAND2 and NOR2 each need one.
	if st.VSources != 2+2 { // VDD + VIN + 2 side sources
		t.Fatalf("VSources = %d", st.VSources)
	}
	_ = circuit.Gnd
}

func TestFrameworkVsSpicePathDelay(t *testing.T) {
	// The decisive cross-validation behind Example 3: the stage-by-stage
	// linear-centric path delay must match a full-path Newton transient of
	// the identical transistor-level circuit.
	o := Ex3Options{}
	o.setDefaults()
	cells := []string{"INV", "NAND2", "NOR2"}
	elems := 20
	p, err := core.BuildChain(core.ChainSpec{
		Cells: cells, Drive: o.Drive, ElemsBetween: elems,
		WireLengthUm: float64(elems) / 2,
		Tech:         o.Tech, DT: o.DT, TStop: o.StageWin, Order: o.Order,
	})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := p.Evaluate(teta.RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	nl, out, err := buildFullPathNetlist(o, cells, elems, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := spice.NewSimulator(nl, spice.Options{DT: o.DT, TStop: 3e-9, Models: o.Tech})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run([]string{out})
	if err != nil {
		t.Fatal(err)
	}
	wf, err := res.Waveform(out)
	if err != nil {
		t.Fatal(err)
	}
	// Path of 3 inverting stages: input rises at 0.3 ns (50%), output
	// falls; measure the full-path 50% crossing.
	cross := wf.CrossTime(o.Tech.VDD/2, -1)
	spiceDelay := cross - 0.3e-9
	if math.IsNaN(cross) {
		t.Fatal("spice path did not transition")
	}
	rel := math.Abs(ev.Delay-spiceDelay) / spiceDelay
	if rel > 0.06 {
		t.Fatalf("framework path delay %.2f ps vs spice %.2f ps (%.1f%% apart)",
			ev.Delay*1e12, spiceDelay*1e12, rel*100)
	}
}

func TestRenderersLayout(t *testing.T) {
	// Golden-ish format guards for the report renderers.
	t3 := &Table3Result{Order: 4, Rows: []Table3Row{
		{P: 0.05, UnstablePole: 1.4e13, NumUnstable: 1},
		{P: 0.02},
	}}
	out := RenderTable3(t3)
	for _, want := range []string{"Table 3", "0.05", "1.4e+13", "stable"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table3 render missing %q:\n%s", want, out)
		}
	}
	f5 := []Figure5Row{{LengthUm: 25, LinearElements: 201, FrameworkSec: 0.003, SPICESec: 0.24, Speedup: 80}}
	out = RenderFigure5(f5)
	for _, want := range []string{"Figure 5", "25", "201", "80.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure5 render missing %q:\n%s", want, out)
		}
	}
	t4 := []Table4Row{{Circuit: "s27", Stages: 6, Elems: 500, FrameworkSec: 0.008, SPICESec: 1.19, Speedup: 148.75}}
	out = RenderTable4(t4)
	for _, want := range []string{"Table 4", "s27", "500", "148.75"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table4 render missing %q:\n%s", want, out)
		}
	}
	t5 := []Table5Row{{Circuit: "s832", Stages: 9, StdDL: 0.33, StdVT: 0.33, GAMeanPs: 343.9, GAStdPs: 14.6, MCMeanPs: 351.5, MCStdPs: 15.1}}
	out = RenderTable5(t5)
	for _, want := range []string{"Table 5", "s832", "GA", "MC", "343.90", "15.10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table5 render missing %q:\n%s", want, out)
		}
	}
}
