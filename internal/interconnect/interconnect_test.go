package interconnect

import (
	"math"
	"testing"
	"testing/quick"

	"lcsim/internal/circuit"
)

func TestSakuraiPULPositive(t *testing.T) {
	for _, tech := range []WireTech{Wire180, Wire600} {
		p := SakuraiPUL(tech)
		if p.R <= 0 || p.Cg <= 0 || p.Cc <= 0 {
			t.Fatalf("%s: non-positive PUL %+v", tech.Name, p)
		}
	}
}

func TestSakuraiPULMagnitudes(t *testing.T) {
	// 0.18 µm minimum-width metal: R should be O(100 kΩ/m)–O(1 MΩ/m),
	// capacitance O(10–300 pF/m). These are physical sanity bounds.
	p := SakuraiPUL(Wire180)
	if p.R < 1e4 || p.R > 1e7 {
		t.Fatalf("R/m = %g out of physical range", p.R)
	}
	if p.Cg < 1e-12 || p.Cg > 1e-9 {
		t.Fatalf("Cg/m = %g out of physical range", p.Cg)
	}
	if p.Cc < 1e-13 || p.Cc > 1e-9 {
		t.Fatalf("Cc/m = %g out of physical range", p.Cc)
	}
}

func TestSakuraiTrends(t *testing.T) {
	base := SakuraiPUL(Wire180)
	// Wider wire: lower R, higher ground cap.
	wide := Wire180
	wide.Width *= 2
	pw := SakuraiPUL(wide)
	if pw.R >= base.R || pw.Cg <= base.Cg {
		t.Fatal("width trend violated")
	}
	// Larger spacing: lower coupling.
	sp := Wire180
	sp.Spacing *= 2
	if SakuraiPUL(sp).Cc >= base.Cc {
		t.Fatal("spacing trend violated")
	}
	// Higher resistivity: higher R only.
	rr := Wire180
	rr.Resistivity *= 2
	pr := SakuraiPUL(rr)
	if !almostEq(pr.R, 2*base.R, 1e-6*base.R) || pr.Cg != base.Cg {
		t.Fatal("resistivity trend violated")
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTechAt(t *testing.T) {
	w := map[string]float64{ParamW: 1, ParamRho: -1}
	tt := Wire180.At(w)
	if !almostEq(tt.Width, Wire180.Width*1.2, 1e-15) {
		t.Fatalf("Width at +3σ = %g", tt.Width)
	}
	if !almostEq(tt.Resistivity, Wire180.Resistivity*0.8, 1e-15) {
		t.Fatalf("Resistivity at -3σ = %g", tt.Resistivity)
	}
	if tt.Thickness != Wire180.Thickness {
		t.Fatal("unrelated parameters must not move")
	}
}

func TestNominalTolAccessors(t *testing.T) {
	for _, p := range WireParams {
		if _, err := Wire180.Nominal(p); err != nil {
			t.Fatalf("Nominal(%s): %v", p, err)
		}
	}
	if _, err := Wire180.Nominal("bogus"); err == nil {
		t.Fatal("unknown parameter must error")
	}
}

func TestPULSensitivitySigns(t *testing.T) {
	// dR/dW < 0, dCg/dW > 0, dCc/dS < 0, dR/dRHO > 0.
	if s := PULSensitivity(Wire180, ParamW); s.R >= 0 || s.Cg <= 0 {
		t.Fatalf("W sensitivity signs wrong: %+v", s)
	}
	if s := PULSensitivity(Wire180, ParamS); s.Cc >= 0 {
		t.Fatalf("S sensitivity sign wrong: %+v", s)
	}
	if s := PULSensitivity(Wire180, ParamRho); s.R <= 0 || s.Cg != 0 {
		t.Fatalf("RHO sensitivity wrong: %+v", s)
	}
}

func TestPULSensitivityMatchesFiniteDifferenceProperty(t *testing.T) {
	// First-order model must predict small perturbations accurately.
	f := func(seed int64) bool {
		w := float64(seed%100) / 1000 // up to 0.099
		for _, p := range WireParams {
			s := PULSensitivity(Wire180, p)
			exact := SakuraiPUL(Wire180.At(map[string]float64{p: w}))
			base := SakuraiPUL(Wire180)
			predR := base.R + s.R*w
			if math.Abs(predR-exact.R) > 0.02*math.Abs(exact.R)+1e-30 {
				return false
			}
			predCc := base.Cc + s.Cc*w
			if math.Abs(predCc-exact.Cc) > 0.05*math.Abs(exact.Cc)+1e-30 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAddLine(t *testing.T) {
	nl := circuit.New()
	out := AddLine(nl, Wire180, "in", "w", 10, 1, false)
	if out != "w_n10" {
		t.Fatalf("out node = %s", out)
	}
	st := nl.Stats()
	if st.Resistors != 10 || st.Capacitors != 10 {
		t.Fatalf("element counts wrong: %+v", st)
	}
}

func TestAddLineElementsCount(t *testing.T) {
	for _, n := range []int{10, 11, 500, 2} {
		nl := circuit.New()
		AddLineElements(nl, Wire180, "in", "w", n, 100, false)
		if got := nl.Stats().LinearElements; got != n {
			t.Fatalf("AddLineElements(%d) produced %d elements", n, got)
		}
	}
}

func TestBuildBusStructure(t *testing.T) {
	b := BuildBus(Wire180, 3, 20, 1, true)
	if b.Segments != 20 || b.Lines != 3 {
		t.Fatalf("bus shape wrong: %+v", b)
	}
	if len(b.In) != 3 || len(b.Out) != 3 {
		t.Fatal("in/out lists wrong")
	}
	st := b.Netlist.Stats()
	// 3 lines × 20 R, 3×20 ground C, 2×20 coupling C.
	if st.Resistors != 60 {
		t.Fatalf("resistors = %d", st.Resistors)
	}
	if st.Capacitors != 60+40 {
		t.Fatalf("capacitors = %d", st.Capacitors)
	}
	if st.LinearElements != 160 {
		t.Fatalf("total linear elements = %d", st.LinearElements)
	}
	// Variational values must carry wire parameters.
	params := b.Netlist.Params()
	if len(params) != len(WireParams) {
		t.Fatalf("params = %v", params)
	}
}

func TestBuildBusAssembles(t *testing.T) {
	b := BuildBus(Wire180, 2, 5, 1, true)
	for _, n := range b.In {
		b.Netlist.MarkPort(n)
	}
	sys, err := circuit.AssembleVariational(b.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Np != 2 {
		t.Fatalf("ports = %d", sys.Np)
	}
	if sys.N != 12 {
		// 2 lines × (5 internal+far + near) = 2×6.
		t.Fatalf("nodes = %d", sys.N)
	}
}

// TestElmoreDelayScalesQuadratically checks BuildBus's segment values: a
// line's total resistance and capacitance grow linearly with its length,
// so its distributed Elmore delay R·C/2 grows with the square, and a
// 100 µm minimum-width line lands at a plausible value.
func TestElmoreDelayScalesQuadratically(t *testing.T) {
	elmore := func(lengthUm float64) float64 {
		nl := BuildBus(Wire180, 1, lengthUm, 1, false).Netlist
		var r, c float64
		for _, e := range nl.Resistors {
			r += e.R.Nominal
		}
		for _, e := range nl.Capacitors {
			c += e.C.Nominal
		}
		return 0.5 * r * c
	}
	d1, d2 := elmore(100), elmore(200)
	if !almostEq(d2/d1, 4, 1e-9) {
		t.Fatalf("Elmore scaling = %v, want 4", d2/d1)
	}
	if d1 <= 0 || d1 > 1e-9 {
		t.Fatalf("Elmore delay of 100 µm minimum wire = %g s, implausible", d1)
	}
}
