package circuit

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNodeCreationAndGround(t *testing.T) {
	nl := New()
	if nl.Node("0") != Gnd || nl.Node("gnd") != Gnd || nl.Node("GND") != Gnd {
		t.Fatal("ground aliases must map to Gnd")
	}
	a := nl.Node("a")
	b := nl.Node("b")
	if a == b {
		t.Fatal("distinct names must get distinct ids")
	}
	if nl.Node("a") != a {
		t.Fatal("repeated lookup must return the same id")
	}
	if nl.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", nl.NumNodes())
	}
	if nl.nodeNames[a] != "a" {
		t.Fatal("node name wrong")
	}
}

func TestBuilderAndStats(t *testing.T) {
	nl := New()
	nl.AddR("R1", "a", "b", V(100)).
		AddC("C1", "b", "0", V(1e-12)).
		AddV("V1", "a", "0", DC(1)).
		AddI("I1", "b", "0", DC(0))
	nl.AddMOSFET(MOSFET{Name: "M1", Model: "NMOS", W: 1e-6, L: 1e-7}, "b", "a", "0", "0")
	st := nl.Stats()
	if st.Resistors != 1 || st.Capacitors != 1 || st.VSources != 1 || st.ISources != 1 || st.MOSFETs != 1 {
		t.Fatalf("Stats wrong: %+v", st)
	}
	if st.LinearElements != 2 {
		t.Fatalf("LinearElements = %d, want 2", st.LinearElements)
	}
}

func TestMarkPortDeduplicatesAndOrders(t *testing.T) {
	nl := New()
	nl.AddR("R1", "p1", "p2", V(1))
	nl.MarkPort("p2").MarkPort("p1").MarkPort("p2")
	ports := nl.Ports()
	if len(ports) != 2 {
		t.Fatalf("ports = %v, want 2 entries", ports)
	}
	if nl.nodeNames[ports[0]] != "p2" || nl.nodeNames[ports[1]] != "p1" {
		t.Fatal("port order must follow MarkPort call order")
	}
}

func TestMarkPortGroundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic marking ground as port")
		}
	}()
	New().MarkPort("0")
}

func TestValueAffineEval(t *testing.T) {
	v := VarV(10, "p", 2.0, "q", -1.0)
	if got := v.Eval(map[string]float64{"p": 1, "q": 2}); !almostEq(got, 10, 1e-15) {
		t.Fatalf("Eval = %v, want 10", got)
	}
	if got := v.Eval(nil); got != 10 {
		t.Fatalf("Eval(nil) = %v, want nominal", got)
	}
	if !v.IsVariational() || V(5).IsVariational() {
		t.Fatal("IsVariational wrong")
	}
	p := v.Params()
	if len(p) != 2 || p[0] != "p" || p[1] != "q" {
		t.Fatalf("Params = %v", p)
	}
}

// TestValueEvalFixedOrder checks that Eval adds its terms in
// parameter-name order. Here the order decides the result: 1 + 1e-16
// rounds to 1, so adding "a" before "b" gives exactly 0, while adding
// "b" first would give 1e-16. Map iteration order is random, so an
// order-dependent Eval fails some of the 100 calls.
func TestValueEvalFixedOrder(t *testing.T) {
	v := VarV(1, "b", 1.0, "a", 1.0)
	w := map[string]float64{"a": 1e-16, "b": -1}
	for i := 0; i < 100; i++ {
		if got := v.Eval(w); got != 0 {
			t.Fatalf("call %d: Eval = %g, want exactly 0", i, got)
		}
	}
}

func TestValueWithSensAccumulates(t *testing.T) {
	v := V(1).WithSens("p", 2).WithSens("p", 3)
	if v.Sens["p"] != 5 {
		t.Fatalf("Sens accumulation wrong: %v", v.Sens["p"])
	}
}

func TestValueEvalLinearityProperty(t *testing.T) {
	// Eval is affine: v(αw) - v(0) = α (v(w) - v(0)).
	f := func(nom, s1, s2, w1, w2, alpha float64) bool {
		if math.IsNaN(nom) || math.IsInf(nom, 0) {
			return true
		}
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 1e6)
		}
		nom, s1, s2, w1, w2, alpha = clamp(nom), clamp(s1), clamp(s2), clamp(w1), clamp(w2), clamp(alpha)
		v := VarV(nom, "a", s1, "b", s2)
		w := map[string]float64{"a": w1, "b": w2}
		wa := map[string]float64{"a": alpha * w1, "b": alpha * w2}
		lhs := v.Eval(wa) - v.Nominal
		rhs := alpha * (v.Eval(w) - v.Nominal)
		scale := 1 + math.Abs(lhs) + math.Abs(rhs)
		return math.Abs(lhs-rhs) < 1e-9*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWaveformDC(t *testing.T) {
	if DC(2.5).At(1e99) != 2.5 {
		t.Fatal("DC wrong")
	}
}

func TestSatRamp(t *testing.T) {
	r := SatRamp{V0: 0, V1: 1.8, Start: 1e-9, Slew: 2e-9}
	if r.At(0) != 0 {
		t.Fatal("before start must be V0")
	}
	if r.At(5e-9) != 1.8 {
		t.Fatal("after end must be V1")
	}
	if !almostEq(r.At(2e-9), 0.9, 1e-12) {
		t.Fatalf("midpoint = %v, want 0.9", r.At(2e-9))
	}
	if !almostEq(r.Cross50(), 2e-9, 1e-18) {
		t.Fatalf("Cross50 = %v", r.Cross50())
	}
	step := SatRamp{V0: 0, V1: 1, Start: 1, Slew: 0}
	if step.At(0.999) != 0 || step.At(1.0) != 1 {
		t.Fatal("zero-slew ramp must behave as a step")
	}
}

func TestPulse(t *testing.T) {
	p := Pulse{V1: 0, V2: 1, Delay: 1, Rise: 1, Fall: 1, Width: 2, Period: 10}
	if p.At(0.5) != 0 {
		t.Fatal("before delay")
	}
	if !almostEq(p.At(1.5), 0.5, 1e-12) {
		t.Fatalf("mid-rise = %v", p.At(1.5))
	}
	if p.At(3) != 1 {
		t.Fatal("plateau")
	}
	if !almostEq(p.At(4.5), 0.5, 1e-12) {
		t.Fatalf("mid-fall = %v", p.At(4.5))
	}
	if p.At(6) != 0 {
		t.Fatal("after fall")
	}
	// Periodicity.
	if !almostEq(p.At(11.5), 0.5, 1e-12) {
		t.Fatalf("periodic mid-rise = %v", p.At(11.5))
	}
}

func TestPWL(t *testing.T) {
	p, err := NewPWL([]float64{0, 1, 2}, []float64{0, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.At(-1) != 0 || p.At(3) != 0 {
		t.Fatal("extrapolation must clamp")
	}
	if !almostEq(p.At(0.5), 1, 1e-12) || !almostEq(p.At(1.5), 1, 1e-12) {
		t.Fatal("interpolation wrong")
	}
	if _, err := NewPWL([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Fatal("non-increasing times must error")
	}
	if _, err := NewPWL([]float64{0}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestPWLCrossTime(t *testing.T) {
	p, _ := NewPWL([]float64{0, 1, 2}, []float64{0, 1, 0})
	if got := p.CrossTime(0.5, +1); !almostEq(got, 0.5, 1e-12) {
		t.Fatalf("rising cross = %v, want 0.5", got)
	}
	if got := p.CrossTime(0.5, -1); !almostEq(got, 1.5, 1e-12) {
		t.Fatalf("falling cross = %v, want 1.5", got)
	}
	if !math.IsNaN(p.CrossTime(2, +1)) {
		t.Fatal("unreached level must return NaN")
	}
}

func TestPWLMeasureSatRamp(t *testing.T) {
	// An exact ramp 0->1 over [0,1]: cross50 = 0.5, slew = 1.
	p, _ := NewPWL([]float64{-1, 0, 1, 2}, []float64{0, 0, 1, 1})
	c, s := p.MeasureSatRamp(0, 1, +1)
	if !almostEq(c, 0.5, 1e-12) || !almostEq(s, 1, 1e-9) {
		t.Fatalf("MeasureSatRamp = %v, %v", c, s)
	}
}

func TestSine(t *testing.T) {
	s := Sine{Offset: 1, Amp: 2, Freq: 1, Delay: 0}
	if !almostEq(s.At(0.25), 3, 1e-12) {
		t.Fatalf("Sine peak = %v", s.At(0.25))
	}
	s.Delay = 10
	if s.At(5) != 1 {
		t.Fatal("before delay must hold offset")
	}
}
