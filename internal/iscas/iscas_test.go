package iscas

import (
	"strings"
	"testing"

	"lcsim/internal/device"
)

func TestParseBenchBasic(t *testing.T) {
	src := `
# comment
INPUT(a)
INPUT(b)
OUTPUT(z)
q = DFF(z)
n1 = NAND(a, q)
z = NOT(n1)
`
	c, err := ParseBench("tiny", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.PIs != 2 || st.POs != 1 || st.DFFs != 1 || st.Gates != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestParseBenchErrors(t *testing.T) {
	bad := []string{
		"n1 = NAND a, b", // malformed
		"q = DFF(a, b)",  // DFF arity
		"INPUT(a)",       // no gates
	}
	for _, src := range bad {
		if _, err := ParseBench("bad", strings.NewReader(src)); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestS27Structure(t *testing.T) {
	c := S27()
	st := c.Stats()
	if st.PIs != 4 || st.POs != 1 || st.DFFs != 3 || st.Gates != 10 {
		t.Fatalf("s27 stats: %+v", st)
	}
}

func TestS27LongestPath(t *testing.T) {
	// The real s27's longest latch-to-latch path has 6 gates under a
	// uniform unit-delay model (the paper reports 5; see EXPERIMENTS.md).
	c, err := S27().TechMap()
	if err != nil {
		t.Fatal(err)
	}
	path, err := c.LongestPath()
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 6 {
		names := make([]string, len(path))
		for i, pg := range path {
			names[i] = pg.Gate.Type
		}
		t.Fatalf("s27 longest path = %d stages (%v), want 6", len(path), names)
	}
	// All cells on the path must resolve in the device library.
	for _, cell := range PathCells(path) {
		if _, err := device.LookupCell(cell); err != nil {
			t.Fatalf("unmapped cell on path: %v", err)
		}
	}
}

func TestTechMapS27(t *testing.T) {
	m, err := S27().TechMap()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range m.Gates {
		if _, err := device.LookupCell(g.Type); err != nil {
			t.Fatalf("gate %s not mapped: %s", g.Name, g.Type)
		}
	}
	// Idempotent.
	m2, err := m.TechMap()
	if err != nil || m2 != m {
		t.Fatal("TechMap must be idempotent on mapped circuits")
	}
}

func TestTechMapWideGates(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(z)
z = NAND(a, b, c, d)
`
	c, err := ParseBench("wide", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.TechMap()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range m.Gates {
		if _, err := device.LookupCell(g.Type); err != nil {
			t.Fatalf("wide-gate decomposition left %s", g.Type)
		}
	}
}

func TestLongestPathUndrivenNet(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(z)
z = NAND(a, ghost)
`
	c, _ := ParseBench("bad", strings.NewReader(src))
	if _, err := c.LongestPath(); err == nil {
		t.Fatal("undriven net must error")
	}
}

func TestLongestPathCycleDetection(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(z)
x = NAND(a, z)
z = NOT(x)
`
	c, _ := ParseBench("cyc", strings.NewReader(src))
	if _, err := c.LongestPath(); err == nil {
		t.Fatal("combinational cycle must error")
	}
}

func TestGenerateExactDepth(t *testing.T) {
	for _, b := range append(append([]Benchmark{}, Table4Set...), Table5Set...) {
		c, err := Load(b)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.LongestPath()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(p) != b.Stages {
			t.Fatalf("%s: depth %d, want %d", b.Name, len(p), b.Stages)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate("x", 12, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("x", 12, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Gates) != len(b.Gates) {
		t.Fatal("generator must be deterministic")
	}
	for i := range a.Gates {
		if a.Gates[i].Type != b.Gates[i].Type || a.Gates[i].Output != b.Gates[i].Output {
			t.Fatal("generator must be deterministic")
		}
	}
}

func TestGeneratePathMappable(t *testing.T) {
	c, err := Generate("s208", 9, 208)
	if err != nil {
		t.Fatal(err)
	}
	path, err := c.LongestPath()
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 9 {
		t.Fatalf("depth %d", len(path))
	}
	// Signal pin along the generated main chain is always pin 0.
	for i, pg := range path {
		if pg.SignalPin != 0 {
			t.Fatalf("gate %d signal on pin %d, generator should route pin 0", i, pg.SignalPin)
		}
	}
	for _, cell := range PathCells(path) {
		if _, err := device.LookupCell(cell); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenerateRejectsZeroStages(t *testing.T) {
	if _, err := Generate("x", 0, 1); err == nil {
		t.Fatal("zero stages must error")
	}
}

func TestLongestPathDeterministic(t *testing.T) {
	c, err := Generate("det", 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := c.LongestPath()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.LongestPath()
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(p2) {
		t.Fatal("path length changed between runs")
	}
	for i := range p1 {
		if p1[i].Gate.Name != p2[i].Gate.Name || p1[i].SignalPin != p2[i].SignalPin {
			t.Fatalf("path differs at %d", i)
		}
	}
}

func TestCombinationalOnlyCircuitUsesPOs(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
n1 = NAND(a, b)
z = NOT(n1)
`
	c, err := ParseBench("comb", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.TechMap()
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.LongestPath()
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Fatalf("depth %d, want 2 (PO sink for combinational circuits)", len(p))
	}
}
