package circuit

import (
	"bytes"
	"strings"
	"testing"
)

func TestPWLCompress(t *testing.T) {
	// A ramp sampled densely compresses to its two endpoints (plus the
	// corner breakpoints).
	var ts, vs []float64
	for i := 0; i <= 100; i++ {
		t := float64(i) * 1e-11
		ts = append(ts, t)
		v := 0.0
		switch {
		case t < 2e-10:
			v = 0
		case t < 8e-10:
			v = (t - 2e-10) / 6e-10
		default:
			v = 1
		}
		vs = append(vs, v)
	}
	p, err := NewPWL(ts, vs)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Compress(1e-6)
	if len(c.T) >= len(p.T)/10 {
		t.Fatalf("compression ineffective: %d -> %d points", len(p.T), len(c.T))
	}
	// Accuracy bound holds everywhere.
	for i, tt := range p.T {
		if !almostEq(c.At(tt), p.V[i], 1.1e-6) {
			t.Fatalf("compress error at t=%g: %g vs %g", tt, c.At(tt), p.V[i])
		}
	}
	// Degenerate inputs pass through.
	small, _ := NewPWL([]float64{0, 1}, []float64{0, 1})
	if small.Compress(0.1) != small {
		t.Fatal("2-point PWL must pass through")
	}
	if p.Compress(0) != p {
		t.Fatal("zero tolerance must pass through")
	}
}

func TestPWLCompressPreservesExtremes(t *testing.T) {
	// A glitch must survive compression with a tolerance below its height.
	p, _ := NewPWL(
		[]float64{0, 1, 2, 3, 4},
		[]float64{0, 0, 0.5, 0, 0},
	)
	c := p.Compress(0.1)
	if !almostEq(c.At(2), 0.5, 1e-12) {
		t.Fatalf("glitch lost: %g", c.At(2))
	}
}

func TestWriteCSV(t *testing.T) {
	r := SatRamp{V0: 0, V1: 1, Start: 0, Slew: 1}
	d := DC(0.5)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []float64{0, 0.5, 1}, []string{"ramp", "dc"}, []Waveform{r, d}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines: %d\n%s", len(lines), out)
	}
	if lines[0] != "t,ramp,dc" {
		t.Fatalf("header: %s", lines[0])
	}
	if !strings.Contains(lines[2], "5.000000e-01,5.000000e-01") {
		t.Fatalf("row: %s", lines[2])
	}
	if err := WriteCSV(&buf, nil, []string{"a"}, nil); err == nil {
		t.Fatal("label/wave mismatch must error")
	}
}
