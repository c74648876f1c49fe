package iscas

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// A sequential circuit whose deepest sink is a primary output, not a DFF
// D pin. The old sink selection dropped POs whenever DFFs were present
// and would have reported depth 1 here.
func TestLongestPathSinkUnionIncludesPOs(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(z)
q = DFF(d)
d = NOT(q)
n1 = NOT(a)
n2 = NOT(n1)
n3 = NOT(n2)
z = NOT(n3)
`
	c, err := ParseBench("podeep", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.TechMap()
	if err != nil {
		t.Fatal(err)
	}
	path, err := m.LongestPath()
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 {
		t.Fatalf("depth %d, want 4 (the PO chain must not be dropped)", len(path))
	}
	if out := path[len(path)-1].Gate.Output; out != "z" {
		t.Fatalf("path ends at %s, want the PO net z", out)
	}
}

// shuffled returns a copy of c with the gate list permuted. Net-level
// structure is untouched, so every timing query must give identical
// answers.
func shuffled(c *Circuit, seed int64) *Circuit {
	rng := rand.New(rand.NewSource(seed))
	cp := *c
	cp.Gates = append([]Gate(nil), c.Gates...)
	rng.Shuffle(len(cp.Gates), func(i, j int) {
		cp.Gates[i], cp.Gates[j] = cp.Gates[j], cp.Gates[i]
	})
	return &cp
}

func TestLongestPathShuffleInvariance(t *testing.T) {
	bases := []*Circuit{}
	for _, b := range []Benchmark{{"s208", 9, 208}, {"s444", 12, 444}} {
		c, err := Load(b)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, c)
	}
	s27, err := S27().TechMap()
	if err != nil {
		t.Fatal(err)
	}
	bases = append(bases, s27)
	for _, c := range bases {
		ref, err := c.LongestPath()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			got, err := shuffled(c, seed).LongestPath()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(ref) {
				t.Fatalf("%s shuffle %d: path length %d vs %d", c.Name, seed, len(got), len(ref))
			}
			for i := range ref {
				if got[i].Gate.Name != ref[i].Gate.Name || got[i].SignalPin != ref[i].SignalPin {
					t.Fatalf("%s shuffle %d: path diverges at stage %d (%s pin %d vs %s pin %d)",
						c.Name, seed, i,
						got[i].Gate.Name, got[i].SignalPin, ref[i].Gate.Name, ref[i].SignalPin)
				}
			}
		}
	}
}

func TestDuplicateDriverTypedError(t *testing.T) {
	cases := []struct {
		name string
		c    *Circuit
		net  string
		text string
	}{
		{
			name: "gate output collides with primary input",
			c: &Circuit{
				Name: "dup-pi",
				PIs:  []string{"a", "b"},
				POs:  []string{"a"},
				Gates: []Gate{
					{Name: "g0", Type: "NOT", Inputs: []string{"b"}, Output: "a"},
				},
			},
			net:  "a",
			text: "iscas: net a has two drivers (primary input a and gate g0)",
		},
		{
			name: "gate output collides with DFF Q pin",
			c: &Circuit{
				Name: "dup-q",
				PIs:  []string{"a"},
				POs:  []string{"q"},
				DFFs: []DFF{{Name: "ff", D: "a", Q: "q"}},
				Gates: []Gate{
					{Name: "g0", Type: "NOT", Inputs: []string{"a"}, Output: "q"},
				},
			},
			net:  "q",
			text: "iscas: net q has two drivers (DFF ff Q pin and gate g0)",
		},
		{
			name: "two gates drive one net",
			c: &Circuit{
				Name: "dup-gg",
				PIs:  []string{"a"},
				POs:  []string{"z"},
				Gates: []Gate{
					{Name: "g0", Type: "NOT", Inputs: []string{"a"}, Output: "z"},
					{Name: "g1", Type: "NOT", Inputs: []string{"a"}, Output: "z"},
				},
			},
			net:  "z",
			text: "iscas: net z has two drivers (gate g0 and gate g1)",
		},
		{
			name: "primary input listed twice",
			c: &Circuit{
				Name:  "dup-pis",
				PIs:   []string{"a", "a"},
				POs:   []string{"z"},
				Gates: []Gate{{Name: "g0", Type: "NOT", Inputs: []string{"a"}, Output: "z"}},
			},
			net:  "a",
			text: "iscas: net a has two drivers (primary input a and primary input a)",
		},
		{
			name: "DFF Q pin collides with primary input",
			c: &Circuit{
				Name:  "dup-pi-q",
				PIs:   []string{"a"},
				POs:   []string{"z"},
				DFFs:  []DFF{{Name: "ff", D: "z", Q: "a"}},
				Gates: []Gate{{Name: "g0", Type: "NOT", Inputs: []string{"a"}, Output: "z"}},
			},
			net:  "a",
			text: "iscas: net a has two drivers (primary input a and DFF ff Q pin)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.c.Drivers()
			var dd *DuplicateDriverError
			if !errors.As(err, &dd) {
				t.Fatalf("want *DuplicateDriverError, got %v", err)
			}
			if dd.Net != tc.net {
				t.Fatalf("error names net %s, want %s", dd.Net, tc.net)
			}
			if err.Error() != tc.text {
				t.Fatalf("error reads %q, want %q", err, tc.text)
			}
			// The high-level entry points must reject the netlist too.
			if _, err := tc.c.LongestPath(); !errors.As(err, &dd) {
				t.Fatalf("LongestPath: want *DuplicateDriverError, got %v", err)
			}
			if _, _, err := tc.c.TopoOrder(); !errors.As(err, &dd) {
				t.Fatalf("TopoOrder: want *DuplicateDriverError, got %v", err)
			}
		})
	}
}

func TestTopoOrderCycleError(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(z)
x = NAND(a, z)
z = NOT(x)
`
	c, _ := ParseBench("cyc", strings.NewReader(src))
	if _, _, err := c.TopoOrder(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle error, got %v", err)
	}
}

// Property tests across the generated benchmark sets: the topological
// order respects every gate-to-gate edge, and extracted paths are
// connected source-to-sink chains with strictly increasing unit-delay
// arrivals.
func TestTimingGraphProperties(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range append(append([]Benchmark{}, Table4Set...), Table5Set...) {
		key := b.Name + string(rune(b.Stages))
		if seen[key] {
			continue
		}
		seen[key] = true
		c, err := Load(b)
		if err != nil {
			t.Fatal(err)
		}
		topo, driver, err := c.TopoOrder()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(topo) != len(c.Gates) {
			t.Fatalf("%s: topo order covers %d of %d gates", b.Name, len(topo), len(c.Gates))
		}
		pos := make([]int, len(c.Gates))
		for p, i := range topo {
			pos[i] = p
		}
		isSource := c.SourceNets()
		for i, g := range c.Gates {
			for _, in := range g.Inputs {
				if isSource[in] {
					continue
				}
				if pos[driver[in]] >= pos[i] {
					t.Fatalf("%s: gate %s appears before its driver for net %s", b.Name, g.Name, in)
				}
			}
		}
		path, err := c.LongestPath()
		if err != nil {
			t.Fatal(err)
		}
		// First stage's signal pin must see a source net.
		if first := path[0]; !isSource[first.Gate.Inputs[first.SignalPin]] {
			t.Fatalf("%s: path starts on non-source net %s", b.Name, first.Gate.Inputs[first.SignalPin])
		}
		// Each stage's output must feed the next stage's signal pin.
		for i := 0; i+1 < len(path); i++ {
			next := path[i+1]
			if next.Gate.Inputs[next.SignalPin] != path[i].Gate.Output {
				t.Fatalf("%s: path disconnected between stages %d and %d", b.Name, i, i+1)
			}
		}
		// Last stage must drive a sink net when any gate does.
		isSink := c.SinkNets()
		anySink := false
		for _, g := range c.Gates {
			if isSink[g.Output] {
				anySink = true
				break
			}
		}
		if anySink && !isSink[path[len(path)-1].Gate.Output] {
			t.Fatalf("%s: path ends on non-sink net %s", b.Name, path[len(path)-1].Gate.Output)
		}
	}
}
