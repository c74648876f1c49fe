package circuit

import "testing"

func TestSubcktBasicExpansion(t *testing.T) {
	src := `
* RC lump as a subcircuit
.SUBCKT LUMP in out
R1 in out 100
C1 out 0 1p
.ENDS
V1 a 0 DC 1
X1 a b LUMP
X2 b c LUMP
.PORT a
`
	nl, err := ParseNetlistString(src)
	if err != nil {
		t.Fatal(err)
	}
	st := nl.Stats()
	if st.Resistors != 2 || st.Capacitors != 2 || st.VSources != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The two lumps chain through shared node "b"; internal nodes are
	// instance-scoped... here out is a port so no internals; check names.
	if nl.Resistors[0].Name != "R1.X1" || nl.Resistors[1].Name != "R1.X2" {
		t.Fatalf("element names: %s %s", nl.Resistors[0].Name, nl.Resistors[1].Name)
	}
	// The chain a-b-c must be connected: assemble and solve DC via the
	// variational system (a driven, c floats through caps only — just
	// check node count: a, b, c = 3 nodes).
	if nl.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3", nl.NumNodes())
	}
}

func TestSubcktInternalNodesScoped(t *testing.T) {
	src := `
.SUBCKT DIV hi lo
R1 hi mid 1k
R2 mid lo 1k
.ENDS
X1 a 0 DIV
X2 a 0 DIV
`
	nl, err := ParseNetlistString(src)
	if err != nil {
		t.Fatal(err)
	}
	// Each instance gets its own "mid": nodes = a, X1.mid, X2.mid.
	if nl.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3 (instance-scoped internals)", nl.NumNodes())
	}
}

func TestSubcktNestedInstantiation(t *testing.T) {
	src := `
.SUBCKT HALF in out
R1 in out 50
.ENDS
.SUBCKT FULL in out
X1 in mid HALF
X2 mid out HALF
.ENDS
Xtop a b FULL
`
	nl, err := ParseNetlistString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Resistors) != 2 {
		t.Fatalf("resistors = %d, want 2", len(nl.Resistors))
	}
	// Nested internal node is doubly scoped.
	if nl.NumNodes() != 3 { // a, b, Xtop.mid
		t.Fatalf("nodes = %d, want 3", nl.NumNodes())
	}
	if nl.Resistors[0].Name != "R1.X1.Xtop" {
		t.Fatalf("nested name: %s", nl.Resistors[0].Name)
	}
}

func TestSubcktWithMOSFET(t *testing.T) {
	src := `
.SUBCKT INV in out vdd
M1 out in 0 0 NMOS W=1u L=0.18u
M2 out in vdd vdd PMOS W=2u L=0.18u
.ENDS
V1 vdd 0 DC 1.8
V2 a 0 DC 0
X1 a y vdd INV
`
	nl, err := ParseNetlistString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.MOSFETs) != 2 {
		t.Fatalf("MOSFETs = %d", len(nl.MOSFETs))
	}
	if nl.MOSFETs[0].Name != "M1.X1" {
		t.Fatalf("device name: %s", nl.MOSFETs[0].Name)
	}
	// Drain connects to port node y; bulk of PMOS to vdd.
	if nl.nodeNames[nl.MOSFETs[0].D] != "y" {
		t.Fatalf("drain node: %s", nl.nodeNames[nl.MOSFETs[0].D])
	}
}

func TestSubcktErrors(t *testing.T) {
	bad := map[string]string{
		"unclosed":    ".SUBCKT A x\nR1 x 0 1",
		"unknown ref": "X1 a b NOPE",
		"arity":       ".SUBCKT A x y\nR1 x y 1\n.ENDS\nX1 a A",
		"nested def":  ".SUBCKT A x\n.SUBCKT B y\n.ENDS\n.ENDS",
		"recursive":   ".SUBCKT A x y\nX1 x y A\n.ENDS\nX0 a b A",
		"ends only":   ".ENDS",
	}
	for name, src := range bad {
		if _, err := ParseNetlistString(src); err == nil {
			t.Fatalf("%s: expected error for %q", name, src)
		}
	}
}

func TestSubcktGroundStaysGlobal(t *testing.T) {
	src := `
.SUBCKT T a
C1 a 0 1p
C2 a gnd 1p
.ENDS
X1 n T
`
	nl, err := ParseNetlistString(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range nl.Capacitors {
		if c.B != Gnd {
			t.Fatalf("ground leaked into instance scope: %s", nl.nodeNames[c.B])
		}
	}
}
