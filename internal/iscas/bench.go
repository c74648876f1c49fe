// Package iscas provides the benchmark-circuit substrate for the paper's
// Example 3: an ISCAS-89 .bench netlist parser with the real s27 embedded,
// structured generators that reproduce the published longest-path stage
// counts for the larger benchmarks, gate-to-cell technology mapping, a
// unit-delay static timing analyzer and latch-to-latch critical-path
// extraction.
//
// Substitution note (see DESIGN.md): the original s208/s444/s832/s1423/
// s9234 netlists are replaced by deterministic generators matching the
// paper's reported stage counts; the experiments only consume the longest
// path as a chain of library stages, which the generators reproduce
// exactly.
package iscas

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Gate is one combinational gate. Type is the .bench operator (AND, OR,
// NAND, NOR, NOT, BUF, XOR) before mapping or a device cell name after
// TechMap.
type Gate struct {
	Name   string
	Type   string
	Inputs []string
	Output string
}

// DFF is a D flip-flop; Q-to-D paths bound the combinational stages.
type DFF struct {
	Name, D, Q string
}

// Circuit is a gate-level sequential circuit.
type Circuit struct {
	Name   string
	PIs    []string
	POs    []string
	DFFs   []DFF
	Gates  []Gate
	mapped bool
}

// Stats summarizes the circuit.
type Stats struct {
	PIs, POs, DFFs, Gates int
}

// Stats returns summary counts.
func (c *Circuit) Stats() Stats {
	return Stats{PIs: len(c.PIs), POs: len(c.POs), DFFs: len(c.DFFs), Gates: len(c.Gates)}
}

// ParseBench reads an ISCAS-89 .bench description:
//
//	INPUT(a)
//	OUTPUT(z)
//	q = DFF(d)
//	z = NAND(a, q)
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	c := &Circuit{Name: name}
	sc := bufio.NewScanner(r)
	line := 0
	gateNo := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		up := strings.ToUpper(txt)
		switch {
		case strings.HasPrefix(up, "INPUT(") && strings.HasSuffix(txt, ")"):
			c.PIs = append(c.PIs, strings.TrimSpace(txt[6:len(txt)-1]))
		case strings.HasPrefix(up, "OUTPUT(") && strings.HasSuffix(txt, ")"):
			c.POs = append(c.POs, strings.TrimSpace(txt[7:len(txt)-1]))
		default:
			eq := strings.Index(txt, "=")
			open := strings.Index(txt, "(")
			close := strings.LastIndex(txt, ")")
			if eq < 0 || open < eq || close < open {
				return nil, fmt.Errorf("iscas: %s line %d: malformed %q", name, line, txt)
			}
			out := strings.TrimSpace(txt[:eq])
			op := strings.ToUpper(strings.TrimSpace(txt[eq+1 : open]))
			var ins []string
			for _, f := range strings.Split(txt[open+1:close], ",") {
				ins = append(ins, strings.TrimSpace(f))
			}
			if op == "DFF" {
				if len(ins) != 1 {
					return nil, fmt.Errorf("iscas: %s line %d: DFF needs one input", name, line)
				}
				c.DFFs = append(c.DFFs, DFF{Name: "dff_" + out, D: ins[0], Q: out})
				continue
			}
			gateNo++
			c.Gates = append(c.Gates, Gate{
				Name:   fmt.Sprintf("g%d_%s", gateNo, out),
				Type:   op,
				Inputs: ins,
				Output: out,
			})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(c.Gates) == 0 {
		return nil, fmt.Errorf("iscas: %s has no gates", name)
	}
	return c, nil
}

// s27Bench is the public ISCAS-89 s27 benchmark netlist.
const s27Bench = `
# s27 — ISCAS-89 sequential benchmark
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
`

// S27 parses and returns the embedded s27 netlist.
func S27() *Circuit {
	c, err := ParseBench("s27", strings.NewReader(s27Bench))
	if err != nil {
		panic("iscas: embedded s27 is invalid: " + err.Error())
	}
	return c
}

// benchToCell maps .bench operators to device cells by fan-in.
var benchToCell = map[string]map[int]string{
	"NOT":  {1: "INV"},
	"BUF":  {1: "BUF"},
	"BUFF": {1: "BUF"},
	"NAND": {2: "NAND2", 3: "NAND3"},
	"NOR":  {2: "NOR2", 3: "NOR3"},
	"AND":  {2: "AND2"},
	"OR":   {2: "OR2"},
	"XOR":  {2: "XOR2"},
}

// TechMap rewrites .bench operators into device cell names. Gates whose
// fan-in exceeds the library (e.g. NAND4) are decomposed into trees.
func (c *Circuit) TechMap() (*Circuit, error) {
	if c.mapped {
		return c, nil
	}
	out := &Circuit{Name: c.Name, PIs: c.PIs, POs: c.POs, DFFs: c.DFFs, mapped: true}
	aux := 0
	var lower func(g Gate) error
	lower = func(g Gate) error {
		byIn, ok := benchToCell[g.Type]
		if !ok {
			// Already a cell name? Accept as-is.
			out.Gates = append(out.Gates, g)
			return nil
		}
		if cell, ok := byIn[len(g.Inputs)]; ok {
			g.Type = cell
			out.Gates = append(out.Gates, g)
			return nil
		}
		if len(g.Inputs) < 2 {
			return fmt.Errorf("iscas: cannot map %s/%d", g.Type, len(g.Inputs))
		}
		// Decompose wide gates: first two inputs through the binary inner
		// op, then fold. NAND(a,b,c,d) = NAND(AND(a,b), c, d) etc.
		var inner string
		switch g.Type {
		case "NAND", "AND":
			inner = "AND"
		case "NOR", "OR":
			inner = "OR"
		case "XOR":
			inner = "XOR"
		default:
			return fmt.Errorf("iscas: cannot decompose %s", g.Type)
		}
		aux++
		mid := fmt.Sprintf("%s_aux%d", g.Output, aux)
		if err := lower(Gate{Name: g.Name + "_a", Type: inner, Inputs: g.Inputs[:2], Output: mid}); err != nil {
			return err
		}
		rest := append([]string{mid}, g.Inputs[2:]...)
		return lower(Gate{Name: g.Name + "_b", Type: g.Type, Inputs: rest, Output: g.Output})
	}
	for _, g := range c.Gates {
		if err := lower(g); err != nil {
			return nil, err
		}
	}
	return out, nil
}
