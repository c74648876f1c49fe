package ssta

import (
	"fmt"
	"strings"

	"lcsim/internal/iscas"
)

// Entry is one external input of a block: the outside net whose signal
// enters the block's chain at (Stage, Pin). Entries are ordered by
// (Stage, Pin), so every traversal over them is deterministic.
type Entry struct {
	Net   string
	Stage int
	Pin   int
}

// Block is one fan-out-free chain of gates: each gate's output drives
// exactly one gate input pin inside the chain, so the whole chain
// characterizes as a single core.BuildChain path (one macromodel per
// distinct cell sequence).
type Block struct {
	ID    int
	Gates []iscas.PathGate // chain order; SignalPin of gate k>0 is the chain-link pin
	Cells []string         // mapped cell names, chain order
	Key   string           // content key: Cells joined — blocks with equal keys share a model
	// Output is the net driven by the chain's last gate: a fan-out point,
	// a sink net (PO or DFF D pin), or both.
	Output string
	// Entries lists the block's external inputs in (Stage, Pin) order.
	// Stage-0 pin SignalPin is the "spine" entry; the rest are side pins.
	Entries []Entry
	// Sink reports whether Output is observable (PO or DFF D pin).
	Sink bool
}

// Graph is the block-level timing graph of a tech-mapped circuit:
// fan-out-free chains in topological order, with entry nets referring to
// earlier blocks' outputs or to source nets (PIs and DFF Q pins).
type Graph struct {
	Circuit *iscas.Circuit
	Blocks  []*Block // topological order: every entry net is a source or an earlier block's Output
	// SinkBlocks indexes the blocks whose output is observable, in block
	// order.
	SinkBlocks []int
	// Sources are the zero-arrival nets (PIs and DFF Q pins).
	Sources map[string]bool
}

// Partition shards a tech-mapped circuit into fan-out-free blocks. A
// gate g merges into its unique successor s iff g's output drives
// exactly one gate input pin and is not observable (not a PO, not a DFF
// D pin); when several of s's input pins qualify, the lowest pin wins
// (the chain is linear), and the losers terminate their own blocks.
// Every net feeding a block from outside is therefore either a source
// net or the output of an earlier block.
func Partition(c *iscas.Circuit) (*Graph, error) {
	topo, driver, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	isSource := c.SourceNets()
	isSink := c.SinkNets()

	// Fan-out degree of every gate's output over gate input pins, by
	// driving gate (TopoOrder has checked that every non-source input is
	// driven).
	fanout := make([]int, len(c.Gates))
	for _, g := range c.Gates {
		for _, in := range g.Inputs {
			if !isSource[in] {
				fanout[driver[in]]++
			}
		}
	}
	mergeable := func(gi int) bool {
		return fanout[gi] == 1 && !isSink[c.Gates[gi].Output]
	}

	// Chain links: succ[g] = the gate that absorbs g (or -1). A gate
	// absorbs at most one predecessor — the mergeable one on its lowest
	// input pin.
	succ := make([]int, len(c.Gates))
	pred := make([]int, len(c.Gates))
	linkPin := make([]int, len(c.Gates)) // pin on gate i fed by pred[i]
	for i := range succ {
		succ[i], pred[i] = -1, -1
	}
	for _, i := range topo {
		for pin, in := range c.Gates[i].Inputs {
			if isSource[in] {
				continue
			}
			di := driver[in]
			if mergeable(di) && succ[di] == -1 {
				succ[di] = i
				pred[i] = di
				linkPin[i] = pin
				break // lowest pin wins; the chain is linear
			}
		}
	}

	// Topological position per gate, for ordering blocks by their tail.
	pos := make([]int, len(c.Gates))
	for p, i := range topo {
		pos[i] = p
	}

	g := &Graph{Circuit: c, Sources: isSource}
	// Walk heads in topological order so block IDs are deterministic;
	// blocks sort by tail position, which yields a valid block topological
	// order (every entry net's driving tail precedes the consuming gate).
	type headTail struct{ head, tail int }
	var chains []headTail
	for _, i := range topo {
		if pred[i] != -1 {
			continue // interior or tail of a chain started earlier
		}
		tail := i
		for succ[tail] != -1 {
			tail = succ[tail]
		}
		chains = append(chains, headTail{i, tail})
	}
	// Order blocks by tail topological position (strictly increasing:
	// tails are distinct gates).
	for swapped := true; swapped; { // tiny n; simple stable sort
		swapped = false
		for k := 0; k+1 < len(chains); k++ {
			if pos[chains[k].tail] > pos[chains[k+1].tail] {
				chains[k], chains[k+1] = chains[k+1], chains[k]
				swapped = true
			}
		}
	}

	for id, ch := range chains {
		b := &Block{ID: id}
		for gi := ch.head; ; gi = succ[gi] {
			gate := c.Gates[gi]
			pg := iscas.PathGate{Gate: gate, SignalPin: 0}
			if len(b.Gates) > 0 {
				pg.SignalPin = linkPin[gi]
			}
			stage := len(b.Gates)
			for pin, in := range gate.Inputs {
				if stage > 0 && pin == linkPin[gi] {
					continue // chain link, not an external entry
				}
				b.Entries = append(b.Entries, Entry{Net: in, Stage: stage, Pin: pin})
			}
			b.Gates = append(b.Gates, pg)
			b.Cells = append(b.Cells, gate.Type)
			if gi == ch.tail {
				break
			}
		}
		b.Key = strings.Join(b.Cells, "/")
		b.Output = c.Gates[ch.tail].Output
		b.Sink = isSink[b.Output]
		if b.Sink {
			g.SinkBlocks = append(g.SinkBlocks, id)
		}
		g.Blocks = append(g.Blocks, b)
	}
	if len(g.Blocks) == 0 {
		return nil, fmt.Errorf("ssta: circuit %s has no gates to partition", c.Name)
	}
	return g, nil
}

// DistinctKeys returns the distinct block content keys in first-seen
// (block ID) order — the characterization work list.
func (g *Graph) DistinctKeys() []string {
	seen := map[string]bool{}
	var keys []string
	for _, b := range g.Blocks {
		if !seen[b.Key] {
			seen[b.Key] = true
			keys = append(keys, b.Key)
		}
	}
	return keys
}
