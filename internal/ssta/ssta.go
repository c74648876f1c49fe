// Package ssta is the full-chip block-level statistical static timing
// analysis layer: the jump from "a path" (internal/experiments'
// Example 3) to "a chip". It partitions a tech-mapped iscas.Circuit
// into fan-out-free blocks, characterizes each *distinct* block exactly
// once (content-keyed: repeated cell chains share one core.BuildChain +
// GradientAnalysis macromodel) and each distinct stage exactly once (all
// blocks of a run build through one core.StageMemo), and propagates
// canonical (mean, sensitivity, residual) arrival-time forms
// topologically, applying Clark's moment-matched statistical max at
// reconvergent fan-in — the composition rules of hierarchical SSTA
// under process variation (Li/Chen/Schlichtmann; see PAPERS.md).
//
// Validation: RunMC is the brute-force reference — it evaluates every
// distinct block nonlinearly per sample through the engine registry and
// propagates scalar arrivals with the exact max, sharing the runner
// pool, the failure policies, and the checkpoint journal via the same
// core.RunConfig. Run vs RunMC therefore isolates the SSTA
// approximation error (first-order GA linearization plus Clark's max).
package ssta

import (
	"context"
	"fmt"
	"sort"

	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/iscas"
)

// Config configures a full-chip SSTA run. The embedded core.RunConfig
// carries the shared execution policy (Seed, Workers, BatchSize,
// Metrics, Progress, OnFailure, Engine, Ladder, Checkpoint,
// SampleTimeout); the statistical question lives here.
type Config struct {
	core.RunConfig

	// Sources are the global variation sources (chip-wide: every block
	// sees the same sampled value per source).
	Sources []core.Source

	// Chain-characterization parameters (Example-3 conventions by
	// default: Tech180, drive 2, 4 ps step, 1.6 ns window, order 4, 10 RC
	// elements per inter-stage wire at 1 segment per half micron).
	Tech  *device.ModelSet
	Drive float64
	Elems int
	DT    float64
	TStop float64
	Order int

	// Budget, when positive, is the chip's arrival-time budget: per-sink
	// slack and yield (P[arrival ≤ Budget]) are reported against it.
	Budget float64
}

func (cfg *Config) setDefaults() {
	if cfg.Tech == nil {
		cfg.Tech = device.Tech180
	}
	if cfg.Drive <= 0 {
		cfg.Drive = 2
	}
	if cfg.Elems <= 0 {
		cfg.Elems = 10
	}
	if cfg.DT <= 0 {
		cfg.DT = 4e-12
	}
	if cfg.TStop <= 0 {
		cfg.TStop = 1.6e-9
	}
	if cfg.Order <= 0 {
		cfg.Order = 4
	}
}

func (cfg Config) wireLengthUm() float64 { return float64(cfg.Elems) / 2 }

func (cfg Config) validate() error {
	if len(cfg.Sources) == 0 {
		return fmt.Errorf("ssta: at least one variation source is required")
	}
	for _, s := range cfg.Sources {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SinkResult is the arrival-time distribution at one observable endpoint
// (primary output or DFF D pin).
type SinkResult struct {
	Net   string  `json:"net"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
	Slack float64 `json:"slack,omitempty"` // Budget − Mean, when a budget is set
	Yield float64 `json:"yield,omitempty"` // P[arrival ≤ Budget], when a budget is set
}

// Result is a full-chip SSTA outcome.
type Result struct {
	// Sinks lists every gate-driven observable endpoint, sorted by
	// descending mean arrival (most critical first; ties by net name).
	Sinks []SinkResult `json:"sinks"`
	// CriticalSink names the sink with the largest mean arrival.
	CriticalSink string `json:"critical_sink"`
	// Chip is the chip-level arrival: the statistical max across every
	// sink (the distribution whose Budget-yield is the chip timing yield).
	Chip SinkResult `json:"chip"`
	// Stats reports the block characterization economics.
	Stats CharacterizeStats `json:"stats"`

	graph   *Graph
	models  map[string]*BlockModel
	sources []core.Source
}

// Graph exposes the block partition behind the result (for reporting).
func (r *Result) Graph() *Graph { return r.graph }

// Run performs full-chip statistical STA: partition, characterize each
// distinct block and each distinct stage once (fanned across the runner
// pool, longest block first), then propagate
// canonical arrival forms topologically with Clark's max at reconvergent
// fan-in. The result is deterministic and bit-identical at any worker
// count (characterization is per-key deterministic; propagation is
// serial and ordered).
func Run(ctx context.Context, c *iscas.Circuit, cfg Config) (*Result, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g, err := Partition(c)
	if err != nil {
		return nil, err
	}
	models, stats, err := characterize(ctx, g, cfg)
	if err != nil {
		return nil, err
	}

	arr := propagate(g, models, len(cfg.Sources))
	res := &Result{Stats: stats, graph: g, models: models, sources: cfg.Sources}

	// Collect sink arrivals: blocks whose output is observable, folded by
	// output net (several blocks cannot share an output net — drivers are
	// unique — so this is one arrival per sink net).
	var chip Arrival
	first := true
	for _, bi := range g.SinkBlocks {
		b := g.Blocks[bi]
		a := arr[b.Output]
		sr := SinkResult{Net: b.Output, Mean: a.Mean, Std: a.Std()}
		if cfg.Budget > 0 {
			sr.Slack = cfg.Budget - a.Mean
			sr.Yield = yieldAt(a, cfg.Budget)
		}
		res.Sinks = append(res.Sinks, sr)
		if first {
			chip, first = a, false
		} else {
			chip = statMax(chip, a)
		}
	}
	if first {
		return nil, fmt.Errorf("ssta: circuit %s has no gate-driven sinks", c.Name)
	}
	sort.Slice(res.Sinks, func(i, j int) bool {
		if res.Sinks[i].Mean != res.Sinks[j].Mean {
			return res.Sinks[i].Mean > res.Sinks[j].Mean
		}
		return res.Sinks[i].Net < res.Sinks[j].Net
	})
	res.CriticalSink = res.Sinks[0].Net
	res.Chip = SinkResult{Net: "chip", Mean: chip.Mean, Std: chip.Std()}
	if cfg.Budget > 0 {
		res.Chip.Slack = cfg.Budget - chip.Mean
		res.Chip.Yield = yieldAt(chip, cfg.Budget)
	}
	return res, nil
}

// propagate walks the blocks in topological order: each block's output
// arrival is the statistical max, over its entries, of the entry net's
// arrival plus the block's suffix delay model from that entry stage.
// Entries fold in (Stage, Pin) order, sinks in block order — every max
// is applied in a deterministic sequence.
func propagate(g *Graph, models map[string]*BlockModel, nsrc int) map[string]Arrival {
	arr := map[string]Arrival{}
	at := func(net string) Arrival {
		if a, ok := arr[net]; ok {
			return a
		}
		return zeroArrival(nsrc) // source nets (and only they) are absent
	}
	for _, b := range g.Blocks {
		m := models[b.Key]
		var out Arrival
		for k, e := range b.Entries {
			cand := at(e.Net).addDelay(m.suffixMean[e.Stage], m.suffixSens[e.Stage])
			if k == 0 {
				out = cand
			} else {
				out = statMax(out, cand)
			}
		}
		arr[b.Output] = out
	}
	return arr
}

// yieldAt returns P[arrival ≤ budget] under the Gaussian arrival model.
func yieldAt(a Arrival, budget float64) float64 {
	std := a.Std()
	if std <= 0 {
		if a.Mean <= budget {
			return 1
		}
		return 0
	}
	return normPhi((budget - a.Mean) / std)
}
