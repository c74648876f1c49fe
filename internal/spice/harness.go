package spice

import (
	"fmt"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
)

// HarnessDriver is one transistor-level driver of a StageSpec: a library
// cell whose inputs are driven by ideal voltage sources and whose output
// connects to a named node of the load netlist.
type HarnessDriver struct {
	Name  string // instance prefix (defaults to "d<index>")
	Cell  *device.Cell
	Drive float64
	Out   string // load-netlist node driven by the cell output
}

// StageSpec describes a transistor-level replica of one logic stage for
// golden per-sample evaluation: the paper's SPICE baseline, packaged so
// statistical drivers can rerun the comparison on any stage instead of
// re-implementing it inside each experiment.
//
// BuildLoad returns a fresh netlist holding the stage's linear load
// (interconnect plus receiver loading) with deterministic node names;
// it is invoked once per Eval because the expansion bakes the sample's
// DL/DVT deviations into every transistor instance and flattens element
// values at the W sample.
type StageSpec struct {
	Tech      *device.ModelSet
	Drivers   []HarnessDriver
	BuildLoad func() (*circuit.Netlist, error)
	Probe     string // probed node (the stage output seen downstream)
	// DT and TStop match the TETA stage's window. TStop is a cap: like
	// the TETA stage, a run ends once the settle rule (circuit.Settle)
	// holds over the driver outputs and the probe.
	DT, TStop float64
}

// StageHarness evaluates a StageSpec with the Newton transient simulator,
// one full transistor-level run per sample.
type StageHarness struct {
	spec StageSpec
}

// NewStageHarness validates the spec.
func NewStageHarness(spec StageSpec) (*StageHarness, error) {
	if spec.Tech == nil {
		return nil, fmt.Errorf("spice: harness needs a device model set")
	}
	if len(spec.Drivers) == 0 {
		return nil, fmt.Errorf("spice: harness needs at least one driver")
	}
	for i, d := range spec.Drivers {
		if d.Cell == nil || d.Out == "" {
			return nil, fmt.Errorf("spice: harness driver %d needs a cell and an output node", i)
		}
	}
	if spec.BuildLoad == nil {
		return nil, fmt.Errorf("spice: harness needs a load builder")
	}
	if spec.Probe == "" {
		return nil, fmt.Errorf("spice: harness needs a probe node")
	}
	if spec.DT <= 0 || spec.TStop <= 0 {
		return nil, fmt.Errorf("spice: harness needs positive DT and TStop")
	}
	return &StageHarness{spec: spec}, nil
}

// Eval expands the stage at one statistical sample and runs the Newton
// transient: element values are evaluated at w, every transistor carries
// the dl/dvt deviations, and driver d's input pin k is an ideal source
// with waveform ins[d][k]. It returns the probed waveform plus the
// Newton cost counters (steps, iterations, LU factorizations).
func (h *StageHarness) Eval(w map[string]float64, dl, dvt float64, ins [][]circuit.Waveform) (*circuit.PWL, Stats, error) {
	spec := h.spec
	if len(ins) != len(spec.Drivers) {
		return nil, Stats{}, fmt.Errorf("spice: harness got %d input groups for %d drivers", len(ins), len(spec.Drivers))
	}
	nl, err := spec.BuildLoad()
	if err != nil {
		return nil, Stats{}, fmt.Errorf("spice: harness load: %w", err)
	}
	nl.AddV("VDDH", "vdd", "0", circuit.DC(spec.Tech.VDD))
	for d, drv := range spec.Drivers {
		if len(ins[d]) != drv.Cell.NIn {
			return nil, Stats{}, fmt.Errorf("spice: harness driver %d (%s) got %d inputs, want %d",
				d, drv.Cell.Name, len(ins[d]), drv.Cell.NIn)
		}
		name := drv.Name
		if name == "" {
			name = fmt.Sprintf("d%d", d)
		}
		inNodes := make([]string, len(ins[d]))
		for k, wfm := range ins[d] {
			node := fmt.Sprintf("hin_%s_%d", name, k)
			nl.AddV(fmt.Sprintf("VH_%s_%d", name, k), node, "0", wfm)
			inNodes[k] = node
		}
		if err := drv.Cell.Instantiate(nl, "hx_"+name, inNodes, drv.Out,
			device.BuildOpts{Tech: spec.Tech, Drive: drv.Drive, DL: dl, DVT: dvt}); err != nil {
			return nil, Stats{}, fmt.Errorf("spice: harness driver %d: %w", d, err)
		}
	}
	settle := []string{spec.Probe}
	for _, drv := range spec.Drivers {
		settle = append(settle, drv.Out)
	}
	sim, err := NewSimulator(nl, Options{DT: spec.DT, TStop: spec.TStop, Models: spec.Tech, W: w, SettleNodes: settle})
	if err != nil {
		return nil, Stats{}, err
	}
	res, err := sim.Run([]string{spec.Probe})
	if err != nil {
		return nil, Stats{}, err
	}
	wf, err := res.Waveform(spec.Probe)
	if err != nil {
		return nil, Stats{}, err
	}
	return wf, res.Stats, nil
}
