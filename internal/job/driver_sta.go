package job

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/iscas"
	"lcsim/internal/ssta"
)

func init() {
	Register(Driver{
		Name: "sta",
		Doc:  "benchmark critical path, block-level statistical STA and its brute-force MC cross-check",
		Run:  runSTADriver,
	})
}

// STAParams parameterizes the sta driver — the job-layer form of the
// classic `lcsim sta` flag set. JSONOut is an output path, not
// identity, but rides in the params for fidelity with the flag set.
type STAParams struct {
	Bench   string  `json:"bench,omitempty"`
	SSTA    bool    `json:"ssta,omitempty"`
	MC      int     `json:"mc,omitempty"`
	Check   float64 `json:"check,omitempty"`
	Budget  string  `json:"budget,omitempty"`
	Elems   int     `json:"elems,omitempty"`
	Drive   float64 `json:"drive,omitempty"`
	StdDL   float64 `json:"std_dl,omitempty"`
	StdVT   float64 `json:"std_vt,omitempty"`
	Wires   bool    `json:"wires,omitempty"`
	JSONOut string  `json:"json_out,omitempty"`
}

// staReport is the -json payload (and the driver's Summary): the
// analytical result next to its brute-force reference.
type staReport struct {
	Circuit string         `json:"circuit"`
	SSTA    *ssta.Result   `json:"ssta,omitempty"`
	MC      *ssta.MCResult `json:"mc,omitempty"`
}

func runSTADriver(ctx context.Context, spec *Spec, env *Env) (*Result, error) {
	var sp STAParams
	if err := decodeParams(spec, &sp); err != nil {
		return nil, err
	}
	if sp.Check > 0 && (!sp.SSTA || sp.MC == 0) {
		return nil, fmt.Errorf("-check needs both -ssta and -mc")
	}
	mapped, err := loadBenchmark(sp.Bench)
	if err != nil {
		return nil, err
	}
	st := mapped.Stats()
	env.printf("%s: %d PIs, %d POs, %d DFFs, %d gates\n", mapped.Name, st.PIs, st.POs, st.DFFs, st.Gates)
	path, err := mapped.LongestPath()
	if err != nil {
		return nil, err
	}
	env.printf("longest latch-to-latch path: %d stages\n", len(path))
	for i, pg := range path {
		env.printf("  %2d. %-8s %-10s <- pin %d (%s)\n", i+1, pg.Gate.Type, pg.Gate.Output, pg.SignalPin, pg.Gate.Inputs[pg.SignalPin])
	}
	report := &staReport{Circuit: mapped.Name}
	out := &Result{Summary: report}
	if !sp.SSTA && sp.MC == 0 {
		return out, nil
	}

	b, err := parseBudget(sp.Budget)
	if err != nil {
		return nil, err
	}
	sources := core.DeviceSources(device.Tech180, sp.StdDL, sp.StdVT)
	if sp.Wires {
		sources = append(sources, core.WireSources(0.33)...)
	}
	rc, err := spec.Run.runConfig("ssta-mc", env)
	if err != nil {
		return nil, err
	}
	cfg := ssta.Config{
		RunConfig: rc,
		Sources:   sources,
		Drive:     sp.Drive,
		Elems:     sp.Elems,
		Budget:    b,
	}
	if sp.SSTA {
		res, err := ssta.Run(ctx, mapped, cfg)
		if err != nil {
			return nil, err
		}
		printSSTA(env, res, b)
		report.SSTA = res
	}
	if sp.MC > 0 {
		mc, err := ssta.RunMC(ctx, mapped, cfg, sp.MC)
		if err != nil {
			return nil, err
		}
		env.printf("mc  : %d samples (lhs sampling)\n", sp.MC)
		env.printf("  %-12s %10s %10s %10s %10s\n", "sink", "mean", "sigma", "p05", "p95")
		for _, s := range mc.Sinks {
			env.printf("  %-12s %8.2fps %8.3fps %8.2fps %8.2fps\n",
				s.Net, s.Summary.Mean*1e12, s.Summary.Std*1e12, s.Summary.P05*1e12, s.Summary.P95*1e12)
		}
		env.printf("  %-12s %8.2fps %8.3fps %8.2fps %8.2fps\n",
			"chip", mc.Chip.Mean*1e12, mc.Chip.Std*1e12, mc.Chip.P05*1e12, mc.Chip.P95*1e12)
		env.printFailures(&mc.Failures)
		report.MC = mc
		out.Failures = failuresRef(&mc.Failures)
	}
	if sp.JSONOut != "" {
		body, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(sp.JSONOut, append(body, '\n'), 0o644); err != nil {
			return nil, err
		}
		out.Artifacts = append(out.Artifacts, Artifact{Name: "sta-report", Path: sp.JSONOut})
	}
	env.printMetrics()
	if sp.Check > 0 && !checkSSTA(env, report.SSTA, report.MC, sp.Check) {
		out.CheckFailed = true
	}
	return out, nil
}

// loadBenchmark resolves a benchmark reference: the builtin s27
// netlist, a generated Table-4/5 benchmark by name, or a .bench file —
// tech-mapped either way.
func loadBenchmark(name string) (*iscas.Circuit, error) {
	if name == "" || name == "s27" {
		return iscas.S27().TechMap()
	}
	if b, ok := iscas.Lookup(name); ok {
		return iscas.Load(b)
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := iscas.ParseBench(name, f)
	if err != nil {
		return nil, err
	}
	return c.TechMap()
}

// printSSTA renders the SSTA result: characterization economics, the
// per-sink arrival table (with slack/yield when a budget is set) and
// the chip-level statistical max.
func printSSTA(env *Env, res *ssta.Result, budget float64) {
	s := res.Stats
	env.printf("ssta: %d blocks, %d distinct (%d cache hits), %d stage simulations, %d stages characterized, %v characterization\n",
		s.Blocks, s.Distinct, s.CacheHits, s.Simulations, s.Stages, s.Wall.Round(1e6))
	if budget > 0 {
		env.printf("  %-12s %10s %10s %10s %8s\n", "sink", "mean", "sigma", "slack", "yield")
	} else {
		env.printf("  %-12s %10s %10s\n", "sink", "mean", "sigma")
	}
	rows := append(append([]ssta.SinkResult(nil), res.Sinks...), res.Chip)
	for _, sr := range rows {
		if budget > 0 {
			env.printf("  %-12s %8.2fps %8.3fps %8.2fps %8.4f\n",
				sr.Net, sr.Mean*1e12, sr.Std*1e12, sr.Slack*1e12, sr.Yield)
		} else {
			env.printf("  %-12s %8.2fps %8.3fps\n", sr.Net, sr.Mean*1e12, sr.Std*1e12)
		}
	}
	env.printf("critical sink: %s\n", res.CriticalSink)
}

// checkSSTA compares SSTA against the MC reference at every sink (and
// the chip max): relative mean and sigma deviations must stay within
// tol. It prints the worst deviations and returns false on violation —
// the machine-checkable gate scripts/ssta_smoke.sh is built on.
func checkSSTA(env *Env, res *ssta.Result, mc *ssta.MCResult, tol float64) bool {
	ok := true
	worstMean, worstStd := 0.0, 0.0
	compare := func(net string, mean, std, refMean, refStd float64) {
		dm := math.Abs(mean-refMean) / math.Abs(refMean)
		ds := math.Abs(std-refStd) / refStd
		if dm > worstMean {
			worstMean = dm
		}
		if ds > worstStd {
			worstStd = ds
		}
		if dm > tol || ds > tol {
			ok = false
			env.printf("check: sink %s disagrees: mean %.2f%% sigma %.2f%% (tolerance %.2f%%)\n",
				net, dm*100, ds*100, tol*100)
		}
	}
	for _, sr := range res.Sinks {
		ref, found := mc.SinkSummary(sr.Net)
		if !found {
			ok = false
			env.printf("check: sink %s missing from the MC reference\n", sr.Net)
			continue
		}
		compare(sr.Net, sr.Mean, sr.Std, ref.Mean, ref.Std)
	}
	compare("chip", res.Chip.Mean, res.Chip.Std, mc.Chip.Mean, mc.Chip.Std)
	if ok {
		env.printf("check: PASS — worst deviation mean %.2f%%, sigma %.2f%% (tolerance %.2f%%)\n",
			worstMean*100, worstStd*100, tol*100)
	}
	return ok
}
