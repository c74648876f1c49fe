// Package lcsim's root benchmarks regenerate every table and figure of the
// paper's evaluation (via internal/experiments) and run the ablations
// listed in DESIGN.md §6. Workload sizes are scaled down so a full
// `go test -bench=. -benchmem` finishes in minutes; the cmd/example*
// binaries run the paper-sized configurations.
package lcsim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"lcsim/internal/circuit"
	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/experiments"
	"lcsim/internal/interconnect"
	"lcsim/internal/iscas"
	"lcsim/internal/mat"
	"lcsim/internal/mor"
	"lcsim/internal/poleres"
	"lcsim/internal/sparse"
	"lcsim/internal/spice"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// --- Paper artifacts -----------------------------------------------------

// BenchmarkExample1Table3 regenerates the unstable-pole table.
func BenchmarkExample1Table3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3(4, []float64{0.05, 0.06, 0.08, 0.09, 0.1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].NumUnstable == 0 {
			b.Fatal("expected instability")
		}
	}
}

// BenchmarkExample1Figure3 regenerates the waveform-agreement comparison.
func BenchmarkExample1Figure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxErrV*1e3, "maxErr-mV")
	}
}

// BenchmarkExample1Divergence regenerates the §5.1 SPICE failure.
func BenchmarkExample1Divergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunDivergence([]float64{0, 0.1})
		if err != nil {
			b.Fatal(err)
		}
		if rows[1].SPICEOutcome != "diverged" {
			b.Fatal("expected divergence at p=0.1")
		}
	}
}

// BenchmarkExample2Figure5 regenerates the CPU-time comparison (scaled:
// two lengths, 6 samples).
func BenchmarkExample2Figure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFigure5(experiments.Ex2Options{Samples: 6}, []float64{25, 50}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Speedup, "speedup")
	}
}

// BenchmarkExample2Figure6 regenerates the histogram accuracy comparison.
func BenchmarkExample2Figure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure6(experiments.Ex2Options{Samples: 10}, 40)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanErrPct, "meanErr-%")
	}
}

// BenchmarkExample3Table4 regenerates the speedup table (scaled: s27 only,
// 10 and 100 elements).
func BenchmarkExample3Table4(b *testing.B) {
	set := []iscas.Benchmark{{Name: "s27", Stages: 6, Seed: 27}}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable4(experiments.Ex3Options{Samples: 10}, set, []int{10, 100}, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].Speedup, "speedup-500elem-class")
	}
}

// BenchmarkExample3Table5 regenerates the GA-vs-MC statistics (scaled).
func BenchmarkExample3Table5(b *testing.B) {
	set := []iscas.Benchmark{{Name: "s27", Stages: 6, Seed: 27}}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable5(experiments.Ex3Options{Samples: 20, Workers: -1}, set, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].GAStdPs, "GA-std-ps")
		b.ReportMetric(rows[0].MCStdPs, "MC-std-ps")
	}
}

// BenchmarkExample3Figure7 regenerates the histogram pair for s27.
func BenchmarkExample3Figure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure7(experiments.Ex3Options{Samples: 20, Workers: -1},
			iscas.Benchmark{Name: "s27", Stages: 6, Seed: 27}, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GAStd*1e12, "GA-std-ps")
	}
}

// --- Ablations (DESIGN.md §6) --------------------------------------------

// quickStage builds a small reusable stage for ablations.
func quickStage(b *testing.B, cfg teta.Config) *teta.Stage {
	b.Helper()
	load := circuit.New()
	far := interconnect.AddLine(load, interconnect.Wire180, "near", "w", 60, 1, true)
	load.MarkPort("near")
	load.MarkPort(far)
	load.AddC("Crcv", far, "0", circuit.V(2e-15))
	st, err := teta.BuildStage(load, []teta.DriverSpec{{Name: "d", Cell: device.INV, Drive: 4, Port: 0}}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func stageInput(tech *device.ModelSet) [][]circuit.Waveform {
	return [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: tech.VDD, Start: 0.3e-9, Slew: 0.1e-9}}}
}

// BenchmarkAblationChord compares the SC iteration count across chord
// policies (DESIGN.md: chord conductance choice).
func BenchmarkAblationChord(b *testing.B) {
	for _, policy := range []teta.ChordPolicy{teta.ChordMax, teta.ChordHalf, teta.ChordSecant} {
		b.Run(policy.String(), func(b *testing.B) {
			cfg := teta.Config{Tech: device.Tech180, DT: 2e-12, TStop: 1.5e-9, Order: 4, Chord: policy}
			st := quickStage(b, cfg)
			in := stageInput(cfg.Tech)
			b.ResetTimer()
			var iters, steps int
			for i := 0; i < b.N; i++ {
				res, err := st.Run(teta.RunSpec{Inputs: in})
				if err != nil {
					b.Fatal(err)
				}
				iters += res.Stats.SCIterations
				steps += res.Stats.Steps
			}
			b.ReportMetric(float64(iters)/float64(steps), "SC-iters/step")
		})
	}
}

// BenchmarkAblationOrder measures accuracy/cost vs ROM order (reference:
// order 10).
func BenchmarkAblationOrder(b *testing.B) {
	ref := quickStage(b, teta.Config{Tech: device.Tech180, DT: 2e-12, TStop: 1.5e-9, Order: 10})
	in := stageInput(device.Tech180)
	refRes, err := ref.Run(teta.RunSpec{Inputs: in})
	if err != nil {
		b.Fatal(err)
	}
	refWf, _ := refRes.PortWaveform(1)
	refCross := refWf.CrossTime(0.9, -1)
	for _, order := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("order%d", order), func(b *testing.B) {
			st := quickStage(b, teta.Config{Tech: device.Tech180, DT: 2e-12, TStop: 1.5e-9, Order: order})
			b.ResetTimer()
			var errPs float64
			for i := 0; i < b.N; i++ {
				res, err := st.Run(teta.RunSpec{Inputs: in})
				if err != nil {
					b.Fatal(err)
				}
				wf, _ := res.PortWaveform(1)
				errPs = (wf.CrossTime(0.9, -1) - refCross) * 1e12
			}
			b.ReportMetric(errPs, "crossErr-ps")
		})
	}
}

// BenchmarkAblationFilter compares the stabilization variants on the
// Example-1 unstable model (β scaling of eqs. 22–23 vs DC shift). It
// evaluates through RunExact: the per-sample extraction is where the
// model goes unstable at p = 0.1, while the characterize-once
// macromodel's first-order poles stay stable there.
func BenchmarkAblationFilter(b *testing.B) {
	vromStage := func(useBeta bool) (*teta.Stage, [][]circuit.Waveform) {
		load := experiments.BuildExample1Load()
		cfg := teta.Config{Tech: device.Tech600, DT: 20e-12, TStop: 30e-9, Order: 4, Delta: 0.1, UseBetaStab: useBeta}
		st, err := teta.BuildStage(load, []teta.DriverSpec{{Name: "inv", Cell: device.INV, Drive: 2, Port: 0}}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		in := [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 3.3, Start: 2e-9, Slew: 0.5e-9}}}
		return st, in
	}
	for _, variant := range []struct {
		name string
		beta bool
	}{{"shift", false}, {"beta", true}} {
		b.Run(variant.name, func(b *testing.B) {
			st, in := vromStage(variant.beta)
			rs := teta.RunSpec{W: map[string]float64{experiments.Ex1Param: 0.1}, Inputs: in}
			ref, err := st.RunDirect(rs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var maxErr float64
			for i := 0; i < b.N; i++ {
				res, err := st.RunExact(rs)
				if err != nil {
					b.Fatal(err)
				}
				maxErr = 0
				for k := range res.T {
					if d := res.PortV[0][k] - ref.PortV[0][k]; d > maxErr {
						maxErr = d
					} else if -d > maxErr {
						maxErr = -d
					}
				}
			}
			b.ReportMetric(maxErr*1e3, "maxErr-mV")
		})
	}
}

// BenchmarkAblationLHS compares estimator spread of LHS vs plain MC for
// the mean of a path-delay-like monotone response.
func BenchmarkAblationLHS(b *testing.B) {
	response := func(row []float64) float64 {
		return 100e-12 + 8e-12*row[0] + 5e-12*row[1] - 3e-12*row[2]
	}
	estimate := func(gen func(rng *rand.Rand, n, d int) [][]float64, seed int64) float64 {
		cube := gen(stat.NewRNG(seed), 30, 3)
		acc := 0.0
		for _, r := range cube {
			acc += response(r)
		}
		return acc / float64(len(cube))
	}
	for _, variant := range []struct {
		name string
		gen  func(rng *rand.Rand, n, d int) [][]float64
	}{{"lhs", stat.LatinHypercube}, {"plain", stat.MonteCarloCube}} {
		b.Run(variant.name, func(b *testing.B) {
			var spread float64
			for i := 0; i < b.N; i++ {
				var means []float64
				for s := int64(0); s < 50; s++ {
					means = append(means, estimate(variant.gen, s))
				}
				spread = stat.Std(means)
			}
			b.ReportMetric(spread*1e15, "estimator-std-fs")
		})
	}
}

// BenchmarkAblationSparse compares the sparse circuit LU against dense
// factorization on RC-ladder conductance matrices.
func BenchmarkAblationSparse(b *testing.B) {
	build := func(n int) (*sparse.CSC, *mat.Dense) {
		tr := sparse.NewTriplet(n)
		d := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			g := 1.0/(1+float64(i%7)) + 1e-3
			tr.Add(i, i, g)
			d.Add(i, i, g)
			if i+1 < n {
				g2 := 0.5
				tr.Add(i, i, g2)
				tr.Add(i+1, i+1, g2)
				tr.Add(i, i+1, -g2)
				tr.Add(i+1, i, -g2)
				d.Add(i, i, g2)
				d.Add(i+1, i+1, g2)
				d.Add(i, i+1, -g2)
				d.Add(i+1, i, -g2)
			}
		}
		return tr.Compile(), d
	}
	for _, n := range []int{200, 800} {
		sp, dn := build(n)
		b.Run(fmt.Sprintf("sparse-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sparse.FactorLU(sp, 0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("dense-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mat.FactorLU(dn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate micro-benchmarks -------------------------------------------

// BenchmarkVariationalROMBuild measures library pre-characterization.
func BenchmarkVariationalROMBuild(b *testing.B) {
	bus := interconnect.BuildBus(interconnect.Wire180, 3, 100, 1, true)
	for _, n := range bus.In {
		bus.Netlist.MarkPort(n)
	}
	sys, err := circuit.AssembleVariational(bus.Netlist)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.SetPortConductance([]float64{1e-2, 1e-2, 1e-2}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mor.BuildVariational(sys, mor.BuildOptions{Order: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkROMEvaluation measures one library evaluation + stabilization —
// the per-sample cost the framework amortizes everything down to.
func BenchmarkROMEvaluation(b *testing.B) {
	bus := interconnect.BuildBus(interconnect.Wire180, 3, 100, 1, true)
	for _, n := range bus.In {
		bus.Netlist.MarkPort(n)
	}
	sys, err := circuit.AssembleVariational(bus.Netlist)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.SetPortConductance([]float64{1e-2, 1e-2, 1e-2}); err != nil {
		b.Fatal(err)
	}
	vrom, err := mor.BuildVariational(sys, mor.BuildOptions{Order: 6})
	if err != nil {
		b.Fatal(err)
	}
	w := map[string]float64{interconnect.ParamW: 0.4, interconnect.ParamT: -0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rom := vrom.At(w)
		pr, err := poleres.Extract(rom)
		if err != nil {
			b.Fatal(err)
		}
		pr.StabilizeShift()
	}
}

// BenchmarkGAvsMCPathCost contrasts the two statistical methods' costs on
// the same path (GA: linear in sources; MC: linear in samples).
func BenchmarkGAvsMCPathCost(b *testing.B) {
	p, err := core.BuildChain(core.ChainSpec{
		Cells: []string{"INV", "NAND2", "INV"}, Drive: 2, ElemsBetween: 10,
		WireLengthUm: 5, Tech: device.Tech180, DT: 4e-12, TStop: 1.6e-9, Order: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	sources := core.DeviceSources(device.Tech180, 0.33, 0.33)
	b.Run("GA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.GradientAnalysis(core.GAConfig{Sources: sources}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MC20", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.MonteCarloCtx(context.Background(), core.MCConfig{N: 20, Sources: sources, RunConfig: core.RunConfig{Seed: 3}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMCWorkers measures the parallel runtime on a 1000-sample
// Monte-Carlo run over a short chain: serial vs all cores, plus the
// scaling gate. speedup times five 1-worker/4-worker pairs, alternating
// which side runs first, checks each pair's summaries are bit-identical
// (same seed ⇒ same plan, ordered streaming sink) and fails when the
// median ratio is below 1.5×: one pair alone swings widely on a shared
// host. A host with GOMAXPROCS < 4 cannot show that speedup, so there it
// skips instead of reporting a number.
func BenchmarkMCWorkers(b *testing.B) {
	p, err := core.BuildChain(core.ChainSpec{
		Cells: []string{"INV", "INV"}, Drive: 2, ElemsBetween: 4,
		WireLengthUm: 2, Tech: device.Tech180, DT: 4e-12, TStop: 1.6e-9, Order: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	sources := core.DeviceSources(device.Tech180, 0.33, 0.33)
	run := func(b *testing.B, workers int) *core.MCResult {
		res, err := p.MonteCarloCtx(context.Background(), core.MCConfig{
			N: 1000, Sources: sources,
			RunConfig: core.RunConfig{Seed: 3, Workers: workers},
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, 0)
		}
	})
	b.Run("allCores", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, -1)
		}
	})
	b.Run("speedup", func(b *testing.B) {
		if procs := runtime.GOMAXPROCS(0); procs < 4 {
			b.Skipf("GOMAXPROCS %d: need >= 4 to assert a 4-worker speedup", procs)
		}
		timed := func(workers int) (*core.MCResult, float64) {
			t0 := time.Now()
			res := run(b, workers)
			return res, time.Since(t0).Seconds()
		}
		const pairs = 5
		for i := 0; i < b.N; i++ {
			ratios := make([]float64, pairs)
			for k := range ratios {
				var serial, par *core.MCResult
				var ts, tp float64
				if k%2 == 0 {
					serial, ts = timed(1)
					par, tp = timed(4)
				} else {
					par, tp = timed(4)
					serial, ts = timed(1)
				}
				if serial.Summary != par.Summary {
					b.Fatal("parallel summary differs from serial")
				}
				ratios[k] = ts / tp
			}
			sort.Float64s(ratios)
			speedup := ratios[pairs/2]
			if speedup < 1.5 {
				b.Fatalf("median 4-worker speedup %.2fx is below the 1.5x floor (pairs %.2f, GOMAXPROCS %d)", speedup, ratios, runtime.GOMAXPROCS(0))
			}
			b.ReportMetric(speedup, "x-speedup")
		}
	})
}

// BenchmarkAblationGAStep studies the Gradient-Analysis finite-difference
// step size (fraction of source σ): too small amplifies simulation noise,
// too large picks up curvature; the σ estimate should be stable across a
// wide middle range.
func BenchmarkAblationGAStep(b *testing.B) {
	p, err := core.BuildChain(core.ChainSpec{
		Cells: []string{"INV", "NAND2"}, Drive: 2, ElemsBetween: 10,
		WireLengthUm: 5, Tech: device.Tech180, DT: 4e-12, TStop: 1.6e-9, Order: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	sources := core.DeviceSources(device.Tech180, 0.33, 0.33)
	for _, step := range []float64{0.1, 0.5, 1.0, 2.0} {
		b.Run(fmt.Sprintf("step%.1f", step), func(b *testing.B) {
			var sigma float64
			for i := 0; i < b.N; i++ {
				ga, err := p.GradientAnalysis(core.GAConfig{Sources: sources, Step: step})
				if err != nil {
					b.Fatal(err)
				}
				sigma = ga.Std
			}
			b.ReportMetric(sigma*1e12, "GA-std-ps")
		})
	}
}

// BenchmarkSpiceAdaptiveVsFixed contrasts the baseline's two stepping
// modes on an inverter transient with a long quiet tail.
func BenchmarkSpiceAdaptiveVsFixed(b *testing.B) {
	build := func() *circuit.Netlist {
		nl := circuit.New()
		nl.AddV("VDD", "vdd", "0", circuit.DC(1.8))
		nl.AddV("VIN", "in", "0", circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.2e-9, Slew: 0.1e-9})
		if err := device.INV.Instantiate(nl, "u1", []string{"in"}, "out", device.BuildOpts{Tech: device.Tech180, Drive: 2}); err != nil {
			b.Fatal(err)
		}
		nl.AddC("CL", "out", "0", circuit.V(20e-15))
		return nl
	}
	for _, variant := range []struct {
		name     string
		adaptive bool
	}{{"fixed", false}, {"adaptive", true}} {
		b.Run(variant.name, func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				sim, err := spice.NewSimulator(build(), spice.Options{
					DT: 2e-12, TStop: 10e-9, Models: device.Tech180,
					Adaptive: variant.adaptive,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run([]string{"out"})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Stats.Steps
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkExtractVsVar contrasts the two ways to produce a per-sample
// pole/residue macromodel on the same variational library: evaluating
// the library and running the exact eigendecomposition-based extraction
// (the pre-characterize-once cost), versus the first-order macromodel's
// affine update into reusable scratch. The gap is the paper's per-sample
// characterization saving; the var path must also be allocation-free.
func BenchmarkExtractVsVar(b *testing.B) {
	bus := interconnect.BuildBus(interconnect.Wire180, 3, 100, 1, true)
	for _, n := range bus.In {
		bus.Netlist.MarkPort(n)
	}
	sys, err := circuit.AssembleVariational(bus.Netlist)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.SetPortConductance([]float64{1e-2, 1e-2, 1e-2}); err != nil {
		b.Fatal(err)
	}
	vrom, err := mor.BuildVariational(sys, mor.BuildOptions{Order: 6})
	if err != nil {
		b.Fatal(err)
	}
	w := map[string]float64{interconnect.ParamW: 0.4, interconnect.ParamT: -0.3}
	b.Run("exactExtract", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rom := vrom.At(w)
			pr, err := poleres.Extract(rom)
			if err != nil {
				b.Fatal(err)
			}
			pr.StabilizeShiftInPlace()
		}
	})
	b.Run("varMacro", func(b *testing.B) {
		vm, err := poleres.ExtractVar(vrom)
		if err != nil {
			b.Fatal(err)
		}
		me := vm.NewEval()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr, err := vm.EvalInto(me, w)
			if err != nil {
				b.Fatal(err)
			}
			pr.StabilizeShiftInPlace()
		}
	})
}

// BenchmarkMCAllocs tracks the full Monte-Carlo per-sample cost — time
// AND allocations (run with -benchmem) — on the Example-2 coupled stage,
// fast path vs exact per-sample extraction, single worker so the numbers
// are per-sample, not per-core.
func BenchmarkMCAllocs(b *testing.B) {
	o := experiments.Ex2Options{Samples: 16}
	st, err := experiments.BuildExample2Stage(o, 40)
	if err != nil {
		b.Fatal(err)
	}
	specs := experiments.Example2Samples(o)
	b.Run("varMacro", func(b *testing.B) {
		sc := st.NewScratch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.RunWith(sc, specs[i%len(specs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exactExtract", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := st.RunExact(specs[i%len(specs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
