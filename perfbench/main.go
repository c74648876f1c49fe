// Command perfbench is the repository benchmark: it runs one workload of
// the lcsim statistical timing stack for a fixed time, checks the
// outputs, and prints the workload's metrics as the last line of stdout.
//
//	perfbench --workload path_mc --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// times each module's public functions from outside the program on the
// workload's own inputs and prints the per-layer metrics. See README.md
// for the workloads, every metric's definition and the output checks.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// workers is the evaluating thread count of every workload.
const workers = 2

// Set-up is timed setupBefore times before a workload's measured loop
// (the last set-up serves the run) and setupAfter times after it, so
// setup_s, their median, spans the run's host load rather than one
// moment of it.
const (
	setupBefore = 16
	setupAfter  = 15
)

// heldOutSeed is reserved for confirming a later performance claim on a
// seed that was not used while the change was written.
const heldOutSeed = 90017

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"samples_per_s", "samples/s"},
	{"delay_err_pct", "%"},
	{"ssta_s", "s"},
	{"job_latency_p50_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single modules (--trace 1).
var perLayer = []metricDef{
	{"runner.busy_frac", "fraction"},
	{"runner.send_wait_frac", "fraction"},
	{"runner.dispatch_ns_per_sample", "ns"},
	{"stat.plan_ns_per_sample", "ns"},
	{"stat.accumulate_ns_per_sample", "ns"},
	{"core.eval_path_us", "us"},
	{"core.measure_us_per_sample", "us"},
	{"core.allocs_per_sample", "count"},
	{"core.build_chain_ms", "ms"},
	{"core.ga_ms", "ms"},
	{"core.ga_simulations", "count"},
	{"teta.run_us_per_stage", "us"},
	{"teta.self_us_per_stage", "us"},
	{"teta.steps_per_stage", "count"},
	{"teta.sc_iters_per_step", "count"},
	{"teta.solves_per_sample", "count"},
	{"teta.dc_start_us", "us"},
	{"teta.ga_sim_us", "us"},
	{"poleres.eval_us", "us"},
	{"poleres.stabilize_us", "us"},
	{"poleres.reconfigure_us", "us"},
	{"poleres.convolve_ns_per_step", "ns"},
	{"poleres.unstable_poles_per_eval", "count"},
	{"poleres.extract_var_ms", "ms"},
	{"iscas.load_ms", "ms"},
	{"ssta.partition_ms", "ms"},
	{"ssta.propagate_ms", "ms"},
	{"ssta.critical_block_frac", "fraction"},
	{"job.parse_hash_us", "us"},
	{"job.direct_run_s", "s"},
	{"jobd.enqueue_ms", "ms"},
	{"jobd.overhead_frac", "fraction"},
	{"jobd.shards_per_job", "count"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.load_ms", "ms"},
	{"modelcache.hit_frac", "fraction"},
	{"modelcache.get_us", "us"},
	{"spice.speedup_vs_teta", "ratio"},
	{"spice.delay_delta_pct", "%"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// check is one output check: the value compared, its limit, and whether
// it passed.
type check struct {
	Name   string  `json:"name"`
	Pass   bool    `json:"pass"`
	Value  float64 `json:"value"`
	Limit  float64 `json:"limit,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// outcome is what a workload reports: metric values by name, operation
// counts, the output checks, and free-form detail for the report line.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	checks    []check
	detail    map[string]any
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, detail: map[string]any{}}
}

// require records a check that passes when ok holds.
func (o *outcome) require(name string, ok bool, value, limit float64, detail string) {
	o.checks = append(o.checks, check{Name: name, Pass: ok, Value: value, Limit: limit, Detail: detail})
}

// within records a check that passes when value <= limit.
func (o *outcome) within(name string, value, limit float64) {
	o.require(name, value <= limit, value, limit, "")
}

// minCalls is the fewest measured calls a run makes whatever its
// duration: a traced run needs one plain and one counted call.
func minCalls(opt options) int {
	if opt.trace {
		return 2
	}
	return 1
}

type workloadFunc func(ctx context.Context, opt options) (*outcome, error)

var workloads = map[string]workloadFunc{
	"path_mc":    runPathMC,
	"ssta_chip":  runSSTAChip,
	"daemon_mix": runDaemonMix,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload name: path_mc, ssta_chip or daemon_mix")
	flag.Int64Var(&opt.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&opt.seconds, "seconds", 30, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	flag.Parse()
	opt.trace = trace == 1
	if err := run(opt, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(opt options, trace int) error {
	fn, ok := workloads[opt.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want path_mc, ssta_chip or daemon_mix)", opt.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if opt.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", opt.seconds)
	}
	if err := checkManifest("BENCHMARK.json"); err != nil {
		return err
	}
	report := map[string]any{
		"workload":      opt.workload,
		"seed":          opt.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       opt.seconds,
		"trace":         trace,
		"workers":       workers,
		"host":          hostBlock(),
	}
	if procs := runtime.GOMAXPROCS(0); workers > procs {
		report["skipped"] = fmt.Sprintf("workload runs %d evaluating threads but GOMAXPROCS is %d; a number measured here would not be comparable", workers, procs)
		printJSON(map[string]any{"report": report})
		return fmt.Errorf("skipped: %s", report["skipped"])
	}

	ctx := context.Background()
	out, err := fn(ctx, opt)
	if err != nil {
		return err
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, c := range out.checks {
		res.Correct = res.Correct && c.Pass
	}
	var notExercised []string
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			if !opt.trace {
				return fmt.Errorf("workload %s measured no %s", opt.workload, d.name)
			}
			notExercised = append(notExercised, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operation", opt.workload)
	}
	report["checks"] = out.checks
	report["detail"] = out.detail
	if len(notExercised) > 0 {
		report["not_exercised"] = notExercised
	}
	printJSON(map[string]any{"report": report})
	printJSON(res)
	return nil
}

// printJSON writes v as one JSON line to stdout.
func printJSON(v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding output:", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(buf, '\n'))
}

// checkManifest verifies that the metric lists of BENCHMARK.json match
// the ones this program reports, name for name and unit for unit.
func checkManifest(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading the benchmark manifest: %w", err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	same := func(kind string, want []metricDef, got []struct{ Name, Unit string }) error {
		var a, b []string
		for _, d := range want {
			a = append(a, d.name+" "+d.unit)
		}
		for _, d := range got {
			b = append(b, d.Name+" "+d.Unit)
		}
		sort.Strings(a)
		sort.Strings(b)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			return fmt.Errorf("%s lists %s metrics %v, the program reports %v", path, kind, b, a)
		}
		return nil
	}
	if err := same("end_to_end", endToEnd, m.EndToEnd); err != nil {
		return err
	}
	return same("per_layer", perLayer, m.PerLayer)
}
