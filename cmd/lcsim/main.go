// Command lcsim is the general driver CLI:
//
//	lcsim sim      -netlist f.sp -tstop 5n -dt 5p -probe out[,node2,...]
//	lcsim reduce   -netlist f.sp -order 4 [-at p=0.1,...]
//	lcsim sta      -bench s27 [-ssta -budget 300p -mc 5000 -check 0.05]
//	lcsim yield    -cells INV,NAND2,INV -budget-sigma 4 -n 1000
//	lcsim validate -engines teta-exact,spice-golden -samples 20
//	lcsim run      -spec job.json
//
// `sim` runs the Newton transient simulator on a SPICE-like netlist;
// `reduce` builds the (variational) reduced-order model of the netlist's
// linear part and prints its poles before and after stabilization;
// `sta` parses an ISCAS-89 benchmark (builtin name or .bench file) and
// reports the critical path; with -ssta it runs full-chip block-level
// statistical STA (per-sink arrival distributions, chip yield, slack),
// with -mc a brute-force Monte-Carlo cross-check of the same graph;
// `yield` estimates tail timing yield at a delay budget by
// importance sampling (a GA-aimed mean-shifted proposal — ppm-level
// failure probabilities at orders of magnitude fewer evaluations than
// plain Monte Carlo);
// `validate` cross-checks stage-evaluation engines (e.g. the TETA fast
// path against the transistor-level spice-golden baseline) on a shared
// sample set. Performance is measured by the repo benchmark
// (`bash perfbench/run.sh`), not by a subcommand.
//
// Every subcommand is a thin spec builder over the internal/job driver
// registry: its flags serialize into a job.Spec (printable with
// -dump-spec), and `lcsim run -spec f.json` executes any such spec —
// the classic invocation and the spec replay run the exact same driver
// code and produce bit-identical output. All subcommands accept
// -model-cache DIR, a content-addressed on-disk store that carries
// characterized macromodels across runs (see internal/modelcache).
//
// Global flags (before the subcommand): -cpuprofile and -memprofile
// write pprof profiles covering the subcommand's work.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"lcsim/internal/checkpoint"
)

func main() {
	fs := flag.NewFlagSet("lcsim", flag.ExitOnError)
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the subcommand to `file`")
	memprofile := fs.String("memprofile", "", "write a heap profile to `file` before exiting")
	fs.Usage = usage
	fs.Parse(os.Args[1:]) // stops at the subcommand (first non-flag)
	args := fs.Args()
	if len(args) < 1 {
		usage()
	}
	stopProfiles = startProfiles(*cpuprofile, *memprofile)
	switch args[0] {
	case "sim":
		runSim(args[1:])
	case "reduce":
		runReduce(args[1:])
	case "sta":
		runSTA(args[1:])
	case "path":
		runPath(args[1:])
	case "skew":
		runSkew(args[1:])
	case "yield":
		runYield(args[1:])
	case "validate":
		runValidate(args[1:])
	case "run":
		runRun(args[1:])
	default:
		usage()
	}
	stopProfiles()
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lcsim [-cpuprofile f] [-memprofile f] <sim|reduce|sta|path|skew|yield|validate|run> [flags]")
	os.Exit(2)
}

// stopProfiles finalizes any active profiles; fail() calls it so error
// exits still flush what was collected.
var stopProfiles = func() {}

// startProfiles begins CPU profiling and/or arranges a heap snapshot,
// returning an idempotent stop function.
func startProfiles(cpu, mem string) func() {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lcsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "lcsim:", err)
			os.Exit(1)
		}
		cpuF = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lcsim:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lcsim:", err)
			}
			f.Close()
		}
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcsim:", err)
		stopProfiles()
		os.Exit(1)
	}
}

// checkpointFlags registers the crash-safe-run flags shared by the long
// statistical subcommands. The returned resolver (call it after Parse)
// turns them into a checkpoint config; nil means journaling is off.
func checkpointFlags(fs *flag.FlagSet) func() *checkpoint.Config {
	path := fs.String("checkpoint", "", "durable run-journal `file`, written atomically during the sweep (empty = off)")
	every := fs.Int("checkpoint-every", 0, "samples between journal flushes (0 = default 64; a 30s wall-clock bound always applies)")
	resume := fs.Bool("resume", false, "continue from the -checkpoint journal instead of starting at sample 0")
	return func() *checkpoint.Config {
		if *path == "" {
			if *resume {
				fail(fmt.Errorf("-resume needs -checkpoint"))
			}
			if *every != 0 {
				fail(fmt.Errorf("-checkpoint-every needs -checkpoint"))
			}
			return nil
		}
		return &checkpoint.Config{Path: *path, Every: *every, Resume: *resume}
	}
}

// progressFn returns a stderr progress reporter, or nil when disabled.
func progressFn(enabled bool, label string) func(done, total int) {
	if !enabled {
		return nil
	}
	return func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d samples", label, done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

func parseSample(spec string) map[string]float64 {
	w := map[string]float64{}
	if spec == "" {
		return w
	}
	for _, kv := range strings.Split(spec, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			fail(fmt.Errorf("bad sample entry %q (want name=value)", kv))
		}
		v, err := strconv.ParseFloat(parts[1], 64)
		fail(err)
		w[parts[0]] = v
	}
	return w
}
