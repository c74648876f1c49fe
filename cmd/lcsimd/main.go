// Command lcsimd is the crash-only job daemon over the lcsim driver
// registry:
//
//	lcsimd serve   -queue DIR [-jobs 2 -shard 64 -every 16 -model-cache DIR -fault SCHED]
//	lcsimd enqueue -queue DIR -spec job.json     (or -spec - for stdin)
//	lcsimd status  -queue DIR
//	lcsimd wait    -queue DIR [-id ID,ID,...] [-timeout 10m]
//	lcsimd cmp     a/result.json b/result.json
//
// `serve` runs the supervisor loop: it scans the queue, executes each
// accepted job.Spec as a chain of checkpoint-journaled sample-range
// shards on a bounded worker pool, retries transient shard failures
// with capped exponential backoff, fails deterministic errors
// immediately, and watchdogs stalled attempts. SIGTERM/SIGINT drain
// gracefully: in-flight shards are canceled (their journals keep every
// flushed prefix), interrupted jobs requeue, and the process exits once
// every executor unwinds. SIGKILL is also fine — that is the point: on
// restart the daemon resumes every job from its journal, and the final
// result is bit-identical to an uninterrupted `lcsim run` of the same
// spec.
//
// `enqueue` accepts a spec produced by any subcommand's -dump-spec; the
// job id is the spec's content hash, so re-enqueueing the same run is
// idempotent. `status` lists jobs with their durable journal cut.
// `wait` blocks until jobs reach a terminal state. `cmp` compares two
// result envelopes on their statistical content (driver, spec hash,
// summary, failure report) — the bit-identity check the smoke gate and
// any operator can run; cost metrics are execution wiring and excluded.
//
// -fault arms the deterministic fault-injection layer (torn journal
// writes, fsync/rename failures, read corruption, scripted engine
// failures and hangs) for chaos testing; see internal/faultinj for the
// schedule syntax.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lcsim/internal/checkpoint"
	"lcsim/internal/faultinj"
	"lcsim/internal/job"
	"lcsim/internal/jobd"
	"lcsim/internal/modelcache"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		runServe(os.Args[2:])
	case "enqueue":
		runEnqueue(os.Args[2:])
	case "status":
		runStatus(os.Args[2:])
	case "wait":
		runWait(os.Args[2:])
	case "cmp":
		runCmp(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lcsimd <serve|enqueue|status|wait|cmp> [flags]")
	os.Exit(2)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcsimd:", err)
		os.Exit(1)
	}
}

// queueFlag registers the shared -queue flag; the resolver opens it.
func queueFlag(fs *flag.FlagSet) func(f faultinj.FS) *jobd.Queue {
	dir := fs.String("queue", "", "durable job-queue `dir` (required)")
	return func(f faultinj.FS) *jobd.Queue {
		if *dir == "" {
			fail(fmt.Errorf("%s needs -queue", fs.Name()))
		}
		q, err := jobd.OpenQueue(*dir, f)
		fail(err)
		return q
	}
}

func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	queue := queueFlag(fs)
	jobs := fs.Int("jobs", 2, "concurrently executing jobs")
	shard := fs.Int("shard", 64, "samples per journaled shard leg (negative = run each job as one shard)")
	every := fs.Int("every", 16, "samples between journal flushes within a shard")
	maxAttempts := fs.Int("max-attempts", 5, "transient retries per shard before the job fails")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "base retry backoff (doubles per attempt)")
	backoffCap := fs.Duration("backoff-cap", 5*time.Second, "retry backoff ceiling")
	heartbeat := fs.Duration("heartbeat", time.Minute, "shard watchdog threshold (negative = off)")
	drainGrace := fs.Duration("drain-grace", 5*time.Second, "how long a canceled attempt may unwind before its goroutine is abandoned")
	poll := fs.Duration("poll", time.Second, "queue rescan interval")
	cacheDir := fs.String("model-cache", "", "content-addressed macromodel store `dir` shared across jobs (empty = off)")
	faultSpec := fs.String("fault", "", "deterministic fault-injection `schedule` for chaos testing, e.g. seed=7,max=50,write.torn=0.05 (see internal/faultinj)")
	fail(fs.Parse(args))

	logger := log.New(os.Stderr, "", log.LstdFlags)

	sched, err := faultinj.ParseSchedule(*faultSpec)
	fail(err)
	fsys := faultinj.Inject(faultinj.OS{}, sched)
	if sched != nil {
		// Arm every durable layer and the engine hook. This is the same
		// wiring the chaos tests use; a production daemon never sets -fault.
		checkpoint.SetFS(fsys)
		defer jobd.InstallChaos(sched)()
		logger.Printf("lcsimd: fault injection armed: %s", *faultSpec)
	}

	q := queue(fsys)
	cfg := jobd.Config{
		Queue: q, Jobs: *jobs, ShardSamples: *shard, Every: *every,
		MaxAttempts: *maxAttempts, BackoffBase: *backoff, BackoffCap: *backoffCap,
		Heartbeat: *heartbeat, DrainGrace: *drainGrace, Poll: *poll,
		Logf: logger.Printf,
	}
	if *cacheDir != "" {
		store, err := modelcache.OpenFS(*cacheDir, fsys)
		fail(err)
		cfg.MacroCache = store
	}
	s, err := jobd.New(cfg)
	fail(err)

	// SIGTERM/SIGINT start the drain; the process exits when Run returns.
	// Anything harder (SIGKILL, power loss) is also fine: that is the
	// crash-only contract the queue and journals are built around.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer cancel()
	logger.Printf("lcsimd: serving queue %s (jobs=%d shard=%d)", q.Root(), *jobs, *shard)
	fail(s.Run(ctx))
	logger.Printf("lcsimd: exiting")
}

func runEnqueue(args []string) {
	fs := flag.NewFlagSet("enqueue", flag.ExitOnError)
	queue := queueFlag(fs)
	specPath := fs.String("spec", "", "job-spec JSON `file` (\"-\" = stdin; produce one with any subcommand's -dump-spec)")
	fail(fs.Parse(args))
	if *specPath == "" {
		fail(fmt.Errorf("enqueue needs -spec"))
	}
	var data []byte
	var err error
	if *specPath == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*specPath)
	}
	fail(err)
	spec, err := job.Parse(data)
	fail(err)
	id, err := queue(nil).Enqueue(spec)
	fail(err)
	fmt.Println(id)
}

func runStatus(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	queue := queueFlag(fs)
	fail(fs.Parse(args))
	q := queue(nil)
	ids, err := q.Jobs()
	fail(err)
	for _, id := range ids {
		st, err := q.State(id)
		if err != nil {
			fmt.Printf("%s  state unreadable: %v\n", id, err)
			continue
		}
		driver, total := "?", 0
		if spec, err := q.Spec(id); err == nil {
			driver = spec.Driver
			if n, _, err := job.SweepSamples(spec); err == nil {
				total = n
			}
		}
		cut, _ := q.DurableCut(id)
		line := fmt.Sprintf("%s  %-6s  driver=%-6s journal=%d/%d", id, st.Status, driver, cut, total)
		if st.Attempts > 0 {
			line += fmt.Sprintf("  attempts=%d", st.Attempts)
		}
		if st.Error != "" {
			line += "  error=" + st.Error
		}
		fmt.Println(line)
	}
}

func runWait(args []string) {
	fs := flag.NewFlagSet("wait", flag.ExitOnError)
	queue := queueFlag(fs)
	idList := fs.String("id", "", "comma-separated job `ids` (empty = every job in the queue)")
	timeout := fs.Duration("timeout", 10*time.Minute, "give up after this long")
	fail(fs.Parse(args))
	q := queue(nil)
	var ids []string
	if *idList != "" {
		ids = strings.Split(*idList, ",")
	} else {
		var err error
		ids, err = q.Jobs()
		fail(err)
	}
	deadline := time.Now().Add(*timeout)
	for {
		pending := 0
		for _, id := range ids {
			st, err := q.State(id)
			fail(err)
			switch st.Status {
			case jobd.StatusDone:
			case jobd.StatusFailed:
				fail(fmt.Errorf("job %s failed: %s", id, st.Error))
			default:
				pending++
			}
		}
		if pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			fail(fmt.Errorf("%d of %d jobs still pending after %v", pending, len(ids), *timeout))
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// runCmp compares two result envelopes on their statistical content.
// Exit 0 means the results describe the same run with bit-identical
// statistics; metrics (resume counts, retry counters) are execution
// wiring and excluded by design.
func runCmp(args []string) {
	fs := flag.NewFlagSet("cmp", flag.ExitOnError)
	fail(fs.Parse(args))
	if fs.NArg() != 2 {
		fail(fmt.Errorf("cmp needs exactly two result.json paths"))
	}
	a := readResult(fs.Arg(0))
	fail(sameRun(fs.Arg(0), a, fs.Arg(1), readResult(fs.Arg(1))))
	fmt.Printf("cmp: identical (%s, %s)\n", a.Driver, a.SpecHash)
}

// sameRun compares the statistical identity of two result envelopes —
// driver, spec hash, summary and failure report — and describes the
// first difference (nil when the runs are identical).
func sameRun(nameA string, a *job.Result, nameB string, b *job.Result) error {
	if a.Driver != b.Driver {
		return fmt.Errorf("driver: %s vs %s", a.Driver, b.Driver)
	}
	if a.SpecHash != b.SpecHash {
		return fmt.Errorf("spec hash: %s vs %s", a.SpecHash, b.SpecHash)
	}
	if ca, cb := canonical(a.Summary), canonical(b.Summary); ca != cb {
		return fmt.Errorf("summary differs:\n%s: %s\n%s: %s", nameA, ca, nameB, cb)
	}
	if ca, cb := canonical(a.Failures), canonical(b.Failures); ca != cb {
		return fmt.Errorf("failure report differs:\n%s: %s\n%s: %s", nameA, ca, nameB, cb)
	}
	return nil
}

func readResult(path string) *job.Result {
	buf, err := os.ReadFile(path)
	fail(err)
	var res job.Result
	fail(json.Unmarshal(buf, &res))
	if res.Driver == "" || res.SpecHash == "" {
		fail(fmt.Errorf("%s: not a result envelope", path))
	}
	return &res
}

// canonical renders a value as canonical JSON: re-reading through plain
// maps erases struct-vs-map field-order differences, so an envelope
// loaded from disk compares equal to one marshaled in memory.
func canonical(v any) string {
	buf, err := json.Marshal(v)
	fail(err)
	var x any
	fail(json.Unmarshal(buf, &x))
	out, err := json.Marshal(x)
	fail(err)
	return string(out)
}
